"""The Stackelberg power-control game engine.

One stage runs the sequential protocol: the base station (leader) measures the
followers' average power from the previous stage and updates its satisfaction
x; every D2D pair (follower) then simultaneously best-responds to the
previous-stage interference, paying a satisfaction price that couples x with
its own transmit power; finally SINR and PDR are measured with the new powers
on the current channel.

Leader utility (strictly concave in x, second derivative -2*p_bar):

    U_BS(x) = -p_bar * x**2 + beta * x + kappa
    beta = 2 * p_bar * x_prev * ln(t),  kappa = kappa_c * ln(t)

whose maximizer over (0, 1] is the clamped recursion x_t = x_prev * ln(t).

Satisfaction price charged to every follower:

    D(x, p) = (delta / ln(q - x)) * (1 / ln(y - p / z))

Follower utilities (p in watts, g the linear SINR, g_bar the class target):

    casual        (g_bar / g) * p                      - D(x, p)
    intermediate  -s * p - c * (g_bar - g)**2          - D(x, p)
    serious       -p**w - h_i / pdr**v                 - D(x, p)

Each class must meet its target SINR, so the best-response search runs over
the feasible set [max(p_min, p_req), p_max] with p_req = g_bar * I / g_own;
if even p_max cannot reach the target the follower transmits at p_max and is
flagged as in outage.

The leader's choice does not react to the followers' powers (p_bar cancels
from its argmax), so x is one path per run, leader_path.  A block of B
repetitions is played in lockstep on the (B, M) power array: play_stages maps
a stage's x, reference powers and (B, M, M) gains to its (B, M) outcome rows.
Every per-pair step runs as numpy arithmetic over the block, with libm's exp,
log and pow element by element, since numpy's SIMD kernels differ from libm
in the last bit and these values reach the CSVs.  Only pairs whose optimum
lies inside their feasible set bisect, one at a time.  The NPC baseline
(``npc``) is the same follower game with no leader and no price (x is None);
both games run on the one stage loop, play_repetitions.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import partial
from itertools import repeat
from typing import Callable

import numpy as np

from . import link
from .channel import CellTopology, FadingState, gain_matrix, generate_topology, path_loss_amplitudes
from .config import CLASS_ORDER, BehaviorClass, GameConfig, behavior_target_pdr, rng_streams


# ---------------------------------------------------------------------------
# Leader.
# ---------------------------------------------------------------------------

def leader_utility(x: float | np.ndarray, p_bar: float, t: float, x_prev: float,
                   kappa_c: float) -> float | np.ndarray:
    """Quadratic satisfaction utility of the base station at stage t >= 1.

    x may be an array of satisfactions; the result is then evaluated per point.
    """
    if p_bar <= 0.0:
        raise ValueError(f"average power must be positive, got {p_bar}")
    if t < 1.0:
        raise ValueError(f"stage index must be >= 1, got {t}")
    log_t = math.log(t)
    beta = 2.0 * p_bar * x_prev * log_t
    kappa = kappa_c * log_t
    return -p_bar * x * x + beta * x + kappa


def leader_best_satisfaction(x_prev: float, t: float, x_floor: float = 0.001) -> float:
    """Maximizer of the leader utility over [x_floor, 1].

    The unconstrained optimum beta / (2 * p_bar) reduces to x_prev * ln(t) for
    any p_bar; the floor prevents collapse at t = 2 where ln(2) < 1.
    """
    if t < 1.0:
        raise ValueError(f"stage index must be >= 1, got {t}")
    return min(1.0, max(x_floor, x_prev * math.log(t)))


# ---------------------------------------------------------------------------
# Satisfaction price and its derivatives.
# ---------------------------------------------------------------------------

def _log_qx(x: float, cfg: GameConfig) -> float:
    if not 0.0 < x <= 1.0:
        raise ValueError(f"satisfaction must lie in (0, 1], got {x}")
    qx = cfg.q - x
    if qx <= 1.0:
        raise ValueError(f"price undefined: q - x = {qx} must exceed 1")
    return math.log(qx)


def _price_logs(x: float, p: float, cfg: GameConfig) -> tuple[float, float, float]:
    log_qx = _log_qx(x, cfg)
    yz = cfg.y - p / cfg.z
    if yz <= 1.0:
        raise ValueError(f"price undefined: y - p/z = {yz} must exceed 1")
    return log_qx, yz, math.log(yz)


def satisfaction_price(x: float, p: float, cfg: GameConfig) -> float:
    """Price D(x, p) > 0 charged by the BS; increasing in both arguments."""
    log_qx, _, log_yz = _price_logs(x, p, cfg)
    return cfg.delta / (log_qx * log_yz)


def price_gradient_x(x: float, p: float, cfg: GameConfig) -> float:
    """dD/dx, positive on the admissible domain."""
    log_qx, _, log_yz = _price_logs(x, p, cfg)
    return cfg.delta / ((cfg.q - x) * log_qx * log_qx * log_yz)


def price_gradient_power(x: float, p: float, cfg: GameConfig) -> float:
    """dD/dp, positive on the admissible domain."""
    log_qx, yz, log_yz = _price_logs(x, p, cfg)
    return cfg.delta / (cfg.z * yz * log_qx * log_yz * log_yz)


def price_curvature_x(x: float, p: float, cfg: GameConfig) -> float:
    """d2D/dx2, positive, so the -D term in every utility is concave in x."""
    log_qx, _, log_yz = _price_logs(x, p, cfg)
    qx = cfg.q - x
    return (cfg.delta / (qx * qx * log_qx * log_qx * log_yz)) * (2.0 / log_qx + 1.0)


def price_curvature_power(x: float, p: float, cfg: GameConfig) -> float:
    """d2D/dp2, positive, so the -D term in every utility is concave in p."""
    log_qx, yz, log_yz = _price_logs(x, p, cfg)
    return (cfg.delta / (cfg.z * cfg.z * yz * yz * log_qx * log_yz * log_yz)) * (
        2.0 / log_yz + 1.0
    )


# ---------------------------------------------------------------------------
# Follower utilities.
# ---------------------------------------------------------------------------

def class_target_sinr(behavior: BehaviorClass, cfg: GameConfig) -> float:
    """Linear target SINR implied by the class's minimum target PDR."""
    return link.target_sinr(behavior_target_pdr(behavior, cfg.priority_mode),
                            cfg.modulation_params)


def _exp_capped(v: float) -> float:
    """math.exp, inf past 700: a deep fade pushes the serious pdr**-v beyond any float."""
    return math.inf if v > 700.0 else math.exp(v)


def _np_exp_capped(v: np.ndarray) -> np.ndarray:
    """_exp_capped over an array; the clamp keeps np.exp finite where np.where discards it."""
    return np.where(v > 700.0, np.inf, np.exp(np.minimum(v, 700.0)))


def _performance(behavior: BehaviorClass, p, gamma, target, cfg: GameConfig,
                 power: Callable, exp: Callable):
    """The class performance term at power p and SINR gamma, over floats or
    arrays of one class, with the caller's power(base, exponent) and capped exp.

    The serious h_i / pdr**v is exp(-v * a * gamma**b) in log space; where
    that exponent passes 700 the term is -inf.
    """
    if behavior is BehaviorClass.CASUAL:
        return (target / gamma) * p
    if behavior is BehaviorClass.INTERMEDIATE:
        err = target - gamma
        return -cfg.s * p - cfg.c * err * err
    mod = cfg.modulation_params
    return -power(p, cfg.w) - cfg.h_i * exp(-cfg.v * mod.a * power(gamma, mod.b))


def payoff(behavior: BehaviorClass, x: float | None, p: float, own_gain: float,
           interference: float, target: float, cfg: GameConfig) -> float:
    """Class performance term minus the satisfaction price; no price when x is None.

    Unvalidated inner form of follower_utility, for loops that have checked
    the gains and looked up the class target SINR once.
    """
    value = _performance(behavior, p, p * own_gain / interference, target, cfg, pow, _exp_capped)
    if x is None:
        return value
    return value - satisfaction_price(x, p, cfg)


def _payoff_on_grid(behavior: BehaviorClass, x: float | None, p: np.ndarray, own_gain: float,
                    interference: float, target: float, cfg: GameConfig) -> np.ndarray:
    """payoff at every power of the array p, for the equilibrium verifiers.

    numpy's exp, log and power may differ from math's in the last bit, so the
    stage path, whose values reach the CSVs, keeps libm's.
    """
    value = _performance(behavior, p, p * own_gain / interference, target, cfg,
                         operator.pow, _np_exp_capped)
    if x is None:
        return value
    _, log_yz = _price_log_yz(p, cfg, np.log)
    return value - cfg.delta / (_log_qx(x, cfg) * log_yz)


def _gradient_fn(behavior: BehaviorClass, target: float, x: float | None, own_gain: float,
                 interference: float, cfg: GameConfig,
                 log_qx: float | None) -> Callable[[float], float]:
    """d(payoff)/dp of one pair as a function of p; log_qx is _log_qx(x, cfg).

    It uses d(gamma)/dp = gamma / p; the price adds -dD/dp unless x is None.
    The constants are folded only where they open a left-associative chain,
    so every value keeps the bits of the unfolded expression.
    """
    if behavior is BehaviorClass.CASUAL:
        def slope(p: float) -> float:
            return 0.0
    elif behavior is BehaviorClass.INTERMEDIATE:
        neg_s, two_c = -cfg.s, 2.0 * cfg.c

        def slope(p: float) -> float:
            gamma = p * own_gain / interference
            return neg_s + two_c * gamma * (target - gamma) / p
    else:
        mod = cfg.modulation_params
        b, neg_va = mod.b, -cfg.v * mod.a
        neg_w, w_1 = -cfg.w, cfg.w - 1.0
        hvab = cfg.h_i * cfg.v * mod.a * mod.b

        def slope(p: float) -> float:
            gamma_b = (p * own_gain / interference) ** b
            exponent = neg_va * gamma_b
            if exponent > 700.0:
                return math.inf
            return neg_w * p ** w_1 + hvab * gamma_b * math.exp(exponent) / p
    if x is None:
        return slope
    y, z, delta = cfg.y, cfg.z, cfg.delta

    def gradient(p: float) -> float:
        value = slope(p)
        yz = y - p / z
        if yz <= 1.0:
            raise ValueError(f"price undefined: y - p/z = {yz} must exceed 1")
        log_yz = math.log(yz)
        return value - delta / (z * yz * log_qx * log_yz * log_yz)

    return gradient


def _libm(fn: Callable[..., float], values: np.ndarray, *args: float) -> np.ndarray:
    """fn(v, *args) for every v of a 1-D array, through libm as the scalar code
    calls it; numpy's SIMD exp, log and power differ from it in the last bit."""
    return np.fromiter(map(fn, values.tolist(), *map(repeat, args)), float, len(values))


def _price_log_yz(p: np.ndarray, cfg: GameConfig, log: Callable) -> tuple[np.ndarray, np.ndarray]:
    """y - p/z and its log(...) at every power of an array, with the price's domain guard."""
    yz = cfg.y - p / cfg.z
    if (yz <= 1.0).any():
        raise ValueError(f"price undefined: y - p/z = {float(yz.min())} must exceed 1")
    return yz, log(yz)


def _gradients(p: np.ndarray, serious: np.ndarray, target: np.ndarray, own_gain: np.ndarray,
               interference: np.ndarray, log_qx: float | None, cfg: GameConfig) -> np.ndarray:
    """_gradient_fn's value for 1-D arrays of intermediate and serious pairs
    (serious marks the serious ones); log_qx is None for the leaderless game.

    The same operations in the same order, with libm's pow and exp, so every
    element has the scalar's bits.
    """
    gamma = p * own_gain / interference
    value = np.empty_like(p)
    mid = ~serious
    g, pm = gamma[mid], p[mid]
    value[mid] = -cfg.s + 2.0 * cfg.c * g * (target[mid] - g) / pm
    mod = cfg.modulation_params
    gamma_b = _libm(pow, gamma[serious], mod.b)
    exponent = -cfg.v * mod.a * gamma_b
    fade = exponent > 700.0
    slope = np.full(len(gamma_b), math.inf)
    ps, gb = p[serious][~fade], gamma_b[~fade]
    slope[~fade] = (-cfg.w * _libm(pow, ps, cfg.w - 1.0)
                    + cfg.h_i * cfg.v * mod.a * mod.b * gb * _libm(math.exp, exponent[~fade]) / ps)
    value[serious] = slope
    if log_qx is None:
        return value
    yz, log_yz = _price_log_yz(p, cfg, partial(_libm, math.log))
    return value - cfg.delta / (cfg.z * yz * log_qx * log_yz * log_yz)


def follower_utility(behavior: BehaviorClass, x: float | None, p: float, own_gain: float,
                     interference: float, cfg: GameConfig) -> float:
    """Utility of one follower with the interference treated as fixed.

    x is the leader's satisfaction, or None for the price-free NPC game.
    """
    if interference <= 0.0:
        raise ValueError(f"interference plus noise must be positive, got {interference}")
    target = class_target_sinr(behavior, cfg)
    return payoff(behavior, x, p, own_gain, interference, target, cfg)


def follower_utility_gradient(behavior: BehaviorClass, x: float | None, p: float,
                              own_gain: float, interference: float, cfg: GameConfig) -> float:
    """dU/dp for one follower; x is None for the price-free NPC game."""
    if interference <= 0.0:
        raise ValueError(f"interference plus noise must be positive, got {interference}")
    target = class_target_sinr(behavior, cfg)
    log_qx = None if x is None else _log_qx(x, cfg)
    return _gradient_fn(behavior, target, x, own_gain, interference, cfg, log_qx)(p)


# ---------------------------------------------------------------------------
# Best response on the feasible power set.
# ---------------------------------------------------------------------------

def maximize_concave(utility: Callable[[float], float], gradient: Callable[[float], float],
                     lo: float, hi: float, tol: float) -> float:
    """Argmax of a concave utility on [lo, hi] via derivative-sign bisection.

    Boundary optima are returned exactly.  Gradient signs no concave utility
    gives (negative at lo, positive at hi) return the better endpoint, ties
    resolved toward lower power.
    """
    if hi - lo <= tol:
        return lo
    return _argmax_from_end_slopes(utility, gradient, lo, hi, gradient(lo), gradient(hi), tol)


def _argmax_from_end_slopes(utility: Callable[[float], float], gradient: Callable[[float], float],
                            lo: float, hi: float, g_lo: float, g_hi: float, tol: float) -> float:
    """maximize_concave once the gradient at both ends, g_lo and g_hi, is known."""
    if g_lo <= 0.0 and g_hi <= 0.0:
        return lo
    if g_lo >= 0.0 and g_hi >= 0.0:
        return hi
    if g_lo > 0.0 > g_hi:
        a, b = lo, hi
        while b - a > tol:
            mid = 0.5 * (a + b)
            g_mid = gradient(mid)
            if g_mid > 0.0:
                a = mid
            elif g_mid < 0.0:
                b = mid
            else:
                return mid
        return 0.5 * (a + b)
    return hi if utility(hi) > utility(lo) else lo


def required_power(target: float, own_gain: float, interference: float) -> float:
    """Power that meets the class target SINR against the given interference."""
    return target * interference / own_gain


def feasible_floor(target, own_gain, interference,
                   cfg: GameConfig) -> tuple[np.ndarray, np.ndarray]:
    """Lowest power of the feasible set [max(p_min, p_req), p_max], plus an outage
    flag, element by element over scalars or arrays.

    When even p_max cannot reach the target the set shrinks to {p_max} and
    the pair is in outage.  fmax, like max(p_min, p_req), ignores a NaN p_req.
    """
    p_req = required_power(target, own_gain, interference)
    outage = p_req > cfg.p_max
    return np.where(outage, cfg.p_max, np.fmax(cfg.p_min, p_req)), outage


def follower_best_response(behavior: BehaviorClass, x: float | None, own_gain: float,
                           interference: float, cfg: GameConfig) -> tuple[float, bool]:
    """Utility-maximizing power on the feasible set, plus an outage flag.

    The feasible set is [max(p_min, p_req), p_max]; when p_req exceeds p_max
    the follower transmits at p_max and is flagged as in outage.  With x None
    (no price) the casual utility is constant in its own power, so the whole
    feasible set is optimal and the minimum feasible power is chosen.  One
    element of the stage engine's best responses.
    """
    if own_gain <= 0.0:
        raise ValueError(f"own-link gain must be positive, got {own_gain}")
    if interference <= 0.0:
        raise ValueError(f"interference plus noise must be positive, got {interference}")
    powers, outages = _best_responses(
        np.array([CLASS_ORDER.index(behavior)]), np.array([class_target_sinr(behavior, cfg)]), x,
        np.array([own_gain], dtype=float), np.array([interference], dtype=float), cfg)
    return float(powers[0]), bool(outages[0])


def _best_responses(classes: np.ndarray, targets: np.ndarray, x: float | None,
                    own_gain: np.ndarray, interference: np.ndarray,
                    cfg: GameConfig) -> tuple[np.ndarray, np.ndarray]:
    """follower_best_response of every element of 1-D arrays of pairs; classes
    holds CLASS_ORDER indices.

    The gradient at both ends of every solved pair's feasible set is taken at
    once, which settles most pairs at an end; only the rest run
    maximize_concave's bisection, one at a time.
    """
    log_qx = None if x is None else _log_qx(x, cfg)
    powers, outages = feasible_floor(targets, own_gain, interference, cfg)
    # In outage the feasible set is {p_max}.  The casual performance term
    # (g_bar/g)*p = g_bar*I/g_own does not depend on the own power and the
    # price only rises with it, so the lowest feasible power is the best
    # response: Yates' standard interference function (IEEE JSAC 1995).
    solve = np.flatnonzero(~outages & (classes != CLASS_ORDER.index(BehaviorClass.CASUAL))
                           & ~(cfg.p_max - powers <= cfg.br_tolerance))
    if not solve.size:
        return powers, outages
    lo = powers[solve]
    pairs = (classes[solve] == CLASS_ORDER.index(BehaviorClass.SERIOUS), targets[solve],
             own_gain[solve], interference[solve], log_qx, cfg)
    g_lo = _gradients(lo, *pairs)
    g_hi = _gradients(np.full(len(lo), cfg.p_max), *pairs)
    falling = (g_lo <= 0.0) & (g_hi <= 0.0)
    rising = ~falling & (g_lo >= 0.0) & (g_hi >= 0.0)
    powers[solve[rising]] = cfg.p_max
    rest = np.flatnonzero(~falling & ~rising)
    for i, target, own, interf, p_lo, g_l, g_h in zip(
            solve[rest].tolist(), targets[solve[rest]].tolist(), own_gain[solve[rest]].tolist(),
            interference[solve[rest]].tolist(), lo[rest].tolist(), g_lo[rest].tolist(),
            g_hi[rest].tolist()):
        behavior = CLASS_ORDER[classes[i]]
        powers[i] = _argmax_from_end_slopes(
            lambda p: payoff(behavior, x, p, own, interf, target, cfg),
            _gradient_fn(behavior, target, x, own, interf, cfg, log_qx),
            p_lo, cfg.p_max, g_l, g_h, cfg.br_tolerance)
    return powers, outages


# ---------------------------------------------------------------------------
# Stage protocol and trajectories.
# ---------------------------------------------------------------------------

# One follower's measured outcome at one stage.  A repetition is a (T, M)
# record array of it; a stage is one (M,) row.  Every record array starts
# zero-filled and record copies go into zero-filled arrays, so the padding
# after outage is zero and equal runs are equal bytes.
RECORD_DTYPE = np.dtype([("power", float), ("sinr", float), ("pdr", float),
                         ("utility", float), ("price", float), ("outage", bool)], align=True)


@dataclass(frozen=True, eq=False)
class StageRecord:
    """One stage of a Trajectory, as Trajectory.records builds it for check_epsilon_nash."""

    t: int
    x: float | None
    behaviors: tuple[BehaviorClass, ...]
    outcomes: np.recarray


@dataclass(frozen=True, eq=False)
class Trajectory:
    """One repetition: the (T, M) outcome records, x per stage (None for the
    leaderless game), the pairs' classes and the channel context behind them."""

    outcomes: np.recarray
    x: np.ndarray | None
    behaviors: tuple[BehaviorClass, ...]
    topology: CellTopology
    final_gains: np.ndarray
    config: GameConfig

    @property
    def records(self) -> tuple[StageRecord, ...]:
        """The stages as StageRecord views of the outcome rows."""
        xs = [None] * len(self.outcomes) if self.x is None else self.x.tolist()
        return tuple(StageRecord(t, x, self.behaviors, row)
                     for t, (x, row) in enumerate(zip(xs, self.outcomes), 1))

    @property
    def convergence_stage(self) -> int | None:
        hits = np.flatnonzero(self.x == 1.0) if self.x is not None else ()
        return int(hits[0]) + 1 if len(hits) else None


def class_means(record: StageRecord) -> tuple[dict, dict]:
    """Per-class mean power (dBm of the mean in watts) and mean PDR of one stage; unused."""
    power_dbm: dict[BehaviorClass, float] = {}
    mean_pdr: dict[BehaviorClass, float] = {}
    for behavior in BehaviorClass:
        members = [i for i, b in enumerate(record.behaviors) if b is behavior]
        if not members:
            continue
        watts = sum(record.outcomes.power[members].tolist()) / len(members)
        power_dbm[behavior] = 10.0 * math.log10(watts * 1e3)
        mean_pdr[behavior] = sum(record.outcomes.pdr[members].tolist()) / len(members)
    return power_dbm, mean_pdr


def measure_followers(classes: np.ndarray, targets: np.ndarray, x: float | None,
                      powers: np.ndarray, own_gain: np.ndarray, interference: np.ndarray,
                      outages: np.ndarray, cfg: GameConfig) -> np.recarray:
    """SINR, PDR, utility and price at the powers just selected, one record per
    element of 1-D arrays of pair-stages; classes holds CLASS_ORDER indices and
    interference is that of the selected powers.

    Each value is the one payoff, satisfaction_price and link.pdr_from_sinr
    give for its element: the same functions, with libm's exp, log and pow.
    """
    sinrs = powers * own_gain / interference
    pdrs = _libm(link.pdr_from_sinr, sinrs, cfg.modulation_params)
    utilities = np.empty_like(powers)
    power, exp = partial(_libm, pow), partial(_libm, _exp_capped)
    for k, behavior in enumerate(CLASS_ORDER):
        members = classes == k
        utilities[members] = _performance(behavior, powers[members], sinrs[members],
                                          targets[members], cfg, power, exp)
    prices = np.zeros_like(powers)
    if x is not None:
        _, log_yz = _price_log_yz(powers, cfg, partial(_libm, math.log))
        prices = cfg.delta / (_log_qx(x, cfg) * log_yz)
    record = np.zeros(len(powers), RECORD_DTYPE).view(np.recarray)
    for name, column in zip(RECORD_DTYPE.names,
                            (powers, sinrs, pdrs, utilities - prices, prices, outages)):
        record[name] = column
    return record


def play_stages(behaviors: tuple[BehaviorClass, ...], targets: list[float], x: float | None,
                reference_powers: np.ndarray, gains: np.ndarray, cfg: GameConfig) -> np.recarray:
    """Best responses of a block's (K, M) rows to the interference of their
    reference_powers on their (K, M, M) gains, then the (K, M) RECORD_DTYPE
    outcome rows.  x is the leader's satisfaction, one for the whole block, or
    None for the leaderless game."""
    shape = reference_powers.shape
    classes = np.tile([CLASS_ORDER.index(b) for b in behaviors], shape[0])
    pair_targets = np.tile(np.asarray(targets, dtype=float), shape[0])
    own = np.diagonal(gains, axis1=1, axis2=2).ravel()
    # Python's float arithmetic: a division by zero raises, an overflow is silent.
    with np.errstate(divide="raise", over="ignore", invalid="ignore"):
        powers, outages = _best_responses(
            classes, pair_targets, x, own,
            link.interference_all(reference_powers, gains, cfg.noise_power).ravel(), cfg)
        interference = link.interference_all(powers.reshape(shape), gains, cfg.noise_power).ravel()
        return measure_followers(classes, pair_targets, x, powers, own, interference, outages,
                                 cfg).reshape(shape)


def play_stage(behaviors: tuple[BehaviorClass, ...], targets: list[float], x: float | None,
               reference_powers: np.ndarray, gains: np.ndarray, cfg: GameConfig) -> np.recarray:
    """play_stages for one row: (M,) reference_powers and (M, M) gains; returns
    the (M,) outcome row."""
    return play_stages(behaviors, targets, x, reference_powers[None], gains[None], cfg)[0]


def leader_path(cfg: GameConfig) -> np.ndarray:
    """The leader's satisfaction at stages 1..T: x_init at stage 1, then
    leader_best_satisfaction(x of stage t - 1, t).  The followers' powers do
    not enter it, so it is one path per run."""
    xs = [cfg.x_init]
    for t in range(2, cfg.stages + 1):
        xs.append(leader_best_satisfaction(xs[-1], float(t), cfg.x_floor))
    return np.array(xs)


def run_stage(behaviors: tuple[BehaviorClass, ...], targets: list[float], x: float | None,
              reference_powers: np.ndarray, gains: np.ndarray, cfg: GameConfig,
              memo: list[list] | None = None) -> np.ndarray:
    """One stage of a block: the (B, M) outcome rows of play_stages at
    satisfaction x (None for the leaderless game).

    memo, given on a frozen channel, holds one list per row: the key (x, bytes
    of the row's reference powers) and outcome row of the row's last two
    stages.  A row's gains never change there, so a row whose key repeats is a
    copy, and only the rows that miss are solved.
    """
    if memo is None:
        return play_stages(behaviors, targets, x, reference_powers, gains, cfg)
    keys = [(x, p.tobytes()) for p in reference_powers]
    outcomes = np.zeros(reference_powers.shape, RECORD_DTYPE)
    miss = []
    for r, (key, kept) in enumerate(zip(keys, memo)):
        hit = next((row for stored, row in kept if stored == key), None)
        if hit is None:
            miss.append(r)
        else:
            outcomes[r] = hit
    if miss:
        solved = play_stages(behaviors, targets, x, reference_powers[miss], gains[miss], cfg)
        outcomes[miss] = solved
        for r, row in zip(miss, solved):
            memo[r][:] = [(keys[r], row)] + memo[r][:1]
    return outcomes


def play_repetitions(cfg: GameConfig, repetitions: range, xs: np.ndarray | None) -> list[Trajectory]:
    """Simulate a block of repetitions in lockstep: at t = 1..T, run_stage at
    the leader's xs[t - 1] (xs None: the leaderless game) answers the (B, M)
    powers of the stage before.

    Each repetition draws its topology, fading and uniform-random initial
    powers from independent substreams of (seed, repetition) and keeps its own
    fading state, so both games with the same seed see the identical channel
    and a repetition's outcomes do not depend on its block.  The leaderless
    game with npc_rerandomize answers, from stage 2 on, a fresh uniform draw
    from each repetition's powers substream, in repetition order, instead.
    Each stage's gains are written into one (B, M, M) buffer.  The outcomes
    fill one (B, T, M) table; each Trajectory holds its repetition's view of
    it, and of the buffer's last gains.
    """
    rngs = [rng_streams(cfg.seed, rep) for rep in repetitions]
    topologies = [generate_topology(cfg, r.topology) for r in rngs]
    m = cfg.num_pairs
    fading = [FadingState((m, m), cfg.jakes_oscillators, cfg.doppler, r.fading) for r in rngs]
    powers = np.array([r.powers.uniform(cfg.p_min, cfg.p_max, size=m) for r in rngs])
    pairs = topologies[0].behaviors
    targets = [class_target_sinr(b, cfg) for b in pairs]
    pl_amps = [path_loss_amplitudes(topology, cfg) for topology in topologies]

    table = np.zeros((len(rngs), cfg.stages, m), RECORD_DTYPE)
    gains = np.empty((len(rngs), m, m))
    # At zero Doppler every oscillator turns by exactly 1+0j, so stage 1's
    # gains hold and a stage's inputs can repeat; a fading channel's never do,
    # so it keeps no memo.
    frozen = cfg.doppler == 0.0
    memo = [[] for _ in rngs] if frozen else None
    redraw = xs is None and cfg.npc_rerandomize
    for t, x in enumerate([None] * cfg.stages if xs is None else xs.tolist(), 1):
        if t == 1 or not frozen:
            for out, pl_amp, state in zip(gains, pl_amps, fading):
                gain_matrix(pl_amp, state.advance(), out=out)
        if t > 1 and redraw:
            powers = np.array([r.powers.uniform(cfg.p_min, cfg.p_max, size=m) for r in rngs])
        rows = run_stage(pairs, targets, x, powers, gains, cfg, memo)
        table[:, t - 1] = rows
        powers = rows["power"].copy()
    table = table.view(np.recarray)
    return [Trajectory(table[r], xs, pairs, topology, gains[r], cfg)
            for r, topology in enumerate(topologies)]


def run_games(cfg: GameConfig, repetitions: range) -> list[Trajectory]:
    """Simulate a block of repetitions of the Stackelberg game, in lockstep."""
    return play_repetitions(cfg, repetitions, leader_path(cfg))


def run_game(cfg: GameConfig, repetition: int = 0) -> Trajectory:
    """Simulate one full repetition of the Stackelberg game."""
    return run_games(cfg, range(repetition, repetition + 1))[0]
