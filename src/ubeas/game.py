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

A repetition's state is x and the (M,) power array: play_stage maps them and
the gains to the stage's (M,) outcome row.  The NPC baseline (``npc``) is the
same follower game with no leader and no price (x is None); both games run on
play_stage and play_repetition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import link
from .channel import CellTopology, FadingState, gain_matrix, generate_topology, path_loss_amplitudes
from .config import BehaviorClass, GameConfig, behavior_target_pdr, rng_streams


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


def payoff(behavior: BehaviorClass, x: float | None, p: float, own_gain: float,
           interference: float, target: float, cfg: GameConfig) -> float:
    """Class performance term minus the satisfaction price; no price when x is None.

    Unvalidated inner form of follower_utility, for loops that have checked
    the gains and looked up the class target SINR once.
    """
    gamma = p * own_gain / interference
    if behavior is BehaviorClass.CASUAL:
        value = (target / gamma) * p
    elif behavior is BehaviorClass.INTERMEDIATE:
        err = target - gamma
        value = -cfg.s * p - cfg.c * err * err
    else:
        mod = cfg.modulation_params
        # h_i / pdr**v evaluated in log space; deep fades push pdr below the
        # smallest normal float and the penalty toward infinity.
        exponent = -cfg.v * mod.a * gamma ** mod.b
        if exponent > 700.0:
            value = -math.inf
        else:
            value = -(p ** cfg.w) - cfg.h_i * math.exp(exponent)
    if x is None:
        return value
    return value - satisfaction_price(x, p, cfg)


def _payoff_on_grid(behavior: BehaviorClass, x: float | None, p: np.ndarray, own_gain: float,
                    interference: float, target: float, cfg: GameConfig) -> np.ndarray:
    """payoff at every power of the array p, for the equilibrium verifiers.

    numpy's exp, log and power may differ from math's in the last bit, so the
    stage path, whose values reach the CSVs, keeps the scalar payoff.
    """
    gamma = p * own_gain / interference
    if behavior is BehaviorClass.CASUAL:
        value = (target / gamma) * p
    elif behavior is BehaviorClass.INTERMEDIATE:
        err = target - gamma
        value = -cfg.s * p - cfg.c * err * err
    else:
        mod = cfg.modulation_params
        exponent = -cfg.v * mod.a * gamma ** mod.b
        # The same -inf guard as payoff; the clamp keeps np.exp finite where
        # np.where discards it.
        value = np.where(exponent > 700.0, -np.inf,
                         -(p ** cfg.w) - cfg.h_i * np.exp(np.minimum(exponent, 700.0)))
    if x is None:
        return value
    log_qx = _log_qx(x, cfg)
    yz = cfg.y - p / cfg.z
    if np.any(yz <= 1.0):
        raise ValueError(f"price undefined: y - p/z = {float(yz.min())} must exceed 1")
    return value - cfg.delta / (log_qx * np.log(yz))


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
# Concave scalar maximization on the feasible power set.
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
    g_lo = gradient(lo)
    g_hi = gradient(hi)
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


def feasible_floor(target: float, own_gain: float, interference: float,
                   cfg: GameConfig) -> tuple[float, bool]:
    """Lowest power of the feasible set [max(p_min, p_req), p_max], plus an outage flag.

    When even p_max cannot reach the target the set shrinks to {p_max} and
    the pair is in outage.
    """
    p_req = required_power(target, own_gain, interference)
    if p_req > cfg.p_max:
        return cfg.p_max, True
    return max(cfg.p_min, p_req), False


def follower_best_response(behavior: BehaviorClass, x: float | None, own_gain: float,
                           interference: float, cfg: GameConfig) -> tuple[float, bool]:
    """Utility-maximizing power on the feasible set, plus an outage flag.

    The feasible set is [max(p_min, p_req), p_max]; when p_req exceeds p_max
    the follower transmits at p_max and is flagged as in outage.  With x None
    (no price) the casual utility is constant in its own power, so the whole
    feasible set is optimal and the minimum feasible power is chosen.
    """
    if own_gain <= 0.0:
        raise ValueError(f"own-link gain must be positive, got {own_gain}")
    if interference <= 0.0:
        raise ValueError(f"interference plus noise must be positive, got {interference}")
    log_qx = None if x is None else _log_qx(x, cfg)
    target = class_target_sinr(behavior, cfg)
    return _best_response_with_target(behavior, target, x, own_gain, interference, cfg, log_qx)


def _best_response_with_target(behavior: BehaviorClass, target: float, x: float | None,
                               own_gain: float, interference: float, cfg: GameConfig,
                               log_qx: float | None) -> tuple[float, bool]:
    lo, outage = feasible_floor(target, own_gain, interference, cfg)
    if outage or behavior is BehaviorClass.CASUAL:
        # In outage the feasible set is {p_max}.  The casual performance term
        # (g_bar/g)*p = g_bar*I/g_own does not depend on the own power and
        # the price only rises with it, so the lowest feasible power is the
        # best response: Yates' standard interference function (IEEE JSAC 1995).
        return lo, outage
    power = maximize_concave(
        lambda p: payoff(behavior, x, p, own_gain, interference, target, cfg),
        _gradient_fn(behavior, target, x, own_gain, interference, cfg, log_qx),
        lo, cfg.p_max, cfg.br_tolerance,
    )
    return power, False


# ---------------------------------------------------------------------------
# Stage protocol and trajectories.
# ---------------------------------------------------------------------------

# One follower's measured outcome at one stage.  A repetition is a (T, M)
# record array of it; a stage is one (M,) row.  Both start zero-filled, so the
# padding after outage is zero and equal runs are equal bytes.
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


def measure_followers(behaviors: tuple[BehaviorClass, ...], targets: list[float],
                      x: float | None, powers: np.ndarray, gains: np.ndarray,
                      outages: tuple[bool, ...], cfg: GameConfig) -> np.recarray:
    """SINR, PDR, utility and price at the powers just selected, as an (M,) record array."""
    interference = link.interference_all(powers, gains, cfg.noise_power)
    sinrs = powers * np.diagonal(gains) / interference
    mod = cfg.modulation_params
    pdrs, utilities, prices = [], [], []
    for behavior, target, p, gamma, own, interf in zip(
            behaviors, targets, powers.tolist(), sinrs.tolist(), np.diagonal(gains).tolist(),
            interference.tolist()):
        pdrs.append(link.pdr_from_sinr(gamma, mod))
        price = 0.0 if x is None else satisfaction_price(x, p, cfg)
        prices.append(price)
        # The same subtraction payoff makes, with the price computed once.
        utilities.append(payoff(behavior, None, p, own, interf, target, cfg) - price)
    record = np.zeros(len(behaviors), RECORD_DTYPE).view(np.recarray)
    for name, column in zip(RECORD_DTYPE.names, (powers, sinrs, pdrs, utilities, prices, outages)):
        record[name] = column
    return record


def play_stage(behaviors: tuple[BehaviorClass, ...], targets: list[float], x: float | None,
               reference_powers: np.ndarray, gains: np.ndarray, cfg: GameConfig,
               memo: list | None = None) -> np.recarray:
    """Best responses to the interference of reference_powers, then the (M,) outcome row.

    x is the leader's satisfaction, or None for the leaderless game.  memo keeps
    x, the bytes of reference_powers and gains, and the outcomes of one pair
    list's last two stages; the outcomes depend on nothing else, so a repeat
    is a copy.
    """
    powers_key = reference_powers.tobytes()
    for key_x, key_powers, key_gains, outcomes in memo or ():
        if key_x == x and key_powers == powers_key and key_gains == gains.tobytes():
            return outcomes.copy()
    interference = link.interference_all(reference_powers, gains, cfg.noise_power)
    log_qx = None if x is None else _log_qx(x, cfg)
    powers, outages = zip(*(
        _best_response_with_target(behavior, target, x, own, interf, cfg, log_qx)
        for behavior, target, own, interf in zip(behaviors, targets, np.diagonal(gains).tolist(),
                                                 interference.tolist())))
    outcomes = measure_followers(behaviors, targets, x, np.array(powers), gains, outages, cfg)
    if memo is not None:
        memo[:] = [(x, powers_key, gains.tobytes(), outcomes.copy())] + memo[:1]
    return outcomes


def run_stage(behaviors: tuple[BehaviorClass, ...], targets: list[float], x_prev: float | None,
              prev_powers: np.ndarray, gains: np.ndarray, t: int, cfg: GameConfig,
              memo: list | None = None) -> tuple[float, np.recarray]:
    """Stage t of the game: the leader's satisfaction and the outcome row.

    The leader best-responds to x_prev (x_init at t = 1); each follower then
    best-responds to the interference of prev_powers with the new satisfaction
    in its price and is measured on the current gains.  memo is play_stage's.
    """
    x = cfg.x_init if t == 1 else leader_best_satisfaction(x_prev, float(t), cfg.x_floor)
    return x, play_stage(behaviors, targets, x, prev_powers, gains, cfg, memo)


def play_repetition(cfg: GameConfig, repetition: int, behaviors: list[BehaviorClass] | None,
                    stage: Callable[..., tuple[float | None, np.recarray]]) -> Trajectory:
    """Simulate one repetition: (x, row) = stage(behaviors, targets, x, powers, gains, t,
    powers_rng, memo) at t = 1..T, each stage answering the last one's x and powers.

    Topology, fading and the uniform-random initial powers are drawn from
    independent substreams of (seed, repetition), so both games with the same
    seed see the identical channel; the powers substream is left to the stage
    policy after the initial draw.  memo is the repetition's play_stage memo.
    """
    rngs = rng_streams(cfg.seed, repetition)
    topology = generate_topology(cfg, rngs.topology, behaviors)
    m = topology.num_pairs
    fading = FadingState((m, m), cfg.jakes_oscillators, cfg.doppler, rngs.fading)
    powers = rngs.powers.uniform(cfg.p_min, cfg.p_max, size=m)
    targets = [class_target_sinr(b, cfg) for b in topology.behaviors]
    pl_amp = path_loss_amplitudes(topology, cfg)

    outcomes = np.zeros((cfg.stages, m), RECORD_DTYPE).view(np.recarray)
    x, xs, memo = None, [], []
    for t in range(1, cfg.stages + 1):
        # At zero Doppler every oscillator turns by exactly 1+0j, so stage 1's gains hold.
        if t == 1 or cfg.doppler > 0.0:
            gains = gain_matrix(pl_amp, fading.advance())
        x, row = stage(topology.behaviors, targets, x, powers, gains, t, rngs.powers, memo)
        outcomes[t - 1] = row
        xs.append(x)
        powers = row.power.copy()
    return Trajectory(outcomes, None if x is None else np.array(xs), topology.behaviors,
                      topology, gains, cfg)


def run_game(cfg: GameConfig, repetition: int = 0,
             behaviors: list[BehaviorClass] | None = None) -> Trajectory:
    """Simulate one full repetition of the Stackelberg game."""
    return play_repetition(
        cfg, repetition, behaviors,
        lambda pairs, targets, x, powers, gains, t, _rng, memo: run_stage(
            pairs, targets, x, powers, gains, t, cfg, memo))
