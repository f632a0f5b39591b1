"""Monte Carlo experiment driver, aggregation, verifiers and CSV emission.

Repetitions are independent and own RNG substreams derived from (seed, rep),
so results are identical for any execution order or degree of parallelism.
Transmit powers are averaged in dBm (the mean of per-sample dBm values).
"""

from __future__ import annotations

import concurrent.futures
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import link
from .config import BehaviorClass, CLASS_ORDER, ConfigError, GameConfig
from .game import (
    StageRecord,
    Trajectory,
    _payoff_on_grid,
    class_target_sinr,
    follower_best_response,
    leader_utility,
    payoff,
    required_power,
    run_game,
)
from .npc import run_npc_game

GAMES = {"ubeas": run_game, "npc": run_npc_game}


# ---------------------------------------------------------------------------
# Aggregation.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentSummary:
    """Cross-repetition statistics: per-class aggregates plus per-stage series.

    Transmit powers are averaged in the dB domain (mean of per-sample dBm).
    PDR means cover served (non-outage) pair-stages only; the mass of outage
    events, where even p_max cannot reach the class target SINR, is reported
    separately as outage_rate.  Post-convergence statistics use only stages
    where the leader satisfaction equals 1; the before/after partition covers
    every stage of a repetition exactly once.  Baseline (leaderless) runs only
    fill the overall fields.
    """

    game: str
    repetitions: int
    stages: int
    mean_power_dbm: dict[BehaviorClass, float]
    mean_power_dbm_before: dict[BehaviorClass, float] | None
    mean_power_dbm_after: dict[BehaviorClass, float] | None
    mean_pdr: dict[BehaviorClass, float]
    se_power_db: dict[BehaviorClass, float]
    count_power: dict[BehaviorClass, int]
    count_pdr: dict[BehaviorClass, int]
    stage_mean_x: np.ndarray | None
    stage_class_power_dbm: dict[BehaviorClass, np.ndarray]
    stage_class_pdr: dict[BehaviorClass, np.ndarray]
    convergence_stages: tuple[int | None, ...]
    x_profile_ok: tuple[bool, ...]
    outage_rate: float


def _x_profile_ok(x: np.ndarray) -> bool:
    """Satisfaction is nondecreasing once past its running minimum and holds 1."""
    xs = x.tolist()
    min_pos = int(np.argmin(xs))
    tail = xs[min_pos:]
    if any(b < a for a, b in zip(tail, tail[1:])):
        return False
    if 1.0 not in xs:
        return False
    first_one = xs.index(1.0)
    return all(x == 1.0 for x in xs[first_one:])


def _dbm(powers: np.ndarray) -> np.ndarray:
    """watts_to_dbm of every power, through math.log10 as the scalar form computes it."""
    logs = np.fromiter(map(math.log10, (powers * 1e3).ravel().tolist()), float, powers.size)
    return 10.0 * logs.reshape(powers.shape)


def _total(values: np.ndarray) -> float:
    """Left-to-right sum of a 1-D array, as a scalar loop adds it."""
    return float(np.add.accumulate(values)[-1]) if values.size else 0.0


def _stage_totals(values: np.ndarray, members: np.ndarray) -> np.ndarray:
    """Per stage, the left-to-right sum over (rep, pair) of the (R, T, M) values
    whose pair is in the (R, M) mask members."""
    return np.add.accumulate(values.transpose(1, 0, 2)[:, members], axis=1)[:, -1]


def summarize(trajectories: list[Trajectory]) -> ExperimentSummary:
    """Aggregate equal-shape trajectories into an ExperimentSummary.

    Sums run in (repetition, stage, pair) order, left to right, so every
    figure is the one a per-sample loop computes, bit for bit.
    """
    if not trajectories:
        raise ValueError("cannot summarize an empty trajectory list")
    shape = trajectories[0].outcomes.shape
    if any(t.outcomes.shape != shape for t in trajectories):
        raise ValueError("trajectories must all have the same number of stages and pairs")
    stages = shape[0]
    game = "npc" if trajectories[0].x is None else "ubeas"

    table = np.stack([t.outcomes for t in trajectories])
    dbm = _dbm(table["power"])
    served = ~table["outage"]
    pdr_served = np.where(served, table["pdr"], 0.0)   # + 0.0 leaves a sum unchanged
    convergence = [t.convergence_stage for t in trajectories]
    x_ok = [_x_profile_ok(t.x) if game == "ubeas" else False for t in trajectories]
    conv = np.array([math.inf if c is None else c for c in convergence])[:, None, None]
    stage_t = np.arange(1, stages + 1)[None, :, None]
    before_mask = stage_t < conv
    after_mask = stage_t >= conv

    power_n, pdr_n = {}, {}
    mean_power, mean_pdr, se_power, before, after = {}, {}, {}, {}, {}
    stage_power_dbm, stage_pdr_mean = {}, {}
    for b in BehaviorClass:
        members = np.array([[behavior is b for behavior in t.behaviors] for t in trajectories])
        in_class = np.broadcast_to(members[:, None, :], dbm.shape)
        values = dbm[in_class]
        power_n[b] = n = values.size
        pdr_n[b] = np.count_nonzero(served[in_class])
        if not n:
            continue
        mean_power[b] = mean_db = _total(values) / n
        var = max(_total(values * values) / n - mean_db * mean_db, 0.0)
        se_power[b] = math.sqrt(var / n)
        if pdr_n[b]:
            mean_pdr[b] = _total(table["pdr"][in_class & served]) / pdr_n[b]
        for mask, means in ((before_mask, before), (after_mask, after)):
            part = dbm[in_class & mask]
            if part.size:
                means[b] = _total(part) / part.size
        stage_power_dbm[b] = _stage_totals(dbm, members) / np.count_nonzero(members)
        stage_pdr_n = np.count_nonzero(served.transpose(1, 0, 2)[:, members], axis=1)
        stage_pdr_mean[b] = np.where(
            stage_pdr_n > 0, _stage_totals(pdr_served, members) / np.maximum(stage_pdr_n, 1),
            np.nan)
    has_partition = game == "ubeas" and any(c is not None for c in convergence)
    n_rep = len(trajectories)
    mean_x = None
    if game == "ubeas":
        mean_x = np.add.accumulate(np.stack([t.x for t in trajectories]), axis=0)[-1] / n_rep
    return ExperimentSummary(
        game=game,
        repetitions=n_rep,
        stages=stages,
        mean_power_dbm=mean_power,
        mean_power_dbm_before=before if has_partition else None,
        mean_power_dbm_after=after if has_partition else None,
        mean_pdr=mean_pdr,
        se_power_db=se_power,
        count_power=power_n,
        count_pdr=pdr_n,
        stage_mean_x=mean_x,
        stage_class_power_dbm=stage_power_dbm,
        stage_class_pdr=stage_pdr_mean,
        convergence_stages=tuple(convergence),
        x_profile_ok=tuple(x_ok),
        outage_rate=np.count_nonzero(~served) / served.size if served.size else 0.0,
    )


def _run_one(args: tuple[GameConfig, str, int]) -> Trajectory:
    cfg, kind, rep = args
    try:
        return GAMES[kind](cfg, repetition=rep)
    except ConfigError as exc:
        raise ConfigError(f"repetition {rep}: {exc}") from exc
    except (ArithmeticError, ValueError) as exc:
        # A validated config passes every domain guard of the model unless its
        # scales push gains, SINR or PDR out of floating-point range.
        raise ConfigError(f"repetition {rep}: {exc} (numbers out of floating-point range)") from exc
    except Exception as exc:
        raise RuntimeError(f"repetition {rep} failed: {exc}") from exc


def run_experiment(cfg: GameConfig, game: str = "ubeas", jobs: int = 1,
                   keep_trajectories: bool = True,
                   ) -> tuple[ExperimentSummary, list[Trajectory] | None]:
    """Run all repetitions of one game kind and aggregate.

    Deterministic for a fixed seed regardless of jobs; repetitions are always
    aggregated in index order.
    """
    if game not in GAMES:
        raise ValueError(f"unknown game kind {game!r}; expected one of {tuple(GAMES)}")
    tasks = [(cfg, game, rep) for rep in range(cfg.repetitions)]
    if jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            trajectories = list(pool.map(_run_one, tasks, chunksize=max(1, len(tasks) // (4 * jobs))))
    else:
        trajectories = [_run_one(task) for task in tasks]
    summary = summarize(trajectories)
    return summary, (trajectories if keep_trajectories else None)


# ---------------------------------------------------------------------------
# Equilibrium verifiers.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NashReport:
    """Unilateral-deviation audit of one stage on a frozen channel."""

    passed: bool
    epsilon: float
    follower_gains: tuple[float, ...]
    worst_follower: int | None
    worst_gain: float
    leader_ok: bool


def check_epsilon_nash(record: StageRecord, gains: np.ndarray, cfg: GameConfig,
                       epsilon: float = 1e-6, grid_points: int = 10_000) -> NashReport:
    """Grid-search every follower's unilateral deviations over its feasible set.

    Passes iff no follower can gain more than epsilon and the recorded
    satisfaction maximizes the leader utility on an equally fine grid.
    """
    powers = record.powers
    deviation_gains = []
    for i, behavior in enumerate(record.behaviors):
        interference = float(
            powers @ gains[:, i] - powers[i] * gains[i, i] + cfg.noise_power
        )
        own = float(gains[i, i])
        target = class_target_sinr(behavior, cfg)
        p_req = required_power(target, own, interference)
        if p_req > cfg.p_max:
            lo = hi = cfg.p_max
        else:
            lo, hi = max(cfg.p_min, p_req), cfg.p_max

        # The recorded power goes through the grid's own payoff: math.exp and
        # np.exp differ in the last bit, which at a deep fade's -1e244 is a
        # false gain of 1e228.  Equal payoffs, -inf included, gain nothing.
        grid = np.linspace(lo, hi, grid_points) if hi > lo else np.array([lo])
        current = float(_payoff_on_grid(behavior, record.x, powers[i:i + 1], own, interference,
                                        target, cfg)[0])
        best = float(_payoff_on_grid(behavior, record.x, grid, own, interference, target, cfg).max())
        deviation_gains.append(0.0 if best == current else best - current)

    worst = int(np.argmax(deviation_gains)) if deviation_gains else None
    worst_gain = deviation_gains[worst] if deviation_gains else 0.0

    leader_ok = True
    if record.x is not None:
        p_bar = float(powers.mean())
        current_x = leader_utility(record.x, p_bar, float(record.t), record.x, cfg.kappa_c)
        # The quadratic uses only + - *, so on an array it is the scalar
        # utility evaluated point by point.
        x_grid = np.linspace(cfg.x_floor, 1.0, grid_points)
        best_x = float(leader_utility(x_grid, p_bar, float(record.t), record.x, cfg.kappa_c).max())
        leader_ok = current_x >= best_x - epsilon

    passed = leader_ok and worst_gain <= epsilon
    return NashReport(passed, epsilon, tuple(deviation_gains), worst, worst_gain, leader_ok)


@dataclass(frozen=True)
class ParetoReport:
    """Power-minimality audit of a converged trajectory."""

    converged: bool
    convergence_stage: int | None
    minimality_ok: bool
    class_power_delta_dbm: dict[BehaviorClass, float]
    replay_stages: int


def check_pareto_convergence(trajectory: Trajectory, window: int = 20,
                             epsilon: float = 1e-6,
                             grid_points: int = 2_000) -> ParetoReport:
    """Verify the Pareto outcome: satisfaction converged, powers minimal.

    Replays best responses on the final (frozen) gains until a fixed point,
    then checks no follower could transmit less while meeting its target PDR
    without losing utility.  A never-converged trajectory is reported, not
    raised.
    """
    cfg = trajectory.config
    conv = trajectory.convergence_stage
    deltas = _class_power_deltas(trajectory)
    if conv is None or not _x_profile_ok(trajectory.x):
        return ParetoReport(False, conv, False, deltas, 0)

    gains = trajectory.final_gains
    powers = trajectory.outcomes.power[-1].copy()
    m = len(powers)
    behaviors = trajectory.behaviors
    targets = [class_target_sinr(b, cfg) for b in behaviors]
    x = float(trajectory.x[-1])

    replay_stages = 0
    for _ in range(window):
        replay_stages += 1
        interference = link.interference_all(powers, gains, cfg.noise_power)
        new_powers = powers.copy()
        for i in range(m):
            new_powers[i], _ = follower_best_response(
                behaviors[i], x, float(gains[i, i]), float(interference[i]), cfg)
        shift = float(np.max(np.abs(new_powers - powers)))
        powers = new_powers
        if shift < epsilon:
            break

    # A follower fails power-minimality if it could transmit meaningfully less
    # (at least the reduction quantum below its current power) while keeping
    # its target PDR and not lowering its own utility.
    reduction_quantum = 1e-4
    minimality_ok = True
    for i in range(m):
        interference = float(
            powers @ gains[:, i] - powers[i] * gains[i, i] + cfg.noise_power
        )
        own = float(gains[i, i])
        p_req = required_power(targets[i], own, interference)
        lo = max(cfg.p_min, min(p_req, cfg.p_max))
        top = float(powers[i]) - reduction_quantum
        if top <= lo:
            continue  # already at the bottom of its feasible set
        current = payoff(behaviors[i], x, float(powers[i]), own, interference, targets[i], cfg)
        grid = np.linspace(lo, top, grid_points)
        values = _payoff_on_grid(behaviors[i], x, grid, own, interference, targets[i], cfg)
        if np.any((values >= current) & (grid >= p_req)):
            minimality_ok = False
            break

    return ParetoReport(True, conv, minimality_ok, deltas, replay_stages)


def _class_power_deltas(trajectory: Trajectory) -> dict[BehaviorClass, float]:
    """Post-convergence minus pre-convergence class mean power in dB."""
    conv = trajectory.convergence_stage
    if conv is None:
        return {}
    dbm = _dbm(trajectory.outcomes.power)
    deltas = {}
    for b in BehaviorClass:
        members = np.array([behavior is b for behavior in trajectory.behaviors])
        pre, post = dbm[:conv - 1, members], dbm[conv - 1:, members]
        if pre.size and post.size:
            deltas[b] = float(np.mean(post.ravel())) - float(np.mean(pre.ravel()))
    return deltas


# ---------------------------------------------------------------------------
# CSV emission.
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    value = float(value)
    if math.isnan(value):
        return ""
    return repr(value)


def _cells(values: np.ndarray) -> list[str]:
    """_fmt of every float of an array, in C order."""
    return ["" if v != v else repr(v) for v in values.ravel().tolist()]


TRAJECTORY_HEADER = "rep,t,pair,class,x,p_dbm,sinr,pdr,utility,price,outage"
# Rows of trajectory.csv formatted per write, in whole stages: whole
# repetitions at once cost more peak memory in row strings.
WRITE_ROWS = 1536


def emit_outputs(summary: ExperimentSummary, trajectories: list[Trajectory],
                 out_dir) -> list[Path]:
    """Write the experiment outputs as UTF-8 CSV files with fixed headers.

    Files: trajectory.csv, summary.csv, satisfaction.csv, class_power.csv,
    class_pdr.csv and long.csv (plot-ready long format).  Byte-identical for
    identical (config, seed).
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    path = out / "trajectory.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(TRAJECTORY_HEADER + "\n")
        for rep, traj in enumerate(trajectories):
            pairs = [f"{i},{b.label}," for i, b in enumerate(traj.behaviors)]
            xs = [""] * len(traj.outcomes) if traj.x is None else _cells(traj.x)
            step = max(1, WRITE_ROWS // len(pairs))
            for start in range(0, len(traj.outcomes), step):
                block = traj.outcomes[start:start + step]
                heads = [f"{rep},{t},{pair}{x}"
                         for t, x in enumerate(xs[start:start + len(block)], start + 1)
                         for pair in pairs]
                outage = ["1" if o else "0" for o in block["outage"].ravel().tolist()]
                columns = [_cells(_dbm(block["power"]))] + [
                    _cells(block[name]) for name in ("sinr", "pdr", "utility", "price")]
                fh.write("\n".join(map(",".join, zip(heads, *columns, outage))) + "\n")
    written.append(path)

    path = out / "summary.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("metric,row,casual,intermediate,serious\n")

        def row(metric: str, label: str, values: dict | None) -> str:
            cells = [
                _fmt(values.get(b)) if values is not None else ""
                for b in CLASS_ORDER
            ]
            return f"{metric},{label}," + ",".join(cells) + "\n"

        if summary.game == "ubeas":
            fh.write(row("mean transmit power (dBm)", "before BS convergence",
                         summary.mean_power_dbm_before))
            fh.write(row("mean transmit power (dBm)", "after BS convergence",
                         summary.mean_power_dbm_after))
        fh.write(row("mean transmit power (dBm)", "overall", summary.mean_power_dbm))
        fh.write(row("mean PDR", "overall", summary.mean_pdr))
        fh.write(row("power standard error (dB)", "overall", summary.se_power_db))
        fh.write(f"outage rate,overall,{_fmt(summary.outage_rate)},,\n")
    written.append(path)

    path = out / "satisfaction.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("t,mean_x\n")
        for k in range(summary.stages):
            x = summary.stage_mean_x[k] if summary.stage_mean_x is not None else None
            fh.write(f"{k + 1},{_fmt(x)}\n")
    written.append(path)

    per_class_series = (
        ("class_power.csv", "t,casual_dbm,intermediate_dbm,serious_dbm", summary.stage_class_power_dbm),
        ("class_pdr.csv", "t,casual,intermediate,serious", summary.stage_class_pdr),
    )
    for name, header, series in per_class_series:
        path = out / name
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(header + "\n")
            for k in range(summary.stages):
                cells = [_fmt(series[b][k]) if b in series else "" for b in CLASS_ORDER]
                fh.write(f"{k + 1}," + ",".join(cells) + "\n")
        written.append(path)

    path = out / "long.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("series,t,value\n")
        if summary.stage_mean_x is not None:
            for k in range(summary.stages):
                fh.write(f"mean_x,{k + 1},{_fmt(summary.stage_mean_x[k])}\n")
        for b in CLASS_ORDER:
            if b in summary.stage_class_power_dbm:
                for k in range(summary.stages):
                    fh.write(f"{b.label}_power_dbm,{k + 1},"
                             f"{_fmt(summary.stage_class_power_dbm[b][k])}\n")
        for b in CLASS_ORDER:
            if b in summary.stage_class_pdr:
                for k in range(summary.stages):
                    fh.write(f"{b.label}_pdr,{k + 1},{_fmt(summary.stage_class_pdr[b][k])}\n")
    written.append(path)
    return written
