"""Monte Carlo experiment driver, aggregation, verifiers and CSV emission.

Repetitions are independent and own RNG substreams derived from (seed, rep),
so results are identical for any execution order or degree of parallelism.
Transmit powers are averaged in dBm (the mean of per-sample dBm values).
"""

from __future__ import annotations

import concurrent.futures
import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Iterable, Iterator

import numpy as np

from .channel import CellTopology
from .config import BehaviorClass, CLASS_ORDER, ConfigError, GameConfig
from .game import (
    StageRecord,
    Trajectory,
    _payoff_on_grid,
    class_target_sinr,
    feasible_floor,
    leader_utility,
    play_stage,
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
    """watts_to_dbm of every power through math.log10, once per distinct bit pattern."""
    bits, index = np.unique(powers.view(np.int64), return_inverse=True)
    logs = np.fromiter(map(math.log10, (bits.view(float) * 1e3).tolist()), float, bits.size)
    return 10.0 * logs[index].reshape(powers.shape)


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


def run_experiment(cfg: GameConfig, game: str = "ubeas",
                   jobs: int = 1) -> tuple[ExperimentSummary, list[Trajectory]]:
    """Run all repetitions of one game kind and aggregate.

    Deterministic for a fixed seed regardless of jobs; repetitions are always
    aggregated in index order.
    """
    if game not in GAMES:
        raise ValueError(f"unknown game kind {game!r}; expected one of {tuple(GAMES)}")
    tasks = [(cfg, game, rep) for rep in range(cfg.repetitions)]
    # A forking pool starts every worker at its first submit: one per repetition is enough.
    jobs = min(jobs, len(tasks))
    if jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            trajectories = list(pool.map(_run_one, tasks, chunksize=max(1, len(tasks) // (4 * jobs))))
    else:
        trajectories = [_run_one(task) for task in tasks]
    return summarize(trajectories), trajectories


# ---------------------------------------------------------------------------
# Equilibrium verifiers.
# ---------------------------------------------------------------------------

def _follower_audits(behaviors: tuple[BehaviorClass, ...], x: float | None, powers: np.ndarray,
                     gains: np.ndarray, cfg: GameConfig) -> Iterator[tuple[float, float, Callable]]:
    """Per follower, against the others' powers: (lowest feasible power, payoff
    at its own power, payoff at every power of an array).

    The own power goes through the grid's payoff: math.exp and np.exp differ
    in the last bit, which at a deep fade's -1e244 is a false gain of 1e228.
    """
    for i, behavior in enumerate(behaviors):
        interference = float(
            powers @ gains[:, i] - powers[i] * gains[i, i] + cfg.noise_power
        )
        own = float(gains[i, i])
        target = class_target_sinr(behavior, cfg)
        lo, _ = feasible_floor(target, own, interference, cfg)
        on_grid = partial(_payoff_on_grid, behavior, x, own_gain=own, interference=interference,
                          target=target, cfg=cfg)
        yield lo, float(on_grid(powers[i:i + 1])[0]), on_grid


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
    powers = record.outcomes.power.copy()
    deviation_gains = []
    for lo, current, on_grid in _follower_audits(record.behaviors, record.x, powers, gains, cfg):
        grid = np.linspace(lo, cfg.p_max, grid_points) if cfg.p_max > lo else np.array([lo])
        best = float(on_grid(grid).max())
        # Equal payoffs, -inf included, gain nothing.
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


# The replay stops once no power moves by PARETO_EPSILON; the minimality scan
# checks PARETO_GRID_POINTS powers from the floor to PARETO_REDUCTION below each own power.
PARETO_EPSILON = 1e-6
PARETO_REDUCTION = 1e-4
PARETO_GRID_POINTS = 2_000


def check_pareto_convergence(trajectory: Trajectory, window: int = 20) -> ParetoReport:
    """Verify the Pareto outcome: satisfaction converged, powers minimal.

    Replays play_stage on the final (frozen) gains from the last stage's
    powers for at most window stages, until a fixed point, then checks no
    follower could transmit less while meeting its target PDR without losing
    utility.  Convergence, the x profile and the class power deltas are
    summarize's.  A never-converged trajectory is reported, not raised.
    """
    cfg = trajectory.config
    summary = summarize([trajectory])
    conv = summary.convergence_stages[0]
    before, after = summary.mean_power_dbm_before, summary.mean_power_dbm_after
    deltas = {} if before is None else {b: after[b] - before[b] for b in after if b in before}
    if conv is None or not summary.x_profile_ok[0]:
        return ParetoReport(False, conv, False, deltas, 0)

    gains, behaviors = trajectory.final_gains, trajectory.behaviors
    x = float(trajectory.x[-1])
    targets = [class_target_sinr(b, cfg) for b in behaviors]
    powers = trajectory.outcomes.power[-1].copy()
    replay_stages, memo = 0, []
    while replay_stages < window:
        replay_stages += 1
        new_powers = play_stage(behaviors, targets, x, powers, gains, cfg, memo).power.copy()
        shift = float(np.max(np.abs(new_powers - powers)))
        powers = new_powers
        if shift < PARETO_EPSILON:
            break

    audits = _follower_audits(behaviors, x, powers, gains, cfg)
    minimality_ok = not any(
        top > lo and np.any(on_grid(np.linspace(lo, top, PARETO_GRID_POINTS)) >= current)
        for top, (lo, current, on_grid) in zip((powers - PARETO_REDUCTION).tolist(), audits))
    return ParetoReport(True, conv, minimality_ok, deltas, replay_stages)


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
    """_fmt of every float of an array, in C order, once per distinct bit pattern."""
    bits, index = np.unique(values.view(np.int64), return_inverse=True)
    texts = np.array(["" if v != v else repr(v) for v in bits.view(float).tolist()], dtype=object)
    return texts[index.ravel()].tolist()


TRAJECTORY_HEADER = "rep,t,pair,class,x,p_dbm,sinr,pdr,utility,price,outage"
# Rows of trajectory.csv formatted per write, in whole stages: whole
# repetitions at once cost more peak memory in row strings.
WRITE_ROWS = 1536


def _write_csv(path: Path | str, header: str, blocks: Iterable[list[str]]) -> Path | str:
    """Write a UTF-8 CSV file: the header, then every line of every block, each ending in \\n."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        for lines in blocks:
            if lines:
                fh.write("\n".join(lines) + "\n")
            del lines   # free this block before the next one is formatted
    return path


def _trajectory_blocks(trajectories: list[Trajectory]) -> Iterator[list[str]]:
    """The rows of trajectory.csv, formatted column by column in blocks of whole stages."""
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
            yield list(map(",".join, zip(heads, *columns, outage)))


def _summary_tables(summary: ExperimentSummary) -> Iterator[tuple[str, str, list[str]]]:
    """(file name, header, lines) of summary.csv, the three wide per-stage files and long.csv."""
    def row(metric: str, label: str, values: dict | None) -> str:
        cells = ["" if values is None else _fmt(values.get(b)) for b in CLASS_ORDER]
        return ",".join([metric, label] + cells)

    power = "mean transmit power (dBm)"
    rows = []
    if summary.game == "ubeas":
        rows += [row(power, "before BS convergence", summary.mean_power_dbm_before),
                 row(power, "after BS convergence", summary.mean_power_dbm_after)]
    rows += [row(power, "overall", summary.mean_power_dbm),
             row("mean PDR", "overall", summary.mean_pdr),
             row("power standard error (dB)", "overall", summary.se_power_db),
             f"outage rate,overall,{_fmt(summary.outage_rate)},,"]
    yield "summary.csv", "metric,row,casual,intermediate,serious", rows

    # Each wide file's columns as (long.csv series name, per-stage values or
    # None); long.csv lists the present series of all three, in order.
    wide = (
        ("satisfaction.csv", "t,mean_x", [("mean_x", summary.stage_mean_x)]),
        ("class_power.csv", "t,casual_dbm,intermediate_dbm,serious_dbm",
         [(f"{b.label}_power_dbm", summary.stage_class_power_dbm.get(b)) for b in CLASS_ORDER]),
        ("class_pdr.csv", "t,casual,intermediate,serious",
         [(f"{b.label}_pdr", summary.stage_class_pdr.get(b)) for b in CLASS_ORDER]),
    )
    t = [str(k) for k in range(1, summary.stages + 1)]
    for name, header, columns in wide:
        cells = [[""] * len(t) if values is None else [_fmt(v) for v in values]
                 for _, values in columns]
        yield name, header, list(map(",".join, zip(t, *cells)))
    yield "long.csv", "series,t,value", [
        f"{series},{k},{_fmt(v)}" for _, _, columns in wide
        for series, values in columns if values is not None for k, v in zip(t, values)]


def emit_outputs(summary: ExperimentSummary, trajectories: list[Trajectory],
                 out_dir) -> list[Path]:
    """Write the experiment outputs as UTF-8 CSV files with fixed headers.

    Files: trajectory.csv, summary.csv, satisfaction.csv, class_power.csv,
    class_pdr.csv and long.csv (plot-ready long format).  Byte-identical for
    identical (config, seed).
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = [_write_csv(out / "trajectory.csv", TRAJECTORY_HEADER,
                          _trajectory_blocks(trajectories))]
    return written + [_write_csv(out / name, header, [lines])
                      for name, header, lines in _summary_tables(summary)]


def dump_topology_csv(topology: CellTopology, path: Path | str) -> Path | str:
    """Write the layout as CSV rows (entity, x_m, y_m, class)."""
    points = [("bs", topology.bs_position, ""), ("cellular", topology.cellular_position, "")]
    for i, b in enumerate(topology.behaviors):
        points += [(f"tx_{i}", topology.tx_positions[i], b.label),
                   (f"rx_{i}", topology.rx_positions[i], b.label)]
    return _write_csv(path, "entity,x_m,y_m,class",
                      [[f"{name},{_fmt(x)},{_fmt(y)},{label}" for name, (x, y), label in points]])
