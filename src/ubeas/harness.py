"""Monte Carlo experiment driver, aggregation, verifiers and CSV emission.

Repetitions are independent and own RNG substreams derived from (seed, rep),
so results are identical for any execution order or degree of parallelism.
Transmit powers are averaged in dBm (the mean of per-sample dBm values).
"""

from __future__ import annotations

import concurrent.futures
import math
import os
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Iterable, Iterator

import numpy as np

from . import channel, link
from .channel import CellTopology
from .config import BehaviorClass, CLASS_ORDER, ConfigError, GameConfig
from .game import (
    RECORD_DTYPE,
    StageRecord,
    Trajectory,
    _payoff_on_grid,
    class_target_sinr,
    feasible_floor,
    leader_utility,
    play_stage,
    run_games,
)
from .npc import run_npc_games

# Each game plays a block of repetitions in lockstep.
GAMES = {"ubeas": run_games, "npc": run_npc_games}

# Bytes one block holds: B * channel.fading_bytes(cfg) of fading and, with
# jobs > 1, whose workers pickle their blocks whole, B * T * M records.  At
# M=24 with 16 oscillators a block holds up to 14 repetitions of 64 stages or
# more, and 910 on a frozen channel at jobs=1, 6 of its 600 stages at jobs > 1;
# from M=65 on, one of 64 stages or more.
_BLOCK_BYTES = 1 << 22


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
    fill the overall fields.  convergence_stages and x_profile_ok hold the
    run's one value once per repetition.
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
    """Left-to-right sum of an array in C order, as a scalar loop adds it."""
    return float(np.add.accumulate(values.ravel())[-1]) if values.size else 0.0


def _stage_totals(values: np.ndarray) -> np.ndarray:
    """Per stage, the left-to-right sum over (rep, pair) of (R, T, k) values."""
    return np.add.accumulate(values.transpose(1, 0, 2).reshape(values.shape[1], -1), axis=1)[:, -1]


def _run_key(t: Trajectory) -> tuple:
    """What one run's trajectories share: leader path (None: no leader), class split, shape."""
    return None if t.x is None else t.x.tobytes(), t.behaviors, t.outcomes.shape


def summarize(trajectories: list[Trajectory]) -> ExperimentSummary:
    """Aggregate the trajectories of one run into an ExperimentSummary.

    One run has one class split and one leader path (None for the leaderless
    game), so one convergence stage: each is read from the first trajectory,
    and a trajectory that differs in any of them, or in shape, is a
    ValueError.  Sums run in (repetition, stage, pair) order, left to right,
    so every figure is the one a per-sample loop computes, bit for bit.
    """
    if not trajectories:
        raise ValueError("cannot summarize an empty trajectory list")
    first = trajectories[0]
    if any(_run_key(t) != _run_key(first) for t in trajectories[1:]):
        raise ValueError("the trajectories of one run share one game, leader path, class "
                         "split and number of stages")
    n_rep, stages = len(trajectories), len(first.outcomes)
    conv = first.convergence_stage

    table = np.stack([t.outcomes for t in trajectories])
    dbm = _dbm(table["power"])
    served = ~table["outage"]
    pdr_served = np.where(served, table["pdr"], 0.0)   # + 0.0 leaves a sum unchanged

    power_n, pdr_n = {}, {}
    mean_power, mean_pdr, se_power, before, after = {}, {}, {}, {}, {}
    stage_power_dbm, stage_pdr_mean = {}, {}
    for b in BehaviorClass:
        members = np.array([behavior is b for behavior in first.behaviors])
        values, class_served = dbm[:, :, members], served[:, :, members]
        power_n[b] = n = values.size
        pdr_n[b] = np.count_nonzero(class_served)
        if not n:
            continue
        mean_power[b] = mean_db = _total(values) / n
        var = max(_total(values * values) / n - mean_db * mean_db, 0.0)
        se_power[b] = math.sqrt(var / n)
        if pdr_n[b]:
            mean_pdr[b] = _total(table["pdr"][:, :, members][class_served]) / pdr_n[b]
        if conv is not None:
            # Stage conv is the first whose satisfaction is 1: it starts "after".
            for part, means in ((values[:, :conv - 1], before), (values[:, conv - 1:], after)):
                if part.size:
                    means[b] = _total(part) / part.size
        stage_power_dbm[b] = _stage_totals(values) / (n_rep * np.count_nonzero(members))
        stage_pdr_n = np.count_nonzero(class_served, axis=(0, 2))
        stage_pdr_mean[b] = np.where(
            stage_pdr_n > 0,
            _stage_totals(pdr_served[:, :, members]) / np.maximum(stage_pdr_n, 1), np.nan)
    # R copies of the one path, averaged: the bytes satisfaction.csv is pinned to.
    mean_x = None if first.x is None else (
        np.add.accumulate(np.broadcast_to(first.x, (n_rep, stages)), axis=0)[-1] / n_rep)
    return ExperimentSummary(
        game="npc" if first.x is None else "ubeas",
        repetitions=n_rep,
        stages=stages,
        mean_power_dbm=mean_power,
        mean_power_dbm_before=before if conv is not None else None,
        mean_power_dbm_after=after if conv is not None else None,
        mean_pdr=mean_pdr,
        se_power_db=se_power,
        count_power=power_n,
        count_pdr=pdr_n,
        stage_mean_x=mean_x,
        stage_class_power_dbm=stage_power_dbm,
        stage_class_pdr=stage_pdr_mean,
        convergence_stages=(conv,) * n_rep,
        x_profile_ok=(first.x is not None and _x_profile_ok(first.x),) * n_rep,
        outage_rate=np.count_nonzero(~served) / served.size if served.size else 0.0,
    )


def _named(exc: Exception, name: str) -> Exception:
    if isinstance(exc, ConfigError):
        return ConfigError(f"{name}: {exc}")
    if isinstance(exc, (ArithmeticError, ValueError)):
        # A validated config passes every domain guard of the model unless its
        # scales push gains, SINR or PDR out of floating-point range.
        return ConfigError(f"{name}: {exc} (numbers out of floating-point range)")
    if isinstance(exc, MemoryError):
        # A config too large for this machine's memory cannot run here.
        return ConfigError(f"{name}: out of memory{f' ({exc})' if str(exc) else ''}")
    return RuntimeError(f"{name} failed: {exc}")


# A control group's memory limit, read where a container sees its own group:
# cgroup v2's memory.max ("max" is no limit), then v1's limit_in_bytes (no
# limit reads as a figure beyond any machine's memory).
_CGROUP_MEMORY_LIMITS = (Path("/sys/fs/cgroup/memory.max"),
                         Path("/sys/fs/cgroup/memory/memory.limit_in_bytes"))


def _memory_limit() -> int | None:
    """Bytes of memory a run may use: the machine's physical memory, or its
    control group's limit where that is readable and smaller; None where
    neither is known."""
    figures = []
    try:
        pages, page_size = os.sysconf("SC_PHYS_PAGES"), os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):   # no sysconf, or no such name
        pass
    else:
        if pages > 0 and page_size > 0:   # -1: indeterminate
            figures.append(pages * page_size)
    for path in _CGROUP_MEMORY_LIMITS:
        try:
            text = path.read_text().strip()
        except OSError:
            continue
        if text.isdigit():
            figures.append(int(text))
    return min(figures, default=None)


def _run_block(args: tuple[GameConfig, str, range]) -> list[Trajectory]:
    cfg, kind, reps = args
    try:
        return GAMES[kind](cfg, reps)
    except Exception as exc:
        if len(reps) > 1:
            # The rows of a block are independent: replayed one at a time,
            # the first repetition that fails raises under its own name.
            for rep in reps:
                _run_block((cfg, kind, range(rep, rep + 1)))
            name = f"repetitions {reps[0]}-{reps[-1]}"
        else:
            name = f"repetition {reps[0]}"
        raise _named(exc, name) from exc


def run_experiment(cfg: GameConfig, game: str = "ubeas",
                   jobs: int = 1) -> tuple[ExperimentSummary, list[Trajectory]]:
    """Run all repetitions of one game kind and aggregate.

    The repetitions are played in contiguous blocks, in lockstep within a
    block; with jobs > 1 each pool task is one block.  Deterministic for a
    fixed seed regardless of jobs and blocking; repetitions are always
    aggregated in index order.  A run whose one repetition's fading state
    exceeds the memory a run may use (_memory_limit) is rejected before any
    block starts.  jobs is capped at the repetitions and the usable cores.
    """
    if game not in GAMES:
        raise ValueError(f"unknown game kind {game!r}; expected one of {tuple(GAMES)}")
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    reps = cfg.repetitions
    # A forking pool starts every worker at its first submit: one per repetition
    # and per usable core is enough, and the outputs do not depend on jobs.
    jobs = min(jobs, reps, channel._CORES)
    fading_bytes = channel.fading_bytes(cfg)
    memory = _memory_limit()
    if memory is not None and fading_bytes > memory:
        raise ConfigError(f"one repetition's fading state needs {fading_bytes} bytes "
                          f"(num_pairs**2 * 8 * min(frames, 4 * jakes_oscillators)), "
                          f"more than the {memory} bytes of memory a run may use here "
                          f"(physical memory, or the control group's limit if smaller)")
    # At jobs=1 the records stay in this process whatever the blocks, and
    # larger blocks play faster.
    records = cfg.stages * cfg.num_pairs * RECORD_DTYPE.itemsize if jobs > 1 else 0
    size = min(max(1, _BLOCK_BYTES // (fading_bytes + records)), -(-reps // jobs))
    tasks = [(cfg, game, range(start, min(start + size, reps))) for start in range(0, reps, size)]
    if jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            blocks = list(pool.map(_run_block, tasks, chunksize=1))
    else:
        blocks = [_run_block(task) for task in tasks]
    trajectories = [trajectory for block in blocks for trajectory in block]
    return summarize(trajectories), trajectories


# ---------------------------------------------------------------------------
# Equilibrium verifiers.
# ---------------------------------------------------------------------------

def _follower_audits(behaviors: tuple[BehaviorClass, ...], x: float | None, powers: np.ndarray,
                     gains: np.ndarray, cfg: GameConfig) -> Iterator[tuple[float, float, Callable]]:
    """Per follower, against the others' powers: (lowest feasible power, payoff
    at its own power, payoff at every power of an array).  The interference is
    link.interference_all's, as play_stage computes it.

    The own power goes through the grid's payoff: math.exp and np.exp differ
    in the last bit, which at a deep fade's -1e244 is a false gain of 1e228.
    """
    targets = np.array([class_target_sinr(behavior, cfg) for behavior in behaviors])
    interferences = link.interference_all(powers, gains, cfg.noise_power)
    floors, _ = feasible_floor(targets, np.diagonal(gains), interferences, cfg)
    for i, (behavior, target, own, interference, lo) in enumerate(zip(
            behaviors, targets.tolist(), np.diagonal(gains).tolist(), interferences.tolist(),
            floors.tolist())):
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
    replay_stages = 0
    while replay_stages < window:
        replay_stages += 1
        new_powers = play_stage(behaviors, targets, x, powers, gains, cfg).power.copy()
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

def _cells(values) -> list[str]:
    """The CSV cell of every float of a sequence or array, in C order: its repr,
    or an empty cell for NaN; formatted once per distinct bit pattern."""
    bits, index = np.unique(np.asarray(values, dtype=float).view(np.int64), return_inverse=True)
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
        cells = _cells([(values or {}).get(b, math.nan) for b in CLASS_ORDER])   # none: NaN
        return ",".join([metric, label] + cells)

    power = "mean transmit power (dBm)"
    rows = []
    if summary.game == "ubeas":
        rows += [row(power, "before BS convergence", summary.mean_power_dbm_before),
                 row(power, "after BS convergence", summary.mean_power_dbm_after)]
    rows += [row(power, "overall", summary.mean_power_dbm),
             row("mean PDR", "overall", summary.mean_pdr),
             row("power standard error (dB)", "overall", summary.se_power_db),
             f"outage rate,overall,{_cells([summary.outage_rate])[0]},,"]
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
    # Each present series is formatted once, for its wide file and long.csv.
    texts = {series: _cells(values) for _, _, columns in wide
             for series, values in columns if values is not None}
    for name, header, columns in wide:
        cells = [texts.get(series, [""] * len(t)) for series, _ in columns]
        yield name, header, list(map(",".join, zip(t, *cells)))
    yield "long.csv", "series,t,value", [
        f"{series},{k},{v}" for series, cells in texts.items() for k, v in zip(t, cells)]


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
    xy = _cells([position for _, position, _ in points])
    return _write_csv(path, "entity,x_m,y_m,class",
                      [[f"{name},{x},{y},{label}"
                        for (name, _, label), x, y in zip(points, xy[0::2], xy[1::2])]])
