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
from .config import BehaviorClass, CLASS_ORDER, ConfigError, GameConfig, watts_to_dbm
from .game import (
    StageRecord,
    Trajectory,
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


def _x_profile_ok(records) -> bool:
    """Satisfaction is nondecreasing once past its running minimum and holds 1."""
    xs = [r.x for r in records]
    if any(x is None for x in xs):
        return False
    min_pos = int(np.argmin(xs))
    tail = xs[min_pos:]
    if any(b < a for a, b in zip(tail, tail[1:])):
        return False
    if 1.0 not in xs:
        return False
    first_one = xs.index(1.0)
    return all(x == 1.0 for x in xs[first_one:])


def summarize(trajectories: list[Trajectory]) -> ExperimentSummary:
    """Aggregate equal-length trajectories into an ExperimentSummary."""
    if not trajectories:
        raise ValueError("cannot summarize an empty trajectory list")
    stages = len(trajectories[0].records)
    if any(len(t.records) != stages for t in trajectories):
        raise ValueError("trajectories must all have the same number of stages")
    game = "npc" if trajectories[0].records[0].x is None else "ubeas"

    dbm_sum = {b: 0.0 for b in BehaviorClass}
    dbm_sq_sum = {b: 0.0 for b in BehaviorClass}
    power_n = {b: 0 for b in BehaviorClass}
    before_sum = {b: 0.0 for b in BehaviorClass}
    before_n = {b: 0 for b in BehaviorClass}
    after_sum = {b: 0.0 for b in BehaviorClass}
    after_n = {b: 0 for b in BehaviorClass}
    pdr_sum = {b: 0.0 for b in BehaviorClass}
    pdr_n = {b: 0 for b in BehaviorClass}
    stage_dbm = {b: np.zeros(stages) for b in BehaviorClass}
    stage_power_n = {b: np.zeros(stages, dtype=int) for b in BehaviorClass}
    stage_pdr = {b: np.zeros(stages) for b in BehaviorClass}
    stage_pdr_n = {b: np.zeros(stages, dtype=int) for b in BehaviorClass}
    stage_x = np.zeros(stages)
    outages = 0
    total_follower_stages = 0
    convergence: list[int | None] = []
    x_ok: list[bool] = []

    for traj in trajectories:
        conv = traj.convergence_stage
        convergence.append(conv)
        x_ok.append(_x_profile_ok(traj.records) if game == "ubeas" else False)
        for k, record in enumerate(traj.records):
            if record.x is not None:
                stage_x[k] += record.x
            for f in record.followers:
                b = f.behavior
                dbm = watts_to_dbm(f.power)
                dbm_sum[b] += dbm
                dbm_sq_sum[b] += dbm * dbm
                power_n[b] += 1
                stage_dbm[b][k] += dbm
                stage_power_n[b][k] += 1
                total_follower_stages += 1
                if f.outage:
                    outages += 1
                else:
                    pdr_sum[b] += f.pdr
                    pdr_n[b] += 1
                    stage_pdr[b][k] += f.pdr
                    stage_pdr_n[b][k] += 1
                if conv is not None:
                    if record.t < conv:
                        before_sum[b] += dbm
                        before_n[b] += 1
                    else:
                        after_sum[b] += dbm
                        after_n[b] += 1

    present = [b for b in BehaviorClass if power_n[b] > 0]
    mean_power = {b: dbm_sum[b] / power_n[b] for b in present}
    mean_pdr = {b: pdr_sum[b] / pdr_n[b] for b in present if pdr_n[b] > 0}
    se_power = {}
    for b in present:
        n = power_n[b]
        mean_db = dbm_sum[b] / n
        var = max(dbm_sq_sum[b] / n - mean_db * mean_db, 0.0)
        se_power[b] = math.sqrt(var / n)
    has_partition = game == "ubeas" and any(c is not None for c in convergence)
    before = (
        {b: before_sum[b] / before_n[b] for b in present if before_n[b] > 0}
        if has_partition else None
    )
    after = (
        {b: after_sum[b] / after_n[b] for b in present if after_n[b] > 0}
        if has_partition else None
    )
    n_rep = len(trajectories)
    mean_x = stage_x / n_rep if game == "ubeas" else None
    stage_power_dbm = {}
    stage_pdr_mean = {}
    for b in present:
        stage_power_dbm[b] = stage_dbm[b] / np.maximum(stage_power_n[b], 1)
        stage_pdr_mean[b] = np.where(
            stage_pdr_n[b] > 0, stage_pdr[b] / np.maximum(stage_pdr_n[b], 1), np.nan
        )
    return ExperimentSummary(
        game=game,
        repetitions=n_rep,
        stages=stages,
        mean_power_dbm=mean_power,
        mean_power_dbm_before=before,
        mean_power_dbm_after=after,
        mean_pdr=mean_pdr,
        se_power_db=se_power,
        count_power=dict(power_n),
        count_pdr=dict(pdr_n),
        stage_mean_x=mean_x,
        stage_class_power_dbm=stage_power_dbm,
        stage_class_pdr=stage_pdr_mean,
        convergence_stages=tuple(convergence),
        x_profile_ok=tuple(x_ok),
        outage_rate=outages / total_follower_stages if total_follower_stages else 0.0,
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
    for i, state in enumerate(record.followers):
        interference = float(
            powers @ gains[:, i] - powers[i] * gains[i, i] + cfg.noise_power
        )
        own = float(gains[i, i])
        target = class_target_sinr(state.behavior, cfg)
        p_req = required_power(target, own, interference)
        if p_req > cfg.p_max:
            lo = hi = cfg.p_max
        else:
            lo, hi = max(cfg.p_min, p_req), cfg.p_max

        behavior, x = state.behavior, record.x
        current = payoff(behavior, x, float(powers[i]), own, interference, target, cfg)
        grid = np.linspace(lo, hi, grid_points).tolist() if hi > lo else [lo]
        best = max(payoff(behavior, x, p, own, interference, target, cfg) for p in grid)
        deviation_gains.append(best - current)

    worst = int(np.argmax(deviation_gains)) if deviation_gains else None
    worst_gain = max(deviation_gains) if deviation_gains else 0.0

    leader_ok = True
    if record.x is not None:
        p_bar = float(powers.mean())
        x_grid = np.linspace(cfg.x_floor, 1.0, grid_points).tolist()
        best_x = max(
            leader_utility(xg, p_bar, float(record.t), record.x, cfg.kappa_c)
            for xg in x_grid
        )
        current_x = leader_utility(record.x, p_bar, float(record.t), record.x, cfg.kappa_c)
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
    if conv is None or not _x_profile_ok(trajectory.records):
        return ParetoReport(False, conv, False, deltas, 0)

    gains = trajectory.final_gains
    final = trajectory.records[-1]
    powers = final.powers.copy()
    m = len(powers)
    targets = [class_target_sinr(f.behavior, cfg) for f in final.followers]
    behaviors = [f.behavior for f in final.followers]
    x = final.x

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
        for p in np.linspace(lo, top, grid_points).tolist():
            value = payoff(behaviors[i], x, p, own, interference, targets[i], cfg)
            if value >= current and p >= p_req:
                minimality_ok = False
                break
        if not minimality_ok:
            break

    return ParetoReport(True, conv, minimality_ok, deltas, replay_stages)


def _class_power_deltas(trajectory: Trajectory) -> dict[BehaviorClass, float]:
    """Post-convergence minus pre-convergence class mean power in dB."""
    conv = trajectory.convergence_stage
    if conv is None:
        return {}
    pre = {b: [] for b in BehaviorClass}
    post = {b: [] for b in BehaviorClass}
    for record in trajectory.records:
        bucket = post if record.t >= conv else pre
        for f in record.followers:
            bucket[f.behavior].append(watts_to_dbm(f.power))
    deltas = {}
    for b in BehaviorClass:
        if pre[b] and post[b]:
            deltas[b] = float(np.mean(post[b])) - float(np.mean(pre[b]))
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


TRAJECTORY_HEADER = "rep,t,pair,class,x,p_dbm,sinr,pdr,utility,price,outage"


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
            for record in traj.records:
                for f in record.followers:
                    fh.write(",".join([
                        str(rep), str(record.t), str(f.index), f.behavior.label,
                        _fmt(record.x), _fmt(watts_to_dbm(f.power)), _fmt(f.sinr),
                        _fmt(f.pdr), _fmt(f.utility), _fmt(f.price), _fmt(f.outage),
                    ]) + "\n")
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
