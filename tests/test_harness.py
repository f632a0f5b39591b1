import dataclasses

import numpy as np
import pytest

from ubeas.config import BehaviorClass, ConfigError, GameConfig, watts_to_dbm
from ubeas.game import (
    FollowerState,
    StageRecord,
    Trajectory,
    class_target_sinr,
    leader_utility,
    payoff,
    required_power,
    run_game,
)
from ubeas.harness import (
    TRAJECTORY_HEADER,
    check_epsilon_nash,
    check_pareto_convergence,
    emit_outputs,
    run_experiment,
    summarize,
)
from ubeas.npc import run_npc_game

SMALL = GameConfig(num_pairs=6, stages=20, repetitions=3)


def make_record(t, x, specs):
    """specs: list of (behavior, power, pdr, outage)."""
    followers = tuple(
        FollowerState(i, b, p, 1.0, pdr, 0.0, 0.0, out)
        for i, (b, p, pdr, out) in enumerate(specs)
    )
    power_dbm = {}
    mean_pdr = {}
    for b in BehaviorClass:
        members = [f for f in followers if f.behavior is b]
        if members:
            power_dbm[b] = watts_to_dbm(sum(f.power for f in members) / len(members))
            mean_pdr[b] = sum(f.pdr for f in members) / len(members)
    return StageRecord(t, x, followers, power_dbm, mean_pdr)


def make_trajectory(records, cfg=SMALL):
    return Trajectory(tuple(records), None, np.empty((0, 0)), cfg)


def test_summarize_hand_built_two_stage_trajectory():
    b = BehaviorClass.CASUAL
    records = [
        make_record(1, 0.5, [(b, 0.001, 0.90, False), (b, 0.01, 0.95, False)]),
        make_record(2, 1.0, [(b, 0.002, 0.92, False), (b, 0.02, 0.96, True)]),
    ]
    summary = summarize([make_trajectory(records)])
    dbms = [watts_to_dbm(p) for p in (0.001, 0.01, 0.002, 0.02)]
    assert abs(summary.mean_power_dbm[b] - np.mean(dbms)) < 1e-12
    # outage pair-stage is excluded from the PDR mean but counted in the rate
    assert abs(summary.mean_pdr[b] - np.mean([0.90, 0.95, 0.92])) < 1e-12
    assert summary.outage_rate == 0.25
    assert summary.convergence_stages == (2,)
    assert abs(summary.mean_power_dbm_before[b] - np.mean(dbms[:2])) < 1e-12
    assert abs(summary.mean_power_dbm_after[b] - np.mean(dbms[2:])) < 1e-12
    assert summary.count_power[b] == 4 and summary.count_pdr[b] == 3


def test_summarize_identical_trajectories_reproduce_common_values():
    traj = run_game(SMALL, repetition=0)
    s1 = summarize([traj])
    s3 = summarize([traj, traj, traj])
    for b in s1.mean_power_dbm:
        assert abs(s1.mean_power_dbm[b] - s3.mean_power_dbm[b]) < 1e-12
        assert abs(s1.mean_pdr[b] - s3.mean_pdr[b]) < 1e-12


def test_summarize_concatenation_is_weighted_combination():
    a = [run_game(SMALL, repetition=r) for r in range(2)]
    b = [run_game(SMALL, repetition=r) for r in range(2, 5)]
    sa, sb, sab = summarize(a), summarize(b), summarize(a + b)
    for cls in sab.mean_power_dbm:
        na, nb = sa.count_power[cls], sb.count_power[cls]
        combined = (sa.mean_power_dbm[cls] * na + sb.mean_power_dbm[cls] * nb) / (na + nb)
        assert abs(sab.mean_power_dbm[cls] - combined) < 1e-10
        na, nb = sa.count_pdr[cls], sb.count_pdr[cls]
        combined = (sa.mean_pdr[cls] * na + sb.mean_pdr[cls] * nb) / (na + nb)
        assert abs(sab.mean_pdr[cls] - combined) < 1e-10


def test_summarize_partitions_every_stage_once():
    _, trajectories = run_experiment(SMALL, "ubeas")
    summary = summarize(trajectories)
    for traj, conv in zip(trajectories, summary.convergence_stages):
        assert conv is not None
        n_before = sum(len(r.followers) for r in traj.records if r.t < conv)
        n_after = sum(len(r.followers) for r in traj.records if r.t >= conv)
        assert n_before + n_after == sum(len(r.followers) for r in traj.records)


def test_summarize_rejects_bad_input():
    with pytest.raises(ValueError):
        summarize([])
    t1 = run_game(SMALL)
    t2 = run_game(dataclasses.replace(SMALL, stages=5))
    with pytest.raises(ValueError):
        summarize([t1, t2])


def test_run_experiment_single_repetition_equals_trajectory_stats():
    cfg = dataclasses.replace(SMALL, repetitions=1)
    summary, trajectories = run_experiment(cfg, "ubeas")
    assert summary.repetitions == 1
    direct = summarize(trajectories)
    assert summary.mean_power_dbm == direct.mean_power_dbm
    assert summary.mean_pdr == direct.mean_pdr


def test_run_experiment_rejects_unknown_game():
    with pytest.raises(ValueError):
        run_experiment(SMALL, "chess")


def test_emitted_files_and_headers(tmp_path):
    summary, trajectories = run_experiment(SMALL, "ubeas")
    files = emit_outputs(summary, trajectories, tmp_path)
    names = {p.name for p in files}
    assert {"trajectory.csv", "summary.csv", "satisfaction.csv",
            "class_power.csv", "class_pdr.csv", "long.csv"} <= names
    assert (tmp_path / "trajectory.csv").read_text().splitlines()[0] == TRAJECTORY_HEADER
    summary_text = (tmp_path / "summary.csv").read_text()
    assert "before BS convergence" in summary_text
    assert "after BS convergence" in summary_text
    assert (tmp_path / "satisfaction.csv").read_text().splitlines()[0] == "t,mean_x"
    assert (tmp_path / "class_power.csv").read_text().splitlines()[0] == \
        "t,casual_dbm,intermediate_dbm,serious_dbm"
    assert (tmp_path / "class_pdr.csv").read_text().splitlines()[0] == \
        "t,casual,intermediate,serious"


def test_emitted_outputs_byte_identical_across_runs_and_jobs(tmp_path):
    cfg = dataclasses.replace(SMALL, repetitions=4)
    paths = []
    for sub, jobs in (("a", 1), ("b", 1), ("c", 2)):
        summary, trajectories = run_experiment(cfg, "ubeas", jobs=jobs)
        emit_outputs(summary, trajectories, tmp_path / sub)
        paths.append(tmp_path / sub)
    for name in ("trajectory.csv", "summary.csv", "satisfaction.csv",
                 "class_power.csv", "class_pdr.csv", "long.csv"):
        ref = (paths[0] / name).read_bytes()
        assert (paths[1] / name).read_bytes() == ref, name
        assert (paths[2] / name).read_bytes() == ref, name


def test_emitted_class_means_recompute_from_trajectory_rows(tmp_path):
    summary, trajectories = run_experiment(SMALL, "ubeas")
    emit_outputs(summary, trajectories, tmp_path)
    rows = (tmp_path / "trajectory.csv").read_text().splitlines()[1:]
    dbm = {b: [] for b in BehaviorClass}
    pdr = {b: [] for b in BehaviorClass}
    for row in rows:
        cells = row.split(",")
        behavior = BehaviorClass(cells[3])
        dbm[behavior].append(float(cells[5]))
        if cells[10] == "0":
            pdr[behavior].append(float(cells[7]))
    for b in BehaviorClass:
        assert abs(np.mean(dbm[b]) - summary.mean_power_dbm[b]) < 1e-12
        assert abs(np.mean(pdr[b]) - summary.mean_pdr[b]) < 1e-12


def test_npc_satisfaction_column_empty(tmp_path):
    summary, trajectories = run_experiment(SMALL, "npc")
    emit_outputs(summary, trajectories, tmp_path)
    lines = (tmp_path / "satisfaction.csv").read_text().splitlines()
    assert lines[1] == "1,"
    first_row = (tmp_path / "trajectory.csv").read_text().splitlines()[1]
    assert first_row.split(",")[4] == ""


def test_check_epsilon_nash_passes_on_frozen_fixed_point():
    cfg = dataclasses.replace(GameConfig(num_pairs=6), doppler=0.0)
    traj = run_game(cfg)
    report = check_epsilon_nash(traj.records[-1], traj.final_gains, cfg,
                                epsilon=1e-6, grid_points=4000)
    assert report.passed and report.leader_ok
    assert report.worst_gain <= 1e-6


def test_check_epsilon_nash_names_perturbed_follower():
    cfg = dataclasses.replace(GameConfig(num_pairs=6), doppler=0.0)
    traj = run_game(cfg)
    record = traj.records[-1]
    victim = 0
    bumped = []
    for f in record.followers:
        if f.index == victim:
            bumped.append(dataclasses.replace(f, power=min(f.power * 2.0, cfg.p_max)))
        else:
            bumped.append(f)
    perturbed = dataclasses.replace(record, followers=tuple(bumped))
    report = check_epsilon_nash(perturbed, traj.final_gains, cfg,
                                epsilon=1e-6, grid_points=4000)
    assert not report.passed
    assert report.worst_follower == victim
    assert report.worst_gain > 1e-6


def scalar_nash_oracle(record, gains, cfg, epsilon, grid_points):
    """check_epsilon_nash as a loop over the scalar payoff, one grid point at a time.

    Returns (passed, worst_follower, follower_gains, leader_ok).
    """
    powers = record.powers
    deviation_gains = []
    for i, state in enumerate(record.followers):
        interference = float(powers @ gains[:, i] - powers[i] * gains[i, i] + cfg.noise_power)
        own = float(gains[i, i])
        target = class_target_sinr(state.behavior, cfg)
        p_req = required_power(target, own, interference)
        if p_req > cfg.p_max:
            lo = hi = cfg.p_max
        else:
            lo, hi = max(cfg.p_min, p_req), cfg.p_max
        current = payoff(state.behavior, record.x, float(powers[i]), own, interference,
                         target, cfg)
        grid = np.linspace(lo, hi, grid_points).tolist() if hi > lo else [lo]
        best = max(payoff(state.behavior, record.x, p, own, interference, target, cfg)
                   for p in grid)
        deviation_gains.append(best - current)
    leader_ok = True
    if record.x is not None:
        p_bar = float(powers.mean())
        best_x = max(leader_utility(xg, p_bar, float(record.t), record.x, cfg.kappa_c)
                     for xg in np.linspace(cfg.x_floor, 1.0, grid_points).tolist())
        current_x = leader_utility(record.x, p_bar, float(record.t), record.x, cfg.kappa_c)
        leader_ok = current_x >= best_x - epsilon
    passed = leader_ok and max(deviation_gains) <= epsilon
    return passed, int(np.argmax(deviation_gains)), deviation_gains, leader_ok


@pytest.mark.parametrize("game,perturbation", [
    ("ubeas", None), ("npc", None), ("ubeas", "powers"), ("npc", "powers"), ("ubeas", "x"),
])
def test_check_epsilon_nash_matches_scalar_oracle(game, perturbation):
    cfg = GameConfig(num_pairs=12, doppler=0.0, stages=300, npc_rerandomize=False)
    traj = (run_game if game == "ubeas" else run_npc_game)(cfg)
    record = traj.records[-1]
    if perturbation == "powers":
        record = dataclasses.replace(record, followers=tuple(
            dataclasses.replace(f, power=min(f.power * 1.03, cfg.p_max))
            for f in record.followers))
    elif perturbation == "x":
        record = dataclasses.replace(record, x=0.5)
    passed, worst, oracle_gains, leader_ok = scalar_nash_oracle(
        record, traj.final_gains, cfg, 1e-6, 10_000)
    # the frozen-channel fixed point certifies, a perturbed record does not
    assert passed is (perturbation is None)
    assert leader_ok is (perturbation != "x")
    report = check_epsilon_nash(record, traj.final_gains, cfg, epsilon=1e-6, grid_points=10_000)
    assert report.passed is passed
    assert report.leader_ok is leader_ok
    assert report.worst_follower == worst
    assert all(type(g) is float for g in report.follower_gains)
    assert max(abs(a - b) for a, b in zip(report.follower_gains, oracle_gains)) <= 1e-12


def test_check_epsilon_nash_single_pair():
    from ubeas.config import ClassProfile
    cfg = GameConfig(num_pairs=1, doppler=0.0, stages=30)
    traj = run_game(cfg, profiles=[ClassProfile(BehaviorClass.CASUAL, 0.90)])
    report = check_epsilon_nash(traj.records[-1], traj.final_gains, cfg,
                                epsilon=1e-6, grid_points=4000)
    assert report.passed


def test_check_pareto_convergence_on_default_run():
    traj = run_game(GameConfig(num_pairs=6))
    report = check_pareto_convergence(traj)
    assert report.converged
    assert report.minimality_ok
    assert report.convergence_stage is not None
    for b in (BehaviorClass.CASUAL, BehaviorClass.INTERMEDIATE):
        assert report.class_power_delta_dbm[b] <= 0.5


def test_check_pareto_minimality_catches_planted_violation():
    cfg = GameConfig(num_pairs=6, doppler=0.0, stages=200)
    traj = run_game(cfg)
    assert check_pareto_convergence(traj, window=0).minimality_ok
    final = traj.records[-1]
    victim = next(f for f in final.followers if f.behavior is BehaviorClass.INTERMEDIATE)
    assert 2.0 * victim.power <= cfg.p_max
    bumped = tuple(dataclasses.replace(f, power=2.0 * f.power) if f is victim else f
                   for f in final.followers)
    forced = dataclasses.replace(
        traj, records=traj.records[:-1] + (dataclasses.replace(final, followers=bumped),))
    report = check_pareto_convergence(forced, window=0)
    assert report.converged
    assert not report.minimality_ok


def test_check_pareto_reports_unconverged_trajectory():
    traj = run_game(GameConfig(num_pairs=6))
    capped = [
        dataclasses.replace(r, x=min(r.x, 0.5)) for r in traj.records
    ]
    forced = dataclasses.replace(traj, records=tuple(capped))
    report = check_pareto_convergence(forced)
    assert not report.converged


def test_outage_rate_bounds():
    summary, _ = run_experiment(SMALL, "ubeas", keep_trajectories=False)
    assert 0.0 <= summary.outage_rate < 0.5


def test_failed_repetition_is_named():
    # 4 pairs cannot be split evenly across the three classes
    cfg = dataclasses.replace(SMALL, num_pairs=4)
    with pytest.raises(ConfigError, match="repetition 0"):
        run_experiment(cfg, "ubeas")
