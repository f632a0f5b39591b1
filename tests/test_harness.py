import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ubeas import channel, game, harness, link
from ubeas.config import BehaviorClass, ConfigError, GameConfig, watts_to_dbm
from ubeas.game import (
    RECORD_DTYPE,
    Trajectory,
    class_target_sinr,
    follower_best_response,
    leader_utility,
    payoff,
    play_stage,
    required_power,
    run_game,
)
from ubeas.harness import (
    TRAJECTORY_HEADER,
    WRITE_ROWS,
    check_epsilon_nash,
    check_pareto_convergence,
    emit_outputs,
    run_experiment,
    summarize,
)
from ubeas.npc import run_npc_game

SMALL = GameConfig(num_pairs=6, stages=20, repetitions=3)


def make_trajectory(xs, behaviors, rows, cfg=SMALL):
    """rows[t][i] = (power, pdr, outage) of pair i at stage t + 1; sinr 1, utility and price 0."""
    outcomes = np.recarray((len(rows), len(behaviors)), RECORD_DTYPE)
    outcomes.sinr, outcomes.utility, outcomes.price = 1.0, 0.0, 0.0
    for name, k in (("power", 0), ("pdr", 1), ("outage", 2)):
        outcomes[name] = [[cell[k] for cell in row] for row in rows]
    x = None if xs is None else np.array(xs, dtype=float)
    return Trajectory(outcomes, x, tuple(behaviors), None, np.empty((0, 0)), cfg)


def test_summarize_hand_built_two_stage_trajectory():
    b = BehaviorClass.CASUAL
    traj = make_trajectory([0.5, 1.0], [b, b], [
        [(0.001, 0.90, False), (0.01, 0.95, False)],
        [(0.002, 0.92, False), (0.02, 0.96, True)],
    ])
    summary = summarize([traj])
    dbms = [watts_to_dbm(p) for p in (0.001, 0.01, 0.002, 0.02)]
    assert abs(summary.mean_power_dbm[b] - np.mean(dbms)) < 1e-12
    # outage pair-stage is excluded from the PDR mean but counted in the rate
    assert abs(summary.mean_pdr[b] - np.mean([0.90, 0.95, 0.92])) < 1e-12
    assert summary.outage_rate == 0.25
    assert summary.convergence_stages == (2,)
    assert abs(summary.mean_power_dbm_before[b] - np.mean(dbms[:2])) < 1e-12
    assert abs(summary.mean_power_dbm_after[b] - np.mean(dbms[2:])) < 1e-12
    assert summary.count_power[b] == 4 and summary.count_pdr[b] == 3


def test_summarize_rejects_trajectories_of_different_runs():
    cfg = dataclasses.replace(SMALL, stages=3)
    ubeas, npc = run_game(cfg), run_npc_game(cfg)
    for mixed in ([ubeas, npc], [npc, ubeas]):
        with pytest.raises(ValueError, match="of one run share"):
            summarize(mixed)
    other_x_init = run_game(dataclasses.replace(cfg, x_init=0.002))
    with pytest.raises(ValueError, match="of one run share"):
        summarize([ubeas, other_x_init])
    b = list(BehaviorClass)
    row = [[(0.001, 0.9, False)] * 3]
    with pytest.raises(ValueError, match="of one run share"):
        summarize([make_trajectory([1.0], b, row), make_trajectory([1.0], b[::-1], row)])


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
        n_before = traj.outcomes[:conv - 1].size
        n_after = traj.outcomes[conv - 1:].size
        assert n_before + n_after == traj.outcomes.size


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


@pytest.mark.parametrize("jobs", [0, -1])
def test_run_experiment_rejects_fewer_than_one_job(jobs):
    # 0 used to divide by zero and -1 to summarize no repetitions
    with pytest.raises(ConfigError, match=f"jobs must be >= 1, got {jobs}"):
        run_experiment(SMALL, "ubeas", jobs=jobs)


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
    bumped = record.outcomes.copy()
    bumped.power[victim] = min(bumped.power[victim] * 2.0, cfg.p_max)
    perturbed = dataclasses.replace(record, outcomes=bumped)
    report = check_epsilon_nash(perturbed, traj.final_gains, cfg,
                                epsilon=1e-6, grid_points=4000)
    assert not report.passed
    assert report.worst_follower == victim
    assert report.worst_gain > 1e-6


def scalar_nash_oracle(record, gains, cfg, epsilon, grid_points):
    """check_epsilon_nash as a loop over the scalar payoff, one grid point at a time.

    Returns (passed, worst_follower, follower_gains, leader_ok).
    """
    powers = record.outcomes.power.copy()
    # check_epsilon_nash audits the engine's interference, checked here against an
    # exact sum over the other transmitters.  The engine subtracts the own signal
    # from the whole received power, so the two agree to a few ulps of that power
    # (up to 600 ulps of the interference), and a gain of 1e4 would carry the gap.
    interferences = link.interference_all(powers, gains, cfg.noise_power).tolist()
    deviation_gains = []
    for i, behavior in enumerate(record.behaviors):
        interference = interferences[i]
        received = [float(p * g) for p, g in zip(powers, gains[:, i])] + [cfg.noise_power]
        others = math.fsum(received[:i] + received[i + 1:])
        assert abs(interference - others) <= len(powers) * math.ulp(math.fsum(received))
        own = float(gains[i, i])
        target = class_target_sinr(behavior, cfg)
        p_req = required_power(target, own, interference)
        if p_req > cfg.p_max:
            lo = hi = cfg.p_max
        else:
            lo, hi = max(cfg.p_min, p_req), cfg.p_max
        current = payoff(behavior, record.x, float(powers[i]), own, interference,
                         target, cfg)
        grid = np.linspace(lo, hi, grid_points).tolist() if hi > lo else [lo]
        best = max(payoff(behavior, record.x, p, own, interference, target, cfg)
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
        bumped = record.outcomes.copy()
        bumped.power = np.minimum(bumped.power * 1.03, cfg.p_max)
        record = dataclasses.replace(record, outcomes=bumped)
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


def test_check_epsilon_nash_three_pairs():
    # one pair of each class on a frozen channel, settled by stage 30
    cfg = GameConfig(num_pairs=3, doppler=0.0, stages=30)
    traj = run_game(cfg)
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
    victim = traj.behaviors.index(BehaviorClass.INTERMEDIATE)
    bumped = traj.outcomes.copy()
    assert 2.0 * bumped.power[-1, victim] <= cfg.p_max
    bumped.power[-1, victim] *= 2.0
    forced = dataclasses.replace(traj, outcomes=bumped)
    report = check_pareto_convergence(forced, window=0)
    assert report.converged
    assert not report.minimality_ok


def test_check_pareto_reports_unconverged_trajectory():
    traj = run_game(GameConfig(num_pairs=6))
    forced = dataclasses.replace(traj, x=np.minimum(traj.x, 0.5))
    report = check_pareto_convergence(forced)
    assert not report.converged


@pytest.mark.parametrize("doppler, stages", [(0.0, 600), (GameConfig().doppler, 100)])
def test_check_pareto_class_deltas_are_summarize_after_minus_before(doppler, stages):
    for seed in range(1007, 1011):
        traj = run_game(GameConfig(doppler=doppler, stages=stages, seed=seed, repetitions=1))
        report = check_pareto_convergence(traj)
        summary = summarize([traj])
        assert report.convergence_stage == summary.convergence_stages[0]
        assert report.class_power_delta_dbm
        for b, delta in report.class_power_delta_dbm.items():
            assert delta == summary.mean_power_dbm_after[b] - summary.mean_power_dbm_before[b]


def replay_oracle(trajectory, powers, window, epsilon=1e-6):
    """The per-pair best-response replay check_pareto_convergence ran before
    it replayed on play_stage: (final powers, replay stages)."""
    cfg, gains = trajectory.config, trajectory.final_gains
    x = float(trajectory.x[-1])
    stages = 0
    for _ in range(window):
        stages += 1
        interference = link.interference_all(powers, gains, cfg.noise_power)
        new_powers = powers.copy()
        for i, b in enumerate(trajectory.behaviors):
            new_powers[i], _ = follower_best_response(
                b, x, float(gains[i, i]), float(interference[i]), cfg)
        shift = float(np.max(np.abs(new_powers - powers)))
        powers = new_powers
        if shift < epsilon:
            break
    return powers, stages


@pytest.mark.parametrize("window", [1, 3, 20])
def test_check_pareto_replay_equals_per_pair_best_responses(window, monkeypatch):
    traj = run_game(GameConfig(num_pairs=12, doppler=0.0, stages=200))
    bumped = traj.outcomes.copy()
    bumped.power[-1] *= 1.03
    forced = dataclasses.replace(traj, outcomes=bumped)
    stages = []

    def recording_play_stage(*args):
        stages.append(play_stage(*args))
        return stages[-1]

    monkeypatch.setattr(harness, "play_stage", recording_play_stage)
    report = check_pareto_convergence(forced, window=window)
    powers, replay_stages = replay_oracle(forced, bumped.power[-1].copy(), window)
    assert report.converged
    assert report.replay_stages == replay_stages == len(stages)
    assert replay_stages == min(window, 4)   # the 3% bump settles in 4 stages
    assert stages[-1].power.tolist() == powers.tolist()


def test_outage_rate_bounds():
    summary, _ = run_experiment(SMALL, "ubeas")
    assert 0.0 <= summary.outage_rate < 0.5


def test_failed_repetition_is_named():
    # no receiver fits 1.9 m from every transmitter in a 2 m cell
    cfg = dataclasses.replace(SMALL, cell_radius=2.0, max_pair_distance=2.0,
                              min_link_distance=1.9, num_pairs=12)
    with pytest.raises(ConfigError, match="repetition 0"):
        run_experiment(cfg, "ubeas")


def test_a_failing_row_names_its_repetition_inside_a_block(monkeypatch):
    # Repetition 4's cell is stretched until every path-loss gain underflows
    # to 0, so its required powers divide by zero, as Python's floats would
    # raise; it is the middle row of a block that starts at 3.
    streams, topologies, stretched = game.rng_streams, game.generate_topology, set()

    def planted_streams(seed, rep):
        rngs = streams(seed, rep)
        if rep == 4:
            stretched.add(id(rngs.topology))
        return rngs

    def planted_topology(cfg, rng):
        topology = topologies(cfg, rng)
        if id(rng) in stretched:
            topology = dataclasses.replace(topology, distances=topology.distances * 1e200)
        return topology

    monkeypatch.setattr(game, "rng_streams", planted_streams)
    monkeypatch.setattr(game, "generate_topology", planted_topology)
    cfg = dataclasses.replace(SMALL, stages=4)
    assert len(harness._run_block((cfg, "npc", range(5, 7)))) == 2
    with pytest.raises(ConfigError, match=r"^repetition 4: divide by zero"):
        harness._run_block((cfg, "ubeas", range(3, 6)))


# Cases of the lockstep engine: both games on a fading and a frozen channel,
# and the baseline answering fresh draws or its last powers.
BLOCK_CASES = [("ubeas", {}), ("ubeas", {"doppler": 0.0}), ("npc", {}), ("npc", {"doppler": 0.0}),
               ("npc", {"npc_rerandomize": False}),
               ("npc", {"doppler": 0.0, "npc_rerandomize": False})]


@pytest.mark.parametrize("game_name, fields", BLOCK_CASES,
                         ids=["ubeas-fading", "ubeas-frozen", "npc-fading", "npc-frozen",
                              "npc-iterated-fading", "npc-iterated-frozen"])
def test_outcomes_do_not_depend_on_the_block_size_or_jobs(monkeypatch, game_name, fields):
    cfg = dataclasses.replace(SMALL, stages=40, repetitions=5, **fields)
    fading_bytes = cfg.num_pairs ** 2 * cfg.jakes_oscillators * 32

    def run(block, jobs=1):
        with monkeypatch.context() as patch:
            patch.setattr(harness, "_BLOCK_FADING_BYTES", block * fading_bytes)
            return run_experiment(cfg, game_name, jobs=jobs)[1]

    def bits(trajectories):
        return [(t.outcomes.tobytes(), None if t.x is None else t.x.tobytes(),
                 t.final_gains.tobytes(), t.topology.distances.tobytes()) for t in trajectories]

    one = bits(run(1))
    assert len(set(one)) == cfg.repetitions
    for block in (2, 3, cfg.repetitions):
        assert bits(run(block)) == one, block
    assert bits(run(2, jobs=2)) == one


def inline_pool(monkeypatch):
    """Replace the process pool with an inline stand-in, so no worker process
    starts; returns the list its max_workers and chunksize go into."""
    seen = []

    class InlinePool:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            seen.append(chunksize)
            return map(fn, tasks)

    monkeypatch.setattr(harness.concurrent.futures, "ProcessPoolExecutor", InlinePool)
    return seen


def test_pool_never_gets_more_workers_than_repetitions(monkeypatch):
    seen = inline_pool(monkeypatch)
    monkeypatch.setattr(channel, "_CORES", 8)   # more cores than repetitions
    cfg = dataclasses.replace(SMALL, stages=3, repetitions=3)
    summary, trajectories = run_experiment(cfg, "ubeas", jobs=64)
    assert seen == [3, 1]
    assert len(trajectories) == 3


@pytest.mark.parametrize("cores, pools", [(2, [2, 1]), (1, [])])
def test_pool_never_gets_more_workers_than_usable_cores(monkeypatch, cores, pools):
    # a forking pool would start all of them at once; one core plays serially
    seen = inline_pool(monkeypatch)
    monkeypatch.setattr(channel, "_CORES", cores)
    cfg = dataclasses.replace(SMALL, stages=3, repetitions=5)
    _, trajectories = run_experiment(cfg, "ubeas", jobs=4096)
    assert seen == pools
    assert len(trajectories) == 5


def test_threaded_fading_then_a_forked_pool_in_one_process():
    # Several fading blocks on threads at jobs=1, then forked workers at jobs=2.  A
    # thread pool that outlived its call would be inherited by the workers without
    # its threads; a fresh interpreter with a timeout keeps such a deadlock out of the suite.
    code = (
        "import dataclasses, threading\n"
        "from ubeas import channel\n"
        "from ubeas.config import GameConfig\n"
        "from ubeas.harness import run_experiment\n"
        "channel._BLOCK_OSCILLATORS = 2 * 6 * 16\n"
        "channel._CORES = 2\n"
        "cfg = GameConfig(num_pairs=6, stages=5, repetitions=2)\n"
        "_, serial = run_experiment(cfg, 'ubeas', jobs=1)\n"
        "assert threading.active_count() == 1, threading.enumerate()\n"
        "_, pooled = run_experiment(cfg, 'ubeas', jobs=2)\n"
        "for a, b in zip(serial, pooled, strict=True):\n"
        "    for name in a.outcomes.dtype.names:   # field by field: the records have padding\n"
        "        assert a.outcomes[name].tobytes() == b.outcomes[name].tobytes(), name\n"
        "    assert a.x.tobytes() == b.x.tobytes()\n"
        "    assert a.final_gains.tobytes() == b.final_gains.tobytes()\n"
        "print('equal')\n")
    src = str(Path(harness.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "equal"


@pytest.mark.parametrize("game", ["ubeas", "npc"])
def test_equal_runs_give_equal_outcome_bytes(game):
    # the aligned records' padding is zero-filled too, so whole rows compare
    cfg = dataclasses.replace(SMALL, stages=5)
    first, second = (harness.GAMES[game](cfg, range(1, 2))[0] for _ in range(2))
    assert first.outcomes.tobytes() == second.outcomes.tobytes()
    _, serial = run_experiment(cfg, game, jobs=1)
    _, pooled = run_experiment(cfg, game, jobs=2)
    assert [t.outcomes.tobytes() for t in serial] == [t.outcomes.tobytes() for t in pooled]


def test_audits_use_the_engines_interference_bit_for_bit(monkeypatch):
    cfg = GameConfig(doppler=0.0, seed=1007, repetitions=1, stages=600)
    traj = run_game(cfg)
    audit, equal = harness._follower_audits, []

    def recording_audits(behaviors, x, powers, gains, cfg):
        audits = list(audit(behaviors, x, powers, gains, cfg))
        used = np.array([on_grid.keywords["interference"] for _, _, on_grid in audits])
        equal.append(used.tobytes() == link.interference_all(powers, gains, cfg.noise_power).tobytes())
        return iter(audits)

    monkeypatch.setattr(harness, "_follower_audits", recording_audits)
    check_epsilon_nash(traj.records[-1], traj.final_gains, cfg)
    check_pareto_convergence(traj)
    assert equal == [True, True]


def test_check_epsilon_nash_outage_follower_gains_nothing():
    # Frozen channel at seed 1109: followers in outage at p_max in a deep fade,
    # where the serious payoff is about -2e244 or -inf.  A scalar current payoff
    # against the array grid read a last-bit difference as a gain of 3e228,
    # and -inf - -inf as NaN.
    cfg = GameConfig(doppler=0.0, seed=1109, repetitions=1, stages=600)
    traj = run_game(cfg)
    report = check_epsilon_nash(traj.records[-1], traj.final_gains, cfg,
                                epsilon=1e-6, grid_points=10_000)
    assert traj.outcomes.outage[-1].any()
    assert report.passed
    assert all(math.isfinite(g) for g in report.follower_gains)
    assert report.follower_gains[report.worst_follower] == report.worst_gain


def test_check_epsilon_nash_fails_a_minus_inf_payoff_with_a_finite_deviation():
    cfg = dataclasses.replace(GameConfig(num_pairs=6), doppler=0.0)
    traj = run_game(cfg)
    record = traj.records[-1]
    victim = record.behaviors.index(BehaviorClass.SERIOUS)
    starved = record.outcomes.copy()
    starved.power[victim] = 1e-30   # deep below the feasible set: payoff -inf
    report = check_epsilon_nash(dataclasses.replace(record, outcomes=starved),
                                traj.final_gains, cfg, epsilon=1e-6, grid_points=4000)
    assert not report.passed
    assert report.worst_follower == victim
    assert report.worst_gain == math.inf


# ---------------------------------------------------------------------------
# Array aggregation and CSV writing against their per-sample loops.
# ---------------------------------------------------------------------------

def scalar_summarize(trajectories):
    """summarize as the per-sample loop over (rep, t, pair), one Python float at a time."""
    stages = len(trajectories[0].outcomes)
    game = "npc" if trajectories[0].x is None else "ubeas"
    classes = list(BehaviorClass)
    dbm_sum = {b: 0.0 for b in classes}
    dbm_sq_sum = {b: 0.0 for b in classes}
    power_n = {b: 0 for b in classes}
    before_sum = {b: 0.0 for b in classes}
    before_n = {b: 0 for b in classes}
    after_sum = {b: 0.0 for b in classes}
    after_n = {b: 0 for b in classes}
    pdr_sum = {b: 0.0 for b in classes}
    pdr_n = {b: 0 for b in classes}
    stage_dbm = {b: np.zeros(stages) for b in classes}
    stage_power_n = {b: np.zeros(stages, dtype=int) for b in classes}
    stage_pdr = {b: np.zeros(stages) for b in classes}
    stage_pdr_n = {b: np.zeros(stages, dtype=int) for b in classes}
    stage_x = np.zeros(stages)
    outages = 0
    total = 0
    convergence = []
    for traj in trajectories:
        conv = traj.convergence_stage
        convergence.append(conv)
        for k, record in enumerate(traj.records):
            if record.x is not None:
                stage_x[k] += record.x
            for b, power, pdr, outage in zip(record.behaviors, record.outcomes.power.tolist(),
                                             record.outcomes.pdr.tolist(),
                                             record.outcomes.outage.tolist()):
                dbm = watts_to_dbm(power)
                dbm_sum[b] += dbm
                dbm_sq_sum[b] += dbm * dbm
                power_n[b] += 1
                stage_dbm[b][k] += dbm
                stage_power_n[b][k] += 1
                total += 1
                if outage:
                    outages += 1
                else:
                    pdr_sum[b] += pdr
                    pdr_n[b] += 1
                    stage_pdr[b][k] += pdr
                    stage_pdr_n[b][k] += 1
                if conv is not None:
                    if record.t < conv:
                        before_sum[b] += dbm
                        before_n[b] += 1
                    else:
                        after_sum[b] += dbm
                        after_n[b] += 1
    present = [b for b in classes if power_n[b] > 0]
    se_power = {}
    for b in present:
        n = power_n[b]
        mean_db = dbm_sum[b] / n
        se_power[b] = math.sqrt(max(dbm_sq_sum[b] / n - mean_db * mean_db, 0.0) / n)
    partition = game == "ubeas" and any(c is not None for c in convergence)
    return dict(
        mean_power_dbm={b: dbm_sum[b] / power_n[b] for b in present},
        mean_power_dbm_before=({b: before_sum[b] / before_n[b] for b in present if before_n[b]}
                               if partition else None),
        mean_power_dbm_after=({b: after_sum[b] / after_n[b] for b in present if after_n[b]}
                              if partition else None),
        mean_pdr={b: pdr_sum[b] / pdr_n[b] for b in present if pdr_n[b]},
        se_power_db=se_power,
        count_power=power_n,
        count_pdr=pdr_n,
        stage_mean_x=stage_x / len(trajectories) if game == "ubeas" else None,
        stage_class_power_dbm={b: stage_dbm[b] / np.maximum(stage_power_n[b], 1)
                               for b in present},
        stage_class_pdr={b: np.where(stage_pdr_n[b] > 0,
                                     stage_pdr[b] / np.maximum(stage_pdr_n[b], 1), np.nan)
                         for b in present},
        convergence_stages=tuple(convergence),
        outage_rate=outages / total,
    )


def run_trajectories(game, **fields):
    cfg = dataclasses.replace(SMALL, **fields)
    return run_experiment(cfg, game)[1]


def unconverged(trajectories):
    return [dataclasses.replace(t, x=np.minimum(t.x, 0.5)) for t in trajectories]


@pytest.mark.parametrize("game,fields,transform", [
    ("ubeas", {}, None),
    ("npc", {}, None),
    ("ubeas", {"priority_mode": True}, None),
    ("npc", {"priority_mode": True}, None),
    ("ubeas", {"noise_power": 1e-3}, None),   # every pair-stage in outage: no PDR at all
    ("npc", {"noise_power": 1e-9}, None),     # some stages of a class with no served pair
    ("ubeas", {}, unconverged),
])
def test_summarize_matches_scalar_loop_bit_for_bit(game, fields, transform):
    # 16 samples per class and stage: np.sum would add them pairwise
    trajectories = run_trajectories(game, num_pairs=12, repetitions=4, **fields)
    if transform is not None:
        trajectories = transform(trajectories)
    summary = summarize(trajectories)
    oracle = scalar_summarize(trajectories)
    for name, want in oracle.items():
        got = getattr(summary, name)
        if isinstance(want, dict):
            assert list(got) == list(want), name
            for b in want:
                if isinstance(want[b], np.ndarray):
                    assert np.array_equal(got[b], want[b], equal_nan=True), (name, b)
                else:
                    assert got[b] == want[b], (name, b)
        elif isinstance(want, np.ndarray):
            assert np.array_equal(got, want), name
        else:
            assert got == want, name
    if fields.get("noise_power") == 1e-3:
        assert summary.mean_pdr == {} and summary.outage_rate == 1.0


def _fmt(value) -> str:
    """One CSV cell as the row-by-row writer formats it."""
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


def scalar_trajectory_csv(trajectories):
    """trajectory.csv as the row-by-row writer, one _fmt per field."""
    lines = [TRAJECTORY_HEADER]
    for rep, traj in enumerate(trajectories):
        for record in traj.records:
            for i, row in enumerate(record.outcomes):
                lines.append(",".join([
                    str(rep), str(record.t), str(i), record.behaviors[i].label,
                    _fmt(record.x), _fmt(watts_to_dbm(row.power)), _fmt(row.sinr),
                    _fmt(row.pdr), _fmt(row.utility), _fmt(row.price), _fmt(row.outage),
                ]))
    return ("\n".join(lines) + "\n").encode("utf-8")


@pytest.mark.parametrize("game", ["ubeas", "npc"])
def test_trajectory_csv_equals_row_by_row_writer(game, tmp_path):
    trajectories = run_trajectories(game, num_pairs=24, stages=150, repetitions=2)
    assert 2 * (WRITE_ROWS // 24) < 150 < 3 * (WRITE_ROWS // 24)   # three write blocks
    emit_outputs(summarize(trajectories), trajectories, tmp_path)
    assert (tmp_path / "trajectory.csv").read_bytes() == scalar_trajectory_csv(trajectories)


# Values every draw may repeat: both zeros, NaN, infinities, the smallest and
# largest subnormals, and powers the game pins at p_min and p_max.
SPECIAL_FLOATS = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 2.225073858507201e-308,
                  1e-3, 0.1995262314968879]


@settings(max_examples=200, deadline=None)
@given(extra=st.lists(st.floats(-1e300, 1e300, allow_subnormal=True), max_size=6),
       picks=st.lists(st.integers(0, 12), max_size=60), cols=st.integers(1, 4))
def test_distinct_value_formatting_equals_the_per_value_loop(extra, picks, cols):
    pool = SPECIAL_FLOATS + extra
    values = [pool[i % len(pool)] for i in picks]
    rows = len(values) // cols
    # fields of an aligned record array are strided views, as in trajectory.csv
    block = np.recarray((rows, cols), RECORD_DTYPE)
    block.utility = np.array(values[:rows * cols], dtype=float).reshape(rows, cols)
    block.power = np.where(block.utility != 0.0, np.abs(block.utility), 1e-3)
    for array in (block.utility, np.array(values, dtype=float)):
        assert harness._cells(array) == ["" if v != v else repr(v) for v in array.ravel().tolist()]
    want = [10.0 * math.log10(p * 1e3) for p in block.power.ravel().tolist()]
    assert harness._dbm(block.power).tobytes() == np.array(want).reshape(rows, cols).tobytes()


def test_emit_outputs_hand_built_edge_cases(tmp_path):
    casual, serious = BehaviorClass.CASUAL, BehaviorClass.SERIOUS
    traj = make_trajectory(None, [casual, serious], [
        [(0.001, 0.9, False), (0.2, 0.0, True)],
        [(0.002, 0.5, False), (0.2, 0.0, True)],
    ])
    traj.outcomes.utility[:, 1] = -math.inf
    traj.outcomes.price[0, 0] = math.nan
    emit_outputs(summarize([traj]), [traj], tmp_path)
    assert (tmp_path / "trajectory.csv").read_text().splitlines() == [
        TRAJECTORY_HEADER,
        "0,1,0,casual,,0.0,1.0,0.9,0.0,,0",
        f"0,1,1,serious,,{watts_to_dbm(0.2)!r},1.0,0.0,-inf,0.0,1",
        f"0,2,0,casual,,{watts_to_dbm(0.002)!r},1.0,0.5,0.0,0.0,0",
        f"0,2,1,serious,,{watts_to_dbm(0.2)!r},1.0,0.0,-inf,0.0,1",
    ]
    # the serious class is never served: its stage PDR is NaN, an empty cell
    assert (tmp_path / "class_pdr.csv").read_text().splitlines() == [
        "t,casual,intermediate,serious", "1,0.9,,", "2,0.5,,"]
    assert (tmp_path / "satisfaction.csv").read_text().splitlines() == ["t,mean_x", "1,", "2,"]
    # NPC: no before/after rows; the missing intermediate class and the
    # never-served serious class leave empty cells and series
    assert (tmp_path / "summary.csv").read_text().splitlines() == [
        "metric,row,casual,intermediate,serious",
        "mean transmit power (dBm),overall,1.505149978319906,,23.010299956639813",
        "mean PDR,overall,0.7,,",
        "power standard error (dB),overall,1.0643017563727906,,0.0",
        "outage rate,overall,0.5,,",
    ]
    assert (tmp_path / "long.csv").read_text().splitlines() == [
        "series,t,value",
        "casual_power_dbm,1,0.0",
        "casual_power_dbm,2,3.010299956639812",
        "serious_power_dbm,1,23.010299956639813",
        "serious_power_dbm,2,23.010299956639813",
        "casual_pdr,1,0.9",
        "casual_pdr,2,0.5",
        "serious_pdr,1,",
        "serious_pdr,2,",
    ]
