import dataclasses

import numpy as np

from ubeas.config import BehaviorClass, GameConfig
from ubeas.game import (
    class_target_sinr,
    follower_best_response,
    follower_utility,
    follower_utility_gradient,
    run_game,
    satisfaction_price,
)
from ubeas.npc import run_npc_game

CFG = GameConfig()


def draw_instance(rng, gamma_span=(0.3, 20.0)):
    p = float(rng.uniform(CFG.p_min * 1.01, CFG.p_max * 0.99))
    gamma = float(np.exp(rng.uniform(np.log(gamma_span[0]), np.log(gamma_span[1]))))
    interference = float(np.exp(rng.uniform(np.log(1e-13), np.log(1e-10))))
    return p, gamma * interference / p, interference


def test_casual_npc_utility_constant_in_power():
    rng = np.random.default_rng(21)
    for _ in range(100):
        _, own, interf = draw_instance(rng)
        values = {
            follower_utility(BehaviorClass.CASUAL, None, float(p), own, interf, CFG)
            for p in np.linspace(CFG.p_min, CFG.p_max, 7)
        }
        reference = class_target_sinr(BehaviorClass.CASUAL, CFG) * interf / own
        assert max(values) - min(values) <= 1e-12 * reference
        g = follower_utility_gradient(BehaviorClass.CASUAL, None, 0.01, own, interf, CFG)
        assert g == 0.0


def test_intermediate_npc_at_target_sinr():
    target = class_target_sinr(BehaviorClass.INTERMEDIATE, CFG)
    interf = 5e-12
    for p in (0.004, 0.08):
        own = target * interf / p
        got = follower_utility(BehaviorClass.INTERMEDIATE, None, p, own, interf, CFG)
        assert abs(got - (-CFG.s * p)) < 1e-12


def test_npc_utility_is_priced_utility_without_price():
    rng = np.random.default_rng(22)
    for behavior in BehaviorClass:
        for _ in range(100):
            p, own, interf = draw_instance(rng)
            x = float(rng.uniform(0.01, 1.0))
            free = follower_utility(behavior, None, p, own, interf, CFG)
            priced = follower_utility(behavior, x, p, own, interf, CFG)
            assert free - satisfaction_price(x, p, CFG) == priced


def test_npc_best_response_never_below_required_power():
    rng = np.random.default_rng(25)
    for behavior in BehaviorClass:
        for _ in range(100):
            _, own, interf = draw_instance(rng, gamma_span=(0.4, 4.0))
            target = class_target_sinr(behavior, CFG)
            p_req = target * interf / own
            power, outage = follower_best_response(behavior, None, own, interf, CFG)
            if outage:
                assert power == CFG.p_max
            else:
                assert power >= min(max(CFG.p_min, p_req), CFG.p_max) - 1e-15


def test_casual_npc_picks_minimum_feasible_power():
    rng = np.random.default_rng(26)
    for _ in range(100):
        _, own, interf = draw_instance(rng, gamma_span=(0.4, 4.0))
        target = class_target_sinr(BehaviorClass.CASUAL, CFG)
        p_req = target * interf / own
        if p_req > CFG.p_max:
            continue
        power, _ = follower_best_response(BehaviorClass.CASUAL, None, own, interf, CFG)
        assert power == max(CFG.p_min, p_req)


def test_paired_runs_share_topology_and_fading():
    cfg = GameConfig(num_pairs=6, stages=20)
    game = run_game(cfg)
    baseline = run_npc_game(cfg)
    assert np.array_equal(game.topology.tx_positions, baseline.topology.tx_positions)
    assert np.array_equal(game.topology.distances, baseline.topology.distances)
    assert np.array_equal(game.final_gains, baseline.final_gains)


def test_npc_records_have_no_leader():
    traj = run_npc_game(GameConfig(num_pairs=3, stages=4))
    for record in traj.records:
        assert record.x is None
        assert all(f.price == 0.0 for f in record.followers)


def test_iterated_npc_reaches_fixed_point_on_frozen_channel():
    cfg = dataclasses.replace(
        GameConfig(num_pairs=6), doppler=0.0, npc_rerandomize=False)
    traj = run_npc_game(cfg)
    powers = np.array([[f.power for f in r.followers] for r in traj.records])
    assert np.abs(np.diff(powers[-10:], axis=0)).max() < 1e-6


def test_rerandomized_npc_keeps_responding_to_fresh_draws():
    cfg = dataclasses.replace(GameConfig(num_pairs=6), doppler=0.0)
    traj = run_npc_game(cfg)
    powers = np.array([[f.power for f in r.followers] for r in traj.records])
    # planning interference is redrawn each stage, so chosen powers keep moving
    assert np.abs(np.diff(powers[-10:], axis=0)).max() > 1e-6


def test_npc_deterministic():
    cfg = GameConfig(num_pairs=6, stages=6)
    assert run_npc_game(cfg).records == run_npc_game(cfg).records
