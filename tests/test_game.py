import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ubeas import game, link
from ubeas.channel import FadingState
from ubeas.config import CLASS_ORDER, BehaviorClass, ConfigError, GameConfig, rng_streams
from ubeas.game import (
    RECORD_DTYPE,
    _gradient_fn,
    _gradients,
    _log_qx,
    _payoff_on_grid,
    class_target_sinr,
    follower_best_response,
    follower_utility,
    follower_utility_gradient,
    leader_best_satisfaction,
    leader_utility,
    maximize_concave,
    measure_followers,
    payoff,
    price_curvature_power,
    price_curvature_x,
    price_gradient_power,
    price_gradient_x,
    required_power,
    run_game,
    satisfaction_price,
)
from ubeas.link import MODULATIONS
from ubeas.npc import run_npc_game

CFG = GameConfig()
CLASSES = list(BehaviorClass)


def draw_instance(rng, cfg=CFG, gamma_span=(0.3, 20.0)):
    """Random admissible (x, p, own_gain, interference) with SINR in gamma_span."""
    x = float(rng.uniform(0.01, 1.0))
    p = float(rng.uniform(cfg.p_min * 1.01, cfg.p_max * 0.99))
    gamma = float(np.exp(rng.uniform(np.log(gamma_span[0]), np.log(gamma_span[1]))))
    interference = float(np.exp(rng.uniform(np.log(1e-13), np.log(1e-10))))
    own_gain = gamma * interference / p
    return x, p, own_gain, interference


# ---------------------------------------------------------------------------
# Leader.
# ---------------------------------------------------------------------------

def test_leader_utility_first_stage_is_pure_quadratic():
    for x in (0.2, 0.7, 1.0):
        assert leader_utility(x, 0.05, 1.0, 0.5, 4.0) == -0.05 * x * x


def test_leader_utility_direct_substitution():
    value = leader_utility(0.5, 0.01, math.e ** 2, 0.5, 4.0)
    assert abs(value - 8.0075) < 1e-9


def test_leader_utility_constant_curvature():
    h = 1e-4
    for p_bar in (0.002, 0.05, 0.19):
        for x in (0.3, 0.8):
            second = (leader_utility(x + h, p_bar, 7.0, 0.5, 4.0)
                      - 2.0 * leader_utility(x, p_bar, 7.0, 0.5, 4.0)
                      + leader_utility(x - h, p_bar, 7.0, 0.5, 4.0)) / (h * h)
            assert abs(second - (-2.0 * p_bar)) < 1e-6


def test_leader_utility_rejects_bad_inputs():
    with pytest.raises(ValueError):
        leader_utility(0.5, 0.0, 2.0, 0.5, 4.0)
    with pytest.raises(ValueError):
        leader_utility(0.5, 0.01, 0.5, 0.5, 4.0)


def test_leader_best_satisfaction_examples():
    assert leader_best_satisfaction(0.5, math.e ** 2) == 1.0
    assert leader_best_satisfaction(0.001, 2.0) == 0.001


def test_leader_best_satisfaction_matches_grid_argmax():
    rng = np.random.default_rng(17)
    grid = np.linspace(CFG.x_floor, 1.0, 10_000)
    step = grid[1] - grid[0]
    for _ in range(50):
        x_prev = float(rng.uniform(CFG.x_floor, 1.0))
        p_bar = float(rng.uniform(1e-4, 0.2))
        t = float(rng.uniform(1.0, 100.0))
        best = leader_best_satisfaction(x_prev, t, CFG.x_floor)
        values = [leader_utility(float(x), p_bar, t, x_prev, CFG.kappa_c) for x in grid]
        assert abs(best - grid[int(np.argmax(values))]) <= step


# ---------------------------------------------------------------------------
# Satisfaction price.
# ---------------------------------------------------------------------------

def test_price_direct_substitution():
    assert abs(satisfaction_price(0.5, 0.1, CFG) - 3.2389) < 1e-3


def test_price_positive_and_monotone():
    for p in np.linspace(CFG.p_min, CFG.p_max, 20):
        assert satisfaction_price(0.9, float(p), CFG) > satisfaction_price(0.1, float(p), CFG) > 0
    for x in np.linspace(0.05, 1.0, 20):
        assert satisfaction_price(float(x), CFG.p_max, CFG) > satisfaction_price(float(x), CFG.p_min, CFG)


def test_price_guards_domain():
    with pytest.raises(ValueError):
        satisfaction_price(0.0, 0.1, CFG)
    with pytest.raises(ValueError):
        satisfaction_price(1.5, 0.1, CFG)
    with pytest.raises(ValueError):
        # p/z too close to y: the power-side logarithm would flip sign
        satisfaction_price(0.5, 0.7, CFG)
    # The verifiers' array payoff keeps the same domain checks.
    target = class_target_sinr(BehaviorClass.SERIOUS, CFG)
    powers = np.array([CFG.p_min, 0.1, 0.7])
    with pytest.raises(ValueError):
        _payoff_on_grid(BehaviorClass.SERIOUS, 0.5, powers, 1e-9, 1e-12, target, CFG)
    for x in (0.0, 1.5):
        with pytest.raises(ValueError):
            _payoff_on_grid(BehaviorClass.SERIOUS, x, powers[:2], 1e-9, 1e-12, target, CFG)
    assert np.isfinite(_payoff_on_grid(BehaviorClass.SERIOUS, None, powers, 1e-9, 1e-12,
                                       target, CFG)).all()


def test_payoff_on_grid_matches_scalar_payoff():
    rng = np.random.default_rng(23)
    for behavior in CLASSES:
        target = class_target_sinr(behavior, CFG)
        for x in (None, 0.3, 1.0):
            _, _, own, interf = draw_instance(rng)
            # the lowest powers of the wide grid put the serious class in a deep
            # fade, where both forms return -inf
            grid = np.concatenate([np.linspace(CFG.p_min, CFG.p_max, 50), [1e-7 * CFG.p_min]])
            values = _payoff_on_grid(behavior, x, grid, own, interf, target, CFG)
            for p, value in zip(grid.tolist(), values.tolist()):
                expected = payoff(behavior, x, p, own, interf, target, CFG)
                if math.isinf(expected):
                    assert value == expected
                else:
                    assert abs(value - expected) <= 1e-12 * max(1.0, abs(expected))


def test_price_partials_match_finite_differences():
    rng = np.random.default_rng(23)
    h = 1e-7
    for _ in range(1000):
        x = float(rng.uniform(0.01, 0.999))
        p = float(rng.uniform(CFG.p_min, CFG.p_max - 1e-6))
        dx = (satisfaction_price(x + h, p, CFG) - satisfaction_price(x - h, p, CFG)) / (2 * h)
        dp = (satisfaction_price(x, p + h, CFG) - satisfaction_price(x, p - h, CFG)) / (2 * h)
        assert abs(price_gradient_x(x, p, CFG) - dx) <= 1e-6 * abs(dx)
        assert abs(price_gradient_power(x, p, CFG) - dp) <= 1e-6 * abs(dp)
        assert price_gradient_x(x, p, CFG) > 0
        assert price_gradient_power(x, p, CFG) > 0


def test_price_curvatures_positive_and_match_finite_differences():
    rng = np.random.default_rng(29)
    for _ in range(1000):
        x = float(rng.uniform(0.01, 0.99))
        p = float(rng.uniform(CFG.p_min * 2, CFG.p_max - 1e-4))
        cx = price_curvature_x(x, p, CFG)
        cp = price_curvature_power(x, p, CFG)
        assert cx > 0 and cp > 0
    hx, hp = 1e-4, 1e-5
    for x, p in ((0.3, 0.05), (0.9, 0.15), (0.05, 0.002)):
        fd_x = (satisfaction_price(x + hx, p, CFG) - 2 * satisfaction_price(x, p, CFG)
                + satisfaction_price(x - hx, p, CFG)) / (hx * hx)
        fd_p = (satisfaction_price(x, p + hp, CFG) - 2 * satisfaction_price(x, p, CFG)
                + satisfaction_price(x, p - hp, CFG)) / (hp * hp)
        assert abs(price_curvature_x(x, p, CFG) - fd_x) <= 1e-5 * abs(fd_x)
        assert abs(price_curvature_power(x, p, CFG) - fd_p) <= 1e-5 * abs(fd_p)


# ---------------------------------------------------------------------------
# Follower utilities and gradients.
# ---------------------------------------------------------------------------

def test_casual_utility_differences_come_only_from_price():
    rng = np.random.default_rng(3)
    for _ in range(200):
        x, _, own, interf = draw_instance(rng)
        p1 = float(rng.uniform(CFG.p_min, CFG.p_max))
        p2 = float(rng.uniform(CFG.p_min, CFG.p_max))
        u1 = follower_utility(BehaviorClass.CASUAL, x, p1, own, interf, CFG)
        u2 = follower_utility(BehaviorClass.CASUAL, x, p2, own, interf, CFG)
        d1 = satisfaction_price(x, p1, CFG)
        d2 = satisfaction_price(x, p2, CFG)
        assert abs((u1 - u2) - (d2 - d1)) < 1e-12 * max(1.0, abs(u1 - u2))


def test_intermediate_utility_at_target_sinr():
    target = class_target_sinr(BehaviorClass.INTERMEDIATE, CFG)
    interf = 1e-11
    for p in (0.002, 0.03, 0.15):
        own = target * interf / p  # makes gamma equal the target
        u = follower_utility(BehaviorClass.INTERMEDIATE, 0.4, p, own, interf, CFG)
        expected = -CFG.s * p - satisfaction_price(0.4, p, CFG)
        assert abs(u - expected) < 1e-12


def test_serious_utility_direct_substitution():
    rng = np.random.default_rng(5)
    mod = CFG.modulation_params
    for _ in range(200):
        x, p, own, interf = draw_instance(rng)
        gamma = p * own / interf
        pdr = math.exp(mod.a * gamma ** mod.b)
        expected = (-(p ** CFG.w) - CFG.h_i / pdr ** CFG.v
                    - satisfaction_price(x, p, CFG))
        got = follower_utility(BehaviorClass.SERIOUS, x, p, own, interf, CFG)
        assert abs(got - expected) <= 1e-12 * max(1.0, abs(expected))


def test_casual_gradient_is_negative_price_slope():
    rng = np.random.default_rng(6)
    for _ in range(200):
        x, p, own, interf = draw_instance(rng)
        g = follower_utility_gradient(BehaviorClass.CASUAL, x, p, own, interf, CFG)
        assert g == -price_gradient_power(x, p, CFG)
        assert g < 0


def test_intermediate_gradient_at_target_sinr():
    target = class_target_sinr(BehaviorClass.INTERMEDIATE, CFG)
    interf = 3e-12
    for p in (0.005, 0.05):
        own = target * interf / p
        g = follower_utility_gradient(BehaviorClass.INTERMEDIATE, 0.6, p, own, interf, CFG)
        expected = -CFG.s - price_gradient_power(0.6, p, CFG)
        assert abs(g - expected) < 1e-9


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(7)
    h = 1e-7
    for behavior in CLASSES:
        for _ in range(300):
            x, p, own, interf = draw_instance(rng, gamma_span=(0.5, 30.0))
            analytic = follower_utility_gradient(behavior, x, p, own, interf, CFG)
            u_hi = follower_utility(behavior, x, p + h, own, interf, CFG)
            u_lo = follower_utility(behavior, x, p - h, own, interf, CFG)
            numeric = (u_hi - u_lo) / (2 * h)
            floor = (abs(u_hi) + abs(u_lo)) * 2.3e-16 / (2 * h)
            assert abs(analytic - numeric) <= 1e-6 * max(abs(numeric), 1e-9) + floor, behavior


def unfolded_payoff_gradient(behavior, x, p, own_gain, interference, target, cfg):
    """The payoff gradient as written before its constants were folded: the reference."""
    gamma = p * own_gain / interference
    if behavior is BehaviorClass.CASUAL:
        slope = 0.0
    elif behavior is BehaviorClass.INTERMEDIATE:
        slope = -cfg.s + 2.0 * cfg.c * gamma * (target - gamma) / p
    else:
        mod = cfg.modulation_params
        gamma_b = gamma ** mod.b
        exponent = -cfg.v * mod.a * gamma_b
        if exponent > 700.0:
            slope = math.inf
        else:
            slope = (-cfg.w * p ** (cfg.w - 1.0)
                     + cfg.h_i * cfg.v * mod.a * mod.b * gamma_b * math.exp(exponent) / p)
    if x is None:
        return slope
    return slope - price_gradient_power(x, p, cfg)


SOLVED_CLASSES = st.sampled_from([BehaviorClass.INTERMEDIATE, BehaviorClass.SERIOUS])
SATISFACTIONS = st.one_of(st.none(), st.floats(0.0, 1.0, exclude_min=True))
# Utility constants beside the defaults, whose 1.0, 2.0 and 4.0 make many
# regroupings of the folded products exact and so invisible to the comparison.
CONSTANTS = st.one_of(st.just({}), st.fixed_dictionaries({
    "s": st.floats(0.01, 1.0), "c": st.floats(0.1, 10.0), "w": st.floats(1.0, 3.0),
    "v": st.floats(0.5, 8.0), "h_i": st.floats(0.1, 10.0)}))


def solver_cfg(priority, modulation, constants):
    return dataclasses.replace(CFG, priority_mode=priority, modulation=modulation, **constants)


@settings(max_examples=400, deadline=None)
@given(
    behavior=SOLVED_CLASSES,
    x=SATISFACTIONS,
    priority=st.booleans(),
    modulation=st.sampled_from(sorted(MODULATIONS)),
    constants=CONSTANTS,
    p=st.floats(CFG.p_min, CFG.p_max),
    # SINRs from a deep fade (serious exponent above 700) to far above target
    gamma=st.floats(1e-3, 1e3),
    interference=st.floats(1e-14, 1e-9),
)
def test_gradient_fn_equals_unfolded_gradient_bit_for_bit(behavior, x, priority, modulation,
                                                          constants, p, gamma, interference):
    cfg = solver_cfg(priority, modulation, constants)
    target = class_target_sinr(behavior, cfg)
    own = gamma * interference / p
    expected = unfolded_payoff_gradient(behavior, x, p, own, interference, target, cfg)
    log_qx = None if x is None else _log_qx(x, cfg)
    assert _gradient_fn(behavior, target, x, own, interference, cfg, log_qx)(p).hex() \
        == expected.hex()
    assert follower_utility_gradient(behavior, x, p, own, interference, cfg).hex() \
        == expected.hex()


@settings(max_examples=200, deadline=None)
@given(
    x=SATISFACTIONS,
    priority=st.booleans(),
    modulation=st.sampled_from(sorted(MODULATIONS)),
    constants=CONSTANTS,
    # test_gradient_fn_equals_unfolded_gradient_bit_for_bit's grid, several pairs at once
    points=st.lists(st.tuples(SOLVED_CLASSES, st.floats(CFG.p_min, CFG.p_max),
                              st.floats(1e-3, 1e3), st.floats(1e-14, 1e-9)),
                    min_size=1, max_size=6),
)
def test_array_gradients_equal_gradient_fn_bit_for_bit(x, priority, modulation, constants,
                                                        points):
    cfg = solver_cfg(priority, modulation, constants)
    behaviors = [b for b, _, _, _ in points]
    p = np.array([p for _, p, _, _ in points])
    interference = np.array([i for _, _, _, i in points])
    own = np.array([g for _, _, g, _ in points]) * interference / p
    targets = np.array([class_target_sinr(b, cfg) for b in behaviors])
    serious = np.array([b is BehaviorClass.SERIOUS for b in behaviors])
    log_qx = None if x is None else _log_qx(x, cfg)
    got = _gradients(p, serious, targets, own, interference, log_qx, cfg)
    for k, behavior in enumerate(behaviors):
        args = (targets[k].item(), x, own[k].item(), interference[k].item(), cfg, log_qx)
        assert got[k].item().hex() == _gradient_fn(behavior, *args)(p[k].item()).hex()


def test_gradient_fn_keeps_the_deep_fade_and_price_domain_guards():
    behavior = BehaviorClass.SERIOUS
    target = class_target_sinr(behavior, CFG)
    interference = 1e-11
    own = 1e-3 * interference / CFG.p_min   # SINR 1e-3: exponent far above 700
    for x in (None, 0.5):
        log_qx = None if x is None else _log_qx(x, CFG)
        expected = unfolded_payoff_gradient(behavior, x, CFG.p_min, own, interference, target, CFG)
        assert expected == math.inf
        assert _gradient_fn(behavior, target, x, own, interference, CFG, log_qx)(CFG.p_min) \
            == expected
        assert _gradients(np.array([CFG.p_min]), np.array([True]), np.array([target]),
                          np.array([own]), np.array([interference]), log_qx, CFG)[0] == expected
    # p / z too close to y: the power-side logarithm would flip sign
    for behavior in CLASSES:
        with pytest.raises(ValueError):
            unfolded_payoff_gradient(behavior, 0.5, 0.7, 1e-9, 1e-12, target, CFG)
        with pytest.raises(ValueError):
            _gradient_fn(behavior, target, 0.5, 1e-9, 1e-12, CFG, _log_qx(0.5, CFG))(0.7)
        with pytest.raises(ValueError):
            _gradient_fn(behavior, target, 1.5, 1e-9, 1e-12, CFG, _log_qx(1.5, CFG))(0.1)
        with pytest.raises(ValueError):
            _gradients(np.array([0.1, 0.7]), np.array([behavior is BehaviorClass.SERIOUS] * 2),
                       np.array([target] * 2), np.array([1e-9] * 2), np.array([1e-12] * 2),
                       _log_qx(0.5, CFG), CFG)


@settings(max_examples=300, deadline=None)
@given(
    behavior=SOLVED_CLASSES,
    x=SATISFACTIONS,
    priority=st.booleans(),
    modulation=st.sampled_from(sorted(MODULATIONS)),
    constants=CONSTANTS,
    own_gain=st.floats(1e-12, 1e-6),
    # required powers below p_min, inside [p_min, p_max], within br_tolerance
    # of p_max and above p_max (outage)
    p_req_wanted=st.one_of(st.floats(1e-5, 1.0),
                           st.floats(CFG.p_max - CFG.br_tolerance, CFG.p_max)),
)
def test_best_response_equals_solver_on_unfolded_gradient(behavior, x, priority, modulation,
                                                          constants, own_gain, p_req_wanted):
    cfg = solver_cfg(priority, modulation, constants)
    target = class_target_sinr(behavior, cfg)
    interf = p_req_wanted * own_gain / target
    p_req = required_power(target, own_gain, interf)
    if p_req > cfg.p_max:
        expected = (cfg.p_max, True)
    else:
        expected = (maximize_concave(
            lambda p: payoff(behavior, x, p, own_gain, interf, target, cfg),
            lambda p: unfolded_payoff_gradient(behavior, x, p, own_gain, interf, target, cfg),
            max(cfg.p_min, p_req), cfg.p_max, cfg.br_tolerance), False)
    assert follower_best_response(behavior, x, own_gain, interf, cfg) == expected


@settings(max_examples=200, deadline=None)
@given(
    x=SATISFACTIONS,
    priority=st.booleans(),
    modulation=st.sampled_from(sorted(MODULATIONS)),
    constants=CONSTANTS,
    # SINRs from a deep fade (serious exponent above 700) to far above target
    points=st.lists(st.tuples(st.sampled_from(CLASSES), st.floats(CFG.p_min, CFG.p_max),
                              st.floats(1e-3, 1e3), st.floats(1e-14, 1e-9), st.booleans()),
                    min_size=1, max_size=6),
)
def test_measure_followers_equals_the_scalar_functions_bit_for_bit(x, priority, modulation,
                                                                  constants, points):
    cfg = solver_cfg(priority, modulation, constants)
    behaviors = [b for b, *_ in points]
    p = np.array([p for _, p, _, _, _ in points])
    interference = np.array([i for _, _, _, i, _ in points])
    own = np.array([g for _, _, g, _, _ in points]) * interference / p
    targets = np.array([class_target_sinr(b, cfg) for b in behaviors])
    outages = np.array([o for *_, o in points])
    record = measure_followers(np.array([CLASS_ORDER.index(b) for b in behaviors]), targets, x,
                               p, own, interference, outages, cfg)
    for k, behavior in enumerate(behaviors):
        pk, ownk, interf = p[k].item(), own[k].item(), interference[k].item()
        sinr = pk * ownk / interf
        price = 0.0 if x is None else satisfaction_price(x, pk, cfg)
        expected = (pk, sinr, link.pdr_from_sinr(sinr, cfg.modulation_params),
                    payoff(behavior, None, pk, ownk, interf, targets[k].item(), cfg) - price, price)
        got = tuple(record[name][k].item() for name in ("power", "sinr", "pdr", "utility", "price"))
        assert [v.hex() for v in got] == [v.hex() for v in expected]
        assert record.outage[k] == outages[k]
    # the padding after outage is zero
    padded = np.zeros(len(points), RECORD_DTYPE)
    for name in RECORD_DTYPE.names:
        padded[name] = record[name]
    assert record.tobytes() == padded.tobytes()


def test_follower_utilities_concave_in_power():
    rng = np.random.default_rng(9)
    h = 1e-5
    for behavior in CLASSES:
        for _ in range(300):
            x, p, own, interf = draw_instance(rng)
            p = min(max(p, CFG.p_min + h), CFG.p_max - h)
            second = (follower_utility(behavior, x, p + h, own, interf, CFG)
                      - 2 * follower_utility(behavior, x, p, own, interf, CFG)
                      + follower_utility(behavior, x, p - h, own, interf, CFG))
            assert second < 0, behavior


# ---------------------------------------------------------------------------
# Best response.
# ---------------------------------------------------------------------------

def test_casual_best_response_sits_at_feasibility_floor():
    rng = np.random.default_rng(13)
    for _ in range(100):
        x, _, own, interf = draw_instance(rng)
        target = class_target_sinr(BehaviorClass.CASUAL, CFG)
        p_req = target * interf / own
        if p_req > CFG.p_max:
            continue
        power, outage = follower_best_response(BehaviorClass.CASUAL, x, own, interf, CFG)
        assert not outage
        assert power == max(CFG.p_min, p_req)


PRIORITY_CFG = dataclasses.replace(CFG, priority_mode=True)


@settings(max_examples=300, deadline=None)
@given(
    own_gain=st.floats(1e-12, 1e-6),
    # required powers below p_min, inside [p_min, p_max], within br_tolerance
    # of p_max (so hi - lo <= tol) and above p_max (outage)
    p_req_wanted=st.one_of(st.floats(1e-5, 1.0),
                           st.floats(CFG.p_max - CFG.br_tolerance, CFG.p_max)),
    x=st.one_of(st.none(), st.floats(0.0, 1.0, exclude_min=True)),
    priority=st.booleans(),
)
def test_casual_closed_form_equals_generic_solver(own_gain, p_req_wanted, x, priority):
    cfg = PRIORITY_CFG if priority else CFG
    behavior = BehaviorClass.CASUAL
    target = class_target_sinr(behavior, cfg)
    interf = p_req_wanted * own_gain / target
    p_req = required_power(target, own_gain, interf)
    if p_req > cfg.p_max:
        expected = (cfg.p_max, True)
    else:
        expected = (maximize_concave(
            lambda p: payoff(behavior, x, p, own_gain, interf, target, cfg),
            _gradient_fn(behavior, target, x, own_gain, interf, cfg,
                         None if x is None else _log_qx(x, cfg)),
            max(cfg.p_min, p_req), cfg.p_max, cfg.br_tolerance), False)
    assert follower_best_response(behavior, x, own_gain, interf, cfg) == expected


def test_best_response_outage_clamps_to_p_max():
    target = class_target_sinr(BehaviorClass.SERIOUS, CFG)
    interf = 1e-9
    own = target * interf / (CFG.p_max * 2.0)  # p_req = 2 p_max
    power, outage = follower_best_response(BehaviorClass.SERIOUS, 0.5, own, interf, CFG)
    assert outage and power == CFG.p_max


def test_best_response_rejects_satisfaction_outside_unit_interval():
    # the casual class answers without evaluating the price, so the domain
    # check cannot rest on the price's own guard
    for behavior in CLASSES:
        for x in (0.0, 1.5):
            with pytest.raises(ValueError):
                follower_best_response(behavior, x, 1e-9, 1e-12, CFG)


def test_best_response_matches_grid_argmax():
    rng = np.random.default_rng(15)
    for behavior in CLASSES:
        for _ in range(30):
            x, _, own, interf = draw_instance(rng, gamma_span=(0.4, 5.0))
            target = class_target_sinr(behavior, CFG)
            p_req = target * interf / own
            if p_req > CFG.p_max:
                continue
            power, outage = follower_best_response(behavior, x, own, interf, CFG)
            assert not outage
            lo = max(CFG.p_min, p_req)
            grid = np.linspace(lo, CFG.p_max, 10_000)
            values = [follower_utility(behavior, x, float(p), own, interf, CFG) for p in grid]
            k = int(np.argmax(values))
            assert abs(power - grid[k]) <= grid[1] - grid[0]
            assert values[k] - follower_utility(behavior, x, power, own, interf, CFG) <= 1e-9


# ---------------------------------------------------------------------------
# Stage protocol.
# ---------------------------------------------------------------------------

def test_casual_pair_settles_at_required_power():
    # On a frozen channel the casual pair plays its required power against the
    # interference of the stage before, summed pair by pair here, and the game
    # settles.  At p_min = 1 uW its required power lies above p_min.
    cfg = GameConfig(num_pairs=3, doppler=0.0, stages=12, p_min=1e-6)
    traj = run_game(cfg)
    powers, gains = traj.outcomes.power, traj.final_gains
    i = traj.behaviors.index(BehaviorClass.CASUAL)
    target = class_target_sinr(BehaviorClass.CASUAL, cfg)
    for before, now in zip(powers[:-1].tolist(), powers[1:].tolist()):
        interference = cfg.noise_power + math.fsum(
            p * g for j, (p, g) in enumerate(zip(before, gains[:, i].tolist())) if j != i)
        assert now[i] == pytest.approx(max(cfg.p_min, target * interference / gains[i, i]),
                                       rel=1e-12)
    assert (powers[1:, i] > cfg.p_min).all()
    assert (powers[-1] == powers[-2]).all()


def test_first_stage_keeps_initial_satisfaction():
    traj = run_game(GameConfig(num_pairs=6, stages=3, repetitions=1))
    assert traj.records[0].x == 0.001


def test_run_stage_deterministic():
    cfg = GameConfig(num_pairs=6, stages=4)
    t1 = run_game(cfg)
    t2 = run_game(cfg)
    assert np.array_equal(t1.outcomes, t2.outcomes)
    assert np.array_equal(t1.x, t2.x)


def test_run_game_zero_stages():
    # a game needs at least one stage: zero stages is refused before any draw
    with pytest.raises(ConfigError, match="stages"):
        run_game(GameConfig(num_pairs=3, stages=0))


def test_satisfaction_rises_to_one_and_stays():
    traj = run_game(GameConfig(num_pairs=6))
    xs = traj.x.tolist()
    low = int(np.argmin(xs))
    tail = xs[low:]
    assert all(b >= a for a, b in zip(tail, tail[1:]))
    first_one = xs.index(1.0)
    assert first_one + 1 <= 20
    assert all(x == 1.0 for x in xs[first_one:])


def test_frozen_channel_powers_reach_fixed_point():
    traj = run_game(GameConfig(num_pairs=6, doppler=0.0))
    powers = traj.outcomes.power
    drift = np.abs(np.diff(powers[-10:], axis=0))
    assert drift.max() < 1e-6


def test_run_stage_protocol_ordering():
    # the leader's x comes from its own path, not from the powers; the
    # followers then best-respond to the previous-stage interference with
    # that stage's satisfaction in their price
    from ubeas import link
    from ubeas.game import leader_path, run_stage

    cfg = GameConfig(num_pairs=3, stages=5)
    rng = np.random.default_rng(55)
    gains = np.exp(rng.uniform(np.log(1e-12), np.log(1e-8), size=(3, 3)))
    gains[np.diag_indices(3)] = np.exp(rng.uniform(np.log(1e-8), np.log(1e-7), size=3))
    mod = cfg.modulation_params
    from ubeas.link import target_sinr as link_target
    behaviors = tuple(BehaviorClass)
    targets = [link_target(0.90, mod) for _ in behaviors]
    powers = np.array([float(rng.uniform(cfg.p_min, cfg.p_max)) for _ in behaviors])
    xs = leader_path(cfg).tolist()
    # t = 1, x pinned at x_init; run_stage plays a block, here of one row
    assert xs[0] == cfg.x_init
    rows = run_stage(behaviors, targets, xs[0], powers[None], gains[None], cfg)
    prev_powers = rows[0]["power"].copy()

    rows = run_stage(behaviors, targets, xs[1], prev_powers[None], gains[None], cfg)  # t = 2
    row = rows.view(np.recarray)[0]
    assert xs[1] == leader_best_satisfaction(xs[0], 2.0, cfg.x_floor)
    interference = link.interference_all(prev_powers, gains, cfg.noise_power)
    for i, behavior in enumerate(behaviors):
        expected_p, _ = follower_best_response(
            behavior, xs[1], float(gains[i, i]), float(interference[i]), cfg)
        assert row.power[i] == expected_p


def test_leader_path_is_the_recursion_and_every_repetitions_x(monkeypatch):
    cfg = GameConfig(num_pairs=6, stages=40, repetitions=3)
    xs = [cfg.x_init]
    for t in range(2, cfg.stages + 1):
        xs.append(leader_best_satisfaction(xs[-1], float(t), cfg.x_floor))
    assert game.leader_path(cfg).tolist() == xs
    steps = count_calls(monkeypatch, game, "leader_best_satisfaction")
    trajectories = game.run_games(cfg, range(cfg.repetitions))
    assert len(steps) == cfg.stages - 1   # once per run, not per stage of each repetition
    for traj in trajectories:
        assert traj.x.tolist() == xs
        assert [record.x for record in traj.records] == xs


def test_maximize_concave_golden_fallback_on_nonconcave_input():
    from ubeas.game import maximize_concave

    # convex bowl: gradient negative at lo, positive at hi; the fallback must
    # still return the better endpoint
    center = 0.06
    utility = lambda p: (p - center) ** 2
    gradient = lambda p: 2.0 * (p - center)
    best = maximize_concave(utility, gradient, 0.001, 0.2, 1e-9)
    assert best == 0.2  # farther endpoint wins
    best_low = maximize_concave(utility, gradient, 0.001, 0.11, 1e-9)
    assert best_low == 0.001


def test_stage_class_means_recompute_from_members():
    from ubeas.game import class_means

    traj = run_game(GameConfig(num_pairs=6, stages=5))
    for record in traj.records:
        class_power_dbm, class_pdr = class_means(record)
        assert set(class_power_dbm) == set(class_pdr) == set(BehaviorClass)
        for behavior, dbm in class_power_dbm.items():
            members = [row.power for row, b in zip(record.outcomes, record.behaviors)
                       if b is behavior]
            expected = 10.0 * math.log10(sum(members) / len(members) * 1e3)
            assert abs(dbm - expected) < 1e-12
        for behavior, pdr in class_pdr.items():
            members = [row.pdr for row, b in zip(record.outcomes, record.behaviors)
                       if b is behavior]
            assert abs(pdr - sum(members) / len(members)) < 1e-12


# ---------------------------------------------------------------------------
# The stage memo: a row whose inputs repeat one of its last two is a copy.
# ---------------------------------------------------------------------------

RUN_STAGE = game.run_stage


def solve_every_row(behaviors, targets, x, reference_powers, gains, cfg, memo=None):
    """run_stage without the memo: every row solves and is measured at every stage."""
    return RUN_STAGE(behaviors, targets, x, reference_powers, gains, cfg)


def count_calls(monkeypatch, owner=game, name="measure_followers") -> list:
    """Record every call of owner.name, as the bench tracer does."""
    calls = []
    call = getattr(owner, name)

    def counted(*args):
        calls.append(args)
        return call(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def count_solves(monkeypatch) -> list:
    """Per call of the engine's best responses, the pairs it solves: those
    neither casual nor in outage."""
    solves = []
    best_responses = game._best_responses

    def counted(classes, *args):
        powers, outages = best_responses(classes, *args)
        solves.append(np.count_nonzero((classes != CLASS_ORDER.index(BehaviorClass.CASUAL))
                                       & ~outages))
        return powers, outages

    monkeypatch.setattr(game, "_best_responses", counted)
    return solves


RUNS = {"ubeas": run_game, "npc": run_npc_game}


def run_without_memo(monkeypatch, name, cfg):
    with monkeypatch.context() as patch:
        patch.setattr(game, "run_stage", solve_every_row)
        return RUNS[name](cfg)


def assert_same_bits(got, want):
    assert got.outcomes.tobytes() == want.outcomes.tobytes()
    assert (got.x is None and want.x is None) or got.x.tobytes() == want.x.tobytes()


@pytest.mark.parametrize("name", sorted(RUNS))
def test_reuse_is_exact_and_skips_solves_on_a_frozen_channel(monkeypatch, name):
    cfg = GameConfig(num_pairs=12, stages=200, doppler=0.0, npc_rerandomize=False)
    solves = count_solves(monkeypatch)
    reused = RUNS[name](cfg)
    reused_solves = sum(solves)
    solves.clear()
    every = run_without_memo(monkeypatch, name, cfg)
    assert 0 < 2 * reused_solves <= sum(solves)
    assert_same_bits(reused, every)


@pytest.mark.parametrize("seed", [1007, 1010])
@pytest.mark.parametrize("name", sorted(RUNS))
def test_memo_copies_period_two_cycles_bit_for_bit(monkeypatch, name, seed):
    # Criterion 9's seeds 1007 and 1010 end in a period-2 cycle of one-ulp
    # flips, which only the memo's second entry catches.
    cfg = GameConfig(doppler=0.0, seed=seed, repetitions=1, stages=600, npc_rerandomize=False)
    measured = count_calls(monkeypatch)
    advanced = count_calls(monkeypatch, FadingState, "advance")
    memo = RUNS[name](cfg)
    assert len(advanced) == 1   # a frozen channel is drawn once
    assert len(measured) < 50
    every = run_without_memo(monkeypatch, name, cfg)
    assert_same_bits(memo, every)
    powers = every.outcomes.power
    assert (powers[-1] != powers[-2]).any() and (powers[-1] == powers[-3]).all()


@pytest.mark.parametrize("name, fields", [("ubeas", {}), ("npc", {}), ("npc", {"doppler": 0.0})],
                         ids=["ubeas-fading", "npc-fading", "npc-frozen"])
def test_memo_never_hits_on_a_fading_channel_or_rerandomized_npc(monkeypatch, name, fields):
    cfg = dataclasses.replace(GameConfig(num_pairs=12, stages=60), **fields)
    assert cfg.npc_rerandomize
    measured = count_calls(monkeypatch)
    advanced = count_calls(monkeypatch, FadingState, "advance")
    played = count_calls(monkeypatch, game, "play_stages")
    memo = RUNS[name](cfg)
    assert len(measured) == len(played) == cfg.stages
    assert len(advanced) == (1 if cfg.doppler == 0.0 else cfg.stages)
    if name == "npc":
        # stage 1 answers the initial powers, every later stage a fresh draw
        rng = rng_streams(cfg.seed, 0).powers
        stream = [rng.uniform(cfg.p_min, cfg.p_max, size=cfg.num_pairs) for _ in range(cfg.stages)]
        assert [args[3].tobytes() for args in played] == [draw.tobytes() for draw in stream]
        assert all(args[3].shape == (1, cfg.num_pairs) for args in played)
    assert_same_bits(memo, run_without_memo(monkeypatch, name, cfg))


@pytest.mark.parametrize("name", sorted(RUNS))
def test_only_a_frozen_channel_keeps_a_memo(monkeypatch, name):
    kept = []

    def recording(behaviors, targets, x, reference_powers, gains, cfg, memo=None):
        kept.append(memo)
        return RUN_STAGE(behaviors, targets, x, reference_powers, gains, cfg, memo)

    monkeypatch.setattr(game, "run_stage", recording)
    for doppler in (0.01, 0.0):
        kept.clear()
        RUNS[name](GameConfig(num_pairs=6, stages=20, doppler=doppler))
        assert len(kept) == 20
        if doppler:
            assert all(memo is None for memo in kept)
        else:
            assert all(len(memo) == 1 and memo[0] for memo in kept)


def test_reuse_solves_again_when_only_satisfaction_changes(monkeypatch):
    cfg = GameConfig(num_pairs=3)
    rng = np.random.default_rng(55)
    gains = np.exp(rng.uniform(np.log(1e-12), np.log(1e-10), size=(3, 3)))
    # weak own links, so the serious pair's answer lies inside its feasible set
    gains[np.diag_indices(3)] = 3e-11
    behaviors = tuple(BehaviorClass)
    targets = [class_target_sinr(b, cfg) for b in behaviors]
    reference = np.full((1, 3), cfg.p_min)
    powers, memo = [], [[]]
    played = count_calls(monkeypatch, game, "play_stages")
    for x in (0.001, 1.0):
        row = game.run_stage(behaviors, targets, x, reference, gains[None], cfg, memo)[0]
        expected = game.play_stage(behaviors, targets, x, reference[0], gains, cfg)
        assert row["power"].tobytes() == expected.power.tobytes()
        powers.append(row["power"].tolist())
    assert len(played) == 4   # both x miss the memo; each is checked against a fresh solve
    assert powers[0] != powers[1]
    assert [key[0] for key, _ in memo[0]] == [1.0, 0.001]


def test_memo_hit_returns_a_copy_of_the_stored_row(monkeypatch):
    cfg = GameConfig(num_pairs=3)
    gains = np.full((1, 3, 3), 1e-12)
    gains[0][np.diag_indices(3)] = 3e-11
    behaviors = tuple(BehaviorClass)
    targets = [class_target_sinr(b, cfg) for b in behaviors]
    reference, memo = np.full((1, 3), cfg.p_min), [[]]
    played = count_calls(monkeypatch, game, "play_stages")
    first = game.run_stage(behaviors, targets, 1.0, reference, gains, cfg, memo)
    second = game.run_stage(behaviors, targets, 1.0, reference, gains, cfg, memo)
    assert len(played) == 1 and len(memo[0]) == 1   # the second stage is a hit
    [(_, stored)] = memo[0]
    # Whole rows: stored rows and hits are copied into zero-filled arrays,
    # so the padding bytes of the aligned records are zero too.
    assert second.tobytes() == first.tobytes() == stored.tobytes()
    assert not np.shares_memory(second, stored) and not np.shares_memory(first, stored)
    second["power"][:] = cfg.p_max
    assert stored["power"].tolist() == first["power"][0].tolist()


@pytest.mark.parametrize("name", sorted(RUNS))
def test_fading_channel_solves_every_uncapped_non_casual_pair(monkeypatch, name):
    cfg = GameConfig(num_pairs=12, stages=60)
    assert cfg.doppler > 0.0
    solves = count_solves(monkeypatch)
    traj = RUNS[name](cfg)
    solved = np.array([b is not BehaviorClass.CASUAL for b in traj.behaviors])
    assert len(solves) == cfg.stages
    assert sum(solves) == np.count_nonzero(solved & ~traj.outcomes.outage)
