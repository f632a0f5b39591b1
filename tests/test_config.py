import math
import re
from dataclasses import fields

import numpy as np
import pytest

from ubeas.config import (
    BehaviorClass,
    ConfigError,
    GameConfig,
    assign_behavior_classes,
    behavior_target_pdr,
    dbm_to_watts,
    dump_config,
    load_config,
    rng_streams,
    watts_to_dbm,
)
from ubeas.game import RECORD_DTYPE, run_game
from ubeas.link import MODULATIONS, pdr_from_sinr, target_sinr


def test_dbm_to_watts_reference_points():
    assert dbm_to_watts(0.0) == 0.001
    assert abs(dbm_to_watts(23.0) - 0.1995262) < 1e-7
    assert abs(dbm_to_watts(-99.21) - 1.1995e-13) < 1e-17


def test_dbm_watts_round_trip():
    for p_dbm in np.linspace(-120.0, 30.0, 751):
        back = watts_to_dbm(dbm_to_watts(p_dbm))
        if p_dbm != 0.0:
            assert abs(back - p_dbm) / abs(p_dbm) < 1e-12
        else:
            assert abs(back) < 1e-12


def test_watts_to_dbm_rejects_nonpositive():
    with pytest.raises(ValueError):
        watts_to_dbm(0.0)
    with pytest.raises(ValueError):
        watts_to_dbm(-1.0)


def test_default_config_matches_reference_table():
    cfg = GameConfig()
    assert cfg.cell_radius == 500.0
    assert cfg.max_pair_distance == 50.0
    assert cfg.num_pairs == 24
    assert cfg.reference_distance == 20.0
    assert cfg.path_loss_exponent == 4.0
    assert cfg.path_loss_attenuation == 10.0 ** -3.22
    assert cfg.doppler == 0.01
    assert cfg.noise_power == dbm_to_watts(-99.21)
    assert cfg.p_min == dbm_to_watts(0.0)
    assert cfg.p_max == dbm_to_watts(23.0)
    assert cfg.stages == 100
    assert (cfg.kappa_c, cfg.delta, cfg.q, cfg.y, cfg.z) == (4.0, 1.8, 3.0, 2.001, 0.6)
    assert (cfg.s, cfg.c, cfg.w, cfg.v) == (0.05, 1.0, 2.0, 4.0)
    assert cfg.x_init == 0.001 and cfg.x_floor == 0.001
    # log arguments stay above 1 over the whole admissible domain
    assert cfg.p_max / cfg.z < cfg.y - 1.0
    assert cfg.q > 2.0


def test_load_config_empty_gives_defaults():
    assert load_config("") == GameConfig()


def test_load_config_overrides_and_comments():
    cfg = load_config("""
    # three-pair toy cell
    num_pairs = 3
    seed = 99
    priority_mode = on
    """)
    assert cfg.num_pairs == 3
    assert cfg.seed == 99
    assert cfg.priority_mode is True
    assert cfg.cell_radius == 500.0


def test_load_config_rejects_bad_values():
    with pytest.raises(ConfigError, match="z"):
        load_config("z = 0")
    with pytest.raises(ConfigError, match="unknown"):
        load_config("bogus_key = 1")
    with pytest.raises(ConfigError, match="key = value"):
        load_config("just some words")
    with pytest.raises(ConfigError, match="duplicate"):
        load_config("seed = 1\nseed = 2")
    with pytest.raises(ConfigError, match="integer"):
        load_config("num_pairs = six")
    with pytest.raises(ConfigError, match="number"):
        load_config("cell_radius = big")
    with pytest.raises(ConfigError, match="boolean"):
        load_config("priority_mode = maybe")
    with pytest.raises(ConfigError, match="seed"):
        load_config("seed = -1")
    with pytest.raises(ConfigError, match="multiple of 3"):
        load_config("num_pairs = 4")
    with pytest.raises(ConfigError, match="^cell_radius .*overflow"):
        load_config("cell_radius = 1e200")
    with pytest.raises(ConfigError, match="^noise_power .*PDR exponent"):
        load_config("noise_power = 1e300")
    with pytest.raises(ConfigError, match="longest link .*underflows.*reference_distance = 5.9e-159"):
        load_config("reference_distance = 5.9e-159")
    with pytest.raises(ConfigError, match="longest link .*underflows.*path_loss_attenuation = 1e-200"):
        load_config("path_loss_attenuation = 1e-200")


def test_validation_names_price_domain_invariant():
    with pytest.raises(ConfigError, match="p_max/z"):
        GameConfig(z=0.1)
    with pytest.raises(ConfigError, match="q"):
        GameConfig(q=1.5)
    with pytest.raises(ConfigError, match="w"):
        GameConfig(w=0.5)


FLOAT_FIELDS = [f.name for f in fields(GameConfig) if f.type == "float"]
INT_FIELDS = [f.name for f in fields(GameConfig) if f.type == "int"]


def test_every_field_has_a_type_the_parser_and_validate_understand():
    assert {f.type for f in fields(GameConfig)} <= {"float", "int", "bool", "str"}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", FLOAT_FIELDS)
def test_float_field_rejects_non_finite(name, value):
    with pytest.raises(ConfigError, match=rf"^{re.escape(name)} must"):
        GameConfig(**{name: value})


@pytest.mark.parametrize("name", [n for n in FLOAT_FIELDS if n != "doppler"])
def test_float_field_rejects_zero(name):
    # doppler = 0 is a frozen channel, the one float allowed to be 0
    with pytest.raises(ConfigError, match=rf"^{re.escape(name)} must"):
        GameConfig(**{name: 0.0})


@pytest.mark.parametrize("name", INT_FIELDS)
def test_int_field_rejects_the_value_below_its_floor(name):
    below = -1 if name == "seed" else 0
    with pytest.raises(ConfigError, match=rf"^{re.escape(name)} must"):
        GameConfig(**{name: below})


@pytest.mark.parametrize("name,value", [
    ("stages", 2.5), ("seed", 1.5), ("jakes_oscillators", 2.5), ("repetitions", 1.5),
    ("num_pairs", 6.0), ("num_pairs", np.float64(6.0)), ("stages", True), ("seed", False),
    ("num_pairs", "6"), ("doppler", False), ("cell_radius", True), ("p_max", "0.1"),
    ("cell_radius", 3 + 0j), ("priority_mode", "no"), ("priority_mode", 1),
    ("npc_rerandomize", np.True_), ("modulation", 16), ("modulation", None),
])
def test_field_of_the_wrong_type_is_rejected(name, value):
    with pytest.raises(ConfigError, match=rf"^{re.escape(name)} must be of type "):
        GameConfig(**{name: value})


@pytest.mark.parametrize("value", [10 ** 400, -10 ** 400])
@pytest.mark.parametrize("name", ["cell_radius", "p_max", "doppler"])
def test_float_field_rejects_an_int_too_large_for_a_float(name, value):
    with pytest.raises(ConfigError, match=rf"^{re.escape(name)} must be a finite number .*0$"):
        GameConfig(**{name: value})


@pytest.mark.parametrize("fields", [{"stages": 10 ** 30}, {"repetitions": 10 ** 30},
                                    {"num_pairs": 3 * 10 ** 30},
                                    {"stages": 10 ** 9, "repetitions": 10 ** 9}])
def test_run_length_beyond_an_array_is_rejected(fields):
    with pytest.raises(ConfigError,
                       match=r"^repetitions x stages x num_pairs = .* exceed the largest array"):
        GameConfig(**fields)


def test_run_length_bound_is_the_outcome_table_bytes():
    # validate only: a run this long is never started here
    largest = np.iinfo(np.intp).max // (3 * RECORD_DTYPE.itemsize)
    assert GameConfig(num_pairs=3, repetitions=1, stages=largest).stages == largest
    with pytest.raises(ConfigError, match="exceed the largest array"):
        GameConfig(num_pairs=3, repetitions=1, stages=largest + 1)


def test_numpy_numbers_and_int_floats_are_accepted():
    cfg = GameConfig(num_pairs=np.int64(6), seed=np.uint32(3), cell_radius=400,
                     doppler=np.float64(0.0), p_max=np.float32(0.125))
    assert (cfg.num_pairs, cfg.seed, cfg.cell_radius, cfg.p_max) == (6, 3, 400, 0.125)
    # numpy numbers are held as Python numbers, so the config dumps and loads back
    assert [type(v) for v in (cfg.num_pairs, cfg.seed, cfg.doppler, cfg.p_max)] == [int, int, float, float]
    assert load_config(dump_config(cfg)) == cfg


def test_float32_p_max_runs():
    # Held as float32, p_max made every bisection midpoint float32, whose step
    # near 0.2 W exceeds br_tolerance: the first interior best response never ended.
    cfg = GameConfig(stages=20, doppler=0.0, p_max=np.float32(0.1995))
    powers = run_game(cfg).outcomes.power
    assert powers.dtype == np.float64 and np.all(powers <= cfg.p_max)
    assert np.any((powers > cfg.p_min) & (powers < cfg.p_max))


def test_config_round_trips_through_dump():
    cfg = GameConfig()
    assert load_config(dump_config(cfg)) == cfg
    tweaked = GameConfig(num_pairs=6, seed=123, doppler=0.0)
    assert load_config(dump_config(tweaked)) == tweaked


def test_assign_behavior_classes_even_split():
    behaviors = assign_behavior_classes(24)
    counts = {b: 0 for b in BehaviorClass}
    for b in behaviors:
        counts[b] += 1
        assert behavior_target_pdr(b, priority_mode=False) == 0.90
    assert all(n == 8 for n in counts.values())
    # pure function of its argument
    assert behaviors == assign_behavior_classes(24)


def test_assign_behavior_classes_minimal_and_errors():
    assert assign_behavior_classes(3) == list(BehaviorClass)
    with pytest.raises(ConfigError):
        assign_behavior_classes(25)
    with pytest.raises(ConfigError):
        assign_behavior_classes(0)


def test_priority_targets_ordered_and_invertible():
    targets = {b: behavior_target_pdr(b, priority_mode=True) for b in assign_behavior_classes(3)}
    assert targets[BehaviorClass.CASUAL] == 0.90
    assert targets[BehaviorClass.INTERMEDIATE] == 0.94
    assert targets[BehaviorClass.SERIOUS] == 0.98
    assert (targets[BehaviorClass.CASUAL] < targets[BehaviorClass.INTERMEDIATE]
            < targets[BehaviorClass.SERIOUS])
    mod = MODULATIONS["16qam"]
    for tgt in targets.values():
        gamma_bar = target_sinr(tgt, mod)
        assert abs(pdr_from_sinr(gamma_bar, mod) - tgt) < 1e-9


def test_rng_streams_are_independent_and_reproducible():
    a = rng_streams(7, 0)
    b = rng_streams(7, 0)
    assert a.topology.uniform() == b.topology.uniform()
    assert a.fading.uniform() == b.fading.uniform()
    # different repetitions draw differently
    c = rng_streams(7, 1)
    d = rng_streams(7, 0)
    assert c.topology.uniform() != d.topology.uniform()
