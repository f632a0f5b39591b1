import math

import numpy as np
import pytest

from ubeas.config import BehaviorClass, GameConfig
from ubeas.game import measure_followers
from ubeas.link import (
    MODULATIONS,
    FitError,
    fit_pdr_params,
    interference_all,
    pdr_from_sinr,
    target_sinr,
)

QAM16 = MODULATIONS["16qam"]


def measured_sinr(powers, gains, noise):
    """The sinr column measure_followers records at these powers, for casual pairs."""
    m = len(powers)
    return measure_followers((BehaviorClass.CASUAL,) * m, [1.0] * m, None, powers, gains,
                             (False,) * m, GameConfig(noise_power=noise)).sinr


def test_modulation_table_rows():
    qpsk = MODULATIONS["qpsk"]
    assert (qpsk.a_c, qpsk.b_c, qpsk.a, qpsk.b) == (2.331, 6.355, -0.0001, -6.22)
    assert (QAM16.a_c, QAM16.b_c, QAM16.a, QAM16.b) == (1.383, 6.565, -0.0014, -6.88)
    qam64 = MODULATIONS["64qam"]
    assert (qam64.a_c, qam64.b_c, qam64.a, qam64.b) == (0.762, 7.014, -0.2669, -7.021)
    for mod in MODULATIONS.values():
        assert mod.a < 0 and mod.b < 0


def test_sinr_single_pair_is_snr():
    gains = np.array([[2.5e-9]])
    assert measured_sinr(np.array([0.01]), gains, 1e-13)[0] == 0.01 * 2.5e-9 / 1e-13


def test_sinr_symmetric_two_pairs():
    g_own, g_cross = 1e-8, 1e-11
    gains = np.array([[g_own, g_cross], [g_cross, g_own]])
    powers = np.array([0.05, 0.05])
    got = measured_sinr(powers, gains, 1e-13)
    assert got[0] == got[1]


def test_sinr_matches_bruteforce_and_vector_form():
    rng = np.random.default_rng(4)
    gains = rng.uniform(1e-12, 1e-8, size=(4, 4))
    powers = rng.uniform(1e-3, 0.2, size=4)
    noise = 1.1995e-13
    vec = measured_sinr(powers, gains, noise)
    for i in range(4):
        denom = sum(powers[j] * gains[j, i] for j in range(4) if j != i) + noise
        expected = powers[i] * gains[i, i] / denom
        assert abs(vec[i] - expected) <= 1e-12 * expected
    interference = interference_all(powers, gains, noise)
    for i in range(4):
        expected = sum(powers[j] * gains[j, i] for j in range(4) if j != i) + noise
        assert abs(interference[i] - expected) <= 1e-12 * expected


def test_sinr_index_out_of_range():
    # a power vector that does not match the gain matrix names pairs it does not have
    with pytest.raises(ValueError):
        measured_sinr(np.array([0.01, 0.01, 0.01]), np.ones((2, 2)), 1e-13)
    with pytest.raises(ValueError):
        measured_sinr(np.array([0.01]), np.ones((2, 2)), 1e-13)


def test_pdr_reference_points():
    assert abs(pdr_from_sinr(0.534, QAM16) - 0.90) < 0.001
    assert abs(pdr_from_sinr(1.0, QAM16) - 0.998601) < 1e-6
    assert pdr_from_sinr(1e9, QAM16) > 1.0 - 1e-12
    with pytest.raises(ValueError):
        pdr_from_sinr(0.0, QAM16)
    with pytest.raises(ValueError):
        pdr_from_sinr(-1.0, QAM16)


def test_pdr_monotone_for_every_modulation():
    gammas = np.logspace(-1, 2, 300)
    for mod in MODULATIONS.values():
        pdrs = [pdr_from_sinr(float(g), mod) for g in gammas]
        assert all(p1 <= p2 for p1, p2 in zip(pdrs, pdrs[1:]))
        # strictly increasing wherever the value has not saturated in floats
        for p1, p2 in zip(pdrs, pdrs[1:]):
            if 1e-12 < p1 and p2 < 1.0 - 1e-12:
                assert p1 < p2


def test_target_sinr_reference_and_round_trip():
    gamma_bar = target_sinr(0.90, QAM16)
    assert abs(gamma_bar - 0.534) < 0.001
    assert abs(pdr_from_sinr(target_sinr(0.98, QAM16), QAM16) - 0.98) < 1e-9
    # pdr_tgt = exp(a) maps to unit SINR regardless of b
    assert abs(target_sinr(math.exp(QAM16.a), QAM16) - 1.0) < 1e-12
    with pytest.raises(ValueError):
        target_sinr(0.0, QAM16)
    with pytest.raises(ValueError):
        target_sinr(1.0, QAM16)


def test_inversion_identity_over_operating_range():
    for mod in MODULATIONS.values():
        for gamma in np.logspace(math.log10(0.1), 2, 120):
            pdr = pdr_from_sinr(float(gamma), mod)
            if not 0.0 < pdr < 1.0:
                continue
            back = target_sinr(pdr, mod)
            if pdr <= 1.0 - 1e-6:
                # identity in SINR space, away from float saturation of pdr
                assert abs(back - gamma) / gamma < 1e-9
            # forward round trip holds over the whole representable range
            assert abs(pdr_from_sinr(back, mod) - pdr) < 1e-9


def test_qos_predicate_matches_in_both_spaces():
    rng = np.random.default_rng(8)
    for _ in range(500):
        gamma = float(rng.uniform(0.1, 5.0))
        tgt = float(rng.uniform(0.5, 0.995))
        gamma_bar = target_sinr(tgt, QAM16)
        assert (gamma >= gamma_bar) == (pdr_from_sinr(gamma, QAM16) >= tgt)


def _samples(mod, lo, hi, n=25):
    gammas = np.linspace(lo, hi, n)
    return [(float(g), math.exp(-((1.0 / (g * mod.a_c)) ** mod.b_c))) for g in gammas]


def test_fit_recovers_each_table_row():
    for name, span in (("qpsk", (0.42, 1.8)), ("16qam", (0.7, 3.0)), ("64qam", (1.25, 5.0))):
        mod = MODULATIONS[name]
        a_c, b_c = fit_pdr_params(_samples(mod, *span))
        assert abs(a_c - mod.a_c) < 1e-6, name
        assert abs(b_c - mod.b_c) < 1e-6, name


def test_fit_robust_to_small_pdr_noise():
    rng = np.random.default_rng(31)
    mod = QAM16
    noisy = [
        (g, float(np.clip(p + rng.uniform(-0.001, 0.001), 1e-9, 1.0 - 1e-9)))
        for g, p in _samples(mod, 0.7, 3.0, 60)
    ]
    a_c, b_c = fit_pdr_params(noisy)
    assert abs(a_c - mod.a_c) / mod.a_c < 0.01
    assert abs(b_c - mod.b_c) / mod.b_c < 0.01


def test_fit_rejects_degenerate_samples():
    with pytest.raises(FitError):
        fit_pdr_params([(1.0, 0.9)])
    with pytest.raises(FitError):
        fit_pdr_params([(1.0, 0.9), (1.0, 0.9), (1.0, 0.9)])
    with pytest.raises(FitError):
        fit_pdr_params([(1.0, 0.9), (2.0, 1.5)])
    # a non-finite or extreme SINR among valid samples; the last three
    # overflow the log-log starting point
    for bad in (math.inf, math.nan, 1e-320, 1e150, 1e300):
        with pytest.raises(FitError):
            fit_pdr_params(_samples(QAM16, 0.7, 3.0) + [(bad, 0.5)])
