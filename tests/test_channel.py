import numpy as np
import pytest

from ubeas.channel import (
    CellTopology,
    FadingState,
    gain_matrix,
    generate_topology,
    path_loss_amplitudes,
)
from ubeas.config import BehaviorClass, GameConfig, rng_streams


def small_cfg(**kw):
    return GameConfig(**{"num_pairs": 6, **kw})


def path_loss_at(distances, cfg):
    """Path-loss amplitudes from one transmitter to receivers at the given distances."""
    d = np.asarray(distances, dtype=float).reshape(1, -1)
    layout = CellTopology(np.zeros(2), np.zeros(2), np.zeros((1, 2)),
                          np.zeros((d.shape[1], 2)), (), d)
    return path_loss_amplitudes(layout, cfg)[0]


def test_path_loss_reference_points():
    cfg = GameConfig()
    a_pl = cfg.path_loss_attenuation
    at_20, at_40, at_200 = path_loss_at([20.0, 40.0, 200.0], cfg)
    assert at_20 == a_pl
    assert abs(at_40 - a_pl * 0.25) < 1e-18
    assert abs(at_200 - a_pl * 0.01) < 1e-18


def test_path_loss_monotone():
    cfg = GameConfig()
    gains = path_loss_at(np.linspace(1.0, 1000.0, 400), cfg)
    assert np.all(gains[:-1] > gains[1:])


def test_topology_respects_geometry_bounds():
    cfg = small_cfg()
    topo = generate_topology(cfg, rng_streams(cfg.seed, 0).topology)
    assert np.all(np.linalg.norm(topo.tx_positions, axis=1) <= cfg.cell_radius)
    assert np.all(np.linalg.norm(topo.rx_positions, axis=1) <= cfg.cell_radius)
    assert np.linalg.norm(topo.cellular_position) <= cfg.cell_radius
    own = np.diagonal(topo.distances)
    assert np.all(own <= cfg.max_pair_distance)
    assert np.all(topo.distances >= cfg.min_link_distance)


def test_topology_deterministic_for_fixed_seed():
    cfg = small_cfg()
    t1 = generate_topology(cfg, rng_streams(42, 3).topology)
    t2 = generate_topology(cfg, rng_streams(42, 3).topology)
    assert np.array_equal(t1.tx_positions, t2.tx_positions)
    assert np.array_equal(t1.rx_positions, t2.rx_positions)
    assert np.array_equal(t1.distances, t2.distances)


def test_topology_uniform_disc_statistics():
    # transmitters are uniform in the disc: mean radial distance = 2R/3
    cfg = GameConfig(num_pairs=3)
    rng = rng_streams(123, 0).topology
    radii = []
    for _ in range(10_000):
        topo = generate_topology(cfg, rng)
        radii.extend(np.linalg.norm(topo.tx_positions, axis=1))
        radii.append(float(np.linalg.norm(topo.cellular_position)))
    radii = np.asarray(radii)
    assert radii.max() <= cfg.cell_radius
    assert abs(radii.mean() - 2.0 / 3.0 * cfg.cell_radius) < 3.0


def test_fading_frozen_at_zero_doppler():
    rng = rng_streams(5, 0).fading
    fading = FadingState((4, 4), 16, 0.0, rng)
    first = fading.advance()
    for _ in range(5):
        assert np.allclose(fading.advance(), first, rtol=0, atol=1e-12)


def test_fading_unit_mean_square():
    rng = rng_streams(11, 0).fading
    fading = FadingState((100, 100), 16, 0.01, rng)
    samples = np.concatenate([fading.advance().ravel() for _ in range(10)])
    assert samples.size == 100_000
    assert abs(np.mean(samples ** 2) - 1.0) < 0.02


def test_fading_slow_envelope_correlation():
    rng = rng_streams(12, 0).fading
    fading = FadingState((60, 60), 16, 0.01, rng)
    frames = np.stack([fading.advance() for _ in range(100)])
    a = frames[:-1].ravel()
    b = frames[1:].ravel()
    corr = np.corrcoef(a, b)[0, 1]
    # J0(2 pi 0.01) is about 0.999 for this normalized Doppler
    assert corr >= 0.99


def test_fading_reproducible_for_fixed_seed():
    f1 = FadingState((3, 3), 16, 0.01, rng_streams(9, 1).fading)
    f2 = FadingState((3, 3), 16, 0.01, rng_streams(9, 1).fading)
    for _ in range(4):
        assert np.array_equal(f1.advance(), f2.advance())


def test_gain_matrix_without_fading_matches_path_loss():
    cfg = small_cfg()
    topo = generate_topology(cfg, rng_streams(cfg.seed, 0).topology)
    ones = np.ones((cfg.num_pairs, cfg.num_pairs))
    gains = gain_matrix(topo, ones, cfg)
    expected = (cfg.path_loss_attenuation
                * (cfg.reference_distance / topo.distances) ** (cfg.path_loss_exponent / 2.0)) ** 2
    assert np.allclose(gains, expected, rtol=1e-15)


def test_gain_matrix_symmetric_layout():
    cfg = GameConfig(num_pairs=2)
    topo = generate_topology(cfg, rng_streams(1, 0).topology, [BehaviorClass.CASUAL] * 2)
    # square layout: tx on the left column, rx on the right, equal spacing
    object.__setattr__(topo, "tx_positions", np.array([[0.0, 0.0], [0.0, 30.0]]))
    object.__setattr__(topo, "rx_positions", np.array([[30.0, 0.0], [30.0, 30.0]]))
    diff = topo.tx_positions[:, None, :] - topo.rx_positions[None, :, :]
    object.__setattr__(topo, "distances", np.linalg.norm(diff, axis=2))
    gains = gain_matrix(topo, np.ones((2, 2)), cfg)
    assert gains[0, 1] == gains[1, 0]
    assert gains[0, 0] == gains[1, 1]


def test_gain_matrix_elementwise_oracle():
    cfg = small_cfg()
    streams = rng_streams(77, 0)
    topo = generate_topology(cfg, streams.topology)
    fading = FadingState((cfg.num_pairs, cfg.num_pairs), 16, 0.01, streams.fading)
    amps = fading.advance()
    gains = gain_matrix(topo, amps, cfg, path_loss_amplitudes(topo, cfg))
    for j in range(cfg.num_pairs):
        for i in range(cfg.num_pairs):
            d = float(topo.distances[j, i])
            amplitude = (cfg.path_loss_attenuation * float(amps[j, i])
                         * (cfg.reference_distance / d) ** (cfg.path_loss_exponent / 2.0))
            assert abs(gains[j, i] - amplitude ** 2) <= 1e-12 * amplitude ** 2
    assert np.all(gains > 0) and np.all(np.isfinite(gains))
