import concurrent.futures
import math
import multiprocessing
import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from ubeas import channel
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
    gains = gain_matrix(path_loss_amplitudes(topo, cfg), ones)
    expected = (cfg.path_loss_attenuation
                * (cfg.reference_distance / topo.distances) ** (cfg.path_loss_exponent / 2.0)) ** 2
    assert np.allclose(gains, expected, rtol=1e-15)


def test_gain_matrix_symmetric_layout():
    cfg = GameConfig()
    topo = generate_topology(cfg, rng_streams(1, 0).topology, [BehaviorClass.CASUAL] * 2)
    # square layout: tx on the left column, rx on the right, equal spacing
    object.__setattr__(topo, "tx_positions", np.array([[0.0, 0.0], [0.0, 30.0]]))
    object.__setattr__(topo, "rx_positions", np.array([[30.0, 0.0], [30.0, 30.0]]))
    diff = topo.tx_positions[:, None, :] - topo.rx_positions[None, :, :]
    object.__setattr__(topo, "distances", np.linalg.norm(diff, axis=2))
    gains = gain_matrix(path_loss_amplitudes(topo, cfg), np.ones((2, 2)))
    assert gains[0, 1] == gains[1, 0]
    assert gains[0, 0] == gains[1, 1]


def test_gain_matrix_elementwise_oracle():
    cfg = small_cfg()
    streams = rng_streams(77, 0)
    topo = generate_topology(cfg, streams.topology)
    fading = FadingState((cfg.num_pairs, cfg.num_pairs), 16, 0.01, streams.fading)
    amps = fading.advance()
    gains = gain_matrix(path_loss_amplitudes(topo, cfg), amps)
    for j in range(cfg.num_pairs):
        for i in range(cfg.num_pairs):
            d = float(topo.distances[j, i])
            amplitude = (cfg.path_loss_attenuation * float(amps[j, i])
                         * (cfg.reference_distance / d) ** (cfg.path_loss_exponent / 2.0))
            assert abs(gains[j, i] - amplitude ** 2) <= 1e-12 * amplitude ** 2
    assert np.all(gains > 0) and np.all(np.isfinite(gains))


def whole_array_amplitudes(shape, n_osc, doppler, rng, advances):
    """The unblocked fading state: both draws, then one array operation per step."""
    angles = rng.uniform(0.0, 2.0 * math.pi, size=shape + (n_osc,))
    phases = rng.uniform(0.0, 2.0 * math.pi, size=shape + (n_osc,))
    osc = np.exp(1j * phases)
    rot = np.exp(1j * (2.0 * math.pi * doppler * np.cos(angles)))
    frames = []
    for _ in range(advances):
        osc *= rot
        frames.append(np.abs(osc.sum(axis=-1)) * (1.0 / math.sqrt(n_osc)))
    return frames


class CountingThreadPool(concurrent.futures.ThreadPoolExecutor):
    started = 0

    def __init__(self, *args, **kwargs):
        CountingThreadPool.started += 1
        super().__init__(*args, **kwargs)


def blocked_amplitudes(monkeypatch, threads, shape, n_osc, doppler, advances):
    """Amplitudes of a FadingState in 3-row blocks run on as many threads as cores;
    also the number of thread pools it started."""
    monkeypatch.setattr(channel, "_BLOCK_OSCILLATORS", 3 * shape[1] * n_osc)
    monkeypatch.setattr(channel, "_CORES", threads)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", CountingThreadPool)
    CountingThreadPool.started = 0
    fading = FadingState(shape, n_osc, doppler, rng_streams(21, 2).fading)
    assert [(b.start, b.stop) for b in fading._blocks] == [(0, 3), (3, 6), (6, 9), (9, 12)]
    frames = [fading.advance() for _ in range(advances)]
    return frames, CountingThreadPool.started


@pytest.mark.parametrize("n_osc", [16, 5])
@pytest.mark.parametrize("doppler", [0.01, 0.0])
def test_blocked_fading_equals_the_whole_array_bit_for_bit(monkeypatch, doppler, n_osc):
    # 11 rows in blocks of 3: four blocks, the last one of 2 rows
    shape = (11, 7)
    reference = whole_array_amplitudes(shape, n_osc, doppler, rng_streams(21, 2).fading, 6)
    for threads in (1, 3):
        frames, _ = blocked_amplitudes(monkeypatch, threads, shape, n_osc, doppler, 6)
        for got, want in zip(frames, reference, strict=True):
            assert got.shape == shape
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("doppler", [0.01, 0.0])
def test_threaded_blocks_equal_serial_blocks_and_leave_no_thread(monkeypatch, doppler):
    shape = (11, 7)
    serial, serial_pools = blocked_amplitudes(monkeypatch, 1, shape, 16, doppler, 5)
    # three threads, switching as often as the interpreter allows
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded, threaded_pools = blocked_amplitudes(monkeypatch, 3, shape, 16, doppler, 5)
    finally:
        sys.setswitchinterval(interval)
    assert serial_pools == 0
    assert threaded_pools == 2 + 5   # two fills in __init__, one per advance
    assert [f.tobytes() for f in threaded] == [f.tobytes() for f in serial]
    # every pool has joined its threads by the time the call returns
    assert not [t for t in threading.enumerate() if t.name.startswith("ThreadPoolExecutor-")]


def test_one_block_starts_no_thread_pool(monkeypatch):
    monkeypatch.setattr(channel, "_CORES", 4)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", CountingThreadPool)
    CountingThreadPool.started = 0
    fading = FadingState((24, 24), 16, 0.01, rng_streams(3, 0).fading)
    fading.advance()
    assert len(fading._blocks) == 1
    assert CountingThreadPool.started == 0


@pytest.mark.parametrize("method", ["fork", "spawn"])
def test_a_pool_worker_runs_its_blocks_serially(method):
    # The workers fill the cores; the parent has one thread per core, before and after a pool.
    args = ((3, 3), 2, 0.0, rng_streams(5, 0).fading)
    assert channel._CORES == len(os.sched_getaffinity(0))
    assert FadingState(*args)._threads == channel._CORES
    context = multiprocessing.get_context(method)
    with concurrent.futures.ProcessPoolExecutor(2, mp_context=context) as pool:
        assert pool.submit(FadingState, *args).result(timeout=120)._threads == 1
    assert FadingState(*args)._threads == channel._CORES


@pytest.mark.parametrize("threads", [1, 2])
def test_fading_init_holds_the_state_and_its_blocks_in_flight_never_a_whole_draw(monkeypatch,
                                                                                   threads):
    shape, n_osc = (192, 192), 16
    monkeypatch.setattr(channel, "_CORES", threads)
    rng = rng_streams(31, 4).fading
    tracemalloc.start()
    try:
        fading = FadingState(shape, n_osc, 0.01, rng)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    oscillators = shape[0] * shape[1] * n_osc
    state = 32 * oscillators
    whole_draw = 8 * oscillators
    block_draw = 8 * fading._rot[fading._blocks[0]].size
    assert len(fading._blocks) == 5 and fading._threads == threads
    # Serially one block is drawn at a time; threaded, one per thread is in
    # flight and the next is being drawn.  Each thread may also hold numpy's
    # casting buffer of complex elements, and the interpreter a few objects.
    in_flight = block_draw * (1 if threads == 1 else threads + 1)
    slack = threads * np.getbufsize() * 16 + (64 << 10)
    assert peak < state + in_flight + slack
    assert peak < state + whole_draw
    # Both draws took the stream's first 2 * oscillators doubles, as whole draws would.
    reference = rng_streams(31, 4).fading
    reference.uniform(0.0, 2.0 * math.pi, size=shape + (n_osc,))
    reference.uniform(0.0, 2.0 * math.pi, size=shape + (n_osc,))
    assert rng.random() == reference.random()
