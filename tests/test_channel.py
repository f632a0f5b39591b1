import concurrent.futures
import dataclasses
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


@pytest.mark.parametrize("alpha", [2.0, 3.0, 3.5, 4.0])
def test_in_place_path_loss_is_the_bits_of_the_expression(alpha):
    # ** has scalar fast paths for the exponents 1 and 2 (alpha 2 and 4)
    cfg = dataclasses.replace(GameConfig(num_pairs=24), path_loss_exponent=alpha)
    topo = generate_topology(cfg, rng_streams(5, 0).topology)
    distances = topo.distances.copy()
    got = path_loss_amplitudes(topo, cfg)
    want = cfg.path_loss_attenuation * (cfg.reference_distance / distances) ** (alpha / 2.0)
    assert got.tobytes() == want.tobytes()
    assert topo.distances.tobytes() == distances.tobytes()


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


@pytest.mark.parametrize("m", [6, 384])
def test_topology_distances_are_the_bits_of_the_norm(m):
    topo = generate_topology(small_cfg(num_pairs=m), rng_streams(9, 0).topology)
    want = np.linalg.norm(topo.tx_positions[:, None] - topo.rx_positions[None], axis=2)
    assert topo.distances.tobytes() == want.tobytes()


def test_topology_takes_distances_without_an_m_by_m_by_2_temporary():
    # The (M, M) distances and at most one (M, M) temporary beside them; any
    # (M, M, 2) array of differences would reach three.
    m = 384
    cfg = small_cfg(num_pairs=m)
    tracemalloc.start()
    try:
        generate_topology(cfg, rng_streams(9, 0).topology)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * 8 * m * m


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
    fading = FadingState((4, 4), 16, 0.0, rng, 6)
    first = fading.advance()
    for _ in range(5):
        assert np.allclose(fading.advance(), first, rtol=0, atol=1e-12)


def test_fading_unit_mean_square():
    rng = rng_streams(11, 0).fading
    fading = FadingState((100, 100), 16, 0.01, rng, 10)
    samples = np.concatenate([fading.advance().ravel() for _ in range(10)])
    assert samples.size == 100_000
    assert abs(np.mean(samples ** 2) - 1.0) < 0.02


def test_fading_slow_envelope_correlation():
    rng = rng_streams(12, 0).fading
    fading = FadingState((60, 60), 16, 0.01, rng, 100)
    frames = [fading.advance() for _ in range(100)]
    # 100 > 4 * 16: per frame, and each advance returns its own array, which
    # the next does not overwrite
    assert fading._frames is None
    assert len({f.tobytes() for f in frames}) == 100
    frames = np.stack(frames)
    a = frames[:-1].ravel()
    b = frames[1:].ravel()
    corr = np.corrcoef(a, b)[0, 1]
    # J0(2 pi 0.01) is about 0.999 for this normalized Doppler
    assert corr >= 0.99


def test_fading_reproducible_for_fixed_seed():
    f1 = FadingState((3, 3), 16, 0.01, rng_streams(9, 1).fading, 4)
    f2 = FadingState((3, 3), 16, 0.01, rng_streams(9, 1).fading, 4)
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
    cfg = GameConfig(num_pairs=3)
    topo = generate_topology(cfg, rng_streams(1, 0).topology)
    # tx on the left column, rx on the right, equal spacing: the separation of
    # tx j and rx i depends on |i - j| alone
    tx = np.array([[0.0, 0.0], [0.0, 30.0], [0.0, 60.0]])
    rx = tx + [30.0, 0.0]
    topo = dataclasses.replace(topo, tx_positions=tx, rx_positions=rx,
                               distances=np.linalg.norm(tx[:, None, :] - rx[None, :, :], axis=2))
    gains = gain_matrix(path_loss_amplitudes(topo, cfg), np.ones((3, 3)))
    assert (gains == gains.T).all()
    assert (np.diagonal(gains) == gains[0, 0]).all()


def test_gain_matrix_elementwise_oracle():
    cfg = small_cfg()
    streams = rng_streams(77, 0)
    topo = generate_topology(cfg, streams.topology)
    fading = FadingState((cfg.num_pairs, cfg.num_pairs), 16, 0.01, streams.fading, 1)
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


def blocked_amplitudes(monkeypatch, threads, shape, n_osc, doppler, stages, advances, rng):
    """Amplitudes of a FadingState in 3-row blocks, whole horizon or per frame, run
    on as many threads as cores; also the number of thread pools it started."""
    monkeypatch.setattr(channel, "_WHOLE_BLOCK_OSCILLATORS", 3 * shape[1] * n_osc)
    monkeypatch.setattr(channel, "_BLOCK_OSCILLATORS", 3 * shape[1] * n_osc)
    monkeypatch.setattr(channel, "_CORES", threads)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", CountingThreadPool)
    CountingThreadPool.started = 0
    fading = FadingState(shape, n_osc, doppler, rng, stages)
    assert [(b.start, b.stop) for b in fading._blocks] == [(0, 3), (3, 6), (6, 9), (9, 12)]
    assert (fading._frames is not None) == (stages <= 4 * n_osc)
    frames = [fading.advance() for _ in range(advances)]
    return frames, CountingThreadPool.started


@pytest.mark.parametrize("n_osc", [16, 5])
@pytest.mark.parametrize("doppler", [0.01, 0.0])
def test_blocked_fading_equals_the_whole_array_bit_for_bit(monkeypatch, doppler, n_osc):
    # 11 rows in blocks of 3: four blocks, the last one of 2 rows.  The
    # horizons lie on both sides of the frame table's rule, stages <= 4 * n_osc.
    shape = (11, 7)
    for stages in (6, 4 * n_osc, 4 * n_osc + 1):
        want_rng = rng_streams(21, 2).fading
        reference = whole_array_amplitudes(shape, n_osc, doppler, want_rng, stages)
        next_double = want_rng.random()
        for threads in (1, 3):
            rng = rng_streams(21, 2).fading
            frames, _ = blocked_amplitudes(monkeypatch, threads, shape, n_osc, doppler, stages,
                                           stages, rng)
            for got, want in zip(frames, reference, strict=True):
                assert got.shape == shape
                assert got.tobytes() == want.tobytes()
            # rng ends where the two whole draws leave it
            assert rng.random() == next_double


@pytest.mark.parametrize("stages", [5, 65])
def test_advance_past_the_horizon_raises(stages):
    fading = FadingState((4, 4), 16, 0.01, rng_streams(8, 0).fading, stages)
    for _ in range(stages):
        fading.advance()
    with pytest.raises(RuntimeError, match=f"built for {stages} stages"):
        fading.advance()


def test_whole_horizon_frames_are_read_only_views_of_one_table():
    fading = FadingState((4, 4), 16, 0.01, rng_streams(8, 0).fading, 3)
    frames = [fading.advance() for _ in range(3)]
    assert all(f.base is fading._frames for f in frames)
    assert not any(f.flags.writeable for f in frames)


@pytest.mark.parametrize("doppler", [0.01, 0.0])
def test_threaded_blocks_equal_serial_blocks_and_leave_no_thread(monkeypatch, doppler):
    shape = (11, 7)
    # A whole horizon is stepped in its one pass at construction, so advance
    # starts no pool; per frame, each of the 5 advances starts one.
    for stages, pools in ((5, 1), (65, 1 + 5)):
        serial, serial_pools = blocked_amplitudes(monkeypatch, 1, shape, 16, doppler, stages, 5,
                                                  rng_streams(21, 2).fading)
        # three threads, switching as often as the interpreter allows
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded, threaded_pools = blocked_amplitudes(monkeypatch, 3, shape, 16, doppler,
                                                          stages, 5, rng_streams(21, 2).fading)
        finally:
            sys.setswitchinterval(interval)
        assert serial_pools == 0
        assert threaded_pools == pools, stages
        assert [f.tobytes() for f in threaded] == [f.tobytes() for f in serial]
        # every pool has joined its threads by the time the call returns
        assert not [t for t in threading.enumerate() if t.name.startswith("ThreadPoolExecutor-")]


def test_one_block_starts_no_thread_pool(monkeypatch):
    monkeypatch.setattr(channel, "_CORES", 4)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", CountingThreadPool)
    CountingThreadPool.started = 0
    for stages in (3, 100):
        fading = FadingState((24, 24), 16, 0.01, rng_streams(3, 0).fading, stages)
        fading.advance()
        assert len(fading._blocks) == 1
    assert CountingThreadPool.started == 0


@pytest.mark.parametrize("method", ["fork", "spawn"])
def test_a_pool_worker_runs_its_blocks_serially(method):
    # The workers fill the cores; the parent has one thread per core, before and after a pool.
    args = ((3, 3), 2, 0.0, rng_streams(5, 0).fading, 1)
    assert channel._CORES == len(os.sched_getaffinity(0))
    assert FadingState(*args)._threads == channel._CORES
    context = multiprocessing.get_context(method)
    with concurrent.futures.ProcessPoolExecutor(2, mp_context=context) as pool:
        assert pool.submit(FadingState, *args).result(timeout=120)._threads == 1
    assert FadingState(*args)._threads == channel._CORES


def test_fading_bytes_is_the_smaller_of_the_frames_and_the_oscillators():
    cfg = GameConfig(num_pairs=384, stages=14, repetitions=1)
    assert channel.fading_bytes(cfg) == 384 ** 2 * 8 * 14
    assert channel.fading_bytes(dataclasses.replace(cfg, stages=100)) == 384 ** 2 * 16 * 32
    # a frozen channel reads one frame, however long the horizon
    frozen = dataclasses.replace(cfg, stages=600, doppler=0.0)
    assert channel.fading_frames(frozen) == 1
    assert channel.fading_bytes(frozen) == 384 ** 2 * 8


def traced_init(shape, n_osc, stages, rng):
    tracemalloc.start()
    try:
        fading = FadingState(shape, n_osc, 0.01, rng, stages)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return fading, peak


@pytest.mark.parametrize("threads", [1, 2])
def test_fading_init_holds_the_state_and_its_blocks_in_flight_never_a_whole_draw(monkeypatch,
                                                                                   threads):
    shape, n_osc = (192, 192), 16
    links, oscillators = shape[0] * shape[1], shape[0] * shape[1] * n_osc
    monkeypatch.setattr(channel, "_CORES", threads)
    # Each thread may hold numpy's casting buffer of complex elements, and the
    # interpreter a few objects.
    slack = threads * np.getbufsize() * 16 + (64 << 10)

    # A whole horizon: the frame table, plus per thread one block in flight
    # with its rotations and oscillators (16 bytes each per oscillator) and
    # the 8-byte draw it is making one of them from.  Its blocks are of 2^15
    # oscillators, 10 of these rows.
    rng = rng_streams(31, 4).fading
    fading, peak = traced_init(shape, n_osc, 14, rng)
    assert fading._frames is not None and fading._osc is None
    assert fading._blocks[0] == slice(0, 10) and len(fading._blocks) == 20
    assert fading._threads == threads
    block = fading._blocks[0].stop * shape[1] * n_osc
    assert block <= channel._WHOLE_BLOCK_OSCILLATORS == 1 << 15
    assert peak < 8 * 14 * links + threads * 40 * block + slack
    assert peak < 32 * oscillators
    # The draws took the stream's first 2 * oscillators doubles, as whole draws would.
    reference = rng_streams(31, 4).fading
    reference.uniform(0.0, 2.0 * math.pi, size=shape + (n_osc,))
    reference.uniform(0.0, 2.0 * math.pi, size=shape + (n_osc,))
    assert rng.random() == reference.random()

    # Per frame: the oscillators and rotations, plus one block's draw per
    # thread.  Its blocks are of 2^17 oscillators, 42 of these rows.
    fading, peak = traced_init(shape, n_osc, 65, rng_streams(31, 4).fading)
    assert fading._frames is None
    assert fading._blocks[0] == slice(0, 42) and len(fading._blocks) == 5
    block = fading._blocks[0].stop * shape[1] * n_osc
    assert block <= channel._BLOCK_OSCILLATORS == 1 << 17
    assert peak < 32 * oscillators + threads * 8 * block + slack
    assert peak < 32 * oscillators + 8 * oscillators
