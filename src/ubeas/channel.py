"""Random cell geometry and the time-correlated Rayleigh fading channel.

The amplitude gain of a link at distance d is

    g = A_PL * A_SSF * (d0 / d)**(alpha / 2)

where A_PL is the free-space attenuation, A_SSF a unit-mean-square Rayleigh
envelope from a sum-of-sinusoids generator, d0 the reference distance and
alpha the path loss exponent.  Power gains are the squared amplitudes, so
E[G] = A_PL**2 * (d0/d)**alpha over the fading.

The fading is computed in blocks of link rows.  Every link evolves on its
own and its oscillator sum is one reduction over its own oscillators, so a
block computes exactly the bits the whole array would.  numpy releases the
GIL inside its loops, so with more than one block the blocks run on a thread
pool that lives for one call.  Each block draws its own slice of the random
stream, so no whole draw is ever held.
"""

from __future__ import annotations

import copy
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .config import BehaviorClass, ConfigError, GameConfig, assign_behavior_classes


@dataclass(frozen=True)
class CellTopology:
    """Immutable snapshot of one cell layout.

    distances[j, i] is the separation between the transmitter of pair j and
    the receiver of pair i; the diagonal holds each pair's own link length.
    """

    bs_position: np.ndarray
    cellular_position: np.ndarray
    tx_positions: np.ndarray
    rx_positions: np.ndarray
    behaviors: tuple[BehaviorClass, ...]
    distances: np.ndarray


def _uniform_disc(rng: np.random.Generator, radius: float, center: np.ndarray) -> np.ndarray:
    r = radius * math.sqrt(rng.uniform())
    theta = rng.uniform(0.0, 2.0 * math.pi)
    return center + np.array([r * math.cos(theta), r * math.sin(theta)])


def generate_topology(cfg: GameConfig, rng: np.random.Generator) -> CellTopology:
    """Draw one random cell layout of cfg.num_pairs pairs in the config's class
    split, assign_behavior_classes.

    The BS sits at the origin; the cellular user and every pair's transmitter
    are uniform in the cell disc.  Each receiver is uniform in the disc of
    radius max_pair_distance around its transmitter, rejection-sampled to stay
    inside the cell and at least min_link_distance from every transmitter.
    """
    m = cfg.num_pairs
    bs = np.zeros(2)
    cellular = _uniform_disc(rng, cfg.cell_radius, bs)
    tx = np.vstack([_uniform_disc(rng, cfg.cell_radius, bs) for _ in range(m)])

    def draw_rx(i: int) -> np.ndarray:
        for _ in range(10_000):
            candidate = _uniform_disc(rng, cfg.max_pair_distance, tx[i])
            if np.linalg.norm(candidate) > cfg.cell_radius:
                continue
            seps = np.linalg.norm(tx - candidate, axis=1)
            if np.all(seps >= cfg.min_link_distance):
                return candidate
        raise ConfigError(f"no receiver position for pair {i} in 10000 draws: the cell is "
                          f"too crowded for min_link_distance = {cfg.min_link_distance} m")

    rx = np.vstack([draw_rx(i) for i in range(m)])
    # sqrt(dx * dx + dy * dy) in place, over two (M, M) arrays: the bits of
    # np.linalg.norm over the (M, M, 2) differences, without them.
    dx = tx[:, None, 0] - rx[None, :, 0]
    dy = tx[:, None, 1] - rx[None, :, 1]
    dx *= dx
    dy *= dy
    dx += dy
    distances = np.sqrt(dx, out=dx)
    return CellTopology(bs, cellular, tx, rx, tuple(assign_behavior_classes(m)), distances)


def path_loss_amplitudes(topology: CellTopology, cfg: GameConfig) -> np.ndarray:
    """Matrix of deterministic amplitude gains for every tx -> rx link."""
    ratio = cfg.reference_distance / topology.distances
    # In place: the bits of att * ratio ** e, in one (M, M) array.  The
    # in-place power takes the same scalar fast paths (e = 1, 2) as **.
    ratio **= cfg.path_loss_exponent / 2.0
    ratio *= cfg.path_loss_attenuation
    return ratio


# Oscillators per block, 40 bytes each in flight (an 8-byte draw, a 16-byte
# rotation and a 16-byte oscillator).  A whole horizon steps each block
# through every stage while it sits in a core's L2 cache: 2^15 oscillators,
# about 1.2 MiB, so 5 rows (77 blocks) at M=384 with 16 oscillators.  Per
# frame, every advance dispatches every block again, so fewer, larger blocks
# are faster: 2^17, about 5 MiB, 21 rows (19 blocks).  At M=24 either is one
# block.
_WHOLE_BLOCK_OSCILLATORS = 1 << 15
_BLOCK_OSCILLATORS = 1 << 17

# Usable cores: the threads a multi-block state runs its blocks on.
_CORES = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1

# A frame is 8 bytes per link, an oscillator and its rotation 32: up to this
# many frames per oscillator, a horizon's frames take no more memory than
# the oscillators that make them.
_FRAMES_PER_OSCILLATOR = 4


def fading_frames(cfg: GameConfig) -> int:
    """Frames of fading one repetition reads: one on a frozen channel (zero
    Doppler), whose stage-1 gains hold, and one per stage otherwise."""
    return 1 if cfg.doppler == 0.0 else cfg.stages


def fading_bytes(cfg: GameConfig) -> int:
    """Bytes a repetition's FadingState holds for the whole run: its frame
    table, or its oscillators and rotations, whichever is smaller."""
    frames = min(fading_frames(cfg), _FRAMES_PER_OSCILLATOR * cfg.jakes_oscillators)
    return cfg.num_pairs ** 2 * 8 * frames


class FadingState:
    """Sum-of-sinusoids Rayleigh fading, one independent process per link.

    Each link superposes n_osc complex oscillators with uniform random Doppler
    angles and phases, advanced by one symbol period per stage.  The envelope
    has unit mean square; consecutive samples are highly correlated for small
    normalized Doppler (zero Doppler freezes the process).  advance returns
    the amplitudes of the next of the stages frames a caller reads.

    The stream holds all the angles, then all the phases, in link order, as
    two whole draws would.  Each block draws its own slices of them, from
    copies of rng advanced to where the slices start, and rng ends where the
    two whole draws would leave it.  So rng's bit generator must advance by
    one 64-bit draw per uniform double, as PCG64 (rng_streams') does.

    A short horizon (stages <= 4 * n_osc, whose frames take no more memory
    than the oscillators) is computed at construction: each block is drawn,
    stepped through every stage into its rows of a (stages, M, M) frame
    table, and dropped, and advance hands out the frames in turn as read-only
    views.  A longer one keeps every block's oscillators and rotations, and
    each advance steps them and returns a new array.  Each element goes
    through the same operations as on the whole array, so the amplitudes are
    bit for bit those of an unblocked state, serial or threaded.  Besides its
    frames or oscillators, the state holds the temporaries of one block per
    thread in flight.
    """

    def __init__(self, shape: tuple[int, int], n_osc: int, doppler: float,
                 rng: np.random.Generator, stages: int) -> None:
        per_row = shape[1] * n_osc
        whole = stages <= _FRAMES_PER_OSCILLATOR * n_osc
        rows = max(1, (_WHOLE_BLOCK_OSCILLATORS if whole else _BLOCK_OSCILLATORS) // per_row)
        self._blocks = [slice(r, r + rows) for r in range(0, shape[0], rows)]
        # One thread per usable core, except in a multiprocessing child, whose
        # sibling workers already fill the cores.  Looked up, not imported: a
        # process that never loaded multiprocessing is no child of it.
        mp = sys.modules.get("multiprocessing")
        self._threads = 1 if mp is not None and mp.parent_process() is not None else _CORES
        self._stages, self._read = stages, 0
        self._norm = 1.0 / math.sqrt(n_osc)
        turn = 2.0 * math.pi * doppler
        angles = shape[0] * per_row   # the phases follow this many angles
        if whole:
            self._frames = np.empty((stages,) + shape)
            self._osc = self._rot = None
        else:
            self._frames = None
            self._osc = np.empty(shape + (n_osc,), dtype=complex)
            self._rot = np.empty(shape + (n_osc,), dtype=complex)

        def draw(b: slice, skip: int) -> np.ndarray:
            bits = copy.deepcopy(rng.bit_generator)
            bits.advance(skip + b.start * per_row)
            size = (min(b.stop, shape[0]) - b.start, shape[1], n_osc)
            return np.random.Generator(bits).uniform(0.0, 2.0 * math.pi, size)

        # exp(1j * (turn * cos(angle))) and exp(1j * phase), each step written
        # over its input: the same ufuncs on the same operands as on the whole
        # array.  Per frame, the results go straight into the state.
        def fill(b: slice) -> None:
            turned = draw(b, 0)
            np.multiply(turn, np.cos(turned, out=turned), out=turned)
            rot = np.multiply(1j, turned, out=None if whole else self._rot[b])
            del turned   # the angles go before the phases are drawn
            np.exp(rot, out=rot)
            osc = np.multiply(1j, draw(b, angles), out=None if whole else self._osc[b])
            np.exp(osc, out=osc)
            if whole:
                for frame in self._frames:
                    self._step(osc, rot, frame[b])

        self._run(fill)
        rng.bit_generator.advance(2 * angles)
        if whole:
            self._frames.flags.writeable = False

    def _run(self, block_fn) -> None:
        """Call block_fn on every block, on a short-lived thread pool if there are several."""
        threads = min(self._threads, len(self._blocks))
        if threads == 1:
            for b in self._blocks:
                block_fn(b)
            return
        from concurrent.futures import ThreadPoolExecutor   # here: one block never needs it
        with ThreadPoolExecutor(max_workers=threads) as pool:
            for _ in pool.map(block_fn, self._blocks):
                pass

    def _step(self, osc: np.ndarray, rot: np.ndarray, out: np.ndarray) -> None:
        """Turn the oscillators of some links by one stage and write their amplitudes to out."""
        osc *= rot
        np.multiply(np.abs(osc.sum(axis=-1)), self._norm, out=out)

    def advance(self) -> np.ndarray:
        """The envelope amplitudes of the next stage: a read-only view of the
        frame table on a short horizon, a new array otherwise."""
        if self._read == self._stages:
            raise RuntimeError(f"fading state built for {self._stages} stages "
                               f"was advanced past them")
        self._read += 1
        if self._frames is not None:
            return self._frames[self._read - 1]
        amplitudes = np.empty(self._osc.shape[:2])
        self._run(lambda b: self._step(self._osc[b], self._rot[b], amplitudes[b]))
        return amplitudes


def gain_matrix(pl_amplitudes: np.ndarray, amplitudes: np.ndarray,
                out: np.ndarray | None = None) -> np.ndarray:
    """Per-stage linear power gains G[j, i] = (A_PL * A_SSF * (d0/d)**(alpha/2))**2,
    written into out if given."""
    if amplitudes.shape != pl_amplitudes.shape:
        raise ValueError(
            f"fading shape {amplitudes.shape} does not match topology {pl_amplitudes.shape}"
        )
    product = np.multiply(pl_amplitudes, amplitudes, out=out)
    return np.square(product, out=product)
