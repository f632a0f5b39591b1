"""Random cell geometry and the time-correlated Rayleigh fading channel.

The amplitude gain of a link at distance d is

    g = A_PL * A_SSF * (d0 / d)**(alpha / 2)

where A_PL is the free-space attenuation, A_SSF a unit-mean-square Rayleigh
envelope from a sum-of-sinusoids generator, d0 the reference distance and
alpha the path loss exponent.  Power gains are the squared amplitudes, so
E[G] = A_PL**2 * (d0/d)**alpha over the fading.

The fading state is built and advanced in blocks of link rows.  Every link
evolves on its own and its oscillator sum is one reduction over its own
oscillators, so a block computes exactly the bits the whole array would.
numpy releases the GIL inside its loops, so with more than one block the
blocks run on a thread pool that lives for one call.  The random draws are
made block by block too, so the state is never held beside a whole draw.
"""

from __future__ import annotations

import math
import os
import sys
from collections import deque
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

    @property
    def num_pairs(self) -> int:
        return len(self.behaviors)


def _uniform_disc(rng: np.random.Generator, radius: float, center: np.ndarray) -> np.ndarray:
    r = radius * math.sqrt(rng.uniform())
    theta = rng.uniform(0.0, 2.0 * math.pi)
    return center + np.array([r * math.cos(theta), r * math.sin(theta)])


def generate_topology(cfg: GameConfig, rng: np.random.Generator,
                      behaviors: list[BehaviorClass] | None = None) -> CellTopology:
    """Draw one random cell layout.

    The BS sits at the origin; the cellular user and every pair's transmitter
    are uniform in the cell disc.  Each receiver is uniform in the disc of
    radius max_pair_distance around its transmitter, rejection-sampled to stay
    inside the cell and at least min_link_distance from every transmitter.
    """
    if behaviors is None:
        behaviors = assign_behavior_classes(cfg.num_pairs)
    m = len(behaviors)
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
    diff = tx[:, None, :] - rx[None, :, :]
    distances = np.linalg.norm(diff, axis=2)
    return CellTopology(bs, cellular, tx, rx, tuple(behaviors), distances)


def path_loss_amplitudes(topology: CellTopology, cfg: GameConfig) -> np.ndarray:
    """Matrix of deterministic amplitude gains for every tx -> rx link."""
    ratio = cfg.reference_distance / topology.distances
    return cfg.path_loss_attenuation * ratio ** (cfg.path_loss_exponent / 2.0)


# Oscillators per block: a few MiB of temporaries per block.  At M=384 with
# 16 oscillators that is 21 rows (19 blocks); at M=24 it is one block.
_BLOCK_OSCILLATORS = 1 << 17

# Usable cores: the threads a multi-block state runs its blocks on.
_CORES = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


class FadingState:
    """Sum-of-sinusoids Rayleigh fading, one independent process per link.

    Each link superposes n_osc complex oscillators with uniform random Doppler
    angles and phases, advanced by one symbol period per stage.  The envelope
    has unit mean square; consecutive samples are highly correlated for small
    normalized Doppler (zero Doppler freezes the process).

    The angles, and then the phases, are drawn block by block in block
    order, each block taking the next slice of the stream, so the fading
    stream does not depend on the blocking: chunked uniform draws return the
    doubles of one whole draw.  Each block's rotations and oscillators are
    filled from its own draw, and advance steps and sums each block into its
    rows of the result.  Each element goes through the same operations as on
    the whole array, so the amplitudes are bit for bit those of an unblocked
    state, serial or threaded.  Besides the state, the fill holds a block's
    draw for each block in flight, at most one per thread, plus the one
    being drawn: never a whole draw.
    """

    def __init__(self, shape: tuple[int, int], n_osc: int, doppler: float,
                 rng: np.random.Generator) -> None:
        rows = max(1, _BLOCK_OSCILLATORS // (shape[1] * n_osc))
        self._blocks = [slice(r, r + rows) for r in range(0, shape[0], rows)]
        # One thread per usable core, except in a multiprocessing child, whose
        # sibling workers already fill the cores.  Looked up, not imported: a
        # process that never loaded multiprocessing is no child of it.
        mp = sys.modules.get("multiprocessing")
        self._threads = 1 if mp is not None and mp.parent_process() is not None else _CORES
        self._osc = np.empty(shape + (n_osc,), dtype=complex)
        self._rot = np.empty(shape + (n_osc,), dtype=complex)
        self._norm = 1.0 / math.sqrt(n_osc)
        turn = 2.0 * math.pi * doppler

        # exp(1j * (turn * cos(angle))) and exp(1j * phase), each step written
        # over its input or into the state: the same ufuncs on the same
        # operands, without a temporary.
        def rotations(b: slice, angles: np.ndarray) -> None:
            np.multiply(turn, np.cos(angles, out=angles), out=angles)
            np.exp(np.multiply(1j, angles, out=self._rot[b]), out=self._rot[b])

        def oscillators(b: slice, phases: np.ndarray) -> None:
            np.exp(np.multiply(1j, phases, out=self._osc[b]), out=self._osc[b])

        self._fill(rotations, rng)
        self._fill(oscillators, rng)

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

    def _fill(self, block_fn, rng: np.random.Generator) -> None:
        """Call block_fn(b, draw) on every block b, draw being the block's slice
        of the next uniform [0, 2*pi) draw from rng.  The draws are made on
        this thread in block order; on a thread pool the next block is drawn
        while at most one block per thread is in flight, so a fill holds at
        most threads + 1 draws."""
        def draw(b: slice) -> np.ndarray:
            return rng.uniform(0.0, 2.0 * math.pi, size=self._osc[b].shape)

        threads = min(self._threads, len(self._blocks))
        if threads == 1:
            for b in self._blocks:
                block_fn(b, draw(b))
            return
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=threads) as pool:
            in_flight = deque()
            for b in self._blocks:
                drawn = draw(b)
                if len(in_flight) == threads:
                    in_flight.popleft().result()
                in_flight.append(pool.submit(block_fn, b, drawn))
            for future in in_flight:
                future.result()

    def advance(self) -> np.ndarray:
        """Step every link by one stage and return the new envelope amplitudes."""
        amplitudes = np.empty(self._osc.shape[:2])

        def step(b: slice) -> None:
            osc = self._osc[b]
            osc *= self._rot[b]
            np.multiply(np.abs(osc.sum(axis=-1)), self._norm, out=amplitudes[b])

        self._run(step)
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
