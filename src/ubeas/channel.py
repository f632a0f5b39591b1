"""Random cell geometry and the time-correlated Rayleigh fading channel.

The amplitude gain of a link at distance d is

    g = A_PL * A_SSF * (d0 / d)**(alpha / 2)

where A_PL is the free-space attenuation, A_SSF a unit-mean-square Rayleigh
envelope from a sum-of-sinusoids generator, d0 the reference distance and
alpha the path loss exponent.  Power gains are the squared amplitudes, so
E[G] = A_PL**2 * (d0/d)**alpha over the fading.
"""

from __future__ import annotations

import math
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


class FadingState:
    """Sum-of-sinusoids Rayleigh fading, one independent process per link.

    Each link superposes n_osc complex oscillators with uniform random Doppler
    angles and phases, advanced by one symbol period per stage.  The envelope
    has unit mean square; consecutive samples are highly correlated for small
    normalized Doppler (zero Doppler freezes the process).
    """

    def __init__(self, shape: tuple[int, int], n_osc: int, doppler: float,
                 rng: np.random.Generator) -> None:
        angles = rng.uniform(0.0, 2.0 * math.pi, size=shape + (n_osc,))
        phases = rng.uniform(0.0, 2.0 * math.pi, size=shape + (n_osc,))
        self._osc = np.exp(1j * phases)
        self._rot = np.exp(1j * (2.0 * math.pi * doppler * np.cos(angles)))
        self._norm = 1.0 / math.sqrt(n_osc)

    def advance(self) -> np.ndarray:
        """Step every link by one stage and return the new envelope amplitudes."""
        self._osc *= self._rot
        return np.abs(self._osc.sum(axis=-1)) * self._norm


def gain_matrix(pl_amplitudes: np.ndarray, amplitudes: np.ndarray) -> np.ndarray:
    """Per-stage linear power gains G[j, i] = (A_PL * A_SSF * (d0/d)**(alpha/2))**2."""
    if amplitudes.shape != pl_amplitudes.shape:
        raise ValueError(
            f"fading shape {amplitudes.shape} does not match topology {pl_amplitudes.shape}"
        )
    return (pl_amplitudes * amplitudes) ** 2
