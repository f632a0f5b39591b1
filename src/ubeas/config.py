"""Units, scenario constants, configuration parsing and seeded RNG stream derivation.

Everything here is a pure value type or a pure function, so instances are safe
to share read-only across threads and processes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum
from typing import NamedTuple

import numpy as np

from . import link


class ConfigError(ValueError):
    """A configuration value violates a documented constraint."""


# ---------------------------------------------------------------------------
# Power units.  Canonical unit is watts: the price term ln(y - p/z) with the
# default y=2.001, z=0.6 is only positive over the 0-23 dBm range when p is
# expressed in watts (0.001-0.1995 W).
# ---------------------------------------------------------------------------

def dbm_to_watts(p_dbm: float) -> float:
    """Convert a power in dBm to watts (0 dBm = 1 mW)."""
    return 10.0 ** (p_dbm / 10.0) * 1e-3


def watts_to_dbm(p_watts: float) -> float:
    """Convert a power in watts to dBm."""
    if p_watts <= 0.0:
        raise ValueError(f"power must be positive to express in dBm, got {p_watts}")
    return 10.0 * math.log10(p_watts * 1e3)


# ---------------------------------------------------------------------------
# Behavior classes.
# ---------------------------------------------------------------------------

class BehaviorClass(Enum):
    CASUAL = "casual"
    INTERMEDIATE = "intermediate"
    SERIOUS = "serious"

    @property
    def label(self) -> str:
        return self.value


CLASS_ORDER = (BehaviorClass.CASUAL, BehaviorClass.INTERMEDIATE, BehaviorClass.SERIOUS)

# Minimum target PDR per class.  Without priority every class shares the base
# target; with priority the classes are ordered casual < intermediate < serious.
TARGET_PDR_BASE = 0.90
TARGET_PDR_PRIORITY = {
    BehaviorClass.CASUAL: 0.90,
    BehaviorClass.INTERMEDIATE: 0.94,
    BehaviorClass.SERIOUS: 0.98,
}


def behavior_target_pdr(behavior: BehaviorClass, priority_mode: bool) -> float:
    """Minimum target PDR for one behavior class under the given priority mode."""
    if priority_mode:
        return TARGET_PDR_PRIORITY[behavior]
    return TARGET_PDR_BASE


def assign_behavior_classes(m_pairs: int) -> list[BehaviorClass]:
    """Deterministic round-robin class assignment: pair i gets class i mod 3.

    Requires m_pairs divisible by 3 so every class holds exactly m_pairs/3
    transmitters.
    """
    _check_even_split(m_pairs)
    return [CLASS_ORDER[i % 3] for i in range(m_pairs)]


def _check_even_split(m_pairs: int) -> None:
    if m_pairs <= 0 or m_pairs % 3 != 0:
        raise ConfigError(
            f"pair count must be a positive multiple of 3 for an even class split, got {m_pairs}"
        )


# ---------------------------------------------------------------------------
# Game configuration.
# ---------------------------------------------------------------------------

# The values a field of each declared type takes (a bool, though an int, is no number).
_FIELD_TYPES = {"float": (int, float, np.integer, np.floating), "int": (int, np.integer),
                "bool": bool, "str": str}


@dataclass(frozen=True, slots=True)
class GameConfig:
    """All scenario constants for one simulated cell.

    Defaults reproduce the reference scenario: a 500 m cell with 24 D2D pairs,
    16-QAM with rate-1/3 turbo coding, 0-23 dBm transmit range, and the
    leader/follower utility constants used throughout.
    """

    # Cell geometry
    cell_radius: float = 500.0            # m
    max_pair_distance: float = 50.0       # m, tx-rx separation within a pair
    min_link_distance: float = 1.0        # m, floor for any tx->rx distance
    num_pairs: int = 24                   # D2D pairs per cell

    # Channel model
    reference_distance: float = 20.0      # m (d0)
    path_loss_exponent: float = 4.0       # alpha
    path_loss_attenuation: float = 10.0 ** -3.22   # A_PL, linear amplitude
    doppler: float = 0.01                 # normalized Doppler spread f_D * T_s
    jakes_oscillators: int = 16           # sum-of-sinusoids fidelity per link
    noise_power: float = dbm_to_watts(-99.21)      # N_0,d in watts

    # Transmit powers (watts)
    p_min: float = dbm_to_watts(0.0)
    p_max: float = dbm_to_watts(23.0)

    # Run lengths
    stages: int = 100                     # T
    repetitions: int = 100                # desk-scale default; reference runs use 1000

    # Leader utility
    kappa_c: float = 4.0
    x_init: float = 0.001
    x_floor: float = 0.001

    # Satisfaction price D(x, p) = (delta/ln(q-x)) / ln(y - p/z)
    delta: float = 1.8
    q: float = 3.0
    y: float = 2.001
    z: float = 0.6

    # Follower utility constants
    s: float = 0.05                       # intermediate: power weight
    c: float = 1.0                        # intermediate: SINR-error weight
    w: float = 2.0                        # serious: power exponent
    v: float = 4.0                        # serious: PDR exponent
    h_i: float = 1.0                      # serious: PDR weight, any positive value

    # Link model
    modulation: str = "16qam"
    priority_mode: bool = False

    # Reproducibility and solver control
    seed: int = 7
    br_tolerance: float = 1e-9            # watts, best-response bisection width
    npc_rerandomize: bool = True          # baseline redraws its planning powers each stage

    def __post_init__(self) -> None:
        # A numpy number is held as a Python int or float: under numpy's scalar
        # rules a float32 p_max makes every bisection midpoint float32, too
        # coarse ever to narrow to br_tolerance.
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, (np.integer, np.floating)) and isinstance(value, _FIELD_TYPES[f.type]):
                object.__setattr__(self, f.name, float(value) if f.type == "float" else int(value))
        self.validate()

    @property
    def modulation_params(self) -> "link.ModulationParams":
        return link.MODULATIONS[self.modulation]

    def validate(self) -> None:
        """Raise ConfigError naming the first violated invariant.

        Each field is first checked by its declared type (a bool is no number):
        a float must be finite and above 0, an int at least 1.  doppler may be
        0 (a frozen channel) and seed may be 0.
        """
        for f in fields(self):
            value = getattr(self, f.name)
            if not isinstance(value, _FIELD_TYPES[f.type]) or (
                    isinstance(value, bool) and f.type != "bool"):
                raise ConfigError(f"{f.name} must be of type {f.type}, got {value!r}")
            zero_ok = f.name in ("doppler", "seed")
            if f.type == "float" and not (_is_finite(value)
                                          and (value >= 0.0 if zero_ok else value > 0.0)):
                bound = ">= 0" if zero_ok else "> 0"
                raise ConfigError(f"{f.name} must be a finite number {bound}, got {value!r}")
            if f.type == "int" and value < (0 if zero_ok else 1):
                raise ConfigError(f"{f.name} must be >= {0 if zero_ok else 1}, got {value}")
        _check_even_split(self.num_pairs)   # the class split every run draws
        # The outcome records of all repetitions are held at once: their bytes
        # must be an array size the platform can index.
        from .game import RECORD_DTYPE   # here: game imports this module
        largest = np.iinfo(np.intp).max
        if self.repetitions * self.stages * self.num_pairs * RECORD_DTYPE.itemsize > largest:
            raise ConfigError(
                f"repetitions x stages x num_pairs = {self.repetitions} x {self.stages} x "
                f"{self.num_pairs} outcome records of {RECORD_DTYPE.itemsize} bytes exceed "
                f"the largest array, {largest} bytes")
        if not math.isfinite(8.0 * self.cell_radius * self.cell_radius):
            # Both coordinates of a tx-rx separation lie within 2 * cell_radius.
            raise ConfigError(f"cell_radius = {self.cell_radius!r} m is too large: "
                              "squared tx-rx distances overflow")
        if self.max_pair_distance > self.cell_radius:
            raise ConfigError("max_pair_distance must not exceed cell_radius")
        if self.min_link_distance >= self.max_pair_distance:
            raise ConfigError("min_link_distance must be below max_pair_distance")
        if self.p_min >= self.p_max:
            raise ConfigError(f"power bounds must satisfy p_min < p_max, got [{self.p_min}, {self.p_max}]")
        if self.br_tolerance < math.ulp(self.p_max):
            raise ConfigError(f"br_tolerance must be at least ulp(p_max) = {math.ulp(self.p_max):.3g} "
                              f"for the best-response bisection to end, got {self.br_tolerance}")
        if self.w < 1.0:
            raise ConfigError(f"w must be >= 1 for a concave serious utility, got {self.w}")
        if self.q <= 2.0:
            raise ConfigError(
                f"q must exceed 2 so ln(q - x) stays positive for satisfaction x in (0, 1], got {self.q}"
            )
        if self.p_max / self.z >= self.y - 1.0:
            raise ConfigError(
                "p_max/z must be below y - 1 so ln(y - p/z) stays positive over the power range: "
                f"p_max/z = {self.p_max / self.z:.6g} vs y - 1 = {self.y - 1.0:.6g}"
            )
        if not (0.0 < self.x_floor <= self.x_init <= 1.0):
            raise ConfigError(
                f"satisfaction bounds must satisfy 0 < x_floor <= x_init <= 1, got "
                f"x_floor={self.x_floor}, x_init={self.x_init}"
            )
        if self.modulation not in link.MODULATIONS:
            raise ConfigError(
                f"unknown modulation {self.modulation!r}; known: {sorted(link.MODULATIONS)}"
            )
        # Link budget: every tx-rx distance lies in [min_link_distance, 2 * cell_radius],
        # and the fading envelope is at most sqrt(jakes_oscillators).
        if self._path_loss_gain(2.0 * self.cell_radius) == 0.0:
            raise ConfigError(
                "the path-loss gain at the longest link "
                f"(2 * cell_radius = {2.0 * self.cell_radius!r} m) underflows to 0: "
                f"reference_distance = {self.reference_distance!r}, "
                f"path_loss_attenuation = {self.path_loss_attenuation!r}, "
                f"path_loss_exponent = {self.path_loss_exponent!r}")
        best_sinr = (self.p_max * self._path_loss_gain(self.min_link_distance)
                     * self.jakes_oscillators / self.noise_power)
        mod = self.modulation_params
        try:
            exponent = mod.a * best_sinr ** mod.b
        except (OverflowError, ZeroDivisionError):
            exponent = math.inf
        if not math.isfinite(exponent):
            raise ConfigError(
                f"noise_power = {self.noise_power!r} W leaves no usable link: the best-case SINR "
                f"{best_sinr:.3g} (p_max at min_link_distance, peak fading) puts the "
                f"{self.modulation} PDR exponent a * SINR**b out of floating-point range")

    def _path_loss_gain(self, distance: float) -> float:
        """Path-loss power gain (A_PL * (d0/d)**(alpha/2))**2 at one distance; inf on overflow."""
        try:
            return (self.path_loss_attenuation
                    * (self.reference_distance / distance) ** (self.path_loss_exponent / 2.0)) ** 2
        except OverflowError:
            return math.inf


def _is_finite(value) -> bool:
    """math.isfinite, with an int too large for a float counted as infinite."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


# Keys accepted in config files, mirroring the GameConfig field names.
_CONFIG_FIELDS = {f.name: f.type for f in fields(GameConfig)}
_BOOL_WORDS = {"true": True, "on": True, "yes": True, "1": True,
               "false": False, "off": False, "no": False, "0": False}


def _parse_value(name: str, text: str):
    kind = _CONFIG_FIELDS[name]
    if kind == "bool":
        word = text.strip().lower()
        if word not in _BOOL_WORDS:
            raise ConfigError(f"{name}: expected a boolean, got {text!r}")
        return _BOOL_WORDS[word]
    if kind == "int":
        try:
            return int(text, 0)
        except ValueError as exc:
            raise ConfigError(f"{name}: expected an integer, got {text!r}") from exc
    if kind == "float":
        try:
            return float(text)
        except ValueError as exc:
            raise ConfigError(f"{name}: expected a number, got {text!r}") from exc
    return text.strip()


def load_config(source: str) -> GameConfig:
    """Parse flat ``key = value`` text (``#`` comments) into a validated GameConfig.

    Unspecified keys take the scenario defaults; unknown keys are an error.
    """
    overrides: dict = {}
    for lineno, raw in enumerate(source.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _CONFIG_FIELDS:
            raise ConfigError(f"line {lineno}: unknown configuration key {key!r}")
        if key in overrides:
            raise ConfigError(f"line {lineno}: duplicate configuration key {key!r}")
        overrides[key] = _parse_value(key, value)
    return GameConfig(**overrides)


def load_config_file(path) -> GameConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return load_config(fh.read())


def dump_config(cfg: GameConfig) -> str:
    """Serialize a config back to the flat key = value format (full precision)."""
    lines = []
    for f in fields(GameConfig):
        value = getattr(cfg, f.name)
        if isinstance(value, bool):
            text = "true" if value else "false"
        elif isinstance(value, float):
            text = repr(value)
        else:
            text = str(value)
        lines.append(f"{f.name} = {text}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# RNG stream derivation.  Each repetition owns three independent substreams so
# paired runs (same seed) share topology and fading draws no matter how many
# powers the game itself consumes, and repetitions can run in any order.
# ---------------------------------------------------------------------------

class RngStreams(NamedTuple):
    topology: np.random.Generator
    fading: np.random.Generator
    powers: np.random.Generator


def rng_streams(seed: int, repetition: int) -> RngStreams:
    """Derive the (topology, fading, powers) generators for one repetition."""
    root = np.random.SeedSequence(entropy=seed, spawn_key=(repetition,))
    children = root.spawn(3)
    return RngStreams(*(np.random.Generator(np.random.PCG64(child)) for child in children))
