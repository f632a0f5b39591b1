"""SINR and packet delivery ratio link model.

PDR is modeled as a compressed exponential of inverse SINR,

    pdr(g) = exp(-(1/(g * a_c))**b_c) = exp(a * g**b),   a = -(1/a_c)**b_c, b = -b_c,

which is strictly increasing in the linear SINR g and approaches 1 as g grows.
All operations are pure and thread-safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np
# Only fit_pdr_params needs scipy.optimize, which costs about half a second to
# import, so it is imported there.  The bare package costs about 17 ms, and
# the benchmark reads its version from sys.modules.
import scipy  # noqa: F401


class FitError(RuntimeError):
    """Raised when PDR parameter fitting cannot proceed."""


@dataclass(frozen=True, slots=True)
class ModulationParams:
    """Compressed-exponential PDR constants for one modulation and coding scheme.

    Both parameterizations are stored; the (a, b) form is canonical at runtime.
    The tabulated (a, b) pairs are kept as printed rather than recomputed from
    (a_c, b_c): only the printed values reproduce the reference target SINR of
    0.534 for a 0.90 target PDR on 16-QAM.
    """

    name: str
    a_c: float
    b_c: float
    a: float
    b: float

    def __post_init__(self) -> None:
        if not (self.a < 0.0 and self.b < 0.0):
            raise ValueError(f"modulation {self.name!r} requires a < 0 and b < 0")
        if not (self.a_c > 0.0 and self.b_c > 0.0):
            raise ValueError(f"modulation {self.name!r} requires a_c > 0 and b_c > 0")


# 1024-byte packets with rate-1/3 turbo coding.
MODULATIONS = {
    "qpsk": ModulationParams("qpsk", a_c=2.331, b_c=6.355, a=-0.0001, b=-6.22),
    "16qam": ModulationParams("16qam", a_c=1.383, b_c=6.565, a=-0.0014, b=-6.88),
    "64qam": ModulationParams("64qam", a_c=0.762, b_c=7.014, a=-0.2669, b=-7.021),
}


def interference_all(powers: np.ndarray, gains: np.ndarray, noise: float) -> np.ndarray:
    """Interference-plus-noise at every receiver, excluding each pair's own signal."""
    received = powers @ gains
    own = powers * np.diagonal(gains)
    return received - own + noise


def pdr_from_sinr(gamma: float, mod: ModulationParams) -> float:
    """Packet delivery ratio exp(a * gamma**b) for a linear SINR gamma > 0."""
    if gamma <= 0.0:
        raise ValueError(f"SINR must be positive, got {gamma}")
    return math.exp(mod.a * gamma ** mod.b)


def target_sinr(pdr_tgt: float, mod: ModulationParams) -> float:
    """Invert the PDR model: the linear SINR whose PDR equals pdr_tgt.

    Closed form (ln(pdr_tgt)/a)**(1/b); round-trips through pdr_from_sinr.
    """
    if not 0.0 < pdr_tgt < 1.0:
        raise ValueError(f"target PDR must lie in (0, 1), got {pdr_tgt}")
    return (math.log(pdr_tgt) / mod.a) ** (1.0 / mod.b)


def fit_pdr_params(samples: Iterable[tuple[float, float]]) -> tuple[float, float]:
    """Least-squares fit of (a_c, b_c) to (sinr, pdr) samples.

    Residuals are taken in PDR space, which weights the operating region near
    1.  The initial guess comes from the log-log linearization
    ln(-ln pdr) = -b_c ln(gamma) - b_c ln(a_c), so noise-free model data is
    recovered essentially exactly.  Deterministic for fixed samples.
    """
    from scipy.optimize import least_squares

    pts = [(float(g), float(p)) for g, p in samples]
    if len(pts) < 2:
        raise FitError(f"need at least 2 samples, got {len(pts)}")
    for g, p in pts:
        if not (math.isfinite(g) and g > 0.0):
            raise FitError(f"sample SINR must be positive and finite, got {g}")
        if not 0.0 < p < 1.0:
            raise FitError(f"sample PDR must lie strictly in (0, 1), got {p}")
    gammas = np.array([g for g, _ in pts])
    pdrs = np.array([p for _, p in pts])
    if np.ptp(gammas) == 0.0 or np.ptp(pdrs) == 0.0:
        raise FitError("samples are degenerate: SINR and PDR values must vary")

    def residuals(theta):
        a_c, b_c = theta
        return np.exp(-((1.0 / (gammas * a_c)) ** b_c)) - pdrs

    try:
        # Log-log linearization for the starting point.
        slope, intercept = np.polyfit(np.log(gammas), np.log(-np.log(pdrs)), 1)
        b_c0 = max(-slope, 1e-3)
        a_c0 = math.exp(-intercept / b_c0)
        result = least_squares(residuals, x0=[a_c0, b_c0],
                               bounds=([1e-9, 1e-9], [np.inf, np.inf]),
                               xtol=1e-14, ftol=1e-14, gtol=1e-14)
    except (ArithmeticError, ValueError) as exc:   # np.linalg.LinAlgError is a ValueError
        # SINRs spanning hundreds of decades put the start point out of range.
        raise FitError(f"cannot fit the samples: {exc}") from exc
    if not result.success:
        raise FitError(f"least-squares fit failed: {result.message}")
    return float(result.x[0]), float(result.x[1])
