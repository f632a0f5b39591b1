"""Output checks made on every sample, independent of the program's own code.

``summary.csv`` is recomputed from the ``trajectory.csv`` rows under the
conventions the README states: transmit powers are means of per-sample dBm,
PDR means cover served (non-outage) pair-stages only, "after convergence" is
exactly the stages of a repetition from the first one where x = 1.
"""

from __future__ import annotations

import csv
import hashlib
import math
from collections import defaultdict
from pathlib import Path

CLASSES = ("casual", "intermediate", "serious")
POWER = "mean transmit power (dBm)"
# Stage at which the leader's satisfaction x_t = clamp(x_{t-1} ln t) first
# reaches 1 from the default x_init = 0.001.
FULL_SATISFACTION_STAGE = 13


def digests(out_dir: Path) -> dict[str, str]:
    """SHA-256 of every CSV in an output directory."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.glob("*.csv"))}


class _Mean:
    __slots__ = ("total", "square", "n")

    def __init__(self) -> None:
        self.total = 0.0
        self.square = 0.0
        self.n = 0

    def add(self, value: float) -> None:
        self.total += value
        self.square += value * value
        self.n += 1

    @property
    def mean(self) -> float:
        return self.total / self.n

    @property
    def standard_error(self) -> float:
        mean = self.mean
        return math.sqrt(max(self.square / self.n - mean * mean, 0.0) / self.n)


def expected_summary(trajectory_csv: Path, game: str) -> dict[tuple[str, str], list]:
    """Recompute every summary.csv row from trajectory.csv."""
    rows = []
    with open(trajectory_csv, encoding="utf-8", newline="") as fh:
        for r in csv.DictReader(fh):
            rows.append((int(r["rep"]), int(r["t"]), r["class"],
                         float(r["x"]) if r["x"] else None, float(r["p_dbm"]),
                         float(r["pdr"]), r["outage"] == "1"))
    convergence: dict[int, int] = {}
    for rep, t, _cls, x, *_ in rows:
        if x == 1.0 and rep not in convergence:
            convergence[rep] = t

    power = defaultdict(_Mean)
    before = defaultdict(_Mean)
    after = defaultdict(_Mean)
    pdr = defaultdict(_Mean)
    outages = 0
    for rep, t, cls, _x, dbm, value, outage in rows:
        power[cls].add(dbm)
        if outage:
            outages += 1
        else:
            pdr[cls].add(value)
        if rep in convergence:
            (before if t < convergence[rep] else after)[cls].add(dbm)

    def cells(stats, attr="mean"):
        return [getattr(stats[c], attr) if c in stats else None for c in CLASSES]

    expected = {}
    if game == "ubeas":
        partition = bool(convergence)
        expected[(POWER, "before BS convergence")] = cells(before) if partition else [None] * 3
        expected[(POWER, "after BS convergence")] = cells(after) if partition else [None] * 3
    expected[(POWER, "overall")] = cells(power)
    expected[("mean PDR", "overall")] = cells(pdr)
    expected[("power standard error (dB)", "overall")] = cells(power, "standard_error")
    expected[("outage rate", "overall")] = [outages / len(rows) if rows else 0.0, None, None]
    return expected


def check_summary(out_dir: Path, game: str) -> list[str]:
    """Problems found comparing summary.csv with its recomputation."""
    expected = expected_summary(out_dir / "trajectory.csv", game)
    found = {}
    with open(out_dir / "summary.csv", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for metric, label, *values in reader:
            found[(metric, label)] = [float(v) if v else None for v in values]
    problems = []
    if set(found) != set(expected):
        problems.append(f"summary rows {sorted(found)} != expected {sorted(expected)}")
    for key, want in expected.items():
        got = found.get(key)
        if got is None:
            continue
        for cls, w, g in zip(CLASSES, want, got):
            if (w is None) != (g is None) or (
                    w is not None and not math.isclose(w, g, rel_tol=1e-9, abs_tol=1e-12)):
                problems.append(f"{key[0]} / {key[1]} / {cls}: summary {g} != recomputed {w}")
    return problems


def check_satisfaction(out_dir: Path, game: str) -> list[str]:
    """For ubeas, mean satisfaction must first reach 1 at stage 13."""
    if game != "ubeas":
        return []
    with open(out_dir / "satisfaction.csv", encoding="utf-8", newline="") as fh:
        first = next((int(r["t"]) for r in csv.DictReader(fh)
                      if r["mean_x"] and float(r["mean_x"]) == 1.0), None)
    if first != FULL_SATISFACTION_STAGE:
        return [f"satisfaction first reaches 1 at stage {first}, "
                f"expected {FULL_SATISFACTION_STAGE}"]
    return []
