"""Workload definitions shared by run.py and its sample processes.

Every workload is a closed loop of one client: run.py starts the next
sample only after the previous one has exited, and each sample runs the whole
workload once in a fresh interpreter.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

# Seed of the pinned golden digests (the GameConfig default).
DEFAULT_SEED = 7
# The epsilon-Nash certification seeds are seed + 1000 + k, as in acceptance
# criterion 9.
CERTIFY_SEED_OFFSET = 1000


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    num_pairs: int
    stages: int
    repetitions: int          # per game run
    jobs: int
    games: tuple[str, ...]
    certify_seeds: int = 0    # > 0: frozen channel, one game run per seed, both verifiers
    cross_jobs: int = 0       # > 0: one untimed sample at this --jobs must give the same CSVs

    def config_texts(self, seed: int) -> list[str]:
        """Flat config text of every game run of one sample."""
        base = (f"num_pairs = {self.num_pairs}\nstages = {self.stages}\n"
                f"repetitions = {self.repetitions}\n")
        if self.certify_seeds:
            return [base + f"doppler = 0.0\nseed = {seed + CERTIFY_SEED_OFFSET + k}\n"
                    for k in range(self.certify_seeds)]
        return [base + f"seed = {seed}\n"]

    @property
    def pair_stages(self) -> int:
        """M * T * R * (number of game runs) of one sample."""
        runs = self.certify_seeds or 1
        return self.num_pairs * self.stages * self.repetitions * len(self.games) * runs


BOTH = ("ubeas", "npc")

# BENCHMARK.json gates every workload except `parallel`: on a machine with as
# many cores as pool workers its time measures the scheduler more than the
# program.  It stays available through --workload parallel and all.
GATED = ("reference", "dense", "certify")

WORKLOADS = {
    w.name: w for w in (
        Workload("reference", "the paper's paired ubeas/npc experiment at M=24, T=100, run serially "
                 "as users run it; stresses best response, CSV writing and summarize",
                 num_pairs=24, stages=100, repetitions=10, jobs=1, games=BOTH, cross_jobs=2),
        Workload("parallel", "the reference problem with --jobs 2, so trajectory pickling through "
                 "the process pool shows; it would not show in reference",
                 num_pairs=24, stages=100, repetitions=10, jobs=2, games=BOTH, cross_jobs=1),
        Workload("dense", "M=384 pairs on a short horizon, so building and advancing the fading "
                 "state dominates; channel work shows here and not in reference",
                 num_pairs=384, stages=14, repetitions=1, jobs=1, games=BOTH),
        Workload("certify", "frozen channel, M=24, T=600, then both equilibrium verifiers on six of "
                 "criterion 9's seeds; verifier work shows only here",
                 num_pairs=24, stages=600, repetitions=1, jobs=1, games=("ubeas",),
                 certify_seeds=6),
    )
}

# Tiny sizes for the end-to-end smoke check.  Horizons stay at 14 stages or
# more, so the satisfaction check (x first reaches 1 at stage 13) applies.
SMOKE = {
    "reference": replace(WORKLOADS["reference"], num_pairs=6, stages=14, repetitions=2),
    "parallel": replace(WORKLOADS["parallel"], num_pairs=6, stages=14, repetitions=2),
    "dense": replace(WORKLOADS["dense"], num_pairs=48, repetitions=1),
    "certify": replace(WORKLOADS["certify"], num_pairs=6, stages=60, certify_seeds=1),
}
