#!/usr/bin/env python3
"""Benchmark of the U-BeAS simulator, driven from outside the program.

    python3 bench/run.py --workload reference --seed 1 --seconds 36 --trace 0

Each sample runs the whole workload once in a fresh interpreter
(``sample.py``); this script keeps starting samples until ``--seconds`` have
passed and reports medians.  Before the timed samples it runs one sample at
the default seed, which fills the bytecode and file caches and checks the
pinned CSV digests.  Every sample's outputs are checked; the last line of
standard output is the result as one JSON object.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced samples and reports the per-layer metrics of the traced
ones plus the tracing overhead.  ``--workload all`` runs every workload in
turn, ``--smoke`` runs them at tiny sizes, and ``--bless`` rewrites the
pinned digests.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import EXACT_COUNTS
from workloads import DEFAULT_SEED, SMOKE, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DIGESTS = BENCH / "digests.json"
WORK = ROOT / ".bench_work"

END_TO_END = {"setup_s": "s", "wall_s": "s", "pair_stages_per_s": "1/s", "peak_rss_mb": "MiB"}
PER_LAYER_UNITS = {"_s": "s", "_calls": "count", "_bytes": "bytes"}
PER_LAYER = (
    "channel.fading_init_s", "channel.advance_s", "channel.advance_calls",
    "channel.gain_matrix_s", "channel.generate_topology_s", "channel.fading_bytes",
    "link.interference_all_s", "link.pdr_from_sinr_s", "link.pdr_from_sinr_calls",
    "game.run_stage_s", "npc.run_npc_stage_s", "game.measure_followers_s",
    "game.class_means_s", "game.maximize_concave_s", "game.maximize_concave_calls",
    "game.br_lower", "game.br_interior", "game.br_upper", "game.br_gradient_evals",
    "game.outage_pair_stages", "game.br_gradient_evals_per_solve",
    "harness.run_experiment_s", "harness.summarize_s", "harness.emit_outputs_s",
    "harness.emit_bytes", "harness.trajectory_pickle_bytes", "harness.trajectory_unpickle_s",
    "harness.pool_wait_s", "harness.check_epsilon_nash_s", "harness.check_pareto_convergence_s",
    "ubeas.import_s", "config.load_s", "cli.main_s", "trace.overhead_s",
)
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# Samples run numpy's BLAS on one thread: the arrays are small, and a second
# BLAS thread per process only competes for the few cores with pool workers.
SAMPLE_ENV = {**os.environ, **{name: "1" for name in BLAS_ENV}}
SAMPLE_TIMEOUT_S = 150
MIN_PLAIN = 3        # untraced samples per run without tracing
MIN_TRACED = 2       # traced samples per traced run: the counts must repeat


def unit(name: str) -> str:
    if name == "game.br_gradient_evals_per_solve":
        return "evals/solve"
    return next((u for suffix, u in PER_LAYER_UNITS.items() if name.endswith(suffix)), "count")


class Run:
    """Samples of one workload at one seed, and the operations they attempted."""

    def __init__(self, workload, smoke: bool) -> None:
        self.workload = workload
        self.smoke = smoke
        self.work = WORK / workload.name
        shutil.rmtree(self.work, ignore_errors=True)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.count = 0

    @property
    def expected_ops(self) -> int:
        w = self.workload
        return w.certify_seeds * 3 if w.certify_seeds else len(w.games)

    def sample(self, seed: int, trace: bool = False, jobs: int | None = None) -> dict | None:
        """Run one sample; its operations are added to the tally."""
        self.count += 1
        work = self.work / str(self.count)
        spec = {"root": str(ROOT), "workload": self.workload.name, "smoke": self.smoke,
                "seed": seed, "trace": trace, "jobs": jobs, "work": str(work)}
        spec["spawned"] = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, str(BENCH / "sample.py"), json.dumps(spec)],
                                  capture_output=True, text=True, env=SAMPLE_ENV,
                                  timeout=SAMPLE_TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:
            proc = subprocess.CompletedProcess(exc.cmd, "timeout", "", f"killed after {exc.timeout} s")
        if trace and (work / "spans.csv").is_file():
            shutil.copyfile(work / "spans.csv", WORK / f"{self.workload.name}-spans.csv")
        shutil.rmtree(work, ignore_errors=True)
        try:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            result = None
        if proc.returncode != 0 or result is None:
            self.attempted += self.expected_ops
            self.failed += self.expected_ops
            self.problems.append(f"sample exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
            return None
        for name, ok, problem in result["ops"]:
            self.attempted += 1
            if not ok:
                self.failed += 1
                self.problems.append(f"{name} (seed {seed}): {problem}")
        return result

    def fail(self, problem: str) -> None:
        """An output check across samples failed: one more failed operation."""
        self.attempted += 1
        self.failed += 1
        self.problems.append(problem)


def measure(workload, seed: int, seconds: float, trace: bool, smoke: bool,
            pinned: dict) -> tuple[dict, dict]:
    run = Run(workload, smoke)
    first = run.sample(DEFAULT_SEED)
    if first is not None and first["digests"] != pinned:
        run.fail(f"default-seed CSV digests differ from the pinned ones in {DIGESTS.name}")
    cross = run.sample(seed, jobs=workload.cross_jobs) if workload.cross_jobs else None

    plain, traced = [], []
    tries = {False: 0, True: 0}
    deadline = time.perf_counter() + seconds
    while (time.perf_counter() < deadline or tries[False] < (1 if trace else MIN_PLAIN)
           or (trace and tries[True] < MIN_TRACED)):
        use_trace = trace and tries[True] < tries[False]
        tries[use_trace] += 1
        result = run.sample(seed, trace=use_trace)
        if result is not None:
            (traced if use_trace else plain).append(result)
    if not plain or (trace and not traced):
        raise SystemExit(f"bench: no sample of {workload.name} completed: {run.problems[:3]}")

    timed = plain + traced
    if any(r["digests"] != timed[0]["digests"] for r in timed):
        run.fail("CSV digests differ between samples of one seed")
    if cross is not None and timed and timed[0]["digests"] != cross["digests"]:
        run.fail(f"--jobs {workload.cross_jobs} CSV digests differ from those of the timed "
                 f"--jobs {workload.jobs} samples")
    if traced:
        for name in EXACT_COUNTS:
            if len({r["per_layer"][name] for r in traced}) > 1:
                run.fail(f"count {name} differs between traced samples")

    info = {"samples": {"plain": len(plain), "traced": len(traced)},
            "wall_s_samples": [round(r["wall_s"], 4) for r in plain],
            "problems": run.problems[:10], "error_rate": run.failed / run.attempted,
            "versions": plain[0]["versions"]}
    if trace:
        metrics = {name: statistics.median(r["per_layer"][name] for r in traced)
                   for name in PER_LAYER if name != "trace.overhead_s"}
        metrics["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                       - statistics.median(r["wall_s"] for r in plain))
        units = {name: unit(name) for name in PER_LAYER}
    else:
        metrics = {
            "setup_s": statistics.median(r["setup_s"] for r in plain),
            "wall_s": statistics.median(r["wall_s"] for r in plain),
            "pair_stages_per_s": statistics.median(r["pair_stages"] / r["wall_s"] for r in plain),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
        units = END_TO_END
    result = {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    return result, info


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def metadata(name: str, seed: int, trace: bool, info: dict) -> dict:
    return {
        "workload": name, "seed": seed, "trace": trace,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), **info["versions"],
        "git_commit": git_commit(), "start_method": multiprocessing.get_start_method(),
        "blas_env": {k: SAMPLE_ENV[k] for k in BLAS_ENV},
        "samples_per_metric": info["samples"], "wall_s_samples": info["wall_s_samples"],
        "spans": "parent process only" if (trace and WORKLOADS[name].jobs > 1) else "all",
    }


def report(name: str, seed: int, trace: bool, result: dict, info: dict) -> None:
    samples = info["samples"]["traced" if trace else "plain"]
    print(f"== {name}  seed {seed}  {'traced' if trace else 'untraced'}  "
          f"median of {samples} samples")
    for metric, entry in result["metrics"].items():
        print(f"  {metric:36s} {entry['value']:16.6g} {entry['unit']}")
    print(f"  {'error_rate':36s} {info['error_rate']:16.6g} "
          f"({result['failed']}/{result['attempted']} operations failed)")
    if trace and WORKLOADS[name].jobs > 1:
        print("  note: spans of forked pool workers are lost; per-layer figures cover "
              "the parent process only")
    for problem in info["problems"]:
        print(f"  FAILED {problem}")
    print("meta " + json.dumps(metadata(name, seed, trace, info)))


def bless() -> int:
    """Rewrite the pinned default-seed digests of every workload, full and smoke size."""
    pinned = {}
    for prefix, table in (("", WORKLOADS), ("smoke/", SMOKE)):
        for name, workload in table.items():
            run = Run(workload, bool(prefix))
            result = run.sample(DEFAULT_SEED)
            if result is None or run.failed:
                print(f"{prefix}{name}: {run.problems}", file=sys.stderr)
                return 1
            pinned[prefix + name] = result["digests"]
            shutil.rmtree(run.work, ignore_errors=True)
    DIGESTS.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {DIGESTS}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, end to end")
    parser.add_argument("--bless", action="store_true", help="rewrite the pinned digests")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "ubeas" / "__init__.py").is_file():
        print(f"bench: the program is missing: no src/ubeas under {ROOT}", file=sys.stderr)
        return 2
    if args.bless:
        return bless()
    pinned = json.loads(DIGESTS.read_text(encoding="utf-8"))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        workload = (SMOKE if args.smoke else WORKLOADS)[name]
        key = f"smoke/{name}" if args.smoke else name
        result, info = measure(workload, args.seed, args.seconds, bool(args.trace),
                               args.smoke, pinned[key])
        report(name, args.seed, bool(args.trace), result, info)
        results[name] = result
    if len(results) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
