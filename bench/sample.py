"""One benchmark sample: a fresh interpreter runs a workload once.

Started by ``run.py`` as ``python3 bench/sample.py '<json spec>'``; prints one
JSON line with the sample's timings, the outcome of every operation, the CSV
digests and, when traced, the per-layer metrics.  The clock starts in the
parent just before the interpreter is spawned, so ``setup_s`` covers
interpreter start-up, ``import ubeas`` and building the validated configs.
"""

import json
import os
import sys
import time


def main() -> None:
    spec = json.loads(sys.argv[1])
    before_import = time.perf_counter()
    sys.path.insert(0, os.path.join(spec["root"], "src"))
    from ubeas import cli, config, harness
    imported = time.perf_counter()
    from workloads import SMOKE, WORKLOADS
    workload = (SMOKE if spec["smoke"] else WORKLOADS)[spec["workload"]]
    texts = workload.config_texts(spec["seed"])
    loading = time.perf_counter()
    cfgs = [config.load_config(text) for text in texts]
    ready = time.perf_counter()

    import contextlib
    import io
    import resource
    from functools import partial
    from pathlib import Path

    import numpy
    import checks

    work = Path(spec["work"])
    work.mkdir(parents=True, exist_ok=True)
    jobs = spec.get("jobs") or workload.jobs
    tracer = None
    if spec["trace"]:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()

    if not workload.certify_seeds:
        config_path = work / "config.txt"
        config_path.write_text(config.dump_config(cfgs[0]), encoding="utf-8")

    ops = []          # [name, ok, problem]
    outputs = []      # (index into ops, game, output directory)
    reports = []      # (index into ops, verifier report)
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        if workload.certify_seeds:
            for cfg in cfgs:
                name = f"seed{cfg.seed}"
                if tracer:
                    tracer.run_id = name
                try:
                    summary, trajectories = harness.run_experiment(cfg, "ubeas", jobs=jobs)
                    harness.emit_outputs(summary, trajectories, work / name)
                except Exception as exc:
                    ops += [[name, False, repr(exc)], [name + "/nash", False, "no run"],
                            [name + "/pareto", False, "no run"]]
                    continue
                outputs.append((len(ops), "ubeas", work / name))
                ops.append([name, True, ""])
                traj = trajectories[0]
                verifiers = (
                    ("nash", partial(harness.check_epsilon_nash, traj.records[-1],
                                     traj.final_gains, cfg, epsilon=1e-6, grid_points=10_000)),
                    ("pareto", partial(harness.check_pareto_convergence, traj)),
                )
                for verifier, call in verifiers:
                    try:
                        reports.append((len(ops), call()))
                    except Exception as exc:
                        ops.append([f"{name}/{verifier}", False, repr(exc)])
                        continue
                    ops.append([f"{name}/{verifier}", True, ""])
                del summary, trajectories, traj, verifiers
        else:
            for game in workload.games:
                if tracer:
                    tracer.run_id = game
                out = work / game
                try:
                    code = cli.main(["run", "--config", str(config_path), "--game", game,
                                     "--jobs", str(jobs), "--out", str(out)])
                except Exception as exc:
                    ops.append([game, False, repr(exc)])
                    continue
                if code != 0:
                    ops.append([game, False, f"exit code {code}"])
                    continue
                outputs.append((len(ops), game, out))
                ops.append([game, True, ""])
    end = time.perf_counter()
    peak_kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)

    for index, report in reports:
        if ops[index][0].endswith("/nash"):
            passed = report.passed
        else:
            passed = report.converged and report.minimality_ok
        if not passed:
            ops[index][1:] = [False, f"verifier failed: {report!r}"[:300]]
    digests = {}
    emit_bytes = 0
    for index, game, out in outputs:
        problems = checks.check_summary(out, game) + checks.check_satisfaction(out, game)
        if problems:
            ops[index][1:] = [False, "; ".join(problems)[:300]]
        digests[out.name] = checks.digests(out)
        emit_bytes += sum(p.stat().st_size for p in out.glob("*.csv"))

    result = {
        "setup_s": ready - spec["spawned"],
        "wall_s": end - start,
        "pair_stages": workload.pair_stages,
        "peak_rss_mb": peak_kib / 1024.0,
        "ops": ops,
        "digests": digests,
        "emit_bytes": emit_bytes,
        "versions": {"numpy": numpy.__version__,
                     "scipy": sys.modules["scipy"].__version__},
    }
    if tracer:
        from tracing import per_layer_metrics
        result["per_layer"] = per_layer_metrics(
            tracer, imported - before_import, ready - loading, emit_bytes)
        tracer.write_spans(work / "spans.csv")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
