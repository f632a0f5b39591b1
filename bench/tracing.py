"""Span tracing for the benchmark's traced runs.

The tracer wraps the public calls into each layer of ``ubeas`` from the
outside, by rebinding module attributes; nothing under ``src/`` knows about
it.  Every call records a span (name, start, end, parent span, run id) in
memory.  Self time per layer is derived from the spans once the run is over:
a span's duration minus the durations of its direct children.

Counts are recorded at the same boundaries: best-response branches and
gradient evaluations around ``maximize_concave``, outage pair-stages from
``measure_followers`` and the fading-state size from ``FadingState``.

Spans of forked pool workers stay in the workers and are lost, so with
``--jobs 2`` the spans and counts cover the parent process only.
"""

from __future__ import annotations

import importlib
import pickle
import time
from collections import defaultdict
from multiprocessing.reduction import ForkingPickler

# (module, attribute, span name).  A function imported into several modules is
# rebound in each of them under one span name.
TRACED_CALLS = (
    ("ubeas.cli", "main", "cli.main"),
    ("ubeas.cli", "run_experiment", "harness.run_experiment"),
    ("ubeas.harness", "run_experiment", "harness.run_experiment"),
    ("ubeas.harness", "summarize", "harness.summarize"),
    ("ubeas.cli", "emit_outputs", "harness.emit_outputs"),
    ("ubeas.harness", "emit_outputs", "harness.emit_outputs"),
    ("ubeas.cli", "check_epsilon_nash", "harness.check_epsilon_nash"),
    ("ubeas.harness", "check_epsilon_nash", "harness.check_epsilon_nash"),
    ("ubeas.cli", "check_pareto_convergence", "harness.check_pareto_convergence"),
    ("ubeas.harness", "check_pareto_convergence", "harness.check_pareto_convergence"),
    ("ubeas.game", "run_stage", "game.run_stage"),
    ("ubeas.npc", "run_npc_stage", "npc.run_npc_stage"),
    ("ubeas.game", "measure_followers", "game.measure_followers"),
    ("ubeas.npc", "measure_followers", "game.measure_followers"),
    ("ubeas.game", "class_means", "game.class_means"),
    ("ubeas.npc", "class_means", "game.class_means"),
    ("ubeas.game", "maximize_concave", "game.maximize_concave"),
    ("ubeas.npc", "maximize_concave", "game.maximize_concave"),
    ("ubeas.game", "generate_topology", "channel.generate_topology"),
    ("ubeas.npc", "generate_topology", "channel.generate_topology"),
    ("ubeas.game", "gain_matrix", "channel.gain_matrix"),
    ("ubeas.npc", "gain_matrix", "channel.gain_matrix"),
    ("ubeas.channel", "FadingState.__init__", "channel.fading_init"),
    ("ubeas.channel", "FadingState.advance", "channel.advance"),
    ("ubeas.link", "interference_all", "link.interference_all"),
    ("ubeas.link", "pdr_from_sinr", "link.pdr_from_sinr"),
)

COMPLEX_BYTES = 16
FADING_ARRAYS = 2   # oscillator state and per-stage rotation


class Tracer:
    """In-memory span recorder plus the counters taken at the same boundaries."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list[int] = []
        self.run_id = ""
        self.counts: dict[str, int] = defaultdict(int)
        self.trajectories: list = []

    def wrap(self, name: str, fn, after=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, stack[-1] if stack else -1, self.run_id)
            if after is not None:
                after(result, args)
            return result

        return traced

    # -- hooks recording counts -------------------------------------------------

    def _count_outages(self, states, _args) -> None:
        self.counts["game.outage_pair_stages"] += sum(1 for s in states if s.outage)

    def _fading_bytes(self, _result, args) -> None:
        _, shape, n_osc = args[:3]
        size = shape[0] * shape[1] * n_osc * COMPLEX_BYTES * FADING_ARRAYS
        self.counts["channel.fading_bytes"] = max(self.counts["channel.fading_bytes"], size)

    def _keep_trajectories(self, result, _args) -> None:
        self.trajectories.extend(result[1] or ())

    def _counting_maximize(self, maximize):
        counts = self.counts

        def maximize_concave(utility, gradient, lo, hi, tol):
            evals = 0

            def counted(p):
                nonlocal evals
                evals += 1
                return gradient(p)

            power = maximize(utility, counted, lo, hi, tol)
            counts["game.br_gradient_evals"] += evals
            if power == lo:
                counts["game.br_lower"] += 1
            elif power == hi:
                counts["game.br_upper"] += 1
            else:
                counts["game.br_interior"] += 1
            return power

        return maximize_concave

    def install(self) -> None:
        """Rebind every traced call; call once, after ``import ubeas``."""
        hooks = {
            "game.measure_followers": self._count_outages,
            "channel.fading_init": self._fading_bytes,
            "harness.run_experiment": self._keep_trajectories,
        }
        for module_name, attr, name in TRACED_CALLS:
            owner = importlib.import_module(module_name)
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
            fn = getattr(owner, attr)
            if name == "game.maximize_concave":
                fn = self._counting_maximize(fn)
            setattr(owner, attr, self.wrap(name, fn, hooks.get(name)))

    # -- results ------------------------------------------------------------------

    def pickle_cost(self) -> tuple[int, float]:
        """Bytes of every kept trajectory as a pool worker pickles it, and the
        time the parent takes to unpickle them."""
        total_bytes = 0
        unpickle_s = 0.0
        for traj in self.trajectories:
            payload = ForkingPickler.dumps(traj)
            total_bytes += len(payload)
            start = time.perf_counter()
            pickle.loads(payload)
            unpickle_s += time.perf_counter() - start
        self.trajectories.clear()
        return total_bytes, unpickle_s

    def layer_times(self) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
        """Per span name: summed self time, summed duration and call count."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _run in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        total_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for i, (name, start, end, _parent, _run) in enumerate(self.spans):
            self_s[name] += end - start - child[i]
            total_s[name] += end - start
            calls[name] += 1
        return self_s, total_s, calls

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,start,end,parent,run\n")
            for i, (name, start, end, parent, run) in enumerate(self.spans):
                fh.write(f"{i},{name},{start!r},{end!r},{parent},{run}\n")


def per_layer_metrics(tracer: Tracer, import_s: float, config_load_s: float,
                      emit_bytes: int) -> dict[str, float]:
    """The per-layer metrics of one traced sample, keyed by metric name."""
    self_s, total_s, calls = tracer.layer_times()
    pickle_bytes, unpickle_s = tracer.pickle_cost()
    counts = tracer.counts
    solves = calls["game.maximize_concave"]
    return {
        "channel.fading_init_s": self_s["channel.fading_init"],
        "channel.advance_s": self_s["channel.advance"],
        "channel.advance_calls": calls["channel.advance"],
        "channel.gain_matrix_s": self_s["channel.gain_matrix"],
        "channel.generate_topology_s": self_s["channel.generate_topology"],
        "channel.fading_bytes": counts["channel.fading_bytes"],
        "link.interference_all_s": self_s["link.interference_all"],
        "link.pdr_from_sinr_s": self_s["link.pdr_from_sinr"],
        "link.pdr_from_sinr_calls": calls["link.pdr_from_sinr"],
        "game.run_stage_s": self_s["game.run_stage"],
        "npc.run_npc_stage_s": self_s["npc.run_npc_stage"],
        "game.measure_followers_s": self_s["game.measure_followers"],
        "game.class_means_s": self_s["game.class_means"],
        "game.maximize_concave_s": self_s["game.maximize_concave"],
        "game.maximize_concave_calls": solves,
        "game.br_lower": counts["game.br_lower"],
        "game.br_interior": counts["game.br_interior"],
        "game.br_upper": counts["game.br_upper"],
        "game.br_gradient_evals": counts["game.br_gradient_evals"],
        "game.outage_pair_stages": counts["game.outage_pair_stages"],
        "game.br_gradient_evals_per_solve": (
            counts["game.br_gradient_evals"] / solves if solves else 0.0),
        "harness.run_experiment_s": self_s["harness.run_experiment"],
        "harness.summarize_s": self_s["harness.summarize"],
        "harness.emit_outputs_s": self_s["harness.emit_outputs"],
        "harness.emit_bytes": emit_bytes,
        "harness.trajectory_pickle_bytes": pickle_bytes,
        "harness.trajectory_unpickle_s": unpickle_s,
        "harness.pool_wait_s": total_s["harness.run_experiment"] - total_s["harness.summarize"],
        "harness.check_epsilon_nash_s": self_s["harness.check_epsilon_nash"],
        "harness.check_pareto_convergence_s": self_s["harness.check_pareto_convergence"],
        "ubeas.import_s": import_s,
        "config.load_s": config_load_s,
        "cli.main_s": self_s["cli.main"],
    }


# Per-layer counts that do not depend on timing: two traced samples of one
# workload and seed must report them identically.
EXACT_COUNTS = (
    "channel.advance_calls", "channel.fading_bytes", "link.pdr_from_sinr_calls",
    "game.maximize_concave_calls", "game.br_lower", "game.br_interior", "game.br_upper",
    "game.br_gradient_evals", "game.outage_pair_stages", "game.br_gradient_evals_per_solve",
    "harness.emit_bytes", "harness.trajectory_pickle_bytes",
)
