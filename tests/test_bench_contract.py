"""The names the benchmark under bench/ looks up in ubeas still exist.

bench/tracing.py rebinds every TRACED_CALLS entry and unpacks the leading
arguments of FadingState, and bench/sample.py passes the last StageRecord of a
trajectory to check_epsilon_nash.  Only a traced benchmark run, which takes
minutes, exercises them otherwise.
"""

import importlib
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

import ubeas
from ubeas import harness, link
from ubeas.channel import FadingState
from ubeas.config import GameConfig
from ubeas.game import StageRecord, run_game, run_games

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_call_resolves_to_an_attribute():
    calls = load_tracing().TRACED_CALLS
    assert calls
    for module_name, attr, _span in calls:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            assert hasattr(owner, part), (module_name, attr)
            owner = getattr(owner, part)
        assert callable(owner), (module_name, attr)


def test_nash_check_takes_the_last_record_as_the_benchmark_passes_it():
    cfg = GameConfig(num_pairs=6, stages=30, repetitions=1, doppler=0.0)
    traj = run_game(cfg)
    record = traj.records[-1]
    assert isinstance(record, StageRecord) and record.t == cfg.stages
    report = harness.check_epsilon_nash(record, traj.final_gains, cfg,
                                        epsilon=1e-6, grid_points=10)
    assert len(report.follower_gains) == cfg.num_pairs
    assert report.leader_ok


def test_fading_init_starts_with_the_arguments_the_tracer_unpacks():
    # Tracer._fading_bytes reads (self, shape, n_osc) from args[:3]
    params = list(inspect.signature(FadingState.__init__).parameters)
    assert params[:3] == ["self", "shape", "n_osc"]


def test_import_leaves_multiprocessing_out():
    # reference's peak RSS includes whatever `import ubeas` loads; a fresh
    # interpreter, since this one may have imported multiprocessing already
    code = ("import sys\n"
            "import ubeas\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'multiprocessing'))\n")
    src = str(Path(ubeas.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_the_engine_measures_through_the_traced_link_functions(monkeypatch):
    # The tracer's link.* spans count calls to these module attributes, so the
    # stage engine must look them up there rather than keep its own copies.
    calls = {"pdr_from_sinr": 0, "interference_all": 0}
    for name in calls:
        fn = getattr(link, name)

        def counted(*args, _fn=fn, _name=name):
            calls[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(link, name, counted)
    m, t, r = 6, 5, 2
    cfg = GameConfig(num_pairs=m, stages=t, repetitions=r)
    assert cfg.doppler > 0.0   # a fading channel: no stage repeats the last one
    run_games(cfg, range(r))
    assert calls == {"pdr_from_sinr": r * t * m, "interference_all": 2 * t}
