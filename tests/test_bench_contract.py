"""The names the benchmark under bench/ looks up in ubeas still exist.

bench/tracing.py rebinds every TRACED_CALLS entry, and bench/sample.py passes
the last StageRecord of a trajectory to check_epsilon_nash.  Only a traced
benchmark run, which takes minutes, exercises them otherwise.
"""

import importlib
import importlib.util
from pathlib import Path

from ubeas import harness
from ubeas.config import GameConfig
from ubeas.game import StageRecord, run_game

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
