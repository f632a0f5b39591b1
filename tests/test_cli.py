import contextlib
import csv
import io
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ubeas
from ubeas import cli, harness
from ubeas.cli import main
from ubeas.config import ConfigError, GameConfig, load_config
from ubeas.link import MODULATIONS


def write_small_config(path, stages=15, reps=2):
    path.write_text(
        f"num_pairs = 6\nstages = {stages}\nrepetitions = {reps}\nseed = 11\n",
        encoding="utf-8",
    )


def test_run_writes_outputs_and_exits_zero(tmp_path, capsys):
    cfg = tmp_path / "cell.cfg"
    write_small_config(cfg)
    out = tmp_path / "out"
    code = main(["run", "--config", str(cfg), "--out", str(out), "--dump-topology"])
    assert code == 0
    for name in ("trajectory.csv", "summary.csv", "satisfaction.csv",
                 "class_power.csv", "class_pdr.csv", "long.csv", "topology.csv"):
        assert (out / name).exists(), name
    assert "casual" in capsys.readouterr().out


def test_run_rejects_invalid_config(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("z = 0\n", encoding="utf-8")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert "z" in capsys.readouterr().err


def test_run_reports_a_repetition_out_of_memory_as_a_config_error(tmp_path, capsys,
                                                                    monkeypatch):
    def exhausted(cfg, reps):
        raise MemoryError("cannot allocate the fading state")

    monkeypatch.setitem(harness.GAMES, "ubeas", exhausted)
    cfg = tmp_path / "cell.cfg"
    write_small_config(cfg)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "repetition 0: out of memory (cannot allocate the fading state)" in err
    assert "Traceback" not in err


def test_run_rejects_a_fading_state_larger_than_its_memory_limit(tmp_path, capsys, monkeypatch):
    started = []
    monkeypatch.setitem(harness.GAMES, "ubeas", lambda cfg, reps: started.append(reps))
    fading_bytes = 6 * 6 * 16 * 32   # num_pairs**2 * jakes_oscillators * 32
    monkeypatch.setattr(harness, "_memory_limit", lambda: fading_bytes - 1)
    cfg = tmp_path / "cell.cfg"
    write_small_config(cfg)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("ubeas: ")
    assert f"needs {fading_bytes} bytes" in err[0]
    assert f"the {fading_bytes - 1} bytes of memory a run may use" in err[0]
    assert started == []


def test_memory_limit_is_the_smaller_of_physical_memory_and_the_cgroup_limit(tmp_path, monkeypatch):
    v2, v1 = tmp_path / "memory.max", tmp_path / "memory.limit_in_bytes"
    monkeypatch.setattr(harness, "_CGROUP_MEMORY_LIMITS", (v2, v1))
    monkeypatch.setattr(harness.os, "sysconf", lambda name: 4096)
    physical = 4096 * 4096
    assert harness._memory_limit() == physical            # no group files
    v2.write_text("max\n")
    v1.write_text(f"{1 << 63}\n")
    assert harness._memory_limit() == physical            # no limit, either version
    v2.write_text("1000\n")
    assert harness._memory_limit() == 1000
    v2.unlink()
    v1.write_text(f"{physical + 1}\n")
    assert harness._memory_limit() == physical
    v1.write_text("2000\n")
    assert harness._memory_limit() == 2000


def test_memory_limit_is_unknown_where_neither_figure_is(tmp_path, monkeypatch):
    assert harness._memory_limit() > 0
    monkeypatch.setattr(harness, "_CGROUP_MEMORY_LIMITS", (tmp_path / "memory.max",))
    for error in (AttributeError, ValueError, OSError):
        def failing(name, error=error):
            raise error(name)

        monkeypatch.setattr(harness.os, "sysconf", failing)
        assert harness._memory_limit() is None
    monkeypatch.setattr(harness.os, "sysconf", lambda name: -1)
    assert harness._memory_limit() is None
    (tmp_path / "memory.max").write_text("3000\n")
    assert harness._memory_limit() == 3000


def test_bad_cli_usage_is_validation_error(capsys):
    assert main(["run", "--game", "checkers"]) == 1


def test_verify_nash_requires_frozen_channel(tmp_path, capsys):
    cfg = tmp_path / "cell.cfg"
    write_small_config(cfg)
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o"),
                 "--verify", "nash"])
    assert code == 1
    assert "freeze" in capsys.readouterr().err


def test_verify_nash_passes_on_frozen_run(tmp_path, capsys):
    cfg = tmp_path / "cell.cfg"
    write_small_config(cfg, stages=60, reps=1)
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o"),
                 "--freeze-fading", "--verify", "nash"])
    assert code == 0
    assert "nash verification passed" in capsys.readouterr().out


def test_verify_pareto_rejects_the_leaderless_game(tmp_path, capsys):
    # NPC has no satisfaction that could converge
    cfg = tmp_path / "cell.cfg"
    write_small_config(cfg)
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o"),
                 "--game", "npc", "--verify", "pareto"])
    assert code == 1
    assert capsys.readouterr().err.startswith("ubeas: --verify pareto")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_run_rejects_fewer_than_one_job(tmp_path, capsys, jobs):
    cfg = tmp_path / "cell.cfg"
    write_small_config(cfg)
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o"), "--jobs", jobs])
    assert code == 1
    assert capsys.readouterr().err == f"ubeas: jobs must be >= 1, got {jobs}\n"


def test_game_choices_are_the_harness_games(monkeypatch):
    monkeypatch.setattr(cli, "GAMES", {**harness.GAMES, "other": None})
    for game in ("ubeas", "npc", "other"):
        assert cli._build_parser().parse_args(["run", "--game", game]).game == game


def test_verify_pareto_fails_before_convergence(tmp_path, capsys):
    cfg = tmp_path / "cell.cfg"
    write_small_config(cfg, stages=5)
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o"),
                 "--verify", "pareto"])
    assert code == 2
    assert "verification failed" in capsys.readouterr().err


def write_fit_samples(path):
    mod = MODULATIONS["16qam"]
    lines = ["sinr,pdr"]
    for g in [0.7 + 0.1 * k for k in range(24)]:
        lines.append(f"{g},{math.exp(-((1.0 / (g * mod.a_c)) ** mod.b_c))}")
    path.write_text("\n".join(lines), encoding="utf-8")


@pytest.mark.parametrize("command", ["run", "fit"])
def test_input_that_is_not_utf8_exits_one(tmp_path, capsys, command):
    path = tmp_path / "input"
    path.write_bytes(b"num_pairs = 6\n# \xff\n")   # 0xff never occurs in UTF-8
    args = {"run": ["run", "--config", str(path), "--out", str(tmp_path / "o")],
            "fit": ["fit", "--samples", str(path)]}[command]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err == f"ubeas: {path}: not UTF-8 text (invalid start byte at byte offset 16)\n"
    assert not (tmp_path / "o").exists()


def test_fit_subcommand(tmp_path, capsys):
    samples = tmp_path / "samples.csv"
    write_fit_samples(samples)
    assert main(["fit", "--samples", str(samples)]) == 0
    out = capsys.readouterr().out
    assert "a_c = 1.383" in out
    assert "b_c = 6.565" in out


def test_import_leaves_scipy_optimize_to_fit(tmp_path):
    # a fresh interpreter, since this one has imported scipy.optimize already
    samples = tmp_path / "samples.csv"
    write_fit_samples(samples)
    code = ("import sys\n"
            "from ubeas.cli import main\n"
            "assert 'scipy.optimize' not in sys.modules\n"
            f"sys.exit(main(['fit', '--samples', {str(samples)!r}]))\n")
    src = str(Path(ubeas.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "a_c = 1.383" in proc.stdout
    assert "b_c = 6.565" in proc.stdout


def test_fit_rejects_missing_file(capsys):
    assert main(["fit", "--samples", "/nonexistent/samples.csv"]) == 1


@pytest.mark.parametrize("bad", ["inf", "nan", "1e-320", "1e150", "1e300"])
def test_fit_with_unusable_sinr_exits_one(tmp_path, capsys, bad):
    samples = tmp_path / "samples.csv"
    write_fit_samples(samples)
    with open(samples, "a", encoding="utf-8") as fh:
        fh.write(f"\n{bad},0.5\n")
    assert main(["fit", "--samples", str(samples)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("ubeas: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("bad, line", [("2.0,abc", 12), ("1.5,0.9,extra", 12), ("2.0", 12),
                                       ("1.5,0.9,extra", 1)],
                         ids=["non-number", "third-cell", "one-cell", "numeric-header"])
def test_fit_bad_row_exits_one_naming_its_line(tmp_path, capsys, bad, line):
    samples = tmp_path / "samples.csv"
    write_fit_samples(samples)
    lines = samples.read_text(encoding="utf-8").splitlines()
    samples.write_text("\n".join(lines[:line - 1] + [bad] + lines[line - 1:]), encoding="utf-8")
    assert main(["fit", "--samples", str(samples)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("ubeas: ")
    assert f"line {line}:" in err and bad in err
    assert "Traceback" not in err


def test_fit_without_header(tmp_path, capsys):
    samples = tmp_path / "samples.csv"
    write_fit_samples(samples)
    lines = samples.read_text(encoding="utf-8").splitlines()
    samples.write_text("\n".join(lines[1:]), encoding="utf-8")
    assert main(["fit", "--samples", str(samples)]) == 0
    out = capsys.readouterr().out
    assert "a_c = 1.383" in out
    assert "b_c = 6.565" in out


def test_unwritable_topology_csv_exits_one(tmp_path, capsys):
    cfg = tmp_path / "cell.cfg"
    write_small_config(cfg, stages=4, reps=1)
    out = tmp_path / "out"
    (out / "topology.csv").mkdir(parents=True)
    code = main(["run", "--config", str(cfg), "--out", str(out), "--dump-topology"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("ubeas: ")
    assert "Traceback" not in err


def test_no_arguments_is_usage_error(capsys):
    assert main([]) == 1


@pytest.mark.parametrize("config_text, extra_args", [
    ("num_pairs = 4\n", []),
    ("num_pairs = 1\n", []),
    ("cell_radius = 2\nmax_pair_distance = 2\nmin_link_distance = 1.9\nnum_pairs = 12\n", []),
    ("num_pairs = 6\n", ["--stages", "0"]),
    ("num_pairs = 6\n", ["--stages", "0", "--game", "npc"]),
    ("num_pairs = 6\nbr_tolerance = 1e-20\n", ["--game", "npc"]),
    ("num_pairs = 6\ndoppler = nan\n", []),
    ("num_pairs = 6\nw = nan\n", []),
    ("num_pairs = 6\np_max = nan\n", []),
    ("num_pairs = 6\ncell_radius = 1e200\n", []),
    ("num_pairs = 6\nnoise_power = 1e300\n", []),
    ("num_pairs = 6\nreference_distance = 5.9e-159\n", []),
    ("num_pairs = 6\npath_loss_attenuation = 1e-200\n", []),
    ("num_pairs = 6\n", ["--stages", str(10 ** 30)]),
], ids=["pairs-not-multiple-of-3", "one-pair", "crowded-cell", "zero-stages", "zero-stages-npc",
        "tolerance-below-float-spacing", "doppler-nan", "w-nan", "p_max-nan",
        "cell_radius-overflow", "noise-overflows-pdr", "reference_distance-zero-gain",
        "attenuation-zero-gain", "stages-beyond-an-array"])
def test_config_that_cannot_run_exits_one(tmp_path, capsys, config_text, extra_args):
    cfg = tmp_path / "cell.cfg"
    cfg.write_text(config_text + "stages = 4\nrepetitions = 2\n", encoding="utf-8")
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o"), *extra_args])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("ubeas: ")
    assert "Traceback" not in err
    try:
        load_config(config_text)
    except ConfigError:
        # a config validate rejects never reaches a repetition
        assert "repetition" not in err


def test_class_without_served_pair_stages_prints_without_pdr(tmp_path, capsys):
    # at this noise level every pair is in outage, so no class has a PDR mean
    cfg = tmp_path / "cell.cfg"
    cfg.write_text("noise_power = 1e-3\nnum_pairs = 6\nstages = 4\nrepetitions = 2\n",
                   encoding="utf-8")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    out = capsys.readouterr().out
    for label in ("casual", "intermediate", "serious"):
        assert f"{label}: mean power 23.00 dBm, no served pair-stages" in out


# Field draws span valid and invalid values; sizes stay small so each run
# takes milliseconds.
CONFIG_FIELDS = {
    "num_pairs": st.integers(-1, 12),
    "cell_radius": st.floats(-10.0, 1000.0),
    "max_pair_distance": st.floats(-1.0, 100.0),
    "min_link_distance": st.floats(-1.0, 20.0),
    "reference_distance": st.floats(-1.0, 100.0),
    "path_loss_exponent": st.floats(-1.0, 6.0),
    "doppler": st.floats(-0.1, 0.6),
    "jakes_oscillators": st.integers(-1, 32),
    "noise_power": st.sampled_from([-1e-13, 0.0, 1e-300, 1e-16, 1e-13, 1e-9, 1e-3, 1.0, 1e300]),
    "p_min": st.floats(-0.01, 0.3),
    "p_max": st.floats(-0.01, 0.7),
    "x_init": st.floats(-0.1, 1.2),
    "x_floor": st.floats(-0.1, 1.2),
    "q": st.floats(1.5, 6.0),
    "y": st.floats(0.5, 4.0),
    "z": st.floats(-0.1, 2.0),
    "w": st.floats(0.0, 4.0),
    "v": st.floats(-1.0, 8.0),
    "br_tolerance": st.sampled_from([0.0, 1e-20, 1e-17, 1e-12, 1e-9, 1e-4, 0.5]),
    "modulation": st.sampled_from(["qpsk", "16qam", "64qam", "bpsk"]),
    "priority_mode": st.booleans(),
    "npc_rerandomize": st.booleans(),
}


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(overrides=st.fixed_dictionaries({"stages": st.integers(-1, 4)}, optional=CONFIG_FIELDS),
       game=st.sampled_from(["ubeas", "npc"]))
def test_any_config_exits_cleanly(overrides, game):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "cell.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in overrides.items()), encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["run", "--config", str(cfg), "--game", game, "--reps", "1",
                         "--out", str(Path(tmp) / "o"), "--dump-topology"])
        if code == 1:
            assert err.getvalue().startswith("ubeas: ")
            return
        assert code == 0, err.getvalue()
        with open(Path(tmp) / "o" / "topology.csv", encoding="utf-8") as fh:
            topology = fh.read().splitlines()
        num_pairs = overrides.get("num_pairs", GameConfig().num_pairs)
        assert topology[0] == "entity,x_m,y_m,class"
        assert len(topology) == 1 + 2 + 2 * num_pairs
        with open(Path(tmp) / "o" / "summary.csv", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        values = [float(cell) for row in rows for cell in row[2:] if cell]
        assert values and all(math.isfinite(v) for v in values)
