"""Command-line interface.

``ubeas run`` drives the Monte Carlo experiment and writes the CSV outputs;
``ubeas fit`` estimates PDR model constants from a (sinr, pdr) sample file.

Exit codes: 0 success, 1 validation error, 2 verification failure when
``--verify`` is set.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import sys

from . import link
from .config import ConfigError, GameConfig, load_config_file
from .harness import (
    check_epsilon_nash,
    check_pareto_convergence,
    dump_topology_csv,
    emit_outputs,
    run_experiment,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse default exits 2; keep 2 for verify only
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ubeas", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an experiment and emit CSV outputs")
    run.add_argument("--config", help="flat key = value config file")
    run.add_argument("--game", choices=("ubeas", "npc"), default="ubeas")
    run.add_argument("--stages", type=int, help="override the number of stages T")
    run.add_argument("--reps", type=int, help="override the number of repetitions")
    run.add_argument("--seed", type=int, help="override the RNG seed")
    run.add_argument("--priority", choices=("on", "off"),
                     help="per-class target PDRs 0.90/0.94/0.98 when on")
    run.add_argument("--out", default="out", help="output directory (default: ./out)")
    run.add_argument("--freeze-fading", action="store_true",
                     help="zero Doppler: the channel is constant within a repetition")
    run.add_argument("--verify", choices=("nash", "pareto", "none"), default="none",
                     help="audit repetition 0 after the run")
    run.add_argument("--jobs", type=int, default=1, help="parallel repetition workers")
    run.add_argument("--dump-topology", action="store_true",
                     help="also write repetition 0's layout as topology.csv")

    fit = sub.add_parser("fit", help="fit PDR constants (a_c, b_c) to samples")
    fit.add_argument("--samples", required=True,
                     help="CSV file with columns sinr,pdr (header optional)")
    return parser


def _load_cfg(args) -> GameConfig:
    cfg = load_config_file(args.config) if args.config else GameConfig()
    overrides = {}
    if args.stages is not None:
        overrides["stages"] = args.stages
    if args.reps is not None:
        overrides["repetitions"] = args.reps
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.priority is not None:
        overrides["priority_mode"] = args.priority == "on"
    if args.freeze_fading:
        overrides["doppler"] = 0.0
    if overrides:
        cfg = dataclasses.replace(cfg, **overrides)
    return cfg


def _cmd_run(args) -> int:
    try:
        cfg = _load_cfg(args)
        if args.verify == "nash" and cfg.doppler != 0.0:
            raise ConfigError("--verify nash requires --freeze-fading (a frozen channel)")
        if args.jobs < 1:
            raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
        summary, trajectories = run_experiment(cfg, game=args.game, jobs=args.jobs)
        files = emit_outputs(summary, trajectories, args.out)
        if args.dump_topology:
            files.append(dump_topology_csv(trajectories[0].topology, f"{args.out}/topology.csv"))
    except (ConfigError, OSError) as exc:
        print(f"ubeas: {exc}", file=sys.stderr)
        return 1
    for path in files:
        print(f"wrote {path}")
    for behavior, dbm in summary.mean_power_dbm.items():
        pdr = summary.mean_pdr.get(behavior)
        served = f"mean PDR {pdr:.4f}" if pdr is not None else "no served pair-stages"
        print(f"{behavior.label}: mean power {dbm:.2f} dBm, {served}")

    if args.verify == "nash":
        traj = trajectories[0]
        report = check_epsilon_nash(traj.records[-1], traj.final_gains, cfg)
        if not report.passed:
            print(f"verification failed: follower {report.worst_follower} can gain "
                  f"{report.worst_gain:.3e} (leader ok: {report.leader_ok})", file=sys.stderr)
            return 2
        print(f"nash verification passed (worst gain {report.worst_gain:.3e})")
    elif args.verify == "pareto":
        report = check_pareto_convergence(trajectories[0])
        if not (report.converged and report.minimality_ok):
            print(f"verification failed: converged={report.converged} "
                  f"minimal={report.minimality_ok}", file=sys.stderr)
            return 2
        print(f"pareto verification passed (converged at stage {report.convergence_stage})")
    return 0


def _cmd_fit(args) -> int:
    try:
        samples = []
        with open(args.samples, "r", encoding="utf-8", newline="") as fh:
            rows = csv.reader(fh)
            header_allowed = True
            for row in rows:
                if not any(cell.strip() for cell in row):
                    continue
                try:
                    sinr, pdr = map(float, row)
                    samples.append((sinr, pdr))
                except ValueError:
                    if not header_allowed:   # only the first non-blank row may be a header
                        raise link.FitError(f"line {rows.line_num}: expected two numbers "
                                            f"sinr,pdr, got {','.join(row)!r}") from None
                header_allowed = False
        a_c, b_c = link.fit_pdr_params(samples)
    except (OSError, link.FitError) as exc:
        print(f"ubeas: {exc}", file=sys.stderr)
        return 1
    a = -((1.0 / a_c) ** b_c)
    b = -b_c
    print(f"a_c = {a_c:.6f}")
    print(f"b_c = {b_c:.6f}")
    print(f"a = {a:.6g}")
    print(f"b = {b:.6g}")
    return 0


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.command == "run":
        return _cmd_run(args)
    return _cmd_fit(args)


if __name__ == "__main__":
    raise SystemExit(main())
