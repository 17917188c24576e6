"""Command line interface.

Subcommands:

    run CONFIG [--out DIR]        solve a scenario, evaluate its energy and
                                  bounds, write CSVs and a plain-text report
    verify SUITE [--seed N]       run a deterministic verification suite
    list-scenarios                print the bundled scenario names

CONFIG is a YAML path or a bundled scenario name.  Output goes under
--out, the ISSCERT_OUT environment variable, or ./runs, in that order.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from . import verify  # verify reads run_plan back through this module
from .certify import check_trajectory, prepare_bound
from .config import ConfigError, bundled_names, load_config, load_plan
from .fields import csv_stream
from .glf import (dissipation_rate, dissipation_report, glf_for_parabolic,
                  glf_for_transport, glf_for_wave, wave_forcing_slack)
from .solvers import (AssumptionViolationError, RecordSizeError, ScenarioError,
                      SolverDivergedError, solve_parabolic, solve_transport,
                      solve_wave)

__all__ = ["main", "run_plan", "RunResult", "RunError"]


def _out_root(arg) -> Path:
    if arg:
        return Path(arg)
    env = os.environ.get("ISSCERT_OUT")
    if env:
        return Path(env)
    return Path("runs")


def _output_error(exc, path) -> int:
    """Report an OSError met writing path, or a file under it; exit code 2."""
    print(f"output error: {exc.filename or path}: {exc.strerror}", file=sys.stderr)
    return 2


def _stdout(text) -> int:
    """Write and flush text to stdout: 0, or 2 on an OSError (a closed pipe, a
    full device), reported, with stdout then on os.devnull for exit's flush."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return _output_error(exc, "stdout")
    return 0


def _seed(text) -> int:
    """A nonnegative integer, as numpy's seeding needs."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return int(text)


class RunError(Exception):
    """A failed run_plan stage; its text is "<solver|energy|check> error: <reason>"."""


@dataclass
class RunResult:
    """What run_plan computed: the trajectory, the energy spec and its
    GlfSeries (None without an energy section), and each check's prepared
    bound and CheckReport, in the plan's order."""

    traj: object
    spec: object
    energy: object
    bounds: list
    reports: list


# the stages' own finiteness checks decide every outcome; numpy need not warn
@np.errstate(all="ignore")
def run_plan(plan) -> RunResult:
    """Solve a plan, evaluate its energy, and prepare and check every bound.

    The one path from a plan to its checks, for ``isscert run`` and ``verify``
    alike.  It reads the stage functions from this module's globals.
    """
    solve = {"parabolic": solve_parabolic, "transport": solve_transport,
             "wave": solve_wave}[plan.pde]
    try:
        traj = solve(plan.scenario, plan.grid, plan.solver)
    except (ScenarioError, SolverDivergedError, AssumptionViolationError, RecordSizeError) as exc:
        raise RunError(f"solver error: {exc}") from exc
    stage, spec, erep, bounds, reports = "energy", None, None, [], []
    try:
        if plan.energy:
            build = {"parabolic": glf_for_parabolic, "transport": glf_for_transport,
                     "wave": glf_for_wave}[plan.pde]
            spec = build(plan.scenario, traj, **plan.energy)
            slack = (wave_forcing_slack(traj, spec, plan.scenario.f) if plan.pde == "wave"
                     else None)
            erep = dissipation_report(traj, spec, dissipation_rate(spec, plan.scenario),
                                      slack)
        stage = "check"
        for entry in plan.checks:
            bounds.append(prepare_bound(entry["kind"], traj, plan.scenario, entry["q"],
                                        entry["params"]))
            reports.append(check_trajectory(traj, entry["q"], bounds[-1], entry["tol"]))
    except (ValueError, ScenarioError, AssumptionViolationError) as exc:
        raise RunError(f"{stage} error: {exc}") from exc
    return RunResult(traj, spec, erep, bounds, reports)


def cmd_run(args) -> int:
    """Solve the plan, check it, write its outputs under --out and echo the
    report; exit 0 on status ok or not-applicable, 1 on violations, 2 on a
    config, solver, energy, check or output error.

    Everything that can fail runs before the output directory exists.  The
    run is recorded inside :func:`~isscert.fields.csv_stream`, the one way
    a trajectory's CSV gets a second writer process: a record reserved at
    _FORK_ROWS CSV rows or more on two CPUs starts it before its first
    stamp, and this waits for it after report.txt.  Every outcome, an
    exception included, leaves that process reaped and no .part file
    behind.
    """
    try:
        plan = load_plan(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out = _out_root(args.out) / plan.name
    with csv_stream() as wait_for_csv:
        try:
            res = run_plan(plan)
        except RunError as exc:
            print(exc, file=sys.stderr)
            return 2
        text, violations = _report(plan, res)
        try:
            out.mkdir(parents=True, exist_ok=True)
            res.traj.write_csv(out)
            if res.energy is not None:
                res.energy.to_csv(out / "glf.csv")
            for i, (entry, rep) in enumerate(zip(plan.checks, res.reports)):
                rep.to_csv(out / f"check{i:02d}_{entry['kind']}_q{verify._qtag(entry['q'])}.csv")
            (out / "report.txt").write_text(text)
            wait_for_csv()
        except OSError as exc:
            return _output_error(exc, out)
    if _stdout(text):
        return 2
    print(f"wrote {out}", file=sys.stderr)
    return 1 if violations else 0


def _report(plan, res) -> tuple:
    """The text of report.txt for a run of plan with result res, and the
    number of violations its checks found."""
    traj, spec, erep, reports = res.traj, res.spec, res.energy, res.reports
    results = [f"stamps={len(traj)} t_end={verify._fmt(traj.times[-1])}"]
    if erep is not None:
        excess = float(np.max(erep.vhat - erep.envelope))
        results.append(
            f"energy p={spec.p:g} rate={verify._fmt(erep.decay_rate)} "
            f"level={verify._fmt(spec.level)} max_residual={verify._fmt(erep.max_residual)} "
            f"max_envelope_excess={verify._fmt(excess)}")
    for rep in reports:
        results += [rep.summary_line(), *(f"warning {w}" for w in rep.warnings)]

    violations = sum(r.violations for r in reports)
    status = ("violations" if violations else
              "not-applicable" if any(not r.applicable for r in reports) else "ok")

    # the pure emitter: libyaml's folds long quoted strings elsewhere, moving report bytes
    text = "\n".join(
        [f"run name={plan.name}", f"pde={plan.pde}", "--- config",
         yaml.safe_dump(plan.doc, sort_keys=True, default_flow_style=False).rstrip(),
         "--- results", *results, f"status={status}"]) + "\n"
    return text, violations


def cmd_verify(args) -> int:
    # the suite writes nothing but its report, so the directory comes first
    out = _out_root(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        return _output_error(exc, out)
    lines = verify.run_suite(args.suite, args.seed)
    text = verify.render_report(args.suite, args.seed, lines)
    path = out / f"verify_{args.suite}.txt"
    try:
        path.write_text(text)
    except OSError as exc:
        return _output_error(exc, path)
    if _stdout(text):
        return 2
    print(f"wrote {path}", file=sys.stderr)
    return 0 if all(ln.passed for ln in lines) else 1


def cmd_list(args) -> int:
    return _stdout("".join(f"{name}: {load_config(name)['description']}\n"
                           for name in bundled_names()))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isscert",
        description="simulate disturbance-driven PDE scenarios and certify "
                    "their decay estimates")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="solve a scenario and check its bounds")
    p_run.add_argument("config", help="YAML config path or bundled scenario name")
    p_run.add_argument("--out", default=None, help="output directory root")
    p_run.set_defaults(fn=cmd_run)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", choices=verify.SUITES)
    p_verify.add_argument("--seed", type=_seed, default=42)
    p_verify.add_argument("--out", default=None, help="output directory root")
    p_verify.set_defaults(fn=cmd_verify)

    p_list = sub.add_parser("list-scenarios", help="print bundled scenario names")
    p_list.set_defaults(fn=cmd_list)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
