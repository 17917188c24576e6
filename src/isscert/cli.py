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
import math
import os
import sys
from pathlib import Path

import numpy as np
import yaml

from .certify import check_trajectory, prepare_bound
from .config import ConfigError, load_plan
from .glf import (dissipation_rate, dissipation_report, glf_for_parabolic,
                  glf_for_transport, glf_for_wave, wave_forcing_slack)
from .scenarios import scenario_lines
from .solvers import (AssumptionViolationError, ScenarioError,
                      SolverDivergedError, solve_parabolic, solve_transport,
                      solve_wave)
from .verify import SUITES, render_report, run_suite

__all__ = ["main"]


def _fmt(x) -> str:
    return f"{float(x):.12e}"


def _out_root(arg) -> Path:
    if arg:
        return Path(arg)
    env = os.environ.get("ISSCERT_OUT")
    if env:
        return Path(env)
    return Path("runs")


def _solve(plan):
    if plan.pde == "parabolic":
        return solve_parabolic(plan.scenario, plan.grid, plan.solver)
    if plan.pde == "transport":
        return solve_transport(plan.scenario, plan.grid, plan.solver)
    return solve_wave(plan.scenario, plan.grid, plan.solver)


def _energy_report(plan, traj):
    if not plan.energy:
        return None, None
    p = plan.energy["p"]
    horizon = plan.solver.t_end
    slack = None
    if plan.pde == "parabolic":
        spec = glf_for_parabolic(plan.scenario, p, horizon)
    elif plan.pde == "transport":
        spec = glf_for_transport(plan.scenario, p, horizon, plan.energy.get("rate"))
    else:
        spec = glf_for_wave(plan.scenario, p, horizon, plan.energy["rate"],
                            plan.energy.get("eps"))
        slack = wave_forcing_slack(traj, spec, plan.scenario.f)
    rate = dissipation_rate(spec, plan.scenario)
    return spec, dissipation_report(traj, spec, rate, slack)


def _qtag(q) -> str:
    return "inf" if q == math.inf else f"{q:g}"


def cmd_run(args) -> int:
    try:
        plan = load_plan(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        traj = _solve(plan)
    except (ScenarioError, SolverDivergedError, AssumptionViolationError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 2
    out = _out_root(args.out) / plan.name
    out.mkdir(parents=True, exist_ok=True)

    traj.write_csv(out)
    results = [f"stamps={len(traj)} t_end={_fmt(traj.times[-1])}"]
    spec, erep = _energy_report(plan, traj)
    if erep is not None:
        erep.to_csv(out / "glf.csv")
        excess = float(np.max(erep.vhat - erep.envelope))
        results.append(
            f"energy p={spec.p:g} rate={_fmt(erep.decay_rate)} "
            f"level={_fmt(spec.level)} max_residual={_fmt(erep.max_residual)} "
            f"max_envelope_excess={_fmt(excess)}")

    reports = []
    for i, entry in enumerate(plan.checks):
        try:
            bound = prepare_bound(entry["kind"], traj, plan.scenario,
                                  entry["q"], entry["params"])
        except (ValueError, ScenarioError) as exc:
            print(f"check error: {exc}", file=sys.stderr)
            return 2
        rep = check_trajectory(traj, entry["q"], bound, entry["tol"])
        rep.to_csv(out / f"check{i:02d}_{entry['kind']}_q{_qtag(entry['q'])}.csv")
        reports.append(rep)
        results.append(rep.summary_line())
        for w in rep.warnings:
            results.append(f"warning {w}")

    violations = sum(r.violations for r in reports)
    if violations:
        status = "violations"
    elif any(not r.applicable for r in reports):
        status = "not-applicable"
    else:
        status = "ok"

    text = "\n".join(
        [f"run name={plan.name}", f"pde={plan.pde}", "--- config",
         yaml.safe_dump(plan.doc, sort_keys=True, default_flow_style=False).rstrip(),
         "--- results", *results, f"status={status}"]) + "\n"
    (out / "report.txt").write_text(text)
    sys.stdout.write(text)
    print(f"wrote {out}", file=sys.stderr)
    return 1 if violations else 0


def cmd_verify(args) -> int:
    lines = run_suite(args.suite, args.seed)
    text = render_report(args.suite, args.seed, lines)
    out = _out_root(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"verify_{args.suite}.txt"
    path.write_text(text)
    sys.stdout.write(text)
    print(f"wrote {path}", file=sys.stderr)
    return 0 if all(ln.passed for ln in lines) else 1


def cmd_list(args) -> int:
    for line in scenario_lines():
        print(line)
    return 0


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
    p_verify.add_argument("suite", choices=SUITES)
    p_verify.add_argument("--seed", type=int, default=42)
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
