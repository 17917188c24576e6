"""The benchmark's tracing hooks still find every name they wrap.

``perfbench/tracing.py`` replaces functions by name on ``isscert``'s
modules, so renaming one of them in ``src`` breaks traced benchmark runs.
These tests install the hooks, run traced parabolic, wave and transport
runs, and undo them.  A parabolic trajectory's meta carries no step
count, so the benchmark replays the time loop (``parabolic_steps``) for
``solvers.steps``; a test checks that replay against the solver's own
count.
"""

import importlib.util
from pathlib import Path

import pytest

import isscert.certify
import isscert.cli
import isscert.fields
import isscert.glf
import isscert.verify
from isscert.cli import main
from isscert.config import bundled_names, load_plan
from isscert.solvers import solve_parabolic

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
WORKLOADS = TRACING.with_name("workloads.py")
PATCHED = (isscert.certify, isscert.cli, isscert.glf, isscert.verify,
           isscert.fields.Trajectory)


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_tracing():
    return _load("perfbench_tracing", TRACING)


def test_tracing_hooks_install_and_undo():
    tracing = _load_tracing()
    before = [dict(vars(owner)) for owner in PATCHED]
    undo = tracing.install(tracing.Tracer())
    try:
        assert isscert.glf.invert_monotone.__wrapped__ is before[2]["invert_monotone"]
        assert isscert.cli.solve_parabolic.__wrapped__ is before[1]["solve_parabolic"]
    finally:
        undo()
    for owner, saved in zip(PATCHED, before):
        assert dict(vars(owner)) == saved


def _plain_and_traced(tmp_path, scenario):
    """Run a bundled scenario untraced, then traced; return the two output
    directories and the tracer."""
    tracing = _load_tracing()
    assert main(["run", scenario, "--out", str(tmp_path / "plain")]) == 0
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        assert main(["run", scenario, "--out", str(tmp_path / "traced")]) == 0
    finally:
        undo()
    return tmp_path / "plain" / scenario, tmp_path / "traced" / scenario, tracer


def test_traced_run_matches_untraced(tmp_path, capsys):
    plain, traced, tracer = _plain_and_traced(tmp_path, "parabolic_demo")
    capsys.readouterr()
    for name in ("report.txt", "glf.csv", "trajectory.csv"):
        assert (traced / name).read_bytes() == (plain / name).read_bytes()
    names = {span[0] for span in tracer.spans}
    assert {"config.load_plan", "solvers.solve", "glf.level", "comparison.invert",
            "signals.sup_field", "certify.check_trajectory", "fields.write_csv"} <= names
    solve = next(span for span in tracer.spans if span[0] == "solvers.solve")
    assert solve[5]["flux_calls"] > 0


@pytest.mark.parametrize("scenario, spans", [
    ("wave_demo", {"glf.level", "glf.forcing_slack"}), ("transport_global", {"glf.level"}),
    ("parabolic_2d_demo", {"glf.level"})])
def test_traced_run_files_match_untraced(tmp_path, capsys, scenario, spans):
    # the hyperbolic runs reach glf_for_wave or glf_for_transport, and
    # wave_forcing_slack, through cli; the 2-D run hands the counting flux
    # law the stacked closures' arrays, one entry per line
    plain, traced, tracer = _plain_and_traced(tmp_path, scenario)
    capsys.readouterr()
    names = sorted(p.name for p in plain.iterdir())
    assert names == sorted(p.name for p in traced.iterdir())
    for name in names:
        assert (traced / name).read_bytes() == (plain / name).read_bytes()
    assert spans <= {span[0] for span in tracer.spans}


def test_traced_verify_all_matches_untraced(tmp_path, capsys):
    # the benchmark's traced verify_all compares these two reports' digests;
    # every plan-driven verify line goes through cli.run_plan, so its solves
    # are traced inside their suite's span
    tracing = _load_tracing()
    argv = ["verify", "all", "--seed", "0", "--out"]
    assert main([*argv, str(tmp_path / "plain")]) == 0
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        assert main([*argv, str(tmp_path / "traced")]) == 0
    finally:
        undo()
    capsys.readouterr()
    plain, traced = (tmp_path / d / "verify_all.txt" for d in ("plain", "traced"))
    assert traced.read_bytes() == plain.read_bytes()

    def suite(span):
        while span[3] != -1:
            span = tracer.spans[span[3]]
        return span[0]

    solves = [span for span in tracer.spans if span[0] == "solvers.solve"]
    assert {suite(span) for span in solves} == {
        "verify.suite.parabolic", "verify.suite.transport", "verify.suite.wave"}


def test_the_benchmark_replays_every_parabolic_step_count(tmp_path):
    # every bundled parabolic demo and every config of one seed-11 round of
    # the parabolic workloads: parabolic_steps, which solvers.steps counts,
    # must agree with the time loop; on these runs t_end is a whole number
    # of steps, so none is cut and each sweep factors its band once
    tracing, workloads = _load_tracing(), _load("perfbench_workloads", WORKLOADS)
    plans = [plan for plan in map(load_plan, bundled_names()) if plan.pde == "parabolic"]
    for workload in ("parabolic_2d_flux", "parabolic_1d_mixed"):
        ops = workloads.generate(workload, 11)[:workloads.round_length(workload)]
        plans += [load_plan(op["config"])
                  for op in workloads.write_configs(ops, tmp_path / workload)]
    assert len(plans) == 13
    for plan in plans:
        counters = solve_parabolic(plan.scenario, plan.grid, plan.solver).counters
        cfg = plan.solver
        assert counters["steps"] == tracing.parabolic_steps(cfg.t_end, cfg.dt), plan.name
        assert counters["band_factorizations"] == plan.grid.dim, plan.name
