"""The benchmark's run workloads certify cleanly, and their rounds keep
their bytes.

``perfbench/workloads.py`` draws the configs the benchmark runs, and the
benchmark counts a run that exits nonzero or ends with another status as
a failed operation.  This test writes one seed-11 round of each run
workload and runs every config through the public entry point.

``data/benchmark_round_sha256.txt`` holds, in ``sha256sum`` format, the
SHA-256 of every file those runs write, under ``<workload>/``: the golden
list covers only the bundled demos' corner of parameter space.  The
parabolic rounds reach flux ends on 1-D lines of 160-240 points and 2-D
stacks of 32-64 lines; the ``dense_record_1d`` round (transport and wave,
every step recorded) evaluates its time signals at every step, through
the boundary data d(t) and separable forcing.  The list was
recorded with Python 3.11.7, numpy 2.4.6 and scipy 1.17.1; another
toolchain may round a float differently, and then this test reports the
files whose hash moved.
"""

import hashlib
import importlib.util
import statistics
from pathlib import Path

import pytest

from isscert.cli import main
from isscert.config import load_plan
from isscert.solvers import solve_parabolic

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
ROUND_SHA256 = Path(__file__).parent / "data" / "benchmark_round_sha256.txt"
PINNED = ("parabolic_2d_flux", "parabolic_1d_mixed", "dense_record_1d")


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def round_digests(workload, root):
    """{path under workload/: SHA-256} of every file one seed-11 round of
    workload writes under root/out; each run must certify."""
    workloads = _load_workloads()
    ops = workloads.generate(workload, 11)[:workloads.round_length(workload)]
    out = root / "out"
    for op in workloads.write_configs(ops, root / "configs"):
        assert main(["run", op["config"], "--out", str(out)]) == 0, op["name"]
        report = (out / op["name"] / "report.txt").read_text()
        assert report.rstrip("\n").rsplit("\n", 1)[-1] == "status=ok", op["name"]
    return {f"{workload}/{p.relative_to(out).as_posix()}":
            hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", ["parabolic_2d_flux", "parabolic_1d_mixed",
                                      "dense_record_1d"])
def test_one_round_of_each_run_workload_is_ok(tmp_path, capsys, workload):
    actual = round_digests(workload, tmp_path)
    capsys.readouterr()
    if workload in PINNED:
        expected = dict(reversed(line.split())
                        for line in ROUND_SHA256.read_text().splitlines()
                        if line.split()[1].startswith(f"{workload}/"))
        assert actual == expected


@pytest.mark.parametrize("workload", ["parabolic_2d_flux", "parabolic_1d_mixed"])
def test_flux_closures_take_few_law_calls(tmp_path, workload):
    # the perf guard of the flux closure, by count rather than time: over
    # one seed-11 round, the median law calls per flux end and closure are
    # at most 6 (bisection took about 37)
    workloads = _load_workloads()
    ops = workloads.generate(workload, 11)[:workloads.round_length(workload)]
    ratios = []
    for op in workloads.write_configs(ops, tmp_path / "configs"):
        plan = load_plan(op["config"])
        counters = solve_parabolic(plan.scenario, plan.grid, plan.solver).counters
        assert counters["closure_error"] <= plan.solver.bc_tol, op["name"]
        ratios.append(counters["flux_law_calls"] / counters["closures"])
    assert len(ratios) == len(ops) and statistics.median(ratios) <= 6.0
