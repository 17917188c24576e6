"""Self-tests of the benchmark harness.

Run from the repository root:  python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from isscert.config import build_plan  # noqa: E402
from isscert.solvers import solve_parabolic  # noqa: E402

RUN_WORKLOADS = [w for w in workloads.WHY if w != "verify_all"]


@pytest.mark.parametrize("workload", list(workloads.WHY))
def test_generator_is_deterministic(workload, tmp_path):
    first = workloads.write_configs(workloads.generate(workload, 5), tmp_path / "a")
    second = workloads.write_configs(workloads.generate(workload, 5), tmp_path / "b")
    other = workloads.generate(workload, 6)
    assert [op["name"] for op in first] == [op["name"] for op in second]
    for a, b in zip(first, second):
        if a["kind"] == "run":
            assert Path(a["config"]).read_bytes() == Path(b["config"]).read_bytes()
        else:
            assert a == b
    assert [op.get("yaml", op.get("seed")) for op in other] != \
        [op.get("yaml", op.get("seed")) for op in workloads.generate(workload, 5)]


@pytest.mark.parametrize("workload", RUN_WORKLOADS)
@pytest.mark.parametrize("seed", [0, 1])
def test_every_generated_config_builds(workload, seed):
    ops = workloads.generate(workload, seed)
    sizes = set()
    for op in ops:
        plan = build_plan(yaml.safe_load(op["yaml"]))
        sizes.add(getattr(plan.grid, "nx", None) or plan.grid.n)
    assert sizes == set(workloads.GRID_SIZES[workload])


def test_metric_tables_match_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in bench["workloads"]} == set(workloads.WHY)
    for w in bench["workloads"]:
        assert w["why"] == workloads.WHY[w["name"]]
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER


def test_parabolic_step_replay_matches_the_solver():
    doc = yaml.safe_load(workloads.generate("parabolic_1d_mixed", 3)[0]["yaml"])
    doc["solver"].update({"t_end": 0.0105, "dt": 0.002, "output_stride": 1})
    plan = build_plan(doc)
    traj = solve_parabolic(plan.scenario, plan.grid, plan.solver)
    assert tracing.parabolic_steps(0.0105, 0.002) == len(traj) - 1 == 6


def test_flux_nodes_counts_the_closed_boundary_nodes():
    plan = build_plan(yaml.safe_load(workloads.generate("parabolic_2d_flux", 3)[0]["yaml"]))
    # flux on bottom and top, Dirichlet columns at both ends: 2 per column
    assert tracing.flux_nodes(plan.scenario, plan.grid) == 2 * (plan.grid.nx - 1)


def test_tail_has_ten_values_beyond_it():
    value, pct = run.tail(list(range(1, 41)), 40)
    assert value == 30 and pct == 75.0
    # a longer run keeps the percentile of the shortest one allowed
    value, pct = run.tail(list(range(1, 81)), 40)
    assert value == 60 and pct == 75.0


@pytest.mark.parametrize("workload", list(workloads.WHY))
def test_min_ops_leaves_a_tail_and_whole_rounds(workload):
    for seconds in (0, 5, 20):
        n = workloads.min_ops(workload, seconds)
        assert n > workloads.TAIL_BEYOND
        assert n % workloads.round_length(workload) == 0


def test_self_time_subtracts_direct_children():
    spans = [["op", 0.0, 10.0, -1, 0, None], ["a", 1.0, 4.0, 0, 0, None],
             ["b", 2.0, 3.0, 1, 0, None], ["c", 5.0, 6.0, 0, 0, None]]
    assert run.self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_printed_metrics_match_benchmark_json(trace):
    proc = _bench("--workload", "dense_record_1d", "--seed", "2", "--seconds", "0",
                  "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    table = bench["per_layer"] if trace == "1" else bench["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in table}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "verify_all", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
