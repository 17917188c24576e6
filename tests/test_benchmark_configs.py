"""The benchmark's run workloads certify cleanly.

``perfbench/workloads.py`` draws the configs the benchmark runs, and the
benchmark counts a run that exits nonzero or ends with another status as
a failed operation.  This test writes one seed-11 round of each run
workload and runs every config through the public entry point.
"""

import importlib.util
from pathlib import Path

import pytest

from isscert.cli import main

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["parabolic_2d_flux", "parabolic_1d_mixed",
                                      "dense_record_1d"])
def test_one_round_of_each_run_workload_is_ok(tmp_path, capsys, workload):
    workloads = _load_workloads()
    ops = workloads.generate(workload, 11)[:workloads.round_length(workload)]
    for op in workloads.write_configs(ops, tmp_path / "configs"):
        assert main(["run", op["config"], "--out", str(tmp_path / "out")]) == 0, op["name"]
        report = (tmp_path / "out" / op["name"] / "report.txt").read_text()
        assert report.rstrip("\n").rsplit("\n", 1)[-1] == "status=ok", op["name"]
    capsys.readouterr()
