"""``tools/bench.py`` counts a pair as won in each metric's own sense, marks a
metric resolved only where its runs can tell a change of the metric's bound,
its output digest covers every byte and path of a run's files, and its
grid-size sweep solves copies of the bundled configs at each grid size."""

import importlib.util
import statistics
from pathlib import Path

from isscert.config import load_plan

BENCH = Path(__file__).resolve().parents[1] / "tools" / "bench.py"


def _load_bench():
    spec = importlib.util.spec_from_file_location("tools_bench", BENCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(pair, side, rate, p50):
    return {"workload": "w", "side": side, "pair": pair, "trace": 0, "failed": 0,
            "digests_match": True, "metrics": {"certs_per_s": rate, "cert_s_p50": p50}}


def test_summary_counts_wins_by_the_metric_sense():
    bench = _load_bench()
    runs = [_run(0, "parent", 10.0, 0.10), _run(0, "change", 11.0, 0.09),
            _run(1, "change", 12.0, 0.12), _run(1, "parent", 12.0, 0.11),
            _run(2, "parent", 9.0, 0.10), _run(2, "change", 8.0, 0.08),
            _run(3, "parent", 9.0, 0.10)]  # an unfinished pair is left out
    row = bench.summarize(runs, {"certs_per_s": "higher", "cert_s_p50": "lower"})["w"]
    assert row["pairs"] == 3 and row["failed"] == 0 and row["digests_differ"] == 0
    rate, p50 = row["certs_per_s"], row["cert_s_p50"]
    assert rate["change_better"] == 1  # a tie counts for neither side
    assert p50["change_better"] == 2
    assert (rate["parent"]["median"], rate["change"]["median"]) == (10.0, 11.0)
    assert abs(rate["median_change"] - 0.1) < 1e-12


def test_a_metric_is_resolved_by_a_tight_parent_or_a_clean_separation():
    bench = _load_bench()
    # certs_per_s: the parent's quartiles spread 30 % of its median, and the
    # sides overlap; cert_s_p50: as wide, but every change run is faster
    rates = [(8.0, 12.0), (10.0, 9.0), (12.0, 11.0), (10.0, 10.0)]
    p50s = [(0.08, 0.07), (0.10, 0.06), (0.12, 0.05), (0.10, 0.07)]
    runs = [run for i, ((rate_p, rate_c), (p50_p, p50_c)) in enumerate(zip(rates, p50s))
            for run in (_run(i, "parent", rate_p, p50_p), _run(i, "change", rate_c, p50_c))]
    better = {"certs_per_s": "higher", "cert_s_p50": "lower"}
    wide = bench.summarize(runs, better, bounds={"certs_per_s": 0.2, "cert_s_p50": 0.2})["w"]
    assert wide["certs_per_s"]["resolved"] is False
    assert wide["cert_s_p50"]["resolved"] is True
    tight = bench.summarize(runs, better, bounds={"certs_per_s": 0.5})["w"]
    assert tight["certs_per_s"]["resolved"] is True
    assert "resolved" not in tight["cert_s_p50"]  # no bound, no verdict


def _tree(root, files):
    for name, data in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
    return root


def test_output_digest_covers_every_byte_and_path(tmp_path):
    bench = _load_bench()
    files = {"run/trajectory.csv": b"t,y1,y2,value\n0.0,0.0,0.0,1.0\n",
             "run/report.txt": b"status=certified\n", "verify_all.txt": b"ok\n"}
    digest = bench.tree_sha256(_tree(tmp_path / "a", files))
    assert bench.tree_sha256(_tree(tmp_path / "b", files)) == digest
    changed = dict(files, **{"run/trajectory.csv": files["run/trajectory.csv"][:-2] + b"2\n"})
    assert bench.tree_sha256(_tree(tmp_path / "c", changed)) != digest
    renamed = {("run/trajectory_u.csv" if k == "run/trajectory.csv" else k): v
               for k, v in files.items()}
    assert bench.tree_sha256(_tree(tmp_path / "d", renamed)) != digest


def test_sweep_solves_each_bundled_config_at_each_grid_size(tmp_path):
    bench = _load_bench()
    root = BENCH.parents[1]
    paths = bench.sweep_configs(root, tmp_path)
    assert list(paths) == [(name, n) for name, sizes in bench.SWEEP.items() for n in sizes]
    for (name, n), path in paths.items():
        plan = load_plan(str(path))
        assert plan.name == name and plan.grid.cells == (n,) * plan.grid.dim
    point = bench.sweep_point(root, paths["parabolic_demo", 16], solves=2)
    assert (point["steps"], point["points"]) == (750, 17) and len(point["solve_s"]) == 2
    assert point["point_step_s"] == statistics.median(point["solve_s"]) / (750 * 17) > 0
