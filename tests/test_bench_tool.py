"""``tools/bench.py`` counts a pair as won in each metric's own sense, marks a
metric resolved only where its runs can tell a change of the metric's bound,
reads each side's src line count from its runs, its output digest covers
every byte and path of a run's files, and its grid-size sweep solves copies
of the bundled configs at each grid size."""

import importlib.util
import os
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


def test_src_lines_are_read_per_side_from_the_runs():
    bench = _load_bench()
    runs = [{**_run(i, side, 10.0, 0.1), "info": {"repo.src_lines": lines}}
            for i, (side, lines) in enumerate([("change", 4040), ("parent", 4052),
                                               ("parent", 4052), ("change", 4040)])]
    assert bench.src_lines(runs) == {"parent": 4052, "change": 4040}


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
    assert point["point_step_min_s"] == min(point["solve_s"]) / (750 * 17) > 0


def test_sweep_summary_puts_the_least_solve_beside_the_median():
    bench = _load_bench()
    # each side's medians straddle the host's two speeds, its least solves do not
    points = [{"config": "c", "n": 16, "side": side, "steps": 10, "points": 17,
               "point_step_s": median, "point_step_min_s": least}
              for side, median, least in (("parent", 3.0, 1.0), ("change", 2.0, 0.9),
                                          ("change", 4.0, 0.8), ("parent", 5.0, 1.2),
                                          ("parent", 4.0, 1.1), ("change", 3.0, 0.7))]
    summary = bench.summarize_sweep(points + [{**p, "n": 32} for p in points[:2]])
    assert list(summary) == ["c n=16", "c n=32"]
    row = summary["c n=16"]
    assert (row["steps"], row["points"]) == (10, 17)
    assert (row["parent"]["median"], row["change"]["median"]) == (4.0, 3.0)
    least = row["point_step_min_s"]
    assert (least["parent"]["median"], least["change"]["median"]) == (1.1, 0.8)
    assert least["parent"]["n"] == least["change"]["n"] == 3


def test_wall_peak_covers_the_processes_a_command_forks():
    bench = _load_bench()
    root = BENCH.parents[1]
    # a child that holds 40 MB more than its parent ever does, reaped before the parent exits
    forks = "import os\npid = os.fork()\nif pid == 0:\n    b = b'x' * (40 << 20)\n    os._exit(0)\nos.waitpid(pid, 0)\n"
    forked, alone = bench.wall(root, ["-c", forks]), bench.wall(root, ["-c", "pass"])
    assert forked["exit"] == alone["exit"] == 0
    assert forked["peak_rss_mb"] > alone["peak_rss_mb"] + 30


def test_memory_reports_the_run_and_its_csv_writer():
    bench = _load_bench()
    root = BENCH.parents[1]
    # wave_demo's CSVs have 107 736 rows, so a two-CPU host forks their writer
    forked = bench.memory(root, ["run", "wave_demo"])
    serial = bench.memory(root, ["run", "transport_steady"])
    assert forked["exit"] == serial["exit"] == 0
    assert forked["run_mb"] > 0 and serial["writer_mb"] == 0
    assert (forked["writer_mb"] > 0) == (len(os.sched_getaffinity(0)) >= 2)
