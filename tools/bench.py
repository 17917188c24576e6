"""Benchmark a commit against its parent and write one BENCH_<tag>.json.

Usage (from the repository root):

    python3 tools/bench.py --out BENCH_23.json [--change REV]

``--change`` (default HEAD) names the commit measured, and its first
parent is the baseline.  Both commits are exported with ``git archive``
under ``.bench_build/`` and run the ``perfbench/run.py`` of their own
tree, in alternation, the side that goes first switching from pair to
pair, at seed 11 and 8 s a run:

- ten pairs of ``--trace 0`` runs on every workload in BENCHMARK.json;
- two pairs of ``--trace 1`` runs on every workload, for the per-layer
  metrics (``config.load_plan_s`` among them) of both sides;
- the wall time of ``isscert run NAME`` for every bundled scenario, of
  ``isscert verify all``, and of ``python -c "import isscert.cli"`` as
  the import layer, each in a fresh interpreter, three alternating times a
  side, with the host-speed probe taken before each.  Each wall run
  starts in an empty directory and writes its outputs there; the digests
  of its stdout and of every file it left there are recorded, so equal
  digests on both sides show equal output bytes, CSVs included.  Each
  wall run also records its peak resident set over its process tree
  (``os.wait4`` in a small launcher process): the largest peak of the
  interpreter and of every process it forked and reaped, the CSV writer
  included;
- the memory of each ``isscert run NAME``, in a fresh interpreter that
  calls ``isscert.cli.main`` itself, once a side: its own peak resident
  set and that of the largest process it forked and reaped, the CSV
  writer, which counts the pages it shares with the run copy-on-write;
- a grid-size sweep: solve seconds per point-step (one grid node through
  one step) of ``parabolic_demo`` at n = 16 to 256 cells and of
  ``parabolic_2d_demo`` at n = 16 to 64 cells an axis.  Both sides solve
  the same copies of the bundled configs, written with that grid, each in
  a fresh interpreter, three alternating times a side; a point is the
  median of five solves after an untimed one, so imports and first
  factorisations stay out of it.  A point also records the least of its
  five (``point_step_min_s``), summarised beside the median: the host
  runs at two speeds, and the least solve is the one least likely to
  straddle a change between them.

The file holds the two commits, each side's lines of ``src/**/*.py``
(``src_lines``), the host, the versions, every run's metrics and raw info
line, every wall time and sweep point, and a summary per workload and
trace setting, wall command and sweep point: each side's median and
quartiles, and for the runs the pairs the change won.  An end-to-end
metric is marked resolved when the parent's quartile spread, over its
median, is within the metric's BENCHMARK.json bound, or when every change
run reads better than every parent run.  A pair whose two runs wrote
different report digests is recorded as such.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import shlex
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

import numpy
import scipy
import yaml

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import hostspeed  # noqa: E402

RUN_TIMEOUT_S = 600
WALL_TIMEOUT_S = 120
SEED = 11
SECONDS = 8.0
PAIRS = 10
TRACED_PAIRS = 2
WALL_REPEATS = 3
# the bundled configs swept, with their cells an axis, and the solves timed a point
SWEEP = {"parabolic_demo": (16, 32, 64, 128, 256), "parabolic_2d_demo": (16, 32, 64)}
SWEEP_SOLVES = 5

# Starts python with the arguments after its first two, in a process forked
# from this small interpreter rather than from the bench: a process's peak
# resident set counts the image it was forked from, so a command started
# from the bench (numpy and scipy loaded) could never read below the bench's
# own.  It writes the wall seconds, the exit code and the peak over the
# command's process tree from wait4 to the file its first argument names,
# and kills the command after its second argument's seconds.
_LAUNCHER = """\
import json, os, signal, sys, time
t0 = time.perf_counter()
pid = os.fork()
if pid == 0:
    try:
        os.execv(sys.executable, [sys.executable, *sys.argv[3:]])
    finally:
        os._exit(127)
signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
signal.alarm(int(sys.argv[2]))
_, status, usage = os.wait4(pid, 0)
elapsed = time.perf_counter() - t0
with open(sys.argv[1], "w") as fh:
    json.dump({"wall_s": elapsed, "exit": os.waitstatus_to_exitcode(status),
               "peak_rss_mb": usage.ru_maxrss / 1024}, fh)
"""

_MEMORY_SNIPPET = """\
import contextlib, io, json, resource, sys
from isscert.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = main(sys.argv[1:])
peak = {who: resource.getrusage(getattr(resource, "RUSAGE_" + who.upper())).ru_maxrss / 1024
        for who in ("self", "children")}
print(json.dumps({"exit": code, "run_mb": peak["self"], "writer_mb": peak["children"]}))
"""

_SWEEP_SNIPPET = """\
import json, sys, time
from isscert.config import load_plan
from isscert.solvers import solve_parabolic
plan = load_plan(sys.argv[1])
solve_parabolic(plan.scenario, plan.grid, plan.solver)
times = []
for _ in range(int(sys.argv[2])):
    t0 = time.perf_counter()
    traj = solve_parabolic(plan.scenario, plan.grid, plan.solver)
    times.append(time.perf_counter() - t0)
print(json.dumps({"solve_s": times, "steps": traj.counters["steps"],
                  "points": plan.grid.npoints}))
"""


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(sha: str, work: Path) -> Path:
    """The tree of commit sha, unpacked under work/sha."""
    tree = work / sha
    shutil.rmtree(tree, ignore_errors=True)
    tree.mkdir(parents=True)
    data = subprocess.run(["git", "archive", "--format=tar", sha], cwd=ROOT,
                          check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(tree, filter="data")
    return tree


def perfbench(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run in tree: its metrics, correctness and info line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    result = json.loads(lines[-1])
    info = json.loads(next(ln for ln in lines if ln.startswith("info "))[5:])
    # run.py checked that isscert came from this tree; keep the path inside it
    info["isscert_file"] = Path(info["isscert_file"]).relative_to(tree).as_posix()
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: m["value"] for name, m in result["metrics"].items()},
            "digests": info.pop("digests"), "info": info}


def tree_sha256(directory: Path) -> str:
    """SHA-256 over every file under directory: its path relative to
    directory and the SHA-256 of its bytes, in sorted path order."""
    files = {p.relative_to(directory).as_posix(): p for p in directory.rglob("*") if p.is_file()}
    digest = hashlib.sha256()
    for name in sorted(files):
        digest.update(f"{name}\0{hashlib.sha256(files[name].read_bytes()).hexdigest()}\0".encode())
    return digest.hexdigest()


def tree_env(tree: Path) -> dict:
    """The environment of a fresh interpreter that imports isscert from tree."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONHASHSEED="0")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _launch(tree: Path, args: list, cwd) -> tuple:
    """Run ``python ARGS`` in cwd from _LAUNCHER; return its wall seconds, exit
    code and peak resident set in MB as a dict, and its stdout bytes."""
    with (tempfile.TemporaryDirectory(prefix="isscert-launch-") as meta,
          tempfile.TemporaryFile() as stdout):
        result = Path(meta) / "result.json"
        subprocess.run([sys.executable, "-c", _LAUNCHER, str(result), str(WALL_TIMEOUT_S),
                        *args], cwd=cwd, env=tree_env(tree), stdout=stdout,
                       stderr=subprocess.DEVNULL, check=True)
        stdout.seek(0)
        return json.loads(result.read_text()), stdout.read()


def wall(tree: Path, args: list) -> dict:
    """Wall seconds of one ``python ARGS`` in a fresh interpreter started in an
    empty directory, with the digests of its stdout and of every file it left
    in that directory, and the peak resident set in MB of its process tree:
    the largest peak of the interpreter and of the processes it reaped."""
    with tempfile.TemporaryDirectory(prefix="isscert-bench-") as out:
        probe = hostspeed.probe()
        result, stdout = _launch(tree, args, out)
        outputs = tree_sha256(Path(out))
    return {**result, "probe_s": probe, "stdout_sha256": hashlib.sha256(stdout).hexdigest(),
            "outputs_sha256": outputs}


def memory(tree: Path, argv: list) -> dict:
    """Peak resident sets in MB of ``isscert.cli.main(argv)`` in a fresh
    interpreter started in an empty directory: run_mb, the interpreter's
    own, and writer_mb, the largest of the processes it forked and reaped
    (0 when it forked none), with its exit code."""
    with tempfile.TemporaryDirectory(prefix="isscert-bench-") as out:
        _, stdout = _launch(tree, ["-c", _MEMORY_SNIPPET, *argv, "--out", out], out)
    return json.loads(stdout.decode().splitlines()[-1])


def sweep_configs(tree: Path, directory: Path) -> dict:
    """{(name, n): path} of a copy of each swept bundled config of tree,
    written under directory with n cells along every axis of its grid."""
    paths = {}
    for name, sizes in SWEEP.items():
        doc = yaml.safe_load((tree / "src" / "isscert" / "configs" / f"{name}.yaml").read_text())
        for n in sizes:
            doc["grid"] = {key: value if key == "layout" else n
                           for key, value in doc["grid"].items()}
            paths[name, n] = directory / f"{name}_n{n}.yaml"
            paths[name, n].write_text(yaml.safe_dump(doc, sort_keys=False))
    return paths


def sweep_point(tree: Path, config: Path, solves: int = SWEEP_SOLVES) -> dict:
    """Solve seconds per point-step of config in a fresh interpreter that
    imports isscert from tree: the median and the least of solves timed
    solves after an untimed one, with the steps, the grid points and the
    host-speed probe."""
    probe = hostspeed.probe()
    proc = subprocess.run([sys.executable, "-c", _SWEEP_SNIPPET, str(config), str(solves)],
                          env=tree_env(tree), capture_output=True, text=True,
                          timeout=WALL_TIMEOUT_S, check=True)
    res = json.loads(proc.stdout.splitlines()[-1])
    point_steps = res["steps"] * res["points"]
    return {"point_step_s": statistics.median(res["solve_s"]) / point_steps,
            "point_step_min_s": min(res["solve_s"]) / point_steps,
            "solve_s": res["solve_s"], "steps": res["steps"], "points": res["points"],
            "probe_s": probe}


def quartiles(values) -> dict:
    ordered = sorted(values)
    q = statistics.quantiles(ordered, n=4) if len(ordered) > 1 else [ordered[0]] * 3
    return {"median": statistics.median(ordered), "q1": q[0], "q3": q[2], "n": len(ordered)}


def summarize(runs: list, better: dict, trace: int = 0, bounds: dict | None = None) -> dict:
    """Per workload and metric of the runs at this trace setting: each side's
    median and quartiles, and in how many pairs the change read better (ties
    count for neither).  A metric with a bound is resolved when the parent's
    quartile spread is within bound times its median, or when every change
    run reads better than every parent run."""
    out = {}
    for workload in dict.fromkeys(r["workload"] for r in runs if r["trace"] == trace):
        pairs = {}
        for r in runs:
            if r["workload"] == workload and r["trace"] == trace:
                pairs.setdefault(r["pair"], {})[r["side"]] = r
        done = [p for p in pairs.values() if {"parent", "change"} <= p.keys()]
        row = {"pairs": len(done),
               "failed": sum(p[s]["failed"] for p in done for s in p),
               "digests_differ": sum(not p["parent"]["digests_match"] for p in done)}
        for name, sense in better.items():
            sides = {s: [p[s]["metrics"][name] for p in done] for s in ("parent", "change")}
            sign = 1 if sense == "higher" else -1
            wins = sum(sign * (c - p) > 0 for p, c in zip(sides["parent"], sides["change"]))
            parent, change = quartiles(sides["parent"]), quartiles(sides["change"])
            row[name] = {"parent": parent, "change": change, "change_better": wins,
                         "median_change": change["median"] / parent["median"] - 1.0
                         if parent["median"] else None}
            if bounds and name in bounds:
                row[name]["resolved"] = (
                    parent["q3"] - parent["q1"] <= bounds[name] * abs(parent["median"])
                    or min(sign * c for c in sides["change"])
                    > max(sign * p for p in sides["parent"]))
        out[workload] = row
    return out


def summarize_sweep(sweep: list) -> dict:
    """Per swept config and grid size: its steps and points, each side's
    median and quartiles of point_step_s, and beside them those of
    point_step_min_s."""
    out = {}
    for name, n in dict.fromkeys((p["config"], p["n"]) for p in sweep):
        mine = [p for p in sweep if (p["config"], p["n"]) == (name, n)]
        out[f"{name} n={n}"] = {
            "steps": mine[0]["steps"], "points": mine[0]["points"],
            **{side: quartiles([p["point_step_s"] for p in mine if p["side"] == side])
               for side in ("parent", "change")},
            "point_step_min_s": {
                side: quartiles([p["point_step_min_s"] for p in mine if p["side"] == side])
                for side in ("parent", "change")}}
    return out


def src_lines(runs: list) -> dict:
    """Each side's lines of src/**/*.py, as its first run reports them
    (repo.src_lines): every run of a side counts the same exported tree."""
    return {side: next(r["info"]["repo.src_lines"] for r in runs if r["side"] == side)
            for side in ("parent", "change")}


def same_digests(a: dict, b: dict) -> bool:
    """Whether every operation both runs checked wrote the same report."""
    return all(a[name] == b[name] for name in a.keys() & b.keys())


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="file to write, e.g. BENCH_23.json")
    parser.add_argument("--change", default="HEAD",
                        help="commit measured against its first parent (default HEAD)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    change = git("rev-parse", f"{args.change}^{{commit}}")
    parent = git("rev-parse", f"{change}^")
    work = ROOT / ".bench_build"
    trees = {"parent": export(parent, work), "change": export(change, work)}
    try:
        runs = []
        schedule = [(w, trace) for trace, pairs in ((0, PAIRS), (1, TRACED_PAIRS))
                    for w in workloads for _ in range(pairs)]
        for i, (workload, trace) in enumerate(schedule):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {}
            for side in order:
                print(f"pair {i}: {workload} trace {trace} {side}", file=sys.stderr, flush=True)
                pair[side] = {"workload": workload, "side": side, "pair": i, "trace": trace,
                              "first": order[0],
                              **perfbench(trees[side], workload, SEED, SECONDS, trace)}
            match = same_digests(pair["parent"].pop("digests"), pair["change"].pop("digests"))
            for side in order:
                runs.append({**pair[side], "digests_match": match})

        argvs = [["run", name] for name in sorted(
            p.stem for p in (trees["change"] / "src" / "isscert" / "configs").glob("*.yaml"))]
        argvs.append(["verify", "all", "--seed", str(SEED)])
        commands = {" ".join(a): ["-m", "isscert", *a, "--out", "."] for a in argvs}
        commands["import isscert.cli"] = ["-c", "import isscert.cli"]
        walls = []
        for cmd, args_ in commands.items():
            for k in range(WALL_REPEATS):
                for side in ("parent", "change") if k % 2 == 0 else ("change", "parent"):
                    walls.append({"command": cmd, "side": side, **wall(trees[side], args_)})
        memories = []
        for k, argv_ in enumerate(a for a in argvs if a[0] == "run"):
            for side in ("parent", "change") if k % 2 == 0 else ("change", "parent"):
                print(f"memory: {' '.join(argv_)} {side}", file=sys.stderr, flush=True)
                memories.append({"command": " ".join(argv_), "side": side,
                                 **memory(trees[side], argv_)})

        sweep = []
        with tempfile.TemporaryDirectory(prefix="isscert-sweep-") as configs:
            for (name, n), config in sweep_configs(trees["change"], Path(configs)).items():
                for k in range(WALL_REPEATS):
                    for side in ("parent", "change") if k % 2 == 0 else ("change", "parent"):
                        print(f"sweep: {name} n={n} {side}", file=sys.stderr, flush=True)
                        sweep.append({"config": name, "n": n, "side": side,
                                      **sweep_point(trees[side], config)})
    finally:
        for tree in trees.values():
            shutil.rmtree(tree, ignore_errors=True)
        try:
            work.rmdir()
        except OSError:
            pass

    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["better"] for m in spec["per_layer"]}
    wall_summary = {}
    for cmd in commands:
        mine = [w for w in walls if w["command"] == cmd]
        wall_summary[cmd] = {
            **{side: quartiles([w["wall_s"] for w in mine if w["side"] == side])
               for side in ("parent", "change")},
            "exits": sorted({w["exit"] for w in mine}),
            "same_stdout": len({w["stdout_sha256"] for w in mine}) == 1,
            "same_outputs": len({w["outputs_sha256"] for w in mine}) == 1,
            "peak_rss_mb": {side: quartiles([w["peak_rss_mb"] for w in mine
                                             if w["side"] == side])
                            for side in ("parent", "change")}}
    memory_summary = {m["command"]: {} for m in memories}
    for m in memories:
        memory_summary[m["command"]][m["side"]] = {"run_mb": m["run_mb"],
                                                   "writer_mb": m["writer_mb"]}
    report = {
        "command": shlex.join(["python3", "tools/bench.py", *(argv or sys.argv[1:])]),
        "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "parent": parent,
        "change": change,
        "src_lines": src_lines(runs),
        "host": {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
                 "machine": platform.machine(),
                 "probe_reference_s": hostspeed.REFERENCE_S},
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__, "pyyaml": yaml.__version__,
                     "libyaml": yaml.__with_libyaml__},
        "settings": {"seed": SEED, "seconds": SECONDS, "pairs": PAIRS,
                     "traced_pairs": TRACED_PAIRS, "wall_repeats": WALL_REPEATS,
                     "sweep": {name: list(sizes) for name, sizes in SWEEP.items()},
                     "sweep_solves": SWEEP_SOLVES},
        "summary": summarize(runs, better, bounds=bounds),
        "traced_summary": summarize(runs, layers, trace=1),
        "wall_summary": wall_summary,
        "memory_summary": memory_summary,
        "sweep_summary": summarize_sweep(sweep),
        "runs": runs,
        "walls": walls,
        "memories": memories,
        "sweep": sweep,
    }
    Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=False) + "\n")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
