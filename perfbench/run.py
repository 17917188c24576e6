"""isscert benchmark: seeded certificate sweeps, end to end and layer by layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workload seed generates the YAML configs (see workloads.py); the
program receives only those files.  Each run measures in a fresh child
interpreter with BLAS/OpenMP pinned to one thread, so ``setup_s`` and
``peak_rss_mb`` belong to this run alone.  With ``--trace 0`` the last
line of standard output is a JSON object with every end-to-end metric;
with ``--trace 1`` every per-layer metric, taken from spans recorded
around the layers' public functions (tracing.py).  Metric names, units
and bounds are in BENCHMARK.json at the repository root.

Every reported time is scaled by the host-speed probe (hostspeed.py) to
a reference host speed; the raw times are in the ``info`` line.

Exit code 0 means the run completed (the JSON says whether its outputs
were correct); any other code means it could not run, and then no JSON
is printed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import workloads  # noqa: E402

SETUP_RUNS = 3
CHILD_TIMEOUT_S = 150
SETUP_TIMEOUT_S = 30

END_TO_END = {
    "setup_s": "s",
    "certs_per_s": "1/s",
    "cert_s_p50": "s",
    "cert_s_tail": "s",
    "peak_rss_mb": "MB",
}

STEP_METRICS = {f"solvers.step_s.n{n}": "s"
                for wl in workloads.GRID_SIZES
                for n in workloads.GRID_SIZES[wl]}

PER_LAYER = {
    "config.load_plan_s": "s",
    "solvers.solve_s": "s",
    "solvers.steps": "count",
    "solvers.point_steps_per_s": "1/s",
    **STEP_METRICS,
    "solvers.flux_law_calls": "count",
    "solvers.flux_law_s": "s",
    "solvers.flux_law_calls_per_closure": "calls/closure",
    "fields.write_csv_s": "s",
    "fields.csv_bytes": "B",
    "fields.csv_mb_per_s": "MB/s",
    "fields.trajectory_bytes": "B",
    "glf.level_s": "s",
    "glf.dissipation_report_s": "s",
    "glf.forcing_slack_s": "s",
    "signals.sup_field_calls": "count",
    "signals.sup_field_s": "s",
    "signals.sup_window_calls": "count",
    "signals.sup_window_s": "s",
    "comparison.invert_calls": "count",
    "comparison.invert_s": "s",
    "certify.prepare_bound_s": "s",
    "certify.check_trajectory_s": "s",
    "certify.stamps_checked": "count",
    "cli.other_s": "s",
    "verify.suite_s.trunc": "s",
    "verify.suite_s.parabolic": "s",
    "verify.suite_s.transport": "s",
    "verify.suite_s.wave": "s",
    "trace.overhead_share": "share",
    "failed_share": "share",
    "repo.src_lines": "count",
}

# span name -> per-layer self-time metric
SELF_TIME = {
    "config.load_plan": "config.load_plan_s",
    "solvers.solve": "solvers.solve_s",
    "fields.write_csv": "fields.write_csv_s",
    "glf.level": "glf.level_s",
    "glf.dissipation_report": "glf.dissipation_report_s",
    "glf.forcing_slack": "glf.forcing_slack_s",
    "signals.sup_field": "signals.sup_field_s",
    "signals.sup_window": "signals.sup_window_s",
    "comparison.invert": "comparison.invert_s",
    "certify.prepare_bound": "certify.prepare_bound_s",
    "certify.check_trajectory": "certify.check_trajectory_s",
    "cli.op": "cli.other_s",
    "verify.suite.trunc": "verify.suite_s.trunc",
    "verify.suite.parabolic": "verify.suite_s.parabolic",
    "verify.suite.transport": "verify.suite_s.transport",
    "verify.suite.wave": "verify.suite_s.wave",
}

CALL_COUNTS = {
    "signals.sup_field": "signals.sup_field_calls",
    "signals.sup_window": "signals.sup_window_calls",
    "comparison.invert": "comparison.invert_calls",
}

_SETUP_SNIPPET = """\
import sys
import isscert
from isscert.config import load_plan
load_plan(sys.argv[1])
sys.stdout.write("ready\\n")
sys.stdout.flush()
"""


def child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def time_setup(config, env, cwd):
    """Seconds from interpreter start until the first plan is built."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", _SETUP_SNIPPET, config],
                            stdout=subprocess.PIPE, env=env, cwd=cwd, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        rc = proc.wait(timeout=SETUP_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line != "ready\n" or rc != 0:
        raise RuntimeError(f"set-up probe failed (exit code {rc})")
    return elapsed


def tail(values, floor):
    """(value, percentile) of the tail for runs of at least floor values.

    The percentile is the highest one with TAIL_BEYOND values beyond it
    in a run of exactly floor values; longer runs keep that percentile,
    so tails of runs that reached different counts stay comparable.
    """
    share = (floor - workloads.TAIL_BEYOND) / floor
    ordered = sorted(values)
    return ordered[math.ceil(share * len(ordered)) - 1], 100.0 * share


def self_times(spans):
    """Per-span self time: duration minus the durations of direct children."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def layer_metrics(result, src_lines):
    """Per-layer metrics, each a mean per traced operation."""
    ops = result["ops"]
    n_ops = len(ops)
    spans = result["spans"]
    scale = hostspeed.scale_factors([op["traced_probe"] for op in ops])
    own = [self_s * scale[span[4]] for span, self_s in zip(spans, self_times(spans))]
    totals = defaultdict(float)
    step_time, step_count = defaultdict(float), defaultdict(int)
    for span, self_s in zip(spans, own):
        name, attrs = span[0], span[5] or {}
        if name in SELF_TIME:
            totals[SELF_TIME[name]] += self_s
        if name in CALL_COUNTS:
            totals[CALL_COUNTS[name]] += 1
        if name == "solvers.solve":
            for key in ("steps", "point_steps", "flux_calls", "closures",
                        "trajectory_bytes"):
                totals[key] += attrs[key]
            totals["flux_s"] += attrs["flux_s"] * scale[span[4]]
            step_time[attrs["grid"]] += self_s
            step_count[attrs["grid"]] += attrs["steps"]
        elif name == "fields.write_csv":
            totals["csv_bytes"] += attrs["csv_bytes"]
        elif name == "certify.check_trajectory":
            totals["stamps"] += attrs["stamps"]

    def ratio(a, b):
        return a / b if b else 0.0

    metrics = {name: totals[name] / n_ops for name in SELF_TIME.values()}
    metrics.update({name: totals[name] / n_ops for name in CALL_COUNTS.values()})
    for name in STEP_METRICS:
        n = int(name.rsplit(".n", 1)[1])
        metrics[name] = ratio(step_time[n], step_count[n])
    untraced = sum(scaled_walls(ops))
    traced = sum(scaled_walls(ops, "traced_"))
    failures = sum(1 for op in ops if op["error"] or op["traced_error"])
    metrics.update({
        "solvers.steps": totals["steps"] / n_ops,
        "solvers.point_steps_per_s": ratio(totals["point_steps"],
                                           totals["solvers.solve_s"]),
        "solvers.flux_law_calls": totals["flux_calls"] / n_ops,
        "solvers.flux_law_s": totals["flux_s"] / n_ops,
        "solvers.flux_law_calls_per_closure": ratio(totals["flux_calls"],
                                                    totals["closures"]),
        "fields.csv_bytes": totals["csv_bytes"] / n_ops,
        "fields.csv_mb_per_s": ratio(totals["csv_bytes"] / 1e6,
                                     totals["fields.write_csv_s"]),
        "fields.trajectory_bytes": totals["trajectory_bytes"] / n_ops,
        "certify.stamps_checked": totals["stamps"] / n_ops,
        "trace.overhead_share": (traced - untraced) / untraced,
        "failed_share": failures / n_ops,
        "repo.src_lines": src_lines,
    })
    return {name: {"value": metrics[name], "unit": unit}
            for name, unit in PER_LAYER.items()}


def scaled_walls(ops, prefix=""):
    """Operation wall times on the reference host-speed scale."""
    scale = hostspeed.scale_factors([op[prefix + "probe"] for op in ops])
    return [op[prefix + "wall"] * f for op, f in zip(ops, scale)]


def end_to_end_metrics(result, setups, probes, floor):
    walls = scaled_walls(result["ops"])
    ok = sum(1 for op in result["ops"] if not op["error"])
    tail_value, _ = tail(walls, floor)
    values = {
        "setup_s": (statistics.median(setups)
                    * hostspeed.REFERENCE_S / hostspeed.typical(probes)),
        "certs_per_s": ok / sum(walls),
        "cert_s_p50": statistics.median(walls),
        "cert_s_tail": tail_value,
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END.items()}


def src_line_count():
    return sum(len(p.read_text().splitlines())
               for p in sorted((ROOT / "src").rglob("*.py")))


def git_commit():
    """HEAD of the checkout when it is a git repository, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def digests(result):
    """Report digest per distinct operation; a list if a digest varied."""
    seen = defaultdict(set)
    for op in result["ops"]:
        for key in ("digest", "traced_digest"):
            if op.get(key):
                seen[op["name"]].add(op[key])
    return {name: sorted(d)[0] if len(d) == 1 else sorted(d)
            for name, d in sorted(seen.items())}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "isscert" / "__init__.py").is_file():
        print(f"no isscert sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        return _run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


def _run(args, work):
    env = child_env()
    ops = workloads.write_configs(workloads.generate(args.workload, args.seed),
                                  work / "configs")
    plan = {
        "ops": ops,
        "out_root": str(work / "out"),
        "seconds": args.seconds,
        "round": workloads.round_length(args.workload),
        "min_ops": 1 if args.trace else workloads.min_ops(args.workload, args.seconds),
        "trace": bool(args.trace),
    }
    (work / "plan.json").write_text(json.dumps(plan))

    setups, setup_probes = [], []
    if not args.trace:
        # a set-up probe takes the first config the workload runs, or a
        # bundled scenario when the workload runs `verify`
        config = ops[0].get("config", "parabolic_demo")
        for _ in range(SETUP_RUNS):
            setup_probes += [hostspeed.probe() for _ in range(3)]
            setups.append(time_setup(config, env, work))

    result_path = work / "result.json"
    proc = subprocess.run([sys.executable, str(HERE / "child.py"),
                           str(work / "plan.json"), str(result_path)],
                          env=env, cwd=work, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        print(f"benchmark child exited with code {proc.returncode}", file=sys.stderr)
        return 2
    result = json.loads(result_path.read_text())
    if not Path(result["versions"]["isscert_file"]).is_relative_to(ROOT / "src"):
        print(f"isscert was imported from {result['versions']['isscert_file']}, "
              f"not from {ROOT / 'src'}", file=sys.stderr)
        return 2

    ops_run = result["ops"]
    attempted = len(ops_run) + 1  # the warm-up operation is checked too
    failed = sum(1 for op in ops_run if op["error"] or op.get("traced_error"))
    failed += 1 if result["warmup"]["error"] else 0
    correct = failed == 0
    if args.trace:
        correct = correct and all(op["digest"] == op["traced_digest"] for op in ops_run)
        metrics = layer_metrics(result, src_line_count())
    else:
        metrics = end_to_end_metrics(result, setups, setup_probes, plan["min_ops"])

    walls = [op["wall"] for op in ops_run]
    probes = [op["probe"] for op in ops_run]
    info = {
        "workload": args.workload,
        "why": workloads.WHY[args.workload],
        "seed": args.seed,
        "trace": args.trace,
        "operations_timed": len(walls),
        "tail_percentile": None if args.trace else tail(walls, plan["min_ops"])[1],
        "host_probe_s": {"reference": hostspeed.REFERENCE_S,
                         "median": statistics.median(probes),
                         "min": min(probes), "max": max(probes)},
        "raw_cert_s_p50": statistics.median(walls),
        "raw_certs_per_s": sum(1 for op in ops_run if not op["error"]) / sum(walls),
        "raw_setup_s": setups,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "repo.src_lines": src_line_count(),
        **result["versions"],
        "failures": [{"name": op["name"], "error": op["error"] or op.get("traced_error")}
                     for op in [result["warmup"], *ops_run]
                     if op["error"] or op.get("traced_error")],
        "digests": digests(result),
    }
    if args.trace:
        spent = {name: metrics[name]["value"] for name in SELF_TIME.values()}
        total = sum(spent.values())
        info["self_time_share"] = {name: round(v / total, 4)
                                   for name, v in spent.items() if v}
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    print("info " + json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
