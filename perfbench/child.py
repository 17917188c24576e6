"""One benchmark run in a fresh interpreter: a closed loop with one client.

Usage: python3 child.py PLAN.json RESULT.json

PLAN.json names the operation schedule, the output root, the seconds to
measure, the round length and whether to trace.  Each operation goes
through the public entry point ``isscert.cli.main``; the next starts only
after the previous one completed and was checked.  The loop runs whole
rounds until the time is spent and at least ``min_ops`` operations were
timed.

The host-speed probe runs before every operation, outside its timing.
Traced runs execute every operation twice, untraced and then traced, and
compare the two report digests.  Spans stay in memory and are written to
the result file when the loop ends.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import resource
import shutil
import sys
import time
from pathlib import Path

import yaml
from isscert.cli import main as isscert_main

import hostspeed


def _qtag(q):
    return "inf" if q in ("inf", math.inf) else f"{float(q):g}"


def expected_files(doc) -> list:
    """Files `isscert run` writes for a config document."""
    names = ["report.txt", "trajectory_meta.yaml"]
    if doc["pde"] == "wave":
        names += ["trajectory_plus.csv", "trajectory_minus.csv"]
    else:
        names.append("trajectory.csv")
    if doc.get("energy"):
        names.append("glf.csv")
    for i, chk in enumerate(doc.get("checks") or []):
        names.append(f"check{i:02d}_{chk['kind']}_q{_qtag(chk['q'])}.csv")
    return names


def check_run(doc, rc, stdout, out_root):
    """(failure reason or None, report digest) for one `isscert run`."""
    out = Path(out_root) / doc["name"]
    missing = [n for n in expected_files(doc) if not (out / n).is_file()]
    if rc != 0:
        return f"exit code {rc}", None
    if missing:
        return f"missing output {missing[0]}", None
    text = (out / "report.txt").read_text()
    if text != stdout:
        return "report.txt differs from the echoed report", None
    status = text.rstrip("\n").rsplit("\n", 1)[-1]
    if status != "status=ok":
        return f"report ends with {status!r}", None
    return None, hashlib.sha256(text.encode()).hexdigest()


def check_verify(rc, stdout, out_root):
    """(failure reason or None, report digest) for one `isscert verify all`."""
    path = Path(out_root) / "verify_all.txt"
    if rc != 0:
        return f"exit code {rc}", None
    if not path.is_file():
        return "missing output verify_all.txt", None
    text = path.read_text()
    if text != stdout:
        return "verify_all.txt differs from the echoed report", None
    lines = text.rstrip("\n").split("\n")
    failing = [ln for ln in lines[1:-1] if not ln.startswith("PASS ")]
    if failing:
        return f"verify line failed: {failing[0]}", None
    if not (lines[-1].startswith("result ") and " failed=0 " in lines[-1]):
        return f"verify summary {lines[-1]!r}", None
    return None, hashlib.sha256(text.encode()).hexdigest()


def run_op(op, out_root, tracer=None):
    """Run one operation; return (wall seconds, failure or None, digest)."""
    if op["kind"] == "run":
        argv = ["run", op["config"], "--out", str(out_root)]
    else:
        argv = ["verify", "all", "--seed", str(op["seed"]), "--out", str(out_root)]
    stdout, stderr = io.StringIO(), io.StringIO()
    rc, error, digest = None, None, None
    span = tracer.open("cli.op") if tracer else None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = isscert_main(argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception as exc:  # a failed operation is counted, not fatal
        error = f"exception {type(exc).__name__}: {exc}"
    wall = time.perf_counter() - t0
    if tracer:
        tracer.close(span)
    if error is None and op["kind"] == "run":
        doc = yaml.safe_load(Path(op["config"]).read_text())
        error, digest = check_run(doc, rc, stdout.getvalue(), out_root)
    elif error is None:
        error, digest = check_verify(rc, stdout.getvalue(), out_root)
    if error and stderr.getvalue():
        error += " | " + stderr.getvalue().strip().splitlines()[-1]
    shutil.rmtree(out_root, ignore_errors=True)
    return wall, error, digest


def measure(plan):
    ops, round_len = plan["ops"], plan["round"]
    out_root = Path(plan["out_root"])
    tracer = None
    if plan["trace"]:
        import tracing
        tracer = tracing.Tracer()

    # lazy imports and first-call set-up finish before timing starts
    hostspeed.probe()
    warm_wall, warm_error, _ = run_op(ops[0], out_root)
    records = []
    start = time.perf_counter()
    i = 0
    while True:
        op = ops[i % len(ops)]
        rec = {"name": op["name"], "probe": hostspeed.probe()}
        rec["wall"], rec["error"], rec["digest"] = run_op(op, out_root)
        if tracer:
            tracer.op = len(records)
            rec["traced_probe"] = hostspeed.probe()
            uninstall = tracing.install(tracer)
            try:
                rec["traced_wall"], rec["traced_error"], rec["traced_digest"] = \
                    run_op(op, out_root, tracer)
            finally:
                uninstall()
        records.append(rec)
        i += 1
        done = time.perf_counter() - start >= plan["seconds"]
        if done and i % round_len == 0 and i >= plan["min_ops"]:
            break
    return {
        "warmup": {"name": ops[0]["name"], "wall": warm_wall, "error": warm_error},
        "ops": records,
        "spans": tracer.spans if tracer else [],
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }


def versions():
    import numpy
    import scipy

    import isscert
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "isscert_file": isscert.__file__}


def main(argv):
    plan = json.loads(Path(argv[0]).read_text())
    result = measure(plan)
    result["versions"] = versions()
    Path(argv[1]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
