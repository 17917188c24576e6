"""A run that fails or passes says so in one stderr line, with no numpy
warning before it."""

import functools
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

from isscert.cli import main
from isscert.config import load_config


@pytest.mark.parametrize("demo,edits,code,message", [
    # |u|^700 overflows: the norm and its bound were both inf, and the NaN
    # margins once certified status=ok with violations=0; later the run was
    # refused, and now the norm is taken of u/max|u|
    ("parabolic_demo", {"checks": [{"kind": "parabolic_q", "q": 700.0, "tol": 0.0}]}, 0,
     "wrote {out}"),
    # each of these once printed numpy RuntimeWarnings before its line
    ("heat_clm_demo", {"scenario.dirichlet_data": {"kind": "uniform", "signal": {
        "kind": "exp_decay", "amplitude": 1.0e-300, "rate": -800.0}}}, 2,
     "config error: checks[0].kind: heat_clm needs Dirichlet data identically 0"),
    ("parabolic_demo", {"scenario.diffusion": {"kind": "uniform", "signal": {
        "kind": "exp_decay", "amplitude": 1.0, "rate": -800.0, "offset": 1.0}}}, 2,
     "solver error: solver diverged at step 437, t = 0.874 "
     "(non-finite flux boundary balance)"),
    ("wave_demo", {"scenario.boundary_data": {"kind": "exp_decay", "amplitude": 1.0e-300,
                                              "rate": -800.0}}, 2,
     "solver error: solver diverged at step 395, t = 0.8887499999999999"),
    ("transport_global", {"scenario.initial": {"kind": "bump", "amplitude": 1.0,
                                               "center": 0.5, "halfwidth": 1.0e-310}}, 0,
     "wrote {out}"),
], ids=["norm_past_the_floats", "heat_data_overflow", "diffusion_overflow",
        "wave_data_overflow", "subnormal_bump"])
def test_cli_run_prints_one_line_and_no_numpy_warning(tmp_path, capsys, recwarn, demo, edits,
                                                       code, message):
    doc = load_config(demo)
    for location, value in edits.items():
        *parents, key = location.split(".")
        functools.reduce(dict.__getitem__, parents, doc)[key] = value
    cfg = tmp_path / "probe.yaml"
    cfg.write_text(yaml.safe_dump(doc))
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == code
    assert capsys.readouterr().err == message.format(out=tmp_path / "out" / demo) + "\n"
    assert not recwarn.list


SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize("argv", [["run", "parabolic_demo"], ["verify", "trunc"],
                                  ["list-scenarios"]], ids=lambda argv: argv[0])
def test_a_closed_stdout_is_one_output_error_and_exit_2(tmp_path, argv):
    # the read end closes before the command starts, so its first write to
    # stdout, or the flush, fails; this once gave a traceback and exit 1
    # ("violations")
    read, write = os.pipe()
    os.close(read)
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    try:
        proc = subprocess.run([sys.executable, "-m", "isscert", *argv], cwd=tmp_path,
                              stdout=write, stderr=subprocess.PIPE, text=True, timeout=300,
                              env={**os.environ, "PYTHONPATH": path,
                                   "ISSCERT_OUT": str(tmp_path / "out")})
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (2, "output error: stdout: Broken pipe\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
@pytest.mark.parametrize("argv", [["run", "parabolic_demo"], ["verify", "trunc"],
                                  ["list-scenarios"]], ids=lambda argv: argv[0])
def test_a_full_stdout_is_one_output_error_and_exit_2(tmp_path, argv):
    # every write to /dev/full fails with ENOSPC, at the latest when stdout
    # is flushed; this once gave an OSError traceback and exit 1
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "isscert", *argv], cwd=tmp_path,
                              stdout=full, stderr=subprocess.PIPE, text=True, timeout=300,
                              env={**os.environ, "PYTHONPATH": path,
                                   "ISSCERT_OUT": str(tmp_path / "out")})
    assert (proc.returncode, proc.stderr) == (2, "output error: stdout: No space left on device\n")
