"""Byte-identity gate for the deterministic outputs.

``data/golden_sha256.txt`` holds, in ``sha256sum`` format, the SHA-256 of
every file written by ``isscert run`` on each bundled scenario (under
``bundled/``) and by ``isscert verify all --seed 0`` and ``--seed 7``
(under ``verify0/`` and ``verify7/``).  A refactor must leave all of them
byte-identical.  The list was recorded with Python 3.11.7, numpy 2.4.6 and
scipy 1.17.1; another toolchain may round a float differently, and then
this test reports the files whose hash moved.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from isscert.cli import main
from isscert.config import bundled_names

GOLDEN = Path(__file__).parent / "data" / "golden_sha256.txt"
SRC = Path(__file__).resolve().parents[1] / "src"


def _golden():
    return dict(reversed(line.split()) for line in GOLDEN.read_text().splitlines())


def test_outputs_match_recorded_hashes(tmp_path, capsys):
    for name in bundled_names():
        assert main(["run", name, "--out", str(tmp_path / "bundled")]) in (0, 1)
    for seed in (0, 7):
        main(["verify", "all", "--seed", str(seed), "--out", str(tmp_path / f"verify{seed}")])
    capsys.readouterr()
    expected = _golden()
    actual = {p.relative_to(tmp_path).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
              for p in tmp_path.rglob("*") if p.is_file()}
    assert actual == expected


@pytest.mark.parametrize("name", ["wave_demo", "transport_global", "parabolic_demo"])
def test_a_forking_run_through_the_entry_point(tmp_path, name):
    # each CSV has 50 000 rows or more, so on two CPUs a forked writer formats
    # stamps during the solve (from its first stamp where the solver reserves
    # them, as wave_demo and parabolic_demo do) and writes part of them; it
    # must leave no duplicated buffer and no warning
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "isscert", "run", name, "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": path})
    out = tmp_path / name
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (out / "report.txt").read_text()
    assert proc.stdout.count("run name=") == 1
    assert proc.stderr == f"wrote {out}\n"
    expected = {k: v for k, v in _golden().items() if k.startswith(f"bundled/{name}/")}
    actual = {f"bundled/{name}/{p.name}": hashlib.sha256(p.read_bytes()).hexdigest()
              for p in out.iterdir()}
    assert actual == expected


# A 2-D run on the paths the bundled runs miss: separable profiles on every
# field, Dirichlet and flux edges on both axes, cubic laws and nx != ny.
PROFILED_2D = """
name: profiled_2d
pde: parabolic
scenario:
  dim: 2
  diffusion:
    kind: separable
    profile: {kind: sum, terms: [{kind: constant, value: 1.0},
                                 {kind: sinprod, amplitude: 0.3, mode_x: 1, mode_y: 2}]}
    signal: {kind: constant, value: 1.0}
  diffusion_floor: 0.7
  damping:
    kind: separable
    profile: {kind: sum, terms: [{kind: constant, value: 1.0},
                                 {kind: sinprod, amplitude: 0.5, mode_x: 2, mode_y: 1}]}
    signal: {kind: sinusoid, amplitude: 0.2, frequency: 1.0, offset: 1.0}
  damping_floor: 0.4
  reaction: {kind: cubic, gamma: 0.5}
  boundary_reaction: {kind: cubic, gamma: 1.0}
  forcing:
    kind: separable
    profile: {kind: sinprod, amplitude: 0.8, mode_x: 1, mode_y: 2}
    signal: {kind: sinusoid, amplitude: 1.0, frequency: 2.0}
  dirichlet_data:
    kind: separable
    profile: {kind: sum, terms: [{kind: constant, value: 0.1},
                                 {kind: sinprod, amplitude: 0.2, mode_x: 3, mode_y: 1}]}
    signal: {kind: exp_decay, amplitude: 1.0, rate: 3.0, offset: 0.5}
  flux_data:
    kind: separable
    profile: {kind: sum, terms: [{kind: constant, value: 0.2},
                                 {kind: sinprod, amplitude: 0.4, mode_x: 1, mode_y: 3}]}
    signal: {kind: sinusoid, amplitude: 1.0, frequency: 1.0, phase: 0.3, offset: 0.2}
  dirichlet_edges: [left, bottom]
  flux_edges: [right, top]
  initial:
    kind: sum
    terms:
      - {kind: constant, value: 0.2}
      - {kind: sinprod, amplitude: 2.0, mode_x: 2, mode_y: 1}
grid: {nx: 20, ny: 16}
solver: {t_end: 0.2, dt: 0.005, output_stride: 4}
energy: {p: 2.0}
checks:
  - {kind: parabolic_q, q: 2}
"""

# recorded with the toolchain of the golden list
PROFILED_2D_SHA256 = {
    "check00_parabolic_q_q2.csv": "94f037302e4a6b850596fae67fcb97fa75b33f57c50b566d9853c9878396ee19",
    "glf.csv": "408f7abfc35c2b8f6ab84e1b8e6a86901f41051aaa6a2ea57d95443704c2aa7e",
    "report.txt": "317ef5e2bd622b7114474e0270ef272a8bdc61507c747c5414ab393ac4ab0251",
    "trajectory.csv": "cef0f2958a1bb1d6fedc3e600b87741cb141fcc5ae5831632bb17ea86c4bb981",
    "trajectory_meta.yaml": "df766643bbd3cd0c1940ce8ca61685128e9c12e30bcd4eb8a1e19bb50388237d",
}


def test_profiled_2d_run_matches_recorded_hashes(tmp_path, capsys):
    config = tmp_path / "profiled_2d.yaml"
    config.write_text(PROFILED_2D)
    assert main(["run", str(config), "--out", str(tmp_path / "out")]) in (0, 1)
    capsys.readouterr()
    actual = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
              for p in (tmp_path / "out" / "profiled_2d").iterdir()}
    assert actual == PROFILED_2D_SHA256
