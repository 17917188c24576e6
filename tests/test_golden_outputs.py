"""Byte-identity gate for the deterministic outputs.

``data/golden_sha256.txt`` holds, in ``sha256sum`` format, the SHA-256 of
every file written by ``isscert run`` on each bundled scenario (under
``bundled/``) and by ``isscert verify all --seed 0`` and ``--seed 7``
(under ``verify0/`` and ``verify7/``).  A refactor must leave all of them
byte-identical.  The list was recorded with Python 3.11.7, numpy 2.4.6 and
scipy 1.17.1; another toolchain may round a float differently, and then
this test lists, one `path old new` line each, the files whose hash moved.
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


def pin_diff(expected, actual):
    """One `path old new` line per file whose pinned hash moved, is missing
    (new is -) or is extra (old is -), sorted by path, so a re-pin list can
    be copied from a failing comparison."""
    moved = [f"{path} {expected.get(path, '-')} {actual.get(path, '-')}"
             for path in sorted(expected.keys() | actual.keys())
             if expected.get(path) != actual.get(path)]
    return "\n".join(["pins that differ (path old new):", *moved])


def test_pin_diff_lists_each_moved_missing_or_extra_file():
    expected = {"a.csv": "1", "b.csv": "2", "c.csv": "3"}
    actual = {"a.csv": "1", "b.csv": "9", "d.csv": "4"}
    assert pin_diff(expected, actual).splitlines()[1:] == [
        "b.csv 2 9", "c.csv 3 -", "d.csv - 4"]


def test_outputs_match_recorded_hashes(tmp_path, capsys):
    for name in bundled_names():
        assert main(["run", name, "--out", str(tmp_path / "bundled")]) in (0, 1)
    for seed in (0, 7):
        main(["verify", "all", "--seed", str(seed), "--out", str(tmp_path / f"verify{seed}")])
    capsys.readouterr()
    expected = _golden()
    actual = {p.relative_to(tmp_path).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
              for p in tmp_path.rglob("*") if p.is_file()}
    assert actual == expected, pin_diff(expected, actual)


@pytest.mark.parametrize("name", ["wave_demo", "transport_global", "parabolic_demo"])
def test_a_forking_run_through_the_entry_point(tmp_path, name):
    # each CSV has 50 000 rows or more, so on two CPUs a forked writer,
    # started where the solver reserves the record before its first stamp,
    # formats stamps during the solve and writes part of them; it must leave
    # no duplicated buffer and no warning
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
    assert actual == expected, pin_diff(expected, actual)


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
    "check00_parabolic_q_q2.csv": "4b90c8ca2f02ccff0ef2454e31b374da982ed0903aa9c46329e7190788be6743",
    "glf.csv": "9c9b1ca1ad42806b094db283084295d4316de472eefa566ea5c3981991c29b7c",
    "report.txt": "e030fff463b773f7d4c5dfb3e1fe3a2edf7edd970e3e7e5870b15930109bba0c",
    "trajectory.csv": "689852467d6edd38520e0cbf408a8ee1ffed2d050ab1c970da99b48bdf73218d",
    "trajectory_meta.yaml": "df766643bbd3cd0c1940ce8ca61685128e9c12e30bcd4eb8a1e19bb50388237d",
}


def test_profiled_2d_run_matches_recorded_hashes(tmp_path, capsys):
    config = tmp_path / "profiled_2d.yaml"
    config.write_text(PROFILED_2D)
    assert main(["run", str(config), "--out", str(tmp_path / "out")]) in (0, 1)
    capsys.readouterr()
    actual = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
              for p in (tmp_path / "out" / "profiled_2d").iterdir()}
    assert actual == PROFILED_2D_SHA256, pin_diff(PROFILED_2D_SHA256, actual)
