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
from isscert.scenarios import bundled_names

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


@pytest.mark.parametrize("name", ["wave_demo", "transport_global"])
def test_a_forking_run_through_the_entry_point(tmp_path, name):
    # both CSVs have more than 100 000 rows, so on two CPUs a forked child
    # writes half of them; it must leave no duplicated buffer and no warning
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
