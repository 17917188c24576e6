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
from pathlib import Path

from isscert.cli import main
from isscert.scenarios import bundled_names

GOLDEN = Path(__file__).parent / "data" / "golden_sha256.txt"


def test_outputs_match_recorded_hashes(tmp_path, capsys):
    for name in bundled_names():
        assert main(["run", name, "--out", str(tmp_path / "bundled")]) in (0, 1)
    for seed in (0, 7):
        main(["verify", "all", "--seed", str(seed), "--out", str(tmp_path / f"verify{seed}")])
    capsys.readouterr()
    expected = dict(reversed(line.split()) for line in GOLDEN.read_text().splitlines())
    actual = {p.relative_to(tmp_path).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
              for p in tmp_path.rglob("*") if p.is_file()}
    assert actual == expected
