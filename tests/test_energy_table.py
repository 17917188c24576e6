"""Energy kinds have one table: ``glf.ENERGIES``.

Each PDE class's energy rules (the keys its config section accepts and
requires, its builder, its decay rate and its terms) live in its row, and
``config`` and ``glf`` read the row instead of branching on the class.
These tests keep the row's keys in step with its builder's signature.
"""

import inspect

import pytest
import yaml

from isscert.cli import main
from isscert.config import _SCENARIOS, load_config
from isscert.glf import ENERGIES, GlfSpec

# a bundled run with an energy section, per class
DEMOS = {"parabolic": "parabolic_demo", "transport": "transport_global", "wave": "wave_demo"}


def test_every_class_has_one_row():
    assert set(ENERGIES) == set(_SCENARIOS) == set(DEMOS)
    with pytest.raises(ValueError, match="unknown pde class 'elliptic'"):
        GlfSpec("elliptic", 2.0)


@pytest.mark.parametrize("pde", sorted(ENERGIES))
def test_row_keys_are_its_builders_keyword_parameters(pde):
    kind = ENERGIES[pde]
    (scn, traj, *params) = inspect.signature(kind.build).parameters.values()
    assert (scn.name, traj.name) == ("scn", "traj")
    assert kind.keys == tuple(p.name for p in params)
    assert kind.required == tuple(p.name for p in params if p.default is inspect.Parameter.empty)


@pytest.mark.parametrize("pde, key", [(pde, key) for pde in sorted(ENERGIES)
                                      for key in ENERGIES[pde].required])
def test_cli_run_without_a_required_energy_key_names_it(tmp_path, capsys, pde, key):
    doc = load_config(DEMOS[pde])
    assert doc["pde"] == pde
    del doc["energy"][key]
    cfg = tmp_path / "energy.yaml"
    cfg.write_text(yaml.safe_dump(doc))
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"config error: energy.{key}: missing required key\n"
    assert not (tmp_path / "out").exists()
