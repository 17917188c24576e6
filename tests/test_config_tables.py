"""Guards on config's tables: every scenario field has a key, and the
reader, which reads a key by its name alone, finds one meaning for it."""

from dataclasses import fields

import pytest

from isscert.config import _FAMILIES, _SCENARIOS

# the field type a leaf of each family builds
FAMILY_TYPES = {"field": "SpaceTimeField", "signal": "TimeSignal", "profile": "Callable",
                "map": "Callable", "speed": "Callable"}


@pytest.mark.parametrize("pde", sorted(_SCENARIOS))
def test_scenario_row_sets_every_field_but_the_label(pde):
    kind, keys = _SCENARIOS[pde]
    assert sorted(keys.values()) == sorted(f.name for f in fields(kind) if f.name != "label")


def test_each_scenario_key_means_one_thing_across_classes():
    types = {}
    for kind, keys in _SCENARIOS.values():
        declared = {f.name: f.type for f in fields(kind)}
        for key, attr in keys.items():
            types.setdefault(key, set()).add(declared[attr])
    for key, seen in types.items():
        assert len(seen) == 1, key
        if key in _FAMILIES:
            assert seen == {FAMILY_TYPES[_FAMILIES[key]]}, key
