"""``config.dump_config``, the report's config echo, against PyYAML.

The echo must be the text ``yaml.safe_dump(doc, sort_keys=True,
default_flow_style=False)`` gives, PyYAML's pure-Python emitter: on every
bundled config, on the benchmark's generated configs, and on bundled
documents edited at the edges of what the schema admits (large ints,
subnormal and signed-zero floats, ``.inf``, nulls, empty lists, containers
shared through anchors, free text that PyYAML quotes, escapes or folds).
The schema words it writes itself are the ones PyYAML writes plain.
"""

import copy
import dataclasses
import importlib.util
import math
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from isscert import certify, config
from isscert.config import build_plan, bundled_names, dump_config, load_config
from isscert.fields import AXES, grid_keys
from isscert.glf import ENERGIES
from isscert.solvers import SolverConfig, transport

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
RUN_WORKLOADS = ("parabolic_2d_flux", "parabolic_1d_mixed", "dense_record_1d")
BUNDLED = {name: load_config(name) for name in bundled_names()}
# the words YAML 1.1 reads as a bool or null, as PyYAML resolves them
RESERVED = ("yes", "no", "on", "off", "true", "false", "null")


def _reference(doc):
    return yaml.safe_dump(doc, sort_keys=True, default_flow_style=False)


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", bundled_names())
def test_echo_of_a_bundled_config(name):
    assert dump_config(BUNDLED[name]) == _reference(BUNDLED[name])


@pytest.mark.parametrize("workload", RUN_WORKLOADS)
def test_echo_of_generated_configs(workload, tmp_path, monkeypatch):
    workloads = _workloads()
    # two rounds of a schedule's slots; its later operations draw the same
    # slots again, and the whole schedule of ten seeds takes seconds to write
    monkeypatch.setattr(workloads, "SCHEDULE_OPS", 2 * len(workloads._slots(workload)))
    for seed in range(10):
        for op in workloads.write_configs(workloads.generate(workload, seed), tmp_path):
            doc = load_config(op["config"])
            build_plan(doc)
            assert dump_config(doc) == _reference(doc), op["name"]


# numbers at the edges of their text: ints of hundreds of digits, signed
# zeros, exponents with and without a point in repr, subnormals
NUMBERS = st.one_of(
    st.integers(-10**6, 10**6),
    st.integers(10**300 - 10**6, 10**300 + 10**6).map(lambda n: n * (-1) ** (n % 2)),
    st.sampled_from([-0.0, 0.0, 1e-05, 1e16, 1.5e16, 1e-320, 5e-324,
                     2.2250738585072014e-308, 1e300]),
    st.floats(allow_nan=False, allow_infinity=False))
# free text PyYAML quotes, escapes or folds: indicators, a leading "-", "?"
# or "*", reserved words, tabs, line breaks, non-ASCII and long runs
PIECES = ("\t", "'", '"', ": ", " #", "-", "?", "*", "yes", "é", "日本語", " ", "word",
          "\\", "\n", "x" * 40, "&a", "!", "%", "null")
TEXT = st.one_of(st.text(max_size=30),
                 *(st.lists(st.sampled_from(PIECES), min_size=lo, max_size=hi).map("".join)
                   for lo, hi in ((0, 12), (40, 80))))


def _slots(node):
    """(container, key) of every entry below node, in a fixed order."""
    entries = sorted(node.items()) if isinstance(node, dict) else enumerate(node)
    for key, value in entries:
        yield node, key
        if isinstance(value, (dict, list)):
            yield from _slots(value)


def _holds(node, target):
    return node is target or isinstance(node, (dict, list)) and any(
        _holds(child, target) for child in (node.values() if isinstance(node, dict) else node))


@st.composite
def edited_documents(draw):
    doc = copy.deepcopy(BUNDLED[draw(st.sampled_from(sorted(BUNDLED)))])
    schema = {key: doc[key] for key in doc if key not in ("name", "description")}
    numbers = [s for s in _slots(schema) if type(s[0][s[1]]) in (int, float)]
    for parent, key in draw(st.lists(st.sampled_from(numbers), max_size=4)):
        parent[key] = draw(NUMBERS)
    for check in doc.get("checks") or []:
        check["q"] = draw(st.sampled_from([check["q"], math.inf, "inf"]))
    leaves = [s for s in _slots(schema) if isinstance(s[0][s[1]], dict) and "kind" in s[0][s[1]]]
    for parent, key in draw(st.lists(st.sampled_from(leaves), max_size=2)):
        parent[key][draw(st.sampled_from(["phase", "offset", "mode"]))] = None
    # one leaf object at two or three paths, which PyYAML anchors
    if len(leaves) > 1 and draw(st.booleans()):
        parent, key = draw(st.sampled_from(leaves))
        shared = parent[key]
        for other, okey in draw(st.lists(st.sampled_from(leaves), min_size=1, max_size=2)):
            if not _holds(other[okey], shared) and not _holds(shared, other):
                other[okey] = shared
    if draw(st.booleans()):
        doc["scenario"]["dirichlet_edges"] = doc["scenario"]["flux_edges"] = []
    if draw(st.booleans()):
        doc["checks"] = []
    if draw(st.booleans()):
        doc["energy"] = None
    doc["name"], doc["description"] = draw(TEXT), draw(TEXT)
    return doc


@settings(max_examples=150, derandomize=True, deadline=None)
@given(edited_documents())
def test_echo_of_an_edited_document(doc):
    assert dump_config(doc) == _reference(doc)


def test_echo_anchors_shared_containers_as_pyyaml_does():
    doc = copy.deepcopy(BUNDLED["parabolic_demo"])
    scenario, empty = doc["scenario"], []
    scenario["forcing"] = scenario["dirichlet_data"] = scenario["diffusion"]
    scenario["initial"]["terms"][1] = scenario["initial"]["terms"][0]
    scenario["dirichlet_edges"] = scenario["flux_edges"] = empty
    text = dump_config(doc)
    assert text == _reference(doc)
    assert [text.count(f"&id00{i}") for i in (1, 2, 3)] == [1, 1, 1]


def _schema_words():
    """Every word the schema admits as a key or a string value."""
    words = {"name", "description", "pde", "scenario", "grid", "solver", "energy", "checks",
             "kind", "q", "tol", "inf", "layout", "node", "cell", "p",
             *config._SCENARIOS, *config._DEFAULTS, *config._FAMILIES,
             *transport._ASSUMPTIONS, *(f.name for f in dataclasses.fields(SolverConfig))}
    for family in config._LEAVES.values():
        for kind, (_, keys) in family.items():
            words |= {kind, *keys}
    for _, keys in config._SCENARIOS.values():
        words |= set(keys)
    for kind, bound in certify.BOUNDS.items():
        words |= {kind, *bound.keys}
    for energy in ENERGIES.values():
        words |= set(energy.keys)
    for dim in range(1, len(AXES) + 1):
        words |= set(grid_keys(dim))
    for axis in AXES:
        words |= set(axis)
    return sorted(words)


@pytest.mark.parametrize("word", _schema_words())
def test_a_schema_word_is_plain_to_pyyaml_and_to_the_echo(word):
    assert config._word(word) == word
    assert yaml.safe_dump({word: word}) == f"{word}: {word}\n"


@pytest.mark.parametrize("word", [case(w) for w in RESERVED
                                  for case in (str.lower, str.title, str.upper)])
def test_a_reserved_word_is_quoted_by_pyyaml_and_refused_by_the_echo(word):
    assert yaml.safe_dump({"k": word}) == f"k: '{word}'\n"
    with pytest.raises(ValueError):
        config._word(word)
    doc = copy.deepcopy(BUNDLED["transport_steady"])
    doc["scenario"]["assumption"] = word
    with pytest.raises(ValueError, match="is not a plain schema word"):
        dump_config(doc)


@pytest.mark.parametrize("text", ["", "1x", "_x", "a-b", "a b", "inf?", "é"])
def test_a_word_pyyaml_may_quote_is_refused(text):
    with pytest.raises(ValueError):
        config._word(text)
