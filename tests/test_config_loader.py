"""``config.load_config`` parses with libyaml and lets PyYAML decide refusals.

libyaml (``yaml.CSafeLoader``) and the pure-Python parser
(``yaml.safe_load``) build equal documents from every config the project
ships or benchmarks.  Where libyaml refuses a text, the pure parser parses
it again: its document is used, or its message is reported, so an error
message reads the same with or without libyaml.  libyaml accepts a few
YAML-conformant texts that the pure parser refuses (a tab inside a plain
scalar, ``?`` inside a flow plain scalar); those documents go on to
``build_plan``'s validation like any other.
"""

import importlib.util
from importlib import resources
from pathlib import Path

import pytest
import yaml

from isscert import config
from isscert.cli import main
from isscert.config import ConfigError, bundled_names, load_config

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
RUN_WORKLOADS = ("parabolic_2d_flux", "parabolic_1d_mixed", "dense_record_1d")
LIBYAML = pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml")


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bundled_text(name):
    return resources.files("isscert.configs").joinpath(f"{name}.yaml").read_text()


def _same_document(text):
    # repr tells 1 from 1.0 and True, and keeps key order
    fast = yaml.load(text, Loader=config._CSafeLoader)
    assert repr(fast) == repr(yaml.safe_load(text))
    return fast


@pytest.mark.parametrize("name", bundled_names())
def test_both_parsers_read_a_bundled_config_alike(name):
    doc = _same_document(_bundled_text(name))
    assert repr(load_config(name)) == repr(doc)


def test_a_bundled_name_wins_over_a_file_of_that_name(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "heat_clm_demo").write_text("name: impostor\n")
    assert load_config("./heat_clm_demo") == {"name": "impostor"}
    assert load_config("heat_clm_demo") == yaml.safe_load(_bundled_text("heat_clm_demo"))


@pytest.mark.parametrize("workload", RUN_WORKLOADS)
def test_both_parsers_read_a_benchmark_schedule_alike(workload):
    ops = _workloads().generate(workload, 3)
    assert len(ops) > 1
    for op in ops:
        _same_document(op["yaml"])


def test_a_text_only_libyaml_refuses_gives_the_pure_document(tmp_path):
    text = "checks: [x:, y]\n"
    if yaml.__with_libyaml__:
        with pytest.raises(yaml.YAMLError):
            yaml.load(text, Loader=yaml.CSafeLoader)
    cfg = tmp_path / "flow.yaml"
    cfg.write_text(text)
    assert load_config(str(cfg)) == yaml.safe_load(text) == {"checks": [{"x": None}, "y"]}


def test_a_doubly_refused_text_reports_the_pure_message(tmp_path):
    text = 'name: x\ndescription: "tab\\q"\npde: wave\n'
    if yaml.__with_libyaml__:
        with pytest.raises(yaml.YAMLError):
            yaml.load(text, Loader=yaml.CSafeLoader)
    with pytest.raises(yaml.YAMLError) as pure:
        yaml.safe_load(text)
    mark = pure.value.problem_mark
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(text)
    with pytest.raises(ConfigError) as err:
        load_config(str(cfg))
    assert str(err.value) == (f"{cfg}: invalid YAML: {pure.value.problem} "
                              f"at line {mark.line + 1}, column {mark.column + 1}")
    assert str(err.value).endswith("found unknown escape character 'q' at line 2, column 19")


@LIBYAML
def test_a_tab_inside_a_plain_description_runs(tmp_path, capsys):
    text = _bundled_text("transport_steady").replace(
        "description: recirculating transport", "description: seeded\trun of transport")
    with pytest.raises(yaml.YAMLError):
        yaml.safe_load(text)
    cfg = tmp_path / "tabbed.yaml"
    cfg.write_text(text)
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert 'description: "seeded\\trun of transport' in capsys.readouterr().out


@LIBYAML
def test_a_question_mark_inside_a_flow_scalar_reaches_validation(tmp_path, capsys):
    text = _bundled_text("transport_steady").replace("{kind: transport_q,", "{kind: a?b,")
    with pytest.raises(yaml.YAMLError):
        yaml.safe_load(text)
    cfg = tmp_path / "queried.yaml"
    cfg.write_text(text)
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: checks[0].kind: ") and "'a?b'" in err
    assert "invalid YAML" not in err
