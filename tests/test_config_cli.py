"""Tests for configuration loading and the command line interface."""

import math

import pytest
import yaml

from isscert.cli import main
from isscert.config import ConfigError, build_plan, load_config, load_plan
from isscert.fields import Grid1D, Grid2D
from isscert.scenarios import SCENARIOS

EXPECTED_PDE = {
    "heat_clm_demo": "parabolic",
    "parabolic_demo": "parabolic",
    "parabolic_2d_demo": "parabolic",
    "transport_global": "transport",
    "transport_steady": "transport",
    "transport_liss": "transport",
    "wave_finite_time": "wave",
    "wave_demo": "wave",
}

QUICK_TRANSPORT = """\
name: quick_transport
pde: transport
scenario:
  assumption: uniform
  speed: {kind: constant, value: 1.0}
  speed_floor: 1.0
  k: 0.5
  boundary_data: {kind: constant, value: 0.25}
  initial: {kind: bump, amplitude: 1.0, center: 0.4, halfwidth: 0.2}
grid: {n: 32}
solver: {t_end: 1.0, cfl_sigma: 0.9, output_stride: 4}
energy: {p: 2.0}
checks:
  - {kind: transport_q, q: 2, tol: 0.0}
"""


# ---------------------------------------------------------------------------
# configuration loading


def test_bundled_catalog_is_loadable():
    assert set(SCENARIOS) == set(EXPECTED_PDE)
    for name, pde in EXPECTED_PDE.items():
        plan = load_plan(name)
        assert plan.pde == pde
        assert plan.name == name


def test_demo_checks_parse_inf_norm():
    plan = load_plan("parabolic_demo")
    kinds = [c["kind"] for c in plan.checks]
    assert kinds == ["parabolic_q"] * 3
    qs = [c["q"] for c in plan.checks]
    assert qs == [2.0, 4.0, math.inf]
    assert isinstance(plan.grid, Grid1D)


def test_2d_demo_uses_square_grid():
    plan = load_plan("parabolic_2d_demo")
    assert plan.scenario.dim == 2
    assert isinstance(plan.grid, Grid2D)


def test_unknown_key_carries_dotted_path():
    doc = load_config("parabolic_demo")
    doc["scenario"]["bogus"] = 1
    with pytest.raises(ConfigError) as err:
        build_plan(doc)
    assert err.value.path == "scenario.bogus"


def test_missing_key_carries_dotted_path():
    doc = load_config("parabolic_demo")
    del doc["scenario"]["forcing"]
    with pytest.raises(ConfigError) as err:
        build_plan(doc)
    assert err.value.path == "scenario.forcing"


def test_bad_kind_carries_dotted_path():
    doc = load_config("parabolic_demo")
    doc["scenario"]["forcing"] = {"kind": "mystery"}
    with pytest.raises(ConfigError) as err:
        build_plan(doc)
    assert err.value.path == "scenario.forcing.kind"


def test_unknown_pde_rejected():
    doc = load_config("parabolic_demo")
    doc["pde"] = "elliptic"
    with pytest.raises(ConfigError) as err:
        build_plan(doc)
    assert err.value.path == "<config>.pde"


def test_check_entries_validated():
    doc = load_config("parabolic_demo")
    doc["checks"] = [{"kind": "wave_m", "q": 2}]
    with pytest.raises(ConfigError) as err:
        build_plan(doc)
    assert err.value.path == "checks[0].m"
    doc["checks"] = [{"kind": "parabolic_q", "q": "three"}]
    with pytest.raises(ConfigError) as err:
        build_plan(doc)
    assert err.value.path == "checks[0].q"


def test_missing_config_file():
    with pytest.raises(ConfigError):
        load_config("definitely_not_bundled")


# ---------------------------------------------------------------------------
# command line


def test_cli_list_scenarios(capsys):
    assert main(["list-scenarios"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == len(SCENARIOS)
    assert out == sorted(out)
    assert all(": " in line for line in out)


def test_cli_run_unknown_config(tmp_path, capsys):
    code = main(["run", "definitely_not_bundled", "--out", str(tmp_path)])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_cli_run_artifacts(tmp_path, capsys):
    cfg = tmp_path / "quick.yaml"
    cfg.write_text(QUICK_TRANSPORT)
    code = main(["run", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 0
    captured = capsys.readouterr()
    run_dir = tmp_path / "out" / "quick_transport"

    traj_csv = run_dir / "trajectory.csv"
    assert traj_csv.read_text().splitlines()[0] == "t,y,value"

    glf_csv = run_dir / "glf.csv"
    assert glf_csv.read_text().splitlines()[0] == "t,Vhat,residual,envelope"

    check_csv = run_dir / "check00_transport_q_q2.csv"
    assert check_csv.read_text().splitlines()[0] == "t,lhs,rhs,margin"

    report = (run_dir / "report.txt").read_text()
    assert report == captured.out
    assert report.startswith("run name=quick_transport\npde=transport\n")
    assert report.rstrip().endswith("status=ok")
    config_part = report.split("--- config\n")[1].split("--- results\n")[0]
    echoed = yaml.safe_load(config_part)
    assert echoed["solver"]["t_end"] == 1.0
    assert "check kind=transport_q q=2.0 applicable" in report


def test_cli_run_honors_env_root(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "quick.yaml"
    cfg.write_text(QUICK_TRANSPORT)
    root = tmp_path / "env_root"
    monkeypatch.setenv("ISSCERT_OUT", str(root))
    assert main(["run", str(cfg)]) == 0
    capsys.readouterr()
    assert (root / "quick_transport" / "report.txt").exists()


def test_cli_verify_writes_report(tmp_path, capsys):
    code = main(["verify", "trunc", "--seed", "7", "--out", str(tmp_path)])
    assert code == 0
    captured = capsys.readouterr()
    text = (tmp_path / "verify_trunc.txt").read_text()
    assert text == captured.out
    assert text.splitlines()[0] == "verify suite=trunc seed=7"
    assert "result passed=" in text.splitlines()[-1]
    assert " failed=0 " in text.splitlines()[-1]


def test_cli_verify_rejects_unknown_suite(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "nonsense"])
    capsys.readouterr()


def _diverging_demo(tmp_path, demo="parabolic_demo", **scenario):
    """A parabolic demo with a cubic reaction and a large initial state."""
    doc = load_config(demo)
    doc["name"] = "diverging"
    doc["scenario"]["reaction"] = {"kind": "cubic", "gamma": 1.5}
    doc["scenario"]["initial"]["terms"][1]["amplitude"] = 300.0
    doc["scenario"].update(scenario)
    doc["solver"]["dt"] = 0.05
    cfg = tmp_path / "diverging.yaml"
    cfg.write_text(yaml.safe_dump(doc))
    return cfg


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("demo", ["parabolic_demo", "parabolic_2d_demo"])
def test_cli_run_diverging_flux_closure_exits_2(tmp_path, capsys, demo):
    cfg = _diverging_demo(tmp_path, demo)
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "solver error: solver diverged at step" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_cli_run_non_finite_source_exits_2(tmp_path, capsys):
    cfg = _diverging_demo(tmp_path, dirichlet_edges=["left", "right"], flux_edges=[])
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "non-finite explicit source" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("bc_tol", [0.0, -1e-10, math.nan, math.inf])
def test_cli_run_rejects_bad_bc_tol(tmp_path, capsys, bc_tol):
    doc = load_config("parabolic_demo")
    doc["solver"]["bc_tol"] = bc_tol
    cfg = tmp_path / "bad_tol.yaml"
    cfg.write_text(yaml.safe_dump(doc))
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "config error: solver: bc_tol must be finite and positive" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
