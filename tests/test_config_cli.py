"""Tests for configuration loading and the command line interface."""

import errno
import functools
import math
import os
import re
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml

from isscert import cli, fields
from isscert.certify import BOUNDS, check_trajectory, prepare_bound
from isscert.cli import main
from isscert.config import (_LEAVES, ConfigError, _leaf, build_plan, bundled_names, load_config,
                            load_plan)
from isscert.fields import Grid, Trajectory

SRC = Path(__file__).resolve().parents[1] / "src"

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
    assert bundled_names() == sorted(EXPECTED_PDE)
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
    assert isinstance(plan.grid, Grid) and plan.grid.dim == 1


@pytest.mark.parametrize("q", ["inf", math.inf], ids=["string", "float"])
def test_check_q_accepts_both_infinities(q):
    doc = _edited("parabolic_demo", "checks", [{"kind": "parabolic_q", "q": q}])
    assert build_plan(doc).checks[0]["q"] == math.inf


def test_2d_demo_uses_square_grid():
    plan = load_plan("parabolic_2d_demo")
    assert plan.scenario.dim == 2
    assert isinstance(plan.grid, Grid) and plan.grid.dim == 2


def test_cube_config_builds_a_three_axis_grid():
    plan = build_plan(_cube_config())
    assert plan.scenario.dim == plan.grid.dim == 3
    assert (plan.grid.nx, plan.grid.ny, plan.grid.nz) == plan.grid.cells == (8, 8, 8)


# the axis table names each dimension's edges, grid keys and sinprod modes;
# a key for an axis the run does not have is refused at its dotted path
@pytest.mark.parametrize("demo,location,value,message", [
    ("parabolic_demo", "scenario.dim", 4, "scenario.dim: dim must be 1 to 3, got 4"),
    ("parabolic_demo", "scenario.dim", 0, "scenario.dim: dim must be 1 to 3, got 0"),
    ("parabolic_demo", "grid", {"nx": 200}, "grid.nx: unknown key"),
    ("parabolic_2d_demo", "grid", {"n": 24}, "grid.n: unknown key"),
    ("parabolic_2d_demo", "grid", {"nx": 24, "ny": 24, "nz": 24}, "grid.nz: unknown key"),
    ("parabolic_2d_demo", "grid", {"nx": 24}, "grid.ny: missing required key"),
    ("cube", "grid", {"nx": 8, "ny": 8}, "grid.nz: missing required key"),
    ("transport_global", "grid", {"nx": 64, "ny": 64}, "grid.nx: unknown key"),
    ("parabolic_2d_demo", "scenario.flux_edges", ["bottom", "front"],
     "scenario.flux_edges: unknown edge 'front' for dim=2"),
    ("parabolic_2d_demo", "scenario.initial",
     {"kind": "sinprod", "amplitude": 1.0, "mode_z": 1}, "scenario.initial.mode_z: unknown key"),
    ("cube", "scenario.flux_edges", ["bottom"],
     "scenario: boundary labels must cover ['back', 'bottom', 'front', 'left', 'right', 'top'] "
     "exactly"),
])
def test_axis_table_refuses_what_the_dimension_lacks(demo, location, value, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        build_plan(_edited(demo, location, value))


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
    doc = load_config("wave_demo")
    doc["checks"] = [{"kind": "wave_m", "q": 2}]
    with pytest.raises(ConfigError) as err:
        build_plan(doc)
    assert err.value.path == "checks[0].m"
    doc = load_config("parabolic_demo")
    doc["checks"] = [{"kind": "parabolic_q", "q": "three"}]
    with pytest.raises(ConfigError) as err:
        build_plan(doc)
    assert err.value.path == "checks[0].q"


# per kind: a bundled demo it applies to, q, and its required keys' values
_ADMISSIBLE = {"parabolic_q": ("parabolic_demo", 2, {}),
               "heat_clm": ("heat_clm_demo", 2, {"eps": 1.0}),
               "transport_p": ("transport_global", 3, {"p": 2.0}),
               "transport_q": ("transport_global", 2, {}),
               "transport_liss": ("transport_liss", 2, {"R0": 1.0}),
               "wave_r_eps": ("wave_demo", 2, {"r": 1.0, "eps": 1.0}),
               "wave_m": ("wave_demo", 2, {"m": 1.0})}


@pytest.mark.parametrize("kind", sorted(BOUNDS))
def test_every_bound_kind_builds_from_its_required_keys(kind):
    demo, q, required = _ADMISSIBLE[kind]
    assert sorted(required) == sorted(BOUNDS[kind].required)
    doc = load_config(demo)
    entry = {"kind": kind, "q": q, **required}
    doc["checks"] = [entry]
    plan = build_plan(doc)
    assert plan.checks[0]["params"] == required
    doc["checks"] = [{**entry, "zeta": 1.0}]
    with pytest.raises(ConfigError, match=r"^checks\[0\]\.zeta: unknown key$"):
        build_plan(doc)


_CLASS_DEMOS = {"parabolic": "parabolic_demo", "transport": "transport_global",
                "wave": "wave_demo"}
_MISMATCHES = [(kind, pde) for kind in sorted(BOUNDS) for pde in sorted(_CLASS_DEMOS)
               if BOUNDS[kind].pde != pde]


@pytest.mark.parametrize("kind, pde", _MISMATCHES, ids=[f"{k}-on-{p}" for k, p in _MISMATCHES])
def test_cli_run_rejects_a_check_kind_of_another_class(tmp_path, capsys, kind, pde):
    # each of these once reached prepare_bound and died there with a
    # KeyError or AttributeError traceback and exit code 1
    entry = {"kind": kind, "q": 2, **{key: 1.0 for key in BOUNDS[kind].required}}
    cfg = tmp_path / "mismatch.yaml"
    cfg.write_text(yaml.safe_dump(_edited(_CLASS_DEMOS[pde], "checks", [entry])))
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (f"config error: checks[0].kind: {kind} bounds "
                                       f"{BOUNDS[kind].pde} runs, not {pde} ones\n")
    assert not (tmp_path / "out").exists()


def test_cli_run_rejects_heat_clm_off_the_l2_norm(tmp_path, capsys):
    # at q = 4 the L2 bound once reported a false violation and exit 1
    cfg = tmp_path / "heat_q4.yaml"
    cfg.write_text(yaml.safe_dump(_edited("heat_clm_demo", "checks",
                                          [{"kind": "heat_clm", "q": 4, "eps": 1.0}])))
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == ("config error: checks[0].q: heat_clm is an L2 bound; "
                                       "q must be 2, got 4.0\n")
    assert not (tmp_path / "out").exists()


_HEAT_MISFITS = [
    ("parabolic_2d_demo", {}, "heat_clm bounds 1-D runs, not dim 2"),
    ("heat_clm_demo", {"flux_edges": ["left", "right"], "dirichlet_edges": []},
     "heat_clm needs one Dirichlet end and one flux end"),
    ("parabolic_demo", {}, "heat_clm needs Dirichlet data identically 0"),
    ("heat_clm_demo", {"diffusion": {"kind": "uniform", "signal": {
        "kind": "sinusoid", "amplitude": 0.1, "frequency": 1.0, "offset": 1.0}},
        "diffusion_floor": 0.9}, "heat_clm needs diffusion identically 1"),
    ("heat_clm_demo", {"boundary_reaction": {"kind": "cubic", "gamma": 0.5}},
     "heat_clm needs the identity flux law"),
]


@pytest.mark.parametrize("demo, scenario, message", _HEAT_MISFITS,
                         ids=["dim", "edges", "dirichlet", "diffusion", "flux_law"])
def test_cli_run_rejects_heat_clm_off_its_equation(tmp_path, capsys, demo, scenario, message):
    # the parabolic demos once ran a heat_clm check to status=ok and exit 0
    doc = _edited(demo, "checks", [{"kind": "heat_clm", "q": 2, "eps": 1.0}])
    doc["scenario"].update(scenario)
    cfg = tmp_path / "heat_misfit.yaml"
    cfg.write_text(yaml.safe_dump(doc))
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"config error: checks[0].kind: {message}\n"
    assert not (tmp_path / "out").exists()


def test_missing_config_file():
    with pytest.raises(ConfigError):
        load_config("definitely_not_bundled")


# ---------------------------------------------------------------------------
# command line


def test_cli_list_scenarios(capsys):
    assert main(["list-scenarios"]) == 0
    # one line per bundled config, with that file's own description
    expected = [f"{name}: {load_config(name)['description']}" for name in sorted(EXPECTED_PDE)]
    assert capsys.readouterr().out.splitlines() == expected


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


def test_cli_liss_run_whose_mass_left_the_range_exits_2(tmp_path, monkeypatch, capsys):
    solve = cli.solve_transport

    def inflated(*args):
        traj = solve(*args)
        traj.counters["max_abs_mass"] = 1e3
        return traj

    monkeypatch.setattr(cli, "solve_transport", inflated)
    assert main(["run", "transport_liss", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("check error: the total mass reached 1000,") and err.count("\n") == 1
    assert not (tmp_path / "transport_liss").exists()


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


@pytest.mark.parametrize("diffusion,dt,n,t_end", [
    (100.0, 0.1, 200, 1.5), (1000.0, 0.01, 200, 1.5),
    # a unit value at one end reaches the other end's inner node as 0.0
    (1.0, 1e-7, 2000, 3e-7)])
def test_cli_run_closes_two_strongly_or_weakly_coupled_flux_ends(tmp_path, capsys, diffusion,
                                                                 dt, n, t_end):
    # the first two once gave up with "coupled flux boundaries did not settle"
    doc = load_config("parabolic_demo")
    doc["scenario"].update(flux_edges=["left", "right"], dirichlet_edges=[],
                           diffusion={"kind": "constant", "value": diffusion},
                           diffusion_floor=diffusion)
    doc["grid"]["n"] = n
    doc["solver"].update(dt=dt, t_end=t_end)
    cfg = tmp_path / "two_flux.yaml"
    cfg.write_text(yaml.safe_dump(doc))
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
    out, err = capsys.readouterr()
    assert "status=ok" in out and err.startswith("wrote ") and err.count("\n") == 1


@pytest.mark.parametrize("flux,gamma", [(7777.7, 0.5), (3.3e4, 1.0), (123456.7, 2.0),
                                        (2e5, 1.0)])
def test_cli_run_inverts_a_level_no_float_meets_to_1e_12(tmp_path, capsys, flux, gamma):
    # the boundary law's floats near the flux sup are spaced wider than the
    # inversion's 1e-12 exit; its bisection once ran out of steps and
    # ended in a RuntimeError traceback, exit 1
    doc = load_config("parabolic_demo")
    doc["scenario"].update(flux_data={"kind": "constant", "value": flux},
                           boundary_reaction={"kind": "cubic", "gamma": gamma})
    doc["solver"]["t_end"] = 0.01
    cfg = tmp_path / "large_flux.yaml"
    cfg.write_text(yaml.safe_dump(doc))
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
    out, err = capsys.readouterr()
    assert out.endswith("status=ok\n") and err.startswith("wrote ") and err.count("\n") == 1


@pytest.mark.parametrize("bc_tol", [0.0, -1e-10, math.nan, math.inf])
def test_cli_run_rejects_bad_bc_tol(tmp_path, capsys, bc_tol):
    doc = load_config("parabolic_demo")
    doc["solver"]["bc_tol"] = bc_tol
    cfg = tmp_path / "bad_tol.yaml"
    cfg.write_text(yaml.safe_dump(doc))
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    message = ("solver: bc_tol must be finite and positive" if math.isfinite(bc_tol)
               else f"solver.bc_tol: expected a finite number, got {bc_tol!r}")
    assert f"config error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()



def _no_solver(monkeypatch):
    def unreachable(*args):
        raise AssertionError("a refused config reached the solver")
    for name in ("solve_parabolic", "solve_transport", "solve_wave"):
        monkeypatch.setattr(cli, name, unreachable)


@pytest.mark.parametrize("demo,edit,message", [
    # dissipation_rate needs a declared speed floor, which "decreasing" lacks
    ("transport_liss", lambda doc: doc.update(energy={"p": 2.0}),
     "config error: energy: decay rate needs a declared speed floor"),
    # c*r = 2 does not exceed the Young split
    ("wave_demo", lambda doc: doc["energy"].update(eps=3.0),
     "config error: energy: need c*r - eps > 0, got c*r = 2.0, eps = 3.0"),
    # a check after four admissible ones
    ("wave_demo", lambda doc: doc["checks"].append(
        {"kind": "wave_r_eps", "q": 2, "r": 1.0, "eps": 3.0, "tol": 0.0}),
     "config error: checks[4]: need c*r - eps > 0"),
    ("parabolic_demo", lambda doc: doc["energy"].update(p=1.0),
     "config error: energy.p: exponent p must exceed 1"),
    # the heat demo's damping floor is 0
    ("heat_clm_demo", lambda doc: doc.update(energy={"p": 2.0}),
     "config error: energy: truncation level needs a positive reaction floor c0"),
    ("transport_global", lambda doc: doc["energy"].update(rate=3.0),
     f"config error: energy.rate: weight rate must lie in (0, {3.0 * math.log(2.0)}], got 3.0"),
    ("transport_global", lambda doc: doc["scenario"].update(k=0.0),
     "config error: energy: recirculation gain zero leaves the rate unconstrained"),
    ("wave_demo", lambda doc: doc["energy"].update(rate=0.0),
     "config error: energy.rate: the wave functional needs a positive weight rate"),
    # 4*(p/eps)**p once raised OverflowError after the solve, a traceback and exit 1
    ("wave_demo", lambda doc: doc["energy"].update(p=1000.0, eps=0.5),
     "config error: energy: the forcing slack 4*(p/eps)**p overflows the floats at "
     "p = 1000.0, eps = 0.5"),
    ("wave_demo", lambda doc: doc["energy"].update(p=2.0, eps=1e-300),
     "config error: energy: the forcing slack 4*(p/eps)**p overflows the floats at "
     "p = 2.0, eps = 1e-300"),
    # exp(rate) on [0, 1] once overflowed after the solve, with numpy's warnings
    # and "energy error: psi must be finite"
    ("wave_demo", lambda doc: doc["energy"].update(p=2.0, rate=1000.0),
     "config error: energy.rate: the weight exp(rate*y) overflows the floats at rate = 1000"),
    ("wave_demo", lambda doc: doc["energy"].update(p=2.0, rate=710.0, eps=1.0),
     "config error: energy.rate: the weight exp(rate*y) overflows the floats at rate = 710"),
], ids=["transport_liss_energy", "wave_energy_eps", "wave_check_eps", "energy_p",
        "parabolic_energy_c0", "transport_rate", "transport_k", "wave_rate",
        "wave_slack_p", "wave_slack_eps", "wave_weight_1000", "wave_weight_710"])
def test_cli_run_post_solve_errors_exit_2(tmp_path, capsys, monkeypatch, demo, edit, message):
    # these once failed after the solve, as energy and check errors; now
    # build_plan refuses them and no solver runs
    _no_solver(monkeypatch)
    doc = load_config(demo)
    edit(doc)
    cfg = tmp_path / "post_solve.yaml"
    cfg.write_text(yaml.safe_dump(doc))
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(message) and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("demo,edits,message", [
    # the envelope exp(-599 t) * integral of exp(599 s) * slack overflows; this
    # run once exited 0 with status=ok, max_envelope_excess=nan and three
    # numpy warnings
    ("wave_demo", {"energy": {"p": 2.0, "rate": 300.0}},
     "energy error: the Gronwall envelope must be finite"),
    ("parabolic_demo", {"energy": {"p": 400.0}, "checks": [],
                        "scenario.initial": {"kind": "constant", "value": 30.0}},
     "energy error: the Vhat series leaves the floats at p = 400, weight rate 0, "
     "decay rate 401"),
], ids=["wave_envelope", "parabolic_vhat"])
def test_cli_run_energy_past_the_floats_exits_2(tmp_path, capsys, recwarn, demo, edits,
                                                message):
    doc = load_config(demo)
    for location, value in edits.items():
        *parents, key = location.split(".")
        functools.reduce(dict.__getitem__, parents, doc)[key] = value
    cfg = tmp_path / "energy.yaml"
    cfg.write_text(yaml.safe_dump(doc))
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == message + "\n"
    assert not recwarn.list
    assert not (tmp_path / "out").exists()


def test_wave_weight_rate_up_to_the_float_limit_builds():
    plan = build_plan(_edited("wave_demo", "energy", {"p": 2.0, "rate": 709.0, "eps": 1.0}))
    assert plan.energy == {"p": 2.0, "rate": 709.0, "eps": 1.0}


def test_cli_run_energy_route_without_p_exits_2(tmp_path, capsys):
    doc = load_config("transport_liss")
    doc["checks"] = [{"kind": "transport_liss", "q": 3, "R0": 1.0, "variant": "p"}]
    cfg = tmp_path / "liss_p.yaml"
    cfg.write_text(yaml.safe_dump(doc))
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == ("config error: checks[0].p: the energy route needs "
                                       "the energy exponent p\n")
    assert not (tmp_path / "out").exists()


# each probe's check on a bundled demo, and the refusal it gets
_REFUSALS = [
    ("wave_demo", {"kind": "wave_r_eps", "q": "inf", "r": 1.0, "eps": 1.0},
     "checks[0].q: this bound needs a finite norm exponent"),
    ("wave_demo", {"kind": "wave_r_eps", "q": 2, "r": 0.1, "eps": 1.0},
     "checks[0]: need c*r - eps > 0, got -0.8"),
    ("wave_demo", {"kind": "wave_r_eps", "q": 2, "r": -1.0, "eps": 1.0},
     "checks[0].r: r must be positive, got -1.0"),
    ("wave_demo", {"kind": "wave_m", "q": 2, "m": -1.0},
     "checks[0].m: m must be positive, got -1.0"),
    # e^{4m/c} once raised OverflowError, a traceback and exit 1
    ("wave_demo", {"kind": "wave_m", "q": 2, "m": 1000.0},
     "checks[0]: the bound overflows the floats: math range error"),
    ("transport_liss", {"kind": "transport_liss", "q": 2, "R0": 1.0, "variant": "x"},
     "checks[0].variant: transport_liss variant must be 'p' or 'q'"),
    ("transport_liss", {"kind": "transport_liss", "q": 2, "R0": 1.0, "variant": 3},
     "checks[0].variant: transport_liss variant must be 'p' or 'q'"),
    ("transport_liss", {"kind": "transport_liss", "q": 3, "R0": 1.0, "variant": "p"},
     "checks[0].p: the energy route needs the energy exponent p"),
    ("transport_liss", {"kind": "transport_liss", "q": 2, "R0": -1.0},
     "checks[0].R0: radius must be positive"),
    ("transport_liss", {"kind": "transport_q", "q": 2},
     "checks[0].kind: transport_q needs the 'uniform' assumption with a declared floor"),
    ("transport_global", {"kind": "transport_liss", "q": 2, "R0": 1.0},
     "checks[0].kind: local speed floors need the 'decreasing' assumption"),
    ("transport_global", {"kind": "transport_p", "q": 2, "p": 2.0},
     "checks[0].q: the energy route certifies the (p+1)-norm; got q = 2.0 with p = 2.0"),
    ("transport_global", {"kind": "transport_p", "q": 3, "p": 2.0, "r": -1.0},
     "checks[0].r: r must be positive, got -1.0"),
    # the first rule broken, not the (p+1)-norm mismatch
    ("transport_global", {"kind": "transport_p", "q": 3, "p": 0.5},
     "checks[0].p: p must exceed 1"),
    ("heat_clm_demo", {"kind": "parabolic_q", "q": 2},
     "checks[0]: needs a positive reaction floor c0"),
    ("heat_clm_demo", {"kind": "heat_clm", "q": 2, "eps": 3.0},
     "checks[0].eps: eps must lie in (0, 2]"),
    ("parabolic_demo", {"kind": "parabolic_q", "q": 1},
     "checks[0].q: norm exponent must lie in [2, inf], got 1.0"),
    ("parabolic_demo", {"kind": "parabolic_q", "q": 2, "tol": -1},
     "checks[0].tol: tol must be finite and nonnegative, got -1.0"),
    # 8 e^{4m/c} = 8 e^{708.5} rounds to inf, which once passed as inf*0 = NaN
    # and failed after the full solve
    ("wave_demo", {"kind": "wave_m", "q": 2, "m": 354.25},
     "checks[0]: the bound overflows the floats: it is not finite at zero norms"),
]


@functools.lru_cache(maxsize=None)
def _short_run(demo):
    """A bundled demo's scenario and its trajectory on 32 points up to t = 0.1."""
    doc = load_config(demo)
    doc["grid"]["n"] = 32
    doc["solver"]["t_end"] = 0.1
    plan = build_plan(doc)
    return plan.scenario, cli.run_plan(replace(plan, energy=None, checks=[])).traj


@pytest.mark.parametrize("demo, entry, refusal", _REFUSALS,
                         ids=[f"{e['kind']}-{r.split(':')[0]}-{i}"
                              for i, (_, e, r) in enumerate(_REFUSALS)])
def test_cli_run_refuses_a_check_before_the_solve(tmp_path, capsys, monkeypatch, demo, entry,
                                                  refusal):
    # each of these once exited 2 with "check error:" and no key path, after
    # the full solve
    scn, traj = _short_run(demo)
    _no_solver(monkeypatch)
    cfg = tmp_path / "refused.yaml"
    cfg.write_text(yaml.safe_dump(_edited(demo, "checks", [entry])))
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"config error: {refusal}\n"
    assert not (tmp_path / "out").exists()
    # the API refuses the same check on a solved trajectory, for the same reason
    params = {key: entry[key] for key in entry if key not in ("kind", "q", "tol")}
    with pytest.raises(ValueError) as err:
        bound = prepare_bound(entry["kind"], traj, scn, float(entry["q"]), params)
        check_trajectory(traj, float(entry["q"]), bound, entry.get("tol", 0.0))
    assert str(err.value) == refusal.split(": ", 1)[1]


def _cube_config():
    """parabolic_2d_demo on the unit cube: a three-axis config."""
    doc = load_config("parabolic_2d_demo")
    doc["scenario"].update(dim=3, dirichlet_edges=["left", "right", "front", "back"])
    doc["scenario"]["initial"]["terms"][1]["mode_z"] = 2
    doc["grid"] = {"nx": 8, "ny": 8, "nz": 8}
    return doc


def _edited(demo, location, value):
    """A bundled config (or "cube", :func:`_cube_config`) with the entry at a
    dotted location replaced, or removed when value is None."""
    doc = _cube_config() if demo == "cube" else load_config(demo)
    *parents, key = location.split(".")
    node = doc
    for part in parents:
        node = node[part]
    if value is None:
        del node[key]
    else:
        node[key] = value
    return doc


# one minimal spec per leaf kind, placed where that kind is read
LEAF_SPECS = [
    ("transport_global", "scenario.boundary_data", {"kind": "constant", "value": 0.1}),
    ("transport_global", "scenario.boundary_data",
     {"kind": "sinusoid", "amplitude": 0.3, "frequency": 1.0}),
    ("transport_global", "scenario.boundary_data",
     {"kind": "exp_decay", "amplitude": 0.3, "rate": 1.0}),
    ("transport_global", "scenario.boundary_data", {"kind": "polynomial", "coeffs": [0.1]}),
    ("parabolic_demo", "scenario.initial",
     {"kind": "sum", "terms": [{"kind": "constant", "value": 0.1}]}),
    ("parabolic_demo", "scenario.initial", {"kind": "constant", "value": 0.1}),
    ("parabolic_demo", "scenario.initial", {"kind": "affine", "intercept": 0.1, "slope": 0.2}),
    ("parabolic_demo", "scenario.initial", {"kind": "sin", "amplitude": 1.0}),
    ("parabolic_demo", "scenario.initial",
     {"kind": "bump", "amplitude": 1.0, "center": 0.5, "halfwidth": 0.2}),
    ("parabolic_demo", "scenario.initial", {"kind": "poly", "coeffs": [0.1, 0.2]}),
    ("parabolic_2d_demo", "scenario.initial",
     {"kind": "sum", "terms": [{"kind": "constant", "value": 0.1}]}),
    ("parabolic_2d_demo", "scenario.initial", {"kind": "constant", "value": 0.1}),
    ("parabolic_2d_demo", "scenario.initial", {"kind": "sinprod", "amplitude": 1.0}),
    ("parabolic_demo", "scenario.forcing", {"kind": "constant", "value": 0.1}),
    ("parabolic_demo", "scenario.forcing",
     {"kind": "uniform", "signal": {"kind": "constant", "value": 0.1}}),
    ("parabolic_demo", "scenario.forcing",
     {"kind": "separable", "profile": {"kind": "constant", "value": 1.0},
      "signal": {"kind": "constant", "value": 0.1}}),
    ("parabolic_demo", "scenario.reaction", {"kind": "identity"}),
    ("parabolic_demo", "scenario.reaction", {"kind": "linear", "slope": 2.0}),
    ("parabolic_demo", "scenario.reaction", {"kind": "cubic", "gamma": 1.0}),
    ("transport_global", "scenario.speed", {"kind": "constant", "value": 1.0}),
    ("transport_liss", "scenario.speed", {"kind": "reciprocal"}),
]


@pytest.mark.parametrize("demo,location,spec", LEAF_SPECS, ids=[
    f"{demo}-{loc.split('.')[-1]}-{spec['kind']}" for demo, loc, spec in LEAF_SPECS])
def test_every_leaf_kind_rejects_unknown_keys(demo, location, spec):
    with pytest.raises(ConfigError, match=rf"^{location}\.phse: unknown key$"):
        build_plan(_edited(demo, location, {**spec, "phse": 0.5}))


INTEGER_CASES = [
    ("parabolic_demo", "scenario.initial", {"kind": "sin", "amplitude": 1.0, "mode": 1.5},
     "scenario.initial.mode"),
    ("parabolic_2d_demo", "scenario.initial",
     {"kind": "sinprod", "amplitude": 1.0, "mode_x": 2.5}, "scenario.initial.mode_x"),
    ("parabolic_2d_demo", "scenario.initial",
     {"kind": "sinprod", "amplitude": 1.0, "mode_y": 0.5}, "scenario.initial.mode_y"),
    ("parabolic_demo", "scenario.dim", 1.5, "scenario.dim"),
    ("parabolic_demo", "grid.n", 200.7, "grid.n"),
    ("parabolic_2d_demo", "grid.nx", 24.5, "grid.nx"),
    ("parabolic_2d_demo", "grid.ny", 24.5, "grid.ny"),
    ("parabolic_demo", "solver.output_stride", 2.5, "solver.output_stride"),
]


@pytest.mark.parametrize("demo,location,value,path", INTEGER_CASES,
                         ids=[case[-1] for case in INTEGER_CASES])
def test_integer_keys_reject_fractions(demo, location, value, path):
    with pytest.raises(ConfigError, match=rf"^{path}: expected an integer, got"):
        build_plan(_edited(demo, location, value))


# where a leaf of each family is read in a bundled config
FAMILY_AT = {"signal": ("transport_global", "scenario.boundary_data"),
             "profile": ("parabolic_demo", "scenario.initial"),
             "2D profile": ("parabolic_2d_demo", "scenario.initial"),
             "3D profile": ("cube", "scenario.initial"),
             "field": ("parabolic_demo", "scenario.forcing"),
             "map": ("parabolic_demo", "scenario.reaction"),
             "speed": ("transport_global", "scenario.speed")}
# the optional leaf keys and their documented defaults
LEAF_DEFAULTS = {"mode": 1, "mode_x": 1, "mode_y": 1, "mode_z": 1, "phase": 0.0,
                 "offset": 0.0, "scale": 1.0}
# a valid value for each key name that is not a plain number; numbers get 0.5
LEAF_VALUES = {"coeffs": [0.1, 0.2], "terms": [{"kind": "constant", "value": 0.1}],
               "signal": {"kind": "constant", "value": 0.1},
               "profile": {"kind": "constant", "value": 1.0},
               "mode": 2, "mode_x": 2, "mode_y": 3, "mode_z": 4}
LEAF_KEYS = [(family, kind, key) for family, kinds in _LEAVES.items()
             for kind, (_, keys) in kinds.items() for key in keys]


def _leaf_spec(family, kind):
    """A spec of the kind with every key set, optional ones included."""
    return {"kind": kind, **{key: LEAF_VALUES.get(key, 0.5) for key in _LEAVES[family][kind][1]}}


def _leaf_values(obj, family):
    """What a built leaf gives on a few points, to compare two of them."""
    y = np.linspace(0.0, 1.0, 7)
    if family == "signal":
        return np.array(obj.params)
    if family == "2D profile":
        return obj((y, y[::-1]))
    if family == "3D profile":
        return obj((y, y[::-1], y ** 2))
    return obj(y)


@pytest.mark.parametrize("family,kind,key", [c for c in LEAF_KEYS if c[2] not in LEAF_DEFAULTS],
                         ids=lambda v: str(v).replace(" ", "_"))
def test_leaf_without_a_required_key_names_it(family, kind, key):
    demo, location = FAMILY_AT[family]
    spec = _leaf_spec(family, kind)
    del spec[key]
    with pytest.raises(ConfigError, match=rf"^{re.escape(location)}\.{key}: missing required key$"):
        build_plan(_edited(demo, location, spec))


@pytest.mark.parametrize("family,kind,key", [c for c in LEAF_KEYS if c[2] in LEAF_DEFAULTS],
                         ids=lambda v: str(v).replace(" ", "_"))
def test_leaf_optional_key_defaults_to_its_written_value(family, kind, key):
    dim = {"2D profile": 2, "3D profile": 3}.get(family, 1)
    spec = _leaf_spec(family, kind)
    omitted = {k: v for k, v in spec.items() if k != key}
    written = {**spec, key: LEAF_DEFAULTS[key]}
    args = ("leaf", "profile" if dim > 1 else family, dim)
    assert np.array_equal(_leaf_values(_leaf(omitted, *args), family),
                          _leaf_values(_leaf(written, *args), family))
    # the key is read: its sample value builds another object
    assert not np.array_equal(_leaf_values(_leaf(omitted, *args), family),
                              _leaf_values(_leaf(spec, *args), family))


@pytest.mark.parametrize("demo,key", [("parabolic_demo", "rate"), ("parabolic_demo", "eps"),
                                      ("transport_global", "eps")])
def test_cli_run_rejects_energy_keys_the_class_ignores(tmp_path, capsys, demo, key):
    cfg = tmp_path / "energy.yaml"
    cfg.write_text(yaml.safe_dump(_edited(demo, f"energy.{key}", 5.0)))
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"config error: energy.{key}: unknown key\n"
    assert not (tmp_path / "out").exists()


def test_energy_keys_each_class_reads():
    assert build_plan(_edited("transport_global", "energy.rate", 1.5)).energy == {
        "p": 2.0, "rate": 1.5}
    assert load_plan("wave_demo").energy == {"p": 2.0, "rate": 1.0, "eps": 1.0}


def test_integer_keys_accept_integral_floats():
    assert build_plan(_edited("parabolic_demo", "grid.n", 200.0)).grid.n == 200


@pytest.mark.parametrize("demo,location,value,message", [
    ("parabolic_demo", "grid.n", 4, "grid: need at least 8 cells, got 4"),
    ("transport_global", "scenario.initial.halfwidth", 0,
     "scenario.initial: halfwidth must be positive"),
    ("parabolic_demo", "scenario.reaction", {"kind": "linear", "slope": -1},
     "scenario.reaction: slope must be positive"),
    ("parabolic_demo", "scenario.forcing",
     {"kind": "uniform", "signal": {"kind": "polynomial", "coeffs": ["a"]}},
     "scenario.forcing.signal.coeffs: expected a nonempty list of numbers"),
    ("wave_demo", "scenario.boundary_data", {"kind": "constant", "value": math.nan},
     "scenario.boundary_data.value: expected a finite number, got nan"),
    ("transport_global", "grid.layout", "node",
     "grid.layout: transport runs need layout cell, got 'node'"),
    ("parabolic_demo", "solver.dt", None, "solver.dt: missing required key"),
    ("parabolic_demo", "checks", [{"kind": ["parabolic_q"], "q": 2}],
     "checks[0].kind: unknown check kind ['parabolic_q']"),
    ("parabolic_demo", "checks", [{"kind": "parabolic_q", "q": 2, "tol": math.nan}],
     "checks[0].tol: expected a finite number, got nan"),
    ("parabolic_demo", "scenario.reaction", {"kind": "linear", "slope": math.inf},
     "scenario.reaction.slope: expected a finite number, got inf"),
    ("transport_steady", "solver.t_end", 10**400,
     f"solver.t_end: expected a finite number, got {10**400}"),
    ("parabolic_demo", "scenario.reaction", {"kind": "linear", "slope": 0},
     "scenario.reaction: slope must be positive"),
    ("parabolic_demo", "scenario.boundary_reaction", {"kind": "cubic", "gamma": -0.1},
     "scenario.boundary_reaction: gamma must be nonnegative"),
    ("parabolic_demo", "scenario.boundary_reaction", {"kind": "power", "exponent": 3.0},
     "scenario.boundary_reaction.kind: unknown map kind 'power'"),
    ("parabolic_demo", "checks", [{"kind": "parabolic_q", "q": 10**400}],
     f"checks[0].q: expected a finite number, got {10**400}"),
    ("parabolic_demo", "checks", [{"kind": "parabolic_q", "q": math.nan}],
     "checks[0].q: expected a finite number, got nan"),
    ("transport_global", "scenario.speed", {"kind": "constant", "value": 0},
     "scenario.speed: speed must be positive"),
    ("transport_liss", "scenario.speed", {"kind": "reciprocal", "scale": -1},
     "scenario.speed: scale must be nonnegative"),
    ("parabolic_demo", "scenario.initial", {"kind": "poly", "coeffs": [0.1, math.nan]},
     "scenario.initial.coeffs: expected a finite number, got nan"),
    ("parabolic_demo", "scenario.reaction", {"kind": "linear", "slope": 0.5},
     "scenario: reaction slope must be at least one"),
    ("transport_global", "scenario.speed_floor", 1.5,
     "scenario: speed map drops below its declared floor"),
], ids=["grid_n", "bump_halfwidth", "map_slope", "poly_coeffs", "nan_signal",
        "transport_node_layout", "parabolic_without_dt", "unhashable_check_kind",
        "nan_tol", "inf_slope", "huge_int", "zero_slope", "negative_gamma", "power_map",
        "huge_q", "nan_q", "zero_speed", "negative_speed_scale", "nan_coeffs",
        "sub_unit_reaction_slope", "floor_above_the_speed"])
def test_cli_run_build_errors_exit_2(tmp_path, capsys, demo, location, value, message):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(yaml.safe_dump(_edited(demo, location, value)))
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_cli_run_coefficient_below_floor_exits_2(tmp_path, capsys):
    # 1 - 0.5 sin(4 pi t) and 1 - 0.9 sin(4 pi t) equal their floor 1 at
    # t = 0, 0.5 and 5 but dip to 0.5 and 0.1 in between
    doc = load_config("parabolic_demo")
    for key, amplitude in (("diffusion", -0.5), ("damping", -0.9)):
        doc["scenario"][key] = {"kind": "uniform", "signal": {
            "kind": "sinusoid", "amplitude": amplitude, "frequency": 2.0, "offset": 1.0}}
    cfg = tmp_path / "floor.yaml"
    cfg.write_text(yaml.safe_dump(doc))
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        "solver error: diffusion coefficient drops below a0 = 1 (down to 0.5)\n")
    assert not (tmp_path / "out").exists()


def test_cli_run_speed_below_uniform_floor_exits_2(tmp_path, capsys):
    # the floor lies below the sup 1 = speed(0) of 1/(1 + |s|), so the
    # config builds, but the run starts at total mass 200
    doc = load_config("transport_global")
    doc["scenario"].update(speed={"kind": "reciprocal", "scale": 1.0},
                           speed_floor=0.0909090909,
                           initial={"kind": "constant", "value": 200.0})
    doc["grid"]["n"] = 64
    doc["solver"] = {"t_end": 200.0}
    del doc["energy"]
    doc["checks"] = [{"kind": "transport_q", "q": 2, "tol": 0.0},
                     {"kind": "transport_p", "q": 3, "p": 2.0, "tol": 0.0}]
    cfg = tmp_path / "floor.yaml"
    cfg.write_text(yaml.safe_dump(doc))
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        "solver error: speed 0.004975124378109453 at total mass 200.0 drops below "
        "the declared floor 0.0909090909 (t = 0.0)\n")
    assert not (tmp_path / "out").exists()


def test_cli_run_far_out_certifies(tmp_path, capsys):
    # the identity maps hold on every state: a sine of amplitude 2e6 once
    # exited 2, past the largest range the maps were sampled on
    doc = load_config("parabolic_demo")
    doc["scenario"]["initial"]["terms"][1]["amplitude"] = 2e6
    cfg = tmp_path / "far.yaml"
    cfg.write_text(yaml.safe_dump(doc))
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().out.endswith("status=ok\n")


def test_cli_run_cubic_0_past_the_squares_solves(tmp_path, capsys):
    # cubic(0) once computed v*(1 + 0*v*v), which is 0*inf = NaN once v*v
    # overflows, and stopped a sine of amplitude 2e155 at step 1 on a
    # non-finite explicit source
    doc = load_config("parabolic_demo")
    doc["scenario"]["reaction"] = {"kind": "cubic", "gamma": 0}
    doc["scenario"]["initial"]["terms"][1]["amplitude"] = 2e155
    del doc["energy"]
    doc["checks"] = []
    cfg = tmp_path / "cubic0.yaml"
    cfg.write_text(yaml.safe_dump(doc))
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().out.endswith("stamps=251 t_end=1.500000000000e+00\nstatus=ok\n")


# Records beyond the 128 TiB x86-64 address space, so no test allocates one,
# and step counts past the floats: numpy refuses the first three with
# MemoryError, the next with ValueError, and math.ceil the last with
# OverflowError.
UNALLOCATABLE = [("parabolic_demo", "dt", 1.0e-15), ("wave_demo", "cfl_sigma", 1.0e-12),
                 ("transport_global", "cfl_sigma", 1.0e-9), ("parabolic_demo", "dt", 1.0e-300),
                 ("parabolic_demo", "dt", 1.0e-320)]


@pytest.mark.parametrize("demo,key,value", UNALLOCATABLE)
def test_cli_run_an_unallocatable_record_exits_2_before_its_solve(tmp_path, demo, key, value):
    # the record is sized in closed form before the first step, so these
    # runs stop at once; they once hung counting their steps, or died with
    # a MemoryError traceback
    doc = load_config(demo)
    doc["solver"][key] = value
    cfg = tmp_path / "huge.yaml"
    cfg.write_text(yaml.safe_dump(doc))
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "isscert", "run", str(cfg), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": path})
    assert time.monotonic() - start < 30.0
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("solver error: no record holds the steps of dt ")
    assert proc.stderr.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("floor", [5.0, 0.2])
def test_cli_run_checks_a_declared_floor_under_decreasing(tmp_path, capsys, floor):
    # the energy's decay rate is r times the declared floor; 5.0 once went
    # unchecked under "decreasing" and gave rate=1.0397e+01 and status=ok
    doc = load_config("transport_liss")
    doc["scenario"]["speed_floor"] = floor
    doc["energy"] = {"p": 2.0}
    cfg = tmp_path / "floor.yaml"
    cfg.write_text(yaml.safe_dump(doc))
    code = main(["run", str(cfg), "--out", str(tmp_path / "out")])
    out, err = capsys.readouterr()
    if floor == 5.0:
        assert code == 2 and err.count("\n") == 1
        assert err.startswith("solver error: speed ")
        assert "drops below the declared floor 5.0 (t = 0.0)" in err
        assert not (tmp_path / "out").exists()
    else:
        assert code == 0 and out.endswith("status=ok\n")


@pytest.mark.parametrize("demo", ["transport_global", "transport_liss"])
def test_declared_floor_must_be_positive_under_either_assumption(demo):
    # under "decreasing", -1.0 once certified the decay rate -2.08
    doc = _edited(demo, "scenario.speed_floor", -1.0)
    with pytest.raises(ConfigError, match="^scenario: a declared speed_floor must be positive$"):
        build_plan(doc)


def test_map_kinds_build_closed_forms():
    def law(spec):
        return build_plan(_edited("parabolic_demo", "scenario.reaction", spec)).scenario.reaction

    ident = law({"kind": "identity"})
    assert ident(0.7) == 0.7
    assert ident(0.0) == 0.0
    assert law({"kind": "linear", "slope": 2.5})(2.0) == 5.0
    cub = law({"kind": "cubic", "gamma": 1.0})
    assert cub(2.0) == pytest.approx(10.0, rel=1e-15)
    assert cub(-2.0) == pytest.approx(-10.0, rel=1e-15)


@pytest.mark.parametrize("name", [5, "", ".", "..", "../escaped", "a/b"])
def test_name_must_be_one_directory(tmp_path, capsys, name):
    cfg = tmp_path / "named.yaml"
    cfg.write_text(yaml.safe_dump(_edited("transport_steady", "name", name)))
    out = tmp_path / "root" / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error: <config>.name: expected a directory name")
    assert not (tmp_path / "root").exists()


@pytest.mark.parametrize("case, message", [
    ("unparsable", "invalid YAML: expected ',' or ']', but got '<stream end>' at line 2, column 1"),
    ("undecodable", "invalid YAML: unacceptable character #x0080"),
    ("directory", "cannot read: Is a directory"),
], ids=["unparsable", "undecodable", "directory"])
def test_cli_run_unreadable_config_exits_2(tmp_path, capsys, case, message):
    source = tmp_path / "bad.yaml"
    if case == "directory":
        source.mkdir()
    else:
        source.write_bytes(b"pde: [unclosed\n" if case == "unparsable" else b"pde: \x80\n")
    assert main(["run", str(source), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {source}: {message}")
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("suite", ["trunc", "all"])
def test_cli_verify_rejects_negative_seed(tmp_path, capsys, suite):
    with pytest.raises(SystemExit) as exc:
        main(["verify", suite, "--seed", "-1", "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "argument --seed: expected a nonnegative integer, got '-1'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, target", [(["run", "transport_steady"], "transport_steady"),
                                          (["verify", "trunc"], "")],
                         ids=["run", "verify"])
def test_cli_output_root_that_is_a_file_exits_2(tmp_path, capsys, argv, target):
    root = tmp_path / "taken"
    root.write_text("")
    assert main([*argv, "--out", str(root)]) == 2
    captured = capsys.readouterr()
    # one line naming the directory that could not be made, no report
    assert captured.err.startswith(f"output error: {root / target}: ")
    assert captured.err.count("\n") == 1
    assert captured.out == ""


def test_cli_verify_checks_the_output_root_before_the_suite(tmp_path, capsys, monkeypatch):
    def never(*args):
        raise AssertionError("the suite ran before the output directory was made")

    monkeypatch.setattr(cli.verify, "run_suite", never)
    root = tmp_path / "taken"
    root.write_text("")
    assert main(["verify", "all", "--out", str(root)]) == 2
    assert capsys.readouterr().err.startswith(f"output error: {root}: ")


@pytest.mark.parametrize("cpus, taken", [({0}, "trajectory_plus.csv"),
                                         ({0, 1}, "trajectory_plus.csv"),
                                         ({0, 1}, "trajectory_minus.csv")],
                         ids=["serial", "forked-parent", "forked-child"])
def test_cli_run_output_error_exits_2(tmp_path, capsys, monkeypatch, cpus, taken):
    # wave_demo's CSVs have 107 736 rows: with two CPUs a forked writer
    # formats stamps during the solve, and the commit creates both files
    # before the writer appends to them (a failing writer is the next test)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
    target = tmp_path / "wave_demo" / taken
    target.mkdir(parents=True)
    assert main(["run", "wave_demo", "--out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"output error: {target}: Is a directory\n"
    assert captured.out == ""
    assert not list(target.parent.glob("*.part"))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def counted_forks(monkeypatch):
    """Report two usable CPUs and count the forks a run makes."""
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    return forks


def _assert_no_writer_left(directory):
    assert not list(directory.rglob("*.part"))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_cli_run_writer_failure_exits_2(tmp_path, capsys, monkeypatch, counted_forks):
    # the forked writer formats each stamp's plus rows, then its minus rows,
    # and fails on the first minus rows, during the solve; the run reports
    # it on that file once the outputs are written
    parent, rows, calls = os.getpid(), fields.csv_rows, []

    def child_disk_full_on_minus(*columns):
        if os.getpid() != parent:
            calls.append(columns)
            if len(calls) == 2:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return rows(*columns)

    monkeypatch.setattr(fields, "csv_rows", child_disk_full_on_minus)
    assert main(["run", "wave_demo", "--out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    target = tmp_path / "wave_demo" / "trajectory_minus.csv"
    assert captured.err == f"output error: {target}: No space left on device\n"
    assert captured.out == ""
    assert counted_forks == [1]
    _assert_no_writer_left(tmp_path)


@pytest.mark.parametrize("demo,edits,message", [
    ("wave_demo", {"energy": {"p": 2.0, "rate": 300.0}},
     "energy error: the Gronwall envelope must be finite"),
    # 8 e^{4m/c} = 8 e^{700} is finite, and so is the bound at zero norms;
    # times the initial norm of a velocity of amplitude 8e4 it leaves the floats
    ("wave_demo", {"checks": [{"kind": "wave_m", "q": 2, "m": 350.0, "tol": 0.0}],
                   "scenario.initial_velocity": {"kind": "bump", "amplitude": 8e4,
                                                 "center": 0.4, "halfwidth": 0.2}},
     "check error: the bound at q=2.0 is not finite"),
    ("parabolic_demo", {"scenario.diffusion": {"kind": "uniform", "signal": {
        "kind": "exp_decay", "amplitude": 1.0, "rate": -800.0, "offset": 1.0}}},
     "solver error: solver diverged at step 437, t = 0.8740000000000007 "
     "(non-finite flux boundary balance)"),
], ids=["wave_envelope", "bound_past_the_floats", "diffusion_overflow"])
def test_cli_run_failing_after_the_writer_started_leaves_nothing(
        tmp_path, capsys, counted_forks, demo, edits, message):
    # every record streams to a writer from its first stamp; the failure
    # comes in the solve or after it, before the commit
    doc = load_config(demo)
    for location, value in edits.items():
        *parents, key = location.split(".")
        functools.reduce(dict.__getitem__, parents, doc)[key] = value
    cfg = tmp_path / "late_error.yaml"
    cfg.write_text(yaml.safe_dump(doc))
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == message + "\n"
    assert counted_forks == [1]
    assert not (tmp_path / "out").exists()
    _assert_no_writer_left(tmp_path)


def test_cli_run_with_violations_leaves_no_writer(tmp_path, capsys, monkeypatch, counted_forks):
    # every stamp violates (the bound is lowered below the norm), so the run
    # exits 1 after writing and waiting for the writer
    check = cli.check_trajectory

    def violated(*args):
        rep = check(*args)
        rep.rhs = rep.lhs - 1.0
        return rep

    monkeypatch.setattr(cli, "check_trajectory", violated)
    assert main(["run", "parabolic_demo", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().out.endswith("status=violations\n")
    assert counted_forks == [1]
    _assert_no_writer_left(tmp_path)


def test_cli_run_interrupted_mid_solve_leaves_nothing(tmp_path, monkeypatch, counted_forks):
    # the time loop records through _record, the states checked already
    record, stamps = Trajectory._record, []

    def interrupted_record(self, t, states):
        stamps.append(t)
        if len(self) == 100:
            raise KeyboardInterrupt
        record(self, t, states)

    monkeypatch.setattr(Trajectory, "_record", interrupted_record)
    with pytest.raises(KeyboardInterrupt):
        main(["run", "parabolic_demo", "--out", str(tmp_path / "out")])
    assert len(stamps) == 101 and counted_forks == [1]
    assert not (tmp_path / "out").exists()
    _assert_no_writer_left(tmp_path)


def test_cli_verify_never_forks(tmp_path, capsys, monkeypatch):
    def no_fork():
        raise AssertionError("verify forked")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "fork", no_fork)
    assert main(["verify", "all", "--seed", "0", "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().out.endswith("failed=0 total=60\n")


def test_cli_verify_report_write_error_exits_2(tmp_path, capsys):
    target = tmp_path / "verify_trunc.txt"
    target.mkdir()
    assert main(["verify", "trunc", "--out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"output error: {target}: Is a directory\n"
    assert captured.out == ""
