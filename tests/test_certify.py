"""Tests for the closed-form decay bounds and trajectory checks."""

import math
from dataclasses import replace

import numpy as np
import pytest

from isscert.certify import (CheckReport, _state_norms, bound_heat_classical,
                             bound_parabolic_q, bound_transport_p,
                             bound_transport_q, bound_wave_m,
                             bound_wave_r_eps, check_trajectory,
                             prepare_bound)
from isscert.cli import run_plan
from isscert.config import (_constant_speed as constant_speed, _identity as identity,
                            _linear as linear, _reciprocal_speed as reciprocal_speed,
                            build_plan, load_config)
from isscert.fields import Grid, Trajectory, lq_norm
from isscert.glf import glf_for_parabolic, local_speed_floor, running_sups
from isscert.signals import (SpaceTimeField, TimeSignal, profile_bump,
                             profile_constant, profile_sum, profile_sin)
from isscert.solvers import (AssumptionViolationError, ParabolicScenario,
                             ScenarioError, SolverConfig,
                             TransportScenario, WaveScenario,
                             reconstruct_wave_state, solve_parabolic,
                             solve_transport, solve_wave)

ZERO = SpaceTimeField.constant(0.0)
ONE = SpaceTimeField.constant(1.0)


# ---------------------------------------------------------------------------
# bound formulas at pinned arguments


def test_parabolic_q_frozen_values():
    assert bound_parabolic_q(2.0, 0.0, 1.0, 0.0, 1.0) == 4.0
    assert bound_parabolic_q(math.inf, 0.0, 0.0, 0.7, 1.0) == pytest.approx(
        5.6, rel=1e-15)
    # decay factor only touches the transient term
    far = bound_parabolic_q(2.0, 100.0, 1.0, 0.5, 1.0)
    assert far == pytest.approx(4.0, rel=1e-12)
    with pytest.raises(ValueError):
        bound_parabolic_q(1.5, 0.0, 1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        bound_parabolic_q(2.0, 0.0, 1.0, 0.0, 0.0)


def test_transport_q_frozen_prefactor():
    got = bound_transport_q(2.0, 0.5, 0.0, 1.0, 1.0, 0.0)
    assert got == pytest.approx(4.0, rel=1e-12)
    # disturbance term is 2/(1-|k|)
    offset = bound_transport_q(2.0, 0.5, 0.0, 0.0, 1.0, 1.0)
    assert offset == pytest.approx(4.0, rel=1e-12)
    with pytest.raises(ValueError):
        bound_transport_q(2.0, 0.0, 0.0, 1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        bound_transport_q(2.0, 1.0, 0.0, 1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        bound_transport_q(2.0, 0.5, 0.0, 1.0, 0.0, 0.0)


def test_transport_p_frozen_values():
    r = 3.0 * math.log(2.0)
    got = bound_transport_p(2.0, r, 0.0, 1.0, 1.0, 0.25)
    # 2 e^{r/3} = 4 at the default rate, plus 2 sup|d|
    assert got == pytest.approx(4.5, rel=1e-12)
    with pytest.raises(ValueError):
        bound_transport_p(1.0, r, 0.0, 1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        bound_transport_p(2.0, 0.0, 0.0, 1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        bound_transport_p(2.0, r, 0.0, 1.0, 0.0, 0.0)


def test_wave_m_frozen_values():
    got = bound_wave_m(2.0, 1.0, 0.0, 1.0, 0.0, 0.0, 1.0)
    assert got == pytest.approx(8.0 * math.exp(4.0), rel=1e-10)
    forcing = bound_wave_m(2.0, 2.0, 0.0, 0.0, 0.5, 0.0, 2.0)
    assert forcing == pytest.approx(4.0 * math.exp(4.0), rel=1e-12)
    # the sup|d| gain is 4 at c = 1, times max(c, 1) = 4 at c = 4
    assert bound_wave_m(math.inf, 1.0, 0.0, 0.0, 0.0, 1.0, 4.0) == 16.0
    with pytest.raises(ValueError):
        bound_wave_m(2.0, 0.0, 0.0, 1.0, 0.0, 0.0, 1.0)


def test_wave_r_eps_frozen_value():
    got = bound_wave_r_eps(2.0, 1.0, 1.0, 0.0, 1.0, 0.0, 0.0, 2.0)
    # 4e at c = 1 with the split eps/c = 1/2, times max(c, 1) = 2
    assert got == pytest.approx(8.0 * math.e, rel=1e-12)
    with pytest.raises(ValueError):
        bound_wave_r_eps(math.inf, 1.0, 1.0, 0.0, 1.0, 0.0, 0.0, 2.0)
    with pytest.raises(ValueError):
        bound_wave_r_eps(2.0, 1.0, 2.0, 0.0, 1.0, 0.0, 0.0, 2.0)


def test_heat_classical_frozen_values():
    assert bound_heat_classical(0.0, 2.0, 1.0, 0.0, 0.0) == 2.0
    rate = math.pi**2 / 2.0 - 1.0
    got = bound_heat_classical(0.0, 0.0, 1.0, 1.0, 0.5)
    assert got == pytest.approx(1.5 / math.sqrt(rate), rel=1e-12)
    bound_heat_classical(0.0, 1.0, 2.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        bound_heat_classical(0.0, 1.0, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        bound_heat_classical(0.0, 1.0, 2.5, 0.0, 0.0)


# ---------------------------------------------------------------------------
# running sups


def test_running_sup_signal_causal():
    grid = Grid(32, layout="cell")
    sig = TimeSignal.exp_decay(2.0, 3.0)
    times = np.array([0.0, 0.5, 1.0, 2.0])
    out = running_sups(make_transport_uniform(d=sig), grid, times)["d"]
    # decaying signal: every window sup is the value at zero
    assert np.allclose(out, 2.0, rtol=1e-12)

    ramp = TimeSignal.polynomial(0.0, 1.0)
    out = running_sups(make_transport_uniform(d=ramp), grid, times)["d"]
    assert np.allclose(out, times, rtol=1e-6, atol=1e-9)


def test_running_sup_field_nondecreasing():
    fld = SpaceTimeField.from_signal(TimeSignal.sinusoid(1.0, 2.0))
    times = np.linspace(0.0, 2.0, 9)
    scn = WaveScenario(c=1.0, f=fld, d=TimeSignal.constant(0.0),
                       w0=profile_constant(0.0), v0=profile_constant(0.0))
    out = running_sups(scn, Grid(32, layout="node"), times)["f"]
    assert np.all(np.diff(out) >= -1e-15)
    assert out[-1] == pytest.approx(1.0, rel=1e-4)


def test_running_sup_of_a_parabola_is_exact():
    # 4t - 4t^2 peaks at 1.0 between the stamps 0.3 and 0.7
    scn = make_transport_uniform(d=TimeSignal.polynomial(0.0, 4.0, -4.0))
    out = running_sups(scn, Grid(32, layout="cell"), [0.0, 0.3, 0.7, 1.0])["d"]
    np.testing.assert_allclose(out, [0.0, 0.84, 1.0, 1.0], rtol=1e-15)
    assert out[2] == out[3] == 1.0
    assert np.all(np.diff(out) >= 0.0)


def test_running_sups_take_2d_edges_on_the_grid_nodes():
    # sin(6 pi y) peaks at y = 1/12, a node of the left edge when ny = 12
    # but not of a lattice with nx + 1 = 9 points
    edge = SpaceTimeField.separable(lambda xy: np.sin(6.0 * np.pi * np.asarray(xy[1])),
                                    TimeSignal.constant(1.0))
    scn = ParabolicScenario(
        dim=2, a=ONE, a0=1.0, c=ONE, c0=1.0,
        reaction=identity(), boundary_reaction=identity(),
        f=ZERO, d1=edge, d2=ZERO, w0=profile_constant(0.0),
        gamma1=("left",), gamma2=("right", "bottom", "top"))
    grid = Grid(8, 12)
    sups = running_sups(scn, grid, [0.0, 0.5])
    assert sups["d1"][-1] == pytest.approx(1.0, rel=1e-12)
    np.testing.assert_array_equal(sups["d2"], [0.0, 0.0])


@pytest.mark.parametrize("pde, name", [
    ("parabolic", "a"), ("parabolic", "c"), ("parabolic", "f"), ("parabolic", "d1"),
    ("parabolic", "d2"), ("wave", "f")])
def test_bare_callable_field_is_refused(pde, name):
    # a field known only through its callable has no exact sup or inf
    def bare(y, t):
        return np.full(np.shape(y), 1.0)

    grid = Grid(16, layout="node")
    cfg = SolverConfig(t_end=0.05, dt=0.01)
    if pde == "parabolic":
        scn, solve = make_parabolic_demo(), solve_parabolic
    else:
        scn = WaveScenario(c=1.0, f=ZERO, d=TimeSignal.constant(0.0),
                           w0=profile_constant(0.0), v0=profile_constant(0.0))
        solve = solve_wave
    setattr(scn, name, bare)
    with pytest.raises(ScenarioError, match=f"^{name} must be a SpaceTimeField, got function$"):
        solve(scn, grid, cfg)


def test_energy_and_check_share_the_truncation_level():
    wave = TimeSignal.sinusoid(0.3, 1.3, phase=0.4, offset=0.1)
    scn = ParabolicScenario(
        dim=1, a=ONE, a0=1.0, c=ONE, c0=1.0,
        reaction=identity(), boundary_reaction=identity(),
        f=SpaceTimeField.separable(profile_sin(0.8, 2), wave),
        d1=SpaceTimeField.from_signal(TimeSignal.sinusoid(0.1, 0.7)),
        d2=SpaceTimeField.from_signal(TimeSignal.polynomial(0.1, 0.5, -0.4)),
        w0=profile_sin(1.0), gamma1=("left",), gamma2=("right",))
    grid = Grid(40, layout="node")
    cfg = SolverConfig(t_end=1.2, dt=0.01, output_stride=7)
    traj = solve_parabolic(scn, grid, cfg)
    spec = glf_for_parabolic(scn, traj, 2.0)
    bound = prepare_bound("parabolic_q", traj, scn, 2.0)
    assert traj.times[-1] == cfg.t_end
    assert spec.level == bound.series["level"][-1]


def test_energy_level_is_read_at_the_last_stamp():
    # the run's last stamp is t_end = 2 to the bit, after 2000 steps of
    # 0.001 (repeated addition once ended just short of it); the forcing and
    # the Dirichlet data still rise there, and sup|d1| enters the level as
    # it is
    doc = load_config("parabolic_demo")
    doc["grid"]["n"] = 20
    doc["solver"] = {"t_end": 2.0, "dt": 0.001, "output_stride": 50}
    for key, coeffs in (("forcing", [0.1, 0.5, 0.25]), ("dirichlet_data", [0.2, 0.5])):
        doc["scenario"][key] = {"kind": "uniform", "signal": {
            "kind": "polynomial", "coeffs": coeffs}}
    plan = build_plan(doc)
    res = run_plan(plan)
    assert res.traj.times[-1] == plan.solver.t_end
    assert len(res.bounds) == len(plan.checks) == 3
    for bound in res.bounds:
        assert res.spec.level == bound.series["level"][-1]


# ---------------------------------------------------------------------------
# prepared bounds along computed trajectories


def make_parabolic_demo():
    return ParabolicScenario(
        dim=1, a=ONE, a0=1.0, c=ONE, c0=1.0,
        reaction=identity(), boundary_reaction=identity(),
        f=SpaceTimeField.constant(0.5),
        d1=SpaceTimeField.constant(0.2), d2=SpaceTimeField.constant(0.3),
        w0=profile_sum(profile_constant(0.2), profile_sin(3.0)),
        gamma1=("left",), gamma2=("right",))


def make_transport_uniform(**over):
    base = dict(speed_map=constant_speed(1.0), assumption="uniform", k=0.5,
                d=TimeSignal.constant(0.25), rho0=profile_bump(1.0, 0.4, 0.2),
                speed_floor=1.0)
    base.update(over)
    return TransportScenario(**base)


def test_parabolic_check_positive_margins():
    scn = make_parabolic_demo()
    grid = Grid(64, layout="node")
    dt = 0.005
    traj = solve_parabolic(scn, grid, SolverConfig(t_end=0.3, dt=dt))
    bound = prepare_bound("parabolic_q", traj, scn, 2.0)
    report = check_trajectory(traj, 2.0, bound, tol=grid.h**2 + dt)
    assert report.applicable
    assert report.violations == 0
    assert report.min_margin > 0.0
    assert report.lhs.shape == traj.times.shape


def test_parabolic_bound_needs_damping_floor():
    scn = make_parabolic_demo()
    grid = Grid(64, layout="node")
    traj = solve_parabolic(scn, grid, SolverConfig(t_end=0.05, dt=0.005))
    bare = ParabolicScenario(
        dim=1, a=ONE, a0=1.0, c=ZERO, c0=0.0,
        reaction=identity(), boundary_reaction=identity(),
        f=ZERO, d1=ZERO, d2=ZERO, w0=profile_sin(1.0),
        gamma1=("left",), gamma2=("right",))
    with pytest.raises(ValueError):
        prepare_bound("parabolic_q", traj, bare, 2.0)


def test_transport_q_check_positive_margins():
    scn = make_transport_uniform()
    traj = solve_transport(scn, Grid(64, layout="cell"),
                           SolverConfig(t_end=2.0, cfl_sigma=0.9,
                                        output_stride=5))
    bound = prepare_bound("transport_q", traj, scn, 2.0)
    report = check_trajectory(traj, 2.0, bound, tol=0.0)
    assert report.violations == 0
    assert report.min_margin > 0.0


def test_transport_p_requires_matching_norm():
    scn = make_transport_uniform()
    traj = solve_transport(scn, Grid(32, layout="cell"),
                           SolverConfig(t_end=0.5, cfl_sigma=0.9))
    bound = prepare_bound("transport_p", traj, scn, 3.0, params={"p": 2.0})
    assert bound.params["r"] == pytest.approx(3.0 * math.log(2.0), rel=1e-12)
    with pytest.raises(ValueError):
        prepare_bound("transport_p", traj, scn, 2.0, params={"p": 2.0})


def test_transport_routes_need_uniform_assumption():
    scn = make_transport_uniform(assumption="decreasing", speed_floor=None)
    traj = solve_transport(scn, Grid(32, layout="cell"),
                           SolverConfig(t_end=0.2, cfl_sigma=0.9))
    with pytest.raises(ValueError):
        prepare_bound("transport_q", traj, scn, 2.0)


def test_small_gain_warning():
    scn = make_transport_uniform(k=0.02)
    traj = solve_transport(scn, Grid(32, layout="cell"),
                           SolverConfig(t_end=0.2, cfl_sigma=0.9))
    bound = prepare_bound("transport_q", traj, scn, 2.0)
    assert any("ill conditioned" in w for w in bound.warnings)
    report = check_trajectory(traj, 2.0, bound, tol=0.0)
    assert report.warnings == bound.warnings


def make_transport_local(d_value=0.05, amplitude=0.1):
    return TransportScenario(
        speed_map=reciprocal_speed(1.0), assumption="decreasing",
        k=0.5, d=TimeSignal.constant(d_value),
        rho0=profile_bump(amplitude, 0.4, 0.2), speed_floor=None)


def test_liss_gate_accepts_small_data():
    scn = make_transport_local()
    traj = solve_transport(scn, Grid(64, layout="cell"),
                           SolverConfig(t_end=1.0, cfl_sigma=0.9,
                                        output_stride=5))
    bound = prepare_bound("transport_liss", traj, scn, 2.0,
                          params={"R0": 1.0})
    assert bound.gate is True
    assert bound.params["speed_floor"] > 0.0
    report = check_trajectory(traj, 2.0, bound, tol=0.0)
    assert report.applicable and report.violations == 0


def test_liss_gate_rejects_large_radius_budget():
    scn = make_transport_local()
    traj = solve_transport(scn, Grid(32, layout="cell"),
                           SolverConfig(t_end=0.5, cfl_sigma=0.9))
    bound = prepare_bound("transport_liss", traj, scn, 2.0,
                          params={"R0": 0.01})
    assert bound.gate is False
    report = check_trajectory(traj, 2.0, bound, tol=0.0)
    assert not report.applicable
    assert report.violations == 0


def test_liss_gate_refuses_a_run_whose_mass_left_the_range():
    scn = make_transport_local()
    traj = solve_transport(scn, Grid(32, layout="cell"),
                           SolverConfig(t_end=0.5, cfl_sigma=0.9))
    _, mass_range = local_speed_floor(scn, 1.0)
    assert traj.counters["max_abs_mass"] <= mass_range
    traj.counters["max_abs_mass"] = np.nextafter(mass_range, np.inf)
    with pytest.raises(AssumptionViolationError, match="total mass reached"):
        prepare_bound("transport_liss", traj, scn, 2.0, params={"R0": 1.0})
    # a gate that refuses the run certifies nothing, so the range is moot
    assert prepare_bound("transport_liss", traj, scn, 2.0, params={"R0": 0.01}).gate is False


def test_liss_variant_validation():
    scn = make_transport_local()
    traj = solve_transport(scn, Grid(32, layout="cell"),
                           SolverConfig(t_end=0.2, cfl_sigma=0.9))
    with pytest.raises(ValueError):
        prepare_bound("transport_liss", traj, scn, 2.0,
                      params={"R0": 1.0, "variant": "x"})


def test_wave_m_check_positive_margins():
    scn = WaveScenario(c=1.0, f=ZERO, d=TimeSignal.constant(0.0),
                       w0=lambda y: np.zeros_like(np.asarray(y, dtype=float)),
                       v0=profile_bump(1.0, 0.5, 0.2))
    traj = solve_wave(scn, Grid(64, layout="node"),
                      SolverConfig(t_end=1.0, cfl_sigma=0.9,
                                   output_stride=5))
    bound = prepare_bound("wave_m", traj, scn, 2.0, params={"m": 1.0})
    report = check_trajectory(traj, 2.0, bound, tol=0.0)
    assert report.violations == 0
    assert report.min_margin > 0.0


def test_heat_baseline_warns_about_reaction():
    scn = make_parabolic_demo()
    scn.d1 = ZERO  # the heat baseline needs Dirichlet zero
    grid = Grid(32, layout="node")
    traj = solve_parabolic(scn, grid, SolverConfig(t_end=0.05, dt=0.005))
    bound = prepare_bound("heat_clm", traj, scn, 2.0, {"eps": 1.0})
    assert any("reaction floor" in w for w in bound.warnings)
    # the baseline bounds the L2 norm only
    with pytest.raises(ValueError, match="heat_clm is an L2 bound; q must be 2"):
        prepare_bound("heat_clm", traj, scn, 4.0, {"eps": 1.0})


@pytest.mark.parametrize("edit, message", [
    ({"gamma1": frozenset(("left", "right")), "gamma2": frozenset()},
     "one Dirichlet end and one flux end"),
    ({"d1": SpaceTimeField.constant(0.2)}, "Dirichlet data identically 0"),
    ({"a": SpaceTimeField.constant(2.0)}, "diffusion identically 1"),
    ({"boundary_reaction": linear(2.0)}, "the identity flux law")])
def test_heat_baseline_refuses_other_equations(edit, message):
    scn = make_parabolic_demo()
    scn.d1 = ZERO
    grid, cfg = Grid(32, layout="node"), SolverConfig(t_end=0.05, dt=0.005)
    assert prepare_bound("heat_clm", solve_parabolic(scn, grid, cfg), scn, 2.0, {"eps": 1.0})
    for name, value in edit.items():
        setattr(scn, name, value)
    with pytest.raises(ValueError, match=f"^heat_clm needs {message}$"):
        prepare_bound("heat_clm", solve_parabolic(scn, grid, cfg), scn, 2.0, {"eps": 1.0})


def test_unknown_bound_kind():
    scn = make_transport_uniform()
    traj = solve_transport(scn, Grid(32, layout="cell"),
                           SolverConfig(t_end=0.2, cfl_sigma=0.9))
    with pytest.raises(ValueError):
        prepare_bound("elliptic_q", traj, scn, 2.0)
    with pytest.raises(ValueError, match="wave_m bounds wave runs, not transport ones"):
        prepare_bound("wave_m", traj, scn, 2.0, {"m": 1.0})
    with pytest.raises(ValueError):
        check_trajectory(traj, 1.5, prepare_bound("transport_q", traj, scn, 2.0), 0.0)
    with pytest.raises(ValueError):
        check_trajectory(traj, 2.0, prepare_bound("transport_q", traj, scn, 2.0), -1.0)


@pytest.mark.parametrize("tol", [math.nan, math.inf])
def test_check_trajectory_rejects_non_finite_tol(tol):
    # margins < -tol is never true for these, so every violation would hide
    scn = make_transport_uniform()
    traj = solve_transport(scn, Grid(32, layout="cell"),
                           SolverConfig(t_end=0.2, cfl_sigma=0.9))
    bound = prepare_bound("transport_q", traj, scn, 2.0)
    with pytest.raises(ValueError, match="tol must be finite and nonnegative"):
        check_trajectory(traj, 2.0, bound, tol)


def _bump_run(amplitude):
    scn = make_transport_uniform(rho0=profile_bump(amplitude, 0.4, 0.2))
    return scn, solve_transport(scn, Grid(32, layout="cell"),
                                SolverConfig(t_end=0.2, cfl_sigma=0.9))


def test_check_trajectory_refuses_a_bound_past_the_floats():
    # NaN margins would count no violation
    scn, traj = _bump_run(1.0)
    bound = replace(prepare_bound("transport_q", traj, scn, 2.0), init_norm=math.inf)
    with pytest.raises(ValueError, match=r"^the bound at q=2\.0 is not finite$"):
        check_trajectory(traj, 2.0, bound, 0.0)


def test_check_trajectory_checks_a_norm_past_the_floats(recwarn):
    # 30**700 overflows, and the norm and its bound once read inf and were
    # refused; the norm now lies between the q = 2 norm and the max
    scn, traj = _bump_run(30.0)
    rep = check_trajectory(traj, 700.0, prepare_bound("transport_q", traj, scn, 700.0), 0.0)
    assert np.isfinite(rep.rhs).all() and rep.violations == 0
    assert (_state_norms(traj, 2.0) < rep.lhs).all()
    assert (rep.lhs <= _state_norms(traj, math.inf)).all()
    assert not recwarn.list


def test_transport_q_at_q_400_certifies_the_true_norm():
    # |0.1|**400 underflows: the norm and its bound once read 0 at every
    # stamp, and the run certified status=ok at a margin of 0
    doc = load_config("transport_global")
    doc["scenario"]["initial"] = {"kind": "constant", "value": 0.1}
    doc["grid"]["n"] = 128
    doc["solver"]["cfl_sigma"] = 0.9
    doc["energy"] = None
    doc["checks"] = [{"kind": "transport_q", "q": 400.0, "tol": 0.0}]
    rep, = run_plan(build_plan(doc)).reports
    assert rep.lhs[0] == pytest.approx(0.1, rel=1e-12)
    assert rep.violations == 0 and rep.min_margin > 0.1


@pytest.mark.parametrize("demo,check,large_q", [
    ("parabolic_demo", {"kind": "parabolic_q"}, 1e5),
    ("parabolic_2d_demo", {"kind": "parabolic_q"}, 1e5),
    ("transport_global", {"kind": "transport_q"}, 1e5),
    ("wave_demo", {"kind": "wave_m", "m": 1.0}, 1e6),
])
def test_a_q_uniform_margin_at_large_q_nears_the_max_norm_margin(demo, check, large_q):
    # the q-norm tends to the max norm, so the margins of a bound uniform
    # in q do too; at q = 1e5 the norms once underflowed to 0.  The gap
    # falls like 1/q, times the initial term's coefficient: wave_m's is
    # 8e^{4m} times max(c, 1) = 2, so at q = 1e5 its gap is 1.4e-3, and
    # the wave case is read at q = 1e6 (1.4e-4)
    doc = load_config(demo)
    doc["energy"] = None
    doc["checks"] = [{**check, "q": q, "tol": 0.0} for q in (large_q, "inf")]
    large, top = (rep.min_margin for rep in run_plan(build_plan(doc)).reports)
    assert abs(large - top) <= 1e-3


# ---------------------------------------------------------------------------
# report object


def _toy_report(tol=0.1):
    times = np.array([0.0, 1.0, 2.0])
    lhs = np.array([1.0, 2.0, 1.0])
    rhs = np.array([2.0, 2.05, 0.5])
    return CheckReport(kind="transport_q", q=2.0, times=times, lhs=lhs,
                       rhs=rhs, tol=tol, params={"k": 0.5})


def test_report_margins_and_violations():
    rep = _toy_report()
    assert np.allclose(rep.margins, [1.0, 0.05, -0.5])
    assert rep.min_margin == -0.5
    assert rep.violations == 1
    line = rep.summary_line()
    assert "kind=transport_q" in line and "q=2.0" in line
    assert "violations=1" in line and "min_margin=-0.5" in line

    gated = _toy_report()
    gated.applicable = False
    assert gated.violations == 0
    assert "not-applicable" in gated.summary_line()


def test_report_csv_schema(tmp_path):
    rep = _toy_report()
    path = rep.to_csv(tmp_path / "check.csv")
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,lhs,rhs,margin"
    assert len(lines) == 1 + rep.times.size + 1
    assert lines[-1].startswith("# check kind=transport_q")
    row = lines[1].split(",")
    assert float(row[3]) == rep.margins[0]


# ---------------------------------------------------------------------------
# stamp-batched norms equal the per-stamp norms


def _solved(pde):
    if pde == "parabolic":
        return solve_parabolic(make_parabolic_demo(), Grid(48, layout="node"),
                               SolverConfig(t_end=0.7, dt=0.005))
    if pde == "transport":
        return solve_transport(make_transport_uniform(), Grid(40, layout="cell"),
                               SolverConfig(t_end=2.0, cfl_sigma=0.9))
    scn = WaveScenario(c=2.0, f=ONE, d=TimeSignal.constant(0.3),
                       w0=profile_constant(0.0), v0=profile_bump(1.0, 0.5, 0.2))
    return solve_wave(scn, Grid(48, layout="node"),
                      SolverConfig(t_end=1.5, cfl_sigma=0.9))


@pytest.mark.parametrize("q", [2.0, 3.0, 4.0, math.inf])
@pytest.mark.parametrize("pde", ["parabolic", "transport", "wave"])
def test_state_norms_bitwise_equal_per_stamp(pde, q):
    traj = _solved(pde)
    if pde == "wave":
        pairs = [reconstruct_wave_state(traj.state(i, "plus"), traj.state(i, "minus"), 2.0)
                 for i in range(len(traj))]
        expected = [lq_norm(w_t, q, traj.grid) + lq_norm(w_y, q, traj.grid)
                    for w_t, w_y in pairs]
    else:
        expected = [lq_norm(traj.state(i), q, traj.grid) for i in range(len(traj))]
    assert len(traj) > 64  # more than one block of stamps
    assert np.array_equal(_state_norms(traj, q), expected)


def test_report_csv_matches_row_reference(tmp_path):
    traj = _solved("transport")
    rep = check_trajectory(traj, 2.0, prepare_bound("transport_q", traj,
                                                    make_transport_uniform(), 2.0), 0.0)
    lines = ["t,lhs,rhs,margin\n"]
    for t, a, b in zip(rep.times, rep.lhs, rep.rhs):
        lines.append(f"{float(t)!r},{float(a)!r},{float(b)!r},{float(b - a)!r}\n")
    lines.append(f"# {rep.summary_line()}\n")
    assert rep.to_csv(tmp_path / "check.csv").read_text() == "".join(lines)


@pytest.mark.parametrize("q", [2.0, math.inf])
def test_state_norms_of_empty_trajectory(q):
    grid = Grid(8, layout="node")
    assert _state_norms(Trajectory("parabolic", grid), q).shape == (0,)
    wave = Trajectory("wave", grid, names=("plus", "minus"), meta={"c": 1.0})
    assert _state_norms(wave, q).shape == (0,)
