"""Tests for the recirculating transport solver."""

import numpy as np
import pytest

from isscert.config import (_constant_speed as constant_speed,
                            _reciprocal_speed as reciprocal_speed)
from isscert.fields import Grid, lq_norm
from isscert.signals import TimeSignal, profile_bump, profile_constant
from isscert.solvers import (AssumptionViolationError, ScenarioError,
                             SolverConfig, SolverDivergedError, TransportScenario,
                             solve_transport)


def make_scenario(**over):
    base = dict(speed_map=constant_speed(1.0), assumption="uniform", k=0.5,
                d=TimeSignal.constant(0.0), rho0=profile_constant(0.0),
                speed_floor=1.0)
    base.update(over)
    return TransportScenario(**base)


def test_zero_equilibrium():
    scn = make_scenario()
    traj = solve_transport(scn, Grid(32, layout="cell"),
                           SolverConfig(t_end=1.0, cfl_sigma=0.9))
    for i in range(len(traj)):
        assert np.max(np.abs(traj.state(i))) == 0.0


def test_steady_state_preserved():
    # rho = 1 is a fixed point of the boundary feedback when d = (1-k)
    scn = make_scenario(rho0=profile_constant(1.0),
                        d=TimeSignal.constant(0.5))
    traj = solve_transport(scn, Grid(128, layout="cell"),
                           SolverConfig(t_end=8.0, cfl_sigma=0.9,
                                        output_stride=100))
    assert traj.meta["steps"] >= 1000
    for i in range(len(traj)):
        assert np.max(np.abs(traj.state(i) - 1.0)) <= 1e-10


def test_cfl_bound_holds_exactly():
    scn = make_scenario(rho0=profile_bump(1.0, 0.4, 0.2))
    grid = Grid(64, layout="cell")
    sigma = 0.77
    traj = solve_transport(scn, grid, SolverConfig(t_end=1.0,
                                                   cfl_sigma=sigma))
    # constant unit speed: every accepted dt satisfies dt/h <= sigma
    assert traj.meta["dt_max"] * 1.0 / grid.h <= sigma


def test_first_order_convergence_to_shifted_profile():
    # before the bump reaches the outflow edge the solution is a rigid
    # translation of the initial data
    bump = profile_bump(1.0, 0.3, 0.15)
    scn = make_scenario(rho0=bump)
    errs = []
    for n in (64, 128):
        grid = Grid(n, layout="cell")
        traj = solve_transport(scn, grid,
                               SolverConfig(t_end=0.25, cfl_sigma=0.5,
                                            output_stride=10 ** 9))
        t_fin = traj.times[-1]
        pts = grid.points()
        exact = np.array([bump(y - t_fin) for y in pts])
        errs.append(np.sqrt(grid.h * np.sum((traj.state(-1) - exact) ** 2)))
    assert errs[0] / errs[1] >= 1.7


def test_l2_decay_estimate_recirculating_bump():
    # |rho(t)|_2 <= (2/k) |rho0|_2 k^(t/2) with no disturbance
    k = 0.5
    scn = make_scenario(k=k, rho0=profile_bump(1.0, 0.4, 0.2))
    grid = Grid(128, layout="cell")
    traj = solve_transport(scn, grid, SolverConfig(t_end=4.0, cfl_sigma=0.9,
                                                   output_stride=5))
    rho0_norm = lq_norm(traj.state(0), 2.0, grid)
    for i in range(len(traj)):
        t = traj.times[i]
        limit = (2.0 / k) * rho0_norm * k ** (t / 2.0)
        assert lq_norm(traj.state(i), 2.0, grid) <= limit


def test_mass_dependent_speed_slows_run():
    # decreasing speed map: heavier state moves slower, so fewer steps
    # reach t_end than with unit speed at the same sigma
    slow = make_scenario(speed_map=reciprocal_speed(1.0),
                         assumption="decreasing", speed_floor=None,
                         rho0=profile_constant(1.0),
                         d=TimeSignal.constant(0.5))
    traj = solve_transport(slow, Grid(64, layout="cell"),
                           SolverConfig(t_end=0.5, cfl_sigma=0.9))
    # speed 1/(1+W) with W ~ 1 means dt ~ 2x the unit-speed step
    fast = make_scenario(rho0=profile_constant(1.0),
                         d=TimeSignal.constant(0.5))
    traj_fast = solve_transport(fast, Grid(64, layout="cell"),
                                SolverConfig(t_end=0.5, cfl_sigma=0.9))
    assert traj.meta["steps"] < traj_fast.meta["steps"]


def test_max_abs_mass_covers_every_state():
    # the mass grows from 0.2 towards d/(1 - k) = 1; every state is recorded
    scn = make_scenario(k=0.5, rho0=profile_constant(0.2), d=TimeSignal.constant(0.5))
    grid = Grid(32, layout="cell")
    traj = solve_transport(scn, grid, SolverConfig(t_end=1.5, cfl_sigma=0.9))
    masses = [abs(grid.h * traj.state(i).sum()) for i in range(len(traj))]
    assert traj.counters["max_abs_mass"] == max(masses) > 0.2
    assert traj.counters["steps"] == traj.meta["steps"] == len(traj) - 1


def test_speed_collapse_raises():
    # 1/(1 + scale*|W|) is positive at every real mass, but its float value
    # is 0 once scale*|W| overflows, as 1e308*2 does at the initial mass
    scn = make_scenario(speed_map=reciprocal_speed(1e308),
                        assumption="decreasing", speed_floor=None,
                        rho0=profile_constant(2.0),
                        d=TimeSignal.constant(8.0))
    scn.validate()
    with pytest.raises(AssumptionViolationError,
                       match=r"^speed 0\.0 at total mass 2\.0 is not positive \(t = 0\.0\)$"), \
            np.errstate(over="ignore"):
        solve_transport(scn, Grid(32, layout="cell"),
                        SolverConfig(t_end=10.0, cfl_sigma=0.9))


def test_non_finite_boundary_value_diverges_at_its_step():
    # steps of 0.01 start at t = 0, ..., 0.03, 0.04: step 5 is the first
    # whose inflow reads the non-finite d, as exp(20000 t) overflows to inf
    # past t = 0.0355 and is finite at 0.03
    scn = make_scenario(d=TimeSignal.exp_decay(1.0, -20000.0))
    with pytest.raises(SolverDivergedError) as exc, np.errstate(over="ignore"):
        solve_transport(scn, Grid(20, layout="cell"),
                        SolverConfig(t_end=1.0, dt=0.01))
    assert exc.value.step == 5
    assert exc.value.t == pytest.approx(0.05, rel=1e-12)


def test_scenario_validation():
    with pytest.raises(ScenarioError):
        make_scenario(assumption="A1").validate()
    with pytest.raises(ScenarioError):
        make_scenario(k=1.0).validate()
    with pytest.raises(ScenarioError):
        make_scenario(k=-1.2).validate()
    # a bare callable d would solve to the end and fail in the bound's sup
    with pytest.raises(ScenarioError, match="d must be a TimeSignal, got function"):
        make_scenario(d=lambda t: 0.1).validate()


def test_validate_decides_the_speed_by_its_kind():
    # every speed kind is even and nonincreasing in |s|, so its sup is
    # speed(0), and a plain callable carries no kind
    with pytest.raises(ScenarioError, match="^speed map must be a constant or reciprocal "
                                            "speed, got function$"):
        make_scenario(speed_map=lambda w: 1.0).validate()
    # "uniform" refuses at config time only a floor above the sup; the
    # speed at each mass the run reaches is checked at its step
    make_scenario(speed_map=reciprocal_speed(1.0), speed_floor=1.0).validate()
    with pytest.raises(ScenarioError, match="^speed map drops below its declared floor$"):
        make_scenario(speed_map=reciprocal_speed(1.0), speed_floor=1.5).validate()
    with pytest.raises(ScenarioError, match="^speed map drops below its declared floor$"):
        make_scenario(speed_map=constant_speed(2.0), speed_floor=3.0).validate()
    for scale in (0.0, 1.0, 1e308):
        make_scenario(speed_map=reciprocal_speed(scale), assumption="decreasing",
                      speed_floor=None).validate()


def test_speed_floor_is_compared_exactly():
    # "uniform" refuses a constant speed one float below its floor
    with pytest.raises(ScenarioError, match="^speed map drops below its declared floor$"):
        make_scenario(speed_floor=np.nextafter(1.0, 2.0)).validate()
    # the run's mass stays 1.0, where 1/(1 + W) is 0.5: a floor of 0.5 holds
    # at every step, and one a float above it fails at the first
    scn = make_scenario(speed_map=reciprocal_speed(1.0), assumption="decreasing",
                        speed_floor=0.5, rho0=profile_constant(1.0), d=TimeSignal.constant(0.5))
    grid, cfg = Grid(32, layout="cell"), SolverConfig(t_end=0.5, cfl_sigma=0.9)
    traj = solve_transport(scn, grid, cfg)
    assert traj.counters["max_abs_mass"] == 1.0 and traj.times[-1] == 0.5
    above = float(np.nextafter(0.5, 1.0))
    with pytest.raises(AssumptionViolationError, match=(
            rf"^speed 0\.5 at total mass 1\.0 drops below the declared floor {above!r} "
            rf"\(t = 0\.0\)$")):
        solve_transport(make_scenario(**{**scn.__dict__, "speed_floor": above}), grid, cfg)


def test_node_grid_rejected():
    with pytest.raises(ValueError):
        solve_transport(make_scenario(), Grid(32, layout="node"),
                        SolverConfig(t_end=0.1, cfl_sigma=0.9))
