"""Tests for the boundary-damped wave solver and state reconstruction."""

import numpy as np
import pytest

from isscert.fields import Grid
from isscert.signals import SpaceTimeField, TimeSignal, profile_bump
from isscert.solvers import (ScenarioError, SolverConfig, SolverDivergedError,
                             WaveScenario, reconstruct_wave_state, solve_wave)

ZERO_FIELD = SpaceTimeField.constant(0.0)


def make_scenario(**over):
    base = dict(c=1.0, f=ZERO_FIELD, d=TimeSignal.constant(0.0),
                w0=lambda y: np.zeros_like(np.asarray(y, dtype=float)),
                v0=lambda y: np.zeros_like(np.asarray(y, dtype=float)))
    base.update(over)
    return WaveScenario(**base)


def test_zero_equilibrium():
    traj = solve_wave(make_scenario(), Grid(32, layout="node"),
                      SolverConfig(t_end=1.0, cfl_sigma=0.9))
    for i in range(len(traj)):
        assert np.max(np.abs(traj.state(i, "plus"))) == 0.0
        assert np.max(np.abs(traj.state(i, "minus"))) == 0.0


def test_boundary_closures_bitwise():
    scn = make_scenario(c=2.0,
                        d=TimeSignal.sinusoid(0.4, 3.0, 0.0, 0.1),
                        v0=profile_bump(1.0, 0.5, 0.2))
    traj = solve_wave(scn, Grid(64, layout="node"),
                      SolverConfig(t_end=1.5, cfl_sigma=0.9,
                                   output_stride=1))
    for i in range(len(traj)):
        t = traj.times[i]
        plus = traj.state(i, "plus")
        minus = traj.state(i, "minus")
        assert plus[-1] - scn.c * float(scn.d(t)) == 0.0
        assert minus[0] + plus[0] == 0.0


def test_damping_law_recovered_from_reconstruction():
    # with c*k = 1 the recorded pair turns the boundary assignment into
    # w_y(1, t) = -k * w_t(1, t) + d(t)
    scn = make_scenario(c=2.0, d=TimeSignal.constant(0.4))
    traj = solve_wave(scn, Grid(64, layout="node"),
                      SolverConfig(t_end=2.0, cfl_sigma=0.9,
                                   output_stride=1))
    for i in range(len(traj)):
        w_t, w_y = reconstruct_wave_state(traj.state(i, "plus"),
                                          traj.state(i, "minus"), scn.c)
        resid = w_y[-1] + scn.k * w_t[-1] - float(scn.d(traj.times[i]))
        assert abs(resid) <= 1e-12


@pytest.mark.parametrize("c", [1.0, 2.0])
def test_finite_time_absorption(c):
    # undisturbed runs die out once both characteristic families have
    # crossed the domain and left through the damped end
    scn = make_scenario(c=c, v0=profile_bump(1.0, 0.5, 0.2))
    grid = Grid(128, layout="node")
    t_end = 2.0 / c + 0.2
    traj = solve_wave(scn, grid, SolverConfig(t_end=t_end, cfl_sigma=0.9))
    w_t, w_y = reconstruct_wave_state(traj.state(-1, "plus"),
                                      traj.state(-1, "minus"), c)
    assert max(np.max(np.abs(w_t)), np.max(np.abs(w_y))) <= 10.0 * grid.h


def test_incompatible_initial_data_projected():
    # v0(1) = 1 disagrees with d(0) = 0; the stored stamp must already
    # sit on the closures
    scn = make_scenario(v0=lambda y: np.ones_like(np.asarray(y, dtype=float)))
    traj = solve_wave(scn, Grid(32, layout="node"),
                      SolverConfig(t_end=0.1, cfl_sigma=0.9))
    assert traj.state(0, "plus")[-1] == 0.0
    assert traj.state(0, "minus")[0] == -traj.state(0, "plus")[0]


def test_reconstruct_zero():
    w_t, w_y = reconstruct_wave_state(np.zeros(5), np.zeros(5), 1.0)
    assert np.all(w_t == 0.0) and np.all(w_y == 0.0)


def test_reconstruct_constant_pair():
    w_t, w_y = reconstruct_wave_state(2.0 * np.ones(4), np.zeros(4), 1.0)
    assert np.allclose(w_t, 1.0) and np.allclose(w_y, 1.0)


def test_reconstruct_matches_damping_algebra():
    c, d0 = 2.0, 0.7
    w_t, w_y = reconstruct_wave_state(c * d0 * np.ones(3), np.zeros(3), c)
    k = 1.0 / c
    assert np.allclose(w_y, -k * w_t + d0)


def test_reconstruct_rejects_bad_speed():
    with pytest.raises(ValueError):
        reconstruct_wave_state(np.zeros(3), np.zeros(3), 0.0)


def test_scenario_validation():
    with pytest.raises(ScenarioError):
        make_scenario(c=0.0).validate()
    with pytest.raises(ScenarioError):
        make_scenario(c=-1.0).validate()
    with pytest.raises(ScenarioError):
        make_scenario(w0=lambda y: np.asarray(y, dtype=float) + 1.0).validate()
    # a bare callable d would solve to the end and fail in the bound's sup
    with pytest.raises(ScenarioError, match="d must be a TimeSignal, got function"):
        make_scenario(d=lambda t: 0.1).validate()


def test_gain_tied_to_speed():
    assert make_scenario(c=4.0).k == 0.25


def test_cfl_bound_holds():
    grid = Grid(64, layout="node")
    sigma = 0.8
    traj = solve_wave(make_scenario(c=3.0, v0=profile_bump(1.0, 0.5, 0.2)),
                      grid, SolverConfig(t_end=0.5, cfl_sigma=sigma,
                                         output_stride=1))
    steps = np.diff(traj.times)
    # time stamps are accumulated sums, so allow one rounding ulp
    assert np.max(steps) * 3.0 / grid.h <= sigma * (1.0 + 1e-12)


@pytest.mark.parametrize("where, step", [("forcing", 5), ("boundary", 4)])
def test_non_finite_data_diverges_at_its_step(where, step):
    # steps of 0.01 start at t = 0, ..., 0.03, 0.04: step 5 is the first
    # to read the forcing past 0.0355 (at its start), step 4 the first to
    # read the boundary value past it (at its end).  exp(20000 t)
    # overflows to inf past t = 0.0355, and is finite at 0.03
    blowup = TimeSignal.exp_decay(1.0, -20000.0)
    data = ({"f": SpaceTimeField.from_signal(blowup)} if where == "forcing"
            else {"d": blowup})
    with pytest.raises(SolverDivergedError) as exc, np.errstate(over="ignore"):
        solve_wave(make_scenario(**data), Grid(20, layout="node"),
                   SolverConfig(t_end=1.0, dt=0.01))
    assert exc.value.step == step
    assert exc.value.t == pytest.approx(0.01 * step, rel=1e-12)


def test_cell_grid_rejected():
    with pytest.raises(ValueError):
        solve_wave(make_scenario(), Grid(32, layout="cell"),
                   SolverConfig(t_end=0.1, cfl_sigma=0.9))
