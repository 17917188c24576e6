"""Tests for the time loop and configuration shared by all steppers."""

import math
from dataclasses import replace

import numpy as np
import pytest

from isscert.config import bundled_names, load_plan
from isscert.fields import Grid, Trajectory
from isscert.solvers import (SolverConfig, SolverDivergedError, solve_parabolic,
                             solve_transport, solve_wave)
from isscert.solvers.common import march

# bundled demos cut to short horizons whose last step is a partial one
LOOP_CASES = {
    "parabolic": (solve_parabolic, "parabolic_demo", 0.0235),
    "transport": (solve_transport, "transport_global", 0.05),
    "wave": (solve_wave, "wave_demo", 0.05),
}


@pytest.mark.parametrize("pde", sorted(LOOP_CASES))
def test_loop_records_start_every_stride_th_step_and_the_last(pde):
    solver, demo, t_end = LOOP_CASES[pde]
    plan = load_plan(demo)

    def solve(stride):
        cfg = replace(plan.solver, t_end=t_end, output_stride=stride)
        return solver(plan.scenario, plan.grid, cfg)

    every = solve(1)
    steps = len(every) - 1
    assert steps > 5
    if pde == "parabolic":
        # the parabolic meta has no step count
        assert "steps" not in every.meta
    else:
        assert every.meta["steps"] == steps
    assert every.times[0] == 0.0
    assert abs(every.times[-1] - t_end) <= 1e-12 * t_end
    for stride in (2, 5, steps, 10 * steps):
        traj = solve(stride)
        kept = [k for k in range(steps + 1) if k % stride == 0 or k == steps]
        assert np.array_equal(traj.times, every.times[kept])
        for name in traj.names:
            assert np.array_equal(traj.states(name), every.states(name)[kept])
        if pde != "parabolic":
            assert traj.meta["steps"] == steps


def test_cfl_sigma_defaults_to_0_9():
    assert SolverConfig(t_end=1.0).cfl_sigma == 0.9


@pytest.mark.parametrize("pde", sorted(LOOP_CASES))
@pytest.mark.parametrize("stride", [1, 3, 10**6])
def test_fixed_step_runs_size_their_record_exactly(pde, stride):
    # the parabolic dt and the constant wave speed fix every step before
    # the run, so ceil(t_end/dt) steps, plus the one short step rounding can
    # add, size the record to its stamps or one more; transport steps follow
    # the mass, bounded below by the step at the speed's sup
    solver, demo, t_end = LOOP_CASES[pde]
    plan = load_plan(demo)
    traj = solver(plan.scenario, plan.grid,
                  replace(plan.solver, t_end=t_end, output_stride=stride))
    rows = {traj._times.size, *(a.shape[0] for a in traj._data.values())}
    assert len(rows) == 1
    if pde == "transport":
        assert rows.pop() >= len(traj)
    else:
        assert rows.pop() in (len(traj), len(traj) + 1)


SOLVERS = {"parabolic": solve_parabolic, "transport": solve_transport, "wave": solve_wave}


@pytest.mark.parametrize("name", bundled_names())
def test_every_bundled_solve_sizes_its_record_in_closed_form_and_steps_once(name, monkeypatch):
    # a fixed dt, a constant wave speed or a constant transport speed make
    # every step but the last dt_min long, so the record holds the stamps or
    # one more (the short step rounding can add); transport_liss's speed
    # follows the mass and only exceeds the sup's step
    loops, reserve = [], Trajectory.reserve
    monkeypatch.setattr(Trajectory, "reserve",
                        lambda *args: loops.append(1) or reserve(*args))
    plan = load_plan(name)
    traj = SOLVERS[plan.pde](plan.scenario, plan.grid, plan.solver)
    assert loops == [1]
    rows = {traj._times.size, *(a.shape[0] for a in traj._data.values())}
    assert len(rows) == 1
    if name == "transport_liss":
        assert rows.pop() >= len(traj)
    else:
        assert rows.pop() in (len(traj), len(traj) + 1)


@pytest.mark.parametrize("name", bundled_names())
def test_every_bundled_run_counts_its_steps_and_dt_range(name):
    plan = load_plan(name)
    traj = SOLVERS[plan.pde](plan.scenario, plan.grid, plan.solver)
    counters, stride = traj.counters, plan.solver.output_stride
    steps = counters["steps"]
    assert len(traj) == 1 + -(-steps // stride)
    assert 0 < counters["dt_min"] <= counters["dt_max"]
    assert counters["dt_max"] <= (plan.solver.dt or math.inf)
    # transport and wave meta carry the counters' values; parabolic meta none
    kept = {"parabolic": (), "transport": ("dt_min", "dt_max", "steps"),
            "wave": ("steps",)}[plan.pde]
    assert {key: traj.meta[key] for key in kept} == {key: counters[key] for key in kept}
    assert not {"dt_min", "dt_max", "steps"}.difference(kept) & traj.meta.keys()
    if name == "heat_clm_demo":
        # repeated addition ends t within the stop slack of t_end: no step is cut
        assert counters["dt_min"] == counters["dt_max"] == 0.001
    if name == "parabolic_demo":
        # repeated addition leaves a sliver past the stop slack: a short last step
        assert counters["dt_min"] < 0.002 == counters["dt_max"]


def test_wave_demo_records_every_step_without_slack():
    # the wave run of `verify wave` records 1335 stamps, which doubling
    # held in 2048 rows; the closed-form size holds them, or one more
    plan = load_plan("wave_demo")
    traj = solve_wave(plan.scenario, plan.grid, replace(plan.solver, output_stride=1))
    assert len(traj) == 1335
    assert traj._times.size == traj._data["plus"].shape[0] in (1335, 1336)


def spiky_march(spikes, stride):
    """march on a 9-point record whose state at step k has spikes[k] (1 by
    default) at one node, dt 0.1 up to t = 1."""
    traj = Trajectory("parabolic", Grid(8))

    def advance(t, dt_max, state, step):
        w = np.zeros(9)
        w[4] = spikes.get(step, 1.0)
        return dt_max, (w,)

    march(traj, SolverConfig(t_end=1.0, dt=0.1, output_stride=stride),
          (np.full(9, 0.5),), advance, dt_min=0.1)
    return traj


def test_march_records_the_largest_magnitude_over_every_step():
    # the spike at step 3 falls between the recorded stamps 0, 5 and 10
    traj = spiky_march({3: -7.5}, stride=5)
    # 3 stamps, in a record sized for them or one more
    assert len(traj) == 3 and traj._times.size in (3, 4)
    assert np.abs(traj.states()).max() == 1.0
    assert traj.counters["max_abs"] == {"u": 7.5}
    assert traj.counters["steps"] == 10
    assert traj.counters["dt_min"] == traj.counters["dt_max"] == 0.1


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_march_reports_a_non_finite_state_at_its_step(bad):
    with pytest.raises(SolverDivergedError, match=r"^solver diverged at step 4, t = 0.4$") as info:
        spiky_march({4: bad}, stride=5)
    assert info.value.step == 4
