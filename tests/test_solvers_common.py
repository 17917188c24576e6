"""Tests for the time loop and configuration shared by all steppers."""

from dataclasses import replace

import numpy as np
import pytest

from isscert.config import load_plan
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
    # the run; transport steps follow the mass, so its record doubles
    solver, demo, t_end = LOOP_CASES[pde]
    plan = load_plan(demo)
    traj = solver(plan.scenario, plan.grid,
                  replace(plan.solver, t_end=t_end, output_stride=stride))
    rows = {traj._times.size, *(a.shape[0] for a in traj._data.values())}
    if pde == "transport":
        assert len(rows) == 1 and rows.pop() >= len(traj)
    else:
        assert rows == {len(traj)}


def test_wave_demo_records_every_step_without_slack():
    # the wave run of `verify wave` records 1335 stamps, which doubling
    # held in 2048 rows
    plan = load_plan("wave_demo")
    traj = solve_wave(plan.scenario, plan.grid, replace(plan.solver, output_stride=1))
    assert len(traj) == 1335
    assert traj._times.size == traj._data["plus"].shape[0] == 1335


def spiky_march(spikes, stride):
    """march on a 9-point record whose state at step k has spikes[k] (1 by
    default) at one node, dt 0.1 up to t = 1."""
    traj = Trajectory("parabolic", Grid(8))

    def advance(t, dt_max, state, step):
        w = np.zeros(9)
        w[4] = spikes.get(step, 1.0)
        return dt_max, (w,)

    march(traj, SolverConfig(t_end=1.0, dt=0.1, output_stride=stride),
          (np.full(9, 0.5),), advance, step_dt=lambda dt_max: dt_max)
    return traj


def test_march_records_the_largest_magnitude_over_every_step():
    # the spike at step 3 falls between the recorded stamps 0, 5 and 10
    traj = spiky_march({3: -7.5}, stride=5)
    assert len(traj) == traj._times.size == 3
    assert np.abs(traj.states()).max() == 1.0
    assert traj.counters["max_abs"] == {"u": 7.5}
    assert traj.counters["steps"] == 10


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_march_reports_a_non_finite_state_at_its_step(bad):
    with pytest.raises(SolverDivergedError, match=r"^solver diverged at step 4, t = 0.4$") as info:
        spiky_march({4: bad}, stride=5)
    assert info.value.step == 4
