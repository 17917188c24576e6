"""Tests for the time loop and configuration shared by all steppers."""

from dataclasses import replace

import numpy as np
import pytest

from isscert.config import load_plan
from isscert.solvers import SolverConfig, solve_parabolic, solve_transport, solve_wave

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
