"""Tests for the time loop and configuration shared by all steppers."""

import math
import sys
from dataclasses import replace
from fractions import Fraction

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


def clock_calls(solver, *args):
    """solver(*args) and the number of times it evaluated march's clock."""
    code = next(c for c in march.__code__.co_consts if getattr(c, "co_name", None) == "clock")
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call" and frame.f_code is code

    sys.setprofile(count)
    try:
        traj = solver(*args)
    finally:
        sys.setprofile(None)
    return traj, calls


@pytest.mark.parametrize("pde", sorted(LOOP_CASES))
def test_a_step_evaluates_the_clock_once(pde):
    # a parabolic or wave step reads its end-of-step data at the stamp the
    # loop then takes, and a transport step reads none; each run ends in a
    # partial step, which starts a new run of the clock
    solver, demo, t_end = LOOP_CASES[pde]
    plan = load_plan(demo)
    traj, calls = clock_calls(solver, plan.scenario, plan.grid, replace(plan.solver, t_end=t_end))
    assert calls == traj.counters["steps"] > 2
    assert traj.counters["dt_min"] < traj.counters["dt_max"] and traj.times[-1] == t_end


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
    assert every.times[-1] == t_end
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
    # the parabolic dt and the constant wave speed fix every step but the
    # last before the run, so ceil(t_end/dt) steps size the record to its
    # stamps; transport steps follow the mass, bounded below by the step at
    # the speed's sup
    solver, demo, t_end = LOOP_CASES[pde]
    plan = load_plan(demo)
    traj = solver(plan.scenario, plan.grid,
                  replace(plan.solver, t_end=t_end, output_stride=stride))
    rows = {traj._times.size, *(a.shape[0] for a in traj._data.values())}
    assert len(rows) == 1
    if pde == "transport":
        assert rows.pop() >= len(traj)
    else:
        assert rows.pop() == len(traj)


SOLVERS = {"parabolic": solve_parabolic, "transport": solve_transport, "wave": solve_wave}


@pytest.mark.parametrize("name", bundled_names())
def test_every_bundled_solve_sizes_its_record_in_closed_form_and_steps_once(name, monkeypatch):
    # a fixed dt or a constant wave speed make every step but the last
    # dt_min long, so the record holds the stamps; transport keeps one slot
    # more, and transport_liss's speed follows the mass and only exceeds
    # the sup's step
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
        assert rows.pop() == len(traj) + (plan.pde == "transport")


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
    # every run's last stamp is t_end, to the bit
    assert traj.times[-1] == plan.solver.t_end
    if plan.pde == "parabolic":
        # t_end is a whole number of steps: none is cut, so each sweep
        # factors its band once
        assert counters["dt_min"] == counters["dt_max"] == plan.solver.dt
        assert counters["band_factorizations"] == plan.grid.dim


def test_wave_demo_records_every_step_without_slack():
    # the wave run of `verify wave` records 1335 stamps, which doubling
    # held in 2048 rows; the closed-form size holds them exactly
    plan = load_plan("wave_demo")
    traj = solve_wave(plan.scenario, plan.grid, replace(plan.solver, output_stride=1))
    assert len(traj) == 1335
    assert traj._times.size == traj._data["plus"].shape[0] == 1335


def spiky_march(spikes, stride):
    """march on a 9-point record whose state at step k has spikes[k] (1 by
    default) at one node, dt 0.1 up to t = 1."""
    traj = Trajectory("parabolic", Grid(8))

    def advance(t, dt_max, state, step, clock):
        w = np.zeros(9)
        w[4] = spikes.get(step, 1.0)
        return dt_max, (w,)

    march(traj, SolverConfig(t_end=1.0, dt=0.1, output_stride=stride),
          (np.full(9, 0.5),), advance, dt_min=0.1)
    return traj


def test_march_records_the_largest_magnitude_over_every_step():
    # the spike at step 3 falls between the recorded stamps 0, 5 and 10
    traj = spiky_march({3: -7.5}, stride=5)
    # 3 stamps, in a record sized for them
    assert len(traj) == 3 and traj._times.size == 3
    assert np.abs(traj.states()).max() == 1.0
    assert traj.counters["max_abs"] == {"u": 7.5}
    assert traj.counters["steps"] == 10
    assert traj.counters["dt_min"] == traj.counters["dt_max"] == 0.1


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_march_reports_a_non_finite_state_at_its_step(bad):
    with pytest.raises(SolverDivergedError, match=r"^solver diverged at step 4, t = 0.4$") as info:
        spiky_march({4: bad}, stride=5)
    assert info.value.step == 4


def clocked_march(t_end, dt, cut=None):
    """A march of zero states from t = 0 to t_end at dt (cut(step, dt_max),
    if given, picks a step's dt); the record and each step's (t, dt_max,
    dt, clock(dt))."""
    traj, seen = Trajectory("parabolic", Grid(8)), []

    def advance(t, dt_max, state, step, clock):
        dt = dt_max if cut is None else cut(step, dt_max)
        seen.append((t, dt_max, dt, clock(dt)))
        return dt, state

    march(traj, SolverConfig(t_end=t_end, dt=dt), (np.zeros(9),), advance, dt_min=dt)
    return traj, seen


@pytest.mark.parametrize("t_end,dt", [(2.0, 0.001), (1.5, 0.002), (0.3, 0.004),
                                      (1.0, 0.1), (7.03125, 0.00703125), (3.0, 0.00225)])
def test_a_fixed_dt_run_stamps_k_dt_rounded_once_and_ends_at_t_end(t_end, dt):
    # k*dt is a product of floats rounded once; the last stamp is t_end to
    # the bit, and only a step the time left cuts by more than 4 ulp(t_end)
    # is shorter than dt
    traj, seen = clocked_march(t_end, dt)
    k = np.arange(len(traj))
    assert np.array_equal(traj.times[:-1], k[:-1] * dt)
    assert traj.times[-1] == t_end
    assert [end for *_, end in seen] == list(traj.times[1:])
    dts = [dt_step for _, _, dt_step, _ in seen]
    assert dts[:-1] == [dt] * (len(dts) - 1)
    near = 4 * math.ulp(t_end)
    assert dts[-1] == dt if t_end - traj.times[-2] >= dt - near else t_end - traj.times[-2]
    assert len(traj) - 1 == math.ceil(t_end / dt) == traj._times.size - 1


def test_a_step_within_the_rounding_bound_of_t_end_keeps_its_dt():
    # ten additions of 0.1 leave 0.9999999999999999, and the old stop rule
    # cut or skipped the last step; 10*0.1 rounds to 1.0, and the step that
    # starts at 9*0.1, 0.09999999999999998 short of t_end, keeps dt = 0.1
    traj, seen = clocked_march(1.0, 0.1)
    t9, dt_max, dt, end = seen[-1]
    assert (t9, 1.0 - t9) == (0.9, 0.09999999999999998)
    assert (dt_max, dt, end) == (0.1, 0.1, 1.0)
    assert traj.counters["steps"] == 10
    assert traj.counters["dt_min"] == traj.counters["dt_max"] == 0.1


def test_a_short_last_step_takes_the_time_left_and_lands_on_t_end():
    # 0.25 is no whole number of 0.1-steps: the third step takes the time
    # left, 0.04999999999999999, a new run of one step, stamped t_end
    traj, seen = clocked_march(0.25, 0.1)
    assert list(traj.times) == [0.0, 0.1, 0.2, 0.25]
    assert seen[-1][1:] == (0.25 - 0.2, 0.25 - 0.2, 0.25)


def test_a_run_of_equal_steps_after_a_change_stamps_its_base_plus_j_dt_rounded_once():
    # steps of 0.3 after a first step of 0.1: stamp 0.1 + j*0.3 rounded once
    # from the exact sum, where adding 0.3 to the last stamp j times drifts
    traj, seen = clocked_march(3.1, 0.3, cut=lambda step, dt_max: min(dt_max, 0.1)
                               if step == 1 else dt_max)
    expect = [float(Fraction(0.1) + j * Fraction(0.3)) for j in range(len(traj) - 2)]
    assert list(traj.times[1:-1]) == expect
    assert traj.times[-1] == 3.1
    drift, t = [], 0.1
    for _ in range(len(traj) - 3):
        t += 0.3
        drift.append(t)
    assert drift != expect[1:]
