"""Shared solver configuration, error types and time loop."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class ScenarioError(ValueError):
    """Scenario data violates a structural requirement."""


class SolverDivergedError(RuntimeError):
    """A state stopped being finite or a step-local solve failed."""

    def __init__(self, step, t, detail=""):
        msg = f"solver diverged at step {step}, t = {t}"
        if detail:
            msg = f"{msg} ({detail})"
        super().__init__(msg)
        self.step = step
        self.t = t


class AssumptionViolationError(RuntimeError):
    """A runtime quantity left the range an assumption guarantees."""


class RecordSizeError(RuntimeError):
    """The record of a run's stamps cannot be allocated before its solve."""


@dataclass
class SolverConfig:
    """Time-stepping controls shared by all solvers.

    dt is mandatory for the parabolic stepper.  The hyperbolic steppers
    choose dt per step from cfl_sigma in (0, 1], 0.9 by default, and cap
    it at dt when both are given.  bc_tol, finite and positive, bounds the
    error of each flux end's value in the parabolic stepper, on a line
    with two flux ends too: a closure stops on a proven bound at most
    bc_tol, or where the rounding of its balance allows no better.  Every
    output_stride-th step is recorded, plus the initial and final states.
    """

    t_end: float
    dt: float | None = None
    cfl_sigma: float = 0.9
    bc_tol: float = 1e-10
    output_stride: int = 1

    def __post_init__(self):
        if not (math.isfinite(self.t_end) and self.t_end > 0):
            raise ValueError("t_end must be positive")
        if self.dt is not None and not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError("dt must be positive when given")
        if not (0.0 < self.cfl_sigma <= 1.0):
            raise ValueError("cfl_sigma must lie in (0, 1]")
        if not (math.isfinite(self.bc_tol) and self.bc_tol > 0):
            raise ValueError("bc_tol must be finite and positive")
        if self.output_stride < 1:
            raise ValueError("output_stride must be at least 1")


def check_finite(values, step, t, detail=""):
    if not np.isfinite(values).all():
        raise SolverDivergedError(step, t, detail)


def _steps(cfg, take):
    """The time loop from t = 0 to cfg.t_end, and its stop rule.

    take(t, dt_max, step) takes step number step from t and returns its
    dt <= dt_max, where dt_max is the time left, capped at cfg.dt when
    given.  Yields (step, t, last) after each step.
    """
    t_stop = cfg.t_end - 1e-12 * cfg.t_end
    t, step = 0.0, 0
    while t < t_stop:
        rest = cfg.t_end - t
        step += 1
        t += take(t, rest if cfg.dt is None else min(cfg.dt, rest), step)
        yield step, t, t >= t_stop


def march(traj, cfg, state, advance, dt_min):
    """Run the time loop of a solve from t = 0 to cfg.t_end into traj.

    state is the tuple of initial arrays, one per name of traj.names.
    advance(t, dt_max, state, step) takes step number step from t and
    returns (dt, new state) with dt <= dt_max, where dt_max is the time
    left, capped at cfg.dt when given; its exceptions pass through
    unchanged.  dt_min is the least dt advance takes before its last step,
    so traj is sized before the run for ceil(t_end/dt_min) steps plus the
    short one rounding can add (RecordSizeError if it cannot be).  Every
    state must be finite (SolverDivergedError(step, t) otherwise); the
    largest magnitude each state reaches over all steps goes to
    traj.counters["max_abs"], by name, and the number of steps to
    traj.counters["steps"].  Records t = 0, every output_stride-th step
    and the last step, unchecked by traj; returns the accepted dt.
    """
    stride = cfg.output_stride
    try:
        traj.reserve(1 + -(-(math.ceil(cfg.t_end / dt_min) + 1) // stride))
    except (MemoryError, ValueError, ArithmeticError) as exc:
        raise RecordSizeError(f"no record holds the steps of dt {dt_min:.4g} up to "
                              f"t = {cfg.t_end:g} ({exc})") from exc
    reach = dict.fromkeys(traj.names, 0.0)

    def reached(state, step, t):
        for name, values in zip(traj.names, state):
            # one reduction checks finiteness (NaN and inf survive it) and
            # gives the magnitude
            top = float(np.abs(values).max())
            if not top < math.inf:
                raise SolverDivergedError(step, t)
            reach[name] = max(reach[name], top)

    reached(state, 0, 0.0)
    traj._record(0.0, state)
    dts = []

    def take(t, dt_max, step):
        nonlocal state
        dt, state = advance(t, dt_max, state, step)
        dts.append(dt)
        return dt

    for step, t, last in _steps(cfg, take):
        reached(state, step, t)
        if step % stride == 0 or last:
            traj._record(t, state)
    traj.counters["max_abs"], traj.counters["steps"] = reach, len(dts)
    return dts


def capped_dt(raw_dt, speed, h, sigma):
    """Largest dt <= raw_dt with speed*dt/h <= sigma, exactly in floats."""
    dt = min(raw_dt, sigma * h / speed)
    # float roundoff can push the computed ratio a hair over sigma
    while speed * dt / h > sigma:
        dt = np.nextafter(dt, 0.0)
    return float(dt)
