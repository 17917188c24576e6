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
    bc_tol, or where the rounding of its balance allows no better.
    :func:`march` records every output_stride-th step.
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


def march(traj, cfg, state, advance, dt_min, equal=True):
    """Run the time loop of a solve from t = 0 to cfg.t_end into traj.

    state is the tuple of initial arrays, one per name of traj.names. Step
    number step calls advance(t, dt_max, state, step, clock), which returns
    (dt, new state), dt <= dt_max, and passes its exceptions through;
    clock(dt), where advance reads end-of-step data, is the stamp of a step
    of dt: t_b + j*dt rounded once on a run of equal steps from stamp t_b
    (fl(k*dt) at a fixed dt), and t_end from t_end - 4 ulp(t_end) on, which
    ends the loop.  The loop takes the stamp advance read for the dt it
    returns, so a step evaluates the clock once.  If t_end = K*dt in
    decimals, dt, t_end and fl(K*dt) each round by a relative u = 2**-53 at
    most, so fl(K*dt) lies within 3 ulp(t_end) of t_end.  dt_max is the
    time left, or dt_min if that is less than 4 ulp(t_end) short of it,
    capped at cfg.dt.  traj holds
    ceil(t_end/dt_min) steps (RecordSizeError if it cannot): with equal,
    each step but the last is dt_min (parabolic, wave), and M =
    ceil(fl(t_end/dt_min)) gives fl(M*dt_min) >= t_end*(1 - 2u), so no run
    takes more; transport's stamps can lag the sum of its dts, so its record
    holds one step more.  A non-finite state is a SolverDivergedError(step,
    t).  Records t = 0, every output_stride-th step and the last, unchecked
    by traj, and sets traj.counters "steps", "dt_min" and "dt_max" (the last
    step included) and "max_abs", each state's largest magnitude by name.
    """
    t_end, stride, near = cfg.t_end, cfg.output_stride, 4.0 * math.ulp(cfg.t_end)
    try:
        traj.reserve(record_rows(cfg, dt_min, equal))
    except (MemoryError, ValueError, ArithmeticError) as exc:
        raise RecordSizeError(f"no record holds the steps of dt {dt_min:.4g} up to "
                              f"t = {t_end:g} ({exc})") from exc
    t, step, least, most, reach = 0.0, 0, math.inf, 0.0, [0.0] * len(traj.names)
    run_dt, base, unit, den, j = None, 0, 0, 1, 0  # stamp j of the run: (base + j*unit)/den
    read = None  # the (dt, stamp) advance read this step

    def clock(dt):
        nonlocal read
        end = (t + dt if dt != run_dt else (base + (j + 1) * unit) / den if base
               else (j + 1) * dt)
        read = dt, (t_end if end >= t_end - near else end)
        return read[1]

    while True:
        for i, values in enumerate(state):
            # one reduction checks finiteness (NaN and inf survive it) and the magnitude
            top = float(np.abs(values).max())
            if not top < math.inf:
                raise SolverDivergedError(step, t)
            reach[i] = max(reach[i], top)
        if t == t_end or step % stride == 0:
            traj._record(t, state)
        if t == t_end:
            break
        rest, step = t_end - t, step + 1
        dt_max = min(cfg.dt or math.inf, max(rest, dt_min) if rest >= dt_min - near else rest)
        dt, state = advance(t, dt_max, state, step, clock)
        # before a new run starts the clock reads t + dt rounded once, its first stamp
        tn = read[1] if read is not None and read[0] == dt else clock(dt)
        if dt != run_dt:
            (tb, db), (dn, dd) = t.as_integer_ratio(), dt.as_integer_ratio()
            run_dt, base, unit, den, j = dt, tb * dd, dn * db, db * dd, 0
        t, j, read = tn, j + 1, None
        least, most = min(least, dt), max(most, dt)
    traj.counters.update(steps=step, dt_min=least, dt_max=most,
                         max_abs=dict(zip(traj.names, reach)))


def record_rows(cfg, dt_min, equal=True):
    """The stamps :func:`march` reserves for cfg's run of steps of at least
    dt_min, one step more where they are not equal; OverflowError where the
    step count passes the floats."""
    return 1 + -(-(math.ceil(cfg.t_end / dt_min) + (not equal)) // cfg.output_stride)


def capped_dt(raw_dt, speed, h, sigma):
    """Largest dt <= raw_dt with speed*dt/h <= sigma, exactly in floats."""
    dt = min(raw_dt, sigma * h / speed)
    # float roundoff can push the computed ratio a hair over sigma
    while speed * dt / h > sigma:
        dt = np.nextafter(dt, 0.0)
    return float(dt)
