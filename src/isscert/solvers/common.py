"""Shared solver configuration and error types."""

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


@dataclass
class SolverConfig:
    """Time-stepping controls shared by all solvers.

    dt is mandatory for the parabolic stepper.  The hyperbolic steppers
    choose dt per step from cfl_sigma (and cap it at dt when both are
    given); cfl_sigma must lie in (0, 1].  bc_tol, finite and positive,
    is the bracket width at which the flux-boundary bisection of the
    parabolic stepper stops (it also stops once the bracket ends are
    adjacent floats), and the largest end-value change accepted between
    the coupled sweeps of a line with two flux ends.  Every
    output_stride-th step is recorded, plus the initial and final states.
    """

    t_end: float
    dt: float | None = None
    cfl_sigma: float | None = None
    bc_tol: float = 1e-10
    output_stride: int = 1

    def __post_init__(self):
        if not (math.isfinite(self.t_end) and self.t_end > 0):
            raise ValueError("t_end must be positive")
        if self.dt is not None and not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError("dt must be positive when given")
        if self.cfl_sigma is not None and not (0.0 < self.cfl_sigma <= 1.0):
            raise ValueError("cfl_sigma must lie in (0, 1]")
        if not (math.isfinite(self.bc_tol) and self.bc_tol > 0):
            raise ValueError("bc_tol must be finite and positive")
        if self.output_stride < 1:
            raise ValueError("output_stride must be at least 1")


def check_finite(values, step, t, detail=""):
    if not np.all(np.isfinite(values)):
        raise SolverDivergedError(step, t, detail)


def capped_dt(raw_dt, speed, h, sigma):
    """Largest dt <= raw_dt with speed*dt/h <= sigma, exactly in floats."""
    dt = min(raw_dt, sigma * h / speed)
    # float roundoff can push the computed ratio a hair over sigma
    while speed * dt / h > sigma:
        dt = np.nextafter(dt, 0.0)
    return float(dt)
