"""Conservative upwind scheme for the nonlocal-velocity transport class

    rho_t + (speed(W(t)) * rho)_y = 0,       W(t) = integral of rho over (0, 1),

with the recirculation boundary condition rho(0, t) = k*rho(1, t) + d(t),
|k| < 1.  The velocity depends on the instantaneous total mass only, so
within a step the field is advected rigidly; cell averages are updated
with first-order upwind fluxes and the step size is chosen so the CFL
number speed*dt/h never exceeds the configured safety factor.  The time
loop is the one all steppers share, :func:`~isscert.solvers.common.march`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ..fields import Grid, Trajectory
from ..signals import TimeSignal
from .common import AssumptionViolationError, ScenarioError, SolverConfig, capped_dt, march

__all__ = ["TransportScenario", "solve_transport"]

_ASSUMPTIONS = ("uniform", "decreasing")


@dataclass
class TransportScenario:
    """Problem data for the recirculating transport class.

    speed_map is one of the config's speed kinds, which carry their sup
    as an attribute; :meth:`validate` reads it and refuses any other
    callable.  Every speed kind is even and nonincreasing in |s|, which is
    what assumption "decreasing" and the local estimates need, so its sup
    is speed(0).  Assumption "uniform" declares speed(s) >= speed_floor > 0
    (speed_floor mandatory), which :meth:`validate` refuses only when the
    floor lies above the sup.  A declared speed_floor, under either
    assumption, is what the energy's decay rate uses, so
    :func:`solve_transport` checks it, and that the speed is positive, at
    the mass of every step.
    """

    speed_map: Callable
    assumption: str
    k: float
    d: TimeSignal
    rho0: Callable
    speed_floor: Optional[float] = None
    label: str = ""

    def validate(self):
        if not isinstance(self.d, TimeSignal):
            raise ScenarioError(f"d must be a TimeSignal, got {type(self.d).__name__}")
        if self.assumption not in _ASSUMPTIONS:
            raise ScenarioError(f"assumption must be one of {_ASSUMPTIONS}")
        if not abs(self.k) < 1.0:
            raise ScenarioError(f"recirculation gain must satisfy |k| < 1, got {self.k}")
        # getattr, not isinstance: a wrapper that forwards attributes passes
        sup = getattr(self.speed_map, "sup", None)
        if sup is None:
            raise ScenarioError("speed map must be a constant or reciprocal speed, "
                                f"got {type(self.speed_map).__name__}")
        if not 0 < sup < np.inf:
            raise ScenarioError("speed map must be positive and finite")
        if self.speed_floor is not None and not self.speed_floor > 0:
            raise ScenarioError("a declared speed_floor must be positive")
        if self.assumption == "uniform":
            if self.speed_floor is None:
                raise ScenarioError("assumption 'uniform' needs speed_floor > 0")
            if sup < self.speed_floor:
                raise ScenarioError("speed map drops below its declared floor")


def least_step(scn: TransportScenario, grid: Grid, cfg: SolverConfig) -> float:
    """A bound below every step of a run but its last: no speed exceeds the
    sup, so no step is shorter than cfg.dt capped at cfl_sigma at the sup."""
    return capped_dt(cfg.dt or np.inf, scn.speed_map.sup, grid.h, cfg.cfl_sigma)


def solve_transport(scn: TransportScenario, grid: Grid, cfg: SolverConfig) -> Trajectory:
    """March to cfg.t_end with first-order upwind fluxes on cell averages.

    The inflow value k*rho(1, t) + d(t) uses the current outflow cell and
    the current time.  Total mass W(t) is the midpoint sum of the cell
    averages; the largest |W| over every state goes to
    traj.counters["max_abs_mass"].  Raises AssumptionViolationError if the
    speed ever fails to be positive along the run, or drops below a
    declared speed_floor, compared exactly.
    """
    scn.validate()
    if grid.layout != "cell":
        raise ValueError("transport runs need a cell-centered Grid")
    h = grid.h
    top_mass = 0.0

    def advance(t, dt_max, state, step, clock):
        nonlocal top_mass
        (rho,) = state
        mass = h * float(rho.sum())
        top_mass = max(top_mass, abs(mass))
        speed = float(scn.speed_map(mass))
        if not (np.isfinite(speed) and speed > 0):
            raise AssumptionViolationError(
                f"speed {speed} at total mass {mass} is not positive (t = {t})")
        if scn.speed_floor is not None and speed < scn.speed_floor:
            raise AssumptionViolationError(
                f"speed {speed} at total mass {mass} drops below the declared "
                f"floor {scn.speed_floor} (t = {t})")
        dt = capped_dt(dt_max, speed, h, cfg.cfl_sigma)
        nu = speed * dt / h
        inflow = scn.k * rho[-1] + float(scn.d(t))
        shifted = np.concatenate([[inflow], rho[:-1]])
        return dt, (rho - nu * (rho - shifted),)

    traj = Trajectory("transport", grid, meta={
        "scheme": "first-order conservative upwind, adaptive dt",
        "n": grid.n, "cfl_sigma": cfg.cfl_sigma, "t_end": cfg.t_end,
        "scenario": scn.label,
    })
    march(traj, cfg, (np.asarray(scn.rho0(grid.points()), dtype=float),), advance,
          least_step(scn, grid, cfg), equal=False)
    traj.meta.update((key, traj.counters[key]) for key in ("dt_min", "dt_max", "steps"))
    traj.counters["max_abs_mass"] = max(top_mass, abs(h * float(traj.state(-1).sum())))
    return traj
