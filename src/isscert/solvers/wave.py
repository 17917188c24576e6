"""Characteristic upwind scheme for the boundary-damped wave class

    w_tt = c**2 * w_yy + f(y, t),      w(0, t) = 0,
    w_y(1, t) = -k * w_t(1, t) + d(t),  with  c*k = 1.

The solver evolves the characteristic pair

    plus  = w_t + c * w_y     (travels toward y = 0),
    minus = w_t - c * w_y     (travels toward y = 1),

each a forced transport equation, with first-order upwind differences.
Both boundary closures are exact algebraic identities of the pair:
substituting the damping law with c*k = 1 gives plus(1, t) = c*d(t), and
the pinned end gives minus(0, t) = -plus(0, t).  They are enforced by
direct assignment every step, so the recorded states satisfy them to the
last bit.  Incompatible initial data is projected onto the closures at
t = 0.  The time loop is the one all steppers share,
:func:`~isscert.solvers.common.march`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..fields import Grid, Trajectory
from ..signals import SpaceTimeField, TimeSignal
from .common import ScenarioError, SolverConfig, capped_dt, march

__all__ = ["WaveScenario", "solve_wave", "reconstruct_wave_state"]


@dataclass
class WaveScenario:
    """Problem data for the boundary-damped wave class.

    The damping gain is tied to the wave speed by k = 1/c.  Initial
    displacement must vanish at the pinned end y = 0.  The forcing f is a
    :class:`~isscert.signals.SpaceTimeField`, so its sup is exact.
    """

    c: float
    f: SpaceTimeField
    d: TimeSignal
    w0: Callable
    v0: Callable
    label: str = ""

    @property
    def k(self) -> float:
        return 1.0 / self.c

    def validate(self):
        if not isinstance(self.f, SpaceTimeField):
            raise ScenarioError(f"f must be a SpaceTimeField, got {type(self.f).__name__}")
        if not isinstance(self.d, TimeSignal):
            raise ScenarioError(f"d must be a TimeSignal, got {type(self.d).__name__}")
        if not (np.isfinite(self.c) and self.c > 0):
            raise ScenarioError("wave speed must be positive")
        if abs(float(self.w0(0.0))) > 1e-12:
            raise ScenarioError("initial displacement must vanish at y = 0")


def reconstruct_wave_state(plus, minus, c):
    """Velocity and slope (w_t, w_y) from the characteristic pair."""
    plus = np.asarray(plus, dtype=float)
    minus = np.asarray(minus, dtype=float)
    if not c > 0:
        raise ValueError("wave speed must be positive")
    return 0.5 * (plus + minus), (plus - minus) / (2.0 * c)


def least_step(scn: WaveScenario, grid: Grid, cfg: SolverConfig) -> float:
    """Every step of a run but its last: cfg.dt capped at cfl_sigma."""
    return capped_dt(cfg.dt or np.inf, scn.c, grid.h, cfg.cfl_sigma)


def solve_wave(scn: WaveScenario, grid: Grid, cfg: SolverConfig) -> Trajectory:
    """March the characteristic pair to cfg.t_end with upwind differences.

    The initial slope is the second-order gradient of w0 (centered
    interior, one-sided ends).  Every recorded stamp satisfies
    plus[-1] == c*d(t) and minus[0] == -plus[0] exactly.
    """
    scn.validate()
    if grid.layout != "node" or grid.dim != 1:
        raise ValueError("wave runs need a node-centered Grid on the interval")
    c = scn.c
    h = grid.h
    y = grid.points()

    slope0 = np.gradient(np.asarray(scn.w0(y), dtype=float), h, edge_order=2)
    v0 = np.asarray(scn.v0(y), dtype=float)
    plus = v0 + c * slope0
    minus = v0 - c * slope0
    plus[-1] = c * float(scn.d(0.0))
    minus[0] = -plus[0]

    f_y = scn.f.bind(y)

    def advance(t, dt_max, state, step, clock):
        plus, minus = state
        dt = capped_dt(dt_max, c, h, cfg.cfl_sigma)
        nu = c * dt / h
        fvals = f_y(t)
        plus_new = plus.copy()
        plus_new[:-1] += nu * (plus[1:] - plus[:-1]) + dt * fvals[:-1]
        plus_new[-1] = c * float(scn.d(clock(dt)))
        minus_new = minus.copy()
        minus_new[1:] += -nu * (minus[1:] - minus[:-1]) + dt * fvals[1:]
        minus_new[0] = -plus_new[0]
        return dt, (plus_new, minus_new)

    traj = Trajectory("wave", grid, names=("plus", "minus"), meta={
        "scheme": "characteristic upwind",
        "n": grid.n, "cfl_sigma": cfg.cfl_sigma, "c": c, "t_end": cfg.t_end,
        "scenario": scn.label,
    })
    march(traj, cfg, (plus, minus), advance, least_step(scn, grid, cfg))
    traj.meta["steps"] = traj.counters["steps"]
    return traj
