"""Closed-form decay bounds with explicit constants, and trajectory checks.

Each bound evaluator is a pure formula in the elapsed time, the initial
norm, and windowed disturbance sups.  :data:`BOUNDS` holds one entry per
bound kind: its config keys, a prepare step and an evaluate step.
:func:`prepare_bound` packages a bound for a computed trajectory, turning
every disturbance into a running sup over (0, t) so the comparison is
causal, and :func:`check_trajectory` measures the margin bound - norm at
every recorded stamp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Callable

import numpy as np

from .fields import Trajectory, lq_norm, write_table
from .glf import (default_transport_rate, local_speed_floor, running_sups,
                  truncation_level_parabolic)
from .signals import signal_range
# module attributes that profilers wrap per module (perfbench/tracing.py);
# the sups themselves run through glf.running_sups
from .signals import sup_field, sup_window  # noqa: F401
from .solvers.common import AssumptionViolationError
from .solvers.wave import reconstruct_wave_state

__all__ = [
    "BOUNDS",
    "BoundKind",
    "bound_parabolic_q",
    "bound_transport_p",
    "bound_transport_q",
    "bound_wave_r_eps",
    "bound_wave_m",
    "bound_heat_classical",
    "IssBound",
    "CheckReport",
    "prepare_bound",
    "check_trajectory",
]

# below this the transport q-norm constants blow up like 1/|k|
_SMALL_GAIN = 0.05


def _check_q(q, allow_inf=True):
    if q == math.inf or q == "inf":
        if not allow_inf:
            raise ValueError("this bound needs a finite norm exponent")
        return math.inf
    q = float(q)
    if not q >= 2.0:
        raise ValueError(f"norm exponent must lie in [2, inf], got {q}")
    return q


def bound_parabolic_q(q, t, w0_norm, level, c0):
    """4 * |w0|_q * exp(-c0 t) + 8 * level, uniformly in q within [2, inf]."""
    _check_q(q)
    if not c0 > 0:
        raise ValueError("needs a positive reaction floor c0")
    t = np.asarray(t, dtype=float)
    return 4.0 * w0_norm * np.exp(-c0 * t) + 8.0 * np.asarray(level, dtype=float)


def bound_transport_p(p, r, t, rho0_norm, speed_floor, sup_d):
    """Weighted-energy route: 2 e^{r/(p+1)} |rho0| e^{-r*floor*t/(p+1)} + 2 sup|d|.

    The state norm here is the (p+1)-norm tied to the energy exponent.
    """
    p = float(p)
    if not p > 1:
        raise ValueError("p must exceed 1")
    if not r > 0:
        raise ValueError("weight rate must be positive")
    if not speed_floor > 0:
        raise ValueError("speed floor must be positive")
    t = np.asarray(t, dtype=float)
    return (2.0 * math.exp(r / (p + 1.0)) * rho0_norm
            * np.exp(-r * speed_floor * t / (p + 1.0))
            + 2.0 * np.asarray(sup_d, dtype=float))


def bound_transport_q(q, k, t, rho0_norm, speed_floor, sup_d):
    """(2/|k|) |rho0| |k|^{floor*t/2} + (2/(1-|k|)) sup|d|, any q in [2, inf]."""
    _check_q(q)
    if k == 0:
        raise ValueError("the q-norm route needs a nonzero recirculation gain")
    if not abs(k) < 1:
        raise ValueError("|k| must be below one")
    if not speed_floor > 0:
        raise ValueError("speed floor must be positive")
    ak = abs(k)
    t = np.asarray(t, dtype=float)
    return ((2.0 / ak) * rho0_norm * ak ** (speed_floor * t / 2.0)
            + (2.0 / (1.0 - ak)) * np.asarray(sup_d, dtype=float))


def bound_wave_r_eps(q, r, eps, t, init_norm, sup_f, sup_d, c):
    """Free-rate wave bound for finite q; needs c*r - eps > 0.

    init_norm is |w_t(0)|_q + |w_y(0)|_q, and the left side it dominates
    is the same sum along the trajectory.
    """
    q = _check_q(q, allow_inf=False)
    if not (r > 0 and eps > 0 and c > 0):
        raise ValueError("r, eps, c must be positive")
    gap = c * r - eps
    if not gap > 0:
        raise ValueError(f"need c*r - eps > 0, got {gap}")
    t = np.asarray(t, dtype=float)
    decay = np.exp((2.0 * r - gap * t) / q)
    forcing = ((q - 1.0) / eps) ** ((q - 1.0) / q) * (8.0 * math.exp(2.0 * r) / gap) ** (1.0 / q)
    return 2.0 ** ((q - 1.0) / q) * (
        2.0 ** ((q + 1.0) / q) * decay * init_norm
        + forcing * np.asarray(sup_f, dtype=float)
        + (2.0 / c) * np.asarray(sup_d, dtype=float))


def bound_wave_m(q, m, t, init_norm, sup_f, sup_d, c):
    """One-parameter wave bound, valid for every q in [2, inf]:

    8 e^{4m/c} e^{-m t/2} init + (16/m) e^{4m/c} sup|f| + (4/c) sup|d|.
    """
    _check_q(q)
    if not (m > 0 and c > 0):
        raise ValueError("m and c must be positive")
    t = np.asarray(t, dtype=float)
    boost = math.exp(4.0 * m / c)
    return (8.0 * boost * np.exp(-m * t / 2.0) * init_norm
            + (16.0 / m) * boost * np.asarray(sup_f, dtype=float)
            + (4.0 / c) * np.asarray(sup_d, dtype=float))


def bound_heat_classical(t, w0_norm, eps, sup_f, sup_d):
    """Quadratic-energy baseline for the boundary-damped heat equation.

    exp(-(pi^2/2 - eps) t / 2) |w0|_2
      + (sup_s |f(., s)|_2 + sup_s |d(s)|) / sqrt(eps (pi^2/2 - eps)),
    for a free split eps in (0, 2].
    """
    eps = float(eps)
    if not 0.0 < eps <= 2.0:
        raise ValueError("eps must lie in (0, 2]")
    rate = math.pi**2 / 2.0 - eps
    t = np.asarray(t, dtype=float)
    gain = 1.0 / math.sqrt(eps * rate)
    return (np.exp(-rate * t / 2.0) * w0_norm
            + gain * (np.asarray(sup_f, dtype=float) + np.asarray(sup_d, dtype=float)))


@dataclass
class IssBound:
    """A bound prepared for one trajectory: formula kind, fixed parameters,
    the initial norm, and running disturbance sups aligned to the stamps.

    ``gate`` is None for globally valid bounds; for locally valid ones it
    records whether the smallness condition held, and a False gate marks
    the check non-applicable rather than violated.
    """

    kind: str
    params: dict
    init_norm: float
    series: dict
    gate: bool | None = None
    warnings: list = dc_field(default_factory=list)


def _wave_lhs(plus, minus, q, grid, c):
    """|w_t|_q + |w_y|_q of one characteristic pair or a stack of them."""
    w_t, w_y = reconstruct_wave_state(plus, minus, c)
    return lq_norm(w_t, q, grid) + lq_norm(w_y, q, grid)


def _state_norms(traj, q):
    """The checked norm at every stamp, evaluated block by block."""
    if traj.pde_class == "wave":
        c = traj.meta["c"]
        return traj.blockwise(lambda _, s: _wave_lhs(s["plus"], s["minus"], q, traj.grid, c))
    return traj.blockwise(lambda _, s: lq_norm(s["u"], q, traj.grid))


# ---------------------------------------------------------------------------
# the bound kinds


def _prepare_parabolic_q(b, traj, scn, q, sups):
    b.init_norm = lq_norm(traj.state(0), q, traj.grid)
    b.series = {"level": truncation_level_parabolic(scn, sups)}
    b.params.setdefault("c0", scn.c0)


def _prepare_transport(b, traj, scn, q, sups):
    b.init_norm = lq_norm(traj.state(0), q, traj.grid)
    b.series = {"sup_d": sups["d"]}
    params = b.params
    if b.kind == "transport_liss":
        radius = params["R0"]
        params["speed_floor"], params["mass_range"] = local_speed_floor(scn, radius)
        b.gate = bool(b.init_norm + sups["d"][-1] <= radius)
        reached = traj.counters["max_abs_mass"]  # the floor holds within mass_range only
        if b.gate and reached > params["mass_range"]:
            raise AssumptionViolationError(f"the total mass reached {reached:g}, beyond the "
                                           f"range {params['mass_range']:g} of the speed floor")
        route = params.setdefault("variant", "q")
        if route not in ("p", "q"):
            raise ValueError("transport_liss variant must be 'p' or 'q'")
    else:
        if scn.assumption != "uniform" or not scn.speed_floor:
            raise ValueError(f"{b.kind} needs the 'uniform' assumption with a declared floor")
        params["speed_floor"] = scn.speed_floor
        route = b.kind[-1]  # transport_p or transport_q
    if route == "p":
        # the weighted-energy route certifies the (p+1)-norm
        if "p" not in params:
            raise ValueError("the energy route needs the energy exponent p")
        p = params["p"]
        if q != p + 1.0:
            raise ValueError(f"the energy route certifies the (p+1)-norm; "
                             f"got q = {q} with p = {p}")
        if "r" not in params:
            params["r"] = default_transport_rate(p, scn.k)
    elif scn.k != 0 and abs(scn.k) < _SMALL_GAIN:
        b.warnings.append(f"recirculation gain |k| = {abs(scn.k)} below {_SMALL_GAIN}; "
                          "the q-norm constants are ill conditioned")
    params.setdefault("k", scn.k)


def _evaluate_transport(b, q, t):
    if (b.params["variant"] if b.kind == "transport_liss" else b.kind[-1]) == "p":
        return bound_transport_p(b.params["p"], b.params["r"], t, b.init_norm,
                                 b.params["speed_floor"], b.series["sup_d"])
    return bound_transport_q(q, b.params["k"], t, b.init_norm,
                             b.params["speed_floor"], b.series["sup_d"])


def _prepare_wave(b, traj, scn, q, sups):
    snap = traj.snapshot(0)
    b.init_norm = _wave_lhs(snap["plus"], snap["minus"], q, traj.grid, scn.c)
    b.series = {"sup_f": sups["f"], "sup_d": sups["d"]}
    b.params.setdefault("c", scn.c)


def heat_clm_misfit(scn, grid, t_end):
    """Why the heat_clm bound does not hold for the parabolic scenario scn
    on grid up to t_end, or None.  The bound is derived for the 1-D heat
    equation with unit diffusion, Dirichlet zero on one end and the
    identity flux law on the other; a field is checked on the points the
    solver binds it to, exactly, and the law on validate's samples."""
    if scn.dim != 1:
        return f"heat_clm bounds 1-D runs, not dim {scn.dim}"
    if len(scn.gamma1) != 1:
        return "heat_clm needs one Dirichlet end and one flux end"
    y = grid.points()

    def identically(fld, points, value):
        bound = fld.bind(points)
        return {p * s for p in bound.profile_range()
                for s in signal_range(bound.signal, t_end)} == {value}

    if not identically(scn.d1, 0.0 if "left" in scn.gamma1 else 1.0, 0.0):
        return "heat_clm needs Dirichlet data identically 0"
    if not identically(scn.a, 0.5 * (y[:-1] + y[1:]), 1.0):
        return "heat_clm needs diffusion identically 1"
    v = np.linspace(-10.0, 10.0, 401)
    if not np.array_equal(np.asarray(scn.boundary_reaction(v), dtype=float), v):
        return "heat_clm needs the identity flux law"
    return None


def _prepare_heat_clm(b, traj, scn, q, sups):
    # the boundary-damped heat equation: zero reaction, unit diffusion,
    # Dirichlet zero on gamma1, identity flux law with disturbance d2
    if q != 2:
        raise ValueError(f"heat_clm bounds the L2 norm; got q = {q}")
    misfit = heat_clm_misfit(scn, traj.grid, float(traj.times[-1]))
    if misfit:
        raise ValueError(misfit)
    if scn.c0 != 0:
        b.warnings.append("heat baseline ignores the reaction floor; scenario has c0 != 0")
    b.init_norm = lq_norm(traj.state(0), 2.0, traj.grid)
    b.series = {"sup_f": sups["f_l2"], "sup_d": sups["d2"]}
    b.params.setdefault("eps", 1.0)


@dataclass(frozen=True)
class BoundKind:
    """One bound kind: the PDE class it bounds, the config keys it accepts
    and requires besides kind, q and tol; prepare(bound, traj, scn, q,
    sups), which fills in the initial norm, the stamp-aligned series, the
    parameters the scenario fixes, and any gate and warnings; and
    evaluate(bound, q, times), which returns the bound at the stamps."""

    pde: str
    keys: tuple
    required: tuple
    prepare: Callable
    evaluate: Callable


BOUNDS = {
    "parabolic_q": BoundKind(
        "parabolic", (), (), _prepare_parabolic_q,
        lambda b, q, t: bound_parabolic_q(q, t, b.init_norm, b.series["level"], b.params["c0"])),
    "transport_p": BoundKind("transport", ("p", "r"), ("p",), _prepare_transport,
                             _evaluate_transport),
    "transport_q": BoundKind("transport", (), (), _prepare_transport, _evaluate_transport),
    "transport_liss": BoundKind("transport", ("R0", "variant", "p", "r"), ("R0",),
                                _prepare_transport, _evaluate_transport),
    "wave_r_eps": BoundKind(
        "wave", ("r", "eps"), ("r", "eps"), _prepare_wave,
        lambda b, q, t: bound_wave_r_eps(q, b.params["r"], b.params["eps"], t, b.init_norm,
                                         b.series["sup_f"], b.series["sup_d"], b.params["c"])),
    "wave_m": BoundKind(
        "wave", ("m",), ("m",), _prepare_wave,
        lambda b, q, t: bound_wave_m(q, b.params["m"], t, b.init_norm, b.series["sup_f"],
                                     b.series["sup_d"], b.params["c"])),
    "heat_clm": BoundKind(
        "parabolic", ("eps",), ("eps",), _prepare_heat_clm,
        lambda b, q, t: bound_heat_classical(t, b.init_norm, b.params["eps"],
                                             b.series["sup_f"], b.series["sup_d"])),
}


def prepare_bound(kind, traj, scn, q, params=None) -> IssBound:
    """Package a bound of the given kind for a computed trajectory.

    ``params`` supplies the free constants the kind needs (see the bound
    evaluators); scenario structure provides the rest.  Running sups are
    evaluated on the trajectory's recorded stamps by
    :func:`~isscert.glf.running_sups`.  A ``transport_liss`` gate that admits
    a run whose mass left the floor's range raises AssumptionViolationError.
    """
    if kind not in BOUNDS:
        raise ValueError(f"unknown bound kind {kind!r}")
    if BOUNDS[kind].pde != traj.pde_class:
        raise ValueError(f"{kind} bounds {BOUNDS[kind].pde} runs, not {traj.pde_class} ones")
    bound = IssBound(kind, dict(params or {}), math.nan, {})
    BOUNDS[kind].prepare(bound, traj, scn, q, running_sups(scn, traj.grid, traj.times))
    return bound


def _fmt_q(q):
    return "inf" if q == math.inf else repr(float(q))


@dataclass
class CheckReport:
    """Margins of one bound along one trajectory.

    margin[i] = bound(t_i) - norm(t_i); a violation is a margin below
    -tol.  Non-applicable reports (failed gates) keep their margins for
    inspection but count no violations.
    """

    kind: str
    q: float
    times: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    tol: float
    params: dict
    applicable: bool = True
    warnings: list = dc_field(default_factory=list)

    @property
    def margins(self) -> np.ndarray:
        return self.rhs - self.lhs

    @property
    def min_margin(self) -> float:
        return float(np.min(self.margins))

    @property
    def violations(self) -> int:
        if not self.applicable:
            return 0
        return int(np.sum(self.margins < -self.tol))

    def summary_line(self) -> str:
        state = "applicable" if self.applicable else "not-applicable"
        items = ",".join(f"{k}={self.params[k]!r}" for k in sorted(self.params))
        return (f"check kind={self.kind} q={_fmt_q(self.q)} {state} "
                f"min_margin={self.min_margin!r} violations={self.violations} "
                f"tol={self.tol!r} params[{items}]")

    def to_csv(self, path):
        return write_table(path, "t,lhs,rhs,margin",
                           (self.times, self.lhs, self.rhs, self.margins),
                           f"# {self.summary_line()}\n")


def check_trajectory(traj: Trajectory, q, bound: IssBound, tol: float) -> CheckReport:
    """Compare the trajectory's norms against the prepared bound."""
    q = _check_q(q)
    tol = float(tol)
    # NaN fails this, and a NaN or infinite tol would hide every violation
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and nonnegative, got {tol!r}")
    times = traj.times
    lhs = _state_norms(traj, q)
    rhs = np.asarray(BOUNDS[bound.kind].evaluate(bound, q, times), dtype=float)
    applicable = bound.gate is not False
    return CheckReport(kind=bound.kind, q=q, times=times, lhs=lhs, rhs=rhs,
                       tol=tol, params=dict(bound.params), applicable=applicable,
                       warnings=list(bound.warnings))
