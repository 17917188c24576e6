"""Closed-form decay bounds with explicit constants, and trajectory checks.

Each bound evaluator is a pure formula in the elapsed time, the initial
norm, and windowed disturbance sups.  :data:`BOUNDS` holds one entry per
bound kind and is the one place its rules live; :func:`admit_check`
refuses, before any solve, a check its kind cannot certify.
:func:`prepare_bound` packages a bound for a computed trajectory, turning
every disturbance into a running sup over (0, t) so the comparison is
causal, and :func:`check_trajectory` measures the margin bound - norm at
every recorded stamp.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field as dc_field
from typing import Callable

import numpy as np

from .fields import Trajectory, lq_norm, write_table
from .glf import (ParamError, default_transport_rate, local_speed_floor, running_sups,
                  truncation_level_parabolic)
# module attributes that profilers wrap per module (perfbench/tracing.py);
# the sups themselves run through glf.running_sups
from .signals import sup_field, sup_window  # noqa: F401
from .solvers.common import AssumptionViolationError, ScenarioError
from .solvers.wave import reconstruct_wave_state

__all__ = [
    "BOUNDS",
    "BoundKind",
    "admit_check",
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
            raise ParamError("q", "this bound needs a finite norm exponent")
        return math.inf
    q = float(q)
    if not q >= 2.0:
        raise ParamError("q", f"norm exponent must lie in [2, inf], got {q}")
    return q


def _check_tol(tol):
    tol = float(tol)
    # NaN fails this, and a NaN or infinite tol would hide every violation
    if not (math.isfinite(tol) and tol >= 0):
        raise ParamError("tol", f"tol must be finite and nonnegative, got {tol!r}")
    return tol


def _positive(**values):
    for key, value in values.items():
        if not value > 0:
            raise ParamError(key, f"{key} must be positive, got {value!r}")


def bound_parabolic_q(q, t, w0_norm, level, c0):
    """4 * |w0|_q * exp(-c0 t) + 8 * level, uniformly in q within [2, inf]."""
    _check_q(q)
    if not c0 > 0:
        raise ParamError("c0", "needs a positive reaction floor c0")
    t = np.asarray(t, dtype=float)
    return 4.0 * w0_norm * np.exp(-c0 * t) + 8.0 * np.asarray(level, dtype=float)


def bound_transport_p(p, r, t, rho0_norm, speed_floor, sup_d):
    """Weighted-energy route: 2 e^{r/(p+1)} |rho0| e^{-r*floor*t/(p+1)} + 2 sup|d|.

    The state norm here is the (p+1)-norm tied to the energy exponent.
    """
    p = float(p)
    if not p > 1:
        raise ParamError("p", "p must exceed 1")
    _positive(r=r, speed_floor=speed_floor)
    t = np.asarray(t, dtype=float)
    return (2.0 * math.exp(r / (p + 1.0)) * rho0_norm
            * np.exp(-r * speed_floor * t / (p + 1.0))
            + 2.0 * np.asarray(sup_d, dtype=float))


def bound_transport_q(q, k, t, rho0_norm, speed_floor, sup_d):
    """(2/|k|) |rho0| |k|^{floor*t/2} + (2/(1-|k|)) sup|d|, any q in [2, inf]."""
    _check_q(q)
    if k == 0:
        raise ParamError("k", "the q-norm route needs a nonzero recirculation gain")
    if not abs(k) < 1:
        raise ParamError("k", "|k| must be below one")
    _positive(speed_floor=speed_floor)
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
    _positive(r=r, eps=eps, c=c)
    gap = c * r - eps
    if not gap > 0:
        raise ParamError(None, f"need c*r - eps > 0, got {gap}")
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
    _positive(m=m, c=c)
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
        raise ParamError("eps", "eps must lie in (0, 2]")
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


def _norm(states, q, traj):
    """The checked norm of one snapshot of traj, or of a stack of them: |u|_q,
    or |w_t|_q + |w_y|_q of a wave's characteristic pair."""
    if traj.pde_class != "wave":
        return lq_norm(states["u"], q, traj.grid)
    w_t, w_y = reconstruct_wave_state(states["plus"], states["minus"], traj.meta["c"])
    return lq_norm(w_t, q, traj.grid) + lq_norm(w_y, q, traj.grid)


def _state_norms(traj, q):
    """The checked norm at every stamp, evaluated block by block."""
    return traj.blockwise(lambda _, states: _norm(states, q, traj))


# ---------------------------------------------------------------------------
# the bound kinds


def _route(kind, params):
    """"p" for the weighted-energy route, "q" for the q-norm route."""
    return params["variant"] if kind == "transport_liss" else kind[-1]


def _admit_transport(params, scn, kind, q, grid, t_end):
    if kind == "transport_liss":
        try:
            params["speed_floor"], params["mass_range"] = local_speed_floor(scn, params["R0"])
        except ScenarioError as exc:  # the scenario, not R0, is at fault
            raise ParamError("kind", str(exc)) from exc
        except ValueError as exc:
            raise ParamError("R0", str(exc)) from exc
        if params.setdefault("variant", "q") not in ("p", "q"):
            raise ParamError("variant", "transport_liss variant must be 'p' or 'q'")
    elif scn.assumption != "uniform" or not scn.speed_floor:
        raise ParamError("kind", f"{kind} needs the 'uniform' assumption with a declared floor")
    else:
        params["speed_floor"] = scn.speed_floor
    if _route(kind, params) == "p":
        if "p" not in params:
            raise ParamError("p", "the energy route needs the energy exponent p")
        if "r" not in params:
            params["r"] = default_transport_rate(params["p"], scn.k)
    params.setdefault("k", scn.k)


def _prepare_transport(b, traj, scn, sups):
    if b.kind == "transport_liss":
        b.gate = bool(b.init_norm + sups["d"][-1] <= b.params["R0"])
        reached = traj.counters["max_abs_mass"]  # the floor holds within mass_range only
        if b.gate and reached > b.params["mass_range"]:
            raise AssumptionViolationError(f"the total mass reached {reached:g}, beyond the "
                                           f"range {b.params['mass_range']:g} of the speed floor")
    if _route(b.kind, b.params) == "q" and scn.k != 0 and abs(scn.k) < _SMALL_GAIN:
        b.warnings.append(f"recirculation gain |k| = {abs(scn.k)} below {_SMALL_GAIN}; "
                          "the q-norm constants are ill conditioned")
    return {"sup_d": sups["d"]}


def _evaluate_transport(b, q, t):
    params = b.params
    if _route(b.kind, params) == "q":
        return bound_transport_q(q, params["k"], t, b.init_norm, params["speed_floor"],
                                 b.series["sup_d"])
    # the weighted-energy route certifies the (p+1)-norm; the formula runs
    # first, so a p of at most 1 is refused as such
    rhs = bound_transport_p(params["p"], params["r"], t, b.init_norm, params["speed_floor"],
                            b.series["sup_d"])
    if q != params["p"] + 1.0:
        raise ParamError("q", f"the energy route certifies the (p+1)-norm; "
                              f"got q = {q} with p = {params['p']}")
    return rhs


def _admit_wave(params, scn, *_):
    params.setdefault("c", scn.c)


def _prepare_wave(b, traj, scn, sups):
    return {"sup_f": sups["f"], "sup_d": sups["d"]}


def _admit_heat_clm(params, scn, kind, q, grid, t_end):
    """The bound is derived for the 1-D heat equation with unit diffusion,
    zero reaction, Dirichlet zero on gamma1 and the identity flux law with
    disturbance d2 on gamma2.  A field is checked exactly on the points the
    solver binds it to up to t_end, and the law by its kind's facts: slope
    1 and gamma 0 (identity, linear(1) or cubic(0))."""
    if q != 2:
        raise ParamError("q", f"heat_clm is an L2 bound; q must be 2, got {q!r}")
    if scn.dim != 1:
        raise ParamError("kind", f"heat_clm bounds 1-D runs, not dim {scn.dim}")
    if len(scn.gamma1) != 1:
        raise ParamError("kind", "heat_clm needs one Dirichlet end and one flux end")
    y = grid.points()
    if scn.d1.bind(0.0 if "left" in scn.gamma1 else 1.0).range(t_end) != (0.0, 0.0):
        raise ParamError("kind", "heat_clm needs Dirichlet data identically 0")
    if scn.a.bind(0.5 * (y[:-1] + y[1:])).range(t_end) != (1.0, 1.0):
        raise ParamError("kind", "heat_clm needs diffusion identically 1")
    law = scn.boundary_reaction
    if not (getattr(law, "slope", None) == 1 and getattr(law, "gamma", None) == 0):
        raise ParamError("kind", "heat_clm needs the identity flux law")


def _prepare_heat_clm(b, traj, scn, sups):
    if scn.c0 != 0:
        b.warnings.append("heat baseline ignores the reaction floor; scenario has c0 != 0")
    return {"sup_f": sups["f_l2"], "sup_d": sups["d2"]}


@dataclass(frozen=True)
class BoundKind:
    """One bound kind: the PDE class it bounds, the name verify gives its
    checks (before the _q<q> suffix), the config keys it accepts and
    requires besides kind, q and tol, and those read as written, not as
    numbers.  Before any solve, admit(params, scn, kind, q, grid, t_end)
    fills in the parameters the scenario fixes and refuses what the kind
    cannot certify; after it, prepare(bound, traj, scn, sups) returns the
    stamp-aligned series and sets any gate and warnings.  evaluate(bound,
    q, times) is the bound at the stamps."""

    pde: str
    tag: str
    keys: tuple
    required: tuple
    admit: Callable
    prepare: Callable
    evaluate: Callable
    verbatim: tuple = ()


BOUNDS = {
    "parabolic_q": BoundKind(
        "parabolic", "qbound", (), (), lambda params, scn, *_: params.setdefault("c0", scn.c0),
        lambda b, traj, scn, sups: {"level": truncation_level_parabolic(scn, sups)},
        lambda b, q, t: bound_parabolic_q(q, t, b.init_norm, b.series["level"], b.params["c0"])),
    "transport_p": BoundKind("transport", "pbound", ("p", "r"), ("p",), _admit_transport,
                             _prepare_transport, _evaluate_transport),
    "transport_q": BoundKind("transport", "qbound", (), (), _admit_transport,
                             _prepare_transport, _evaluate_transport),
    "transport_liss": BoundKind("transport", "lissbound", ("R0", "variant", "p", "r"), ("R0",),
                                _admit_transport, _prepare_transport, _evaluate_transport,
                                verbatim=("variant",)),
    "wave_r_eps": BoundKind(
        "wave", "rbound", ("r", "eps"), ("r", "eps"), _admit_wave, _prepare_wave,
        lambda b, q, t: bound_wave_r_eps(q, b.params["r"], b.params["eps"], t, b.init_norm,
                                         b.series["sup_f"], b.series["sup_d"], b.params["c"])),
    "wave_m": BoundKind(
        "wave", "mbound", ("m",), ("m",), _admit_wave, _prepare_wave,
        lambda b, q, t: bound_wave_m(q, b.params["m"], t, b.init_norm, b.series["sup_f"],
                                     b.series["sup_d"], b.params["c"])),
    "heat_clm": BoundKind(
        "parabolic", "heatbound", ("eps",), ("eps",), _admit_heat_clm, _prepare_heat_clm,
        lambda b, q, t: bound_heat_classical(t, b.init_norm, b.params["eps"],
                                             b.series["sup_f"], b.series["sup_d"])),
}


def admit_check(kind, pde, scn, grid, t_end, q, params=None, tol=0.0) -> dict:
    """``params`` of a check of the given kind on a run of class pde, with
    those the scenario fixes filled in, or a ValueError (a ParamError naming
    the parameter at fault) for a check the kind cannot certify.  Runs the
    kind's admit step, then its formula once at t = 0 with zero norms,
    which must be finite: a constant past the floats makes it inf or NaN."""
    if kind not in BOUNDS:
        raise ParamError("kind", f"unknown bound kind {kind!r}")
    bound = BOUNDS[kind]
    if bound.pde != pde:
        raise ParamError("kind", f"{kind} bounds {bound.pde} runs, not {pde} ones")
    _check_tol(tol)
    params = dict(params or {})
    for key in bound.required:
        if key not in params:
            raise ParamError(key, "missing required key")
    bound.admit(params, scn, kind, q, grid, t_end)
    try:
        with np.errstate(all="ignore"):  # the finiteness check below decides
            rhs = bound.evaluate(IssBound(kind, params, 0.0, defaultdict(float)), q, 0.0)
    except OverflowError as exc:  # a constant such as e^{4m/c} beyond the floats
        raise ParamError(None, f"the bound overflows the floats: {exc}") from exc
    if not np.isfinite(rhs).all():  # or one that rounds to inf, and inf*0 is NaN
        raise ParamError(None, "the bound overflows the floats: it is not finite "
                               "at zero norms")
    return params


def prepare_bound(kind, traj, scn, q, params=None) -> IssBound:
    """Package a bound of the given kind for a computed trajectory.

    ``params`` supplies the free constants the kind needs (see the bound
    evaluators); scenario structure provides the rest.  Refuses what
    :func:`admit_check` refuses, up to the last stamp.  Running sups are
    evaluated on the trajectory's recorded stamps by
    :func:`~isscert.glf.running_sups`.  A ``transport_liss`` gate that admits
    a run whose mass left the floor's range raises AssumptionViolationError.
    """
    params = admit_check(kind, traj.pde_class, scn, traj.grid, float(traj.times[-1]), q, params)
    bound = IssBound(kind, params, _norm(traj.snapshot(0), q, traj), {})
    bound.series = BOUNDS[kind].prepare(bound, traj, scn,
                                        running_sups(scn, traj.grid, traj.times))
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
    tol = _check_tol(tol)
    times = traj.times
    lhs = _state_norms(traj, q)
    rhs = np.asarray(BOUNDS[bound.kind].evaluate(bound, q, times), dtype=float)
    # a NaN margin counts no violation, so a series past the floats certifies nothing
    for name, vals in (("norm", lhs), ("bound", rhs)):
        if not np.isfinite(vals).all():
            raise ValueError(f"the {name} at q={_fmt_q(q)} is not finite")
    applicable = bound.gate is not False
    return CheckReport(kind=bound.kind, q=q, times=times, lhs=lhs, rhs=rhs,
                       tol=tol, params=dict(bound.params), applicable=applicable,
                       warnings=list(bound.warnings))
