"""Closed-form decay bounds with explicit constants, and trajectory checks.

Each bound evaluator is a pure formula in the elapsed time, the initial
norm, and windowed disturbance sups.  :func:`prepare_bound` packages a
bound for a computed trajectory, turning every disturbance into a running
sup over (0, t) so the comparison is causal, and
:func:`check_trajectory` measures the margin bound - norm at every
recorded stamp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np

from .fields import Grid2D, Trajectory, csv_rows, float_cells, lq_norm, trapezoid_1d
from .glf import _invert_expanding, default_transport_rate, local_speed_floor
from .signals import sup_field, sup_window
from .solvers.wave import reconstruct_wave_state

__all__ = [
    "BOUND_KINDS",
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
    "running_sup_signal",
    "running_sup_field",
]

BOUND_KINDS = ("parabolic_q", "transport_p", "transport_q", "transport_liss",
               "wave_r_eps", "wave_m", "heat_clm")

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
    if q == math.inf:
        raise ValueError("this bound needs a finite norm exponent")
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


# ---------------------------------------------------------------------------
# running sups along a trajectory


def running_sup_signal(sig, times) -> np.ndarray:
    """sup of |sig| over (0, t_i) for each stamp, closed windows."""
    times = np.asarray(times, dtype=float)
    out = np.empty(times.size)
    for i, t in enumerate(times):
        out[i] = abs(float(sig(t))) if t <= 0.0 else sup_window(sig, 0.0, float(t))
    return out


def running_sup_field(fld, space, times) -> np.ndarray:
    """Running sup of |fld| over space x (0, t_i), one value per stamp."""
    times = np.asarray(times, dtype=float)
    out = np.empty(times.size)
    out[0] = sup_field(fld, space, times[0], times[0])
    for i in range(1, times.size):
        seg = sup_field(fld, space, times[i - 1], times[i], time_resolution=33)
        out[i] = max(out[i - 1], seg)
    return out


def _boundary_space(grid, edges):
    if not isinstance(grid, Grid2D):
        pts = [0.0 if e == "left" else 1.0 for e in sorted(edges)]
        return np.asarray(pts)
    lat = np.linspace(0.0, 1.0, grid.nx + 1)
    coords = []
    for edge in sorted(edges):
        if edge == "left":
            coords.append((np.zeros_like(lat), lat))
        elif edge == "right":
            coords.append((np.ones_like(lat), lat))
        elif edge == "bottom":
            coords.append((lat, np.zeros_like(lat)))
        else:
            coords.append((lat, np.ones_like(lat)))
    xs = np.concatenate([c[0] for c in coords])
    ys = np.concatenate([c[1] for c in coords])
    return (xs, ys)


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


def _heat_forcing_sup(scn, grid, times):
    """Running sup of the spatial 2-norm of the forcing."""
    if scn.f.signal is not None:
        # spatially uniform forcing: |f(., s)|_2 on (0, 1) equals |signal(s)|
        return running_sup_signal(scn.f.signal, times)
    pts = grid.points()
    times = np.asarray(times, dtype=float)
    out = np.empty(times.size)
    prev = 0.0
    for i, t in enumerate(times):
        lo = times[i - 1] if i else t
        lattice = np.linspace(lo, t, 17) if t > lo else [t]
        seg = 0.0
        for s in lattice:
            vals = np.abs(np.asarray(scn.f(pts, float(s)), dtype=float))
            seg = max(seg, math.sqrt(trapezoid_1d(vals**2, grid.h)))
        prev = max(prev, seg)
        out[i] = prev
    return out


def prepare_bound(kind, traj, scn, q, params=None) -> IssBound:
    """Package a bound of the given kind for a computed trajectory.

    ``params`` supplies the free constants the kind needs (see the bound
    evaluators); scenario structure provides the rest.  Running sups are
    evaluated on the trajectory's recorded stamps.
    """
    if kind not in BOUND_KINDS:
        raise ValueError(f"unknown bound kind {kind!r}")
    params = dict(params or {})
    times = traj.times
    warnings: list = []
    gate = None

    if kind == "parabolic_q":
        sup_f = running_sup_field(scn.f, traj.grid.points(), times)
        sup_d1 = (running_sup_field(scn.d1, _boundary_space(traj.grid, scn.gamma1), times)
                  if scn.gamma1 else np.zeros_like(times))
        sup_d2 = (running_sup_field(scn.d2, _boundary_space(traj.grid, scn.gamma2), times)
                  if scn.gamma2 else np.zeros_like(times))
        if not scn.c0 > 0:
            raise ValueError("parabolic_q needs a positive reaction floor")
        level = np.asarray([
            _invert_expanding(scn.reaction, sf / scn.c0)
            + sd1 + _invert_expanding(scn.boundary_reaction, sd2)
            for sf, sd1, sd2 in zip(sup_f, sup_d1, sup_d2)])
        params.setdefault("c0", scn.c0)
        return IssBound(kind, params, lq_norm(traj.state(0), q, traj.grid),
                        {"level": level}, warnings=warnings)

    if kind in ("transport_p", "transport_q", "transport_liss"):
        sup_d = running_sup_signal(scn.d, times)
        init = lq_norm(traj.state(0), q, traj.grid)
        if kind == "transport_liss":
            radius = params["R0"]
            floor, mass_range = local_speed_floor(scn, radius)
            horizon = float(times[-1])
            sup_d_all = sup_window(scn.d, 0.0, horizon) if horizon > 0 else abs(float(scn.d(0.0)))
            gate = bool(init + sup_d_all <= radius)
            params.setdefault("variant", "q")
            params["speed_floor"] = floor
            params["mass_range"] = mass_range
            variant = params["variant"]
            if variant not in ("p", "q"):
                raise ValueError("transport_liss variant must be 'p' or 'q'")
            if variant == "q" and scn.k == 0:
                raise ValueError("the q-norm route needs a nonzero recirculation gain")
        else:
            if scn.assumption != "uniform" or not scn.speed_floor:
                raise ValueError(f"{kind} needs the 'uniform' assumption with a declared floor")
            params["speed_floor"] = scn.speed_floor
        if kind == "transport_p" or params.get("variant") == "p":
            p = params["p"]
            if q != p + 1.0:
                raise ValueError(f"the energy route certifies the (p+1)-norm; "
                                 f"got q = {q} with p = {p}")
            if "r" not in params:
                params["r"] = default_transport_rate(p, scn.k)
        if kind == "transport_q" or params.get("variant") == "q":
            params.setdefault("k", scn.k)
            if scn.k != 0 and abs(scn.k) < _SMALL_GAIN:
                warnings.append(f"recirculation gain |k| = {abs(scn.k)} below {_SMALL_GAIN}; "
                                "the q-norm constants are ill conditioned")
        params.setdefault("k", scn.k)
        return IssBound(kind, params, init, {"sup_d": sup_d}, gate=gate,
                        warnings=warnings)

    if kind in ("wave_r_eps", "wave_m"):
        sup_f = running_sup_field(scn.f, traj.grid.points(), times)
        sup_d = running_sup_signal(scn.d, times)
        params.setdefault("c", scn.c)
        snap = traj.snapshot(0)
        init = _wave_lhs(snap["plus"], snap["minus"], q, traj.grid, scn.c)
        return IssBound(kind, params, init, {"sup_f": sup_f, "sup_d": sup_d},
                        warnings=warnings)

    # heat_clm: the classical quadratic-energy baseline.  The scenario is
    # the boundary-damped heat equation: zero reaction, unit diffusion,
    # Dirichlet zero on gamma1, identity flux law with disturbance d2.
    if scn.c0 != 0:
        warnings.append("heat baseline ignores the reaction floor; scenario has c0 != 0")
    sup_f = _heat_forcing_sup(scn, traj.grid, times)
    sup_d = (running_sup_field(scn.d2, _boundary_space(traj.grid, scn.gamma2), times)
             if scn.gamma2 else np.zeros_like(times))
    params.setdefault("eps", 1.0)
    init = lq_norm(traj.state(0), 2.0, traj.grid)
    return IssBound("heat_clm", params, init, {"sup_f": sup_f, "sup_d": sup_d},
                    warnings=warnings)


def _evaluate_bound(bound: IssBound, q, times):
    p_ = bound.params
    s = bound.series
    if bound.kind == "parabolic_q":
        return bound_parabolic_q(q, times, bound.init_norm, s["level"], p_["c0"])
    if bound.kind == "transport_p":
        return bound_transport_p(p_["p"], p_["r"], times, bound.init_norm,
                                 p_["speed_floor"], s["sup_d"])
    if bound.kind == "transport_q":
        return bound_transport_q(q, p_["k"], times, bound.init_norm,
                                 p_["speed_floor"], s["sup_d"])
    if bound.kind == "transport_liss":
        if p_["variant"] == "p":
            return bound_transport_p(p_["p"], p_["r"], times, bound.init_norm,
                                     p_["speed_floor"], s["sup_d"])
        return bound_transport_q(q, p_["k"], times, bound.init_norm,
                                 p_["speed_floor"], s["sup_d"])
    if bound.kind == "wave_r_eps":
        return bound_wave_r_eps(q, p_["r"], p_["eps"], times, bound.init_norm,
                                s["sup_f"], s["sup_d"], p_["c"])
    if bound.kind == "wave_m":
        return bound_wave_m(q, p_["m"], times, bound.init_norm,
                            s["sup_f"], s["sup_d"], p_["c"])
    return bound_heat_classical(times, bound.init_norm, p_["eps"],
                                s["sup_f"], s["sup_d"])


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
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write("t,lhs,rhs,margin\n")
            fh.write(csv_rows(*map(float_cells, (self.times, self.lhs, self.rhs, self.margins))))
            fh.write(f"# {self.summary_line()}\n")
        return path


def check_trajectory(traj: Trajectory, q, bound: IssBound, tol: float) -> CheckReport:
    """Compare the trajectory's norms against the prepared bound."""
    q = _check_q(q)
    tol = float(tol)
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    times = traj.times
    lhs = _state_norms(traj, q)
    rhs = np.asarray(_evaluate_bound(bound, q, times), dtype=float)
    applicable = bound.gate is not False
    return CheckReport(kind=bound.kind, q=q, times=times, lhs=lhs, rhs=rhs,
                       tol=tol, params=dict(bound.params), applicable=applicable,
                       warnings=list(bound.warnings))
