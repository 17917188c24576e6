"""Semi-implicit finite differences for the disturbed reaction-diffusion class

    u_t = div(a grad u) - c*phi(u) - absorption(y, t, u) + f(y, t)

on the unit interval or unit square, with Dirichlet data u = d1 on one part
of the boundary and the nonlinear flux law

    a du/dnu = -varphi(u) + d2        (nu the outward normal)

on the rest.  Diffusion is implicit (backward Euler in one dimension,
dimension-split backward Euler on the square); reaction, absorption, and
forcing are explicit.  The interior unknowns of a grid line are
tridiagonal and affine in its end values, so the balance at each flux
end becomes a strictly increasing scalar equation with a guaranteed
bracket, closed by bisection.  In one dimension the single line is
closed by a scalar bisection.  On the square all lines of a sweep share
one banded solve (stacked with zero couplings), and their flux ends are
closed by the same bisection run in lockstep over the lines, which gives
bitwise the result of closing them one line at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.linalg import solve_banded

from ..fields import Grid1D, Grid2D, Trajectory
from ..signals import SpaceTimeField
from .common import (ScenarioError, SolverConfig, SolverDivergedError,
                     check_finite)

__all__ = ["ParabolicScenario", "solve_parabolic"]

EDGES_1D = ("left", "right")

_SIGN_TOL = 1e-12
_SLOPE_TOL = 1e-8


@dataclass
class ParabolicScenario:
    """Problem data for the reaction-diffusion class.

    gamma1 and gamma2 partition the boundary edge labels: ("left",
    "right") in one dimension, the four square edges in two.  The maps
    must satisfy the structural sign conditions checked by
    :meth:`validate`; c0 = 0 is allowed (no reaction floor), but the
    truncation-level computation then refuses the scenario.
    """

    dim: int
    a: SpaceTimeField
    a0: float
    c: SpaceTimeField
    c0: float
    reaction: Callable
    boundary_reaction: Callable
    f: SpaceTimeField
    d1: SpaceTimeField
    d2: SpaceTimeField
    w0: Callable
    gamma1: frozenset
    gamma2: frozenset
    absorption: Optional[Callable] = None
    label: str = ""

    def __post_init__(self):
        self.gamma1 = frozenset(self.gamma1)
        self.gamma2 = frozenset(self.gamma2)

    def validate(self):
        if self.dim not in (1, 2):
            raise ScenarioError(f"dim must be 1 or 2, got {self.dim}")
        if not self.a0 > 0:
            raise ScenarioError("diffusion floor a0 must be positive")
        if self.c0 < 0:
            raise ScenarioError("reaction floor c0 must be nonnegative")
        edges = set(EDGES_1D) if self.dim == 1 else {"left", "right", "bottom", "top"}
        if not self.gamma1.isdisjoint(self.gamma2):
            raise ScenarioError("gamma1 and gamma2 overlap")
        if self.gamma1 | self.gamma2 != edges:
            raise ScenarioError(f"boundary labels must cover {sorted(edges)} exactly")
        self._check_maps()
        self._check_coefficients()

    def _check_maps(self):
        v = np.linspace(-10.0, 10.0, 401)
        phi = np.asarray(self.reaction(v), dtype=float)
        if np.any(phi * v < -_SIGN_TOL):
            raise ScenarioError("reaction must satisfy phi(v)*v >= 0")
        pos = v[v >= 0]
        if np.any(np.asarray(self.reaction(-pos)) > -np.asarray(self.reaction(pos)) + _SIGN_TOL):
            raise ScenarioError("reaction must satisfy phi(-v) <= -phi(v) for v >= 0")
        dv = 1e-4
        slope = (np.asarray(self.reaction(v + dv)) - phi) / dv
        if np.any(slope < 1.0 - _SLOPE_TOL):
            raise ScenarioError("reaction slope must be at least one")
        bphi = np.asarray(self.boundary_reaction(v), dtype=float)
        if np.any(bphi * v < -_SIGN_TOL):
            raise ScenarioError("boundary reaction must satisfy varphi(v)*v >= 0")
        if np.any(np.asarray(self.boundary_reaction(-pos))
                  > -np.asarray(self.boundary_reaction(pos)) + _SIGN_TOL):
            raise ScenarioError("boundary reaction must satisfy varphi(-v) <= -varphi(v)")
        if self.absorption is not None:
            ts = (0.0, 0.7, 5.0)
            ys = np.asarray([0.0, 0.31, 0.5, 0.77, 1.0])
            pts = ys if self.dim == 1 else (ys, ys[::-1].copy())
            for t in ts:
                for vi in (-7.3, -1.0, -0.2, 0.2, 1.0, 7.3):
                    hv = np.asarray(self.absorption(pts, t, np.full(ys.shape, vi)))
                    if np.any(hv * vi < -_SIGN_TOL):
                        raise ScenarioError("absorption must satisfy h(y,t,v)*v >= 0")

    def _check_coefficients(self):
        ys = np.linspace(0.0, 1.0, 17)
        pts = ys if self.dim == 1 else tuple(np.meshgrid(ys, ys, indexing="ij"))
        for t in (0.0, 0.5, 5.0):
            if np.any(np.asarray(self.a(pts, t)) < self.a0 - _SIGN_TOL):
                raise ScenarioError("diffusion coefficient drops below a0")
            if np.any(np.asarray(self.c(pts, t)) < self.c0 - _SIGN_TOL):
                raise ScenarioError("reaction coefficient drops below c0")


def solve_parabolic(scn: ParabolicScenario, grid, cfg: SolverConfig) -> Trajectory:
    """March the scenario to cfg.t_end and record every stride-th state."""
    scn.validate()
    if cfg.dt is None:
        raise ValueError("the parabolic stepper needs an explicit dt")
    if scn.dim == 1:
        if not isinstance(grid, Grid1D) or grid.layout != "node":
            raise ValueError("one-dimensional runs need a node-centered Grid1D")
        return _solve_1d(scn, grid, cfg)
    if not isinstance(grid, Grid2D):
        raise ValueError("two-dimensional runs need a Grid2D")
    if grid.gamma1 != scn.gamma1 or grid.gamma2 != scn.gamma2:
        raise ScenarioError("grid edge labels disagree with the scenario")
    return _solve_2d(scn, grid, cfg)


def _bc_spec(scn, edge, coord, tn):
    """(kind, value) of an edge at coord; coord may hold arrays of points."""
    if edge in scn.gamma1:
        return ("dirichlet", scn.d1(coord, tn))
    return ("flux", scn.d2(coord, tn))


def _line_responses(w_old, h, dt, af, src, bc_lo, bc_hi):
    """Implicit diffusion solves along a stack of grid lines.

    w_old and src are (lines, m), af is (lines, m - 1) face diffusivities,
    and bc_lo / bc_hi are (kind, values) with one value per line.  The
    lines go into one tridiagonal band with zero couplings between them,
    so a single LAPACK gtsv call solves all of them.  Returns the
    (lines, m) solution with every flux end held at zero, and a dict
    mapping each flux end, "lo" and/or "hi", to the response to a unit
    value there.
    """
    n_lines, m = w_old.shape
    lam = dt / h**2
    ab = np.zeros((3, n_lines, m))
    ab[1] = 1.0
    ab[1, :, 1:m - 1] = 1.0 + lam * (af[:, 1:] + af[:, :-1])
    ab[0, :, 2:] = -lam * af[:, 1:]
    ab[2, :, :m - 2] = -lam * af[:, :-1]

    ends = (("lo", 0, bc_lo), ("hi", m - 1, bc_hi))
    flux = [(end, i) for end, i, (kind, _) in ends if kind == "flux"]
    rhs = np.zeros((n_lines, m, 1 + len(flux)))
    rhs[:, 1:m - 1, 0] = w_old[:, 1:m - 1] + dt * src[:, 1:m - 1]
    for _, i, (kind, value) in ends:
        if kind == "dirichlet":
            rhs[:, i, 0] = value
    for col, (_, i) in enumerate(flux, start=1):
        rhs[:, i, col] = 1.0
    if not (np.all(np.isfinite(ab)) and np.all(np.isfinite(rhs))):
        raise RuntimeError("non-finite diffusion band or right-hand side")
    sol = solve_banded((1, 1), ab.reshape(3, n_lines * m),
                       rhs.reshape(n_lines * m, -1), check_finite=False)
    sol = sol.reshape(n_lines, m, -1)
    return sol[:, :, 0], {end: sol[:, :, col] for col, (end, _) in enumerate(flux, start=1)}


def _solve_line(w_old, h, dt, af, src, bc_lo, bc_hi, varphi, bc_tol):
    """One implicit diffusion solve along a grid line.

    Interior rows are backward Euler with face diffusivities af; the two
    end rows follow bc_lo / bc_hi, each ("dirichlet", d1) or ("flux", d2)
    with the flux law varphi.  Flux ends are eliminated affinely and
    closed by bisection.  :func:`_solve_lines` runs the same closure in
    lockstep over many lines.
    """
    m = w_old.size
    base, resp = _line_responses(w_old[None, :], h, dt, af[None, :], src[None, :],
                                 bc_lo, bc_hi)
    base = base[0]
    resp_lo, resp_hi = (resp[end][0] if end in resp else None for end in ("lo", "hi"))

    if resp_lo is None and resp_hi is None:
        return base

    def inner(end, b_lo, b_hi):
        idx = 1 if end == "lo" else m - 2
        val = base[idx]
        if resp_lo is not None:
            val += b_lo * resp_lo[idx]
        if resp_hi is not None:
            val += b_hi * resp_hi[idx]
        return val

    def residual(end, b, b_lo, b_hi):
        d2v = bc_lo[1] if end == "lo" else bc_hi[1]
        i = 0 if end == "lo" else m - 1
        a_face = af[0] if end == "lo" else af[-1]
        if end == "lo":
            b_lo = b
        else:
            b_hi = b
        return ((b - w_old[i]) / dt
                + (2.0 / h) * float(varphi(b))
                - (2.0 / h) * d2v
                + (2.0 / h**2) * a_face * (b - inner(end, b_lo, b_hi))
                - src[i])

    def bisect(end, b_lo, b_hi):
        center = w_old[0 if end == "lo" else -1]
        span = max(1.0, abs(center))
        lo, hi = center - span, center + span
        for _ in range(80):
            if residual(end, lo, b_lo, b_hi) <= 0.0:
                break
            span *= 2.0
            lo = center - span
        else:
            raise RuntimeError("flux boundary bracket expansion failed (low side)")
        span = max(1.0, abs(center))
        for _ in range(80):
            if residual(end, hi, b_lo, b_hi) >= 0.0:
                break
            span *= 2.0
            hi = center + span
        else:
            raise RuntimeError("flux boundary bracket expansion failed (high side)")
        while hi - lo > bc_tol:
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:
                # adjacent floats wider apart than bc_tol
                break
            r = residual(end, mid, b_lo, b_hi)
            if r == 0.0:
                # exact root (equilibria land here); keep it bitwise
                return mid
            if r <= 0.0:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    b_lo = bc_lo[1] if resp_lo is None else w_old[0]
    b_hi = bc_hi[1] if resp_hi is None else w_old[-1]
    if resp_hi is None:
        b_lo = bisect("lo", b_lo, b_hi)
    elif resp_lo is None:
        b_hi = bisect("hi", b_lo, b_hi)
    else:
        # two coupled scalar closures; the cross influence through one
        # implicit step decays like exp(-1/sqrt(a*dt)), so a couple of
        # sweeps suffice
        for _ in range(100):
            new_lo = bisect("lo", b_lo, b_hi)
            new_hi = bisect("hi", new_lo, b_hi)
            moved = max(abs(new_lo - b_lo), abs(new_hi - b_hi))
            b_lo, b_hi = new_lo, new_hi
            if moved <= bc_tol:
                break
        else:
            raise RuntimeError("coupled flux boundaries did not settle")

    w = base.copy()
    if resp_lo is not None:
        w += b_lo * resp_lo
    if resp_hi is not None:
        w += b_hi * resp_hi
    if bc_lo[0] == "dirichlet":
        w[0] = bc_lo[1]
    if bc_hi[0] == "dirichlet":
        w[-1] = bc_hi[1]
    return w


def _solve_lines(w_old, h, dt, af, src, bc_lo, bc_hi, varphi, bc_tol):
    """:func:`_solve_line` for a stack of lines, bitwise equal per line.

    Arrays carry one row per line and each end value is a (lines,)
    array.  The linear solves share one banded call, and the flux ends
    of all lines are closed by the scalar bisection run in lockstep: the
    same brackets, midpoints, comparisons, exact-root exit and stopping
    rule per line.
    """
    n_lines, m = w_old.shape
    base, resp = _line_responses(w_old, h, dt, af, src, bc_lo, bc_hi)
    if not resp:
        return base

    def bisect(end, rows, other):
        """Close end on lines rows, the other end held at other."""
        # node, inner neighbour and face of the end
        i, k, f = (0, 1, 0) if end == "lo" else (m - 1, m - 2, -1)
        d2v = np.broadcast_to(bc_lo[1] if end == "lo" else bc_hi[1], n_lines)[rows]
        w_i, src_i, base_k = w_old[rows, i], src[rows, i], base[rows, k]
        terms = [(e == end, r[rows, k]) for e, r in resp.items()]
        # the factors _solve_line forms in every call, formed once
        c_phi, c_d2, c_face = 2.0 / h, (2.0 / h) * d2v, (2.0 / h**2) * af[rows, f]

        def residual(b):
            val = base_k
            for own, r_k in terms:
                val = val + (b if own else other) * r_k
            return ((b - w_i) / dt + c_phi * varphi(b) - c_d2
                    + c_face * (b - val) - src_i)

        return _bisect_lockstep(residual, w_i, bc_tol)

    lines = np.arange(n_lines)
    b_lo = w_old[:, 0].copy() if "lo" in resp else np.broadcast_to(bc_lo[1], n_lines)
    b_hi = w_old[:, -1].copy() if "hi" in resp else np.broadcast_to(bc_hi[1], n_lines)
    if "hi" not in resp:
        b_lo = bisect("lo", lines, b_hi)
    elif "lo" not in resp:
        b_hi = bisect("hi", lines, b_lo)
    else:
        # the coupled sweeps of _solve_line; each line stops on its own
        live = lines
        for _ in range(100):
            new_lo = bisect("lo", live, b_hi[live])
            new_hi = bisect("hi", live, new_lo)
            d_lo = np.abs(new_lo - b_lo[live])
            d_hi = np.abs(new_hi - b_hi[live])
            moved = np.where(d_hi > d_lo, d_hi, d_lo)  # max() of _solve_line
            b_lo[live], b_hi[live] = new_lo, new_hi
            live = live[~(moved <= bc_tol)]
            if not live.size:
                break
        else:
            raise RuntimeError("coupled flux boundaries did not settle")

    w = base.copy()
    if "lo" in resp:
        w += b_lo[:, None] * resp["lo"]
    if "hi" in resp:
        w += b_hi[:, None] * resp["hi"]
    if bc_lo[0] == "dirichlet":
        w[:, 0] = bc_lo[1]
    if bc_hi[0] == "dirichlet":
        w[:, -1] = bc_hi[1]
    return w


def _expand_lockstep(res, center, side):
    """The bracket search of _solve_line, one entry per line."""
    span = np.maximum(1.0, np.abs(center))
    x = center - span if side == "low" else center + span
    for _ in range(80):
        r = res(x)
        grow = ~(r <= 0.0) if side == "low" else ~(r >= 0.0)
        if not grow.any():
            return x
        span *= 2.0  # only the spans of lines still growing are used
        x = np.where(grow, center - span if side == "low" else center + span, x)
    raise RuntimeError(f"flux boundary bracket expansion failed ({side} side)")


def _bisect_lockstep(res, center, bc_tol):
    """The bisection of _solve_line, one entry per line.

    res is evaluated on every line each round; a line whose loop has
    ended keeps its bracket, so its extra evaluations change nothing.
    """
    lo = _expand_lockstep(res, center, "low")
    hi = _expand_lockstep(res, center, "high")
    live = hi - lo > bc_tol
    while live.any():
        mid = 0.5 * (lo + hi)
        # adjacent floats wider apart than bc_tol end a line's loop
        live &= (lo < mid) & (mid < hi)
        r = res(mid)
        # an exact root (equilibria land here) moves both ends onto mid,
        # which ends its loop and keeps it bitwise; NaN moves hi
        np.copyto(lo, mid, where=live & (r <= 0.0))
        np.copyto(hi, mid, where=live & ~(r < 0.0))
        live &= hi - lo > bc_tol
    return np.where(lo == hi, lo, 0.5 * (lo + hi))


def _explicit_source(scn, pts, t, w):
    src = -np.asarray(scn.c(pts, t), dtype=float) * np.asarray(scn.reaction(w), dtype=float)
    if scn.absorption is not None:
        src = src - np.asarray(scn.absorption(pts, t, w), dtype=float)
    return src + np.asarray(scn.f(pts, t), dtype=float)


def _solve_1d(scn, grid, cfg):
    y = grid.points()
    h = grid.h
    yf = 0.5 * (y[:-1] + y[1:])
    w = np.asarray(scn.w0(y), dtype=float)
    check_finite(w, 0, 0.0)

    traj = Trajectory("parabolic", grid, meta={
        "scheme": "semi-implicit diffusion, explicit reaction",
        "dim": 1, "n": grid.n, "dt": cfg.dt, "t_end": cfg.t_end,
        "scenario": scn.label,
    })
    traj.append(0.0, u=w.copy())

    t, step = 0.0, 0
    while t < cfg.t_end - 1e-12 * cfg.t_end:
        dt = min(cfg.dt, cfg.t_end - t)
        tn = t + dt
        af = np.asarray(scn.a(yf, tn), dtype=float)
        src = _explicit_source(scn, y, t, w)
        check_finite(src, step + 1, tn, "non-finite explicit source")
        bc_lo = _bc_spec(scn, "left", 0.0, tn)
        bc_hi = _bc_spec(scn, "right", 1.0, tn)
        try:
            w = _solve_line(w, h, dt, af, src, bc_lo, bc_hi,
                            scn.boundary_reaction, cfg.bc_tol)
        except (RuntimeError, np.linalg.LinAlgError) as exc:
            raise SolverDivergedError(step + 1, tn, str(exc)) from exc
        step += 1
        t = tn
        check_finite(w, step, t)
        if step % cfg.output_stride == 0 or t >= cfg.t_end - 1e-12 * cfg.t_end:
            traj.append(t, u=w.copy())
    return traj


def _solve_2d(scn, grid, cfg):
    nx, ny = grid.nx, grid.ny
    hx, hy = grid.hx, grid.hy
    X, Y = grid.points()
    xs = X[:, 0]
    ys = Y[0, :]
    xf = 0.5 * (xs[:-1] + xs[1:])
    yf = 0.5 * (ys[:-1] + ys[1:])
    w = np.asarray(scn.w0((X, Y)), dtype=float)
    check_finite(w, 0, 0.0)

    # the x-sweep solves the rows off Dirichlet bottom/top edges, the
    # y-sweep the columns off Dirichlet left/right edges; each line's face
    # points form one row of the sweep's face meshes
    rows = slice(1 if "bottom" in scn.gamma1 else 0, ny if "top" in scn.gamma1 else ny + 1)
    cols = slice(1 if "left" in scn.gamma1 else 0, nx if "right" in scn.gamma1 else nx + 1)
    y_rows, x_cols = ys[rows], xs[cols]
    x_faces = np.broadcast_arrays(xf[None, :], y_rows[:, None])
    y_faces = np.broadcast_arrays(x_cols[:, None], yf[None, :])
    zero_src = np.zeros((x_cols.size, ny + 1))

    traj = Trajectory("parabolic", grid, meta={
        "scheme": "dimension-split semi-implicit diffusion, explicit reaction",
        "dim": 2, "nx": nx, "ny": ny, "dt": cfg.dt, "t_end": cfg.t_end,
        "scenario": scn.label,
    })
    traj.append(0.0, u=w.copy())

    t, step = 0.0, 0
    while t < cfg.t_end - 1e-12 * cfg.t_end:
        dt = min(cfg.dt, cfg.t_end - t)
        tn = t + dt
        src = _explicit_source(scn, (X, Y), t, w)
        check_finite(src, step + 1, tn, "non-finite explicit source")
        dvals = np.asarray(scn.d1((X, Y), tn), dtype=float)

        try:
            # sweep along x: rows carry the full explicit source
            w_star = dvals.copy()
            w_star[:, rows] = _solve_lines(
                w[:, rows].T, hx, dt, np.asarray(scn.a(x_faces, tn), dtype=float),
                src[:, rows].T, _bc_spec(scn, "left", (0.0, y_rows), tn),
                _bc_spec(scn, "right", (1.0, y_rows), tn),
                scn.boundary_reaction, cfg.bc_tol).T

            # sweep along y: pure diffusion correction
            w_new = dvals.copy()
            w_new[cols, :] = _solve_lines(
                w_star[cols, :], hy, dt, np.asarray(scn.a(y_faces, tn), dtype=float),
                zero_src, _bc_spec(scn, "bottom", (x_cols, 0.0), tn),
                _bc_spec(scn, "top", (x_cols, 1.0), tn),
                scn.boundary_reaction, cfg.bc_tol)
        except (RuntimeError, np.linalg.LinAlgError) as exc:
            raise SolverDivergedError(step + 1, tn, str(exc)) from exc

        w = w_new
        step += 1
        t = tn
        check_finite(w, step, t)
        if step % cfg.output_stride == 0 or t >= cfg.t_end - 1e-12 * cfg.t_end:
            traj.append(t, u=w.copy())
    return traj
