"""Semi-implicit finite differences for the disturbed reaction-diffusion class

    u_t = div(a grad u) - c*phi(u) + f(y, t)

on the unit cube [0, 1]^N (N = 1, 2, 3, the axes of
:data:`~isscert.fields.AXES`), with Dirichlet data u = d1 on one part of
the boundary and the nonlinear flux law

    a du/dnu = -varphi(u) + d2        (nu the outward normal)

on the rest.  Diffusion is implicit, one backward-Euler sweep per axis
(a Lie split; the interval's one sweep is plain backward Euler); reaction
and forcing are explicit, in the first sweep.  Every sweep solves the
stack of its grid lines, the interval's one line or all lines along an
axis, with zero couplings in one tridiagonal band.  The interior unknowns
of a line are affine in its end values, so by the flux law's facts
(slope and gamma) the balance at a flux end is a cubic in its value,
less a multiple of the other end's value where that is a flux end too.
One closure, :func:`_close`, solves it: a linear law in closed form, a
cubic one by Newton's method from a closed-form start, each end
stopping on a proven bound on its error.  One line runs on Python
floats, more in lockstep on arrays, with the same bits.
:func:`solve_parabolic` supplies the step of any dimension to the time
loop all steppers share, :func:`~isscert.solvers.common.march`.  It binds
every field to its points once per solve
(:meth:`~isscert.signals.SpaceTimeField.bind`): a on the faces, c and f
on the nodes, d1 and d2 on the boundary points, so a step evaluates the
fields' time signals only, and a field of a constant signal not at all.
Each sweep factors its band once per operator (LAPACK gttrf), with the
unit responses of its flux ends and, at its first closure, the closure's
constants (:class:`_Bound`); a step solves one right-hand side (gttrs)
and closes from each end's state.  A new h, dt or diffusivity, such as a
time-varying a or a shorter last step, refactors and rebinds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import Callable

import numpy as np

from ..fields import AXES, Trajectory, edge_names, grid_keys
from ..signals import SpaceTimeField
from .common import ScenarioError, SolverConfig, SolverDivergedError, check_finite, march

__all__ = ["ParabolicScenario", "solve_parabolic"]

_SIGN_TOL = 1e-12
_NONFINITE = "non-finite diffusion band or right-hand side"


def _constant(value):
    """value as a read-only 0-d array: numpy combines one with an array in
    about half the time it takes for a Python float."""
    out = np.array(float(value))
    out.flags.writeable = False
    return out


@cache
def _lapack():
    """LAPACK's float64 gttrf and gttrs, loaded on the first factorisation.

    They come from scipy's Fortran LAPACK extension, ``linalg/_flapack``,
    loaded from its file alone: the scipy and scipy.linalg packages are
    neither imported nor entered in sys.modules, so a later import of
    scipy.linalg gets the full package and the same routines.  Where the
    file is not found, scipy.linalg's get_lapack_funcs supplies them.
    """
    import importlib.machinery
    import importlib.util
    import os
    spec = importlib.util.find_spec("scipy")
    for root in spec.submodule_search_locations if spec else ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, "linalg", "_flapack" + suffix)
            if os.path.isfile(path):
                loader = importlib.machinery.ExtensionFileLoader("scipy.linalg._flapack", path)
                flapack = importlib.util.module_from_spec(importlib.util.spec_from_loader(loader.name, loader))
                loader.exec_module(flapack)
                return flapack.dgttrf, flapack.dgttrs
    from scipy.linalg import get_lapack_funcs
    return get_lapack_funcs(("gttrf", "gttrs"), (np.zeros(1),))


@dataclass
class ParabolicScenario:
    """Problem data for the reaction-diffusion class.

    dim is the number of axes, 1 to 3.  gamma1 (Dirichlet) and gamma2
    (flux) partition the boundary edge names of those axes, (low, high)
    per axis from :data:`~isscert.fields.AXES`: left/right, bottom/top,
    front/back.  The grid carries no edge labels, so this partition is
    the only one.  The maps are the config's map kinds, v -> slope*v +
    gamma*v**3 with slope and gamma as attributes, which :meth:`validate`
    reads, refusing any other callable.  Such a map is odd, and it is of
    the sign of v and nondecreasing on every state exactly when slope >= 0
    and gamma >= 0.  The flux law (boundary_reaction) needs that for the
    flux closure, which reads both facts; the reaction needs its least
    slope, slope, to be at least one as well.

    a, c, f, d1 and d2 are SpaceTimeFields, so their infs and sups are
    exact; :meth:`validate` refuses any other callable.  a0 and c0 are
    floors of a and c, which :func:`solve_parabolic` checks over the run's
    horizon; c0 = 0 is allowed (no reaction floor), but the truncation-level
    computation then refuses the scenario.
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
    label: str = ""

    def __post_init__(self):
        self.gamma1 = frozenset(self.gamma1)
        self.gamma2 = frozenset(self.gamma2)

    def validate(self):
        for name in ("a", "c", "f", "d1", "d2"):
            if not isinstance(getattr(self, name), SpaceTimeField):
                raise ScenarioError(f"{name} must be a SpaceTimeField, "
                                    f"got {type(getattr(self, name)).__name__}")
        try:
            edges = set(edge_names(self.dim))
        except ValueError as exc:
            raise ScenarioError(str(exc)) from None
        if not self.a0 > 0:
            raise ScenarioError("diffusion floor a0 must be positive")
        if self.c0 < 0:
            raise ScenarioError("reaction floor c0 must be nonnegative")
        if not self.gamma1.isdisjoint(self.gamma2):
            raise ScenarioError("gamma1 and gamma2 overlap")
        if self.gamma1 | self.gamma2 != edges:
            raise ScenarioError(f"boundary labels must cover {sorted(edges)} exactly")
        for what, law, least in (("reaction", self.reaction, 1.0),
                                 ("boundary reaction", self.boundary_reaction, 0.0)):
            # getattr, not isinstance: a wrapper that forwards attributes passes
            slope, gamma = (getattr(law, fact, None) for fact in ("slope", "gamma"))
            if slope is None or gamma is None:
                raise ScenarioError(f"{what} must be an identity, linear or cubic map, "
                                    f"got {type(law).__name__}")
            if not (slope >= least and gamma >= 0):
                raise ScenarioError("reaction slope must be at least one" if least
                                    else "boundary reaction must be nondecreasing")


def _check_floors(scn, a_faces, c_nodes, t_end):
    """Reject a run whose diffusion coefficient (bound on the faces of
    each sweep) or reaction coefficient (bound on the nodes) drops below
    its floor."""
    for what, bound, name, floor in (("diffusion", a_faces, "a0", scn.a0),
                                     ("reaction", [c_nodes], "c0", scn.c0)):
        low = min(b.range(t_end)[0] for b in bound)
        if low < floor - _SIGN_TOL:
            raise ScenarioError(f"{what} coefficient drops below {name} = {floor:g} "
                                f"(down to {low:g})")


def solve_parabolic(scn: ParabolicScenario, grid, cfg: SolverConfig) -> Trajectory:
    """March the scenario to cfg.t_end and record every stride-th state.

    :meth:`ParabolicScenario.validate` decides the maps' conditions on
    every state by their kinds' facts, so no range the run reaches is
    checked again.
    """
    scn.validate()
    if cfg.dt is None:
        raise ValueError("the parabolic stepper needs an explicit dt")
    if grid.layout != "node" or grid.dim != scn.dim:
        raise ValueError(f"dim {scn.dim} runs need a node-centered grid of dim {scn.dim}")
    a_faces, bands, meta, implicit = _setup(scn, grid, cfg)
    # every field is bound to its points once: a step evaluates signals only
    pts = grid.points()
    c_n, f_n = scn.c.bind(pts), scn.f.bind(pts)
    _check_floors(scn, a_faces, c_n, cfg.t_end)
    # a constant c is negated once, not every step (negation is exact)
    minus_c = None if c_n.fixed is None else -c_n.fixed

    def advance(t, dt, state, step):
        (w,) = state
        tn = t + dt
        src = ((-c_n(t) if minus_c is None else minus_c)
               * np.asarray(scn.reaction(w), dtype=float) + f_n(t))
        check_finite(src, step, tn, "non-finite explicit source")
        try:
            return dt, (implicit(w, src, dt, tn),)
        except (RuntimeError, np.linalg.LinAlgError) as exc:
            raise SolverDivergedError(step, tn, str(exc)) from exc

    traj = Trajectory("parabolic", grid, meta={
        **meta, "dt": cfg.dt, "t_end": cfg.t_end, "scenario": scn.label})
    # a diverging state overflows: the step's own finiteness checks report it
    with np.errstate(over="ignore", invalid="ignore"):
        march(traj, cfg, (np.asarray(scn.w0(pts), dtype=float),), advance, cfg.dt)
    traj.counters["band_factorizations"] = sum(band.factorizations for band in bands)
    traj.counters["closures"] = sum(band.closures for band in bands)
    traj.counters["flux_law_calls"] = sum(band.law_calls for band in bands)
    traj.counters["closure_error"] = max(band.closure_error for band in bands)
    return traj


def _setup(scn, grid, cfg):
    """Diffusion bound on each sweep's faces, each sweep's band, meta entries
    and implicit step: one backward-Euler sweep per axis, the first carrying
    the explicit source and the rest pure diffusion, a Lie split (on the
    interval the one sweep is the step).

    The sweep along axis k solves the lines along k off the Dirichlet faces
    of the other axes, stacked in C order of those axes' nodes as (lines,
    nodes along k).  It binds a on the faces, one row per line, and the
    end data on the lines' end points, which hold axis k's coordinate as
    the scalar 0 or 1.  Every node a sweep leaves out takes the Dirichlet
    data.
    """
    coords, g1 = grid.coords(), scn.gamma1
    keep = [slice(int(lo in g1), x.size - int(hi in g1)) for (lo, hi, _), x in zip(AXES, coords)]
    sweeps = []
    for k, ((lo, hi, _), x) in enumerate(zip(AXES, coords)):
        # the axes with axis k last, and the nodes the sweep solves in that order
        order = (*range(k), *range(k + 1, grid.dim), k)
        sel = (*(keep[j] for j in order[:-1]), slice(None))
        face_coords = [c[keep[j]] if j != k else 0.5 * (x[:-1] + x[1:])
                       for j, c in enumerate(coords)]
        faces = [m.transpose(order).reshape(-1, x.size - 1)
                 for m in np.broadcast_arrays(*np.ix_(*face_coords))]
        ends = [(edge, _points([at if j == k else f[:, 0] for j, f in enumerate(faces)]))
                for edge, at in ((lo, 0.0), (hi, 1.0))]
        bcs = [("dirichlet", scn.d1.bind(p)) if edge in g1 else ("flux", scn.d2.bind(p))
               for edge, p in ends]
        sweeps.append((order, sel, _Band(), grid.steps[k], scn.a.bind(_points(faces)), bcs,
                       np.zeros((len(faces[0]), x.size))))
    # the nodes a sweep leaves out, on the other axes' Dirichlet faces, take the data
    d1_n = scn.d1.bind(grid.points()) if grid.dim > 1 and g1 else None

    def implicit(w, src, dt, tn):
        dvals = None if d1_n is None else d1_n(tn)
        for k, (order, sel, band, h, a_k, bcs, zero) in enumerate(sweeps):
            moved = w.transpose(order)[sel]
            stack = moved.reshape(-1, moved.shape[-1])
            lines = _solve_lines(
                band, stack, h, dt, a_k(tn),
                src.transpose(order)[sel].reshape(stack.shape) if k == 0 else zero,
                *[(kind, value(tn)) for kind, value in bcs], scn.boundary_reaction, cfg.bc_tol)
            if dvals is None and k == grid.dim - 1:  # every node, in C order: no copy
                w = lines.reshape(grid.shape)
            else:
                w = np.empty(grid.shape) if dvals is None else dvals.copy()
                w.transpose(order)[sel] = lines.reshape(moved.shape)
        return w

    meta = {"scheme": ("dimension-split " if grid.dim > 1 else "")
            + "semi-implicit diffusion, explicit reaction",
            "dim": grid.dim, **dict(zip(grid_keys(grid.dim), grid.cells))}
    return [sweep[4] for sweep in sweeps], [sweep[2] for sweep in sweeps], meta, implicit


def _points(coords):
    """Points as fields bind them: one array on the interval, else a tuple."""
    return coords[0] if len(coords) == 1 else tuple(coords)


@dataclass
class _Band:
    """One sweep's memo of its last factored diffusion band: the key it was
    factored under, gttrf's factors lu, the read-only unit responses resp
    of its flux ends, the number of factorisations so far, and af, the
    diffusivity array of the key when it is read-only and owns its data;
    bound, its closure constants (:class:`_Bound`, None until the first
    closure); and the sweep's closures, law calls and largest error bound."""

    key: tuple = None
    af: np.ndarray = None
    lu: list = None
    resp: dict = None
    bound: _Bound = None
    factorizations: int = 0
    closures: int = 0
    law_calls: int = 0
    closure_error: float = 0.0

    def factor(self, key, h, dt, af, kinds):
        """Factor the band of faces af under key; solve the ends' unit responses."""
        n_lines, m = af.shape[0], af.shape[1] + 1
        lam = dt / h**2
        ab = np.zeros((3, n_lines, m))
        ab[1] = 1.0
        ab[1, :, 1:m - 1] = 1.0 + lam * (af[:, 1:] + af[:, :-1])
        ab[0, :, 2:] = -lam * af[:, 1:]
        ab[2, :, :m - 2] = -lam * af[:, :-1]
        if not np.isfinite(ab).all():
            raise RuntimeError(_NONFINITE)
        # the diagonals of banded storage, on arrays owned here
        ab = ab.reshape(3, n_lines * m)
        gttrf, gttrs = _lapack()
        *lu, info = gttrf(ab[2, :-1], ab[1], ab[0, 1:], True, True, True)
        if info > 0:
            raise np.linalg.LinAlgError("singular matrix")
        # one right-hand side per end, as the rows of unit, so unit.T is
        # column-major; both ends, so LAPACK never sees zero columns
        unit = np.zeros((2, n_lines, m))
        unit[0, :, 0] = unit[1, :, m - 1] = 1.0
        x = gttrs(*lu, unit.reshape(2, -1).T, overwrite_b=True)[0].T.reshape(2, n_lines, m)
        x.flags.writeable = False
        self.key, self.lu, self.bound, self.resp = key, lu, None, {
            end: x[j] for j, (end, kind) in enumerate(zip(("lo", "hi"), kinds)) if kind == "flux"}
        self.factorizations += 1


def _line_responses(band, w_old, h, dt, af, src, bc_lo, bc_hi):
    """Implicit diffusion solves along a stack of grid lines.

    w_old and src are (lines, m), af is (lines, m - 1) face diffusivities,
    and bc_lo / bc_hi are (kind, values) with one value per line.  The
    lines go into one tridiagonal band with zero couplings between them,
    which band, the sweep's :class:`_Band`, factors once per operator: anew
    only when h, dt, the end kinds or the bits of af change, solving and
    caching the ends' unit responses then.  A step solves one right-hand
    side.  Returns the (lines, m) solution with every flux end held at
    zero, and {end: read-only response to a unit value there} for each
    flux end, "lo" and/or "hi".
    """
    n_lines, m = w_old.shape
    kinds = (bc_lo[0], bc_hi[0])
    # a constant diffusivity is the same read-only array every step, so its
    # bits are only read when another array comes
    if af is not band.af or band.key[:3] != (h, dt, kinds):
        key = (h, dt, kinds, af.shape, af.tobytes())
        if band.key != key:
            band.factor(key, h, dt, af, kinds)
        band.af = None if af.flags.writeable or not af.flags.owndata else af
    # w_old + dt*src in two passes over one C-ordered array, end columns set after
    rhs = np.multiply(dt, src, order="C")
    rhs += w_old
    for i, (kind, value) in ((0, bc_lo), (m - 1, bc_hi)):
        rhs[:, i] = value if kind == "dirichlet" else 0.0
    if not np.isfinite(rhs).all():
        raise RuntimeError(_NONFINITE)
    base = _lapack()[1](*band.lu, rhs.reshape(-1, 1), overwrite_b=True)[0]
    return base.reshape(n_lines, m), band.resp


def _solve_lines(band, w_old, h, dt, af, src, bc_lo, bc_hi, varphi, bc_tol):
    """Implicit diffusion solves along a stack of grid lines, flux ends closed.

    The arguments are those of :func:`_line_responses` (a boundary value
    may also be one scalar for all lines), the flux law varphi and bc_tol.
    Each flux end's balance

        (b - w)/dt + (2/h) varphi(b) - (2/h) d2 + (2/h^2) a (b - inner) - src

    is closed by :func:`_close_lines`; band counts the closures (a flux
    end of a line each), law calls and the largest error bound at exit.
    """
    base, resp = _line_responses(band, w_old, h, dt, af, src, bc_lo, bc_hi)
    if not resp:
        return base
    ends, err, calls = _close_lines(band, h, dt, w_old, src, base, af,
                                    {"lo": bc_lo[1], "hi": bc_hi[1]}, varphi, bc_tol)
    band.closures += w_old.shape[0] * len(resp)
    band.law_calls += calls
    band.closure_error = max(band.closure_error, err)
    # base is this call's own array, and the closure no longer reads it
    w = base
    for end, r in resp.items():
        w += ends[end] * r
    if bc_lo[0] == "dirichlet":
        w[:, 0] = bc_lo[1]
    if bc_hi[0] == "dirichlet":
        w[:, -1] = bc_hi[1]
    return w


def _residual(end, dt, c_phi, law, w_i, src_i, base_k, c_d2, c_face, r_lo, r_hi):
    """The balance of end (:func:`_close`, :class:`_Bound`), as a function
    residual(b, other=0.0) of its value b and the other flux end's value,
    if any.  The inner node's value adds b's and the other value's
    response terms to base_k in the order lo, hi; the high end's keeps
    other*r_lo at other = 0.0, which sets the sign of a zero sum."""
    if r_lo is None or r_hi is None:
        r_k = r_hi if r_lo is None else r_lo

        def residual(b, other=0.0):
            return ((b - w_i) / dt + c_phi * law(b) - c_d2
                    + c_face * (b - (base_k + b * r_k)) - src_i)
    elif end == "lo":
        def residual(b, other=0.0):
            return ((b - w_i) / dt + c_phi * law(b) - c_d2
                    + c_face * (b - (base_k + b * r_lo + other * r_hi)) - src_i)
    else:
        def residual(b, other=0.0):
            return ((b - w_i) / dt + c_phi * law(b) - c_d2
                    + c_face * (b - (base_k + other * r_lo + b * r_hi)) - src_i)
    return residual


def _close(bound, law, states, tol):
    """The values {end: b} of the flux ends with states {end: (w_i, src_i,
    base_k, c_d2)}, each end's old and source values at its node, the base
    solution at its inner neighbour and (2/h) d2, under the constants bound
    (:class:`_Bound`); the error bounds at exit and the law's calls, counted
    per line.  An end's balance (:func:`_residual`) is R(b) = m*b + k*b^3 -
    C - beta*y, y the other flux end's value: m = 1/dt + c_face*(1 - r_own)
    + c_phi*slope > 0, k = c_phi*gamma >= 0, beta = c_face*r_other >= 0 and
    C = -R(0).  L = [[m_lo, -beta_lo], [-beta_hi, m_hi]] is an M-matrix
    (beta + 1/dt <= m), and R(z) - R(z*) = (L + D)(z - z*), D diagonal and
    D >= 3/4 k diag(z^2), so |z - z*| <= (L + 3/4 k diag(z^2))^-1 |R(z)|
    (|R(b)|/(m + 3/4 k b^2) for one end): a line stops where that is at
    most tol.  A linear law closes as C/m or L^-1 C.  A cubic one runs
    Newton, one end from above |b*| on R's convex side (:func:`_one_end`),
    two from L^-1 C clipped to each end's cube-root bound, and past
    _NEWTON_ROUNDS rounds or a non-finite point by :func:`_nested`.  A line
    also stops where its point would not move, or where each |R| is within
    nu (:meth:`_Bound.rounding`), which bounds the rounding of the computed
    balance and adds nu/m to the bound.  A NaN balance raises RuntimeError.
    """
    lay, dt, c_phi, k, det = bound.lay, bound.dt, bound.c_phi, bound.k, bound.det
    calls, res, c = len(states) * lay.lines, {}, {}
    for end, (w_i, src_i, base_k, c_d2) in states.items():
        c_face, r_lo, r_hi, m, _, _, _, _ = bound.ends[end]
        res[end] = _residual(end, dt, c_phi, law, w_i, src_i, base_k, c_d2, c_face, r_lo, r_hi)
        c[end] = 0.0 - res[end](lay.zero, lay.zero)
        if not lay.all(lay.finite(c[end])):
            raise RuntimeError(_NONFINITE_BALANCE)
    if len(res) == 1:
        ((end, r),) = res.items()
        if not law.gamma:
            return {end: c[end] / m}, 0.0, calls
        b, err, more = _one_end(lay, r, m, k, c[end], tol, bound.rounding(end, *states[end]))
        return {end: b}, err, calls + more
    (lo, hi), (c_lo, c_hi) = (res["lo"], res["hi"]), (c["lo"], c["hi"])
    (*_, m_lo, b_lo, _, _, _), (*_, m_hi, b_hi, _, _, _) = bound.ends["lo"], bound.ends["hi"]
    x, y = (m_hi * c_lo + b_lo * c_hi) / det, (m_lo * c_hi + b_hi * c_lo) / det
    if not law.gamma:
        return {"lo": x, "hi": y}, 0.0, calls
    nu = {end: bound.rounding(end, *state) for end, state in states.items()}
    # |z*| <= B = L^-1 |C|, so k*|x*|^3 <= |C_lo| + beta_lo*B_y = m_lo*B_x
    a_lo, a_hi = abs(c_lo), abs(c_hi)
    top = (lay.cbrt_above(m_lo * ((m_hi * a_lo + b_lo * a_hi) / det) / k),
           lay.cbrt_above(m_hi * ((b_hi * a_lo + m_lo * a_hi) / det) / k))
    start = tuple(lay.minimum(lay.maximum(v, -t), t) for v, t in zip((x, y), top))

    def round_(z):
        x, y = z
        r_lo, r_hi = lo(x, y), hi(y, x)
        if lay.any((r_lo != r_lo) | (r_hi != r_hi)):
            raise RuntimeError(_NONFINITE_BALANCE)
        a_lo, a_hi, xx, yy = abs(r_lo), abs(r_hi), x * x, y * y
        q_lo, q_hi = m_lo + k * (0.75 * xx), m_hi + k * (0.75 * yy)
        q = q_lo * q_hi - b_lo * b_hi
        err = lay.maximum((q_hi * a_lo + b_lo * a_hi) / q, (b_hi * a_lo + q_lo * a_hi) / q)
        # the Newton step, by the Jacobian L + 3k diag(z^2)
        j_lo, j_hi = m_lo + k * (3.0 * xx), m_hi + k * (3.0 * yy)
        j = j_lo * j_hi - b_lo * b_hi
        nx, ny = x - (j_hi * r_lo + b_lo * r_hi) / j, y - (b_hi * r_lo + j_lo * r_hi) / j
        need = ((err > tol) & ((nx != x) | (ny != y))
                & ((a_lo > nu["lo"](x, y)) | (a_hi > nu["hi"](y, x))))
        return err, (nx, ny), need & lay.finite(nx) & lay.finite(ny), need

    (x, y), err, need, rounds = _run(lay, round_, start, _NEWTON_ROUNDS)
    calls += 2 * rounds * lay.lines
    if lay.lines == 1 and need:
        x, y, err, more = _nested(lo, hi, m_lo, m_hi, b_lo, b_hi, k, c_lo, c_hi, det, nu,
                                  start[1], tol)
        calls += more
    elif lay.lines > 1:
        # such a line closes on floats from its start: the same rounds, then _nested
        for j in np.flatnonzero(need):
            one = _Bound(_Floats, dt.item(), c_phi.item(), law, {e: tuple(
                None if f is None else f[j].item() for f in bound.ends[e][:3]) for e in states})
            ends, err[j], more = _close(one, law, {end: tuple(f[j].item() for f in state)
                                                   for end, state in states.items()}, tol)
            x[j], y[j], calls = ends["lo"], ends["hi"], calls + more
    return {"lo": x, "hi": y}, err, calls


_NEWTON_ROUNDS = 24
_NONFINITE_BALANCE = "non-finite flux boundary balance"
_ROUNDING = 2.0**-49


class _Bound:
    """The constants of :func:`_close` for flux ends with faces {end: (c_face,
    r_lo, r_hi)}, c_face = (2/h^2) a on its face and r_lo, r_hi the flux
    ends' unit responses at its inner neighbour (None if Dirichlet), under
    a law of facts (slope, gamma) on lay with its dt and c_phi = 2/h: ends
    {end: (c_face, r_lo, r_hi, m, beta, n1, n2, n3)}, n1 to n3 nu's state-free
    coefficients (:meth:`rounding`), and det for two flux ends, else None."""

    def __init__(self, lay, dt, c_phi, law, faces):
        k, ends = c_phi * law.gamma, {}
        self.facts, self.lay, self.dt, self.c_phi, self.k, self.ends, self.det = (
            (law.slope, law.gamma), lay, dt, c_phi, k, ends, None)
        for end, (c_face, r_lo, r_hi) in faces.items():
            own, other = (r_lo, r_hi) if end == "lo" else (r_hi, r_lo)
            m = 1.0 / dt + c_face * (1.0 - own) + c_phi * law.slope
            beta = 0.0 if other is None else abs(c_face * other)
            ends[end] = (c_face, r_lo, r_hi, m, beta, *(_ROUNDING * v for v in (
                1.0 / dt + c_phi * law.slope + c_face * (1.0 + abs(own)), k, beta)))
        if len(ends) == 2:
            (*_, m_lo, b_lo, _, _, _), (*_, m_hi, b_hi, _, _, _) = ends["lo"], ends["hi"]
            self.det = m_lo * m_hi - b_lo * b_hi

    def rounding(self, end, w_i, src_i, base_k, c_d2):
        """nu(b, y) of end with state w_i, src_i, base_k and c_d2: 16 units of
        roundoff of its balance's terms at its value b and the other's y."""
        c_face, *_, n1, n2, n3 = self.ends[end]
        n0 = _ROUNDING * (abs(w_i) / self.dt + abs(c_d2) + c_face * abs(base_k) + abs(src_i))
        return lambda b, y=0.0: n0 + abs(b) * (n1 + n2 * (b * b)) + n3 * abs(y)


def _one_end(lay, res, m, k, c, tol, nu):
    """The root of res(b) = m*b + k*b^3 - c, k > 0, its bound and the law's
    calls: Newton from sign(c)*min(|c|/m, cbrt(|c|/k)), bracketed by 0 and
    twice that."""
    start = lay.copysign(lay.minimum(abs(c) / m, lay.cbrt_above(abs(c) / k)), c)
    (b,), err, _, rounds = _run(lay, _newton_round(
        lay, res, lambda b, bb: (m + k * (3.0 * bb), m + k * (0.75 * bb)),
        lay.minimum(start + start, 0.0), lay.maximum(start + start, 0.0), tol, nu), (start,))
    return b, err, rounds * lay.lines


def _newton_round(lay, res, rates, lo, hi, tol, nu):
    """A round of Newton on the increasing res in the bracket lo, hi of its
    root, which res(b) moves onto b by its sign; a point not inside it is
    its midpoint.  rates(b, b*b) is res'(b) and least, a floor of res's
    secant slopes from b: the bound is |res(b)|/least.  A line also stops
    where |res(b)| <= nu(b), where it would not move or at adjacent floats."""
    def round_(z):
        nonlocal lo, hi
        (b,) = z
        r = res(b)
        if lay.any(r != r):
            raise RuntimeError(_NONFINITE_BALANCE)
        slope, least = rates(b, b * b)
        err = abs(r) / least
        lo, hi = lay.where(r < 0.0, b, lo), lay.where(r > 0.0, b, hi)
        step = b - r / slope
        nxt = lay.where((lo < step) & (step < hi), step, 0.5 * (lo + hi))
        go = (err > tol) & (abs(r) > nu(b)) & (step != b) & (lo < nxt) & (nxt < hi)
        return err, (nxt,), go, go
    return round_


def _run(lay, round_, z, cap=None):
    """round_(z) -> (error bound, next z, go on, needs to move) from z until
    no line goes on, or for cap rounds: each line's last z, bound and need,
    and the rounds.  A stopped line keeps its z, and repeats its round."""
    live, rounds = True, 0
    while True:
        err, new, go, need = round_(z)
        rounds += 1
        live = live & go
        if not lay.any(live) or rounds == cap:
            return z, err, need, rounds
        z = lay.keep(z, new, live)


def _nested(lo, hi, m_lo, m_hi, b_lo, b_hi, k, c_lo, c_hi, det, nu, y, tol):
    """x, y, the error bound and the law's calls of two flux ends on floats:
    Newton on G(y) = R_hi(y; x(y)) from y in |y| <= 2*(m_lo*|C_hi| +
    beta_hi*|C_lo|)/det, x(y) the low end's own closure (bound e_x).
    G' >= det/m_lo, so |y - y*| <= e_y = (|G| + beta_hi*e_x)*m_lo/det and
    |x - x*| <= e_x + (beta_lo/m_lo)*e_y."""
    at = {"calls": 0}

    def g(y):
        x, e_x, calls = _one_end(_Floats, lambda b: lo(b, y), m_lo, k, 0.0 - lo(0.0, y), 0.0,
                                 lambda b: nu["lo"](b, y))
        at.update(x=x, e_x=e_x, calls=at["calls"] + calls + 2)
        return hi(y, x)

    least, reach = det / m_lo, 2.0 * (m_lo * abs(c_hi) + b_hi * abs(c_lo)) / det
    (y,), e_g, _, _ = _run(_Floats, _newton_round(
        _Floats, g, lambda y, yy: (m_hi + k * (3.0 * yy) - b_hi * b_lo / (
            m_lo + k * (3.0 * (at["x"] * at["x"]))), least), -reach, reach,
        0.5 * tol, lambda y: nu["hi"](y, at["x"])), (y,))
    e_y = e_g + b_hi * at["e_x"] / least
    return at["x"], y, max(e_y, at["e_x"] + b_lo / m_lo * e_y), at["calls"]


def _cbrt_above(x, t):
    """Two Newton steps on t^3 = x from t = 2^ceil(e/3) <= 2 cbrt(x), x =
    f*2^e, 1/2 <= f < 1: means of t, t and x/t^2, so at least cbrt(x)."""
    for _ in range(2):
        t = (t + t + x / (t * t)) / 3.0
    return t


class _Floats:
    """The float layout: one line on Python floats, whose stops are exits."""

    lines, zero, where = 1, 0.0, staticmethod(lambda cond, a, b: a if cond else b)
    any = all = staticmethod(bool)
    finite, copysign, minimum, maximum = map(staticmethod, (math.isfinite, math.copysign, min, max))
    cbrt_above = staticmethod(lambda x: x if x == math.inf else _cbrt_above(
        x, math.ldexp(1.0, -(-math.frexp(x)[1] // 3))))
    keep = staticmethod(lambda z, new, live: new if live else z)
    scalar, pick = staticmethod(lambda x: x), staticmethod(np.ndarray.item)
    data = staticmethod(lambda d, n: d if type(d) is float else np.asarray(d, dtype=float).item())


class _Lockstep:
    """A stack of lines on arrays, one entry per line, branches as masks."""

    where, any, all, finite, copysign, minimum, maximum = map(staticmethod, (
        np.where, np.any, np.all, np.isfinite, np.copysign, np.minimum, np.maximum))
    cbrt_above = staticmethod(lambda x: np.where(np.isinf(x), x, _cbrt_above(
        x, np.ldexp(1.0, -(-np.frexp(x)[1] // 3)))))
    scalar, pick, data = map(staticmethod, (_constant, lambda a, j: a[:, j], np.broadcast_to))

    def __init__(self, lines):
        self.lines, self.zero = lines, np.zeros(lines)

    @staticmethod
    def keep(z, new, live):
        for old, value in zip(z, new):
            np.copyto(old, value, where=live)
        return z


def _close_lines(band, h, dt, w_old, src, base, af, data, varphi, bc_tol):
    """:func:`_close` on a stack, with its largest bound: one line on floats
    (its factors and boundary data, a scalar or a size-1 array, read once,
    so the law sees floats), more in lockstep, each end as a column; band's
    constants bound anew after a factorisation or under other law facts."""
    (n_lines, m), resp, bound = w_old.shape, band.resp, band.bound
    if bound is None or bound.facts != (varphi.slope, varphi.gamma):
        lay = _Floats if n_lines == 1 else _Lockstep(n_lines)
        bound = band.bound = _Bound(lay, lay.scalar(dt), lay.scalar(2.0 / h), varphi, {
            end: ((2.0 / h**2) * lay.pick(af, 0 if end == "lo" else m - 2),
                  *(lay.pick(resp[e], 1 if end == "lo" else m - 2) if e in resp else None
                    for e in ("lo", "hi"))) for end in resp})
    lay, states = bound.lay, {}
    for end in resp:
        i, k = (0, 1) if end == "lo" else (m - 1, m - 2)
        states[end] = (lay.pick(w_old, i), lay.pick(src, i), lay.pick(base, k),
                       (2.0 / h) * lay.data(data[end], n_lines))
    if lay is _Floats:
        return _close(bound, varphi, states, bc_tol)
    # a law that overflows far out gives an infinite balance, and inf/inf a NaN step
    with np.errstate(over="ignore", invalid="ignore"):
        ends, err, calls = _close(bound, varphi, states, bc_tol)
    return {end: b[:, None] for end, b in ends.items()}, float(np.max(err)), calls
