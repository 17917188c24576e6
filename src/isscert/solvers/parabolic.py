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
of a line are affine in its end values, so the balance at each flux end
becomes a strictly increasing scalar equation with a guaranteed bracket,
closed by bisection in one closure, :func:`_solve_lines`.  With two flux
ends, the high end's balance is affine in the low end's value, so solving
it for that value (clipped to the finite floats where the coupling
underflows) leaves one increasing equation in the high end's value: one
bisection gives the high end, the low end's own closure there the low
end.  The closure runs on two data layouts chosen by the stack height:
one line on Python floats end to end, more lines in lockstep on arrays,
with the same expansion, midpoints and exits, so a line gives the same
bits alone or in a stack for any law that gives a float the bits an
array gives elementwise.
:func:`solve_parabolic` supplies the step of any dimension to the time
loop all steppers share, :func:`~isscert.solvers.common.march`.  It binds
every field to its points once per solve
(:meth:`~isscert.signals.SpaceTimeField.bind`): a on the faces, c and f
on the nodes, d1 and d2 on the boundary points, so a step evaluates the
fields' time signals only, and a field of a constant signal not at all.
Each sweep factors its band once per operator (LAPACK gttrf), with the
unit responses of its flux ends, and a step solves one right-hand side
(gttrs); a new h, dt or diffusivity, such as a time-varying a or a
shorter last step, refactors.  A closure's residual is one expression
per end layout, with no loop over the ends' response terms.  A run whose
states reach beyond the range :meth:`ParabolicScenario.validate` samples
has its maps checked again over the range it reached.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cache
from typing import Callable

import numpy as np

from ..fields import AXES, Trajectory, edge_names, grid_keys
from ..signals import SpaceTimeField
from .common import (MAP_INTERVALS, MAP_REACH, ScenarioError, SolverConfig,
                     SolverDivergedError, check_finite, march)

__all__ = ["ParabolicScenario", "solve_parabolic"]

_SIGN_TOL = 1e-12
_SLOPE_TOL = 1e-8
# a run that reaches beyond common's map lattice is checked again at its
# spacing, _MAP_BLOCK intervals at a time, up to states of _MAP_REACH_MAX
_MAP_BLOCK, _MAP_REACH_MAX = 4000, 1e6

# x(y) of a line with two flux ends is clipped to the finite floats
_FLOAT_MAX = sys.float_info.max
_NONFINITE = "non-finite diffusion band or right-hand side"


@cache
def _lapack():
    """LAPACK's gttrf and gttrs; scipy is imported on the first factorisation."""
    from scipy.linalg import get_lapack_funcs
    return get_lapack_funcs(("gttrf", "gttrs"), (np.zeros(1),))


@dataclass
class ParabolicScenario:
    """Problem data for the reaction-diffusion class.

    dim is the number of axes, 1 to 3.  gamma1 (Dirichlet) and gamma2
    (flux) partition the boundary edge names of those axes, (low, high)
    per axis from :data:`~isscert.fields.AXES`: left/right, bottom/top,
    front/back.  The grid carries no edge labels, so this partition is
    the only one.  The maps must satisfy
    the structural sign and monotonicity conditions checked by
    :meth:`validate`, which samples them at 401 points of [-10, 10];
    :func:`solve_parabolic` checks them again at that spacing on [-R, R]
    when the run reaches a state magnitude R above 10.  A
    flux law (boundary_reaction) must be nondecreasing everywhere, not
    only there, for the flux closure's bracket to hold the root.  The
    config-built laws are monotone; a law passed through the Python API
    is the caller's to check.

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
        self._check_maps()

    def _check_maps(self, reach=MAP_REACH):
        """The conditions on the maps, sampled on [-reach, reach] at a
        spacing of at most 0.05 (401 points on validate's [-10, 10]), in
        blocks of at most _MAP_BLOCK intervals that share their ends."""
        intervals = math.ceil(reach * (MAP_INTERVALS / MAP_REACH))
        blocks = -(-intervals // _MAP_BLOCK)
        edges = np.linspace(-reach, reach, blocks + 1)
        for lo, hi in zip(edges[:-1], edges[1:]):
            self._check_block(np.linspace(lo, hi, -(-intervals // blocks) + 1))

    def _check_block(self, v):
        phi = np.asarray(self.reaction(v), dtype=float)
        if np.any(phi * v < -_SIGN_TOL):
            raise ScenarioError("reaction must satisfy phi(v)*v >= 0")
        pos = v[v >= 0]
        if pos.size and np.any(np.asarray(self.reaction(-pos))
                               > -np.asarray(self.reaction(pos)) + _SIGN_TOL):
            raise ScenarioError("reaction must satisfy phi(-v) <= -phi(v) for v >= 0")
        # the secant over the float step taken, which far from 0 is not dv
        x = v + 1e-4
        slope = (np.asarray(self.reaction(x)) - phi) / (x - v)
        if np.any(slope < 1.0 - _SLOPE_TOL):
            raise ScenarioError("reaction slope must be at least one")
        bphi = np.asarray(self.boundary_reaction(v), dtype=float)
        if np.any(bphi * v < -_SIGN_TOL):
            raise ScenarioError("boundary reaction must satisfy varphi(v)*v >= 0")
        if pos.size and np.any(np.asarray(self.boundary_reaction(-pos))
                               > -np.asarray(self.boundary_reaction(pos)) + _SIGN_TOL):
            raise ScenarioError("boundary reaction must satisfy varphi(-v) <= -varphi(v)")
        # the flux closure's bracket rests on this
        if np.any(np.diff(bphi) < -_SIGN_TOL):
            raise ScenarioError("boundary reaction must be nondecreasing")


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

    The maps are checked again over [-R, R] when the run reaches a state
    magnitude R above the 10 that :meth:`ParabolicScenario.validate`
    covers.
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
    march(traj, cfg, (np.asarray(scn.w0(pts), dtype=float),), advance,
          step_dt=lambda dt_max: dt_max)
    traj.counters["band_factorizations"] = sum(band.factorizations for band in bands)
    reach = traj.counters["max_abs"]["u"]
    if reach > _MAP_REACH_MAX:
        raise ScenarioError(f"the maps are checked up to |u| = {_MAP_REACH_MAX:g}, "
                            f"but the run reached {reach:g}")
    if reach > MAP_REACH:
        try:
            scn._check_maps(reach)
        except ScenarioError as exc:
            raise ScenarioError(f"{exc} on [-{reach:g}, {reach:g}], "
                                "the range the run reached") from None
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
    diffusivity array of the key when it is read-only and owns its data."""

    key: tuple = None
    af: np.ndarray = None
    lu: list = None
    resp: dict = None
    factorizations: int = 0

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
        self.key, self.lu, self.resp = key, lu, {
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

    is strictly increasing in its end value b and is closed by bisection,
    :func:`_close`; a line with two flux ends runs two.  One line runs
    :func:`_close_line`, on Python floats from its factors to its end
    values; a larger stack runs :func:`_close_stack` in lockstep on arrays.
    Both take the same decisions, so a line gives the same bits alone or in
    a stack.
    """
    base, resp = _line_responses(band, w_old, h, dt, af, src, bc_lo, bc_hi)
    if not resp:
        return base
    close = _close_line if w_old.shape[0] == 1 else _close_stack
    ends = close(h, dt, w_old, src, base, resp, af, {"lo": bc_lo[1], "hi": bc_hi[1]},
                 varphi, bc_tol)
    # base is this call's own array, and the closure no longer reads it
    w = base
    for end, r in resp.items():
        w += ends[end] * r
    if bc_lo[0] == "dirichlet":
        w[:, 0] = bc_lo[1]
    if bc_hi[0] == "dirichlet":
        w[:, -1] = bc_hi[1]
    return w


def _end_factors(end, pick, h, w_old, src, base, resp, af, d2):
    """The factors of end's balance that stay fixed through its closures:
    w_i, src_i, base_k, c_d2, c_face and the responses r_lo and r_hi of
    the low and high flux ends at its inner neighbour (None for a
    Dirichlet end), read through pick(array, column) and the end's data d2."""
    m = w_old.shape[1]
    # node, inner neighbour and face of the end
    i, k, f = (0, 1, 0) if end == "lo" else (m - 1, m - 2, m - 2)
    r_lo, r_hi = (pick(resp[e], k) if e in resp else None for e in ("lo", "hi"))
    return (pick(w_old, i), pick(src, i), pick(base, k), (2.0 / h) * d2,
            (2.0 / h**2) * pick(af, f), r_lo, r_hi)


def _residual(end, dt, c_phi, law, w_i, src_i, base_k, c_d2, c_face, r_lo, r_hi):
    """The balance of end with factors :func:`_end_factors`, as a function
    of its value b and the other flux end's value, if any.  The inner
    node's value adds b's and the other value's response terms to base_k
    in the order lo, hi; the high end's keeps other*r_lo at other = 0.0,
    which sets the sign of a zero sum."""
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


def _close(bisect, clip, dt, c_phi, law, factors):
    """The values {end: b} of the flux ends with factors {end: factors}
    (:func:`_end_factors`), closed by bisect(residual, center) from each
    end's old value; clip(r, beta) is the layout's r/beta, clipped to the
    finite floats and of r's sign where beta = 0.

    With two flux ends, the high end's balance is affine in the low end's
    value x, R_hi(y; x) = R_hi(y; 0) - beta*x with beta >= 0 its cross
    factor (c_face times the low end's response r_k), so x(y) =
    R_hi(y; 0)/beta zeroes it.  F(y) = R_lo(x(y); y) is strictly
    increasing while rho = beta_lo*beta_hi/(s_lo*s_hi) < 1 (cross factors
    over own slopes), which the diffusion band guarantees.  One bisection
    of F gives y; x comes from the low end's own closure at y, not from
    x(y), which amplifies errors by s/beta.  The clip keeps F at +-inf,
    never NaN, where beta underflows.
    """
    res = {end: _residual(end, dt, c_phi, law, *fac) for end, fac in factors.items()}
    if len(res) == 1:
        ((end, residual),) = res.items()
        return {end: bisect(residual, factors[end][0])}
    lo, hi = res["lo"], res["hi"]
    w_hi, *_, c_face, r_lo, _ = factors["hi"]
    beta = c_face * r_lo
    y = bisect(lambda y: lo(clip(hi(y), beta), y), w_hi)
    return {"lo": bisect(lambda x: lo(x, y), factors["lo"][0]), "hi": y}


def _clip_scalar(r, beta):
    """r/beta as a Python float, clipped to the finite floats; of r's sign
    when beta = 0."""
    x = float(r) / beta if beta else math.copysign(_FLOAT_MAX, r)
    return min(max(x, -_FLOAT_MAX), _FLOAT_MAX)


def _clip_lockstep(r, beta):
    """:func:`_clip_scalar` on arrays."""
    x = np.where(beta == 0.0, np.copysign(_FLOAT_MAX, r), r / beta)
    return np.minimum(np.maximum(x, -_FLOAT_MAX), _FLOAT_MAX)


def _close_line(h, dt, w_old, src, base, resp, af, data, varphi, bc_tol):
    """The values {end: b} of one line's flux ends, as floats.

    The line's factors and its boundary data (a scalar or a size-1 array)
    are read as Python floats once, and the flux law sees floats.  Each
    closure is :func:`_bisect_scalar`, the bisection :func:`_close_stack`
    runs in lockstep, on the float layout.
    """
    factors = {end: _end_factors(end, np.ndarray.item, h, w_old, src, base, resp, af,
                                 _float(data[end])) for end in resp}
    return _close(lambda res, center: _bisect_scalar(res, center, bc_tol), _clip_scalar,
                  dt, 2.0 / h, varphi, factors)


def _float(value) -> float:
    """A boundary value as a Python float; a fixed value already is one."""
    return value if type(value) is float else np.asarray(value, dtype=float).item()


def _close_stack(h, dt, w_old, src, base, resp, af, data, varphi, bc_tol):
    """:func:`_close_line` for each line of a stack, in lockstep on arrays:
    the end values as (lines, 1) columns.  Each closure is
    :func:`_bisect_lockstep`, the bisection of :func:`_bisect_scalar` on
    arrays."""
    n_lines = w_old.shape[0]
    factors = {end: _end_factors(end, lambda a, j: a[:, j], h, w_old, src, base, resp, af,
                                 np.broadcast_to(data[end], n_lines)) for end in resp}
    # x(y) and the balances past it overflow where a cross factor underflows
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ends = _close(lambda res, center: _bisect_lockstep(res, center, bc_tol),
                      _clip_lockstep, dt, 2.0 / h, varphi, factors)
    return {end: b[:, None] for end, b in ends.items()}


def _expand_scalar(res, center, side):
    """Bracket end for the increasing scalar res: step outward from
    center, doubling the span, until res changes sign."""
    span = max(1.0, abs(center))
    for _ in range(80):
        x = center - span if side == "low" else center + span
        r = res(x)
        if (r <= 0.0) if side == "low" else (r >= 0.0):
            return x
        span *= 2.0
    raise RuntimeError(f"flux boundary bracket expansion failed ({side} side)")


def _bisect_scalar(res, center, bc_tol):
    """Root of the increasing scalar res, bisected down to bc_tol: the
    bracket from :func:`_expand_scalar`, then every midpoint evaluated,
    as :func:`_bisect_lockstep` does for each line of a stack."""
    lo = _expand_scalar(res, center, "low")
    hi = _expand_scalar(res, center, "high")
    while hi - lo > bc_tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            # adjacent floats wider apart than bc_tol
            break
        r = res(mid)
        if r == 0.0:
            # exact root (equilibria land here); keep it bitwise
            return mid
        if r <= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _expand_lockstep(res, center, side):
    """_expand_scalar, one entry per line: each line's bracket end, a line
    that has stopped keeping its point."""
    span = np.maximum(1.0, np.abs(center))
    x = center - span if side == "low" else center + span
    for _ in range(80):
        r = res(x)
        stop = (r <= 0.0) if side == "low" else (r >= 0.0)
        if stop.all():
            return x
        span *= 2.0  # only the spans of lines still growing are used
        x = np.where(stop, x, center - span if side == "low" else center + span)
    raise RuntimeError(f"flux boundary bracket expansion failed ({side} side)")


def _bisect_lockstep(res, center, bc_tol):
    """_bisect_scalar, one entry per line, on arrays.

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
