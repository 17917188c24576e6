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
The closure solves it: a linear law in closed form, a cubic one by
Newton's method from a closed-form start, each end stopping on a proven
bound on its error.  One line runs on Python floats, more in lockstep on
arrays, with the same bits.  :func:`solve_parabolic` supplies the step
of any dimension to the time loop all steppers share,
:func:`~isscert.solvers.common.march`.  It binds every field to its
points once per solve (:meth:`~isscert.signals.SpaceTimeField.bind`): a
on the faces, c and f on the nodes (a uniform one on one point), d1 and
d2 on the boundary points, so a step evaluates the fields' time signals
only, and reads a field of a constant signal once.  Each sweep's band
(:class:`_Band`) holds the facts fixed for a solve, the spacing h, the
end kinds, the flux law and bc_tol, and binds the sweep's whole step once
per operator: it factors the band (LAPACK gttrf), solves its flux ends'
unit responses, and binds (:func:`_bind`) one function that solves a
right-hand side (gttrs) and closes the flux ends with the constants and
closure form chosen once, from the layout, the number of flux ends and
the law's facts.  A step calls it once per sweep; only a new dt or
diffusivity (a shorter last step, a time-varying a) binds anew.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import Callable

import numpy as np

from ..fields import AXES, Trajectory, edge_names, grid_keys
from ..signals import SpaceTimeField
from .common import ScenarioError, SolverConfig, SolverDivergedError, march

__all__ = ["ParabolicScenario", "solve_parabolic"]


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
    """Reject a run whose diffusion coefficient (bound on the faces of each
    sweep) or reaction coefficient (bound on the nodes) drops below its floor;
    the infs are exact (``BoundField.range``), so with no slack."""
    for what, bound, name, floor in (("diffusion", a_faces, "a0", scn.a0),
                                     ("reaction", [c_nodes], "c0", scn.c0)):
        low = min(b.range(t_end)[0] for b in bound)
        if low < floor:
            raise ScenarioError(f"{what} coefficient drops below {name} = {floor:.15g} "
                                f"(down to {low:.15g})")


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
    # every field is bound to its points once: a step evaluates signals only,
    # and a uniform c or f is bound to one point, a float of the same bits
    pts = grid.points()
    c_n, f_n = (fld.bind(0.0 if fld.profile is None else pts) for fld in (scn.c, scn.f))
    _check_floors(scn, a_faces, c_n, cfg.t_end)
    # a constant c is negated (exactly) and a constant f read once, not every step
    minus_c, f_fixed = None if c_n.fixed is None else -c_n.fixed, f_n.fixed

    def advance(t, dt, state, step, clock):
        (w,) = state
        tn = clock(dt)
        src = ((-c_n(t) if minus_c is None else minus_c)
               * np.asarray(scn.reaction(w), dtype=float) + (f_n(t) if f_fixed is None else f_fixed))
        try:
            return dt, (implicit(w, src, dt, tn),)
        except (RuntimeError, np.linalg.LinAlgError) as exc:
            raise SolverDivergedError(step, tn, str(exc)) from exc

    traj = Trajectory("parabolic", grid, meta={
        **meta, "dt": cfg.dt, "t_end": cfg.t_end, "scenario": scn.label})
    # a diverging state overflows, and a law far out gives an infinite balance and
    # inf/inf a NaN step: the band's, the closure's and march's checks report them
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
    data.  A field of a constant signal is read once here, not every step.
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
        kinds, data = zip(*[("dirichlet", scn.d1.bind(p)) if edge in g1 else ("flux", scn.d2.bind(p))
                            for edge, p in ends])
        a_k = scn.a.bind(_points(faces))
        # the first sweep takes the step's source, the others a zero one
        band = _Band(grid.steps[k], kinds, scn.boundary_reaction, cfg.bc_tol)
        sweeps.append((order, sel, band, a_k, a_k.fixed,
                       *(v for d in data for v in (d, d.fixed)),
                       np.zeros((len(faces[0]), x.size)) if k else None, k == grid.dim - 1))
    # the nodes a sweep leaves out, on the other axes' Dirichlet faces, take the data
    d1_n = scn.d1.bind(grid.points()) if grid.dim > 1 and g1 else None
    d1_fixed = None if d1_n is None else d1_n.fixed

    def implicit(w, src, dt, tn):
        dvals = d1_fixed if d1_fixed is not None or d1_n is None else d1_n(tn)
        for order, sel, band, a_k, af, lo, lo_v, hi, hi_v, zero, last in sweeps:
            moved = w.transpose(order)[sel]
            stack = moved.reshape(-1, moved.shape[-1])
            lines = band.bind(dt, a_k(tn) if af is None else af)(
                stack, src.transpose(order)[sel].reshape(stack.shape) if zero is None else zero,
                lo(tn) if lo_v is None else lo_v, hi(tn) if hi_v is None else hi_v)
            if dvals is None and last:  # every node, in C order: no copy
                w = lines.reshape(grid.shape)
            else:
                w = np.empty(grid.shape) if dvals is None else dvals.copy()
                w.transpose(order)[sel] = lines.reshape(moved.shape)
        return w

    meta = {"scheme": ("dimension-split " if grid.dim > 1 else "")
            + "semi-implicit diffusion, explicit reaction",
            "dim": grid.dim, **dict(zip(grid_keys(grid.dim), grid.cells))}
    return [sweep[3] for sweep in sweeps], [sweep[2] for sweep in sweeps], meta, implicit


def _points(coords):
    """Points as fields bind them: one array on the interval, else a tuple."""
    return coords[0] if len(coords) == 1 else tuple(coords)


@dataclass
class _Band:
    """One sweep's band: its spacing h, end kinds, flux law and tol, fixed for
    a solve, and the memo of its bound step.  key is the (dt, bits of the
    face diffusivities, always of the sweep's shape) it was last factored
    under, and af that array when it is read-only and owns its data, so a
    step of a fixed a compares a dt and an identity.  lu holds gttrf's
    factors, resp the flux ends' read-only unit responses, solve the band's
    solve and step its step; then the sweep's factorisations, closures, law
    calls and largest error bound."""

    h: float
    kinds: tuple
    law: Callable
    tol: float
    key: tuple = None
    af: np.ndarray = None
    lu: list = None
    resp: dict = None
    solve: Callable = None
    step: Callable = None
    factorizations: int = 0
    closures: int = 0
    law_calls: int = 0
    closure_error: float = 0.0

    def bind(self, dt, af):
        """The step of the band of faces af at dt, step(w_old, src, lo, hi)
        (:func:`_bind`): factored and bound anew only where dt or the bits of
        af changed."""
        if af is not self.af or dt != self.key[0]:
            key = (dt, af.tobytes())
            if key != self.key:
                self.factor(key, af)
            self.af = None if af.flags.writeable or not af.flags.owndata else af
        return self.step

    def factor(self, key, af):
        """Factor the band at key's dt on the faces af, solve its flux ends'
        unit responses and bind its step."""
        (dt, _), h, kinds = key, self.h, self.kinds
        n_lines, m = af.shape[0], af.shape[1] + 1
        lam = dt / h**2
        ab = np.zeros((3, n_lines, m))
        ab[1] = 1.0
        ab[1, :, 1:m - 1] = 1.0 + lam * (af[:, 1:] + af[:, :-1])
        ab[0, :, 2:] = -lam * af[:, 1:]
        ab[2, :, :m - 2] = -lam * af[:, :-1]
        if not np.isfinite(ab).all():
            raise RuntimeError("non-finite diffusion band")
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
        resp = {end: x[j] for j, end in enumerate(("lo", "hi")) if kinds[j] == "flux"}
        lay = _Floats if n_lines == 1 else _Lockstep(n_lines)
        set_lo, set_hi = (kind == "dirichlet" for kind in kinds)
        dt_, (dl, d, du, du2, ipiv) = _constant(dt), lu

        def solve(w_old, src, lo, hi):
            """The stack's solution from w_old + dt*src, each Dirichlet end at
            its value lo or hi and each flux end held at zero.  A non-finite
            right-hand side raises RuntimeError: a step's one check of its input."""
            # w_old + dt*src in two passes, end columns set after
            rhs = src * dt_
            rhs += w_old
            rhs[:, 0] = lo if set_lo else 0.0
            rhs[:, m - 1] = hi if set_hi else 0.0
            flat = rhs.ravel()
            if not _all(np.isfinite(flat)):
                raise RuntimeError("non-finite explicit source or boundary data")
            return gttrs(dl, d, du, du2, ipiv, flat)[0].reshape(n_lines, m)

        self.key, self.lu, self.resp, self.solve = key, lu, resp, solve
        # each flux end's (2/h^2) a on its face and the responses at its inner node
        faces = {end: ((2.0 / h**2) * lay.pick(af, 0 if end == "lo" else m - 2),
                       *(lay.pick(resp[e], 1 if end == "lo" else m - 2) if e in resp else None
                         for e in ("lo", "hi"))) for end in resp}
        self.factorizations += 1
        self.step = _bind(self, dt, lay, faces)


def _bind(band, dt, lay, faces):
    """band's step at dt on the layout lay, under its flux law (facts slope
    and gamma) and tol, each flux end's (c_face, r_lo, r_hi) in faces:
    step(w_old, src, lo, hi) solves the stack w_old, (lines, m), with the
    explicit source src and the end data lo and hi (a value per line, or
    one for all), closes its flux ends and returns the new (lines, m) state.

    A flux end's balance (:func:`_balance`)

        (b - w)/dt + (2/h) varphi(b) - (2/h) d2 + (2/h^2) a (b - inner) - src

    is R(b) = m*b + k*b^3 - C - beta*y, y the other flux end's value: m =
    1/dt + c_face*(1 - r_own) + c_phi*slope > 0, k = c_phi*gamma >= 0, beta
    = c_face*r_other >= 0 and C = -R(0).  L = [[m_lo, -beta_lo], [-beta_hi,
    m_hi]] is an M-matrix (beta + 1/dt <= m), and R(z) - R(z*) = (L + D)(z -
    z*), D diagonal and D >= 3/4 k diag(z^2), so |z - z*| <= (L + 3/4 k
    diag(z^2))^-1 |R(z)| (|R(b)|/(m + 3/4 k b^2) for one end): a line stops
    where that is at most tol.  The closure's form is chosen here, once: a
    linear law closes as C/m or L^-1 C (:func:`_close_one`,
    :func:`_close_two`), a cubic one by Newton, and the layout is one line
    on Python floats or more in lockstep on arrays, with the same bits.
    band counts the closures (a flux end of a line each), law calls and the
    largest error bound at exit.
    """
    solve, resp, law, tol = band.solve, band.resp, band.law, band.tol
    if not resp:
        return solve
    lines, m = next(iter(resp.values())).shape
    pick, data, col, d_phi = lay.pick, lay.data, lay.col, 2.0 / band.h
    dt, c_phi = lay.scalar(dt), lay.scalar(d_phi)
    if len(resp) == 2:
        close, r_lo, r_hi = _close_two(lay, dt, c_phi, law, tol, faces), resp["lo"], resp["hi"]

        def step(w_old, src, lo, hi):
            base = solve(w_old, src, lo, hi)
            x, y, err, calls = close(
                pick(w_old, 0), pick(src, 0), pick(base, 1), d_phi * data(lo, lines),
                pick(w_old, m - 1), pick(src, m - 1), pick(base, m - 2), d_phi * data(hi, lines))
            band.closures += 2 * lines
            band.law_calls += calls
            band.closure_error = max(band.closure_error, err)
            # base is this step's own array, and the closure no longer reads it
            base += col(x) * r_lo
            base += col(y) * r_hi
            return base
        return step
    ((end, r),) = resp.items()
    close, flux_lo = _close_one(lay, dt, c_phi, law, tol, end, *faces[end]), end == "lo"
    i, j = (0, 1) if flux_lo else (m - 1, m - 2)

    def step(w_old, src, lo, hi):
        base = solve(w_old, src, lo, hi)
        b, err, calls = close(pick(w_old, i), pick(src, i), pick(base, j),
                              d_phi * data(lo if flux_lo else hi, lines))
        band.closures += lines
        band.law_calls += calls
        band.closure_error = max(band.closure_error, err)
        base += col(b) * r
        if flux_lo:
            base[:, -1] = hi
        else:
            base[:, 0] = lo
        return base
    return step


def _balance(end, dt, c_phi, law, c_face, r_lo, r_hi):
    """The balance of end (:func:`_bind`) with face constants c_face, r_lo and
    r_hi (None at a Dirichlet end), as a function balance(b, other, w_i,
    src_i, base_k, c_d2) of its value b, the other flux end's value, if any,
    and its state: its old and source values at its node, the base solution
    at its inner neighbour and (2/h) d2.  The inner node's value adds b's
    and the other value's response terms to base_k in the order lo, hi; the
    high end's keeps other*r_lo at other = 0.0, which sets the sign of a
    zero sum."""
    if r_lo is None or r_hi is None:
        r_k = r_hi if r_lo is None else r_lo

        def balance(b, other, w_i, src_i, base_k, c_d2):
            return ((b - w_i) / dt + c_phi * law(b) - c_d2
                    + c_face * (b - (base_k + b * r_k)) - src_i)
    elif end == "lo":
        def balance(b, other, w_i, src_i, base_k, c_d2):
            return ((b - w_i) / dt + c_phi * law(b) - c_d2
                    + c_face * (b - (base_k + b * r_lo + other * r_hi)) - src_i)
    else:
        def balance(b, other, w_i, src_i, base_k, c_d2):
            return ((b - w_i) / dt + c_phi * law(b) - c_d2
                    + c_face * (b - (base_k + other * r_lo + b * r_hi)) - src_i)
    return balance


def _terms(dt, c_phi, law, end, c_face, r_lo, r_hi):
    """end's balance (:func:`_balance`), its m, beta and k (:func:`_bind`)
    and its Newton terms (:func:`_newton`): terms(b, other, w_i, src_i,
    base_k, c_d2, n0) is the balance at b, its slope m + 3k b^2, the floor
    m + 3/4 k b^2 of its secant slopes from b, and nu, 16 units of roundoff
    of its terms at b and other, n0 being the state's part (:func:`_rounding`)."""
    balance = _balance(end, dt, c_phi, law, c_face, r_lo, r_hi)
    own, other = (r_lo, r_hi) if end == "lo" else (r_hi, r_lo)
    m = 1.0 / dt + c_face * (1.0 - own) + c_phi * law.slope
    beta, k = 0.0 if other is None else abs(c_face * other), c_phi * law.gamma
    n1, n2, n3 = (_ROUNDING * v for v in (
        1.0 / dt + c_phi * law.slope + c_face * (1.0 + abs(own)), k, beta))

    def terms(b, other, w_i, src_i, base_k, c_d2, n0):
        bb = b * b
        return (balance(b, other, w_i, src_i, base_k, c_d2), m + k * (3.0 * bb),
                m + k * (0.75 * bb), n0 + abs(b) * (n1 + n2 * bb) + n3 * abs(other))
    return balance, m, beta, k, terms


def _rounding(dt, c_face, w_i, src_i, base_k, c_d2):
    """nu's state part: 16 units of roundoff of the state terms of a balance."""
    return _ROUNDING * (abs(w_i) / dt + abs(c_d2) + c_face * abs(base_k) + abs(src_i))


def _at_zero(lay, balance, w_i, src_i, base_k, c_d2):
    """C = -R(0) of an end's balance and state; a non-finite C raises RuntimeError."""
    c = 0.0 - balance(lay.zero, lay.zero, w_i, src_i, base_k, c_d2)
    if not lay.all_finite(c):
        raise RuntimeError(_NONFINITE_BALANCE)
    return c


def _close_one(lay, dt, c_phi, law, tol, end, c_face, r_lo, r_hi):
    """The closure of one flux end on lay: close(w_i, src_i, base_k, c_d2) is
    the end's value, its error bound and the law's calls.  A linear law
    closes as C/m, a cubic one by Newton from above |b*| on R's convex side
    (:func:`_one_end`)."""
    balance, m, _, k, terms = _terms(dt, c_phi, law, end, c_face, r_lo, r_hi)
    if not law.gamma:
        def close(w_i, src_i, base_k, c_d2):
            return _at_zero(lay, balance, w_i, src_i, base_k, c_d2) / m, 0.0, lay.lines
        return close

    def close(w_i, src_i, base_k, c_d2):
        c = _at_zero(lay, balance, w_i, src_i, base_k, c_d2)
        n0 = _rounding(dt, c_face, w_i, src_i, base_k, c_d2)
        b, err, calls = _one_end(lay, terms, (0.0, w_i, src_i, base_k, c_d2, n0), m, k, c, tol)
        return b, lay.top(err), calls + lay.lines
    return close


def _close_two(lay, dt, c_phi, law, tol, faces):
    """The closure of two flux ends on lay: close(w_lo, src_lo, base_lo,
    d_lo, w_hi, src_hi, base_hi, d_hi), each end's state (:func:`_balance`),
    is the ends' values x and y, the error bound and the law's calls.  A
    linear law closes as L^-1 C; a cubic one runs Newton from L^-1 C clipped
    to each end's cube-root bound, and past _NEWTON_ROUNDS rounds or a
    non-finite point by :func:`_nested`.  A line also stops where its point
    would not move, or where each |R| is within nu (:func:`_terms`), which
    bounds the rounding of the computed balance and adds nu/m to the bound.
    A NaN balance raises RuntimeError."""
    (cf_lo, *_), (cf_hi, *_) = faces["lo"], faces["hi"]
    (bal_lo, m_lo, b_lo, k, terms_lo), (bal_hi, m_hi, b_hi, _, terms_hi) = (
        _terms(dt, c_phi, law, end, *faces[end]) for end in ("lo", "hi"))
    b_2, det, lines = b_lo * b_hi, m_lo * m_hi - b_lo * b_hi, lay.lines
    any_, finite, maximum, keep = lay.any, lay.finite, lay.maximum, lay.keep

    def linear(w_lo, s_lo, k_lo, d_lo, w_hi, s_hi, k_hi, d_hi):
        c_lo = _at_zero(lay, bal_lo, w_lo, s_lo, k_lo, d_lo)
        c_hi = _at_zero(lay, bal_hi, w_hi, s_hi, k_hi, d_hi)
        return (m_hi * c_lo + b_lo * c_hi) / det, (m_lo * c_hi + b_hi * c_lo) / det, c_lo, c_hi

    if not law.gamma:
        def close(w_lo, s_lo, k_lo, d_lo, w_hi, s_hi, k_hi, d_hi):
            return (*linear(w_lo, s_lo, k_lo, d_lo, w_hi, s_hi, k_hi, d_hi)[:2], 0.0, 2 * lines)
        return close

    def close(w_lo, s_lo, k_lo, d_lo, w_hi, s_hi, k_hi, d_hi):
        x, y, c_lo, c_hi = linear(w_lo, s_lo, k_lo, d_lo, w_hi, s_hi, k_hi, d_hi)
        n0_lo = _rounding(dt, cf_lo, w_lo, s_lo, k_lo, d_lo)
        n0_hi = _rounding(dt, cf_hi, w_hi, s_hi, k_hi, d_hi)
        # |z*| <= B = L^-1 |C|, so k*|x*|^3 <= |C_lo| + beta_lo*B_y = m_lo*B_x
        a_lo, a_hi = abs(c_lo), abs(c_hi)
        t_x = lay.cbrt_above(m_lo * ((m_hi * a_lo + b_lo * a_hi) / det) / k)
        t_y = lay.cbrt_above(m_hi * ((b_hi * a_lo + m_lo * a_hi) / det) / k)
        x, y = lay.minimum(lay.maximum(x, -t_x), t_x), lay.minimum(lay.maximum(y, -t_y), t_y)
        # each round from the last point; a stopped line keeps its point and repeats its round
        y0, live, rounds = y, True, 0
        while True:
            r_lo, j_lo, q_lo, nu_lo = terms_lo(x, y, w_lo, s_lo, k_lo, d_lo, n0_lo)
            r_hi, j_hi, q_hi, nu_hi = terms_hi(y, x, w_hi, s_hi, k_hi, d_hi, n0_hi)
            if any_((r_lo != r_lo) | (r_hi != r_hi)):
                raise RuntimeError(_NONFINITE_BALANCE)
            a_lo, a_hi, q = abs(r_lo), abs(r_hi), q_lo * q_hi - b_2
            err = maximum((q_hi * a_lo + b_lo * a_hi) / q, (b_hi * a_lo + q_lo * a_hi) / q)
            # the Newton step, by the Jacobian L + 3k diag(z^2)
            j = j_lo * j_hi - b_2
            nx, ny = x - (j_hi * r_lo + b_lo * r_hi) / j, y - (b_hi * r_lo + j_lo * r_hi) / j
            need = (err > tol) & ((nx != x) | (ny != y)) & ((a_lo > nu_lo) | (a_hi > nu_hi))
            rounds += 1
            live = live & need & finite(nx) & finite(ny)
            if not any_(live) or rounds == _NEWTON_ROUNDS:
                break
            x, y = keep((x, y), (nx, ny), live)
        calls = 2 * (rounds + 1) * lines
        if lines == 1:
            if need:
                x, y, err, more = _nested(
                    (terms_lo, (w_lo, s_lo, k_lo, d_lo, n0_lo)),
                    (terms_hi, (w_hi, s_hi, k_hi, d_hi, n0_hi)),
                    m_lo, m_hi, b_lo, b_hi, k, c_lo, c_hi, det, y0, tol)
                calls += more
            return x, y, err, calls
        # such a line closes on floats from its start: the same rounds, then _nested
        for j in np.flatnonzero(need):
            line = _close_two(_Floats, dt.item(), c_phi.item(), law, tol, {
                end: tuple(None if f is None else f[j].item() for f in face)
                for end, face in faces.items()})
            x[j], y[j], err[j], more = line(*(v[j].item() for v in (
                w_lo, s_lo, k_lo, d_lo, w_hi, s_hi, k_hi, d_hi)))
            calls += more
        return x, y, lay.top(err), calls
    return close


_NEWTON_ROUNDS = 24
# ndarray.all's reduction without its Python-level wrapper, for a step's check
_all = np.logical_and.reduce
_NONFINITE_BALANCE = "non-finite flux boundary balance"
_ROUNDING = 2.0**-49


def _newton(lay, terms, args, b, lo, hi, tol):
    """Newton on an increasing function from b, in the bracket lo, hi of its
    root: terms(b, *args) is its value r at b, which moves b's side of the
    bracket by its sign, its slope, least, a floor of its secant slopes from
    b, and nu, a bound on the rounding of r.  A point not inside the bracket
    is its midpoint.  The bound is |r|/least; a line stops where that is at
    most tol, where |r| <= nu, where it would not move or at adjacent
    floats, and a stopped line keeps its point and repeats its round.  Each
    line's last point and bound, and the rounds; a NaN value raises
    RuntimeError."""
    live, rounds = True, 0
    while True:
        r, slope, least, nu = terms(b, *args)
        if lay.any(r != r):
            raise RuntimeError(_NONFINITE_BALANCE)
        err = abs(r) / least
        lo, hi = lay.where(r < 0.0, b, lo), lay.where(r > 0.0, b, hi)
        step = b - r / slope
        nxt = lay.where((lo < step) & (step < hi), step, 0.5 * (lo + hi))
        go = (err > tol) & (abs(r) > nu) & (step != b) & (lo < nxt) & (nxt < hi)
        rounds += 1
        live = live & go
        if not lay.any(live):
            return b, err, rounds
        (b,) = lay.keep((b,), (nxt,), live)


def _one_end(lay, terms, args, m, k, c, tol):
    """The root of m*b + k*b^3 - c, k > 0, whose Newton terms are
    terms(b, *args) (:func:`_newton`), its bound and the law's calls: Newton
    from sign(c)*min(|c|/m, cbrt(|c|/k)), bracketed by 0 and twice that."""
    start = lay.copysign(lay.minimum(abs(c) / m, lay.cbrt_above(abs(c) / k)), c)
    b, err, rounds = _newton(lay, terms, args, start, lay.minimum(start + start, 0.0),
                             lay.maximum(start + start, 0.0), tol)
    return b, err, rounds * lay.lines


def _nested(lo, hi, m_lo, m_hi, b_lo, b_hi, k, c_lo, c_hi, det, y, tol):
    """x, y, the error bound and the law's calls of two flux ends on floats,
    lo and hi each end's Newton terms (:func:`_terms`) and state: Newton on
    G(y) = R_hi(y; x(y)) from y in |y| <= 2*(m_lo*|C_hi| +
    beta_hi*|C_lo|)/det, x(y) the low end's own closure (bound e_x).
    G' >= det/m_lo, so |y - y*| <= e_y = (|G| + beta_hi*e_x)*m_lo/det and
    |x - x*| <= e_x + (beta_lo/m_lo)*e_y."""
    (terms_lo, state_lo), (terms_hi, state_hi) = lo, hi
    least, reach = det / m_lo, 2.0 * (m_lo * abs(c_hi) + b_hi * abs(c_lo)) / det
    at = {"calls": 0}

    def g(y):
        x, e_x, calls = _one_end(_Floats, terms_lo, (y, *state_lo), m_lo, k,
                                 0.0 - terms_lo(0.0, y, *state_lo)[0], 0.0)
        r, slope, _, nu = terms_hi(y, x, *state_hi)
        at.update(x=x, e_x=e_x, calls=at["calls"] + calls + 2)
        return r, slope - b_hi * b_lo / (m_lo + k * (3.0 * (x * x))), least, nu

    y, e_g, _ = _newton(_Floats, g, (), y, -reach, reach, 0.5 * tol)
    e_y = e_g + b_hi * at["e_x"] / least
    return at["x"], y, max(e_y, at["e_x"] + b_lo / m_lo * e_y), at["calls"]


def _cbrt_above(x, t):
    """Two Newton steps on t^3 = x from t = 2^ceil(e/3) <= 2 cbrt(x), x =
    f*2^e, 1/2 <= f < 1: means of t, t and x/t^2, so at least cbrt(x)."""
    for _ in range(2):
        t = (t + t + x / (t * t)) / 3.0
    return t


def cbrt_above(x):
    """:func:`_cbrt_above` of an array x >= 0, inf at inf; also the truncation level's."""
    return np.where(np.isinf(x), x, _cbrt_above(x, np.ldexp(1.0, -(-np.frexp(x)[1] // 3))))


class _Floats:
    """The float layout: one line on Python floats, whose stops are exits."""

    lines, zero, where = 1, 0.0, staticmethod(lambda cond, a, b: a if cond else b)
    any = staticmethod(bool)
    finite = all_finite = staticmethod(math.isfinite)
    copysign, minimum, maximum = map(staticmethod, (math.copysign, min, max))
    cbrt_above = staticmethod(lambda x: x if x == math.inf else _cbrt_above(
        x, math.ldexp(1.0, -(-math.frexp(x)[1] // 3))))
    keep = staticmethod(lambda z, new, live: new if live else z)
    scalar = col = top = staticmethod(lambda x: x)
    pick = staticmethod(np.ndarray.item)
    data = staticmethod(lambda d, n: d if type(d) is float else np.asarray(d, dtype=float).item())


class _Lockstep:
    """A stack of lines on arrays, one entry per line, branches as masks."""

    where, any, finite, copysign, minimum, maximum = map(staticmethod, (
        np.where, np.any, np.isfinite, np.copysign, np.minimum, np.maximum))
    all_finite = staticmethod(lambda c: np.isfinite(c).all())
    cbrt_above = staticmethod(cbrt_above)
    scalar, pick, data = map(staticmethod, (_constant, lambda a, j: a[:, j], np.broadcast_to))
    col, top = staticmethod(lambda b: b[:, None]), staticmethod(lambda e: float(np.max(e)))

    def __init__(self, lines):
        self.lines, self.zero = lines, np.zeros(lines)

    @staticmethod
    def keep(z, new, live):
        for old, value in zip(z, new):
            np.copyto(old, value, where=live)
        return z
