"""Truncation-energy functionals along trajectories.

For each model class the certified functional is a sum of exponentially
weighted truncation energies of the shifted state,

    E(v) = integral of exp(sign * r * y) * G(v(y) - level) dy,

summed over the sign pattern the class calls for.  The truncation level
is derived from the disturbances alone, through one path: their exact
running sups (:func:`running_sups`), through each map's inverse from its
facts, rounded up (:func:`invert_monotone`).  So the functional vanishes
when the state is trapped inside the disturbance band, and along solutions it
obeys a linear decay inequality whose residual this module measures
stamp by stamp.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .fields import Trajectory, edge_names, integrate, lq_norm, write_table
from .signals import sup_field, sup_window
from .solvers.common import ScenarioError
from .trunc import TruncationPair, gronwall_envelope_at

__all__ = [
    "ParamError",
    "GlfSpec",
    "GlfSeries",
    "weighted_energy",
    "components",
    "series",
    "dissipation_report",
    "invert_monotone",
    "running_sups",
    "truncation_level_parabolic",
    "default_transport_rate",
    "local_speed_floor",
    "glf_for_parabolic",
    "glf_for_transport",
    "glf_for_wave",
    "dissipation_rate",
    "wave_forcing_slack",
]


class ParamError(ValueError):
    """A parameter outside its formula's range; key names it, None when no
    single one is at fault."""

    def __init__(self, key, message):
        super().__init__(message)
        self.key = key


@dataclass(frozen=True)
class GlfSpec:
    """Shape of the functional: class, exponent, weight rate, level, split.

    r is the exponential weight rate (zero for the parabolic class), and
    eps the Young split used by the wave dissipation inequality.  Use the
    ``glf_for_*`` builders to derive admissible values from a scenario
    instead of filling these by hand.
    """

    pde_class: str
    p: float
    r: float = 0.0
    level: float = 0.0
    eps: Optional[float] = None

    def __post_init__(self):
        if self.pde_class not in ("parabolic", "transport", "wave"):
            raise ValueError(f"unknown pde class {self.pde_class!r}")
        if not self.p > 1.0:
            raise ParamError("p", "exponent p must exceed 1")
        if not self.r >= 0.0:
            raise ParamError("r", "weight rate r must be nonnegative")
        if self.level < 0.0:
            raise ValueError("truncation level must be nonnegative")
        if self.eps is not None and not self.eps > 0.0:
            raise ParamError("eps", "eps must be positive when given")

    @property
    def pair(self) -> TruncationPair:
        return TruncationPair(self.p)


def weighted_energy(values, grid, pair, rate=0.0, weight_sign=0, shift_sign=1,
                    level=0.0):
    """integral of exp(weight_sign * rate * y) * G(shift_sign * v - level).

    Node layouts integrate by composite trapezoid, cell layouts by
    midpoint; on more than one axis only the unweighted case is defined.
    A stack of states gives one energy each, bitwise equal to the
    single-state call.
    """
    values = np.asarray(values, dtype=float)
    if weight_sign not in (-1, 0, 1):
        raise ValueError("weight_sign must be -1, 0, or 1")
    if shift_sign not in (-1, 1):
        raise ValueError("shift_sign must be -1 or 1")
    if level < 0:
        raise ValueError("level must be nonnegative")
    integrand = pair.G(shift_sign * values - level)
    if weight_sign != 0:
        if grid.dim > 1:
            raise ValueError("exponential weights are one-dimensional")
        integrand = np.exp(weight_sign * rate * grid.points()) * integrand
    return integrate(integrand, grid)


def components(state: dict, grid, spec: GlfSpec) -> dict:
    """Each energy term of the functional for one state snapshot."""
    pair = spec.pair
    if spec.pde_class in ("parabolic", "transport"):
        wsign = -1 if spec.pde_class == "transport" else 0
        u = state["u"]
        return {
            "pos": weighted_energy(u, grid, pair, spec.r, wsign, 1, spec.level),
            "neg": weighted_energy(u, grid, pair, spec.r, wsign, -1, spec.level),
        }
    plus, minus = state["plus"], state["minus"]
    return {
        "plus_pos": weighted_energy(plus, grid, pair, spec.r, 1, 1, spec.level),
        "plus_neg": weighted_energy(plus, grid, pair, spec.r, 1, -1, spec.level),
        "minus_pos": weighted_energy(minus, grid, pair, spec.r, -1, 1, spec.level),
        "minus_neg": weighted_energy(minus, grid, pair, spec.r, -1, -1, spec.level),
    }


def series(traj: Trajectory, spec: GlfSpec):
    """Functional values and component arrays, evaluated block by block."""
    comps = traj.blockwise(lambda _, states: components(states, traj.grid, spec))
    return sum(comps.values()), comps


@dataclass
class GlfSeries:
    """Functional history with dissipation residuals and Gronwall envelope.

    residuals[i] is the forward-difference slack of the decay inequality
    on the interval (t_i, t_{i+1}); there is one fewer residual than
    stamps.  envelope carries the comparison trajectory from the same
    decay rate and slack series.
    """

    times: np.ndarray
    vhat: np.ndarray
    residuals: np.ndarray
    envelope: np.ndarray
    decay_rate: float

    @property
    def max_residual(self) -> float:
        return float(np.max(self.residuals)) if self.residuals.size else -math.inf

    def to_csv(self, path):
        res = np.append(self.residuals, math.nan)
        return write_table(path, "t,Vhat,residual,envelope",
                           (self.times, self.vhat, res, self.envelope), "")


def dissipation_report(traj: Trajectory, spec: GlfSpec, decay_rate: float,
                       slack=None) -> GlfSeries:
    """Measure the decay inequality  dV/dt <= -decay_rate * V + slack.

    slack is an optional per-stamp array (defaults to zero).  Residuals
    use the forward difference on each recorded interval; the envelope is
    the Gronwall comparison curve started at the first stamp.  A series
    that leaves the floats is a ValueError.
    """
    times = traj.times
    vhat, _ = series(traj, spec)
    slack_arr = np.zeros_like(vhat) if slack is None else np.asarray(slack, dtype=float)
    if slack_arr.shape != vhat.shape:
        raise ValueError("slack must align with the trajectory stamps")
    residuals = ((vhat[1:] - vhat[:-1]) / np.diff(times) + decay_rate * vhat[:-1]
                 - slack_arr[:-1])
    for name, values in (("Vhat", vhat), ("slack", slack_arr), ("residual", residuals)):
        if not np.isfinite(values).all():
            raise ValueError(f"the {name} series leaves the floats at p = {spec.p:g}, "
                             f"weight rate {spec.r:g}, decay rate {decay_rate:g}")
    envelope = gronwall_envelope_at(times, decay_rate, slack_arr, vhat[0])
    return GlfSeries(times=times, vhat=vhat, residuals=residuals, envelope=envelope,
                     decay_rate=decay_rate)


# ---------------------------------------------------------------------------
# truncation levels


def _edge_nodes(grid, edges):
    """The grid's own nodes on the named boundary edges, as points() gives them:
    edge 2k + high of :func:`edge_names` is the low (0) or high (1) face of axis k."""
    pts = grid.points()
    faces = [divmod(edge_names(grid.dim).index(e), 2) for e in sorted(edges)]
    cut = [np.concatenate([np.ravel(np.take(c, -high, axis=k)) for k, high in faces])
           for c in (pts if grid.dim > 1 else [pts])]
    return cut[0] if grid.dim == 1 else tuple(cut)


def running_sups(scn, grid, times) -> dict:
    """Running sup over (0, t_i) of every disturbance of scn, at each stamp.

    Keys: "d", the boundary signal of transport and wave scenarios; "f",
    forcing over the grid's nodes; for parabolic scenarios also "d1" and
    "d2" over the grid's own nodes on gamma1 and gamma2 (zero on an empty
    part) and "f_l2", the forcing's spatial 2-norm.  Space parts use the
    points where the solvers evaluate the data and time parts are exact
    (:func:`sup_field`, :func:`sup_window`), so each array is nondecreasing.
    """
    times = np.asarray(times, dtype=float)
    sups = {}
    if hasattr(scn, "d"):
        sups["d"] = sup_window(scn.d, times)
    if hasattr(scn, "f"):
        sups["f"] = sup_field(scn.f, grid.points(), times)
    if hasattr(scn, "d1"):
        for name, edges in (("d1", scn.gamma1), ("d2", scn.gamma2)):
            sups[name] = (sup_field(getattr(scn, name), _edge_nodes(grid, edges), times)
                          if edges else np.zeros_like(times))
        # |f(., s)|_2 is |s| for a uniform field on the unit domain; a
        # profiled one scales its profile's discrete 2-norm
        sups["f_l2"] = sups["f"]
        if scn.f.profile is not None:
            l2 = lq_norm(np.asarray(scn.f.profile(grid.points()), dtype=float), 2.0, grid)
            sups["f_l2"] = l2 * sup_window(scn.f.signal, times)
    return sups


def truncation_level_parabolic(scn, sups) -> np.ndarray:
    """Disturbance level phi^{-1}(sup|f|/c0) + sup|d1| + varphi^{-1}(sup|d2|).

    ``sups`` are the running sups of :func:`running_sups`; each inverse takes
    every stamp's target in one call of :func:`invert_monotone`, rounded up,
    and the three parts are summed in floats.  Requires a strictly positive
    reaction floor; the classical heat baseline (c0 = 0) has no truncation
    level and must be certified by its own quadratic estimate instead.
    """
    if not scn.c0 > 0:
        raise ScenarioError("truncation level needs a positive reaction floor c0")
    return (invert_monotone(scn.reaction, sups["f"] / scn.c0) + sups["d1"]
            + invert_monotone(scn.boundary_reaction, sups["d2"]))


def invert_monotone(law, ys):
    """x >= 0 with slope*x + gamma*x**3 >= y exactly, a few floats above the
    root, for each target y >= 0 of ys (array or scalar), by the law's facts.
    gamma = 0: y/slope, one float up unless slope*x, rounded once, is above y,
    or is y under a power-of-two slope (an exact quotient: the identity's).
    gamma > 0: Newton from min(y/slope, cbrt(y/gamma)), both above the root,
    while a step decreases x (the convex side); then x steps up 1, 2, 4, ...
    floats until a lower bound of f(x) reaches y: its four operations on
    nonnegative terms each step to the next float below, losing at most 3u of
    f(x) each, u = 2**-53 (in subnormals, one smallest float).  Where no float
    reaches y (a zero law, a level past the floats) it is a ValueError.
    """
    slope, gamma, y = float(law.slope), float(law.gamma), np.asarray(ys, dtype=float)
    if not (y >= 0.0).all():
        raise ValueError("targets must be nonnegative")
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        x = y / slope if slope else np.where(y > 0.0, np.inf, 0.0)
        if not gamma:
            p, exact = slope * x, math.frexp(slope)[0] == 0.5
            x = np.where((p > y) | (p == y) & (exact | (y == 0.0)), x, np.nextafter(x, np.inf))
        else:
            from .solvers.parabolic import cbrt_above
            x = np.minimum(x, cbrt_above(y / gamma))
            while ((step := x - (x * (slope + gamma * (x * x)) - y)
                    / (slope + 3.0 * gamma * (x * x))) < x).any():
                x = np.fmin(step, x)
            below = lambda z: np.maximum(np.nextafter(z, -np.inf), 0.0)  # noqa: E731
            up = np.spacing(x)
            while (short := below(x * below(slope + below(gamma * below(x * x)))) < y).any():
                x, up = np.where(short, x + up, x), up + up
    if not np.isfinite(x).all():
        raise ValueError(f"no float x has {slope:g}*x + {gamma:g}*x**3 >= {y.max():g}")
    return x if np.ndim(ys) else float(x)


# ---------------------------------------------------------------------------
# admissible weight rates and spec builders


def default_transport_rate(p: float, k: float) -> float:
    """Largest admissible weight rate (p+1) * ln(1/|k|)."""
    if k == 0:
        raise ValueError("recirculation gain zero leaves the rate unconstrained")
    return (p + 1.0) * math.log(1.0 / abs(k))


def _end_sups(scn, traj) -> dict:
    """The running sups at traj's last stamp; zero when traj is None."""
    if traj is None:
        return defaultdict(lambda: np.zeros(1))
    return running_sups(scn, traj.grid, traj.times[-1:])


# the builders read the level at the run's last stamp, where its checks end,
# and at zero level for traj None, which refuses before any run what they
# refuse after it

def glf_for_parabolic(scn, traj: Optional[Trajectory], p: float) -> GlfSpec:
    return GlfSpec("parabolic", p, 0.0,
                   float(truncation_level_parabolic(scn, _end_sups(scn, traj))[-1]))


def glf_for_transport(scn, traj: Optional[Trajectory], p: float,
                      rate: Optional[float] = None) -> GlfSpec:
    """At the largest admissible weight rate when none is given."""
    hi = default_transport_rate(p, scn.k)
    r = hi if rate is None else float(rate)
    if not 0.0 < r <= hi:
        raise ParamError("rate", f"weight rate must lie in (0, {hi}], got {r}")
    return GlfSpec("transport", p, r, float(_end_sups(scn, traj)["d"][-1]) / (1.0 - abs(scn.k)))


def glf_for_wave(scn, traj: Optional[Trajectory], p: float, rate: float,
                 eps: Optional[float] = None) -> GlfSpec:
    """The wave functional on the pair (plus, minus), truncated at c*sup|d|.

    The solver's pair has plus = w_t + c*w_y, and the damping law pins
    plus(1, t) = c*d(t), so no smaller level lets the energy vanish: the
    steady state w = d*y has plus = c*d and minus = -c*d everywhere.
    """
    r = float(rate)
    if not r > 0:
        raise ParamError("rate", "the wave functional needs a positive weight rate")
    if r > np.log(np.finfo(float).max):
        raise ParamError("rate", f"the weight exp(rate*y) overflows the floats at rate = {r:g}")
    eps = 0.5 * scn.c * r if eps is None else float(eps)
    if not scn.c * r - eps > 0:
        raise ParamError(None, f"need c*r - eps > 0, got c*r = {scn.c * r}, eps = {eps}")
    spec = GlfSpec("wave", p, r, scn.c * float(_end_sups(scn, traj)["d"][-1]), eps)
    _slack_coefficient(spec)
    return spec


def dissipation_rate(spec: GlfSpec, scn) -> float:
    """Decay rate certified by the functional for this scenario.

    Parabolic: c0 * (p+1).  Transport: r * speed_floor (the scenario must
    declare one).  Wave: c*r - eps.
    """
    if spec.pde_class == "parabolic":
        return scn.c0 * (spec.p + 1.0)
    if spec.pde_class == "transport":
        if not scn.speed_floor:
            raise ScenarioError("decay rate needs a declared speed floor")
        return spec.r * scn.speed_floor
    return scn.c * spec.r - spec.eps


def _slack_coefficient(spec: GlfSpec) -> float:
    """The wave forcing slack's coefficient 4*(p/eps)**p; ParamError when
    it overflows the floats."""
    try:
        coef = 4.0 * (spec.p / spec.eps) ** spec.p
    except OverflowError:
        coef = math.inf
    if not math.isfinite(coef):
        raise ParamError(None, f"the forcing slack 4*(p/eps)**p overflows the floats "
                               f"at p = {spec.p}, eps = {spec.eps}")
    return coef


def wave_forcing_slack(traj: Trajectory, spec: GlfSpec, f_field) -> np.ndarray:
    """Forcing slack 4*(p/eps)**p * E_plus(|f(., t)|) per recorded stamp."""
    if spec.eps is None:
        raise ValueError("wave slack needs the Young split eps")
    pts = traj.grid.points()
    f = f_field.bind(pts)  # the profile is evaluated once
    coef = _slack_coefficient(spec)
    return traj.blockwise(lambda times, _: coef * weighted_energy(
        np.abs(np.reshape([np.broadcast_to(f(t), pts.shape) for t in times.tolist()],
                          (times.size, *pts.shape))),
        traj.grid, spec.pair, spec.r, 1, 1, 0.0))


def local_speed_floor(scn, radius: float):
    """Guaranteed speed floor for data in a ball, with the mass range used.

    For a scenario under the "decreasing" assumption and initial data plus
    disturbance bounded by ``radius``, the total mass stays within
    ``2 * radius * max(1/|k|, 1/(1-|k|))`` in magnitude.  Every speed kind
    is even and nonincreasing in |s| (:class:`~isscert.solvers.TransportScenario`),
    so speed(mass_range) is exactly the least speed on that range, of every
    float mass in it too.  Returns (floor, mass_range).
    """
    if scn.assumption != "decreasing":
        raise ScenarioError("local speed floors need the 'decreasing' assumption")
    if not radius > 0:
        raise ValueError("radius must be positive")
    if scn.k == 0:
        raise ScenarioError("local speed floors need a nonzero recirculation gain")
    mass_range = 2.0 * radius * max(1.0 / abs(scn.k), 1.0 / (1.0 - abs(scn.k)))
    return float(scn.speed_map(mass_range)), mass_range
