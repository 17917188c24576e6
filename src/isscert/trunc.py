"""Stampacchia truncation calculus and the scalar inequalities built on it.

For an exponent p > 1 the truncation pair is

    g(s) = s**p                for s >= 0,      g(s) = 0 for s < 0,
    G(s) = s**(p+1) / (p+1)    for s >= 0,      G(s) = 0 for s < 0,

so G is the antiderivative of g, convex, C^1, and identically zero on the
nonpositive axis.  Energies of the form ``integral of G(state - level)``
switch off wherever the state sits below the truncation level, which is
what makes them useful for certifying input-to-state decay: disturbances
move the level, not the energy.

G obeys pointwise facts numbered G1 through G8.  :func:`property_sides`
states the inequalities G4-G8; ``verify.verify_trunc`` checks those, and
G1-G3 and scaling directly.  Everything downstream leans on them.

The module also carries the two workhorse scalar facts used by every decay
argument in this package: Young's product inequality with a free splitting
parameter, and the Gronwall upper envelope for linear differential
inequalities, a composite trapezoid rule carried one interval at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import scalar_or_array as _scalar_or_array

__all__ = [
    "TruncationPair",
    "GAP_PROPERTY_IDS",
    "property_sides",
    "young_epsilon_gap",
    "gronwall_envelope_at",
]


def _as_finite(x, name):
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr


@dataclass(frozen=True)
class TruncationPair:
    """Truncation pair (g, G) with exponent ``p`` in (1, inf)."""

    p: float

    def __post_init__(self):
        p = self.p
        if not (np.isfinite(p) and p > 1.0):
            raise ValueError(f"exponent p must lie in (1, inf), got {p!r}")

    def g(self, s):
        """Truncated power ``s**p`` for s >= 0, zero below. Vectorized."""
        s = _as_finite(s, "s")
        return _scalar_or_array(np.maximum(s, 0.0) ** self.p)

    def G(self, s):
        """Antiderivative of :meth:`g`: ``s**(p+1)/(p+1)`` for s >= 0, zero below."""
        s = _as_finite(s, "s")
        return _scalar_or_array(np.maximum(s, 0.0) ** (self.p + 1.0) / (self.p + 1.0))


# Inequalities exposed through property_sides and their argument counts.
GAP_PROPERTY_IDS = {"G4": 2, "G5": 2, "G6": 2, "G7": 3, "G8": 3}


def property_sides(pair, prop_id, args):
    """Both sides (lhs, rhs) of the inequality ``lhs <= rhs`` named by ``prop_id``.

    The supported inequalities, for all real s and tau >= 0 unless noted:

        G4: G(s)       <= G(s + tau) + G(s - tau)
        G5: G(|s| + tau) <= G(s + tau) + G(-s + tau)
        G6: G(s + tau) <= 2**p * (G(s) + G(tau))
        G7: G(|s|)     <= 2**p * (G(s + tau - m) + G(s - tau - m)
                                  + G(-s + tau - m) + G(-s - tau - m))
                          + 2**p * G(m)                  with m >= 0
        G8: g(s) * tau <= eps * G(s) + (p / eps)**p * G(tau)   with eps > 0

    Arguments are scalars or broadcastable arrays; the gap rhs - lhs is
    the certificate of interest.
    """
    if prop_id not in GAP_PROPERTY_IDS:
        raise ValueError(f"unknown property id {prop_id!r}")
    if len(args) != GAP_PROPERTY_IDS[prop_id]:
        raise ValueError(f"{prop_id} takes {GAP_PROPERTY_IDS[prop_id]} arguments, got {len(args)}")
    G, g, p = pair.G, pair.g, pair.p
    names = ("s", "tau", "m" if prop_id == "G7" else "eps")
    s, tau, *third = (_as_finite(a, n) for a, n in zip(args, names))
    if prop_id == "G4":
        return G(s), G(s + tau) + G(s - tau)
    if prop_id == "G5":
        return G(np.abs(s) + tau), G(s + tau) + G(-s + tau)
    if prop_id == "G6":
        return G(s + tau), 2.0**p * (G(s) + G(tau))
    if prop_id == "G7":
        (m,) = third
        if np.any(m < 0):
            raise ValueError("G7 requires m >= 0")
        rhs = 2.0**p * (
            G(s + tau - m) + G(s - tau - m) + G(-s + tau - m) + G(-s - tau - m)
        ) + 2.0**p * G(m)
        return G(np.abs(s)), rhs
    (eps,) = third  # G8
    if np.any(eps <= 0):
        raise ValueError("G8 requires eps > 0")
    return g(s) * tau, eps * G(s) + (p / eps) ** p * G(tau)


def young_epsilon_gap(r_exp, q_exp, a, b, eps):
    """Slack of ``a*b <= eps*a**r + C(eps)*b**q`` for conjugate exponents.

    Here ``C(eps) = (eps*r)**(-q/r) / q`` and (r, q) must satisfy
    1/r + 1/q = 1 up to 1e-12.  Inputs ``a`` and ``b`` must be
    nonnegative and ``eps`` positive; all three broadcast.
    """
    r = float(r_exp)
    q = float(q_exp)
    if not (r > 1.0 and q > 1.0):
        raise ValueError("exponents must exceed 1")
    if abs(1.0 / r + 1.0 / q - 1.0) > 1e-12:
        raise ValueError(f"exponents are not conjugate: 1/{r} + 1/{q} != 1")
    a = _as_finite(a, "a")
    b = _as_finite(b, "b")
    eps = _as_finite(eps, "eps")
    if np.any(a < 0) or np.any(b < 0):
        raise ValueError("a and b must be nonnegative")
    if np.any(eps <= 0):
        raise ValueError("eps must be positive")
    c_eps = (eps * r) ** (-q / r) / q
    return _scalar_or_array(eps * a**r + c_eps * b**q - a * b)


def gronwall_envelope_at(times, rate, psi, eta0):
    """Gronwall envelope on an increasing time lattice: env(t_0) = eta0 and
    env(t_{i+1}) = a_i*env(t_i) + (dt_i/2)*(a_i*psi(t_i) + psi(t_{i+1})),
    dt_i = t_{i+1} - t_i and a_i = exp(-rate*dt_i), on Python floats: the
    composite trapezoid rule for e^{-rate*t}*eta0 + integral over (0, t) of
    e^{-rate*(t-s)}*psi(s) ds.  Any eta with eta' <= -rate*eta + psi and
    eta(0) <= eta0 stays below env up to quadrature error.  At rate >= 0 no
    a_i exceeds 1, so no term grows past the envelope; an envelope past the
    floats is a ValueError.
    """
    t = _as_finite(times, "times")
    psi = _as_finite(psi, "psi")
    if t.ndim != 1 or t.shape != psi.shape or t.size < 1:
        raise ValueError("times and psi must be nonempty 1-d arrays of equal length")
    if np.any(np.diff(t) <= 0):
        raise ValueError("times must be strictly increasing")
    ts, ps, out, rate = t.tolist(), psi.tolist(), [float(eta0)], float(rate)
    try:
        for t0, t1, p0, p1 in zip(ts, ts[1:], ps, ps[1:]):
            a = math.exp(-rate * (t1 - t0))
            out.append(a * out[-1] + 0.5 * (t1 - t0) * (a * p0 + p1))
    except OverflowError:  # a growth factor past the floats
        out.append(math.inf)
    return _as_finite(out, "the Gronwall envelope")
