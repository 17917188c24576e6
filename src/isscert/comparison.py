"""Comparison-function algebra for decay estimates.

Monotone scalar maps (class-K gains, reaction laws and their inverses)
and their bracketed inversion by bisection.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = [
    "MonotoneFn",
    "invert_monotone",
    "identity_map",
    "linear_map",
    "odd_cubic_map",
    "power_map",
]

# Lattice size for the strict-increase spot check at construction.
_SPOT_POINTS = 257

# Bisection steps before invert_monotone gives up.
_MAX_BISECT = 200


class MonotoneFn:
    """Strictly increasing class-K map on a closed interval.

    Wraps a plain callable together with its declared domain, which must
    contain zero.  Strict monotonicity and finiteness are spot-checked on
    a 257-point lattice at construction, and the map must vanish at
    zero.  The callable is expected to accept numpy arrays elementwise.
    """

    def __init__(self, fn: Callable, domain, label: str = ""):
        lo, hi = float(domain[0]), float(domain[1])
        if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
            raise ValueError(f"bad domain ({lo}, {hi})")
        if lo > 0.0:
            raise ValueError("class-K maps must include 0 in their domain")
        self.fn = fn
        self.label = label
        lattice = np.linspace(lo, hi, _SPOT_POINTS)
        vals = np.asarray(fn(lattice), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise ValueError(f"map {label or fn!r} not finite on its domain")
        if not np.all(np.diff(vals) > 0):
            raise ValueError(f"map {label or fn!r} is not strictly increasing")
        if abs(float(fn(0.0))) > 1e-12:
            raise ValueError(f"class-K map {label or fn!r} has eval(0) != 0")

    def __call__(self, s):
        out = self.fn(s)
        return float(out) if np.ndim(out) == 0 else np.asarray(out, dtype=float)


def identity_map():
    return MonotoneFn(lambda v: np.asarray(v, dtype=float) + 0.0,
                      domain=(-1e6, 1e6), label="v")


def linear_map(slope):
    """v -> slope*v with slope > 0."""
    slope = float(slope)
    if slope <= 0:
        raise ValueError("slope must be positive")
    return MonotoneFn(lambda v: slope * np.asarray(v, dtype=float),
                      domain=(-1e6, 1e6), label=f"{slope}*v")


def odd_cubic_map(gamma):
    """v -> v + gamma*v**3 with gamma >= 0; odd, slope at least one."""
    gamma = float(gamma)
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    return MonotoneFn(lambda v: np.asarray(v, dtype=float) * (1.0 + gamma * np.asarray(v, dtype=float) ** 2),
                      domain=(-1e4, 1e4), label=f"v+{gamma}*v^3")


def power_map(exponent, coef=1.0):
    """Class-K map v -> coef * v**exponent on v >= 0."""
    exponent = float(exponent)
    coef = float(coef)
    if exponent <= 0 or coef <= 0:
        raise ValueError("exponent and coef must be positive")
    return MonotoneFn(lambda v: coef * np.power(np.maximum(np.asarray(v, dtype=float), 0.0), exponent),
                      domain=(0.0, 1e6), label=f"{coef}*v^{exponent}")


def invert_monotone(f, y, lo, hi, tol):
    """Solve f(x) = y by bisection on [lo, hi] for an increasing callable f.

    Raises ValueError when y is not enclosed.  Returns x with
    ``|f(x) - y| <= tol``.
    """
    lo, hi, y, tol = float(lo), float(hi), float(y), float(tol)
    if not lo < hi:
        raise ValueError("need lo < hi")
    flo, fhi = float(f(lo)), float(f(hi))
    if not (flo - tol <= y <= fhi + tol):
        raise ValueError(f"target {y} outside [f({lo}), f({hi})] = [{flo}, {fhi}]")
    for _ in range(_MAX_BISECT):
        mid = 0.5 * (lo + hi)
        fm = float(f(mid))
        if abs(fm - y) <= tol:
            return mid
        if fm < y:
            lo = mid
        else:
            hi = mid
    raise RuntimeError(f"bisection did not reach residual {tol} in {_MAX_BISECT} steps")
