"""Comparison-function algebra for decay estimates.

Monotone scalar maps (class-K gains, reaction laws and their inverses)
and their bracketed inversion by bisection.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = [
    "MonotoneFn",
    "BracketError",
    "invert_monotone",
    "identity_map",
    "linear_map",
    "odd_cubic_map",
    "power_map",
]

# Lattice size for the strict-increase spot check at construction.
_SPOT_POINTS = 257


class BracketError(ValueError):
    """Target value falls outside the bracket handed to the inverter."""


class MonotoneFn:
    """Strictly increasing scalar map on a closed interval.

    Wraps a plain callable together with its declared domain.  Strict
    monotonicity is spot-checked on a 257-point lattice at construction;
    maps flagged class-K must additionally vanish at zero.  The callable
    is expected to accept numpy arrays elementwise.
    """

    def __init__(self, fn: Callable, domain=(0.0, 1e6), label: str = "",
                 class_k: bool = False):
        lo, hi = float(domain[0]), float(domain[1])
        if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
            raise ValueError(f"bad domain ({lo}, {hi})")
        self.fn = fn
        self.domain_lo = lo
        self.domain_hi = hi
        self.label = label
        self.class_k = bool(class_k)
        lattice = np.linspace(lo, hi, _SPOT_POINTS)
        vals = np.asarray(fn(lattice), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise ValueError(f"map {label or fn!r} not finite on its domain")
        if not np.all(np.diff(vals) > 0):
            raise ValueError(f"map {label or fn!r} is not strictly increasing")
        if self.class_k:
            if lo > 0.0:
                raise ValueError("class-K maps must include 0 in their domain")
            if abs(float(fn(0.0))) > 1e-12:
                raise ValueError(f"class-K map {label or fn!r} has eval(0) != 0")

    def __call__(self, s):
        out = self.fn(s)
        return float(out) if np.ndim(out) == 0 else np.asarray(out, dtype=float)

    def __repr__(self):
        tag = self.label or "fn"
        return (f"MonotoneFn({tag}, domain=({self.domain_lo}, {self.domain_hi}),"
                f" class_k={self.class_k})")


def identity_map(hi=1e6, lo=None, class_k=True):
    lo = -hi if lo is None else lo
    return MonotoneFn(lambda v: np.asarray(v, dtype=float) + 0.0,
                      domain=(lo, hi), label="v", class_k=class_k and lo <= 0.0)


def linear_map(slope, hi=1e6, lo=None):
    """v -> slope*v with slope > 0."""
    slope = float(slope)
    if slope <= 0:
        raise ValueError("slope must be positive")
    lo = -hi if lo is None else lo
    return MonotoneFn(lambda v: slope * np.asarray(v, dtype=float),
                      domain=(lo, hi), label=f"{slope}*v", class_k=lo <= 0.0)


def odd_cubic_map(gamma, hi=1e4):
    """v -> v + gamma*v**3 with gamma >= 0; odd, slope at least one."""
    gamma = float(gamma)
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    return MonotoneFn(lambda v: np.asarray(v, dtype=float) * (1.0 + gamma * np.asarray(v, dtype=float) ** 2),
                      domain=(-hi, hi), label=f"v+{gamma}*v^3", class_k=True)


def power_map(exponent, coef=1.0, hi=1e6):
    """Class-K map v -> coef * v**exponent on v >= 0."""
    exponent = float(exponent)
    coef = float(coef)
    if exponent <= 0 or coef <= 0:
        raise ValueError("exponent and coef must be positive")
    return MonotoneFn(lambda v: coef * np.power(np.maximum(np.asarray(v, dtype=float), 0.0), exponent),
                      domain=(0.0, hi), label=f"{coef}*v^{exponent}", class_k=True)


def invert_monotone(f, y, lo=None, hi=None, tol=1e-10, max_iter=200):
    """Solve f(x) = y by bisection on [lo, hi].

    ``f`` is a MonotoneFn (its domain supplies default brackets) or any
    increasing callable.  Raises :class:`BracketError` when y is not
    enclosed.  Returns x with ``|f(x) - y| <= tol``.
    """
    if lo is None or hi is None:
        if not isinstance(f, MonotoneFn):
            raise ValueError("explicit brackets required for a bare callable")
        lo = f.domain_lo if lo is None else lo
        hi = f.domain_hi if hi is None else hi
    lo, hi, y, tol = float(lo), float(hi), float(y), float(tol)
    if not lo < hi:
        raise ValueError("need lo < hi")
    flo, fhi = float(f(lo)), float(f(hi))
    if not (flo - tol <= y <= fhi + tol):
        raise BracketError(f"target {y} outside [f({lo}), f({hi})] = [{flo}, {fhi}]")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fm = float(f(mid))
        if abs(fm - y) <= tol:
            return mid
        if fm < y:
            lo = mid
        else:
            hi = mid
    raise RuntimeError(f"bisection did not reach residual {tol} in {max_iter} steps")
