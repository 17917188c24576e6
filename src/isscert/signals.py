"""Disturbance signals and space-time forcing fields.

A time signal is one analytic kind (constant, sinusoid, exp_decay,
polynomial) on t >= 0.  Its extremes over [0, e] are exact: they lie at 0,
at e or at one of the kind's critical times (sinusoid crests and troughs,
real roots of a polynomial's derivative).  :func:`signal_range` is the one
place they are taken; one call returns the running (min, max) over a whole
array of window ends, so each is monotone in the end.  A signal called
at a Python float, as steppers call it once a step, takes the array
evaluation's operations on floats, with the bits of the array path.

A space-time field is a time signal times an optional spatial profile,
f(y, t) = profile(y) * signal(t); without a profile it is spatially
uniform.  Its extremes over given space points and [0, e] are the extreme
products of the profile's extremes there and the signal's
(:meth:`BoundField.range`), and its sup is the larger magnitude of the two
(:func:`sup_field`), so every one is exact.  A field bound to fixed points
(:class:`BoundField`) holds its profile's values there, so a stepper that
binds its fields once per solve evaluates only their signals at each step,
with the bits of evaluating the field anew; a field whose signal is
constant is evaluated once, at bind.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

__all__ = [
    "SIGNAL_KINDS",
    "TimeSignal",
    "signal_range",
    "sup_window",
    "SpaceTimeField",
    "BoundField",
    "sup_field",
    "profile_constant",
    "profile_affine",
    "profile_sin",
    "profile_bump",
    "profile_poly",
    "profile_sum",
    "profile_sinprod",
]

SIGNAL_KINDS = ("constant", "sinusoid", "exp_decay", "polynomial")

# parameter counts; polynomial takes any positive number of coefficients
_ARITY = {"constant": 1, "sinusoid": 4, "exp_decay": 3}


class TimeSignal:
    """One analytic signal on t >= 0.

    Parameter conventions:
      constant:    (value,)
      sinusoid:    (amplitude, frequency, phase, offset), evaluated as
                   offset + amplitude*sin(2*pi*frequency*t + phase)
      exp_decay:   (amplitude, rate, offset), evaluated as
                   offset + amplitude*exp(-rate*t)
      polynomial:  (c0, c1, ...), sum of ck*t**k
    """

    def __init__(self, kind: str, params: tuple):
        if kind not in SIGNAL_KINDS:
            raise ValueError(f"unknown signal kind {kind!r}")
        want = _ARITY.get(kind)
        if want is not None and len(params) != want:
            raise ValueError(f"{kind} takes {want} parameters, got {len(params)}")
        if kind == "polynomial" and len(params) == 0:
            raise ValueError("polynomial needs at least one coefficient")
        if not all(math.isfinite(float(v)) for v in params):
            raise ValueError("signal parameters must be finite")
        self.kind = kind
        self.params = tuple(float(v) for v in params)

    @classmethod
    def constant(cls, value):
        return cls("constant", (value,))

    @classmethod
    def sinusoid(cls, amplitude, frequency, phase=0.0, offset=0.0):
        return cls("sinusoid", (amplitude, frequency, phase, offset))

    @classmethod
    def exp_decay(cls, amplitude, rate, offset=0.0):
        return cls("exp_decay", (amplitude, rate, offset))

    @classmethod
    def polynomial(cls, *coeffs):
        return cls("polynomial", coeffs)

    def _eval(self, t: np.ndarray) -> np.ndarray:
        if self.kind == "constant":
            return np.full_like(t, self.params[0])
        if self.kind == "sinusoid":
            amp, freq, phase, off = self.params
            return off + amp * np.sin(2.0 * np.pi * freq * t + phase)
        if self.kind == "exp_decay":
            amp, rate, off = self.params
            return off + amp * np.exp(-rate * t)
        return _power_sum(self.params, t)

    def __call__(self, t):
        if isinstance(t, float):
            # fields call this once per step: a float skips the array
            # checks.  A constant is its parameter.  A sinusoid or an
            # exp_decay evaluates on the float itself, the same operations
            # with np.sin or np.exp for the transcendental, so the bits are
            # the array evaluation's; a polynomial's powers stay on arrays,
            # where numpy's power and Python's differ in the last bit
            if t < 0:
                raise ValueError("signals are defined for t >= 0")
            if self.kind == "constant":
                return self.params[0]
            return float(self._eval(np.asarray(t) if self.kind == "polynomial" else t))
        t_arr = np.asarray(t, dtype=float)
        if (t_arr < 0).any():
            raise ValueError("signals are defined for t >= 0")
        out = self._eval(t_arr)
        return float(out) if t_arr.ndim == 0 else out


def _power_sum(coeffs, x):
    """The sum of ck * x**k, added term by term from k = 0."""
    out = np.zeros_like(x)
    for k, ck in enumerate(coeffs):
        out = out + ck * x**k
    return out


def _critical_times(sig: TimeSignal, horizon: float) -> list:
    """Times inside [0, horizon] where the signal can peak: a sinusoid's
    first crest and first trough, and the real parts of the roots of a
    polynomial's derivative (extra candidates never widen the range).
    Every later crest or trough repeats offset +- |amplitude|, or rounds
    inside it, so it cannot widen the running range.  Constant and
    exp_decay signals are monotone, so they have none."""
    if sig.kind == "sinusoid":
        amp, freq, phase, _ = sig.params
        if freq == 0.0 or amp == 0.0:
            return []
        # 2*pi*freq*t + phase = pi/2 + k*pi
        w = 2.0 * math.pi * freq
        k_a, k_b = sorted(((phase - math.pi / 2.0) / math.pi,
                           (w * horizon + phase - math.pi / 2.0) / math.pi))
        ks = range(math.ceil(k_a), math.floor(k_b) + 1)
        # the times fall as k rises when the frequency is negative
        return [(math.pi / 2.0 + k * math.pi - phase) / w for k in (ks[:2] if w > 0 else ks[-2:])]
    if sig.kind == "polynomial":
        roots = np.polynomial.Polynomial(sig.params).deriv().trim().roots()
        return [t for t in roots.real.tolist() if 0.0 < t < horizon]
    return []


def signal_range(sig: TimeSignal, ends):
    """Running (min, max) of sig over the closed window [0, e] for each end
    e in ends, exact: both lie at 0, at an end or at a critical time, so
    the running extremes over those candidates, read off at each end, are
    the window's.  Scalar ends give scalars."""
    flat = np.asarray(ends, dtype=float).reshape(-1)
    if not (flat.size and 0.0 <= flat.min()):
        raise ValueError(f"need window ends t >= 0, got {ends}")
    horizon = float(flat.max())
    cand = np.concatenate(([0.0, horizon], _critical_times(sig, horizon),
                           flat[(flat > 0.0) & (flat < horizon)]))
    order = np.argsort(cand, kind="stable")
    vals = sig._eval(cand)[order]
    at = np.searchsorted(cand[order], ends, side="right") - 1
    return np.minimum.accumulate(vals)[at], np.maximum.accumulate(vals)[at]


def sup_window(sig: TimeSignal, t1):
    """Sup of |sig| over the closed window [0, t1], exact for every kind;
    an array t1 gives one sup per end, as for :func:`sup_field`."""
    return sup_field(SpaceTimeField.from_signal(sig), None, t1)


class SpaceTimeField:
    """The field profile(y) * signal(t) on the spatial domain crossed with
    the time axis; no profile means the field is spatially uniform.

    ``profile(y)`` must broadcast: on the interval ``y`` is an array of
    points, on more axes a tuple of coordinate meshes, one per axis.
    """

    def __init__(self, signal: TimeSignal, profile: Optional[Callable] = None):
        if not isinstance(signal, TimeSignal):
            raise TypeError(f"a field's signal must be a TimeSignal, got {type(signal).__name__}")
        self.signal = signal
        self.profile = profile

    @classmethod
    def constant(cls, value):
        return cls(TimeSignal.constant(value))

    @classmethod
    def from_signal(cls, sig: TimeSignal):
        return cls(sig)

    @classmethod
    def separable(cls, profile: Callable, sig: TimeSignal):
        return cls(sig, profile)

    def __call__(self, y, t):
        return self.bind(y)(t)

    def bind(self, y) -> "BoundField":
        """The field on the fixed points y, its profile evaluated there once."""
        return BoundField(self, y)


class BoundField:
    """A field on fixed points y, as a function of t alone.

    ``bound(t)`` has the bits of ``fld(y, t)``, a float when y is one point
    and else an array of y's shape, but the profile was evaluated on y
    once, by :meth:`SpaceTimeField.bind`: a call evaluates the signal and
    forms the same product.  A constant signal's field does not change
    with t, so it is evaluated once, at bind, and every call (t < 0 still
    raises) returns that one value, an array read-only.  Steppers bind
    every field once per solve.
    """

    __slots__ = ("signal", "values", "shape", "fixed")

    def __init__(self, fld: SpaceTimeField, y):
        self.signal = fld.signal
        # the profile's values as it returns them; None when uniform
        self.values = None if fld.profile is None else fld.profile(y)
        self.shape = _shape(y) if self.values is None else np.shape(self.values)
        self.fixed = None
        if self.signal.kind == "constant":
            self.fixed = self(0.0)
            if self.shape:
                self.fixed.flags.writeable = False

    def __call__(self, t):
        value = self.signal(float(t))
        if self.fixed is not None:
            return self.fixed
        if self.values is None:
            if not self.shape:
                return value
            # empty and fill: np.full's dtype inference costs as much again
            out = np.empty(self.shape)
            out.fill(value)
            return out
        out = self.values * value
        return np.asarray(out, dtype=float) if self.shape else float(out)

    def range(self, ends):
        """Least and largest value over the points x [0, e] for each end e,
        exact: the extreme products of the profile's extremes on the points
        (1 when uniform) and the signal's running extremes."""
        lo, hi = signal_range(self.signal, ends)
        prof = np.asarray(1.0 if self.values is None else self.values, dtype=float)
        prods = [p * s for p in (prof.min(), prof.max()) for s in (lo, hi)]
        return np.minimum.reduce(prods), np.maximum.reduce(prods)


def _shape(y):
    """Shape of the points y: an array of points, or a tuple of coordinate meshes."""
    return np.broadcast(*y).shape if isinstance(y, tuple) else np.shape(y)


def _uniform(y, value):
    """value at every point of y."""
    shape = _shape(y)
    return np.full(shape, value) if shape else value


def sup_field(fld: SpaceTimeField, space, t1):
    """Sup of |fld| over space x [0, t1]; an array t1 gives one sup per end.

    The sup is the larger magnitude of the field's exact extremes
    (:meth:`BoundField.range`), so the sups are nondecreasing in t1_i.
    """
    lo, hi = fld.bind(space).range(t1)
    return np.maximum(np.abs(lo), np.abs(hi))


# ---------------------------------------------------------------------------
# spatial profiles (initial data and separable forcing shapes)

def profile_constant(value):
    """The constant profile, on any number of axes."""
    value = float(value)
    return lambda y: _uniform(y, value)


def profile_affine(intercept, slope):
    intercept, slope = float(intercept), float(slope)
    return lambda y: intercept + slope * np.asarray(y, dtype=float)


def profile_sin(amplitude, mode=1):
    """amplitude * sin(mode * pi * y) on the unit interval."""
    amplitude = float(amplitude)
    mode = int(mode)
    return lambda y: amplitude * np.sin(mode * np.pi * np.asarray(y, dtype=float))


def profile_bump(amplitude, center, halfwidth):
    """Raised-cosine bump, compactly supported on |y - center| <= halfwidth."""
    amplitude, center, halfwidth = float(amplitude), float(center), float(halfwidth)
    if halfwidth <= 0:
        raise ValueError("halfwidth must be positive")

    def bump(y):
        y = np.asarray(y, dtype=float)
        z = (y - center) / halfwidth
        return amplitude * 0.5 * (1.0 + np.cos(np.pi * np.clip(z, -1.0, 1.0))) * (np.abs(z) <= 1.0)

    return bump


def profile_poly(*coeffs):
    coeffs = tuple(float(c) for c in coeffs)
    return lambda y: _power_sum(coeffs, np.asarray(y, dtype=float))


def profile_sum(*profiles):
    def total(y):
        first, *rest = [np.asarray(p(y), dtype=float) for p in profiles]
        return sum(rest, first)

    return total


def profile_sinprod(amplitude, mode_x=1, mode_y=1, mode_z=None):
    """amplitude * sin(mode_x pi x) * sin(mode_y pi y) on the square, times
    sin(mode_z pi z) on the cube when mode_z is given; the factors are
    multiplied in axis order."""
    amplitude = float(amplitude)
    modes = [int(m) for m in (mode_x, mode_y, mode_z) if m is not None]

    def prof(coords):
        out = amplitude
        for m, x in zip(modes, coords, strict=True):
            out = out * np.sin(m * np.pi * np.asarray(x, dtype=float))
        return out

    return prof
