"""Disturbance signals and space-time forcing fields.

A time signal is one analytic kind (constant, sinusoid, exp_decay,
polynomial) on t >= 0.  Its extremes over a window are exact: they lie at
the window ends or at the kind's critical times (sinusoid crests and
troughs, real roots of a polynomial's derivative).  Windows are closed
intervals, so the windowed sup is conservative and monotone in the window,
and one call returns the running sups over a whole array of window ends.

Space-time fields wrap a callable f(y, t); spatially uniform and separable
fields keep a handle on their signal so windowed sups stay exact on the
given space points, and so do their infs over a time window.  Only a
field known through its callable alone is sampled in time.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

__all__ = [
    "SIGNAL_KINDS",
    "TimeSignal",
    "signal_range",
    "sup_window",
    "SpaceTimeField",
    "sup_field",
    "inf_field",
    "profile_constant",
    "profile_affine",
    "profile_sin",
    "profile_bump",
    "profile_poly",
    "profile_sum",
    "profile2d_sinprod",
]

SIGNAL_KINDS = ("constant", "sinusoid", "exp_decay", "polynomial")

# parameter counts; polynomial takes any positive number of coefficients
_ARITY = {"constant": 1, "sinusoid": 4, "exp_decay": 3}

# uniform time samples up to the last window end for a field known only
# through its callable
_FIELD_SAMPLES = 513


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
        out = np.zeros_like(t)
        for k, ck in enumerate(self.params):
            out = out + ck * t**k
        return out

    def __call__(self, t):
        t_arr = np.asarray(t, dtype=float)
        if np.any(t_arr < 0):
            raise ValueError("signals are defined for t >= 0")
        out = self._eval(t_arr)
        return float(out) if t_arr.ndim == 0 else out


def _critical_times(sig: TimeSignal, a: float, b: float) -> list:
    """Times inside [a, b] where the signal can peak: sinusoid crests and
    troughs, and the real parts of the roots of a polynomial's derivative
    (extra candidates never lower the sup).  Constant and exp_decay
    signals are monotone, so they have none."""
    if sig.kind == "sinusoid":
        amp, freq, phase, _ = sig.params
        if freq == 0.0 or amp == 0.0:
            return []
        # 2*pi*freq*t + phase = pi/2 + k*pi
        w = 2.0 * math.pi * freq
        k_a, k_b = sorted(((w * a + phase - math.pi / 2.0) / math.pi,
                           (w * b + phase - math.pi / 2.0) / math.pi))
        return [(math.pi / 2.0 + k * math.pi - phase) / w
                for k in range(math.ceil(k_a), math.floor(k_b) + 1)]
    if sig.kind == "polynomial":
        roots = np.polynomial.Polynomial(sig.params).deriv().trim().roots()
        return [t for t in roots.real.tolist() if a < t < b]
    return []


def signal_range(sig: TimeSignal, t1: float) -> tuple:
    """(min, max) of sig over [0, t1], exact: both lie at an end of the
    window or at one of the signal's critical times."""
    vals = sig._eval(np.asarray([0.0, t1, *_critical_times(sig, 0.0, t1)]))
    return float(vals.min()), float(vals.max())


def _running_max(times, values, ends):
    """max of values over the entries with times <= e, for each e in ends."""
    order = np.argsort(times, kind="stable")
    running = np.maximum.accumulate(values[order])
    return running[np.searchsorted(times[order], ends, side="right") - 1]


def _window_sups(sig: TimeSignal, t0: float, ends: np.ndarray) -> np.ndarray:
    """Sup of |sig| over the closed window [t0, e] for each e >= t0 in ends."""
    horizon = float(np.max(ends))
    cand = np.concatenate(([t0, horizon], _critical_times(sig, t0, horizon),
                           ends[(ends > t0) & (ends < horizon)]))
    return _running_max(cand, np.abs(sig._eval(cand)), ends)


def sup_window(sig: TimeSignal, t0: float, t1):
    """Sup of |sig| over the closed window [t0, t1], exact for every kind.

    |sig| peaks at a window end or at one of the signal's critical times
    (:func:`_critical_times`); the sup is the largest of those values.
    An array of window ends t1 gives the array of sups over [t0, t1_i],
    as for :func:`sup_field`.
    """
    if np.ndim(t1) == 0 and not float(t0) < float(t1):
        raise ValueError(f"need 0 <= t0 < t1, got ({t0}, {t1})")
    return sup_field(SpaceTimeField.from_signal(sig), None, t0, t1)


class SpaceTimeField:
    """Scalar field on the spatial domain crossed with the time axis.

    ``fn(y, t)`` must broadcast: in one dimension ``y`` is an array of
    points, in two dimensions a tuple of coordinate meshes.
    """

    def __init__(self, fn: Callable, label: str = "", signal=None, parts=None):
        self.fn = fn
        self.label = label
        self.signal = signal  # set when the field is spatially uniform
        self.parts = parts  # (profile, signal) when the field is separable

    @property
    def sampled(self) -> bool:
        """True when sups of this field come from samples, not exactly."""
        return self.signal is None and self.parts is None

    @classmethod
    def constant(cls, value):
        value = float(value)
        sig = TimeSignal.constant(value)
        return cls(lambda y, t: _uniform(y, value), label=f"const {value}", signal=sig)

    @classmethod
    def from_signal(cls, sig: TimeSignal):
        return cls(lambda y, t: _uniform(y, float(sig(t))), label="uniform", signal=sig)

    @classmethod
    def separable(cls, profile: Callable, sig: TimeSignal):
        return cls(lambda y, t: profile(y) * float(sig(t)), label="separable",
                   parts=(profile, sig))

    def __call__(self, y, t):
        out = self.fn(y, float(t))
        return float(out) if np.ndim(out) == 0 else np.asarray(out, dtype=float)


def _uniform(y, value):
    if isinstance(y, tuple):
        shape = np.broadcast(*[np.asarray(c, dtype=float) for c in y]).shape
        return np.full(shape, value)
    arr = np.asarray(y, dtype=float)
    if arr.ndim == 0:
        return value
    return np.full(arr.shape, value)


def sup_field(fld: SpaceTimeField, space, t0: float, t1):
    """Sup of |fld| over space x [t0, t1]; an array t1 gives one sup per end.

    Uniform fields take the exact signal sup (:func:`sup_window`),
    separable ones the profile's max over ``space`` times it.  A field
    known only through its callable is sampled on ``space`` at the window
    ends and at ``_FIELD_SAMPLES`` uniform times up to the last end
    (:attr:`SpaceTimeField.sampled`).  For an array of ends every
    candidate time is evaluated once and a running maximum is read off at
    each end, so the sups are nondecreasing in t1_i; a window t0 == t1 is
    one time slice.
    """
    t0 = float(t0)
    ends = np.asarray(t1, dtype=float)
    if not (ends.size and 0.0 <= t0 <= ends.min()):
        raise ValueError(f"need 0 <= t0 <= t1, got ({t0}, {t1})")
    flat = ends.reshape(-1)
    if fld.signal is not None:
        best = _window_sups(fld.signal, t0, flat)
    elif fld.parts is not None:
        profile, sig = fld.parts
        prof_sup = float(np.max(np.abs(np.asarray(profile(space), dtype=float))))
        best = prof_sup * _window_sups(sig, t0, flat)
    else:
        times, values = _sampled(fld, space, t0, flat, lambda v: np.max(np.abs(v)))
        best = _running_max(times, values, flat)
    return float(best[0]) if ends.ndim == 0 else best


def inf_field(fld: SpaceTimeField, space, t1: float) -> float:
    """Inf of fld over space x [0, t1]: exact for uniform and separable
    fields (from the signal's and the profile's extremes), sampled at the
    times of :func:`sup_field` for a field known only through its callable."""
    if fld.signal is not None:
        return signal_range(fld.signal, t1)[0]
    if fld.parts is not None:
        prof = np.asarray(fld.parts[0](space), dtype=float)
        return min(p * s for p in (prof.min(), prof.max())
                   for s in signal_range(fld.parts[1], t1))
    return float(_sampled(fld, space, 0.0, np.asarray([float(t1)]), np.min)[1].min())


def _sampled(fld, space, t0, ends, reduce):
    """reduce(fld(space, t)) at the window ends and at ``_FIELD_SAMPLES``
    uniform times from t0 to the last end; returns (times, values)."""
    times = np.union1d(np.linspace(t0, ends.max(), _FIELD_SAMPLES), ends)
    return times, np.asarray([reduce(fld(space, t)) for t in times.tolist()])


# ---------------------------------------------------------------------------
# spatial profiles (initial data and separable forcing shapes)

def profile_constant(value):
    """The constant profile, on the interval or the square."""
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

    def poly(y):
        y = np.asarray(y, dtype=float)
        out = np.zeros_like(y)
        for k, ck in enumerate(coeffs):
            out = out + ck * y**k
        return out

    return poly


def profile_sum(*profiles):
    def total(y):
        vals = [np.asarray(p(y), dtype=float) for p in profiles]
        out = vals[0]
        for v in vals[1:]:
            out = out + v
        return out

    return total


def profile2d_sinprod(amplitude, mode_x=1, mode_y=1):
    amplitude = float(amplitude)
    mx, my = int(mode_x), int(mode_y)

    def prof(xy):
        x, y = xy
        return amplitude * np.sin(mx * np.pi * np.asarray(x, dtype=float)) * \
            np.sin(my * np.pi * np.asarray(y, dtype=float))

    return prof
