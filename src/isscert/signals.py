"""Disturbance signals and space-time forcing fields.

Time signals are piecewise analytic, right-continuous, made of four piece
kinds (constant, sinusoid, exp_decay, polynomial).  Their windowed sup is
exact for every kind: |signal| is evaluated at the window ends, the piece
ends and each piece's critical times (sinusoid crests, real roots of a
polynomial's derivative).  Windows are closed intervals, so the sup is
conservative and monotone in the window, and one call returns the running
sups over a whole array of window ends.

Space-time fields wrap a callable f(y, t); spatially uniform and separable
fields keep a handle on their signal so windowed sups stay exact on the
given space points.  Only a field known through its callable alone is
sampled in time.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "PIECE_KINDS",
    "Piece",
    "TimeSignal",
    "sup_window",
    "SpaceTimeField",
    "sup_field",
    "profile_constant",
    "profile_affine",
    "profile_sin",
    "profile_bump",
    "profile_poly",
    "profile_sum",
    "profile2d_sinprod",
]

PIECE_KINDS = ("constant", "sinusoid", "exp_decay", "polynomial")

# parameter counts; polynomial takes any positive number of coefficients
_ARITY = {"constant": 1, "sinusoid": 4, "exp_decay": 3}

# uniform time samples up to the last window end for a field known only
# through its callable
_FIELD_SAMPLES = 513


@dataclass(frozen=True)
class Piece:
    """One analytic piece, active from ``start`` until the next piece.

    Parameter conventions:
      constant:    (value,)
      sinusoid:    (amplitude, frequency, phase, offset), evaluated in
                   absolute time as offset + amplitude*sin(2*pi*frequency*t + phase)
      exp_decay:   (amplitude, rate, offset), evaluated in piece-local time
                   as offset + amplitude*exp(-rate*(t - start))
      polynomial:  (c0, c1, ...), sum of ck*(t - start)**k
    """

    start: float
    kind: str
    params: tuple

    def __post_init__(self):
        if self.kind not in PIECE_KINDS:
            raise ValueError(f"unknown piece kind {self.kind!r}")
        want = _ARITY.get(self.kind)
        if want is not None and len(self.params) != want:
            raise ValueError(f"{self.kind} takes {want} parameters, got {len(self.params)}")
        if self.kind == "polynomial" and len(self.params) == 0:
            raise ValueError("polynomial needs at least one coefficient")
        if not all(math.isfinite(float(v)) for v in self.params):
            raise ValueError("piece parameters must be finite")
        if not (math.isfinite(self.start) and self.start >= 0):
            raise ValueError("piece start must be finite and nonnegative")

    def eval(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "constant":
            out = np.full_like(t, float(self.params[0]))
        elif self.kind == "sinusoid":
            amp, freq, phase, off = (float(v) for v in self.params)
            out = off + amp * np.sin(2.0 * np.pi * freq * t + phase)
        elif self.kind == "exp_decay":
            amp, rate, off = (float(v) for v in self.params)
            out = off + amp * np.exp(-rate * (t - self.start))
        else:
            tau = t - self.start
            out = np.zeros_like(t)
            for k, ck in enumerate(self.params):
                out = out + float(ck) * tau**k
        return out


class TimeSignal:
    """Piecewise analytic signal on t >= 0, right-continuous at breakpoints."""

    def __init__(self, pieces: Sequence[Piece]):
        pieces = tuple(pieces)
        if not pieces:
            raise ValueError("signal needs at least one piece")
        if pieces[0].start != 0.0:
            raise ValueError("first piece must start at t = 0")
        starts = [p.start for p in pieces]
        if any(b - a <= 0 for a, b in zip(starts, starts[1:])):
            raise ValueError("piece starts must be strictly increasing")
        self.pieces = pieces
        self._starts = starts

    @classmethod
    def constant(cls, value):
        return cls([Piece(0.0, "constant", (float(value),))])

    @classmethod
    def sinusoid(cls, amplitude, frequency, phase=0.0, offset=0.0):
        return cls([Piece(0.0, "sinusoid",
                          (float(amplitude), float(frequency), float(phase), float(offset)))])

    @classmethod
    def exp_decay(cls, amplitude, rate, offset=0.0):
        return cls([Piece(0.0, "exp_decay", (float(amplitude), float(rate), float(offset)))])

    @classmethod
    def polynomial(cls, *coeffs):
        return cls([Piece(0.0, "polynomial", tuple(float(c) for c in coeffs))])

    def piece_index(self, t):
        # last piece whose start is <= t
        return max(bisect.bisect_right(self._starts, float(t)) - 1, 0)

    def __call__(self, t):
        t_arr = np.asarray(t, dtype=float)
        if np.any(t_arr < 0):
            raise ValueError("signals are defined for t >= 0")
        if t_arr.ndim == 0:
            return float(self.pieces[self.piece_index(float(t_arr))].eval(t_arr))
        out = np.empty_like(t_arr)
        edges = self._starts[1:] + [np.inf]
        for piece, hi in zip(self.pieces, edges):
            mask = (t_arr >= piece.start) & (t_arr < hi)
            if mask.any():
                out[mask] = piece.eval(t_arr[mask])
        return out


def _critical_times(piece: Piece, a: float, b: float) -> list:
    """Times inside [a, b] where |piece| can peak: sinusoid crests and
    troughs, and the real parts of the roots of a polynomial's derivative
    (extra candidates never lower the sup).  Constant and exp_decay
    pieces are monotone, so they have none."""
    if piece.kind == "sinusoid":
        amp, freq, phase, _ = (float(v) for v in piece.params)
        if freq == 0.0 or amp == 0.0:
            return []
        # 2*pi*freq*t + phase = pi/2 + k*pi
        w = 2.0 * math.pi * freq
        k_a, k_b = sorted(((w * a + phase - math.pi / 2.0) / math.pi,
                           (w * b + phase - math.pi / 2.0) / math.pi))
        return [(math.pi / 2.0 + k * math.pi - phase) / w
                for k in range(math.ceil(k_a), math.floor(k_b) + 1)]
    if piece.kind == "polynomial":
        roots = np.polynomial.Polynomial(piece.params).deriv().trim().roots()
        return [t for t in (piece.start + roots.real).tolist() if a < t < b]
    return []


def _running_max(times, values, ends):
    """max of values over the entries with times <= e, for each e in ends."""
    order = np.argsort(times, kind="stable")
    running = np.maximum.accumulate(values[order])
    return running[np.searchsorted(times[order], ends, side="right") - 1]


def _window_sups(sig: TimeSignal, t0: float, ends: np.ndarray) -> np.ndarray:
    """Sup of |sig| over the closed window [t0, e] for each e >= t0 in ends."""
    horizon = float(np.max(ends))
    times, values = [], []
    for piece, nxt in zip(sig.pieces, sig._starts[1:] + [math.inf]):
        a, b = max(t0, piece.start), min(horizon, nxt)
        # a piece that ends where the window starts does not reach into it
        if a > b or nxt <= t0:
            continue
        cand = np.concatenate(([a, b], _critical_times(piece, a, b),
                               ends[(ends > a) & (ends < b)]))
        times.append(cand)
        values.append(np.abs(piece.eval(cand)))
    return _running_max(np.concatenate(times), np.concatenate(values), ends)


def sup_window(sig: TimeSignal, t0: float, t1):
    """Sup of |sig| over the closed window [t0, t1], exact for every piece kind.

    |sig| peaks on each piece at a window end, a piece end, or one of the
    piece's critical times (:func:`_critical_times`); the sup is the
    largest of those values.  An array of window ends t1 gives the array
    of sups over [t0, t1_i], as for :func:`sup_field`.
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
        times = np.union1d(np.linspace(t0, flat.max(), _FIELD_SAMPLES), flat)
        values = np.asarray([np.max(np.abs(fld(space, t))) for t in times.tolist()])
        best = _running_max(times, values, flat)
    return float(best[0]) if ends.ndim == 0 else best


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
