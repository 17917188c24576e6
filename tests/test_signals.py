"""Tests for time signals, space-time fields, and sup-norm queries."""

import math

import numpy as np
import pytest

from isscert.config import _LEAVES, _leaf
from isscert.fields import Grid
from isscert.signals import (SpaceTimeField, TimeSignal, profile_affine,
                             profile_bump, profile_constant, profile_poly,
                             profile_sin, profile_sum, profile_sinprod,
                             signal_range, sup_field, sup_window)
from isscert.signals import _critical_times


def test_signal_validation():
    with pytest.raises(ValueError, match="unknown signal kind"):
        TimeSignal("triangle", (1.0,))
    with pytest.raises(ValueError, match="takes 1 parameters"):
        TimeSignal("constant", (1.0, 2.0))
    with pytest.raises(ValueError, match="at least one coefficient"):
        TimeSignal("polynomial", ())
    with pytest.raises(ValueError, match="finite"):
        TimeSignal("constant", (float("nan"),))
    with pytest.raises(ValueError, match="finite"):
        TimeSignal.sinusoid(1.0, math.inf)


def test_signal_factories():
    assert TimeSignal.constant(0.4)(3.7) == 0.4
    sig = TimeSignal.sinusoid(0.3, 1.0)
    assert sig(0.25) == pytest.approx(0.3, rel=1e-12)
    dec = TimeSignal.exp_decay(2.0, 1.0, offset=0.5)
    assert dec(0.0) == pytest.approx(2.5, rel=1e-12)
    assert dec(1.0) == pytest.approx(0.5 + 2.0 / math.e, rel=1e-12)
    poly = TimeSignal.polynomial(1.0, 2.0, 3.0)
    assert poly(2.0) == pytest.approx(1.0 + 4.0 + 12.0, rel=1e-12)


def test_signal_rejects_negative_time():
    sig = TimeSignal.constant(1.0)
    with pytest.raises(ValueError):
        sig(-0.1)


def test_signal_vectorized_matches_scalar():
    ts = np.linspace(0.0, 4.0, 37)
    for sig in (TimeSignal.constant(0.3), TimeSignal.sinusoid(1.0, 0.5),
                TimeSignal.exp_decay(2.0, 0.7, offset=0.1),
                TimeSignal.polynomial(3.0, -1.0, 0.25)):
        vec = sig(ts)
        scal = np.array([sig(float(t)) for t in ts])
        np.testing.assert_allclose(vec, scal, rtol=1e-14)


# ---------------------------------------------------------------------------
# sup over windows


def test_sup_window_constant():
    assert sup_window(TimeSignal.constant(-0.7), 5.0) == 0.7


def test_sup_window_sinusoid_hits_peak():
    sig = TimeSignal.sinusoid(0.3, 1.0)
    # window contains the quarter-period peak
    assert sup_window(sig, 1.0) == pytest.approx(0.3, abs=1e-8)
    # window strictly before the peak: endpoint value wins
    assert sup_window(sig, 0.1) == pytest.approx(
        0.3 * math.sin(2.0 * math.pi * 0.1), abs=1e-8)


def test_sup_window_exp_decay_left_endpoint():
    sig = TimeSignal.exp_decay(4.0, 2.0)
    assert sup_window(sig, 3.0) == 4.0


def test_signal_range_is_exact():
    # 1 - 0.5 sin(4 pi t) is 1 at t = 0, 0.5 and 5 but spans [0.5, 1.5]
    assert signal_range(TimeSignal.sinusoid(-0.5, 2.0, offset=1.0), 5.0) == (0.5, 1.5)
    # no crest before t = 0.1
    lo, hi = signal_range(TimeSignal.sinusoid(1.0, 1.0), 0.1)
    assert (lo, hi) == (0.0, math.sin(2.0 * math.pi * 0.1))
    # 4t - 4t^2 peaks at 1 inside [0, 2] and ends at -8
    assert signal_range(TimeSignal.polynomial(0.0, 4.0, -4.0), 2.0) == (-8.0, 1.0)
    assert signal_range(TimeSignal.exp_decay(2.0, 1.0, offset=-1.0), 3.0) == (
        -1.0 + 2.0 * math.exp(-3.0), 1.0)
    assert signal_range(TimeSignal.constant(-0.2), 1.0) == (-0.2, -0.2)


def test_sup_window_polynomial_is_exact():
    # 4t - 4t^2 peaks at 1.0 at t = 0.5; sampling found 0.99999994 here
    sig = TimeSignal.polynomial(0.0, 4.0, -4.0)
    assert sup_window(sig, 1.0) == 1.0
    assert sup_window(sig, 0.9) == 1.0
    # a cubic with interior extrema at t = 1 and t = 3 on [0, 4]
    cubic = TimeSignal.polynomial(0.0, 3.0, -2.0, 1.0 / 3.0)
    assert sup_window(cubic, 2.0) == pytest.approx(4.0 / 3.0, rel=1e-14)


def test_sup_window_negative_frequency_hits_peak():
    # sin(-2 pi t) reaches -1 at t = 0.25 inside [0, 1]
    assert sup_window(TimeSignal.sinusoid(1.0, -1.0), 1.0) == 1.0


def test_sup_window_rejects_reversed():
    with pytest.raises(ValueError, match="need window ends t >= 0"):
        sup_window(TimeSignal.constant(1.0), -0.5)
    with pytest.raises(ValueError, match="need window ends t >= 0"):
        signal_range(TimeSignal.constant(1.0), [])


# one of each kind, with interior extrema where the kind has them
RANGE_SIGNALS = {
    "constant": TimeSignal.constant(-0.3),
    "sinusoid": TimeSignal.sinusoid(0.8, 1.3, phase=0.4, offset=0.1),
    "sinusoid_negative_frequency": TimeSignal.sinusoid(1.1, -0.9, phase=2.0),
    "sinusoid_zero_amplitude": TimeSignal.sinusoid(0.0, 2.0, offset=-0.5),
    "exp_decay": TimeSignal.exp_decay(-1.5, 0.7, offset=0.4),
    # 3t - 2t^2 + t^3/3 has interior extrema at t = 1 and t = 3
    "polynomial": TimeSignal.polynomial(0.0, 3.0, -2.0, 1.0 / 3.0),
}
RANGE_ENDS = np.array([0.0, 0.05, 0.4, 0.4, 1.0, 1.7, 2.5, 3.0, 3.9])


@pytest.mark.parametrize("name", sorted(RANGE_SIGNALS))
def test_signal_range_of_an_array_has_the_bits_of_each_end(name):
    sig = RANGE_SIGNALS[name]
    lo, hi = signal_range(sig, RANGE_ENDS)
    assert lo.shape == hi.shape == RANGE_ENDS.shape
    for e, lo_e, hi_e in zip(RANGE_ENDS.tolist(), lo, hi):
        assert signal_range(sig, e) == (lo_e, hi_e)
    assert np.all(np.diff(lo) <= 0.0) and np.all(np.diff(hi) >= 0.0)


@pytest.mark.parametrize("frequency", [1.0e4, -1.0e4])
def test_sinusoid_candidates_do_not_grow_with_frequency(frequency):
    # every crest and trough in [0, 2] would be 40 000 candidates
    assert len(_critical_times(TimeSignal.sinusoid(0.1, frequency, 0.3), 2.0)) == 2


def _range_over_every_crest(sig, ends):
    """signal_range with every crest and trough in the window as a candidate."""
    amp, freq, phase, _ = sig.params
    horizon = float(ends.max())
    w = 2.0 * math.pi * freq
    k_a, k_b = sorted(((phase - math.pi / 2.0) / math.pi,
                       (w * horizon + phase - math.pi / 2.0) / math.pi))
    crests = [(math.pi / 2.0 + k * math.pi - phase) / w
              for k in range(math.ceil(k_a), math.floor(k_b) + 1)] if amp else []
    cand = np.concatenate(([0.0, horizon], crests, ends[(ends > 0.0) & (ends < horizon)]))
    order = np.argsort(cand, kind="stable")
    vals = sig._eval(cand)[order]
    at = np.searchsorted(cand[order], ends, side="right") - 1
    return np.minimum.accumulate(vals)[at], np.maximum.accumulate(vals)[at]


def test_sinusoid_range_has_the_bits_of_every_crest():
    rng = np.random.default_rng(7)
    for _ in range(300):
        freq = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-2.0, 3.0)
        sig = TimeSignal.sinusoid(rng.uniform(-2.0, 2.0), freq, rng.uniform(-7.0, 7.0),
                                  rng.uniform(-1.0, 1.0))
        ends = np.sort(rng.uniform(0.0, 10.0 ** rng.uniform(-2.0, 1.0), 9))
        for got, want in zip(signal_range(sig, ends), _range_over_every_crest(sig, ends)):
            assert np.array_equal(got, want)


@pytest.mark.parametrize("name", sorted(RANGE_SIGNALS))
def test_signal_range_brackets_a_dense_sample_and_is_attained(name):
    sig = RANGE_SIGNALS[name]
    for e in RANGE_ENDS[1:].tolist():
        lo, hi = signal_range(sig, e)
        dense = sig(np.linspace(0.0, e, 20001))
        assert lo <= dense.min() and dense.max() <= hi
        # both are values of the signal in [0, e]: the sample point nearest
        # an interior extremum misses it by at most max|sig''| * step**2 / 8
        step = e / 20000
        assert dense.min() - lo <= 50.0 * step**2 + 1e-12
        assert hi - dense.max() <= 50.0 * step**2 + 1e-12


@pytest.mark.parametrize("name", sorted(RANGE_SIGNALS))
def test_sup_field_is_the_larger_magnitude_of_the_range(name):
    y = np.linspace(0.0, 1.0, 33)
    for fld in (SpaceTimeField.from_signal(RANGE_SIGNALS[name]),
                SpaceTimeField.separable(profile_affine(-0.5, 1.5), RANGE_SIGNALS[name])):
        lo, hi = fld.bind(y).range(RANGE_ENDS)
        sups = sup_field(fld, y, RANGE_ENDS)
        assert np.array_equal(sups, np.maximum(np.abs(lo), np.abs(hi)))
        assert not np.any(np.signbit(sups))
    assert np.array_equal(sup_window(RANGE_SIGNALS[name], RANGE_ENDS),
                          sup_field(SpaceTimeField.from_signal(RANGE_SIGNALS[name]), None,
                                    RANGE_ENDS))


# ---------------------------------------------------------------------------
# space-time fields


def test_field_constant_and_from_signal():
    fld = SpaceTimeField.constant(2.5)
    y = np.linspace(0.0, 1.0, 11)
    np.testing.assert_array_equal(fld(y, 0.7), np.full(11, 2.5))

    sig = TimeSignal.sinusoid(1.0, 1.0)
    uni = SpaceTimeField.from_signal(sig)
    np.testing.assert_allclose(uni(y, 0.25), np.ones(11), rtol=1e-12)


def test_field_separable_records_parts():
    prof = profile_bump(1.0, 0.5, 0.25)
    sig = TimeSignal.exp_decay(1.0, 1.0)
    fld = SpaceTimeField.separable(prof, sig)
    assert fld.profile is prof and fld.signal is sig
    assert fld(np.array([0.5]), 0.0)[0] == pytest.approx(prof(0.5), rel=1e-12)
    y = np.linspace(0.0, 1.0, 9)
    np.testing.assert_array_equal(fld(y, 0.3), prof(y) * sig(0.3))
    uniform = SpaceTimeField.from_signal(sig)
    assert uniform.profile is None and uniform.signal is sig


def test_field_signal_must_be_a_time_signal():
    with pytest.raises(TypeError, match="must be a TimeSignal, got function"):
        SpaceTimeField(lambda y, t: np.sin(y + t))


def test_sup_field_uniform_matches_sup_window():
    sig = TimeSignal.sinusoid(0.3, 2.0, offset=0.1)
    fld = SpaceTimeField.from_signal(sig)
    y = np.linspace(0.0, 1.0, 33)
    assert sup_field(fld, y, 1.0) == sup_window(sig, 1.0)


def test_sup_field_separable_shortcut_matches_bruteforce():
    prof = profile_sin(2.0, mode=1)
    sig = TimeSignal.sinusoid(1.0, 1.0, offset=0.2)
    fld = SpaceTimeField.separable(prof, sig)
    y = np.linspace(0.0, 1.0, 65)
    exact = sup_field(fld, y, 2.0)
    dense = max(float(np.max(np.abs(fld(y, t)))) for t in np.linspace(0.0, 2.0, 4001))
    assert exact >= dense
    assert exact - dense <= 1e-4


def test_field_range_is_the_extreme_products_of_extremes():
    sig = TimeSignal.sinusoid(1.0, 0.5, offset=0.3)
    y = np.linspace(0.0, 1.0, 33)
    # uniform: the signal's own range over [0, 1.5]
    assert SpaceTimeField.from_signal(sig).bind(y).range(1.5) == signal_range(sig, 1.5)
    # the profile spans [-0.5, 1] and the signal [-0.7, 1.3]: the least of
    # 1 * -0.7 and -0.5 * 1.3, the largest of 1 * 1.3 and -0.5 * -0.7
    fld = SpaceTimeField.separable(profile_affine(-0.5, 1.5), sig)
    low, high = fld.bind(y).range(1.5)
    assert low == pytest.approx(-0.7, rel=1e-12)
    assert high == pytest.approx(1.3, rel=1e-12)
    values = np.array([fld(y, t) for t in np.linspace(0.0, 1.5, 3001)])
    assert low <= values.min() <= low + 1e-5
    assert high - 1e-5 <= values.max() <= high


# ---------------------------------------------------------------------------
# profiles


def test_profile_bump_support_and_peak():
    bump = profile_bump(2.0, 0.5, 0.25)
    assert bump(0.5) == pytest.approx(2.0, rel=1e-12)
    assert bump(0.2) == 0.0
    assert bump(0.8) == 0.0
    assert bump(0.25) == 0.0  # closed support edge
    ys = np.linspace(0.0, 1.0, 101)
    vals = np.array([bump(y) for y in ys])
    assert np.max(vals) <= 2.0 + 1e-12


def test_profile_basics():
    assert profile_constant(1.5)(0.3) == 1.5
    assert profile_affine(1.0, 2.0)(0.5) == 2.0
    assert profile_sin(3.0, mode=2)(0.25) == pytest.approx(3.0, rel=1e-12)
    assert profile_poly(1.0, 0.0, 1.0)(2.0) == pytest.approx(5.0, rel=1e-12)
    total = profile_sum(profile_constant(0.2), profile_sin(3.0, mode=1))
    assert total(0.5) == pytest.approx(3.2, rel=1e-12)


def test_profile_2d():
    const = profile_constant(0.7)
    X, Y = np.meshgrid(np.linspace(0, 1, 5), np.linspace(0, 1, 5),
                       indexing="ij")
    np.testing.assert_array_equal(const((X, Y)), np.full((5, 5), 0.7))
    sp = profile_sinprod(2.0, mode_x=1, mode_y=1)
    assert sp((np.array([[0.5]]), np.array([[0.5]])))[0, 0] == pytest.approx(
        2.0, rel=1e-12)


# ---------------------------------------------------------------------------
# fields bound to fixed points, as the steppers use them

# a value for every key the config's signal and profile kinds take
LEAF_VALUES = {"value": 0.7, "amplitude": 1.3, "frequency": 1.7, "phase": 0.4,
               "offset": 0.1, "rate": 0.8, "coeffs": [0.2, -0.5, 0.9, 1.1],
               "intercept": 0.3, "slope": -0.6, "mode": 2, "center": 0.4,
               "halfwidth": 0.3, "mode_x": 1, "mode_y": 2}
TERMS = {1: [{"kind": "sin", "amplitude": 1.0}, {"kind": "constant", "value": 0.2}],
         2: [{"kind": "sinprod", "amplitude": 1.0}, {"kind": "constant", "value": 0.2}]}


def leaf(family, kind, dim=1):
    """The config leaf of a kind, every key given a value."""
    _, keys = _LEAVES[family][kind]
    spec = {"kind": kind, **{k: TERMS[dim] if k == "terms" else LEAF_VALUES[k]
                             for k in keys}}
    return _leaf(spec, "x", "profile" if family == "2D profile" else family, dim)


def stepper_point_sets(dim):
    """Point sets of each kind the steppers bind fields to: nodes, faces
    and boundary points or edges."""
    if dim == 1:
        y = Grid(16).points()
        return [y, 0.5 * (y[:-1] + y[1:]), 0.0, 1.0]
    X, Y = Grid(8, 10).points()
    xs, ys = X[:, 0], Y[0, :]
    xf = 0.5 * (xs[:-1] + xs[1:])
    return [(X, Y), np.broadcast_arrays(xf[None, :], ys[1:-1, None]),
            (0.0, ys[1:-1]), (xs, 1.0)]


def stepper_times(dt=0.002, steps=60):
    t, times = 0.0, [0.0]
    for _ in range(steps):
        t += dt
        times.append(t)
    return times


def bits(x):
    """The IEEE bits of a float or float array, so -0.0 differs from 0.0."""
    return np.asarray(x, dtype=float).view(np.uint64)


# signals outside the config leaves' corner: negative frequencies, phases
# past 2*pi, and decay rates large enough to underflow or growing
FLOAT_PATH_SIGNALS = {
    "sinusoid_negative_frequency": TimeSignal.sinusoid(1.3, -1.7, 0.4, 0.1),
    "sinusoid_fast": TimeSignal.sinusoid(-2.5, 123.4, -7.0, 0.3),
    "sinusoid_slow_negative_frequency": TimeSignal.sinusoid(0.7, -0.013, 0.0, -1e-3),
    "exp_decay_fast": TimeSignal.exp_decay(1.3, 250.0, 0.1),
    "exp_decay_underflowing": TimeSignal.exp_decay(-0.7, 1e4, -0.2),
    "exp_decay_growing": TimeSignal.exp_decay(0.5, -0.01, 0.0),
}


@pytest.mark.parametrize("signal_kind", sorted(_LEAVES["signal"]) + list(FLOAT_PATH_SIGNALS))
def test_signal_float_path_matches_array_evaluation(signal_kind):
    sig = FLOAT_PATH_SIGNALS.get(signal_kind) or leaf("signal", signal_kind)
    # a stepper's accumulated times, and times up to 1e4 where the phase's
    # rounding is coarse
    times = stepper_times() + np.geomspace(1e-6, 1e4, 400).tolist() + [-0.0]
    got = [sig(t) for t in times]
    assert all(type(v) is float for v in got)
    assert np.array_equal(bits(got), bits(sig(np.array(times))))


@pytest.mark.parametrize("signal_kind", sorted(_LEAVES["signal"]))
@pytest.mark.parametrize("dim,profile_kind",
                         [(1, None)] + [(1, k) for k in sorted(_LEAVES["profile"])]
                         + [(2, k) for k in sorted(_LEAVES["2D profile"])])
def test_bound_field_is_profile_times_signal(signal_kind, dim, profile_kind):
    # the definition, profile(y) * signal(t) evaluated anew at every time,
    # against a field bound to the points once
    sig = leaf("signal", signal_kind)
    if profile_kind is None:
        fld = SpaceTimeField.from_signal(sig)
    else:
        fld = SpaceTimeField.separable(
            leaf("2D profile" if dim == 2 else "profile", profile_kind, dim), sig)
    for y in stepper_point_sets(dim):
        bound = fld.bind(y)
        for t in stepper_times():
            if fld.profile is None:
                want = np.full(np.broadcast(*y).shape if isinstance(y, tuple) else np.shape(y),
                               sig(t))
            else:
                want = fld.profile(y) * sig(t)
            got = bound(t)
            if np.ndim(want) == 0:
                assert type(got) is float and got == float(want)
            else:
                assert got.dtype == float and np.array_equal(got, want)
            assert np.array_equal(fld(y, t), got)


@pytest.mark.parametrize("dim,profile_kind",
                         [(1, None)] + [(1, k) for k in sorted(_LEAVES["profile"])]
                         + [(2, k) for k in sorted(_LEAVES["2D profile"])])
def test_constant_bound_field_is_evaluated_once_and_read_only(dim, profile_kind):
    # a constant signal's field is the same at every t: bind evaluates it
    # once, and every call returns that value, with the bits of the
    # definition and of a field bound anew
    sig = TimeSignal.constant(-0.35)
    if profile_kind is None:
        fld = SpaceTimeField.from_signal(sig)
    else:
        fld = SpaceTimeField.separable(
            leaf("2D profile" if dim == 2 else "profile", profile_kind, dim), sig)
    for y in stepper_point_sets(dim):
        bound = fld.bind(y)
        first = bound(0.0)
        for t in stepper_times() + [1e4]:
            got = bound(t)
            want = (np.full(np.broadcast(*y).shape if isinstance(y, tuple) else np.shape(y),
                            -0.35) if fld.profile is None else fld.profile(y) * -0.35)
            assert np.array_equal(bits(got), bits(want))
            assert np.array_equal(bits(got), bits(fld(y, t)))
            if np.ndim(want) == 0:
                assert type(got) is float
            else:
                assert got is first and not got.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    got[...] = 0.0
        with pytest.raises(ValueError, match="t >= 0"):
            bound(-1e-3)
