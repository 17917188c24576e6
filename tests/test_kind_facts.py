"""The facts each config map and speed kind declares, which the scenarios
read instead of sampling the law, checked on the kind's float values.

A map kind declares slope and gamma: it is v -> slope*v + gamma*v**3, odd,
of the sign of v, nondecreasing, and of secant slope at least slope.  A
speed kind declares sup: it is even and nonincreasing in |s|, so sup is
speed(0).  Every kind of the leaf table is drawn, with its arguments.
"""

import sys
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from isscert.config import _LEAVES

# the arguments of the kinds, over a wide part of the ranges a config accepts
ARGS = {"slope": st.floats(2.0**-30, 2.0**600), "gamma": st.floats(0.0, 2.0**600),
        "value": st.floats(2.0**-1000, 2.0**1000),
        "scale": st.floats(0.0, sys.float_info.max)}
# states out to where v*v overflows: the cubic's results overflow to inf
# well inside this range; cubic(0) is checked on every float below
STATES = st.floats(-(2.0**511), 2.0**511)
MASSES = st.floats(allow_nan=False, allow_infinity=False)

# Each map kind is at most four correctly rounded operations (v*v, gamma*,
# 1.0 +, v*) on terms of one sign, so a computed value lies within
# (1 + 2^-53)^4 - 1 < 4.01*2^-53 of the exact one, relative to it; 2^-50,
# relative to the computed value, covers that.  Where a result is
# subnormal, a rounding adds at most 2^-1075 more, and 2^-1074 covers the
# two that reach the result.
REL, ABS = Fraction(2) ** -50, Fraction(2) ** -1074

FAST = settings(max_examples=150, derandomize=True, deadline=None)


def kinds(family):
    """A leaf of family: a kind of its table, built from drawn arguments."""
    def build(kind):
        make, keys = _LEAVES[family][kind]
        return st.tuples(*(ARGS[key] for key in keys)).map(lambda args: make(*args))
    return st.sampled_from(sorted(_LEAVES[family])).flatmap(build)


def exact_map(law, v):
    """slope*v + gamma*v**3 of the law's declared facts, in fractions."""
    v = Fraction(v)
    return Fraction(law.slope) * v + Fraction(law.gamma) * v**3


@FAST
@given(law=kinds("map"), u=STATES, v=STATES)
def test_map_kinds_are_odd_of_the_sign_of_v_and_nondecreasing(law, u, v):
    with np.errstate(over="ignore"):
        fu, fv = law(u), law(v)
        # v + 0.0 maps -0.0 to +0.0, so -f(v) and f(-v) compare equal, not bitwise
        assert law(-v) == -fv
    assert (fv >= 0.0) if v >= 0.0 else (fv <= 0.0)
    assert (fu <= fv) if u <= v else (fu >= fv)


@FAST
@given(law=kinds("map"), u=STATES, v=STATES)
def test_map_kinds_have_their_declared_values_and_least_slope(law, u, v):
    with np.errstate(over="ignore"):
        fu, fv = law(u), law(v)
    finite = [(x, fx) for x, fx in ((u, fu), (v, fv)) if abs(fx) <= sys.float_info.max]
    for x, fx in finite:
        assert abs(Fraction(fx) - exact_map(law, x)) <= REL * abs(Fraction(fx)) + ABS
    if len(finite) == 2 and u != v:
        (u, fu), (v, fv) = sorted(finite)
        # the exact secant is slope + gamma*(u*u + u*v + v*v) >= slope
        rise = Fraction(fv) - Fraction(fu)
        assert rise >= Fraction(law.slope) * (Fraction(v) - Fraction(u)) \
            - REL * (abs(Fraction(fu)) + abs(Fraction(fv))) - 2 * ABS


@FAST
@given(v=st.floats(allow_nan=False))
def test_cubic_0_keeps_the_cubic_bits_and_stays_finite_past_them(v):
    # v*(1.0 + 0.0*(v*v)) once gave 0*inf = NaN past where v*v overflows
    law = _LEAVES["map"]["cubic"][0](0.0)
    state = np.array([v, -v])
    got = law(state)
    assert got.tobytes() == state.tobytes() and np.float64(law(v)).tobytes() == state[:1].tobytes()
    if abs(v) <= 2.0**511:
        assert got.tobytes() == (state * (1.0 + 0.0 * (state * state))).tobytes()
    assert (law.slope, law.gamma) == (1.0, 0.0)


@FAST
@given(speed=kinds("speed"), s=MASSES, t=MASSES)
def test_speed_kinds_are_even_and_nonincreasing_in_abs_with_their_sup_at_0(speed, s, t):
    with np.errstate(over="ignore"):
        vs, vt = float(speed(s)), float(speed(t))
        assert float(speed(-s)) == vs
        assert float(speed(0.0)) == speed.sup
    assert vs <= speed.sup
    assert (vs >= vt) if abs(s) <= abs(t) else (vs <= vt)
