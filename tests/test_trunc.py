"""Tests for the truncation pair and its inequality calculus.

The gap properties G4-G8 are checked on seeded random samples; the
identities are checked to near machine precision.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isscert.trunc import (GAP_PROPERTY_IDS, TruncationPair,
                           gronwall_envelope_at, property_sides,
                           young_epsilon_gap)

PS = (1.5, 2.0, 3.0, 5.0)


def test_pair_rejects_bad_exponent():
    for p in (1.0, 0.5, 0.0, -2.0):
        with pytest.raises(ValueError):
            TruncationPair(p)


def test_pointwise_values_p2():
    pair = TruncationPair(2.0)
    assert pair.g(2.0) == 4.0
    assert pair.G(2.0) == pytest.approx(8.0 / 3.0, rel=1e-15)
    # one-sided: both vanish on the negative axis
    assert pair.g(-1.0) == 0.0
    assert pair.G(-0.5) == 0.0
    assert pair.g(0.0) == 0.0
    assert pair.G(0.0) == 0.0


def test_vectorized_evaluation():
    pair = TruncationPair(1.5)
    s = np.array([-2.0, 0.0, 1.0, 4.0])
    np.testing.assert_allclose(pair.g(s), [0.0, 0.0, 1.0, 8.0], rtol=1e-14)
    assert pair.G(s).shape == s.shape


@pytest.mark.parametrize("p", PS)
def test_derivative_identity_and_scaling(p, rng):
    pair = TruncationPair(p)
    s = rng.uniform(0.01, 50.0, size=500)
    # g(s)*s = (p+1)*G(s)
    lhs = pair.g(s) * s
    rhs = (p + 1.0) * pair.G(s)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12)
    # G(m*s) = m**(p+1) * G(s)
    m = rng.uniform(0.1, 10.0, size=500)
    np.testing.assert_allclose(pair.G(m * s), m ** (p + 1.0) * pair.G(s),
                               rtol=1e-12)


@pytest.mark.parametrize("p", PS)
def test_monotonicity(p, rng):
    pair = TruncationPair(p)
    a = rng.uniform(-10.0, 10.0, size=2000)
    b = a + rng.uniform(0.0, 5.0, size=2000)
    assert np.all(pair.g(b) - pair.g(a) >= 0.0)
    assert np.all(pair.G(b) - pair.G(a) >= 0.0)


@pytest.mark.parametrize("p", PS)
@pytest.mark.parametrize("prop_id", sorted(GAP_PROPERTY_IDS))
def test_gap_properties_random(p, prop_id, rng):
    pair = TruncationPair(p)
    nargs = GAP_PROPERTY_IDS[prop_id]
    for _ in range(2000):
        args = rng.uniform(-8.0, 8.0, size=nargs)
        if prop_id == "G5":
            args[1] = abs(args[1])
        elif prop_id == "G7":
            args[2] = abs(args[2])
        elif prop_id == "G8":
            args[1] = abs(args[1])
            args[2] = rng.uniform(0.01, 4.0)
        lhs, rhs = property_sides(pair, prop_id, tuple(args))
        rel_gap = (rhs - lhs) / (1.0 + abs(lhs) + abs(rhs))
        assert rel_gap >= -1e-9, (prop_id, args, lhs, rhs)


def test_unknown_property_rejected():
    pair = TruncationPair(2.0)
    with pytest.raises((KeyError, ValueError)):
        property_sides(pair, "G99", (1.0, 1.0))


@given(s=st.floats(-20, 20), tau=st.floats(-20, 20))
@settings(max_examples=300, deadline=None)
def test_g4_hypothesis(s, tau):
    pair = TruncationPair(3.0)
    lhs, rhs = property_sides(pair, "G4", (s, tau))
    assert rhs - lhs >= -1e-9 * (1.0 + abs(lhs) + abs(rhs))


@given(s=st.floats(-20, 20), tau=st.floats(-20, 20))
@settings(max_examples=300, deadline=None)
def test_g6_hypothesis(s, tau):
    pair = TruncationPair(1.5)
    lhs, rhs = property_sides(pair, "G6", (s, tau))
    assert rhs - lhs >= -1e-9 * (1.0 + abs(lhs) + abs(rhs))


# ---------------------------------------------------------------------------
# Young split


def test_young_gap_exact_quadratic_case():
    # r=q=2, eps=0.5 makes the companion constant 0.5, so the gap is
    # 0.5*(a-b)^2 exactly.
    assert young_epsilon_gap(2.0, 2.0, 3.0, 3.0, 0.5) == pytest.approx(0.0, abs=1e-12)
    assert young_epsilon_gap(2.0, 2.0, 2.0, 1.0, 0.5) == pytest.approx(0.5, rel=1e-12)


def test_young_gap_nonnegative_random(rng):
    for _ in range(2000):
        r = rng.uniform(1.1, 6.0)
        q = r / (r - 1.0)
        a, b = rng.uniform(0.0, 20.0, size=2)
        eps = rng.uniform(0.05, 5.0)
        assert young_epsilon_gap(r, q, a, b, eps) >= 0.0


def test_young_rejects_non_conjugate_exponents():
    with pytest.raises(ValueError):
        young_epsilon_gap(2.0, 3.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        young_epsilon_gap(2.0, 2.0, -1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        young_epsilon_gap(2.0, 2.0, 1.0, 1.0, 0.0)


# ---------------------------------------------------------------------------
# Gronwall envelope


def test_gronwall_linear_oracle():
    # eta' = -eta + 1, eta(0) = 0  =>  eta(t) = 1 - exp(-t)
    dt = 1e-3
    n = 1001
    t = np.arange(n) * dt
    eta = gronwall_envelope_at(t, 1.0, np.ones(n), 0.0)
    np.testing.assert_allclose(eta, 1.0 - np.exp(-t), atol=1e-5)


def test_gronwall_zero_source_is_exponential():
    dt = 1e-3
    t = np.arange(501) * dt
    eta = gronwall_envelope_at(t, 2.0, np.zeros(t.size), 3.0)
    np.testing.assert_allclose(eta, 3.0 * np.exp(-2.0 * t), rtol=1e-5)


def test_gronwall_envelope_at_nonuniform_lattice():
    times = np.array([0.0, 0.05, 0.2, 0.35, 0.7, 1.0])
    eta = gronwall_envelope_at(times, 1.0, np.ones(times.size), 0.0)
    exact = 1.0 - np.exp(-times)
    np.testing.assert_allclose(eta, exact, atol=5e-3)
    assert eta[0] == 0.0


def test_gronwall_far_past_the_exponent_range_is_the_exact_trapezoid_solution():
    # rate*t_end = 2000 puts exp(rate*t) far past the floats (about 709.78).
    # With a constant psi on a uniform lattice the trapezoid recurrence
    # env' = a*env + (dt/2)*(1 + a)*psi, a = exp(-rate*dt), has the exact
    # solution env_i = s + (eta0 - s)*a**i with fixed point
    # s = (dt/2)*(1 + a)*psi/(1 - a); a few roundings a step, damped by a,
    # keep the computed envelope within a relative 1e-13 of it
    rate, dt, psi, eta0 = 1000.0, 1e-3, 2.5, 7.0
    t = np.arange(2001) * dt
    a = np.exp(-rate * dt)
    s = 0.5 * dt * (1.0 + a) * psi / (1.0 - a)
    exact = s + (eta0 - s) * a ** np.arange(t.size)
    env = gronwall_envelope_at(t, rate, np.full(t.size, psi), eta0)
    assert np.all(np.isfinite(env))
    np.testing.assert_allclose(env, exact, rtol=1e-13, atol=0.0)


def test_gronwall_envelope_past_the_floats_is_a_value_error():
    # a negative rate grows: exp(1000*t) leaves the floats, in the factor
    # at one step of 1 and in the product over many steps of 0.01
    for t in (np.array([0.0, 1.0]), np.arange(101) * 0.01):
        with pytest.raises(ValueError, match="the Gronwall envelope must be finite"):
            gronwall_envelope_at(t, -1000.0, np.ones(t.size), 1.0)


def test_gronwall_rejects_mismatched_lengths():
    with pytest.raises(ValueError):
        gronwall_envelope_at(0.1 * np.arange(4), 0.0, np.zeros(5), 0.0)
