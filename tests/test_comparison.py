"""Tests for monotone maps and their inversion."""

import numpy as np
import pytest

from isscert.comparison import (MonotoneFn, identity_map, invert_monotone,
                                linear_map, odd_cubic_map, power_map)


def test_monotone_construction_rejects_decreasing():
    with pytest.raises(ValueError):
        MonotoneFn(lambda v: -np.asarray(v, dtype=float), domain=(0.0, 1.0))


def test_monotone_construction_rejects_flat():
    with pytest.raises(ValueError):
        MonotoneFn(lambda v: np.zeros_like(np.asarray(v, dtype=float)),
                   domain=(0.0, 1.0))


def test_monotone_construction_rejects_square_on_signed_domain():
    # v**2 turns around at the origin
    with pytest.raises(ValueError):
        MonotoneFn(lambda v: np.asarray(v, dtype=float) ** 2, domain=(-1.0, 1.0))


def test_class_k_requires_zero_at_zero():
    with pytest.raises(ValueError):
        MonotoneFn(lambda v: np.asarray(v, dtype=float) + 1.0, domain=(0.0, 1.0))
    with pytest.raises(ValueError):
        MonotoneFn(lambda v: np.asarray(v, dtype=float), domain=(1.0, 2.0))


def test_bad_domain_rejected():
    with pytest.raises(ValueError):
        MonotoneFn(lambda v: v, domain=(1.0, 1.0))
    with pytest.raises(ValueError):
        MonotoneFn(lambda v: v, domain=(0.0, np.inf))


def test_map_factories():
    ident = identity_map()
    assert ident(0.7) == 0.7
    assert ident(0.0) == 0.0

    lin = linear_map(2.5)
    assert lin(2.0) == 5.0
    with pytest.raises(ValueError):
        linear_map(-1.0)

    cub = odd_cubic_map(1.0)
    assert cub(2.0) == pytest.approx(10.0, rel=1e-15)
    assert cub(-2.0) == pytest.approx(-10.0, rel=1e-15)
    with pytest.raises(ValueError):
        odd_cubic_map(-0.1)

    pw = power_map(3.0, coef=2.0)
    assert pw(2.0) == pytest.approx(16.0, rel=1e-15)
    with pytest.raises(ValueError):
        power_map(0.0)


def test_invert_cube_root():
    f = power_map(3.0)
    x = invert_monotone(f, 8.0, 0.0, 10.0, 1e-10)
    assert abs(x - 2.0) < 1e-9


def test_invert_identity():
    assert invert_monotone(identity_map(), 0.7, -1.0, 1.0, 1e-10) == pytest.approx(0.7, abs=1e-10)


def test_invert_cubic_reaction_values():
    # v + v^3 = 2 has the exact root 1; v + 2v^3 = 2 does not.
    x1 = invert_monotone(odd_cubic_map(1.0), 2.0, 0.0, 10.0, 1e-10)
    assert abs(x1 - 1.0) < 1e-9
    x2 = invert_monotone(odd_cubic_map(2.0), 2.0, 0.0, 10.0, 1e-10)
    assert x2 == pytest.approx(0.835122348481, abs=1e-9)


def test_invert_bracket_error():
    f = power_map(2.0)
    with pytest.raises(ValueError, match="outside"):
        invert_monotone(f, 100.0, 0.0, 3.0, 1e-10)


def test_invert_round_trip_random(rng):
    f = odd_cubic_map(0.7)
    for _ in range(100):
        y = rng.uniform(0.0, float(f(50.0)))
        x = invert_monotone(f, y, 0.0, 50.0, 1e-10)
        assert abs(float(f(x)) - y) <= 2e-10
