"""Scaling covariance of the three classes, bit for bit at tol 0.

Each class has a map that takes one run to another run of the same class:

- transport: speed and floor s scale time by 1/s.  At CFL 1 the step is
  h/s, so the image stamps are the base stamps over s, the states are the
  base states, and the q-norm and energy routes read the same lhs and rhs.
- wave: speed c scales time by 1/c.  With s = c*t the equation becomes
  the c = 1 one with forcing f/c**2 and the same d, and w_t = c*w_s, so
  with zero forcing and initial data plus and minus are c times the c = 1
  pair at the same s.  Each wave bound is its c = 1 form at s times
  max(c, 1), which with zero forcing and initial data leaves max(c, 1)
  times the sup|d| term, so every rhs is max(c, 1) times the c = 1 rhs.
  The lhs |w_t|_q + |w_y|_q = c*|w_s|_q + |w_y|_q is not a multiple of
  the c = 1 lhs, but at q = 2 and inf it is at most max(c, 1) times it,
  to the bit: the norms scale exactly and rounding is monotone.
- parabolic (identity laws, so a linear class): every datum times a
  gives the state times a, and every bound's rhs, which is linear in the
  data, times a.

Every factor is a power of two, so each map commutes with rounding and the
images are exact, not approximate.
"""

import math

import numpy as np
import pytest

from isscert import cli
from isscert.certify import bound_wave_m, bound_wave_r_eps
from isscert.config import build_plan, load_config


def _transport(s):
    """k = -0.5, boundary data at frequency s/2, 128 cells at CFL 1."""
    return {"name": "scaled", "pde": "transport",
            "scenario": {"assumption": "uniform", "speed": {"kind": "constant", "value": s},
                         "speed_floor": s, "k": -0.5,
                         "boundary_data": {"kind": "sinusoid", "amplitude": 0.1,
                                           "frequency": s / 2},
                         "initial": {"kind": "bump", "amplitude": 1.0, "center": 0.4,
                                     "halfwidth": 0.2}},
            "grid": {"n": 128}, "solver": {"t_end": 4.0 / s, "cfl_sigma": 1.0},
            "checks": [{"kind": "transport_q", "q": 2}, {"kind": "transport_q", "q": "inf"},
                       {"kind": "transport_p", "q": 3, "p": 2.0, "r": 1.0}]}


def _wave(c):
    """Zero forcing and initial data, boundary data resonant at frequency c/4."""
    zero = {"kind": "constant", "value": 0.0}
    return {"name": "scaled", "pde": "wave",
            "scenario": {"c": c, "forcing": zero, "initial_displacement": zero,
                         "initial_velocity": zero,
                         "boundary_data": {"kind": "sinusoid", "amplitude": 0.4,
                                           "frequency": c / 4}},
            "grid": {"n": 100}, "solver": {"t_end": 8.0 / c, "cfl_sigma": 1.0},
            "checks": [{"kind": "wave_m", "q": 2, "m": 0.01},
                       {"kind": "wave_m", "q": "inf", "m": 0.01},
                       {"kind": "wave_r_eps", "q": 2, "r": 1.0, "eps": 0.25}]}


def _parabolic(a):
    """parabolic_demo with every datum times a and no energy section."""
    doc = load_config("parabolic_demo")
    scn = doc["scenario"]
    for key in ("forcing", "dirichlet_data", "flux_data"):
        scn[key]["value"] *= a
    for term, key in zip(scn["initial"]["terms"], ("value", "amplitude")):
        term[key] *= a
    del doc["energy"]
    return doc


def _run(doc):
    return cli.run_plan(build_plan(doc))


# each class's map at a factor: (time factor, state factor, bound factor,
# whether the lhs scales exactly); the run at the factor, its stamps times
# the time factor, is the run at 1 with its states times the state factor
# and its rhs times the bound factor, and its lhs is the bound factor times
# the run's lhs, exactly or (wave) at most
MAPS = {_transport: lambda s: (s, 1.0, 1.0, True),
        _wave: lambda c: (c, c, max(c, 1.0), False),
        _parabolic: lambda a: (1.0, a, a, True)}
CASES = ([(_transport, s) for s in (0.5, 2.0, 4.0)] + [(_wave, c) for c in (0.5, 2.0, 4.0)]
         + [(_parabolic, 2.0 ** j) for j in (-3, -1, 1, 2, 5)])


def _lhs_allowance(grid, q, scale):
    """The largest gap, in ulps, between the q-norm lhs of a run's image
    and scale times the run's lhs.

    The lhs is (integral of |w|**q)**(1/q).  Scaling w by a power of two
    scales every term by one too, so a correctly rounded power gives the
    scaled lhs to the bit; at q = 2 numpy squares exactly, q = inf is a
    max, and at scale 1 the image repeats the run's arithmetic.  At other q
    numpy's array power is faithful, not correctly rounded: each term lies
    within one ulp, relative 2u (u = 2**-53), of its exact value, so the
    image's terms lie within 4u of the scaled run's.  The trapezoid sums N
    positive terms less half its two end terms, at least half the sum, so to
    first order the exact sums lie within 8u of each other and each computed
    integral within 2(N - 1)u (the summation) plus 3u (the end terms, the
    difference and the step) of its exact sum: the two within (4N + 10)u.
    The q-th roots differ by 1/q of that, each root rounds once more by at
    most 2u, and an ulp of x is at least u*x: at most (4N + 10)/q + 4 ulps.
    """
    if scale == 1.0 or q in (2.0, math.inf):
        return 0.0
    return (4 * grid.npoints + 10) / q + 4


@pytest.mark.parametrize("build, factor", CASES,
                         ids=[f"{build.__name__[1:]}-x{factor:g}" for build, factor in CASES])
def test_a_run_and_its_scaled_image_agree_to_the_bit(build, factor):
    time, state, scale, exact = MAPS[build](factor)
    base, image = _run(build(1.0)), _run(build(factor))
    traj, itraj = base.traj, image.traj
    assert np.array_equal(itraj.times * time, traj.times)
    for name in traj.names:
        assert np.array_equal(itraj.states(name), state * traj.states(name))
    assert len(image.reports) == len(base.reports)
    for rep, irep in zip(base.reports, image.reports):
        assert np.array_equal(irep.rhs, scale * rep.rhs)
        gap = (irep.lhs - scale * rep.lhs) / np.spacing(scale * rep.lhs)
        assert (np.abs(gap) if exact else gap).max() <= _lhs_allowance(traj.grid, rep.q, scale)
        if build is _wave:  # every wave check passes at tol 0
            assert rep.tol == irep.tol == 0.0 and rep.violations == irep.violations == 0


@pytest.mark.parametrize("c", [0.125, 0.5, 2.0, 4.0, 16.0])
def test_each_wave_bound_is_its_unit_speed_form_under_the_speed_map(c):
    # at a power-of-two c every factor of the map is exact, so the bound at
    # c is max(c, 1) times the c = 1 bound at (c*t, max(1, 1/c)*init,
    # sup_f/c**2, sup_d), with the free parameter per unit time over c
    t = np.linspace(0.0, 7.0, 29)
    sup_f, sup_d = 0.3 * np.sqrt(t), 0.4 * np.minimum(t, 1.0)
    unit = (c * t, max(1.0, 1.0 / c) * 0.7, sup_f / c**2, sup_d, 1.0)
    for q in (2.0, 4.0, math.inf):
        assert np.array_equal(bound_wave_m(q, 0.5, t, 0.7, sup_f, sup_d, c),
                              max(c, 1.0) * bound_wave_m(q, 0.5 / c, *unit))
    for q in (2.0, 4.0, 50.0):
        assert np.array_equal(bound_wave_r_eps(q, 20.0, 0.25, t, 0.7, sup_f, sup_d, c),
                              max(c, 1.0) * bound_wave_r_eps(q, 20.0, 0.25 / c, *unit))
