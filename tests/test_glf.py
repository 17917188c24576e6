"""Tests for the truncation-energy functionals and decay reports."""

import math
from fractions import Fraction

import numpy as np
import pytest

from isscert.config import (_constant_speed as constant_speed, _cubic as cubic, _facts,
                            _identity as identity, _linear as linear,
                            _reciprocal_speed as reciprocal_speed)
from isscert.fields import Grid, Trajectory
from isscert.glf import (GlfSpec, components,
                         default_transport_rate, dissipation_rate,
                         dissipation_report, glf_for_parabolic,
                         glf_for_transport, glf_for_wave, invert_monotone,
                         local_speed_floor, series,
                         wave_forcing_slack, weighted_energy)
from isscert.signals import (SpaceTimeField, TimeSignal, profile_affine,
                             profile_constant)
from isscert.solvers import (ParabolicScenario, ScenarioError, SolverConfig,
                             TransportScenario, WaveScenario, solve_wave)
from isscert.trunc import TruncationPair

ONE = SpaceTimeField.constant(1.0)
ZERO = SpaceTimeField.constant(0.0)
GRID = Grid(16, layout="node")


def evaluate(state, grid, spec):
    """The functional for one state snapshot: the sum of its components."""
    return float(sum(components(state, grid, spec).values()))


def ending_at(t_end, pde="parabolic"):
    """A trajectory on GRID of zero states, stamped at 0 and t_end."""
    names = ("plus", "minus") if pde == "wave" else ("u",)
    traj = Trajectory(pde, GRID, names=names)
    for t in (0.0, t_end):
        traj.append(t, **{k: np.zeros_like(GRID.points()) for k in names})
    return traj


def make_parabolic(**over):
    base = dict(dim=1, a=ONE, a0=1.0, c=ONE, c0=1.0,
                reaction=cubic(1.0),
                boundary_reaction=cubic(1.0),
                f=SpaceTimeField.constant(2.0), d1=ZERO, d2=ZERO,
                w0=profile_constant(0.0), gamma1=("left", "right"),
                gamma2=())
    base.update(over)
    return ParabolicScenario(**base)


def make_transport(**over):
    base = dict(speed_map=constant_speed(1.0), assumption="decreasing", k=0.5,
                d=TimeSignal.constant(0.75), rho0=profile_constant(0.0),
                speed_floor=None)
    base.update(over)
    return TransportScenario(**base)


def make_wave(**over):
    base = dict(c=2.0, f=ZERO, d=TimeSignal.constant(0.8),
                w0=profile_constant(0.0), v0=profile_constant(0.0))
    base.update(over)
    return WaveScenario(**base)


# ---------------------------------------------------------------------------
# weighted energies


def test_weighted_energy_constant_exact():
    grid = Grid(64, layout="node")
    pair = TruncationPair(2.0)
    u = 2.0 * np.ones(grid.npoints)
    # G(2 - 1) = 1/3 over the unit interval
    assert weighted_energy(u, grid, pair, level=1.0) == pytest.approx(
        1.0 / 3.0, rel=1e-12)


def test_weighted_energy_exponential_weight():
    grid = Grid(512, layout="node")
    pair = TruncationPair(2.0)
    u = 2.0 * np.ones(grid.npoints)
    r = 1.5
    got = weighted_energy(u, grid, pair, rate=r, weight_sign=-1, level=1.0)
    want = (1.0 - math.exp(-r)) / (3.0 * r)
    assert got == pytest.approx(want, rel=1e-5)


def test_weighted_energy_zero_inside_band():
    grid = Grid(32, layout="node")
    pair = TruncationPair(2.0)
    u = 0.9 * np.sin(3.0 * grid.points())
    assert weighted_energy(u, grid, pair, level=1.0) == 0.0
    assert weighted_energy(u, grid, pair, shift_sign=-1, level=1.0) == 0.0


def test_weighted_energy_decreasing_in_level():
    grid = Grid(64, layout="node")
    pair = TruncationPair(2.0)
    u = 3.0 * np.ones(grid.npoints)
    vals = [weighted_energy(u, grid, pair, level=m) for m in (0.0, 1.0, 2.0)]
    assert vals[0] > vals[1] > vals[2] > 0.0


def test_weighted_energy_homogeneous_scaling():
    grid = Grid(64, layout="node")
    p = 3.0
    pair = TruncationPair(p)
    rng = np.random.default_rng(7)
    u = rng.uniform(0.0, 2.0, grid.npoints)
    base = weighted_energy(u, grid, pair)
    scaled = weighted_energy(5.0 * u, grid, pair)
    assert scaled == pytest.approx(5.0 ** (p + 1.0) * base, rel=1e-12)


def test_weighted_energy_validation():
    grid = Grid(16, layout="node")
    pair = TruncationPair(2.0)
    u = np.ones(grid.npoints)
    with pytest.raises(ValueError):
        weighted_energy(u, grid, pair, weight_sign=2)
    with pytest.raises(ValueError):
        weighted_energy(u, grid, pair, shift_sign=0)
    with pytest.raises(ValueError):
        weighted_energy(u, grid, pair, level=-1.0)
    g2 = Grid(8, 8)
    u2 = np.ones((9, 9))
    with pytest.raises(ValueError):
        weighted_energy(u2, g2, pair, rate=1.0, weight_sign=1)


# ---------------------------------------------------------------------------
# functional evaluation


def test_evaluate_vanishes_inside_band():
    grid = Grid(32, layout="node")
    spec = GlfSpec("parabolic", 2.0, level=1.0)
    u = np.linspace(-1.0, 1.0, grid.npoints)
    assert evaluate({"u": u}, grid, spec) == 0.0
    assert evaluate({"u": u + 0.5}, grid, spec) > 0.0
    assert evaluate({"u": u - 0.5}, grid, spec) > 0.0


def test_evaluate_wave_needs_both_families_trapped():
    grid = Grid(32, layout="node")
    spec = GlfSpec("wave", 2.0, r=1.0, level=1.0, eps=0.5)
    inside = 0.5 * np.ones(grid.npoints)
    outside = 2.0 * np.ones(grid.npoints)
    assert evaluate({"plus": inside, "minus": inside}, grid, spec) == 0.0
    assert evaluate({"plus": inside, "minus": outside}, grid, spec) > 0.0
    assert evaluate({"plus": -outside, "minus": inside}, grid, spec) > 0.0


def test_spec_validation():
    with pytest.raises(ValueError):
        GlfSpec("elliptic", 2.0)
    with pytest.raises(ValueError):
        GlfSpec("parabolic", 1.0)
    with pytest.raises(ValueError):
        GlfSpec("parabolic", 2.0, r=-0.1)
    with pytest.raises(ValueError):
        GlfSpec("parabolic", 2.0, level=-1.0)
    with pytest.raises(ValueError):
        GlfSpec("wave", 2.0, r=1.0, eps=0.0)


# ---------------------------------------------------------------------------
# truncation levels


def test_level_parabolic_identity_reactions():
    scn = make_parabolic(reaction=identity(), boundary_reaction=identity(),
                         f=SpaceTimeField.constant(0.5),
                         d1=SpaceTimeField.constant(0.2),
                         d2=SpaceTimeField.constant(0.3),
                         gamma1=("left",), gamma2=("right",))
    # 0.5/1 + 0.2 + 0.3
    assert glf_for_parabolic(scn, ending_at(4.0), 2.0).level == pytest.approx(1.0, abs=1e-11)


def test_level_parabolic_cubic_reaction():
    # v + v**3 = 2 at v = 1
    assert glf_for_parabolic(make_parabolic(), ending_at(1.0), 2.0).level == pytest.approx(
        1.0, abs=1e-11)
    # v + 2 v**3 = 2
    scn = make_parabolic(reaction=cubic(2.0))
    assert glf_for_parabolic(scn, ending_at(1.0), 2.0).level == pytest.approx(
        0.835122348481, abs=1e-9)


def test_level_parabolic_needs_damping_floor():
    with pytest.raises(ScenarioError):
        glf_for_parabolic(make_parabolic(c0=0.0), ending_at(1.0), 2.0)


def test_level_transport_and_wave():
    assert glf_for_transport(make_transport(), ending_at(2.0, "transport"), 2.0).level == 1.5
    assert glf_for_wave(make_wave(), ending_at(1.0, "wave"), 2.0, rate=1.0).level == 1.6


@pytest.mark.parametrize("c", [0.5, 2.0, 4.0])
def test_wave_energy_vanishes_on_the_steady_state(c):
    # w = d*y solves the damped wave with f = 0 and constant d exactly, and
    # its pair plus = c*d, minus = -c*d lies inside the truncation band
    d = 0.4
    scn = WaveScenario(c=c, f=ZERO, d=TimeSignal.constant(d),
                       w0=profile_affine(0.0, d), v0=profile_constant(0.0))
    traj = solve_wave(scn, Grid(100, layout="node"), SolverConfig(t_end=2.0, cfl_sigma=0.9))
    spec = glf_for_wave(scn, traj, 2.0, rate=1.0)
    rep = dissipation_report(traj, spec, dissipation_rate(spec, scn),
                             wave_forcing_slack(traj, spec, scn.f))
    assert np.all(rep.vhat <= 1e-30)
    assert np.max(rep.vhat - rep.envelope) <= 0.0


def exact_map(law, x):
    """slope*x + gamma*x**3 of the law's facts, in exact arithmetic."""
    x = Fraction(x)
    return Fraction(law.slope) * x + Fraction(law.gamma) * x**3


def ulps_above_least(law, x, y, most):
    """How many floats below x still reach y exactly, counted up to most + 1:
    0 when x is the least float at or above the root."""
    k, y = 0, Fraction(y)
    while k <= most and x > 0.0 and exact_map(law, math.nextafter(x, 0.0)) >= y:
        x, k = math.nextafter(x, 0.0), k + 1
    return k


SUBNORMALS = [5e-324, 1e-323, 7.5e-322, 1e-310, 2.2250738585072e-308]
TARGETS = np.array([0.0, *SUBNORMALS,
                    *10.0 ** np.random.default_rng(41).uniform(-300.0, 300.0, 300)])

# the least float x passing the check is within 15 ulps of the root r: the
# check's four operations lose at most 3u each (a rounding and a step to the
# next float below, u = 2**-53), so f(x) >= y*(1 + 15u) passes, and by
# convexity f(x) >= y*x/r above r, so x >= r*(1 + 15u) does.  Newton stops
# where its residual, rounded within 4u*y, stops being positive, within 5
# ulps of r, and the bumps 1, 2, 4, ... ulps overshoot the least passing x
# by at most its distance from that stop.  A linear map is within one float
# (the quotient, or the next float above it), and the identity is exact.
ULPS = {"identity": 0, "linear": 1, "cubic": 2 * 15 + 5}


@pytest.mark.parametrize("kind, law", [
    ("identity", identity()), ("linear", linear(0.01)), ("linear", linear(3.0)),
    ("linear", linear(1e6)), ("cubic", cubic(1e-6)), ("cubic", cubic(1.0)), ("cubic", cubic(1e6))])
def test_the_inverse_reaches_every_target_exactly_and_within_its_ulps(kind, law):
    x = invert_monotone(law, TARGETS)
    assert x[0] == 0.0
    for xi, yi in zip(x.tolist(), TARGETS.tolist()):
        assert exact_map(law, xi) >= Fraction(yi)
        assert ulps_above_least(law, xi, yi, ULPS[kind]) <= ULPS[kind]


def test_the_inverse_of_the_identity_is_its_target():
    # the old bisection returned 0.2999999999992724 for 0.3
    assert invert_monotone(identity(), 0.3) == 0.3
    assert invert_monotone(identity(), 0.7) == 0.7
    assert np.array_equal(invert_monotone(identity(), TARGETS), TARGETS)


def test_the_inverse_of_a_cube_from_its_facts():
    # slope 0: the root of 8 is 2, and the check passes a few floats above it
    x = invert_monotone(_facts(lambda v: v**3, slope=0.0, gamma=1.0), 8.0)
    assert 2.0 <= x <= 2.0 + 8 * math.ulp(2.0)
    assert invert_monotone(_facts(lambda v: v**3, slope=0.0, gamma=1.0), 0.0) == 0.0


def test_invert_cubic_reaction_values():
    # v + v^3 = 2 has the exact root 1; v + 2v^3 = 2 does not.
    x1 = invert_monotone(cubic(1.0), 2.0)
    assert 1.0 <= x1 < 1.0 + 1e-14
    x2 = invert_monotone(cubic(2.0), 2.0)
    assert x2 == pytest.approx(0.835122348481, abs=1e-9)
    assert exact_map(cubic(2.0), x2) >= 2


def test_invert_round_trip_random(rng):
    f = cubic(0.7)
    for _ in range(100):
        y = rng.uniform(0.0, float(f(50.0)))
        x = invert_monotone(f, y)
        assert 0.0 <= float(f(x)) - y <= 2e-10


def test_one_target_inverts_as_in_any_batch():
    for law in (identity(), linear(0.01), cubic(1e-6), cubic(1e6)):
        batch = invert_monotone(law, TARGETS)
        for i in (0, 1, 5, 17, 300):
            one = invert_monotone(law, TARGETS[i:i + 1])
            assert one.tobytes() == batch[i:i + 1].tobytes()
            assert invert_monotone(law, float(TARGETS[i])) == batch[i]
        assert type(invert_monotone(law, 1.0)) is float


def test_invert_zero_target_and_refusals():
    assert invert_monotone(cubic(1.0), 0.0) == 0.0
    with pytest.raises(ValueError, match="nonnegative"):
        invert_monotone(cubic(1.0), -1.0)
    # no float reaches y: a zero law, an infinite target, a level past the floats
    zero = _facts(lambda v: 0.0 * v, slope=0.0, gamma=0.0)
    assert np.array_equal(invert_monotone(zero, np.zeros(3)), np.zeros(3))
    for law, y, message in (
            (zero, np.array([0.0, 1e-300]), r"0\*x \+ 0\*x\*\*3 >= 1e-300$"),
            (cubic(1.0), math.inf, r"1\*x \+ 1\*x\*\*3 >= inf$"),
            (linear(1e-300), 1e10, r"1e-300\*x \+ 0\*x\*\*3 >= 1e\+10$"),
            (_facts(lambda v: v**3, slope=0.0, gamma=1e-300), 1e300, r"0\*x \+ 1e-300\*x")):
        with pytest.raises(ValueError, match="^no float x has " + message):
            invert_monotone(law, y)
    # a level past the old bracket's 2**200 is a level like any other
    assert invert_monotone(identity(), 1e70) == 1e70


# ---------------------------------------------------------------------------
# weight rates and builders


def test_default_transport_rate():
    got = default_transport_rate(2.0, 0.5)
    assert got == pytest.approx(3.0 * math.log(2.0), rel=1e-12)
    with pytest.raises(ValueError):
        default_transport_rate(2.0, 0.0)


def test_builders_derive_specs():
    pspec = glf_for_parabolic(make_parabolic(), ending_at(1.0), 2.0)
    assert pspec.pde_class == "parabolic" and pspec.r == 0.0
    assert pspec.level == pytest.approx(1.0, abs=1e-11)

    tspec = glf_for_transport(make_transport(), ending_at(2.0, "transport"), 2.0)
    assert tspec.r == pytest.approx(3.0 * math.log(2.0), rel=1e-12)
    assert tspec.level == 1.5
    with pytest.raises(ValueError):
        glf_for_transport(make_transport(), ending_at(2.0, "transport"), 2.0,
                          rate=1.1 * default_transport_rate(2.0, 0.5))

    wspec = glf_for_wave(make_wave(), ending_at(1.0, "wave"), 2.0, rate=1.0)
    assert wspec.eps == 0.5 * 2.0 * 1.0
    assert wspec.level == 1.6
    with pytest.raises(ValueError):
        glf_for_wave(make_wave(), ending_at(1.0, "wave"), 2.0, rate=0.0)
    with pytest.raises(ValueError):
        glf_for_wave(make_wave(), ending_at(1.0, "wave"), 2.0, rate=1.0, eps=2.0)


def test_dissipation_rate_per_class():
    pspec = GlfSpec("parabolic", 2.0)
    assert dissipation_rate(pspec, make_parabolic(c0=1.0)) == 3.0

    tspec = GlfSpec("transport", 2.0, r=2.0)
    assert dissipation_rate(tspec, make_transport(speed_floor=0.25)) == 0.5
    with pytest.raises(ScenarioError):
        dissipation_rate(tspec, make_transport(speed_floor=None))

    wspec = GlfSpec("wave", 2.0, r=1.0, eps=1.0)
    assert dissipation_rate(wspec, make_wave(c=2.0)) == 1.0


def test_local_speed_floor():
    scn = make_transport(speed_map=reciprocal_speed(1.0),
                         d=TimeSignal.constant(0.0))
    floor, mass_range = local_speed_floor(scn, 1.0)
    assert mass_range == 4.0
    assert floor == pytest.approx(0.2, rel=1e-12)
    with pytest.raises(ScenarioError):
        local_speed_floor(make_transport(assumption="uniform"), 1.0)
    with pytest.raises(ValueError):
        local_speed_floor(scn, 0.0)
    with pytest.raises(ScenarioError):
        local_speed_floor(make_transport(k=0.0), 1.0)


# ---------------------------------------------------------------------------
# dissipation reports


def _flat_trajectory(value=0.0, stamps=5):
    grid = Grid(16, layout="node")
    traj = Trajectory("parabolic", grid)
    for i in range(stamps):
        traj.append(0.1 * i, u=value * np.ones(grid.npoints))
    return traj


def test_report_zero_trajectory():
    traj = _flat_trajectory(0.0)
    rep = dissipation_report(traj, GlfSpec("parabolic", 2.0, level=0.5), 3.0)
    assert np.all(rep.vhat == 0.0)
    assert np.all(rep.residuals == 0.0)
    assert np.all(rep.envelope == 0.0)
    assert rep.residuals.size == len(traj) - 1
    assert rep.max_residual == 0.0


def test_report_constant_state_residual():
    # steady vhat > 0 gives residual exactly decay_rate * vhat
    traj = _flat_trajectory(2.0)
    spec = GlfSpec("parabolic", 2.0, level=1.0)
    rep = dissipation_report(traj, spec, 3.0)
    assert np.allclose(rep.residuals, 3.0 * rep.vhat[0], rtol=1e-12)


def test_report_slack_shift_and_validation():
    traj = _flat_trajectory(2.0)
    spec = GlfSpec("parabolic", 2.0, level=1.0)
    base = dissipation_report(traj, spec, 3.0)
    shifted = dissipation_report(traj, spec, 3.0,
                                 slack=0.25 * np.ones(len(traj)))
    assert np.allclose(shifted.residuals, base.residuals - 0.25, rtol=1e-12)
    with pytest.raises(ValueError):
        dissipation_report(traj, spec, 3.0, slack=np.ones(len(traj) + 1))


def test_series_matches_evaluate():
    traj = _flat_trajectory(2.0)
    spec = GlfSpec("parabolic", 2.0, level=1.0)
    vhat, comps = series(traj, spec)
    direct = [evaluate(traj.snapshot(i), traj.grid, spec)
              for i in range(len(traj))]
    assert np.allclose(vhat, direct, rtol=1e-15)
    assert set(comps) == {"pos", "neg"}
    assert np.allclose(comps["pos"] + comps["neg"], vhat, rtol=1e-15)


def test_series_csv_schema(tmp_path):
    traj = _flat_trajectory(2.0)
    rep = dissipation_report(traj, GlfSpec("parabolic", 2.0, level=1.0), 3.0)
    path = rep.to_csv(tmp_path / "glf.csv")
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,Vhat,residual,envelope"
    assert len(lines) == 1 + len(traj)
    last = lines[-1].split(",")
    assert math.isnan(float(last[2]))
    assert float(last[0]) == traj.times[-1]


# ---------------------------------------------------------------------------
# wave forcing slack


def _wave_trajectory(stamps=3):
    grid = Grid(64, layout="node")
    traj = Trajectory("wave", grid, names=("plus", "minus"))
    z = np.zeros(grid.npoints)
    for i in range(stamps):
        traj.append(0.5 * i, plus=z, minus=z)
    return traj


def test_wave_forcing_slack_requires_split():
    spec = GlfSpec("wave", 2.0, r=1.0, level=0.0, eps=None)
    with pytest.raises(ValueError):
        wave_forcing_slack(_wave_trajectory(), spec, ONE)


def test_wave_forcing_slack_frozen_constant():
    # 4 * (p/eps)**p * G(1) integrated without weight: 16/3
    spec = GlfSpec("wave", 2.0, r=0.0, level=0.0, eps=1.0)
    out = wave_forcing_slack(_wave_trajectory(), spec, ONE)
    assert np.allclose(out, 16.0 / 3.0, rtol=1e-12)


def test_wave_forcing_slack_evaluates_the_profile_once():
    calls = []

    def profile(y):
        calls.append(np.size(y))
        return np.sin(3.0 * np.asarray(y))

    fld = SpaceTimeField.separable(profile, TimeSignal.sinusoid(1.0, 0.7, 0.0, 2.0))
    traj = _wave_trajectory(5)
    spec = GlfSpec("wave", 2.0, r=1.0, level=0.0, eps=1.0)
    assert np.all(wave_forcing_slack(traj, spec, fld) > 0.0)
    assert calls == [traj.grid.npoints]


def test_wave_forcing_slack_tracks_stamp_times():
    sig = TimeSignal.sinusoid(1.0, 0.7, 0.0, 2.0)
    fld = SpaceTimeField.from_signal(sig)
    traj = _wave_trajectory(3)
    spec = GlfSpec("wave", 2.0, r=1.0, level=0.0, eps=1.0)
    out = wave_forcing_slack(traj, spec, fld)
    # space-uniform forcing scales the common integral by G(|s(t)|)
    s = np.array([abs(float(sig(t))) for t in traj.times])
    assert out[1] / out[0] == pytest.approx((s[1] / s[0]) ** 3.0, rel=1e-12)
    assert out[2] / out[0] == pytest.approx((s[2] / s[0]) ** 3.0, rel=1e-12)


# ---------------------------------------------------------------------------
# stamp-batched evaluation equals the per-stamp functional


def _random_trajectory(pde, grid, names=("u",), stamps=150, seed=3):
    rng = np.random.default_rng(seed)
    shape = grid.shape
    traj = Trajectory(pde, grid, names=names)
    for i in range(stamps):
        traj.append(0.05 * i, **{k: 2.0 * rng.standard_normal(shape) for k in names})
    return traj


BATCH_CASES = {
    "parabolic_1d": (lambda: _random_trajectory("parabolic", Grid(50, layout="node")),
                     GlfSpec("parabolic", 2.0, level=0.5)),
    "parabolic_2d": (lambda: _random_trajectory(
        "parabolic", Grid(10, 13)),
        GlfSpec("parabolic", 3.0, level=0.25)),
    "transport": (lambda: _random_trajectory("transport", Grid(41, layout="cell")),
                  GlfSpec("transport", 2.0, r=1.3, level=0.5)),
    "wave": (lambda: _random_trajectory("wave", Grid(48, layout="node"),
                                        names=("plus", "minus")),
             GlfSpec("wave", 2.5, r=1.0, level=0.3, eps=1.0)),
}


@pytest.mark.parametrize("case", sorted(BATCH_CASES))
def test_series_bitwise_equals_per_stamp_evaluate(case):
    make, spec = BATCH_CASES[case]
    traj = make()
    vhat, comps = series(traj, spec)
    per_stamp = [components(traj.snapshot(i), traj.grid, spec) for i in range(len(traj))]
    assert np.array_equal(vhat, [evaluate(traj.snapshot(i), traj.grid, spec)
                                 for i in range(len(traj))])
    for name, values in comps.items():
        assert np.array_equal(values, [c[name] for c in per_stamp])


def test_wave_forcing_slack_bitwise_equals_per_stamp():
    traj = BATCH_CASES["wave"][0]()
    spec = BATCH_CASES["wave"][1]
    # changes sign in y and in t, so the slack's |f| matters
    fld = SpaceTimeField.separable(profile_affine(-0.4, 1.5),
                                   TimeSignal.sinusoid(1.0, 0.7, 0.3, offset=0.2))
    pts = traj.grid.points()
    coef = 4.0 * (spec.p / spec.eps) ** spec.p
    expected = [coef * weighted_energy(np.abs(fld(pts, t)), traj.grid, spec.pair,
                                       spec.r, 1, 1, 0.0) for t in traj.times]
    assert np.array_equal(wave_forcing_slack(traj, spec, fld), expected)


def test_glf_csv_matches_row_reference(tmp_path):
    make, spec = BATCH_CASES["transport"]
    rep = dissipation_report(make(), spec, 0.7)
    lines = ["t,Vhat,residual,envelope\n"]
    for i in range(rep.times.size):
        res = rep.residuals[i] if i < rep.residuals.size else math.nan
        lines.append(f"{float(rep.times[i])!r},{float(rep.vhat[i])!r},"
                     f"{float(res)!r},{float(rep.envelope[i])!r}\n")
    assert rep.to_csv(tmp_path / "glf.csv").read_text() == "".join(lines)


def test_series_and_wave_slack_of_empty_trajectory():
    grid = Grid(8, layout="node")
    values, comps = series(Trajectory("parabolic", grid), GlfSpec("parabolic", 2.0, level=1.0))
    assert values.shape == (0,) and all(v.shape == (0,) for v in comps.values())
    wave = Trajectory("wave", grid, names=("plus", "minus"))
    spec = GlfSpec("wave", 2.0, r=1.0, level=1.0, eps=0.5)
    assert wave_forcing_slack(wave, spec, SpaceTimeField.constant(1.0)).shape == (0,)
