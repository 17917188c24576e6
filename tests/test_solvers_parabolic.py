"""Tests for the semi-implicit reaction-diffusion stepper.

The linear heat equation with homogeneous Dirichlet data has the exact
separable solution used as the refinement oracle; the nonlinear runs are
checked against structural invariants (equilibria, energy decay, sup
bounds) instead.
"""

import functools
import math
import re
import sys
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import isscert.solvers.parabolic as parabolic
from isscert.cli import main
from isscert.config import (_cubic as cubic, _facts, _identity as identity,
                            _linear as linear, bundled_names, load_plan)
from isscert.fields import AXES, Grid, edge_names, lq_norm
from isscert.signals import (SpaceTimeField, TimeSignal, profile_bump,
                             profile_constant, profile_sin, profile_sinprod,
                             profile_sum)
from isscert.solvers import (ParabolicScenario, ScenarioError, SolverConfig,
                             SolverDivergedError, solve_parabolic)
from isscert.solvers.parabolic import _Band, _line_responses, _solve_lines

ZERO = SpaceTimeField.constant(0.0)
ONE = SpaceTimeField.constant(1.0)
NONFINITE_BALANCE = "non-finite flux boundary balance"


def make_scenario(**over):
    base = dict(
        dim=1, a=ONE, a0=1.0, c=ONE, c0=1.0,
        reaction=identity(), boundary_reaction=identity(),
        f=ZERO, d1=ZERO, d2=ZERO,
        w0=profile_bump(1.0, 0.4, 0.3),
        gamma1=("left",), gamma2=("right",))
    base.update(over)
    return ParabolicScenario(**base)


def test_zero_equilibrium_preserved():
    scn = make_scenario(w0=profile_constant(0.0))
    traj = solve_parabolic(scn, Grid(32, layout="node"),
                           SolverConfig(t_end=0.5, dt=0.01))
    for i in range(len(traj)):
        assert np.max(np.abs(traj.state(i))) == 0.0


def test_l2_nonincreasing_without_disturbances():
    scn = make_scenario()
    grid = Grid(64, layout="node")
    traj = solve_parabolic(scn, grid, SolverConfig(t_end=0.5, dt=0.005))
    norms = [lq_norm(traj.state(i), 2.0, grid) for i in range(len(traj))]
    assert all(b <= a + 1e-13 for a, b in zip(norms, norms[1:]))
    assert norms[-1] < norms[0]


def test_l2_strictly_decreasing_linear_bump():
    # pure decay scenario: every step must lose energy
    scn = make_scenario(w0=profile_sin(1.0, mode=1))
    grid = Grid(64, layout="node")
    traj = solve_parabolic(scn, grid, SolverConfig(t_end=0.3, dt=0.005))
    norms = [lq_norm(traj.state(i), 2.0, grid) for i in range(len(traj))]
    assert all(b < a for a, b in zip(norms, norms[1:]))


def test_sup_norm_bound_constant_disturbances():
    # constant data (f=0.5, d1=0.2, d2=0.3) with identity maps gives the
    # disturbance level 1, and the sup norm must stay below 8*1 + 4*|w0|
    scn = make_scenario(
        f=SpaceTimeField.constant(0.5),
        d1=SpaceTimeField.constant(0.2),
        d2=SpaceTimeField.constant(0.3),
        w0=profile_sum(profile_constant(0.2), profile_sin(3.0, mode=1)))
    grid = Grid(100, layout="node")
    traj = solve_parabolic(scn, grid, SolverConfig(t_end=1.0, dt=0.004))
    w0_sup = np.max(np.abs(traj.state(0)))
    limit = 8.0 * 1.0 + 4.0 * w0_sup
    for i in range(len(traj)):
        assert np.max(np.abs(traj.state(i))) <= limit


def test_dirichlet_nodes_pinned():
    scn = make_scenario(d1=SpaceTimeField.constant(0.2))
    grid = Grid(32, layout="node")
    traj = solve_parabolic(scn, grid, SolverConfig(t_end=0.2, dt=0.01))
    for i in range(1, len(traj)):
        assert traj.state(i)[0] == 0.2


def test_flux_condition_satisfied_at_final_state():
    # a*dw/dnu + varphi(w) = d2 at y=1; check with a one-sided difference
    scn = make_scenario(d2=SpaceTimeField.constant(0.3))
    grid = Grid(200, layout="node")
    traj = solve_parabolic(scn, grid, SolverConfig(t_end=0.5, dt=0.002))
    w = traj.state(-1)
    flux = (w[-1] - w[-2]) / grid.h
    assert flux + w[-1] == pytest.approx(0.3, abs=5.0 * grid.h)


def test_second_order_convergence_to_heat_oracle():
    # w(y,t) = exp(-pi^2 t) sin(pi y) on homogeneous Dirichlet data; with
    # dt ~ h^2 the first-order time error cannot mask the spatial order
    scn = make_scenario(c=ZERO, c0=0.0, w0=profile_sin(1.0, mode=1),
                        gamma1=("left", "right"), gamma2=())
    t_end = 0.05
    errs = []
    for n in (20, 40):
        grid = Grid(n, layout="node")
        dt = t_end * grid.h * grid.h
        traj = solve_parabolic(scn, grid,
                               SolverConfig(t_end=t_end, dt=dt,
                                            output_stride=10 ** 9))
        exact = np.exp(-np.pi ** 2 * t_end) * np.sin(np.pi * grid.points())
        errs.append(np.max(np.abs(traj.state(-1) - exact)))
    assert errs[0] / errs[1] >= 3.5


def test_large_dt_remains_stable():
    # implicit diffusion: dt far above the explicit limit must not blow up
    scn = make_scenario(w0=profile_sin(1.0, mode=3))
    grid = Grid(100, layout="node")
    traj = solve_parabolic(scn, grid, SolverConfig(t_end=1.0, dt=0.05))
    assert np.all(np.isfinite(traj.state(-1)))
    assert np.max(np.abs(traj.state(-1))) < 1.0


def test_divergence_reported_with_step():
    # the step's own finiteness checks report the overflow, numpy does not
    scn = make_scenario(reaction=cubic(1.0),
                        w0=profile_constant(0.0),
                        f=SpaceTimeField.constant(1e150))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(SolverDivergedError):
            solve_parabolic(scn, Grid(16, layout="node"),
                            SolverConfig(t_end=1.0, dt=0.5))


def test_scenario_validation_errors():
    with pytest.raises(ScenarioError, match="^dim must be 1 to 3, got 4$"):
        make_scenario(dim=4).validate()
    with pytest.raises(ScenarioError):
        make_scenario(a0=0.0).validate()
    with pytest.raises(ScenarioError):
        make_scenario(gamma1=("left", "right"), gamma2=("right",)).validate()
    with pytest.raises(ScenarioError):
        make_scenario(gamma1=("left",), gamma2=()).validate()
    # on the square the edges split into the same two parts
    with pytest.raises(ScenarioError, match="overlap"):
        make_scenario(dim=2, gamma1=("left",),
                      gamma2=("left", "right", "bottom", "top")).validate()
    with pytest.raises(ScenarioError, match="cover"):
        make_scenario(dim=2, gamma1=("left",), gamma2=("right",)).validate()
    make_scenario(dim=2, gamma1=("left", "right"), gamma2=("bottom", "top")).validate()
    # reaction slope below one violates the expansion condition
    with pytest.raises(ScenarioError, match="^reaction slope must be at least one$"):
        make_scenario(reaction=linear(0.5)).validate()


def kinked(v):
    """The identity on |v| <= 10.5, continued with slope 0.5 beyond."""
    v = np.asarray(v, dtype=float)
    return np.where(np.abs(v) <= 10.5, v, np.sign(v) * (10.5 + 0.5 * (np.abs(v) - 10.5)))


# callables that carry no kind, whatever their shape: laws a strictly
# increasing class-K map cannot be (decreasing, flat, turning at the
# origin, nonzero at zero, wavy: odd and of the sign of v but falling
# between the crests of its cosine, kinked), and the identity itself
PLAIN_LAWS = {"decreasing": lambda v: -v, "flat": lambda v: 0.0 * v,
              "square": lambda v: v * v, "offset": lambda v: v + 1.0,
              "wavy": lambda v: v * (1.5 + np.cos(50.0 * v)), "kinked": kinked,
              "identity": lambda v: v}


@pytest.mark.parametrize("name", sorted(PLAIN_LAWS))
def test_validate_refuses_a_law_without_its_kind(name):
    # a law's conditions are decided by its kind's facts, never by sampling
    for which, what in (("reaction", "reaction"), ("boundary_reaction", "boundary reaction")):
        with pytest.raises(ScenarioError, match=f"^{what} must be an identity, linear or "
                                                "cubic map, got function$"):
            make_scenario(**{which: PLAIN_LAWS[name]}).validate()


@pytest.mark.parametrize("slope,gamma", [(1.0, -1e-300), (-1.0, 0.0), (math.nan, 0.0),
                                         (1.0, math.nan)])
def test_validate_decides_the_maps_by_their_kind_facts(slope, gamma):
    # v -> slope*v + gamma*v**3 is of the sign of v and nondecreasing on
    # every state exactly when slope, gamma >= 0; the reaction needs slope
    # >= 1 too.  A flux law of slope 1/2 is admissible.
    make_scenario(reaction=cubic(0.0), boundary_reaction=linear(0.5)).validate()
    law = _facts(lambda v: v, slope=slope, gamma=gamma)
    with pytest.raises(ScenarioError, match="^reaction slope must be at least one$"):
        make_scenario(reaction=law).validate()
    with pytest.raises(ScenarioError, match="^boundary reaction must be nondecreasing$"):
        make_scenario(boundary_reaction=law).validate()


def test_validate_reads_the_facts_through_a_forwarding_wrapper():
    # a profiler's counting wrapper forwards attribute access to the law
    class Forwarding:
        def __init__(self, fn):
            self._fn = fn

        def __call__(self, v):
            return self._fn(v)

        def __getattr__(self, name):
            return getattr(self._fn, name)

    make_scenario(reaction=Forwarding(cubic(1.0)),
                  boundary_reaction=Forwarding(identity())).validate()
    with pytest.raises(ScenarioError, match="^reaction slope must be at least one$"):
        make_scenario(reaction=Forwarding(linear(0.5))).validate()
    with pytest.raises(ScenarioError, match="^boundary reaction must be an identity, linear "
                                            "or cubic map, got Forwarding$"):
        make_scenario(boundary_reaction=Forwarding(lambda v: v)).validate()


def _dipping(amplitude):
    # 1 + amplitude*sin(4 pi t) is 1 at t = 0, 0.5 and 5, its old sample times
    return TimeSignal.sinusoid(amplitude, 2.0, offset=1.0)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("coef,low", [("a", 0.5), ("c", 0.1)])
def test_floor_check_is_exact_for_uniform_fields(dim, coef, low):
    over = {coef: SpaceTimeField.from_signal(_dipping(low - 1.0))}
    if dim == 2:
        over.update(dim=2, w0=profile_sinprod(1.0),
                    gamma1=("left", "right"), gamma2=("bottom", "top"))
    grid = Grid(16, layout="node") if dim == 1 else Grid(8, 8)
    cfg = SolverConfig(t_end=1.0, dt=0.01)
    scn = make_scenario(**over)
    scn.validate()
    what = "diffusion" if coef == "a" else "reaction"
    message = f"{what} coefficient drops below {coef}0 = 1 (down to {low:g})"
    with pytest.raises(ScenarioError, match=rf"^{re.escape(message)}$"):
        solve_parabolic(scn, grid, cfg)
    # the exact minimum is an admissible floor
    solve_parabolic(make_scenario(**over, **{f"{coef}0": low}), grid, cfg)


def test_floor_check_separable_uses_profile_and_signal_extremes():
    # profile 1 + y on the nodes: range [1, 2]; signal 1 - 0.25 t on [0, 1]:
    # range [0.75, 1]; the least product is 0.75
    ramp = SpaceTimeField.separable(lambda y: 1.0 + np.asarray(y, dtype=float),
                                    TimeSignal.polynomial(1.0, -0.25))
    grid = Grid(16, layout="node")
    with pytest.raises(ScenarioError, match=r"drops below c0 = 0.8 \(down to 0.75\)"):
        solve_parabolic(make_scenario(c=ramp, c0=0.8), grid, SolverConfig(t_end=1.0, dt=0.1))
    solve_parabolic(make_scenario(c=ramp, c0=0.75), grid, SolverConfig(t_end=1.0, dt=0.1))
    # the diffusion coefficient counts on the faces only: 1 + y there is at
    # least 1 + h/2
    h = grid.h
    solve_parabolic(make_scenario(a=ramp, a0=0.75 * (1.0 + 0.5 * h)), grid,
                    SolverConfig(t_end=1.0, dt=0.1))
    with pytest.raises(ScenarioError, match="diffusion"):
        solve_parabolic(make_scenario(a=ramp, a0=0.75 * (1.0 + 0.5 * h) + 1e-9), grid,
                        SolverConfig(t_end=1.0, dt=0.1))


def test_missing_dt_rejected():
    with pytest.raises(ValueError):
        solve_parabolic(make_scenario(), Grid(16, layout="node"),
                        SolverConfig(t_end=0.1, cfl_sigma=0.9))


def test_cell_grid_rejected():
    with pytest.raises(ValueError):
        solve_parabolic(make_scenario(), Grid(16, layout="cell"),
                        SolverConfig(t_end=0.1, dt=0.01))


def test_grid_of_another_dimension_rejected():
    scn = make_scenario(dim=2, gamma1=("left", "right"), gamma2=("bottom", "top"))
    for grid in (Grid(16), Grid(8, 8, 8)):
        with pytest.raises(ValueError, match="^dim 2 runs need a node-centered grid of dim 2$"):
            solve_parabolic(scn, grid, SolverConfig(t_end=0.1, dt=0.01))


# ---------------------------------------------------------------------------
# two space dimensions


def test_2d_zero_equilibrium():
    grid = Grid(10, 10)
    scn = make_scenario(dim=2, w0=lambda pts: np.zeros_like(pts[0]),
                        gamma1=("left", "right"), gamma2=("bottom", "top"))
    traj = solve_parabolic(scn, grid, SolverConfig(t_end=0.1, dt=0.01))
    assert np.max(np.abs(traj.state(-1))) == 0.0


def test_2d_l2_nonincreasing():
    grid = Grid(12, 12)
    scn = make_scenario(dim=2, w0=profile_sinprod(1.0),
                        gamma1=("left", "right"), gamma2=("bottom", "top"))
    traj = solve_parabolic(scn, grid, SolverConfig(t_end=0.1, dt=0.005))
    norms = [lq_norm(traj.state(i), 2.0, grid) for i in range(len(traj))]
    assert all(b <= a + 1e-13 for a, b in zip(norms, norms[1:]))
    assert norms[-1] < 0.5 * norms[0]


# ---------------------------------------------------------------------------
# one closure, two layouts: a stack of lines (lockstep on arrays) is
# bitwise equal to one solve per line (Python floats)

KINDS = ("dirichlet", "flux")


def solve_one_line(w_old, h, dt, af, src, bc_lo, bc_hi, varphi, bc_tol):
    """_solve_lines on the one-line stack of a single line's data."""
    return _solve_lines(_Band(), w_old[None, :], h, dt, af[None, :], src[None, :],
                        bc_lo, bc_hi, varphi, bc_tol)[0]


def random_lines(rng, n_lines=7, m=12, scale=1.0):
    w_old = scale * rng.normal(size=(n_lines, m))
    af = rng.uniform(0.5, 2.0, size=(n_lines, m - 1))
    src = rng.normal(size=(n_lines, m))
    ends = rng.normal(size=(2, n_lines))
    return w_old, af, src, ends


def solve_both(w_old, af, src, kinds, ends, h=1.0 / 11, dt=0.01,
               varphi=cubic(0.8)):
    bc_lo, bc_hi = (kinds[0], ends[0]), (kinds[1], ends[1])
    batched = _solve_lines(_Band(), w_old, h, dt, af, src, bc_lo, bc_hi, varphi, 1e-10)
    per_line = np.array([
        solve_one_line(w_old[k], h, dt, af[k], src[k], (kinds[0], ends[0][k]),
                       (kinds[1], ends[1][k]), varphi, 1e-10)
        for k in range(w_old.shape[0])])
    return batched, per_line


@pytest.mark.parametrize("kinds", [(lo, hi) for lo in KINDS for hi in KINDS])
def test_solve_lines_matches_scalar_solves(kinds):
    rng = np.random.default_rng(sum(map(len, kinds)))
    for scale in (1e-3, 1.0, 50.0, 1e3, 1e5):
        w_old, af, src, ends = random_lines(rng, scale=scale)
        batched, per_line = solve_both(w_old, af, src, kinds, ends)
        assert np.array_equal(batched, per_line)


FLUX_KINDS = [("dirichlet", "flux"), ("flux", "dirichlet"), ("flux", "flux")]


@pytest.mark.parametrize("kinds", FLUX_KINDS)
@pytest.mark.parametrize("gamma", [0.0, 100.0])
@pytest.mark.parametrize("lam", [1e-2, 1e-1, 1.0, 10.0, 1e2, 1e3])
def test_float_kernel_matches_lockstep_across_laws_and_steps(kinds, gamma, lam):
    # dt/h^2 = lam spans nearly explicit to strongly implicit steps; gamma =
    # 100 is a steep cubic law
    rng = np.random.default_rng(int(lam * 100) + int(gamma))
    w_old, af, src, ends = random_lines(rng)
    h = 1.0 / 11
    batched, per_line = solve_both(w_old, af, src, kinds, ends, h=h, dt=lam * h * h,
                                   varphi=cubic(gamma))
    assert np.array_equal(batched, per_line)


def test_solve_lines_exact_root_equilibrium():
    # equilibrium lines close on an exact root in round 0, beside lines
    # that do not
    rng = np.random.default_rng(4)
    w_old, af, src, ends = random_lines(rng)
    w_old[::2], src[::2], ends[:, ::2] = 0.0, 0.0, 0.0
    for kinds in (("flux", "dirichlet"), ("flux", "flux")):
        batched, per_line = solve_both(w_old, af, src, kinds, ends)
        assert np.array_equal(batched, per_line)
        assert not np.any(batched[::2])
    # flux data on the high ends only: the low ends move off 0 with them
    for d2 in (1.0, -1.0):
        ends[1, ::2] = d2
        batched, per_line = solve_both(w_old, af, src, ("flux", "flux"), ends)
        assert np.array_equal(batched, per_line)
        assert np.all(batched[::2, 0] != 0.0)


def test_solve_lines_stops_on_adjacent_floats():
    # near 6e5 adjacent floats lie more than bc_tol = 1e-10 apart, so the
    # bracket cannot shrink below bc_tol; both closures must still stop
    rng = np.random.default_rng(5)
    w_old, af, src, ends = random_lines(rng)
    w_old += 6e5
    for kinds in (("dirichlet", "flux"), ("flux", "flux")):
        batched, per_line = solve_both(w_old, af, src, kinds, ends, varphi=identity())
        assert np.all(np.isfinite(batched))
        assert np.array_equal(batched, per_line)


@settings(max_examples=50, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), kinds=st.sampled_from(FLUX_KINDS),
       scale=st.sampled_from([1e-3, 1.0, 50.0, 1e3]),
       gamma=st.sampled_from([0.0, 0.8, 100.0]),
       lam=st.floats(1e-2, 1e3), m=st.integers(3, 16))
def test_float_kernel_matches_lockstep_on_random_lines(seed, kinds, scale, gamma, lam, m):
    rng = np.random.default_rng(seed)
    w_old, af, src, ends = random_lines(rng, n_lines=3, m=m, scale=scale)
    ends *= scale
    h = 1.0 / (m - 1)
    batched, per_line = solve_both(w_old, af, src, kinds, ends, h=h, dt=lam * h * h,
                                   varphi=cubic(gamma))
    assert np.array_equal(batched, per_line)


def test_flux_law_sees_floats_on_one_line_and_arrays_on_a_stack():
    rng = np.random.default_rng(7)
    w_old, af, src, ends = random_lines(rng)
    varphi = cubic(0.8)
    for rows, want in ((slice(0, 1), float), (slice(None), np.ndarray)):
        seen = set()

        @functools.wraps(varphi)  # with the law's kind facts
        def recorded(v):
            seen.add(type(v))
            return varphi(v)

        _solve_lines(_Band(), w_old[rows], 1.0 / 11, 0.01, af[rows], src[rows],
                     ("flux", ends[0][rows]), ("flux", ends[1][rows]), recorded, 1e-10)
        assert seen == {want}


def test_solve_lines_nan_residual_raises():
    rng = np.random.default_rng(6)
    w_old, af, src, ends = random_lines(rng)
    ends[1][3] = np.nan
    for varphi in (cubic(0.8), identity()):
        for kind in ("dirichlet", "flux"):
            with pytest.raises(RuntimeError, match=f"^{NONFINITE_BALANCE}$"):
                _solve_lines(_Band(), w_old, 0.1, 0.01, af, src, (kind, ends[0]),
                             ("flux", ends[1]), varphi, 1e-10)
    with pytest.raises(RuntimeError, match=f"^{NONFINITE_BALANCE}$"):
        solve_one_line(w_old[3], 0.1, 0.01, af[3], src[3], ("dirichlet", ends[0][3]),
                       ("flux", ends[1][3]), varphi, 1e-10)
    src[2, 5] = np.inf
    with pytest.raises(RuntimeError, match="non-finite"):
        _solve_lines(_Band(), w_old, 0.1, 0.01, af, src, ("dirichlet", ends[0]),
                     ("dirichlet", ends[0]), varphi, 1e-10)


def test_strongly_coupled_closures_match_scalar_solves():
    # each end's root moves far with the other end's value
    rng = np.random.default_rng(3)
    w_old, af, src, ends = random_lines(rng, n_lines=9, m=6)
    batched, per_line = solve_both(w_old, 100.0 * af, src, ("flux", "flux"), ends,
                                   h=0.2, dt=0.02)
    assert np.array_equal(batched, per_line)


@pytest.mark.parametrize("kinds", FLUX_KINDS)
@pytest.mark.parametrize("n_lines", [1, 7])
def test_law_turning_nan_partway_through_a_closure_raises(n_lines, kinds):
    # the law turns NaN in the Newton rounds, after the balance at 0
    rng = np.random.default_rng(6)
    w_old, af, src, ends = random_lines(rng, n_lines=n_lines)
    varphi, calls = cubic(0.8), []

    @functools.wraps(varphi)
    def law(v):
        calls.append(v)
        return np.full(np.shape(v), np.nan) if len(calls) > 2 else varphi(v)

    with pytest.raises(RuntimeError, match=f"^{NONFINITE_BALANCE}$"):
        _solve_lines(_Band(), w_old, 0.1, 0.01, af, src, (kinds[0], ends[0]),
                     (kinds[1], ends[1]), law, 1e-10)
    # the balances at 0, then the next call, which is NaN, and the other
    # end's in its round
    assert len(calls) == 2 + kinds.count("flux")


def test_2d_closure_stacked_law_calls():
    # the parabolic_2d_demo solve: its identity law closes each stack of
    # lines with two flux ends in closed form, from the balances at 0
    plan = load_plan("parabolic_2d_demo")
    law, calls = plan.scenario.boundary_reaction, []

    @functools.wraps(law)  # with the law's kind facts
    def counted(v):
        calls.append(np.ndim(v))
        return law(v)

    scn = replace(plan.scenario, boundary_reaction=counted)
    traj = solve_parabolic(scn, plan.grid, plan.solver)
    # two calls a step, one for each end of the one sweep with flux ends
    assert calls == [1] * (2 * traj.counters["steps"])
    assert traj.counters["flux_law_calls"] == traj.counters["closures"] == 3450


# ---------------------------------------------------------------------------
# two flux ends: the end values against an exact and an independent solve

A_DT = (1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0, 1e3)
BC_TOL = 1e-10


def coupled_lines(n, a, n_lines=5, dt=0.01, seed=0):
    """n_lines random lines of n intervals with two flux ends and constant
    diffusion a (one value per line when a is a sequence)."""
    rng = np.random.default_rng(seed)
    w_old, src = rng.normal(size=(2, n_lines, n + 1))
    af = np.broadcast_to(np.reshape(a, (-1, 1)), (n_lines, n)).astype(float)
    return w_old, 1.0 / n, dt, af, src, rng.normal(size=(2, n_lines))


def balance_factors(w_old, h, dt, af, src, ends):
    """Per line and end, (s, beta, g) of the balance s*b + (2/h)*varphi(b)
    - beta*other - g, from the band's base solution and unit responses."""
    base, resp = _line_responses(_Band(), w_old, h, dt, af, src,
                                 ("flux", ends[0]), ("flux", ends[1]))
    out = {}
    for end, i, k, f, other in (("lo", 0, 1, 0, "hi"), ("hi", -1, -2, -1, "lo")):
        c_face = (2.0 / h**2) * af[:, f]
        g = w_old[:, i] / dt + (2.0 / h) * ends[0 if end == "lo" else 1] \
            + c_face * base[:, k] + src[:, i]
        out[end] = (1.0 / dt + c_face * (1.0 - resp[end][:, k]), c_face * resp[other][:, k], g)
    return out


def exact_linear_ends(w_old, h, dt, af, src, ends):
    """The end values of the identity law, each line's 2x2 system solved
    exactly in fractions from the float factors; and each line's rho."""
    fac = balance_factors(w_old, h, dt, af, src, ends)
    lines, rhos = [], []
    for j in range(w_old.shape[0]):
        (s_lo, b_lo, g_lo), (s_hi, b_hi, g_hi) = (
            [Fraction(float(v[j])) for v in fac[end]] for end in ("lo", "hi"))
        a_lo, a_hi = s_lo + Fraction(2.0 / h), s_hi + Fraction(2.0 / h)
        det = a_lo * a_hi - b_lo * b_hi
        lines.append(((g_lo * a_hi + b_lo * g_hi) / det, (a_lo * g_hi + b_hi * g_lo) / det))
        rhos.append(float(b_lo * b_hi / (a_lo * a_hi)))
    return lines, rhos


def end_errors(w, exact):
    """Largest distance of the end values of w from the exact ones."""
    return max(abs(Fraction(float(w[j, i])) - want[e])
               for j, want in enumerate(exact) for e, i in ((0, 0), (1, -1)))


def test_two_flux_ends_match_the_exact_linear_solve():
    # rho -> 1 as a*dt grows past the line length squared; sweeping the two
    # end closures missed bc_tol from a*dt = 1 and gave up from a*dt = 10;
    # the identity law closes by one 2x2 solve
    law = identity()
    worst, top_rho = 0.0, 0.0
    for a_dt in A_DT:
        for n in (8, 32, 200):
            w_old, h, dt, af, src, ends = coupled_lines(n, a_dt / 0.01, seed=n)
            exact, rhos = exact_linear_ends(w_old, h, dt, af, src, ends)
            stack = _solve_lines(_Band(), w_old, h, dt, af, src, ("flux", ends[0]),
                                 ("flux", ends[1]), law, BC_TOL)
            alone = solve_one_line(w_old[0], h, dt, af[0], src[0], ("flux", ends[0][0]),
                                   ("flux", ends[1][0]), law, BC_TOL)
            worst = max(worst, end_errors(stack, exact), end_errors(alone[None], exact[:1]))
            top_rho = max(top_rho, *rhos)
    assert worst <= BC_TOL
    assert top_rho > 0.998


def nested_bisection_ends(fac, c_phi, varphi, reach=1e4):
    """The end values of lines with factors fac (:func:`balance_factors`)
    and law coefficients c_phi = 2/h by nested bisection on [-reach,
    reach]: the low end closed for each high value y, and y bisected on
    the high end's balance at that low value; 64 halvings each, on every
    line at once."""
    (s_lo, b_lo, g_lo), (s_hi, b_hi, g_hi) = fac["lo"], fac["hi"]

    def bisect(res):
        lo, hi = np.full(c_phi.shape, -reach), np.full(c_phi.shape, reach)
        assert np.all(res(lo) < 0.0) and np.all(res(hi) > 0.0)
        for _ in range(64):
            mid = 0.5 * (lo + hi)
            below = res(mid) <= 0.0
            lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
        return 0.5 * (lo + hi)

    def low_end(y):
        return bisect(lambda x: s_lo * x + c_phi * varphi(x) - b_lo * y - g_lo)

    y = bisect(lambda y: s_hi * y + c_phi * varphi(y) - b_hi * low_end(y) - g_hi)
    return low_end(y), y


@pytest.mark.parametrize("gamma", [1.0, 100.0])
def test_two_flux_ends_match_a_nested_bisection_on_a_cubic_law(gamma):
    varphi = cubic(gamma)
    cases = [coupled_lines(n, a_dt / 0.01, seed=n + 1) for a_dt in A_DT for n in (8, 32, 200)]
    stacks, alone, facs = [], [], []
    for w_old, h, dt, af, src, ends in cases:
        stacks.append(_solve_lines(_Band(), w_old, h, dt, af, src, ("flux", ends[0]),
                                   ("flux", ends[1]), varphi, BC_TOL))
        alone.append(solve_one_line(w_old[0], h, dt, af[0], src[0], ("flux", ends[0][0]),
                                    ("flux", ends[1][0]), varphi, BC_TOL))
        facs.append(balance_factors(w_old, h, dt, af, src, ends))
    # every case's lines at once
    fac = {end: [np.concatenate(parts) for parts in zip(*(f[end] for f in facs))]
           for end in ("lo", "hi")}
    c_phi = np.concatenate([np.full(case[0].shape[0], 2.0 / case[1]) for case in cases])
    lo, hi = nested_bisection_ends(fac, c_phi, varphi)
    want = np.stack([lo, hi], axis=1)
    assert np.abs(np.concatenate([w[:, [0, -1]] for w in stacks]) - want).max() <= BC_TOL
    firsts = np.cumsum([0] + [case[0].shape[0] for case in cases[:-1]])
    assert np.abs(np.array([w[[0, -1]] for w in alone]) - want[firsts]).max() <= BC_TOL


@pytest.mark.parametrize("gamma", [0.0, 100.0])
def test_cross_factors_that_underflow_give_finite_ends(gamma):
    # 2000 intervals, dt = 1e-7: a unit value at one end reaches the other
    # end's inner node as 0.0 at a = 1, as 0.0 one way and a subnormal the
    # other at a = 16, and as a subnormal both ways at a = 18, where an
    # end value read off the other end's balance would overflow
    w_old, h, dt, af, src, ends = coupled_lines(2000, [1.0, 16.0, 18.0], n_lines=3,
                                                dt=1e-7, seed=3)
    fac = balance_factors(w_old, h, dt, af, src, ends)
    betas = np.array([fac["lo"][1], fac["hi"][1]])
    assert not betas[:, 0].any() and betas[:, 1].tolist().count(0.0) == 1
    assert 0.0 < betas[:, 2].max() < 1e-300
    varphi = cubic(gamma)
    stack = _solve_lines(_Band(), w_old, h, dt, af, src, ("flux", ends[0]), ("flux", ends[1]),
                         varphi, BC_TOL)
    assert np.all(np.isfinite(stack))
    for j in range(3):
        alone = solve_one_line(w_old[j], h, dt, af[j], src[j], ("flux", ends[0][j]),
                               ("flux", ends[1][j]), varphi, BC_TOL)
        assert np.array_equal(alone, stack[j])
    if gamma == 0.0:
        exact, _ = exact_linear_ends(w_old, h, dt, af, src, ends)
    else:
        fac = balance_factors(w_old, h, dt, af, src, ends)
        exact = exact_cubic_ends(fac, 2.0 / h, gamma)
    assert end_errors(stack, exact) <= BC_TOL


def loop_residual(end, dt, c_phi, law, w_i, src_i, base_k, c_d2, c_face, r_lo, r_hi):
    """An end's balance with the inner node's value summed in a loop over
    the flux ends' response terms, lo then hi: the form the closure's
    residual must match bit for bit."""
    terms = [(e == end, r) for e, r in (("lo", r_lo), ("hi", r_hi)) if r is not None]

    def residual(b, other=0.0):
        val = base_k
        for own, r_k in terms:
            val = val + (b if own else other) * r_k
        return ((b - w_i) / dt + c_phi * law(b) - c_d2
                + c_face * (b - val) - src_i)

    return residual


def residual_factors(rng, n):
    """w_i, src_i, base_k, c_d2, c_face, r_lo, r_hi, b and other: n random
    draws over twelve decades and both signs, some of them signed zeros,
    then every combination of signed zeros with responses of either sign."""
    draws = rng.choice([-1.0, 1.0], (9, n)) * 10.0 ** rng.uniform(-6.0, 6.0, (9, n))
    zero = rng.random((9, n)) < 0.15
    draws[zero] = np.copysign(0.0, draws[zero])
    zeros = [0.0, -0.0]
    grid = np.meshgrid(zeros, zeros, zeros, zeros, [1.0, -0.0], [0.25, -0.25, -0.0],
                       [0.5, -0.5, 0.0], zeros, zeros, indexing="ij")
    return np.concatenate([draws, np.array([g.ravel() for g in grid])], axis=1)


@pytest.mark.parametrize("end,ends", [("lo", ("lo",)), ("hi", ("hi",)),
                                      ("lo", ("lo", "hi")), ("hi", ("lo", "hi"))])
def test_closure_residual_has_the_bits_of_the_loop(end, ends):
    # the residual's inner-node sum is unrolled: base_k + b*r_lo + other*r_hi
    # at the low end, base_k + other*r_lo + b*r_hi at the high end, the
    # latter keeping 0.0*r_lo at other = 0.0, which can set a zero's sign
    w_i, src_i, base_k, c_d2, c_face, r_lo, r_hi, b, other = residual_factors(
        np.random.default_rng(26), 3000)
    r_lo, r_hi = (r if e in ends else None for e, r in (("lo", r_lo), ("hi", r_hi)))
    factors = (w_i, src_i, base_k, c_d2, c_face, r_lo, r_hi)

    def bits(x):
        return np.asarray(x, dtype=float).view(np.uint64)

    for law in (lambda v: v, cubic(3.0)):
        # the lockstep layout on arrays
        got, want = (form(end, 0.002, 400.0, law, *factors)
                     for form in (parabolic._residual, loop_residual))
        assert np.array_equal(bits(got(b)), bits(want(b)))
        assert np.array_equal(bits(got(b, other)), bits(want(b, other)))
        # the float layout, on every 7th entry
        for j in range(0, b.size, 7):
            one = [None if f is None else f[j].item() for f in factors]
            got, want = (form(end, 0.002, 400.0, lambda v: float(law(v)), *one)
                         for form in (parabolic._residual, loop_residual))
            for call in ((b[j].item(),), (b[j].item(), other[j].item())):
                assert type(got(*call)) is float and bits(got(*call)) == bits(want(*call))


# ---------------------------------------------------------------------------
# the Newton closure against exact roots, and against the bisection it
# replaced


def same_bits(a, b):
    """Whether two float arrays hold the same bits, signed zeros and NaNs
    included."""
    a, b = (np.asarray(x, dtype=float) for x in (a, b))
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def exact_root(f, reach, halvings=160):
    """The root of the increasing f on [-reach, reach] in fractions, to
    within reach*2^-halvings: bisection on dyadic midpoints."""
    lo, hi = Fraction(-reach), Fraction(reach)
    assert f(lo) < 0 < f(hi)
    for _ in range(halvings):
        mid = (lo + hi) / 2
        if f(mid) <= 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def exact_cubic_ends(fac, c_phi, gamma):
    """The end values of the law v + gamma*v**3 for lines of two flux ends
    with factors fac (:func:`balance_factors`), in fractions: the high
    end's balance gives x as a rational function of y where beta_hi != 0,
    leaving one increasing equation in y."""
    g3 = Fraction(gamma)
    lines = []
    c_phi = np.broadcast_to(c_phi, fac["lo"][0].shape)
    for j in range(c_phi.size):
        c = Fraction(float(c_phi[j]))
        (s_lo, b_lo, g_lo), (s_hi, b_hi, g_hi) = (
            [Fraction(float(v[j])) for v in fac[end]] for end in ("lo", "hi"))

        def law(v):
            return c * (v + g3 * v * v * v)

        reach = 4 * (abs(g_lo) + abs(g_hi) + 1) * max(1, 1 / s_lo, 1 / s_hi)
        if b_hi == 0:
            y = exact_root(lambda y: s_hi * y + law(y) - g_hi, reach)
        else:
            y = exact_root(lambda y: s_lo * ((s_hi * y + law(y) - g_hi) / b_hi)
                           + law((s_hi * y + law(y) - g_hi) / b_hi) - b_lo * y - g_lo, reach)
        x = exact_root(lambda x: s_lo * x + law(x) - b_lo * y - g_lo, reach)
        lines.append((x, y))
    return lines


def one_end_factors(w_old, h, dt, af, src, bc_lo, bc_hi):
    """(s, g) per line of the balance s*b + (2/h)*varphi(b) - g at the high
    flux end of lines whose low end is Dirichlet."""
    base, resp = _line_responses(_Band(), w_old, h, dt, af, src, bc_lo, bc_hi)
    c_face = (2.0 / h**2) * af[:, -1]
    g = w_old[:, -1] / dt + (2.0 / h) * bc_hi[1] + c_face * base[:, -2] + src[:, -1]
    return 1.0 / dt + c_face * (1.0 - resp["hi"][:, -2]), g


@pytest.mark.parametrize("gamma", [0.0, 1e-3, 100.0, 1e3])
@pytest.mark.parametrize("lam", [1e-2, 1.0, 1e3])
@pytest.mark.parametrize("scale", [1.0, 1e3, 1e6])
def test_one_flux_end_is_within_its_bound_of_the_exact_root(gamma, lam, scale):
    # the root of s*b + c_phi*(b + gamma*b^3) - g in fractions; a closure's
    # end is within bc_tol of it, or, where the balance's terms are so large
    # that its rounding exceeds bc_tol, within that rounding (16 units of
    # roundoff of the terms' magnitudes, over the least slope)
    rng = np.random.default_rng([int(gamma), int(lam * 100), int(scale)])
    w_old, af, src, ends = random_lines(rng, n_lines=6, scale=scale)
    ends *= scale
    h = 1.0 / 11
    dt = lam * h * h
    bcs = ("dirichlet", ends[0]), ("flux", ends[1])
    band = _Band()
    stack = _solve_lines(band, w_old, h, dt, af, src, *bcs, cubic(gamma), BC_TOL)
    s, g = one_end_factors(w_old, h, dt, af, src, *bcs)
    c_phi = 2.0 / h
    for j in range(6):
        alone = solve_one_line(w_old[j], h, dt, af[j], src[j], *[(k, e[j]) for k, e in bcs],
                               cubic(gamma), BC_TOL)
        assert same_bits(alone, stack[j])
        sj, gj = Fraction(float(s[j])), Fraction(float(g[j]))
        root = exact_root(lambda b: sj * b + c_phi * (b + Fraction(gamma) * b**3) - gj,
                          abs(gj) / sj + 1)
        b = stack[j, -1]
        terms = abs(b) * (1 / dt + c_phi * (1 + gamma * b * b)) + abs(g[j]) + 2 * abs(b) / (h * h)
        allowance = BC_TOL + 2.0**-48 * terms / s[j]
        assert abs(Fraction(float(b)) - root) <= allowance
    assert band.closures == 6 and band.closure_error <= max(BC_TOL, 2.0**-48 * scale * 1e4)
    # a linear law closes in one call, a cubic one here within eight
    assert band.law_calls <= (1 if gamma == 0.0 else 8) * 6


@pytest.mark.parametrize("gamma", [0.0, 1e-3, 100.0, 1e3])
@pytest.mark.parametrize("lam", [1e-2, 1.0, 1e3])
@pytest.mark.parametrize("scale", [1.0, 1e3, 1e6])
def test_two_flux_ends_are_within_their_bound_of_the_exact_roots(gamma, lam, scale):
    # the 2x2 Newton against the exact roots of the two balances; a line's
    # bound L^-1 |R| is proven for every point, so the ends are within it,
    # up to the rounding of the balances at a large scale
    rng = np.random.default_rng([int(gamma), int(lam * 100), int(scale), 2])
    w_old, af, src, ends = random_lines(rng, n_lines=4, scale=scale)
    ends *= scale
    h = 1.0 / 11
    dt = lam * h * h
    band = _Band()
    stack = _solve_lines(band, w_old, h, dt, af, src, ("flux", ends[0]), ("flux", ends[1]),
                         cubic(gamma), BC_TOL)
    for j in range(4):
        alone = solve_one_line(w_old[j], h, dt, af[j], src[j], ("flux", ends[0][j]),
                               ("flux", ends[1][j]), cubic(gamma), BC_TOL)
        assert same_bits(alone, stack[j])
    fac = balance_factors(w_old, h, dt, af, src, ends)
    exact = exact_cubic_ends(fac, np.full(4, 2.0 / h), gamma)
    top = float(np.abs(stack[:, [0, -1]]).max()) + scale
    assert end_errors(stack, exact) <= BC_TOL + 2.0**-40 * top
    assert band.closures == 8
    assert band.closure_error <= max(BC_TOL, 2.0**-40 * top)


@pytest.mark.parametrize("kinds", FLUX_KINDS)
@pytest.mark.parametrize("gamma", [0.0, 0.8, 1e3])
def test_a_tolerance_below_the_floats_ends_at_the_rounding(kinds, gamma):
    # bc_tol = 1e-300 is below every reachable bound: each line stops where
    # its residual is rounding or its point no longer moves
    rng = np.random.default_rng(30)
    w_old, af, src, ends = random_lines(rng, n_lines=5)
    bcs = (kinds[0], ends[0]), (kinds[1], ends[1])
    band = _Band()
    stack = _solve_lines(band, w_old, 1.0 / 11, 0.01, af, src, *bcs, cubic(gamma), 1e-300)
    loose = _solve_lines(_Band(), w_old, 1.0 / 11, 0.01, af, src, *bcs, cubic(gamma), 1e-10)
    assert np.abs(stack - loose).max() <= 1e-10
    assert band.closure_error <= 1e-14
    for j in range(5):
        alone = solve_one_line(w_old[j], 1.0 / 11, 0.01, af[j], src[j],
                               *[(k, e[j]) for k, e in bcs], cubic(gamma), 1e-300)
        assert same_bits(alone, stack[j])


def test_coupled_lines_stop_on_their_own():
    # the coupling of the two flux ends spans four decades over the lines;
    # each line stops on its own bound, alone or in a stack
    rng = np.random.default_rng(3)
    w_old, af, src, ends = random_lines(rng, n_lines=9, m=6)
    af *= np.logspace(-2, 2, 9)[:, None]
    batched, per_line = solve_both(w_old, af, src, ("flux", "flux"), ends,
                                   h=0.2, dt=0.02, varphi=cubic(0.8))
    assert np.array_equal(batched, per_line)
    band = _Band()
    _solve_lines(band, w_old, 0.2, 0.02, af, src, ("flux", ends[0]), ("flux", ends[1]),
                 cubic(0.8), 1e-10)
    assert band.closures == 18 and band.closure_error <= 1e-10


@pytest.mark.parametrize("gamma", [1.0, 100.0])
def test_two_flux_ends_past_the_newton_rounds_close_nested(monkeypatch, gamma):
    # with one Newton round allowed, every line that has not stopped closes
    # by Newton on the high end's balance, the low end closed at each high
    # value, on floats; in a stack, such a line is closed alone
    monkeypatch.setattr(parabolic, "_NEWTON_ROUNDS", 1)
    nested = []
    real = parabolic._nested

    def counted(*args):
        nested.append(args)
        return real(*args)

    monkeypatch.setattr(parabolic, "_nested", counted)
    cases = [coupled_lines(n, a_dt / 0.01, n_lines=3, seed=n + 4) for a_dt in (1e-2, 1.0, 1e3)
             for n in (8, 200)]
    for w_old, h, dt, af, src, ends in cases:
        band = _Band()
        stack = _solve_lines(band, w_old, h, dt, af, src, ("flux", ends[0]), ("flux", ends[1]),
                             cubic(gamma), BC_TOL)
        for j in range(3):
            alone = solve_one_line(w_old[j], h, dt, af[j], src[j], ("flux", ends[0][j]),
                                   ("flux", ends[1][j]), cubic(gamma), BC_TOL)
            assert same_bits(alone, stack[j])
        exact = exact_cubic_ends(balance_factors(w_old, h, dt, af, src, ends),
                                 np.full(3, 2.0 / h), gamma)
        assert end_errors(stack, exact) <= BC_TOL
        assert band.closure_error <= BC_TOL
    assert len(nested) >= 2 * len(cases)


@pytest.mark.parametrize("n_lines", [1, 7])
@pytest.mark.parametrize("kinds", [("dirichlet", "flux"), ("flux", "flux")])
@pytest.mark.parametrize("gamma", [0.0, 100.0])
def test_a_band_rebinds_its_closure_constants_when_refactored(n_lines, kinds, gamma):
    # a sweep's closure constants are bound per factorisation and law
    # facts: a band that closed under another dt, another af or both, or
    # under a law of other facts, closes the next stack as a fresh band
    rng = np.random.default_rng(38 + n_lines)
    w_old, af, src, ends = random_lines(rng, n_lines=n_lines)
    h, dt, law = 1.0 / 11, 0.01, cubic(gamma)
    bcs = [(kind, ends[j]) for j, kind in enumerate(kinds)]
    fresh = _solve_lines(_Band(), w_old, h, dt, af, src, *bcs, law, BC_TOL)
    for stale_dt, stale_af, stale_law in ((2.0 * dt, af, law), (dt, 1.5 * af, law),
                                          (0.5 * dt, 0.5 * af, law), (dt, af, cubic(gamma + 3.0))):
        band = _Band()
        _solve_lines(band, w_old, h, stale_dt, stale_af, src, *bcs, stale_law, BC_TOL)
        again = _solve_lines(band, w_old, h, dt, af, src, *bcs, law, BC_TOL)
        assert band.factorizations == (1 if stale_law is not law else 2)
        assert np.array_equal(again, fresh) and same_bits(again, fresh)


def expand_lockstep(res, center, side):
    """Each line's bracket end for the increasing res: step outward from
    center, doubling the span, until res changes sign."""
    span = np.maximum(1.0, np.abs(center))
    x = center - span if side == "low" else center + span
    for _ in range(80):
        r = res(x)
        stop = (r <= 0.0) if side == "low" else (r >= 0.0)
        if stop.all():
            return x
        span *= 2.0
        x = np.where(stop, x, center - span if side == "low" else center + span)
    raise RuntimeError(f"flux boundary bracket expansion failed ({side} side)")


def reference_bisect_lockstep(res, center, bc_tol):
    """The lockstep bisection the Newton closure replaced: every line
    bisected to bc_tol or adjacent floats, an exact root kept."""
    lo = expand_lockstep(res, center, "low")
    hi = expand_lockstep(res, center, "high")
    live = hi - lo > bc_tol
    while live.any():
        mid = 0.5 * (lo + hi)
        live &= (lo < mid) & (mid < hi)
        r = res(mid)
        np.copyto(lo, mid, where=live & (r <= 0.0))
        np.copyto(hi, mid, where=live & ~(r < 0.0))
        live &= hi - lo > bc_tol
    return np.where(lo == hi, lo, 0.5 * (lo + hi))


def reference_close_stack(band, h, dt, w_old, src, base, af, data, varphi, bc_tol):
    """The bisection closure the Newton closure replaced, on arrays (a
    line as a one-line stack): each end bisected from its old value; two
    flux ends by bisection of y on the low end's balance at x(y) =
    R_hi(y; 0)/beta, clipped to the finite floats, and x by the low end's
    own bisection at y."""
    (n_lines, m), resp = w_old.shape, band.resp
    factors = {}
    for end in resp:
        # node, inner neighbour and face of the end
        i, k, f = (0, 1, 0) if end == "lo" else (m - 1, m - 2, m - 2)
        factors[end] = (w_old[:, i], src[:, i], base[:, k],
                        (2.0 / h) * np.broadcast_to(data[end], n_lines), (2.0 / h**2) * af[:, f],
                        *(resp[e][:, k] if e in resp else None for e in ("lo", "hi")))
    fmax = sys.float_info.max

    def bisect(res, center):
        return reference_bisect_lockstep(res, center, bc_tol)

    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        res = {end: loop_residual(end, dt, 2.0 / h, varphi, *fac) for end, fac in factors.items()}
        if len(res) == 1:
            ((end, residual),) = res.items()
            ends = {end: bisect(residual, factors[end][0])}
        else:
            lo, hi = res["lo"], res["hi"]
            w_hi, *_, c_face, r_lo, _ = factors["hi"]
            beta = c_face * r_lo

            def clip(r):
                x = np.where(beta == 0.0, np.copysign(fmax, r), r / beta)
                return np.minimum(np.maximum(x, -fmax), fmax)

            y = bisect(lambda y: lo(clip(hi(y)), y), w_hi)
            ends = {"lo": bisect(lambda x: lo(x, y), factors["lo"][0]), "hi": y}
    return {end: b[:, None] for end, b in ends.items()}, 0.0, 0


PARABOLIC_BUNDLED = [name for name in bundled_names() if load_plan(name).pde == "parabolic"]


@pytest.mark.parametrize("name", PARABOLIC_BUNDLED)
@pytest.mark.parametrize("flux_law", ["bundled", "cubic"])
def test_newton_runs_stay_within_the_closure_bound_of_the_bisection(monkeypatch, name, flux_law):
    # both closures put each end within bc_tol of its balance's root, so a
    # closure's two end values differ by at most 2*bc_tol, plus the
    # rounding of a balance of the run's magnitude; the line solve passes
    # end values on with weights in [0, 1] summing to at most 1, and the
    # backward-Euler step, its flux ends included, does not expand
    # differences in the sup norm, nor does the explicit reaction while
    # dt*c*varphi' <= 2.  So the states differ by at most that per
    # closing sweep, summed over the run's steps.
    plan = load_plan(name)
    cfg, scn, grid = replace(plan.solver, bc_tol=1e-14), plan.scenario, plan.grid
    if flux_law == "cubic":
        scn = replace(scn, boundary_reaction=cubic(1.0))
    new = solve_parabolic(scn, grid, cfg)
    with monkeypatch.context() as patch:
        patch.setattr(parabolic, "_close_lines", reference_close_stack)
        old = solve_parabolic(scn, grid, cfg)
    reach = new.counters["max_abs"]["u"]
    c_top = float(scn.c.bind(grid.points()).range(cfg.t_end)[1])
    law = scn.reaction
    assert cfg.dt * c_top * (law.slope + 3.0 * law.gamma * reach**2) <= 2.0
    sweeps = sum(1 for (lo, hi, _) in AXES[:scn.dim] if {lo, hi} & scn.gamma2)
    per_closure = 2.0 * cfg.bc_tol + 2.0**-40 * max(reach, 1.0)
    bound = new.counters["steps"] * sweeps * per_closure
    drift = float(np.abs(new.states("u") - old.states("u")).max())
    assert np.array_equal(new.times, old.times)
    assert drift <= bound
    # within bc_tol, or the rounding of the balance at a bc_tol this small
    assert new.counters["closure_error"] <= per_closure / 2.0


@pytest.mark.parametrize("name", PARABOLIC_BUNDLED)
def test_bundled_runs_count_their_closures(name):
    # one closure per flux end of a line a step; every error bound at exit
    # within bc_tol
    plan = load_plan(name)
    traj = solve_parabolic(plan.scenario, plan.grid, plan.solver)
    counters = traj.counters
    scn, grid = plan.scenario, plan.grid
    ends = 0
    for k, (lo, hi, _) in enumerate(AXES[:scn.dim]):
        lines = math.prod(n + 1 - sum(e in scn.gamma1 for e in AXES[j][:2])
                          for j, n in enumerate(grid.cells) if j != k)
        ends += lines * len({lo, hi} & scn.gamma2)
    assert counters["closures"] == ends * counters["steps"] > 0
    assert counters["closure_error"] <= plan.solver.bc_tol
    # the bundled laws are linear: one call per closure
    assert counters["flux_law_calls"] == counters["closures"]


# ---------------------------------------------------------------------------
# batched 2-D stepper against one line solve at a time


def explicit_source(scn, pts, t, w):
    """-c phi(w) + f at the points, the fields evaluated anew."""
    return (-np.asarray(scn.c(pts, t), dtype=float) * np.asarray(scn.reaction(w), dtype=float)
            + np.asarray(scn.f(pts, t), dtype=float))


def bc_spec(scn, edge, coord, tn):
    """(kind, value) of an edge at coord, the data field evaluated anew."""
    if edge in scn.gamma1:
        return ("dirichlet", scn.d1(coord, tn))
    return ("flux", scn.d2(coord, tn))


def per_line_2d(scn, grid, cfg):
    """Every state of the dimension-split stepper, one line solve at a time,
    every field evaluated anew at every step."""
    X, Y = grid.points()
    xs, ys = X[:, 0], Y[0, :]
    xf, yf = 0.5 * (xs[:-1] + xs[1:]), 0.5 * (ys[:-1] + ys[1:])
    w = np.asarray(scn.w0((X, Y)), dtype=float)
    states, t = [w], 0.0
    while t < cfg.t_end - 1e-12 * cfg.t_end:
        dt = min(cfg.dt, cfg.t_end - t)
        tn = t + dt
        src = explicit_source(scn, (X, Y), t, w)
        w_star = np.asarray(scn.d1((X, Y), tn), dtype=float)
        w_new = w_star.copy()
        for iy, y in enumerate(ys):
            if not ((iy == 0 and "bottom" in scn.gamma1)
                    or (iy == grid.ny and "top" in scn.gamma1)):
                af = np.asarray(scn.a((xf, np.full(grid.nx, y)), tn), dtype=float)
                w_star[:, iy] = solve_one_line(
                    w[:, iy], grid.steps[0], dt, af, src[:, iy],
                    bc_spec(scn, "left", (0.0, y), tn), bc_spec(scn, "right", (1.0, y), tn),
                    scn.boundary_reaction, cfg.bc_tol)
        for ix, x in enumerate(xs):
            if not ((ix == 0 and "left" in scn.gamma1)
                    or (ix == grid.nx and "right" in scn.gamma1)):
                af = np.asarray(scn.a((np.full(grid.ny, x), yf), tn), dtype=float)
                w_new[ix, :] = solve_one_line(
                    w_star[ix, :], grid.steps[1], dt, af, np.zeros(grid.ny + 1),
                    bc_spec(scn, "bottom", (x, 0.0), tn), bc_spec(scn, "top", (x, 1.0), tn),
                    scn.boundary_reaction, cfg.bc_tol)
        w, t = w_new, tn
        states.append(w)
    return states


@pytest.mark.parametrize("flux_edges", [
    ("bottom", "top"), ("left", "right"), ("left", "top"),
    ("left", "right", "bottom", "top")])
def test_2d_batched_sweeps_match_per_line_oracle(flux_edges):
    gamma2 = frozenset(flux_edges)
    gamma1 = frozenset({"left", "right", "bottom", "top"}) - gamma2
    grid = Grid(10, 12)
    wavy = TimeSignal.sinusoid(1.0, 1.3, 0.4, offset=0.5)
    scn = make_scenario(
        dim=2, gamma1=gamma1, gamma2=gamma2,
        # every field varies in x, y and t
        a=SpaceTimeField.separable(
            lambda p: 1.0 + 0.5 * np.asarray(p[0]) * np.asarray(p[1]),
            TimeSignal.sinusoid(0.2, 0.3, offset=1.0)),
        reaction=cubic(0.5), boundary_reaction=cubic(1.2),
        f=SpaceTimeField.from_signal(wavy),
        d1=SpaceTimeField.separable(
            lambda p: 0.2 * np.cos(3.0 * np.asarray(p[0]) + 2.0 * np.asarray(p[1])),
            TimeSignal.sinusoid(1.0, 0.2, 0.5)),
        d2=SpaceTimeField.separable(
            lambda p: 0.3 * np.sin(2.0 * np.asarray(p[0]) - np.asarray(p[1]) + 0.4),
            TimeSignal.polynomial(1.0, 3.0)),
        w0=profile_sum(lambda xy: np.full(np.shape(xy[0]), 0.3), profile_sinprod(2.0)))
    cfg = SolverConfig(t_end=0.05, dt=0.01)
    traj = solve_parabolic(scn, grid, cfg)
    oracle = per_line_2d(scn, grid, cfg)
    assert len(traj) == len(oracle)
    for i, expected in enumerate(oracle):
        assert np.array_equal(traj.state(i), expected)


CLOSE_LINES = parabolic._close_lines


def close_line_by_line(band, h, dt, w_old, src, base, af, data, varphi, bc_tol):
    """:func:`parabolic._close_lines` of a stack as one call per line, each
    on the float layout, with a band of that line's responses alone."""
    n_lines = w_old.shape[0]
    rows = [CLOSE_LINES(
        _Band(resp={end: r[j:j + 1] for end, r in band.resp.items()}), h, dt,
        w_old[j:j + 1], src[j:j + 1], base[j:j + 1], af[j:j + 1],
        {end: np.broadcast_to(v, n_lines)[j] for end, v in data.items()}, varphi, bc_tol)
        for j in range(n_lines)]
    return ({end: np.array([[row[0][end]] for row in rows]) for end in band.resp},
            max(row[1] for row in rows), sum(row[2] for row in rows))


@pytest.mark.parametrize("dim", [2, 3])
def test_whole_solves_close_stacks_as_line_by_line(monkeypatch, dim):
    # flux on both ends of every axis with the cubic law, so every sweep
    # closes stacks of lines with two flux ends
    scn = make_scenario(
        dim=dim, gamma1=(), gamma2=edge_names(dim), reaction=cubic(0.5),
        boundary_reaction=cubic(1.2),
        f=SpaceTimeField.from_signal(TimeSignal.sinusoid(1.0, 1.3, 0.4, offset=0.5)),
        d2=SpaceTimeField.separable(
            lambda p: 0.3 * np.sin(2.0 * np.asarray(p[0]) - np.asarray(p[-1]) + 0.4),
            TimeSignal.polynomial(1.0, 3.0)),
        w0=profile_sum(profile_constant(0.3), profile_sinprod(2.0, 1, 2, 1 if dim == 3 else None)))
    grid, cfg = Grid(*(10, 12, 8)[:dim]), SolverConfig(t_end=0.05, dt=0.01)
    shipped = solve_parabolic(scn, grid, cfg)
    monkeypatch.setattr(parabolic, "_close_lines", close_line_by_line)
    by_line = solve_parabolic(scn, grid, cfg)
    assert len(shipped) == len(by_line) == 6
    for i in range(len(shipped)):
        assert same_bits(shipped.state(i), by_line.state(i))


# ---------------------------------------------------------------------------
# the one-line step: fields bound once, the closure on floats


def per_step_1d(scn, grid, cfg, partner):
    """Every state of the one-dimensional stepper, each step solved as row 0
    of a two-line lockstep stack whose row 1 is partner(w), every field
    evaluated anew at every step."""
    y = grid.points()
    yf = 0.5 * (y[:-1] + y[1:])
    w = np.asarray(scn.w0(y), dtype=float)
    states, t = [w], 0.0
    while t < cfg.t_end - 1e-12 * cfg.t_end:
        dt = min(cfg.dt, cfg.t_end - t)
        tn = t + dt
        src = explicit_source(scn, y, t, w)
        ends = []
        for edge, coord in (("left", 0.0), ("right", 1.0)):
            kind, value = bc_spec(scn, edge, coord, tn)
            ends.append((kind, np.array([value, 0.5 * value - 0.1])))
        stack = np.stack([w, partner(w)])
        w = _solve_lines(_Band(), stack, grid.h, dt, np.repeat(scn.a(yf, tn)[None, :], 2, axis=0),
                         np.stack([src, 0.3 * src]), *ends, scn.boundary_reaction,
                         cfg.bc_tol)[0]
        states.append(w)
        t = tn
    return states


def varying_1d(**over):
    """A one-line scenario whose every field varies in space and time."""
    return make_scenario(
        a=SpaceTimeField.separable(lambda y: 1.0 + 0.5 * np.asarray(y),
                                   TimeSignal.sinusoid(0.2, 0.3, offset=1.0)),
        c=SpaceTimeField.separable(lambda y: 1.0 + np.asarray(y) ** 2,
                                   TimeSignal.exp_decay(0.5, 2.0, offset=1.0)),
        f=SpaceTimeField.separable(profile_sin(0.8, mode=2), TimeSignal.sinusoid(1.0, 1.3, 0.4)),
        d1=SpaceTimeField.from_signal(TimeSignal.sinusoid(0.2, 0.9, offset=0.1)),
        d2=SpaceTimeField.from_signal(TimeSignal.polynomial(0.3, -1.0, 2.0)),
        w0=profile_sum(profile_constant(0.2), profile_sin(1.6, mode=1)), **over)


@pytest.mark.parametrize("kinds", FLUX_KINDS)
@pytest.mark.parametrize("law", ["identity", "cubic"])
def test_one_line_steps_match_row_0_of_a_lockstep_stack(kinds, law):
    gamma1 = tuple(e for e, k in zip(("left", "right"), kinds) if k == "dirichlet")
    gamma2 = tuple(e for e, k in zip(("left", "right"), kinds) if k == "flux")
    scn = varying_1d(gamma1=gamma1, gamma2=gamma2, reaction=cubic(0.5),
                     boundary_reaction=identity() if law == "identity" else cubic(1.2))
    grid, cfg = Grid(24, layout="node"), SolverConfig(t_end=0.1, dt=0.004)
    traj = solve_parabolic(scn, grid, cfg)
    oracle = per_step_1d(scn, grid, cfg, partner=lambda w: w[::-1] - 0.3)
    assert len(traj) == len(oracle)
    for i, expected in enumerate(oracle):
        assert np.array_equal(traj.state(i), expected)


def test_profiles_are_evaluated_once_per_point_set_per_solve():
    # a step evaluates the fields' signals only: the profiles of separable
    # a, c, f, d1 and d2 are evaluated once on each point set they are
    # bound to, whatever the step count
    calls = []

    def spied(name, profile):
        def prof(y):
            calls.append((name, np.asarray(y).tobytes()))
            return profile(y)
        return prof

    def counts(steps):
        calls.clear()
        sig = TimeSignal.sinusoid(0.2, 0.7, offset=1.0)
        fields = {name: SpaceTimeField.separable(spied(name, profile_constant(0.5)), sig)
                  for name in ("a", "c", "f", "d1", "d2")}
        scn = make_scenario(**fields, a0=0.4, c0=0.4)
        solve_parabolic(scn, Grid(16, layout="node"), SolverConfig(t_end=0.01 * steps, dt=0.01))
        return {(name, pts): calls.count((name, pts)) for name, pts in set(calls)}

    few, many = counts(3), counts(30)
    assert few == many
    # a on the faces; c and f on the nodes; d1 at the left end, d2 at the right
    assert sorted(name for name, _ in many) == ["a", "c", "d1", "d2", "f"]
    assert set(many.values()) == {1}


# ---------------------------------------------------------------------------
# the maps hold on every state by their kinds, however far the run goes


def test_a_run_far_out_solves():
    # a state of 2e6 once exceeded the largest range the maps were sampled
    # on; the kinds' facts hold on every state
    scn = make_scenario(w0=profile_sin(5e4, mode=1), boundary_reaction=cubic(0.5))
    traj = solve_parabolic(scn, Grid(16, layout="node"), SolverConfig(t_end=0.02, dt=0.01))
    assert traj.counters["max_abs"]["u"] == pytest.approx(5e4)
    traj = solve_parabolic(replace(scn, w0=profile_sin(2e6, mode=1)), Grid(16, layout="node"),
                           SolverConfig(t_end=0.02, dt=0.01))
    assert traj.counters["max_abs"]["u"] == pytest.approx(2e6)
    assert np.isfinite(traj.state(-1)).all()


# ---------------------------------------------------------------------------
# the diffusion band: factored once per operator, solved once per step

NONFINITE = "non-finite diffusion band or right-hand side"


def gtsv_responses(w_old, h, dt, af, src, kinds, ends):
    """The base and flux-end responses of a stack from scipy's
    solve_banded((1, 1), ...), which calls LAPACK gtsv, on the stepper's band."""
    from scipy.linalg import solve_banded
    n_lines, m = w_old.shape
    lam = dt / h**2
    ab = np.zeros((3, n_lines, m))
    ab[1] = 1.0
    ab[1, :, 1:-1] = 1.0 + lam * (af[:, 1:] + af[:, :-1])
    ab[0, :, 2:] = -lam * af[:, 1:]
    ab[2, :, :-2] = -lam * af[:, :-1]
    ab = ab.reshape(3, -1)
    rhs, resp = np.zeros((n_lines, m)), {}
    rhs[:, 1:-1] = w_old[:, 1:-1] + dt * src[:, 1:-1]
    for end, i, kind, value in (("lo", 0, kinds[0], ends[0]), ("hi", m - 1, kinds[1], ends[1])):
        if kind == "dirichlet":
            rhs[:, i] = value
        else:
            unit = np.zeros((n_lines, m))
            unit[:, i] = 1.0
            resp[end] = solve_banded((1, 1), ab, unit.ravel()).reshape(n_lines, m)
    return solve_banded((1, 1), ab, rhs.ravel()).reshape(n_lines, m), resp


@pytest.mark.parametrize("kinds", [(lo, hi) for lo in KINDS for hi in KINDS])
@pytest.mark.parametrize("n_lines", [1, 5])
@pytest.mark.parametrize("lam_a", [1e-2, 80.0, 1e4])
def test_line_responses_match_gtsv_bitwise(lam_a, n_lines, kinds):
    rng = np.random.default_rng(15)
    m, h, dt = 12, 1.0 / 11, 0.01
    af = (lam_a * h**2 / dt) * rng.uniform(0.5, 2.0, size=(n_lines, m - 1))
    band = _Band()
    for _ in range(2):  # the second step reuses the factorisation
        w_old, src = rng.normal(size=(2, n_lines, m))
        ends = rng.normal(size=(2, n_lines))
        base, resp = _line_responses(band, w_old, h, dt, af, src,
                                     (kinds[0], ends[0]), (kinds[1], ends[1]))
        want_base, want_resp = gtsv_responses(w_old, h, dt, af, src, kinds, ends)
        assert np.array_equal(base, want_base)
        assert resp.keys() == want_resp.keys()
        for end, r in resp.items():
            assert np.array_equal(r, want_resp[end])
    assert band.factorizations == 1
    # the rows next to the identity end rows pivot exactly when lam*a > 1
    ipiv = band.lu[4]
    assert np.any(ipiv != np.arange(1, ipiv.size + 1)) == (lam_a > 1)


@pytest.mark.parametrize("missing", ["spec", "file"])
def test_lapack_extension_and_scipy_linalg_give_the_same_bits(monkeypatch, missing):
    import importlib.machinery
    import importlib.util

    import scipy.linalg
    rng = np.random.default_rng(17)
    n = 200
    dl, du = rng.uniform(-1.0, 1.0, size=(2, n - 1))
    d = rng.uniform(2.5, 3.5, size=n)  # strictly diagonally dominant
    b = rng.normal(size=(n, 3))
    parabolic._lapack.cache_clear()
    pairs = parabolic._lapack(), scipy.linalg.get_lapack_funcs(("gttrf", "gttrs"), (np.zeros(1),))
    outs = []
    for gttrf, gttrs in pairs:
        lu = gttrf(dl, d, du)
        outs.append((lu, gttrs(*lu[:-1], b)[0]))
    (lu, x), (want_lu, want_x) = outs
    assert lu[-1] == want_lu[-1] == 0
    assert all(np.array_equal(f, g) for f, g in zip(lu, want_lu))
    assert np.array_equal(x, want_x)

    # with the extension file not found, a solve falls back to scipy.linalg
    plan = load_plan("parabolic_demo")
    fast = solve_parabolic(plan.scenario, plan.grid, plan.solver)
    fallbacks = []

    def get_lapack_funcs(*args):
        fallbacks.append(args)
        return pairs[1]

    monkeypatch.setattr(scipy.linalg, "get_lapack_funcs", get_lapack_funcs)
    if missing == "spec":
        monkeypatch.setattr(importlib.util, "find_spec", lambda name: None)
    else:
        monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".missing"])
    parabolic._lapack.cache_clear()
    try:
        slow = solve_parabolic(plan.scenario, plan.grid, plan.solver)
    finally:
        monkeypatch.undo()
        parabolic._lapack.cache_clear()
    assert len(fallbacks) == 1
    assert np.array_equal(slow.times, fast.times)
    assert np.array_equal(slow.states("u"), fast.states("u"))


def test_band_checks_survive_the_cache():
    rng = np.random.default_rng(16)
    w_old, af, src, ends = random_lines(rng)
    bcs = ("dirichlet", ends[0]), ("flux", ends[1])
    band = _Band()
    _, resp = _line_responses(band, w_old, 0.1, 0.01, af, src, *bcs)
    assert not resp["hi"].flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        resp["hi"][0, 0] = 0.0
    # a NaN source on the cached band
    bad_src = src.copy()
    bad_src[2, 5] = np.nan
    with pytest.raises(RuntimeError, match=NONFINITE):
        _line_responses(band, w_old, 0.1, 0.01, af, bad_src, *bcs)
    # an infinite face diffusivity when the band is refactored
    bad_af = af.copy()
    bad_af[3, 4] = np.inf
    with pytest.raises(RuntimeError, match=NONFINITE):
        _line_responses(band, w_old, 0.1, 0.01, bad_af, src, *bcs)
    # the memo keeps its last good factorisation
    assert band.factorizations == 1
    assert _line_responses(band, w_old, 0.1, 0.01, af, src, *bcs)[1] is resp
    assert band.factorizations == 1


def test_non_finite_band_on_refactoring_is_a_divergence():
    # a(t) = exp(1500 t) is finite at the first step and infinite at the second
    scn = make_scenario(a=SpaceTimeField.from_signal(TimeSignal.exp_decay(1.0, -1500.0)),
                        gamma1=("left", "right"), gamma2=())
    with np.errstate(over="ignore"), pytest.raises(
            SolverDivergedError, match=rf"^solver diverged at step 2, t = 0.5 \({NONFINITE}\)$"):
        solve_parabolic(scn, Grid(32, layout="node"), SolverConfig(t_end=0.5, dt=0.25))


def test_non_finite_right_hand_side_on_a_cached_band_is_a_divergence():
    # no reaction and f = 1e308: w + dt*f is finite at the first step and
    # overflows at the second, on the band the first step factored
    scn = make_scenario(a=SpaceTimeField.constant(1e-9), a0=1e-9, c=ZERO, c0=0.0,
                        f=SpaceTimeField.constant(1e308), w0=profile_constant(0.0),
                        gamma1=("left", "right"), gamma2=())
    with np.errstate(over="ignore"), pytest.raises(
            SolverDivergedError, match=rf"^solver diverged at step 2, t = 2.0 \({NONFINITE}\)$"):
        solve_parabolic(scn, Grid(32, layout="node"), SolverConfig(t_end=2.0, dt=1.0))


@pytest.mark.parametrize("t_end, dt, steps, factorizations", [
    (0.25, 2.0**-6, 16, 1),  # dt divides t_end
    (0.0105, 0.002, 6, 2),   # a shorter last step refactors
])
def test_a_constant_operator_is_factored_once_per_dt(t_end, dt, steps, factorizations):
    scn = make_scenario(d2=SpaceTimeField.constant(0.3))
    traj = solve_parabolic(scn, Grid(32, layout="node"), SolverConfig(t_end=t_end, dt=dt))
    assert traj.counters["steps"] == steps
    assert traj.counters["band_factorizations"] == factorizations
    assert not {"steps", "band_factorizations"} & traj.meta.keys()


def test_a_time_varying_diffusion_is_factored_every_step():
    scn = make_scenario(a=SpaceTimeField.from_signal(TimeSignal.sinusoid(0.2, 1.0, offset=1.0)),
                        a0=0.8, d2=SpaceTimeField.constant(0.3))
    traj = solve_parabolic(scn, Grid(32, layout="node"), SolverConfig(t_end=0.2, dt=0.01))
    assert traj.counters["steps"] == traj.counters["band_factorizations"] == 20


def test_each_2d_sweep_factors_its_band_once():
    scn = make_scenario(dim=2, w0=profile_sinprod(1.0), d2=SpaceTimeField.constant(0.3),
                        gamma1=("left", "right"), gamma2=("bottom", "top"))
    traj = solve_parabolic(scn, Grid(8, 8), SolverConfig(t_end=0.25, dt=2.0**-6))
    assert traj.counters["steps"] == 16
    assert traj.counters["band_factorizations"] == 2


# ---------------------------------------------------------------------------
# three axes: a config, no solver branch of its own

CUBE = """
name: cube_mode
pde: parabolic
scenario:
  dim: 3
  diffusion: {kind: constant, value: 1.0}
  diffusion_floor: 1.0
  damping: {kind: constant, value: 2.0}
  damping_floor: 2.0
  reaction: {kind: identity}
  boundary_reaction: {kind: identity}
  forcing: {kind: constant, value: 0.0}
  dirichlet_data: {kind: constant, value: 0.0}
  flux_data: {kind: constant, value: 0.0}
  dirichlet_edges: [left, right, bottom, top, front, back]
  flux_edges: []
  initial: {kind: sinprod, amplitude: 1.0, mode_x: 1, mode_y: 1, mode_z: 1}
grid: {nx: 10, ny: 10, nz: 10}
solver: {t_end: 0.05, dt: 0.001, output_stride: 10}
energy: {p: 2.0}
checks:
  - {kind: parabolic_q, q: 2}
  - {kind: parabolic_q, q: inf}
"""


def test_cube_run_decays_as_the_separable_dirichlet_mode(tmp_path, capsys):
    # u = exp(-(3 pi^2 + c) t) sin(pi x) sin(pi y) sin(pi z) solves u_t =
    # lap u - c u with zero Dirichlet data on every face
    config = tmp_path / "cube.yaml"
    config.write_text(CUBE)
    assert main(["run", str(config), "--out", str(tmp_path)]) == 0
    report = capsys.readouterr().out
    assert report.count("check kind=parabolic_q") == 2
    assert report.count("violations=0 ") == 2 and report.endswith("status=ok\n")
    out = tmp_path / "cube_mode"
    with open(out / "trajectory.csv") as fh:
        assert fh.readline() == "t,y1,y2,y3,value\n"
        rows = np.loadtxt(fh, delimiter=",").reshape(6, 11, 11, 11, 5)
    times, u = rows[:, 0, 0, 0, 0], rows[..., 4]
    assert np.array_equal(rows[0, ..., 1:4], np.stack(np.meshgrid(
        *[np.linspace(0.0, 1.0, 11)] * 3, indexing="ij"), axis=-1))
    meta = yaml.safe_load((out / "trajectory_meta.yaml").read_text())
    assert {k: meta[k] for k in ("dim", "nx", "ny", "nz")} == {"dim": 3, "nx": 10, "ny": 10, "nz": 10}

    # the grid mode is an eigenvector of each sweep: the explicit reaction
    # multiplies it by 1 - c dt and each of the three implicit sweeps divides
    # it by 1 + dt lam_h, lam_h = (4/h^2) sin^2(pi h/2), so each step
    # multiplies it by exactly F; each step rounds at a few ulps, so after s
    # steps the states stay within 4 s eps of F^s u_0 (14 eps measured at s = 50)
    h, dt, c = 0.1, 0.001, 2.0
    lam_h = 4.0 / h**2 * math.sin(math.pi * h / 2.0) ** 2
    factor = (1.0 - c * dt) / (1.0 + dt * lam_h) ** 3
    inner = (slice(1, -1),) * 3
    for i in range(1, 6):
        steps = 10 * i
        assert times[i] == pytest.approx(steps * dt, rel=1e-12)
        assert np.all(u[i][0] == 0.0) and np.all(u[i][:, :, -1] == 0.0)
        assert np.max(np.abs(u[i][inner] - factor**steps * u[0][inner])) \
            <= 4 * steps * np.finfo(float).eps * np.max(np.abs(u[0]))

    # so the discrete rate -ln(F)/dt is within O(h^2 + dt) of 3 pi^2 + c:
    # pi^2 (1 - pi^2 h^2/12) <= lam_h <= pi^2 and y - y^2/2 <= ln(1 + y) <= y
    # bound the sweeps' part below by 3 pi^2 - pi^4 h^2/4 - 3 pi^4 dt/2 and
    # above by 3 pi^2; -ln(1 - c dt)/dt lies in [c, c/(1 - c dt)]
    rate = -math.log(u[5][5, 5, 5] / u[0][5, 5, 5]) / times[5]
    assert rate == pytest.approx(-math.log(factor) / dt, rel=1e-12)
    exact = 3.0 * math.pi**2 + c
    assert -(math.pi**4 * h**2 / 4.0 + 1.5 * math.pi**4 * dt) <= rate - exact \
        <= c * c * dt / (1.0 - c * dt)
