"""Tests for the semi-implicit reaction-diffusion stepper.

The linear heat equation with homogeneous Dirichlet data has the exact
separable solution used as the refinement oracle; the nonlinear runs are
checked against structural invariants (equilibria, energy decay, sup
bounds) instead.
"""

import numpy as np
import pytest

from isscert.comparison import identity_map, linear_map, odd_cubic_map
from isscert.fields import Grid1D, Grid2D, lq_norm
from isscert.signals import (SpaceTimeField, TimeSignal, profile_bump,
                             profile_constant, profile_sin, profile_sum,
                             profile2d_sinprod)
from isscert.solvers import (ParabolicScenario, ScenarioError, SolverConfig,
                             SolverDivergedError, solve_parabolic)
from isscert.solvers.parabolic import (_bc_spec, _explicit_source, _solve_line,
                                       _solve_lines)

ZERO = SpaceTimeField.constant(0.0)
ONE = SpaceTimeField.constant(1.0)


def make_scenario(**over):
    base = dict(
        dim=1, a=ONE, a0=1.0, c=ONE, c0=1.0,
        reaction=identity_map(), boundary_reaction=identity_map(),
        f=ZERO, d1=ZERO, d2=ZERO,
        w0=profile_bump(1.0, 0.4, 0.3),
        gamma1=("left",), gamma2=("right",))
    base.update(over)
    return ParabolicScenario(**base)


def test_zero_equilibrium_preserved():
    scn = make_scenario(w0=profile_constant(0.0))
    traj = solve_parabolic(scn, Grid1D(32, layout="node"),
                           SolverConfig(t_end=0.5, dt=0.01))
    for i in range(len(traj)):
        assert np.max(np.abs(traj.state(i))) == 0.0


def test_l2_nonincreasing_without_disturbances():
    scn = make_scenario()
    grid = Grid1D(64, layout="node")
    traj = solve_parabolic(scn, grid, SolverConfig(t_end=0.5, dt=0.005))
    norms = [lq_norm(traj.state(i), 2.0, grid) for i in range(len(traj))]
    assert all(b <= a + 1e-13 for a, b in zip(norms, norms[1:]))
    assert norms[-1] < norms[0]


def test_l2_strictly_decreasing_linear_bump():
    # pure decay scenario: every step must lose energy
    scn = make_scenario(w0=profile_sin(1.0, mode=1))
    grid = Grid1D(64, layout="node")
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
    grid = Grid1D(100, layout="node")
    traj = solve_parabolic(scn, grid, SolverConfig(t_end=1.0, dt=0.004))
    w0_sup = np.max(np.abs(traj.state(0)))
    limit = 8.0 * 1.0 + 4.0 * w0_sup
    for i in range(len(traj)):
        assert np.max(np.abs(traj.state(i))) <= limit


def test_dirichlet_nodes_pinned():
    scn = make_scenario(d1=SpaceTimeField.constant(0.2))
    grid = Grid1D(32, layout="node")
    traj = solve_parabolic(scn, grid, SolverConfig(t_end=0.2, dt=0.01))
    for i in range(1, len(traj)):
        assert traj.state(i)[0] == 0.2


def test_flux_condition_satisfied_at_final_state():
    # a*dw/dnu + varphi(w) = d2 at y=1; check with a one-sided difference
    scn = make_scenario(d2=SpaceTimeField.constant(0.3))
    grid = Grid1D(200, layout="node")
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
        grid = Grid1D(n, layout="node")
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
    grid = Grid1D(100, layout="node")
    traj = solve_parabolic(scn, grid, SolverConfig(t_end=1.0, dt=0.05))
    assert np.all(np.isfinite(traj.state(-1)))
    assert np.max(np.abs(traj.state(-1))) < 1.0


def test_divergence_reported_with_step():
    scn = make_scenario(reaction=odd_cubic_map(1.0, hi=1e12),
                        w0=profile_constant(0.0),
                        f=SpaceTimeField.constant(1e150))
    with pytest.raises(SolverDivergedError):
        solve_parabolic(scn, Grid1D(16, layout="node"),
                        SolverConfig(t_end=1.0, dt=0.5))


def test_scenario_validation_errors():
    with pytest.raises(ScenarioError):
        make_scenario(dim=3).validate()
    with pytest.raises(ScenarioError):
        make_scenario(a0=0.0).validate()
    with pytest.raises(ScenarioError):
        make_scenario(gamma1=("left", "right"), gamma2=("right",)).validate()
    with pytest.raises(ScenarioError):
        make_scenario(gamma1=("left",), gamma2=()).validate()
    # reaction slope below one violates the expansion condition
    with pytest.raises(ScenarioError):
        make_scenario(reaction=linear_map(0.5)).validate()


def test_missing_dt_rejected():
    with pytest.raises(ValueError):
        solve_parabolic(make_scenario(), Grid1D(16, layout="node"),
                        SolverConfig(t_end=0.1, cfl_sigma=0.9))


def test_cell_grid_rejected():
    with pytest.raises(ValueError):
        solve_parabolic(make_scenario(), Grid1D(16, layout="cell"),
                        SolverConfig(t_end=0.1, dt=0.01))


# ---------------------------------------------------------------------------
# two space dimensions


def test_2d_zero_equilibrium():
    grid = Grid2D(10, 10, gamma1=frozenset({"left", "right"}),
                  gamma2=frozenset({"bottom", "top"}))
    scn = make_scenario(dim=2, w0=lambda pts: np.zeros_like(pts[0]),
                        gamma1=("left", "right"), gamma2=("bottom", "top"))
    traj = solve_parabolic(scn, grid, SolverConfig(t_end=0.1, dt=0.01))
    assert np.max(np.abs(traj.state(-1))) == 0.0


def test_2d_l2_nonincreasing():
    grid = Grid2D(12, 12, gamma1=frozenset({"left", "right"}),
                  gamma2=frozenset({"bottom", "top"}))
    scn = make_scenario(dim=2, w0=profile2d_sinprod(1.0),
                        gamma1=("left", "right"), gamma2=("bottom", "top"))
    traj = solve_parabolic(scn, grid, SolverConfig(t_end=0.1, dt=0.005))
    norms = [lq_norm(traj.state(i), 2.0, grid) for i in range(len(traj))]
    assert all(b <= a + 1e-13 for a, b in zip(norms, norms[1:]))
    assert norms[-1] < 0.5 * norms[0]


# ---------------------------------------------------------------------------
# batched line kernel: bitwise equal to one scalar solve per line

KINDS = ("dirichlet", "flux")


def random_lines(rng, n_lines=7, m=12, scale=1.0):
    w_old = scale * rng.normal(size=(n_lines, m))
    af = rng.uniform(0.5, 2.0, size=(n_lines, m - 1))
    src = rng.normal(size=(n_lines, m))
    ends = rng.normal(size=(2, n_lines))
    return w_old, af, src, ends


def solve_both(w_old, af, src, kinds, ends, h=1.0 / 11, dt=0.01,
               varphi=odd_cubic_map(0.8)):
    bc_lo, bc_hi = (kinds[0], ends[0]), (kinds[1], ends[1])
    batched = _solve_lines(w_old, h, dt, af, src, bc_lo, bc_hi, varphi, 1e-10)
    per_line = np.array([
        _solve_line(w_old[k], h, dt, af[k], src[k], (kinds[0], ends[0][k]),
                    (kinds[1], ends[1][k]), varphi, 1e-10)
        for k in range(w_old.shape[0])])
    return batched, per_line


@pytest.mark.parametrize("kinds", [(lo, hi) for lo in KINDS for hi in KINDS])
def test_solve_lines_matches_scalar_solves(kinds):
    rng = np.random.default_rng(sum(map(len, kinds)))
    for scale in (1e-3, 1.0, 50.0):
        w_old, af, src, ends = random_lines(rng, scale=scale)
        batched, per_line = solve_both(w_old, af, src, kinds, ends)
        assert np.array_equal(batched, per_line)


def test_solve_lines_coupled_lines_stop_on_their_own():
    # strong diffusion on few points couples the two flux ends, so the
    # lines need different numbers of coupled sweeps
    rng = np.random.default_rng(3)
    w_old, af, src, ends = random_lines(rng, n_lines=9, m=6)
    af *= np.logspace(-2, 2, 9)[:, None]
    varphi = odd_cubic_map(0.8)
    sweeps = []
    for k in range(9):
        # every sweep starts the low end's bracket at the same point
        start = w_old[k, 0] - max(1.0, abs(w_old[k, 0]))
        args = []

        def recorded(v):
            args.append(v)
            return varphi(v)

        _solve_line(w_old[k], 0.2, 0.02, af[k], src[k], ("flux", ends[0][k]),
                    ("flux", ends[1][k]), recorded, 1e-10)
        sweeps.append(args.count(start))
    assert min(sweeps) <= 3 and max(sweeps) >= 20
    batched, per_line = solve_both(w_old, af, src, ("flux", "flux"), ends,
                                   h=0.2, dt=0.02, varphi=varphi)
    assert np.array_equal(batched, per_line)


def test_solve_lines_exact_root_equilibrium():
    rng = np.random.default_rng(4)
    w_old, af, src, ends = random_lines(rng)
    w_old[::2], src[::2], ends[:, ::2] = 0.0, 0.0, 0.0
    for kinds in (("flux", "dirichlet"), ("flux", "flux")):
        batched, per_line = solve_both(w_old, af, src, kinds, ends)
        assert np.array_equal(batched, per_line)
        assert not np.any(batched[::2])


def test_solve_lines_stops_on_adjacent_floats():
    # near 6e5 adjacent floats lie more than bc_tol = 1e-10 apart, so the
    # bracket cannot shrink below bc_tol; both closures must still stop
    rng = np.random.default_rng(5)
    w_old, af, src, ends = random_lines(rng)
    w_old += 6e5
    for kinds in (("dirichlet", "flux"), ("flux", "flux")):
        batched, per_line = solve_both(w_old, af, src, kinds, ends,
                                       varphi=identity_map())
        assert np.all(np.isfinite(batched))
        assert np.array_equal(batched, per_line)


def test_solve_lines_nan_residual_raises():
    rng = np.random.default_rng(6)
    w_old, af, src, ends = random_lines(rng)
    ends[1][3] = np.nan
    varphi = odd_cubic_map(0.8)
    with pytest.raises(RuntimeError, match="bracket expansion failed"):
        _solve_lines(w_old, 0.1, 0.01, af, src, ("dirichlet", ends[0]),
                     ("flux", ends[1]), varphi, 1e-10)
    with pytest.raises(RuntimeError, match="bracket expansion failed"):
        _solve_line(w_old[3], 0.1, 0.01, af[3], src[3], ("dirichlet", ends[0][3]),
                    ("flux", ends[1][3]), varphi, 1e-10)
    src[2, 5] = np.inf
    with pytest.raises(RuntimeError, match="non-finite"):
        _solve_lines(w_old, 0.1, 0.01, af, src, ("dirichlet", ends[0]),
                     ("dirichlet", ends[0]), varphi, 1e-10)


# ---------------------------------------------------------------------------
# batched 2-D stepper against the per-line sweep it replaced


def per_line_2d(scn, grid, cfg):
    """Every state of the dimension-split stepper, one line solve at a time."""
    X, Y = grid.points()
    xs, ys = X[:, 0], Y[0, :]
    xf, yf = 0.5 * (xs[:-1] + xs[1:]), 0.5 * (ys[:-1] + ys[1:])
    w = np.asarray(scn.w0((X, Y)), dtype=float)
    states, t = [w], 0.0
    while t < cfg.t_end - 1e-12 * cfg.t_end:
        dt = min(cfg.dt, cfg.t_end - t)
        tn = t + dt
        src = _explicit_source(scn, (X, Y), t, w)
        w_star = np.asarray(scn.d1((X, Y), tn), dtype=float)
        w_new = w_star.copy()
        for iy, y in enumerate(ys):
            if not ((iy == 0 and "bottom" in scn.gamma1)
                    or (iy == grid.ny and "top" in scn.gamma1)):
                af = np.asarray(scn.a((xf, np.full(grid.nx, y)), tn), dtype=float)
                w_star[:, iy] = _solve_line(
                    w[:, iy], grid.hx, dt, af, src[:, iy],
                    _bc_spec(scn, "left", (0.0, y), tn), _bc_spec(scn, "right", (1.0, y), tn),
                    scn.boundary_reaction, cfg.bc_tol)
        for ix, x in enumerate(xs):
            if not ((ix == 0 and "left" in scn.gamma1)
                    or (ix == grid.nx and "right" in scn.gamma1)):
                af = np.asarray(scn.a((np.full(grid.ny, x), yf), tn), dtype=float)
                w_new[ix, :] = _solve_line(
                    w_star[ix, :], grid.hy, dt, af, np.zeros(grid.ny + 1),
                    _bc_spec(scn, "bottom", (x, 0.0), tn), _bc_spec(scn, "top", (x, 1.0), tn),
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
    grid = Grid2D(10, 12, gamma1=gamma1, gamma2=gamma2)
    wavy = TimeSignal.sinusoid(1.0, 1.3, 0.4, offset=0.5)
    scn = make_scenario(
        dim=2, gamma1=gamma1, gamma2=gamma2,
        a=SpaceTimeField(lambda p, t: 1.0 + 0.5 * np.asarray(p[0]) * np.asarray(p[1])
                         + 0.2 * np.sin(t) ** 2),
        reaction=odd_cubic_map(0.5), boundary_reaction=odd_cubic_map(1.2),
        f=SpaceTimeField.from_signal(wavy),
        d1=SpaceTimeField(lambda p, t: 0.2 * np.cos(3.0 * np.asarray(p[0])
                                                    + 2.0 * np.asarray(p[1]) + t)),
        d2=SpaceTimeField(lambda p, t: 0.3 * np.sin(2.0 * np.asarray(p[0])
                                                    - np.asarray(p[1]) + 3.0 * t)),
        w0=profile_sum(lambda xy: np.full(np.shape(xy[0]), 0.3), profile2d_sinprod(2.0)))
    cfg = SolverConfig(t_end=0.05, dt=0.01)
    traj = solve_parabolic(scn, grid, cfg)
    oracle = per_line_2d(scn, grid, cfg)
    assert len(traj) == len(oracle)
    for i, expected in enumerate(oracle):
        assert np.array_equal(traj.state(i), expected)
