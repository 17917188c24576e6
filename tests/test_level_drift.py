"""The rounded-up closed-form level inverse against the bisection it replaced.

The reference is kept here as it was: :func:`old_invert_monotone` doubles a
bracket from 1 up to 2**200 and bisects to the first midpoint within 1e-12
of the target, or to adjacent floats; :func:`old_invert` inverts each
distinct running sup once through it, and :func:`old_level_inverse` divides
sup|f| by c0 in floats, as the old level did, where the new one rounds the
quotient up.  Every bundled parabolic run, the pinned profiled 2-D run
and every config of one seed-11 round of the parabolic benchmark workloads
is made both ways, through ``cli.run_plan``.
The trajectories and statuses must not move, and each moved level part,
level, check rhs and margin, and energy value must lie within the bound
derived beside its assertion.
"""

import importlib.util
import math
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from test_golden_outputs import PROFILED_2D

from isscert import cli, glf
from isscert.config import bundled_names, load_plan
from isscert.solvers import solve_parabolic

U = 2.0**-53  # the unit roundoff of float64
WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
# floats the new inverse may lie above the root, as test_glf derives
NEW_ULPS = 35


def old_invert_monotone(f, y):
    """The bisection before the closed-form inverse."""
    if y < 0:
        raise ValueError("target must be nonnegative")
    if y == 0.0:
        return 0.0
    lo, hi = 0.0, 1.0
    for _ in range(200):
        if float(f(hi)) >= y:
            break
        hi *= 2.0
    else:
        raise ValueError("bracket expansion failed; map grows too slowly")
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return hi
        fm = float(f(mid))
        if abs(fm - y) <= 1e-12:
            return mid
        if fm < y:
            lo = mid
        else:
            hi = mid


def old_invert(law, ys):
    values, where = np.unique(ys, return_inverse=True)
    return np.asarray([old_invert_monotone(law, y) for y in values.tolist()])[where]


def old_level_inverse(law, ys):
    """The old level's inverses: each map (a callable law) by bisection, and
    the quotient by c0 (the facts of the linear map of slope c0) in floats."""
    return old_invert(law, ys) if callable(law) else ys / law.slope


def _round_configs(root):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    configs = []
    for workload in ("parabolic_2d_flux", "parabolic_1d_mixed"):
        ops = workloads.generate(workload, 11)[:workloads.round_length(workload)]
        configs += [op["config"] for op in workloads.write_configs(ops, root / workload)]
    return configs


@pytest.fixture(scope="module")
def round_plans(tmp_path_factory):
    return [load_plan(c) for c in _round_configs(tmp_path_factory.mktemp("round"))]


@pytest.fixture(scope="module")
def plans(tmp_path_factory, round_plans):
    profiled = tmp_path_factory.mktemp("profiled") / "profiled_2d.yaml"
    profiled.write_text(PROFILED_2D)
    bundled = [load_plan(name) for name in bundled_names()]
    return ([plan for plan in bundled if plan.pde == "parabolic"]
            + [load_plan(profiled), *round_plans])


def part_bound(law, new, targets):
    """How far the old and new inverses of targets may lie apart.  The old
    one's f(mid), rounded within 4u*y, is within 1e-12 of y, so mid is
    within (1e-12 + 4u*y)/slope of the root (f' >= slope), or it is the upper
    of two adjacent floats around the root; the new one lies at most
    NEW_ULPS floats above the root."""
    slope = law.slope if law.slope else math.inf
    return ((1e-12 + 4 * U * targets) / slope
            + (NEW_ULPS + 1) * np.spacing(new))


def test_the_closed_form_moves_every_level_and_energy_within_its_bound(plans, monkeypatch):
    for plan in plans:
        if not any(c["kind"] == "parabolic_q" for c in plan.checks) and not plan.energy:
            continue
        new = cli.run_plan(plan)
        with monkeypatch.context() as patch:
            patch.setattr(glf, "invert_monotone", old_level_inverse)
            old = cli.run_plan(plan)
        scn, traj = plan.scenario, new.traj
        assert np.array_equal(traj.times, old.traj.times)
        assert np.array_equal(traj.states("u"), old.traj.states("u"))

        # the level parts, from the same running sups; the reaction's new
        # target is sup|f|/c0 rounded up, its old one the float quotient, and
        # an inverse moves by at most the targets' gap over the least slope
        sups = glf.running_sups(scn, traj.grid, traj.times)
        quotient = glf.invert_monotone(SimpleNamespace(slope=scn.c0, gamma=0.0), sups["f"])
        parts = [(scn.reaction, quotient, sups["f"] / scn.c0),
                 (scn.boundary_reaction, sups["d2"], sups["d2"])]
        moved = np.zeros_like(traj.times)
        for law, targets, old_targets in parts:
            x_new, x_old = glf.invert_monotone(law, targets), old_invert(law, old_targets)
            diff = np.abs(x_new - x_old)
            shift = (targets - old_targets) / (law.slope if law.slope else math.inf)
            assert (diff <= part_bound(law, x_new, targets) + shift).all(), plan.name
            moved += diff
        # the level sums the parts in floats: two additions, each within u of
        # the level, so the two sums' roundings differ by 4u*level at most
        level = glf.truncation_level_parabolic(scn, sups)
        level_bound = moved + 4 * U * level

        # each parabolic_q rhs is 4|w0|_q exp(-c0 t) + 8*level: the first term
        # has the same bits both ways, 8*level is exact, and the sum rounds
        # within u of the rhs each way; the lhs does not move, so the margin
        # moves by the rhs's move and its own rounding
        for rep, ref in zip(new.reports, old.reports):
            assert (rep.applicable, rep.violations) == (ref.applicable, ref.violations)
            assert np.array_equal(rep.lhs, ref.lhs)
            if rep.kind != "parabolic_q":
                assert np.array_equal(rep.rhs, ref.rhs)
                continue
            rhs_bound = 8 * level_bound + 2 * U * np.abs(rep.rhs)
            assert (np.abs(rep.rhs - ref.rhs) <= rhs_bound).all(), plan.name
            margin_bound = rhs_bound + 2 * U * np.abs(rep.margins)
            assert (np.abs(rep.margins - ref.margins) <= margin_bound).all(), plan.name

        if not plan.energy:
            continue
        # the energy's level is the last stamp's
        d_level = abs(new.spec.level - old.spec.level)
        assert d_level <= level_bound[-1]
        # Vhat = integral of G(u - L) + G(-u - L), G' = g <= M**p on the
        # values reached (M the largest |u|), and the weights sum to 1: the
        # two levels move Vhat by at most 2*M**p*|dL|.  Each Vhat sums n
        # nonnegative terms, each within 2(p + 3) roundings of its value, so
        # the two roundings differ by 2*(n + 2p + 6)*u*Vhat at most
        vhat, vref = new.energy.vhat, old.energy.vhat
        big, p, n = traj.counters["max_abs"]["u"], new.spec.p, math.prod(traj.grid.shape)
        size = float(np.abs(vhat).max())
        d_vhat = 2 * big**p * d_level + 2 * (n + 2 * p + 6) * U * size
        assert float(np.abs(vhat - vref).max()) <= d_vhat, plan.name
        # the envelope multiplies Vhat[0] by a factor at most 1 each interval,
        # rounding within u*env each time, over k intervals
        env, eref, k = new.energy.envelope, old.energy.envelope, len(traj)
        assert (float(np.abs(env - eref).max())
                <= d_vhat + 2 * k * U * float(np.abs(env).max())), plan.name
        # a residual is (V1 - V0)/dt + rate*V0: moved by 2*dV/dt + rate*dV,
        # plus each way's three roundings of terms of that size
        rate, dt = new.energy.decay_rate, float(np.diff(traj.times).min())
        scale = 2 * size / dt + rate * size
        d_res = 2 * d_vhat / dt + rate * d_vhat + 8 * U * scale
        assert float(np.abs(new.energy.residuals - old.energy.residuals).max()) <= d_res


def test_the_energy_and_every_parabolic_q_check_read_one_level():
    for name in bundled_names():
        plan = load_plan(name)
        if plan.pde != "parabolic" or not plan.energy:
            continue
        res = cli.run_plan(plan)
        levels = [b.series["level"][-1] for b in res.bounds if b.kind == "parabolic_q"]
        assert levels and all(
            np.float64(level).tobytes() == np.float64(res.spec.level).tobytes()
            for level in levels), name


def test_the_reaction_target_is_sup_f_over_c0_rounded_up():
    # fl(1/3) = 0.33333333333333331 lies below 1/3
    identity = SimpleNamespace(slope=1.0, gamma=0.0)
    scn = SimpleNamespace(c0=3.0, reaction=identity, boundary_reaction=identity)
    zero = np.zeros(1)
    level = glf.truncation_level_parabolic(scn, {"f": np.ones(1), "d1": zero, "d2": zero})
    assert Fraction(float(level[0])) >= Fraction(1, 3)


def test_c0_times_the_reaction_target_covers_sup_f_on_a_round(round_plans, monkeypatch):
    # every plan of one seed-11 round of the parabolic workloads, at every
    # stamp, in exact arithmetic; a float quotient rounds down at some stamp
    # in most of the slots with a reaction floor
    invert = glf.invert_monotone
    floored = [plan for plan in round_plans if plan.scenario.c0 > 0]
    assert len(floored) == 8
    for plan in floored:
        scn = plan.scenario
        times = solve_parabolic(scn, plan.grid, plan.solver).times
        sups = glf.running_sups(scn, plan.grid, times)
        targets = []

        def recording(law, ys):
            if law is scn.reaction:
                targets.append(ys)
            return invert(law, ys)

        monkeypatch.setattr(glf, "invert_monotone", recording)
        glf.truncation_level_parabolic(scn, sups)
        c0 = Fraction(scn.c0)
        assert len(targets) == 1 and all(
            c0 * Fraction(y) >= Fraction(f) for y, f in zip(targets[0].tolist(),
                                                             sups["f"].tolist())), plan.name
