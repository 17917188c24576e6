"""Runs that make a sweep refactor its band or rebind its step, pinned.

Each parabolic sweep binds its whole step (band factors, flux-end
responses, closure constants and closure form) once per operator and law,
and reuses it while h, dt, the end kinds, the diffusivity bits and the
flux law stay the same.  The runs below change one of those mid-run or
between solves; their trajectories and solver counters are pinned by
SHA-256, so a step that kept a stale binding changes a digest.
"""

import hashlib
from dataclasses import replace

import pytest

from isscert.config import _cubic as cubic, _identity as identity
from isscert.fields import Grid
from isscert.signals import (SpaceTimeField, TimeSignal, profile_bump, profile_constant,
                             profile_sin, profile_sinprod, profile_sum)
from isscert.solvers import ParabolicScenario, SolverConfig, solve_parabolic

COUNTERS = ("steps", "band_factorizations", "closures", "flux_law_calls", "closure_error")


def digest(traj):
    """SHA-256 of the stamps, the states and the solver counters."""
    h = hashlib.sha256(traj.times.tobytes())
    h.update(traj.states("u").tobytes())
    h.update(repr([float(traj.counters[name]).hex() for name in COUNTERS]).encode())
    return h.hexdigest()


def scenario(**over):
    base = dict(
        dim=1, a=SpaceTimeField.constant(1.0), a0=1.0, c=SpaceTimeField.constant(1.0), c0=1.0,
        reaction=cubic(0.5), boundary_reaction=cubic(1.2),
        f=SpaceTimeField.from_signal(TimeSignal.sinusoid(1.0, 1.3, 0.4, offset=0.5)),
        d1=SpaceTimeField.from_signal(TimeSignal.sinusoid(0.2, 0.9, offset=0.1)),
        d2=SpaceTimeField.from_signal(TimeSignal.polynomial(0.3, -1.0, 2.0)),
        w0=profile_sum(profile_constant(0.2), profile_sin(1.6, mode=1)),
        gamma1=(), gamma2=("left", "right"))
    base.update(over)
    return ParabolicScenario(**base)


def time_varying_diffusion():
    # a(t) changes every step, so every step refactors and rebinds
    scn = scenario(a=SpaceTimeField.separable(lambda y: 1.0 + 0.5 * y,
                                              TimeSignal.sinusoid(0.2, 0.3, offset=1.0)),
                   a0=0.8)
    return [solve_parabolic(scn, Grid(24, layout="node"), SolverConfig(t_end=0.1, dt=0.004))]


def short_last_step():
    # 0.0105 = 5*0.002 + 0.0005: the last step refactors under its own dt
    scn = scenario(boundary_reaction=identity(), w0=profile_bump(1.0, 0.4, 0.3),
                   gamma1=("left",), gamma2=("right",))
    return [solve_parabolic(scn, Grid(32, layout="node"), SolverConfig(t_end=0.0105, dt=0.002))]


def first_sweep_flux():
    # flux on left/right: the first sweep, which carries the source, closes
    # a lockstep stack
    scn = scenario(dim=2, gamma1=("bottom", "top"), gamma2=("left", "right"),
                   d1=SpaceTimeField.separable(lambda p: 0.2 * p[0] * p[1],
                                               TimeSignal.sinusoid(1.0, 0.2, 0.5)),
                   w0=profile_sum(profile_constant(0.3), profile_sinprod(2.0)))
    return [solve_parabolic(scn, Grid(10, 12), SolverConfig(t_end=0.05, dt=0.01))]


def two_laws_one_scenario():
    # one scenario solved under flux laws of other facts, then the first again
    scn = scenario()
    grid, cfg = Grid(20, layout="node"), SolverConfig(t_end=0.05, dt=0.005)
    return [solve_parabolic(replace(scn, boundary_reaction=law), grid, cfg)
            for law in (cubic(1.2), identity(), cubic(40.0), cubic(1.2))]


REBINDS = {
    time_varying_diffusion: [
        "e945c7872f5e5c0b11fed00536bbcd98ad664c1a6d2ea2c460ff00058a91c5a4"],
    short_last_step: [
        "218c86e978b5e810b71fff26205c520e48375e4b33e0de90c02d4f0da760ab41"],
    first_sweep_flux: [
        "db0e1f2f93311403373f3914e87dbb8de4639574b97377f432dfe2d4be68cc77"],
    two_laws_one_scenario: [
        "e8e533808a61b46079cc989727327553fd8e5eeb77e362932dd95e7024415412",
        "ae7dc8b765d402d6a82d51f2917b5e1cbf8c1b2b0064da886b52e62c3d202548",
        "6869b54bc7907c92c119e44fdcc4f5a9e6af780b6029f6ea6d3e1e8c407d7807",
        "e8e533808a61b46079cc989727327553fd8e5eeb77e362932dd95e7024415412"],
}


@pytest.mark.parametrize("run", REBINDS, ids=lambda run: run.__name__)
def test_rebinding_runs_keep_their_pinned_digests(run):
    assert [digest(traj) for traj in run()] == REBINDS[run]
