"""The exact clock and the one-pass Gronwall recurrence against the
repeated-addition clock and the exp(Phi) envelope they replaced.

Both references are kept here as they were: :func:`old_march` advances t
by repeated addition, cuts a step to the time left and stops once t is
within 1e-12*t_end of t_end; :func:`old_envelope` forms exp(Phi) and
exp(-Phi) of the cumulative trapezoid Phi.  Every bundled run is made
both ways, through ``cli.run_plan``, and every moved stamp, state and
envelope value must lie within the bound derived beside its assertion.
"""

import math

import numpy as np
import pytest

from isscert import cli, glf
from isscert.config import build_plan, bundled_names, load_plan
from isscert.solvers import parabolic, transport, wave
from isscert.solvers.common import SolverDivergedError

U = 2.0**-53  # the unit roundoff of float64


def old_march(traj, cfg, state, advance, dt_min, equal=True):
    """The time loop before the exact clock: each step reads its end-of-step
    data at t + dt, and t advances by repeated addition."""
    t_end, stride = cfg.t_end, cfg.output_stride
    t_stop = t_end - 1e-12 * t_end
    traj.reserve(1 + -(-(math.ceil(t_end / dt_min) + 1) // stride))
    t, step, least, most, reach = 0.0, 0, math.inf, 0.0, [0.0] * len(traj.names)
    while True:
        for i, values in enumerate(state):
            top = float(np.abs(values).max())
            if not top < math.inf:
                raise SolverDivergedError(step, t)
            reach[i] = max(reach[i], top)
        last = t >= t_stop
        if last or step % stride == 0:
            traj._record(t, state)
        if last:
            break
        rest = t_end - t
        step += 1
        dt, state = advance(t, rest if cfg.dt is None else min(cfg.dt, rest), state, step,
                            lambda dt: t + dt)
        t += dt
        least, most = min(least, dt), max(most, dt)
    traj.counters.update(steps=step, dt_min=least, dt_max=most,
                         max_abs=dict(zip(traj.names, reach)))


def _cumtrapz(y, x):
    out = np.empty_like(y)
    out[0] = 0.0
    np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(x), out=out[1:])
    return out


def old_envelope(times, rate, psi, eta0):
    """exp(Phi)*(eta0 + trapezoid of exp(-Phi)*psi), Phi the trapezoid of -rate."""
    big_phi = _cumtrapz(np.full(times.size, -rate), times)
    return np.exp(big_phi) * (float(eta0) + _cumtrapz(np.exp(-big_phi) * psi, times))


def rate(values, times):
    """Twice the largest |difference quotient| along axis 0: a bound on
    the time derivative of a smooth series sampled this finely."""
    values = np.asarray(values, dtype=float).reshape(len(times), -1)
    quotients = np.abs(np.diff(values, axis=0)) / np.diff(times)[:, None]
    return 2.0 * float(quotients.max(initial=0.0))


def data_rate(plan):
    """The largest time rate of the data a step reads, on 1024 intervals
    of (0, t_end), where the bundled signals (frequency 1 at most, decay
    rate 1) change by a small fraction of their size."""
    scn, pts, times = plan.scenario, plan.grid.points(), np.linspace(0.0, plan.solver.t_end, 1025)
    if plan.pde == "parabolic":
        # a and c enter the step's operator, not its data: the demos fix them
        for fixed in (scn.a, scn.c):
            assert rate([fixed(pts, t) for t in times], times) == 0.0
        fields = [[f(pts, t) for t in times] for f in (scn.f, scn.d1, scn.d2)]
    elif plan.pde == "wave":
        fields = [[scn.f(pts, t) for t in times], [scn.d(t) for t in times]]
    else:
        fields = [[scn.d(t) for t in times]]
    return max(rate(f, times) for f in fields)


def both_ways(name, monkeypatch):
    """run_plan's results for a bundled run with the exact clock and
    recurrence, then with the references."""
    new = cli.run_plan(load_plan(name))
    with monkeypatch.context() as patch:
        for module in (parabolic, transport, wave):
            patch.setattr(module, "march", old_march)
        patch.setattr(glf, "gronwall_envelope_at", old_envelope)
        old = cli.run_plan(load_plan(name))
    return new, old


@pytest.mark.parametrize("name", bundled_names())
def test_the_exact_clock_and_recurrence_move_every_value_within_its_rounding_bound(
        name, monkeypatch):
    new, old = both_ways(name, monkeypatch)
    plan, traj, ref = load_plan(name), new.traj, old.traj
    t_end, steps = plan.solver.t_end, traj.counters["steps"]
    assert ref.counters["steps"] == steps and len(ref) == len(traj)

    # stamps: the exact clock rounds each stamp once, within half an ulp of
    # the sum of the dts, and snaps the last to t_end from 4 ulps at most;
    # repeated addition rounds each sum, at most t_end, within an ulp of
    # t_end.  Both runs take the same dts (or, in the old run's cut last
    # step, the time left), so after k steps the stamps differ by at most
    # (k + 5) ulp(t_end), and delta bounds every shift of a time a step reads
    delta = (steps + 5) * math.ulp(t_end)
    assert traj.times[-1] == t_end
    assert float(np.abs(traj.times - ref.times).max()) <= delta
    # the old run's cut last step is the time left after a stamp within delta
    for key in ("dt_min", "dt_max"):
        assert abs(traj.counters[key] - ref.counters[key]) <= delta

    # states: each step is non-expansive in the sup norm (backward Euler
    # and its flux closures, upwind at CFL <= 1), and its data enter its
    # output with weights at most 1, so reading them at times shifted by
    # delta moves each step by at most delta*rho, rho the data's largest
    # rate; the last dt, moved by delta at most, moves the last state by
    # delta*sigma, sigma the state's largest rate; and the two runs'
    # different inputs round differently, by 8u of the run's magnitude M a
    # step.  These add up over the steps.
    rho = data_rate(plan)
    for key in traj.names:
        states = traj.states(key)
        sigma = rate(states, traj.times)
        big = max(traj.counters["max_abs"][key], 1.0)
        bound = steps * (delta * rho + 8 * U * big) + delta * sigma
        assert float(np.abs(states - ref.states(key)).max()) <= bound, key

    # envelope: both forms are the same trapezoid rule.  The old one carries
    # Phi's cumulative sum into exp, a relative error of n*u*(1 + |rate|*t_end)
    # a stamp over n stamps, and each recurrence step rounds a few times, so
    # the roundings differ by 8*n*u*(1 + |rate|*t_end)*E at most, E the
    # envelope's size.  A stamp shift of delta moves each of the n interval
    # weights by 2*delta, each worth |rate|*E + Psi, Psi the slack's size;
    # and the slack, read at shifted stamps, moves by delta*rho_psi, worth
    # t_end*delta*rho_psi in the integral
    if plan.energy:
        env, env_ref = new.energy.envelope, old.energy.envelope
        lam, n, size = abs(new.energy.decay_rate), len(traj), float(np.abs(env).max())
        psi = (glf.wave_forcing_slack(traj, new.spec, plan.scenario.f) if plan.pde == "wave"
               else np.zeros(n))
        bound = (8 * n * U * (1.0 + lam * t_end) * size
                 + 2 * n * delta * (lam * size + float(np.abs(psi).max()))
                 + t_end * delta * rate(psi, traj.times))
        assert float(np.abs(env - env_ref).max()) <= bound


@pytest.mark.parametrize("weight_rate", [200.0, 300.0, 700.0])
def test_the_recurrence_matches_the_old_envelope_while_that_one_is_finite(weight_rate):
    # the decay rate c*rate/2 and the weight exp(rate*y) in the slack put
    # exp(-Phi)*psi past the floats within t_end = 3, where the old form
    # turns inf or NaN; the recurrence stays finite, and up to there the two
    # agree within the rounding part of the bound above
    plan = load_plan("wave_demo")
    res = cli.run_plan(build_plan(dict(plan.doc, energy={"p": 2.0, "rate": weight_rate})))
    env, times = res.energy.envelope, res.traj.times
    assert np.isfinite(env).all()
    psi = glf.wave_forcing_slack(res.traj, res.spec, plan.scenario.f)
    lam = res.energy.decay_rate
    with np.errstate(over="ignore", invalid="ignore"):
        ref = old_envelope(times, lam, psi, env[0])
    n = int(np.argmin(np.isfinite(ref)))
    assert 2 <= n < times.size and not np.isfinite(ref[n:]).any()
    bound = 8 * n * U * (1.0 + lam * times[n - 1]) * float(np.abs(env[:n]).max())
    assert float(np.abs(env[:n] - ref[:n]).max()) <= bound
