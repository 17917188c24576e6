"""Deterministic verification suites.

Every suite returns a list of :class:`CheckLine` rows with PASS/FAIL
status and a numeric detail string.  Given a seed, the output is fully
deterministic: reports carry no timestamps, runtimes, or paths, so two
runs with the same seed produce byte-identical text.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .certify import (bound_parabolic_q, bound_transport_q, bound_wave_m,
                      check_trajectory, prepare_bound)
from .config import load_plan
from .fields import Grid1D
from .glf import (dissipation_rate, dissipation_report, glf_for_parabolic,
                  glf_for_transport, local_speed_floor, series)
from .signals import TimeSignal, profile_constant
from .solvers import (SolverConfig, TransportScenario, solve_parabolic,
                      solve_transport, solve_wave)
from .solvers.wave import reconstruct_wave_state
from .trunc import (TruncationPair, gronwall_envelope_at, property_sides,
                    young_epsilon_gap)

__all__ = ["SUITES", "CheckLine", "run_suite", "render_report",
           "verify_trunc", "verify_parabolic", "verify_transport", "verify_wave"]

SUITES = ("trunc", "parabolic", "transport", "wave", "all")

_SAMPLE_COUNT = 10_000
_REL_FLOOR = -1e-9
_IDENT_TOL = 1e-12


@dataclass
class CheckLine:
    group: str
    name: str
    passed: bool
    detail: str


def _fmt(x) -> str:
    return f"{float(x):.12e}"


def _qtag(q) -> str:
    """A norm exponent as it appears in check names: 2, 4, inf."""
    return f"{q:g}"


def _rel_gap(lhs, rhs):
    return (rhs - lhs) / (1.0 + np.abs(lhs) + np.abs(rhs))


# check names of a bundled plan's bound kinds, before the _q<q> suffix
_CHECK_PREFIX = {"parabolic_q": "qbound", "transport_q": "qbound", "transport_p": "pbound",
                 "wave_m": "mbound", "wave_r_eps": "rbound"}


def _plan_checks(group, plan, traj):
    """One line per check a bundled plan declares, on its solved trajectory."""
    lines = []
    for entry in plan.checks:
        b = prepare_bound(entry["kind"], traj, plan.scenario, entry["q"], entry["params"])
        r = check_trajectory(traj, entry["q"], b, entry["tol"])
        name = f"{_CHECK_PREFIX[entry['kind']]}_q{_qtag(entry['q'])}"
        lines.append(CheckLine(group, name, r.violations == 0,
                               f"violations={r.violations} min_margin={_fmt(r.min_margin)}"))
    return lines


# ---------------------------------------------------------------------------
# truncation calculus and scalar lemmas

def verify_trunc(seed: int = 42):
    lines = []
    for idx, p in enumerate((1.5, 2.0, 3.0, 5.0)):
        pair = TruncationPair(p)
        rng = np.random.default_rng([seed, idx])
        s = rng.uniform(-10.0, 10.0, _SAMPLE_COUNT)
        tau = rng.uniform(-10.0, 10.0, _SAMPLE_COUNT)
        m = rng.uniform(0.0, 10.0, _SAMPLE_COUNT)
        eps = rng.uniform(0.01, 5.0, _SAMPLE_COUNT)
        tag = f"p{p:g}"

        neg = -np.abs(s)
        worst = max(float(np.max(np.abs(pair.G(neg)))),
                    float(np.max(np.abs(pair.g(neg)))))
        lines.append(CheckLine("trunc", f"G1_vanishes_{tag}", worst == 0.0,
                               f"max_abs={_fmt(worst)}"))

        spos = np.abs(s)
        ident = np.max(np.abs(pair.G(spos) - pair.g(spos) * spos / (p + 1.0))
                       / (1.0 + np.abs(pair.G(spos))))
        lines.append(CheckLine("trunc", f"G2_identity_{tag}", ident <= _IDENT_TOL,
                               f"max_rel={_fmt(ident)}"))

        scale = np.max(np.abs(pair.G(m * s) - m ** (p + 1.0) * pair.G(s))
                       / (1.0 + m ** (p + 1.0) * np.abs(pair.G(s))))
        lines.append(CheckLine("trunc", f"scaling_{tag}", scale <= _IDENT_TOL,
                               f"max_rel={_fmt(scale)}"))

        a = np.minimum(s, tau)
        b = np.maximum(s, tau)
        mono = np.min(_rel_gap(pair.g(a), pair.g(b)))
        lines.append(CheckLine("trunc", f"G3_monotone_{tag}", mono >= _REL_FLOOR,
                               f"min_rel_gap={_fmt(mono)}"))

        for prop, args in (("G4", (s, tau)), ("G5", (s, np.abs(tau))),
                           ("G6", (s, tau)), ("G7", (s, tau, m)),
                           ("G8", (s, np.abs(tau), eps))):
            lhs, rhs = property_sides(pair, prop, args)
            gap = np.min(_rel_gap(lhs, rhs))
            lines.append(CheckLine("trunc", f"{prop}_{tag}", gap >= _REL_FLOOR,
                                   f"min_rel_gap={_fmt(gap)}"))

    rng = np.random.default_rng([seed, 97])
    young_min = math.inf
    for _ in range(100):
        r = float(rng.uniform(1.1, 6.0))
        q = r / (r - 1.0)
        a = rng.uniform(0.0, 20.0, 100)
        b = rng.uniform(0.0, 20.0, 100)
        e = rng.uniform(0.05, 5.0, 100)
        young_min = min(young_min, float(np.min(young_epsilon_gap(r, q, a, b, e))))
    lines.append(CheckLine("trunc", "young_gap", young_min >= 0.0,
                           f"min_gap={_fmt(young_min)}"))

    dt = 1e-3
    npts = int(round(1.0 / dt)) + 1
    t = dt * np.arange(npts)
    env = gronwall_envelope_at(t, np.full(npts, -1.0), np.ones(npts), 0.0)
    err = float(np.max(np.abs(env - (1.0 - np.exp(-t)))))
    lines.append(CheckLine("trunc", "gronwall_linear", err <= 1e-5,
                           f"max_err={_fmt(err)}"))
    return lines


# ---------------------------------------------------------------------------
# parabolic class

def verify_parabolic(seed: int = 42):
    lines = []

    plan = load_plan("heat_clm_demo")
    traj = solve_parabolic(plan.scenario, plan.grid, plan.solver)
    chk = plan.checks[0]
    bound = prepare_bound(chk["kind"], traj, plan.scenario, chk["q"], chk["params"])
    rep = check_trajectory(traj, chk["q"], bound, chk["tol"])
    ok = rep.violations == 0 and rep.min_margin > 0.0
    lines.append(CheckLine("parabolic", "heat_margin", ok,
                           f"min_margin={_fmt(rep.min_margin)} "
                           f"violations={rep.violations} tol={_fmt(rep.tol)}"))

    # Horizon stops before the truncation energy hits zero so the max
    # residual is a genuine scheme-consistency quantity, not a 0/0 tie.
    # The implicit stepper errs on the dissipative side, so residuals sit
    # below the continuum value: the consistency statement is
    # max_res <= C_rep*(h+dt) with C_rep = |coarsest max_res|/(h+dt), and
    # |max_res| must shrink monotonically toward the limit under refinement.
    demo = load_plan("parabolic_demo")
    horizon = 0.2
    max_res = []
    scales = []
    for n in (100, 200, 400):
        grid = Grid1D(n, layout="node")
        dt = horizon / n
        cfg = SolverConfig(t_end=horizon, dt=dt, output_stride=1)
        rtraj = solve_parabolic(demo.scenario, grid, cfg)
        spec = glf_for_parabolic(demo.scenario, rtraj, 2.0)
        rate = dissipation_rate(spec, demo.scenario)
        report = dissipation_report(rtraj, spec, rate)
        max_res.append(report.max_residual)
        scales.append(grid.h + dt)
    c_rep = abs(max_res[0]) / scales[0]
    scale_ok = all(max_res[i] <= c_rep * scales[i] * (1.0 + 1e-9) for i in (0, 1, 2))
    mono_ok = abs(max_res[0]) > abs(max_res[1]) > abs(max_res[2])
    lines.append(CheckLine(
        "parabolic", "dissipation_refinement", scale_ok and mono_ok,
        f"max_res={_fmt(max_res[0])},{_fmt(max_res[1])},{_fmt(max_res[2])} "
        f"c_rep={_fmt(c_rep)}"))

    btraj = solve_parabolic(demo.scenario, demo.grid, demo.solver)
    lines += _plan_checks("parabolic", demo, btraj)

    unit = float(bound_parabolic_q(2.0, 0.0, 1.0, 0.0, 1.0))
    gain = float(bound_parabolic_q(2.0, 7.5, 0.0, 0.7, 1.0))
    exact = unit == 4.0 and gain == 8.0 * 0.7
    lines.append(CheckLine("parabolic", "exact_constants", exact,
                           f"prefactor={_fmt(unit)} gain={_fmt(gain)}"))
    return lines


# ---------------------------------------------------------------------------
# transport class

def verify_transport(seed: int = 42):
    lines = []

    plan = load_plan("transport_global")
    traj = solve_transport(plan.scenario, plan.grid, plan.solver)
    spec = glf_for_transport(plan.scenario, traj, plan.energy["p"])
    vhat, _ = series(traj, spec)
    h = plan.grid.h
    envelope = np.exp(-spec.r * traj.times) * vhat[0] * (1.0 + 10.0 * h)
    worst = float(np.max(vhat - envelope))
    rate_ok = abs(spec.r - 3.0 * math.log(2.0)) <= 1e-12
    lines.append(CheckLine("transport", "energy_envelope",
                           worst <= 0.0 and rate_ok,
                           f"max_excess={_fmt(worst)} rate={_fmt(spec.r)}"))

    lines += _plan_checks("transport", plan, traj)

    steady = load_plan("transport_steady")
    straj = solve_transport(steady.scenario, steady.grid, steady.solver)
    dev = float(np.max(np.abs(straj.states() - 1.0)))
    steps = straj.meta["steps"]
    lines.append(CheckLine("transport", "steady_state",
                           dev <= 1e-10 and steps >= 1000,
                           f"max_dev={_fmt(dev)} steps={steps}"))

    liss = load_plan("transport_liss")
    floor, mass_range = local_speed_floor(liss.scenario, 1.0)
    lines.append(CheckLine("transport", "liss_floor",
                           floor == 0.2 and mass_range == 4.0,
                           f"floor={_fmt(floor)} mass_range={_fmt(mass_range)}"))

    ltraj = solve_transport(liss.scenario, liss.grid, liss.solver)
    entry = liss.checks[0]
    lbound = prepare_bound(entry["kind"], ltraj, liss.scenario, entry["q"], entry["params"])
    lrep = check_trajectory(ltraj, entry["q"], lbound, entry["tol"])
    accept_sum = lbound.init_norm + float(np.max(lbound.series["sup_d"]))

    reject_scn = TransportScenario(
        speed_map=lambda s: 1.0 / (1.0 + np.abs(s)),
        assumption="decreasing", k=0.5,
        d=TimeSignal.constant(0.2), rho0=profile_constant(1.3),
        label="liss_reject")
    reject_scn.validate()
    rtraj = solve_transport(reject_scn, Grid1D(64, layout="cell"),
                            SolverConfig(t_end=0.05))
    rbound = prepare_bound("transport_liss", rtraj, reject_scn, 2.0, {"R0": 1.0})
    rrep = check_trajectory(rtraj, 2.0, rbound, 0.0)
    reject_sum = rbound.init_norm + float(np.max(rbound.series["sup_d"]))
    gate_ok = (lbound.gate is True and rbound.gate is False
               and lrep.applicable and not rrep.applicable)
    lines.append(CheckLine("transport", "liss_gate", gate_ok,
                           f"accepted_sum={_fmt(accept_sum)} "
                           f"rejected_sum={_fmt(reject_sum)}"))
    lines.append(CheckLine("transport", "liss_accepted", lrep.violations == 0,
                           f"violations={lrep.violations} "
                           f"min_margin={_fmt(lrep.min_margin)}"))

    pref = float(bound_transport_q(2.0, 0.5, 0.0, 1.0, 1.0, 0.0))
    lines.append(CheckLine("transport", "exact_prefactor",
                           abs(pref - 4.0) <= 1e-12 * 4.0,
                           f"prefactor={_fmt(pref)}"))
    return lines


# ---------------------------------------------------------------------------
# wave class

def verify_wave(seed: int = 42):
    lines = []

    plan = load_plan("wave_demo")
    traj = solve_wave(plan.scenario, plan.grid, replace(plan.solver, output_stride=1))
    c = plan.scenario.c
    d = plan.scenario.d
    plus, minus = traj.states("plus"), traj.states("minus")
    inflow = c * np.asarray([float(d(t)) for t in traj.times.tolist()])
    res_in = float(np.max(np.abs(plus[:, -1] - inflow)))
    res_flip = float(np.max(np.abs(minus[:, 0] + plus[:, 0])))
    lines.append(CheckLine("wave", "boundary_identities",
                           res_in == 0.0 and res_flip == 0.0,
                           f"inflow_res={_fmt(res_in)} flip_res={_fmt(res_flip)}"))

    ft = load_plan("wave_finite_time")
    ftraj = solve_wave(ft.scenario, ft.grid, ft.solver)
    snap = ftraj.snapshot(len(ftraj) - 1)
    w_t, w_y = reconstruct_wave_state(snap["plus"], snap["minus"], ft.scenario.c)
    residue = max(float(np.max(np.abs(w_t))), float(np.max(np.abs(w_y))))
    limit = 10.0 * ft.grid.h
    lines.append(CheckLine("wave", "finite_time_absorption", residue <= limit,
                           f"residue={_fmt(residue)} limit={_fmt(limit)} "
                           f"t_end={_fmt(ftraj.times[-1])}"))

    lines += _plan_checks("wave", plan, traj)

    val = float(bound_wave_m(2.0, 1.0, 0.0, 1.0, 0.0, 0.0, 1.0))
    ref = 8.0 * math.exp(4.0)
    lines.append(CheckLine("wave", "exact_mform",
                           abs(val - ref) <= 1e-10 * ref,
                           f"value={_fmt(val)} reference={_fmt(ref)}"))
    return lines


# ---------------------------------------------------------------------------

_SUITE_FNS = {
    "trunc": (verify_trunc,),
    "parabolic": (verify_parabolic,),
    "transport": (verify_transport,),
    "wave": (verify_wave,),
    "all": (verify_trunc, verify_parabolic, verify_transport, verify_wave),
}


def run_suite(suite: str, seed: int = 42):
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {', '.join(SUITES)}")
    lines = []
    for fn in _SUITE_FNS[suite]:
        lines.extend(fn(seed))
    return lines


def render_report(suite: str, seed: int, lines) -> str:
    out = [f"verify suite={suite} seed={seed}"]
    for ln in lines:
        out.append(f"{'PASS' if ln.passed else 'FAIL'} {ln.group}/{ln.name} {ln.detail}")
    npass = sum(1 for ln in lines if ln.passed)
    out.append(f"result passed={npass} failed={len(lines) - npass} total={len(lines)}")
    return "\n".join(out) + "\n"
