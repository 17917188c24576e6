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

from . import cli  # run_plan, read at call time
from .certify import BOUNDS, bound_parabolic_q, bound_transport_q, bound_wave_m
from .config import build_plan, load_config, load_plan
from .fields import Grid
from .solvers import SolverConfig
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


def _plan_checks(group, plan, reports):
    """One line per check a bundled plan declares, from its run's reports."""
    return [CheckLine(group, f"{BOUNDS[entry['kind']].tag}_q{_qtag(entry['q'])}",
                      r.violations == 0,
                      f"violations={r.violations} min_margin={_fmt(r.min_margin)}")
            for entry, r in zip(plan.checks, reports)]


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

    t = 1e-3 * np.arange(1001)
    env = gronwall_envelope_at(t, 1.0, np.ones(t.size), 0.0)
    err = float(np.max(np.abs(env - (1.0 - np.exp(-t)))))
    lines.append(CheckLine("trunc", "gronwall_linear", err <= 1e-5,
                           f"max_err={_fmt(err)}"))
    return lines


# ---------------------------------------------------------------------------
# parabolic class

def verify_parabolic(seed: int = 42):
    lines = []

    rep = cli.run_plan(load_plan("heat_clm_demo")).reports[0]
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
        grid = Grid(n, layout="node")
        dt = horizon / n
        cfg = SolverConfig(t_end=horizon, dt=dt, output_stride=1)
        report = cli.run_plan(replace(demo, grid=grid, solver=cfg, checks=[])).energy
        max_res.append(report.max_residual)
        scales.append(grid.h + dt)
    c_rep = abs(max_res[0]) / scales[0]
    scale_ok = all(max_res[i] <= c_rep * scales[i] * (1.0 + 1e-9) for i in (0, 1, 2))
    mono_ok = abs(max_res[0]) > abs(max_res[1]) > abs(max_res[2])
    lines.append(CheckLine(
        "parabolic", "dissipation_refinement", scale_ok and mono_ok,
        f"max_res={_fmt(max_res[0])},{_fmt(max_res[1])},{_fmt(max_res[2])} "
        f"c_rep={_fmt(c_rep)}"))

    lines += _plan_checks("parabolic", demo, cli.run_plan(replace(demo, energy=None)).reports)

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
    res = cli.run_plan(plan)
    spec, vhat, times = res.spec, res.energy.vhat, res.traj.times
    envelope = np.exp(-spec.r * times) * vhat[0] * (1.0 + 10.0 * plan.grid.h)
    worst = float(np.max(vhat - envelope))
    rate_ok = abs(spec.r - 3.0 * math.log(2.0)) <= 1e-12
    lines.append(CheckLine("transport", "energy_envelope",
                           worst <= 0.0 and rate_ok,
                           f"max_excess={_fmt(worst)} rate={_fmt(spec.r)}"))

    lines += _plan_checks("transport", plan, res.reports)

    steady = load_plan("transport_steady")
    straj = cli.run_plan(replace(steady, checks=[])).traj
    dev = float(np.max(np.abs(straj.states() - 1.0)))
    steps = straj.meta["steps"]
    lines.append(CheckLine("transport", "steady_state",
                           dev <= 1e-10 and steps >= 1000,
                           f"max_dev={_fmt(dev)} steps={steps}"))

    accepted = cli.run_plan(load_plan("transport_liss"))
    lbound, lrep = accepted.bounds[0], accepted.reports[0]
    # the floor its check admitted, for the demo's R0 = 1
    floor, mass_range = lbound.params["speed_floor"], lbound.params["mass_range"]
    lines.append(CheckLine("transport", "liss_floor",
                           floor == 0.2 and mass_range == 4.0,
                           f"floor={_fmt(floor)} mass_range={_fmt(mass_range)}"))
    accept_sum = lbound.init_norm + float(np.max(lbound.series["sup_d"]))
    # the same run with data its smallness gate refuses: 1.3 + 0.2 > R0 = 1
    doc = load_config("transport_liss")
    doc.update(name="liss_reject", grid={"n": 64, "layout": "cell"}, solver={"t_end": 0.05})
    doc["scenario"].update(boundary_data={"kind": "constant", "value": 0.2},
                           initial={"kind": "constant", "value": 1.3})
    rejected = cli.run_plan(build_plan(doc))
    rbound, rrep = rejected.bounds[0], rejected.reports[0]
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
    res = cli.run_plan(replace(plan, solver=replace(plan.solver, output_stride=1), energy=None))
    traj, c, d = res.traj, plan.scenario.c, plan.scenario.d
    plus, minus = traj.states("plus"), traj.states("minus")
    # one array call, with the bits of the step's float calls
    inflow = c * np.asarray(d(traj.times), dtype=float)
    res_in = float(np.max(np.abs(plus[:, -1] - inflow)))
    res_flip = float(np.max(np.abs(minus[:, 0] + plus[:, 0])))
    lines.append(CheckLine("wave", "boundary_identities",
                           res_in == 0.0 and res_flip == 0.0,
                           f"inflow_res={_fmt(res_in)} flip_res={_fmt(res_flip)}"))

    ft = load_plan("wave_finite_time")
    ftraj = cli.run_plan(ft).traj
    snap = ftraj.snapshot(len(ftraj) - 1)
    w_t, w_y = reconstruct_wave_state(snap["plus"], snap["minus"], ft.scenario.c)
    residue = max(float(np.max(np.abs(w_t))), float(np.max(np.abs(w_y))))
    limit = 10.0 * ft.grid.h
    lines.append(CheckLine("wave", "finite_time_absorption", residue <= limit,
                           f"residue={_fmt(residue)} limit={_fmt(limit)} "
                           f"t_end={_fmt(ftraj.times[-1])}"))

    lines += _plan_checks("wave", plan, res.reports)

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
