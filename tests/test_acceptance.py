"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Run with -s to see the per-criterion lines; each line carries the
measured quantities the verdict rests on.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

from isscert.certify import (bound_parabolic_q, bound_transport_q,
                             bound_wave_m, check_trajectory, prepare_bound)
from isscert.config import _reciprocal_speed as reciprocal_speed, load_plan
from isscert.fields import Grid
from isscert.glf import (dissipation_rate, dissipation_report,
                         glf_for_parabolic, glf_for_transport,
                         local_speed_floor, series)
from isscert.signals import TimeSignal, profile_constant
from isscert.solvers import (SolverConfig, TransportScenario, solve_parabolic,
                             solve_transport, solve_wave)
from isscert.solvers.wave import reconstruct_wave_state
from isscert.verify import verify_trunc


def _report(n, ok, detail):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


@pytest.fixture(scope="module")
def trunc_lines():
    t0 = time.perf_counter()
    lines = verify_trunc(42)
    elapsed = time.perf_counter() - t0
    return {ln.name: ln for ln in lines}, elapsed


def test_criterion_1_truncation_calculus(trunc_lines):
    lines, elapsed = trunc_lines
    prop_names = [name for name in lines
                  if name.split("_")[0] in
                  ("G1", "G2", "G3", "G4", "G5", "G6", "G7", "G8", "scaling")]
    # 9 property rows for each exponent in {1.5, 2, 3, 5}
    complete = len(prop_names) == 36
    all_pass = all(lines[name].passed for name in prop_names)
    fast = elapsed < 5.0
    ok = _report(1, complete and all_pass and fast,
                 f"{len(prop_names)} property rows x 10000 samples, "
                 f"runtime {elapsed:.2f}s")
    assert ok


def test_criterion_2_scalar_lemmas(trunc_lines):
    lines, _ = trunc_lines
    young = lines["young_gap"]
    gron = lines["gronwall_linear"]
    ok = _report(2, young.passed and gron.passed,
                 f"young {young.detail}, gronwall {gron.detail}")
    assert ok


def test_criterion_3_heat_baseline():
    t0 = time.perf_counter()
    plan = load_plan("heat_clm_demo")
    traj = solve_parabolic(plan.scenario, plan.grid, plan.solver)
    entry = plan.checks[0]
    bound = prepare_bound(entry["kind"], traj, plan.scenario, entry["q"],
                          entry["params"])
    rep = check_trajectory(traj, entry["q"], bound, entry["tol"])
    elapsed = time.perf_counter() - t0
    tol_matches = math.isclose(entry["tol"],
                               plan.grid.h**2 + plan.solver.dt, rel_tol=1e-12)
    ok = _report(3, (plan.grid.n == 200 and tol_matches and rep.violations == 0
                     and rep.min_margin > 0.0 and elapsed < 10.0),
                 f"min_margin={rep.min_margin:.6e} at tol={entry['tol']:.3e}, "
                 f"n={plan.grid.n}, runtime {elapsed:.2f}s")
    assert ok


def test_criterion_4_parabolic_energy_and_bounds():
    demo = load_plan("parabolic_demo")

    # (a) dissipation residual under simultaneous grid/step refinement;
    # horizon 0.2 stays ahead of the energy's finite-time quench
    horizon = 0.2
    max_res, scales = [], []
    for n in (100, 200, 400):
        grid = Grid(n, layout="node")
        dt = horizon / n
        rtraj = solve_parabolic(demo.scenario, grid,
                                SolverConfig(t_end=horizon, dt=dt,
                                             output_stride=1))
        spec = glf_for_parabolic(demo.scenario, rtraj, 2.0)
        rep = dissipation_report(rtraj, spec, dissipation_rate(spec, demo.scenario))
        max_res.append(rep.max_residual)
        scales.append(grid.h + dt)
    c_rep = abs(max_res[0]) / scales[0]
    scale_ok = all(max_res[i] <= c_rep * scales[i] * (1.0 + 1e-9)
                   for i in range(3))
    mono_ok = abs(max_res[0]) > abs(max_res[1]) > abs(max_res[2])

    # (b) norm bounds along the bundled run for q in {2, 4, inf}
    btraj = solve_parabolic(demo.scenario, demo.grid, demo.solver)
    violations = []
    for entry in demo.checks:
        b = prepare_bound(entry["kind"], btraj, demo.scenario, entry["q"],
                          entry["params"])
        violations.append(check_trajectory(btraj, entry["q"], b,
                                           entry["tol"]).violations)
    qs = [entry["q"] for entry in demo.checks]
    bounds_ok = qs == [2.0, 4.0, math.inf] and all(v == 0 for v in violations)

    ok = _report(4, scale_ok and mono_ok and bounds_ok,
                 f"max_res {max_res[0]:.4e} -> {max_res[1]:.4e} -> "
                 f"{max_res[2]:.4e}, C={c_rep:.3f}, "
                 f"violations={violations} for q={qs}")
    assert ok


def test_criterion_5_transport_global():
    plan = load_plan("transport_global")
    traj = solve_transport(plan.scenario, plan.grid, plan.solver)
    spec = glf_for_transport(plan.scenario, traj, plan.energy["p"])
    rate_ok = abs(spec.r - 3.0 * math.log(2.0)) <= 1e-12
    vhat, _ = series(traj, spec)
    envelope = np.exp(-spec.r * traj.times) * vhat[0] * (1.0 + 10.0 * plan.grid.h)
    max_excess = float(np.max(vhat - envelope))

    violations = []
    for entry in plan.checks:
        if entry["kind"] != "transport_q":
            continue
        b = prepare_bound(entry["kind"], traj, plan.scenario, entry["q"],
                          entry["params"])
        violations.append(check_trajectory(traj, entry["q"], b,
                                           entry["tol"]).violations)

    steady = load_plan("transport_steady")
    straj = solve_transport(steady.scenario, steady.grid, steady.solver)
    dev = max(float(np.max(np.abs(straj.state(i) - 1.0)))
              for i in range(len(straj)))
    steps = straj.meta["steps"]

    ok = _report(5, (rate_ok and max_excess <= 0.0
                     and len(violations) == 2 and all(v == 0 for v in violations)
                     and dev <= 1e-10 and steps >= 1000),
                 f"envelope excess {max_excess:.3e} at r=3ln2, "
                 f"q-violations={violations}, steady dev {dev:.2e} "
                 f"over {steps} steps")
    assert ok


def test_criterion_6_transport_local_gate():
    liss = load_plan("transport_liss")
    floor, mass_range = local_speed_floor(liss.scenario, 1.0)
    floor_exact = floor == 0.2 and mass_range == 4.0

    ltraj = solve_transport(liss.scenario, liss.grid, liss.solver)
    entry = liss.checks[0]
    accepted = prepare_bound(entry["kind"], ltraj, liss.scenario, entry["q"],
                             entry["params"])
    arep = check_trajectory(ltraj, entry["q"], accepted, entry["tol"])
    accept_sum = accepted.init_norm + float(np.max(accepted.series["sup_d"]))

    reject_scn = TransportScenario(
        speed_map=reciprocal_speed(1.0), assumption="decreasing",
        k=0.5, d=TimeSignal.constant(0.2), rho0=profile_constant(1.3))
    rtraj = solve_transport(reject_scn, Grid(64, layout="cell"),
                            SolverConfig(t_end=0.05, cfl_sigma=0.9))
    rejected = prepare_bound("transport_liss", rtraj, reject_scn, 2.0,
                             {"R0": 1.0})
    reject_sum = rejected.init_norm + float(np.max(rejected.series["sup_d"]))

    gate_ok = (accepted.gate is True and abs(accept_sum - 0.9) < 1e-9
               and rejected.gate is False and abs(reject_sum - 1.5) < 1e-9)
    ok = _report(6, floor_exact and gate_ok and arep.violations == 0,
                 f"floor={floor!r} mass_range={mass_range!r}, gate accepts "
                 f"{accept_sum:.3f} / rejects {reject_sum:.3f}, "
                 f"accepted violations={arep.violations}")
    assert ok


def test_criterion_7_wave():
    plan = load_plan("wave_demo")
    cfg = SolverConfig(t_end=plan.solver.t_end, dt=plan.solver.dt,
                       cfl_sigma=plan.solver.cfl_sigma,
                       bc_tol=plan.solver.bc_tol, output_stride=1)
    traj = solve_wave(plan.scenario, plan.grid, cfg)
    c = plan.scenario.c
    res_in = res_flip = 0.0
    for i, t in enumerate(traj.times):
        snap = traj.snapshot(i)
        res_in = max(res_in, abs(snap["plus"][-1] - c * float(plan.scenario.d(t))))
        res_flip = max(res_flip, abs(snap["minus"][0] + snap["plus"][0]))
    identities_ok = res_in == 0.0 and res_flip == 0.0 and c == 2.0

    ft = load_plan("wave_finite_time")
    ftraj = solve_wave(ft.scenario, ft.grid, ft.solver)
    snap = ftraj.snapshot(len(ftraj) - 1)
    w_t, w_y = reconstruct_wave_state(snap["plus"], snap["minus"], ft.scenario.c)
    residue = max(float(np.max(np.abs(w_t))), float(np.max(np.abs(w_y))))
    absorb_ok = (residue <= 10.0 * ft.grid.h
                 and math.isclose(ftraj.times[-1], 2.0 / ft.scenario.c + 0.2))

    params_expected = (
        [e["params"] for e in plan.checks]
        == [{"m": 1.0}, {"m": 1.0}, {"r": 1.0, "eps": 1.0}, {"r": 1.0, "eps": 1.0}])
    violations = []
    for entry in plan.checks:
        b = prepare_bound(entry["kind"], traj, plan.scenario, entry["q"],
                          entry["params"])
        violations.append(check_trajectory(traj, entry["q"], b,
                                           entry["tol"]).violations)
    bounds_ok = params_expected and all(v == 0 for v in violations)

    ok = _report(7, identities_ok and absorb_ok and bounds_ok,
                 f"identity residues ({res_in:.1e}, {res_flip:.1e}), "
                 f"absorption residue {residue:.2e} <= {10.0 * ft.grid.h:.2e}, "
                 f"bound violations={violations}")
    assert ok


def test_criterion_8_exact_constants():
    unit = float(bound_parabolic_q(2.0, 0.0, 1.0, 0.0, 1.0))
    gain = float(bound_parabolic_q(2.0, 7.5, 0.0, 0.7, 1.0))
    parabolic_ok = unit == 4.0 and gain == 8.0 * 0.7

    wave = float(bound_wave_m(2.0, 1.0, 0.0, 1.0, 0.0, 0.0, 1.0))
    wave_ref = 8.0 * math.exp(4.0)
    wave_ok = abs(wave - wave_ref) <= 1e-10 * wave_ref

    pref = float(bound_transport_q(2.0, 0.5, 0.0, 1.0, 1.0, 0.0))
    transport_ok = abs(pref - 2.0 / 0.5) <= 1e-12 * 4.0

    ok = _report(8, parabolic_ok and wave_ok and transport_ok,
                 f"parabolic ({unit}, {gain}), wave {wave:.12e} vs 8e^4, "
                 f"transport prefactor {pref!r}")
    assert ok


def test_criterion_9_determinism(tmp_path):
    outputs = []
    for i in (1, 2):
        out = tmp_path / f"run{i}"
        proc = subprocess.run(
            [sys.executable, "-m", "isscert", "verify", "all", "--seed", "42",
             "--out", str(out)],
            capture_output=True, timeout=600)
        assert proc.returncode == 0, proc.stderr.decode()
        outputs.append((proc.stdout, (out / "verify_all.txt").read_bytes()))
    identical = outputs[0] == outputs[1]
    nlines = len(outputs[0][1].decode().splitlines())
    ok = _report(9, identical,
                 f"two runs, {nlines} report lines, "
                 f"stdout and file byte-identical: {identical}")
    assert ok
