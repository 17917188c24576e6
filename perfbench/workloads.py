"""Seeded workload generators for the isscert benchmark.

Each workload is a fixed *schedule* of operation slots.  A slot fixes the
properties that set an operation's cost (PDE class, grid size, step
count, output stride, the checks run), so every seed does the same amount
of work; the seed draws the physical data inside each slot (amplitudes,
frequencies, phases, flux-law and reaction coefficients, initial data).
All drawn values stay inside the config schema and within the parameter
ranges of the bundled demos under ``src/isscert/configs``.

The same seed gives byte-identical YAML: values come from
``random.Random(seed)`` in a fixed order and are rounded before dumping.
"""

from __future__ import annotations

import math
import random
from pathlib import Path

import yaml

WHY = {
    "parabolic_2d_flux": (
        "2-D reaction-diffusion on 32^2-64^2 grids with cubic flux laws on two "
        "opposite edges and sparse output: the flux closure does nearly all the work"),
    "parabolic_1d_mixed": (
        "1-D parabolic runs at n~200 with flux ends, time-varying disturbances and "
        "q-norm/heat checks: solver, bound preparation and sups share the time"),
    "dense_record_1d": (
        "transport and wave runs recording every step: CSV output and "
        "post-processing dominate and the solvers do little"),
    "verify_all": (
        "repeated `isscert verify all` over a few seeds: the refactor gate and "
        "the only workload that measures the verify layer"),
}

# Grid sizes each workload draws, in slot order.  Each size yields one
# ``solvers.step_s.n<size>`` metric, which doubles as the grid sweep.
GRID_SIZES = {
    "parabolic_2d_flux": (32, 48, 64),
    "parabolic_1d_mixed": (160, 200, 240),
    "dense_record_1d": (96, 128, 192, 256),
    "verify_all": (),
}

# Seeds of the verify operations, relative to the workload seed.
VERIFY_SEEDS = 3

# Length of a run workload's schedule; a run that gets through it starts
# over.  At the seed commit a 20-second run takes under 80 operations.
SCHEDULE_OPS = 120

# Operations per second the seed commit completes on the reference host
# (see hostspeed.py).  They fix how many operations a run of a given
# length times at least, and so the tail percentile, which would move
# with the host's speed if it followed the count a run happened to reach.
NOMINAL_OPS_PER_S = {
    "parabolic_2d_flux": 2.25,
    "parabolic_1d_mixed": 2.1,
    "dense_record_1d": 3.1,
    "verify_all": 0.47,
}

# the tail percentile needs ten operations beyond it
TAIL_BEYOND = 10


def _u(rng, lo, hi, digits=4):
    return round(rng.uniform(lo, hi), digits)


def _sinusoid(rng, amp_lo, amp_hi):
    return {"kind": "sinusoid", "amplitude": _u(rng, amp_lo, amp_hi),
            "frequency": _u(rng, 0.5, 2.0), "phase": _u(rng, 0.0, 3.1416)}


def _const(value):
    return {"kind": "constant", "value": value}


def _parabolic_2d(rng, name, n):
    """Flux on bottom and top, so every y-sweep line closes both ends jointly."""
    diffusion = _u(rng, 0.8, 1.2)
    damping = _u(rng, 0.5, 1.0)
    return {
        "name": name,
        "description": "seeded 2-D reaction-diffusion run with a cubic flux law",
        "pde": "parabolic",
        "scenario": {
            "dim": 2,
            "diffusion": _const(diffusion), "diffusion_floor": diffusion,
            "damping": _const(damping), "damping_floor": damping,
            "reaction": {"kind": "identity"},
            "boundary_reaction": {"kind": "cubic", "gamma": _u(rng, 0.5, 1.5)},
            "forcing": {"kind": "uniform", "signal": _sinusoid(rng, 0.1, 0.5)},
            "dirichlet_data": _const(_u(rng, 0.0, 0.3)),
            "flux_data": {"kind": "uniform", "signal": _sinusoid(rng, 0.1, 0.4)},
            "dirichlet_edges": ["left", "right"],
            "flux_edges": ["bottom", "top"],
            "initial": {"kind": "sum", "terms": [
                _const(_u(rng, 0.0, 0.3)),
                {"kind": "sinprod", "amplitude": _u(rng, 1.0, 3.0),
                 "mode_x": rng.choice((1, 2)), "mode_y": rng.choice((1, 2))}]},
        },
        "grid": {"nx": n, "ny": n},
        "solver": {"t_end": 0.016, "dt": 0.004, "output_stride": 2},
        "energy": {"p": 2.0},
        "checks": [{"kind": "parabolic_q", "q": 2, "tol": 0.0},
                   {"kind": "parabolic_q", "q": "inf", "tol": 0.0}],
    }


def _parabolic_1d(rng, name, n, flux_edges, flux_law, separable):
    edges = {"left", "right"}
    dirichlet = sorted(edges - set(flux_edges))
    damping = _u(rng, 0.5, 1.0)
    signal = _sinusoid(rng, 0.1, 0.5)
    if separable:
        forcing = {"kind": "separable",
                   "profile": {"kind": "sin", "amplitude": _u(rng, 0.5, 1.0),
                               "mode": rng.choice((1, 2))},
                   "signal": signal}
    else:
        forcing = {"kind": "uniform", "signal": signal}
    law = ({"kind": "cubic", "gamma": _u(rng, 0.5, 1.5)} if flux_law == "cubic"
           else {"kind": "identity"})
    return {
        "name": name,
        "description": "seeded 1-D reaction-diffusion run with flux ends",
        "pde": "parabolic",
        "scenario": {
            "dim": 1,
            "diffusion": _const(1.0), "diffusion_floor": 1.0,
            "damping": _const(damping), "damping_floor": damping,
            "reaction": {"kind": "identity"},
            "boundary_reaction": law,
            "forcing": forcing,
            "dirichlet_data": {"kind": "uniform", "signal": _sinusoid(rng, 0.0, 0.2)},
            "flux_data": {"kind": "uniform", "signal": _sinusoid(rng, 0.1, 0.3)},
            "dirichlet_edges": dirichlet,
            "flux_edges": list(flux_edges),
            "initial": {"kind": "sum", "terms": [
                _const(_u(rng, 0.0, 0.3)),
                {"kind": "sin", "amplitude": _u(rng, 1.0, 3.0),
                 "mode": rng.choice((1, 2))}]},
        },
        "grid": {"n": n, "layout": "node"},
        "solver": {"t_end": 0.6, "dt": 0.002, "output_stride": 2},
        "energy": {"p": 2.0},
        "checks": [{"kind": "parabolic_q", "q": 2, "tol": 0.0},
                   {"kind": "parabolic_q", "q": 4, "tol": 0.0},
                   {"kind": "parabolic_q", "q": "inf", "tol": 0.0}],
    }


def _heat_1d(rng, name, n):
    """The boundary-damped heat baseline, as in heat_clm_demo."""
    dt = 0.001
    return {
        "name": name,
        "description": "seeded boundary-damped heat run checked by the quadratic bound",
        "pde": "parabolic",
        "scenario": {
            "dim": 1,
            "diffusion": _const(1.0), "diffusion_floor": 1.0,
            "damping": _const(0.0), "damping_floor": 0.0,
            "reaction": {"kind": "identity"},
            "boundary_reaction": {"kind": "identity"},
            "forcing": {"kind": "uniform", "signal": _sinusoid(rng, 0.1, 0.5)},
            "dirichlet_data": _const(0.0),
            "flux_data": {"kind": "uniform", "signal": _sinusoid(rng, 0.1, 0.3)},
            "dirichlet_edges": ["left"],
            "flux_edges": ["right"],
            "initial": {"kind": "bump", "amplitude": _u(rng, 0.5, 1.0),
                        "center": _u(rng, 0.3, 0.7), "halfwidth": _u(rng, 0.15, 0.25)},
        },
        "grid": {"n": n, "layout": "node"},
        "solver": {"t_end": 0.6, "dt": dt, "output_stride": 4},
        # tol = h^2 + dt for this grid and step, the demo's rule
        "checks": [{"kind": "heat_clm", "q": 2, "eps": 1.0,
                    "tol": round((1.0 / n) ** 2 + dt, 12)}],
    }


def _transport(rng, name, n, t_end):
    return {
        "name": name,
        "description": "seeded recirculating transport run recording every step",
        "pde": "transport",
        "scenario": {
            "assumption": "uniform",
            "speed": _const(1.0), "speed_floor": 1.0,
            "k": _u(rng, 0.3, 0.6),
            "boundary_data": _sinusoid(rng, 0.05, 0.25),
            "initial": {"kind": "bump", "amplitude": _u(rng, 0.5, 1.0),
                        "center": _u(rng, 0.3, 0.7), "halfwidth": _u(rng, 0.15, 0.25)},
        },
        "grid": {"n": n, "layout": "cell"},
        "solver": {"t_end": t_end, "cfl_sigma": 0.9, "output_stride": 1},
        "energy": {"p": 2.0},
        "checks": [{"kind": "transport_q", "q": 2, "tol": 0.0},
                   {"kind": "transport_q", "q": "inf", "tol": 0.0},
                   {"kind": "transport_p", "q": 3, "p": 2.0, "tol": 0.0}],
    }


def _wave(rng, name, n, t_end):
    return {
        "name": name,
        "description": "seeded boundary-damped wave run recording every step",
        "pde": "wave",
        "scenario": {
            "c": 2.0,
            "forcing": {"kind": "separable",
                        "profile": {"kind": "sin", "amplitude": _u(rng, 0.1, 0.4),
                                    "mode": rng.choice((1, 2))},
                        "signal": _sinusoid(rng, 0.5, 1.0)},
            "boundary_data": _sinusoid(rng, 0.1, 0.4),
            "initial_displacement": _const(0.0),
            "initial_velocity": {"kind": "bump", "amplitude": _u(rng, 0.5, 1.0),
                                 "center": _u(rng, 0.3, 0.7),
                                 "halfwidth": _u(rng, 0.15, 0.25)},
        },
        "grid": {"n": n, "layout": "node"},
        "solver": {"t_end": t_end, "cfl_sigma": 0.9, "output_stride": 1},
        "energy": {"p": 2.0, "rate": 1.0, "eps": 1.0},
        "checks": [{"kind": "wave_m", "q": 2, "m": 1.0, "tol": 0.0},
                   {"kind": "wave_m", "q": 4, "m": 1.0, "tol": 0.0},
                   {"kind": "wave_r_eps", "q": 2, "r": 1.0, "eps": 1.0, "tol": 0.0}],
    }


def _slots(workload):
    """Config makers for the slots of one round; each takes (rng, name).

    Sorted by cost, a run's operations fall into one cluster per slot.
    The slot counts keep the median, and the tail rank at the operation
    counts a 20-second run reaches, inside a cluster rather than on the
    edge between two, where the figure would jump from run to run.
    """
    if workload == "parabolic_2d_flux":
        return [lambda rng, name, n=n: _parabolic_2d(rng, name, n)
                for n in GRID_SIZES[workload]]
    if workload == "parabolic_1d_mixed":
        return [
            lambda rng, name: _parabolic_1d(rng, name, 160, ("right",), "identity", True),
            lambda rng, name: _parabolic_1d(rng, name, 200, ("left", "right"), "cubic", False),
            lambda rng, name: _parabolic_1d(rng, name, 240, ("left",), "identity", True),
            lambda rng, name: _heat_1d(rng, name, 200),
            lambda rng, name: _heat_1d(rng, name, 240),
            lambda rng, name: _parabolic_1d(rng, name, 160, ("left", "right"), "identity", False),
            lambda rng, name: _parabolic_1d(rng, name, 200, ("right",), "cubic", True),
        ]
    if workload == "dense_record_1d":
        return [
            lambda rng, name: _transport(rng, name, 256, 1.0),
            lambda rng, name: _wave(rng, name, 96, 1.0),
            lambda rng, name: _transport(rng, name, 128, 1.5),
            lambda rng, name: _wave(rng, name, 192, 0.5),
            lambda rng, name: _wave(rng, name, 96, 1.5),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def round_length(workload: str) -> int:
    """Operations that must complete together before a run may stop.

    Run workloads stop only after whole rounds of slots, so every slot is
    equally represented.  The cost of `verify all` does not depend on its
    seed, so verify runs may stop after any operation.
    """
    return 1 if workload == "verify_all" else len(_slots(workload))


def min_ops(workload: str, seconds: float) -> int:
    """Operations a run of the given length times at least: whole rounds,
    and enough for a tail percentile with TAIL_BEYOND operations beyond."""
    n = max(TAIL_BEYOND + 1, math.ceil(seconds * NOMINAL_OPS_PER_S[workload]))
    size = round_length(workload)
    return -(-n // size) * size


def generate(workload: str, seed: int) -> list:
    """The operation schedule of a run; runs cycle through it in order.

    A spec is ``{"kind": "run", "name": ..., "yaml": text}`` or
    ``{"kind": "verify", "name": ..., "seed": n}``.  Every run operation
    draws fresh data, so a run's figures average over many draws rather
    than over one per slot.
    """
    if workload not in WHY:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WHY)}")
    if workload == "verify_all":
        return [{"kind": "verify", "name": f"verify_all_s{seed + i}", "seed": seed + i}
                for i in range(VERIFY_SEEDS)]
    rng = random.Random(seed)
    slots = _slots(workload)
    ops = []
    for i in range(SCHEDULE_OPS):
        slot = i % len(slots)
        doc = slots[slot](rng, f"{workload}_s{seed}_{i:03d}_slot{slot}")
        ops.append({"kind": "run", "name": doc["name"],
                    "yaml": yaml.safe_dump(doc, sort_keys=False, default_flow_style=None)})
    return ops


def write_configs(ops: list, directory: Path) -> list:
    """Write each run spec's YAML under directory; return specs with paths."""
    directory.mkdir(parents=True, exist_ok=True)
    out = []
    for op in ops:
        op = dict(op)
        if op["kind"] == "run":
            path = directory / f"{op['name']}.yaml"
            path.write_text(op.pop("yaml"))
            op["config"] = str(path)
        out.append(op)
    return out
