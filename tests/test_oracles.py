"""Exact-solution oracles: runs whose every recorded state is a sample of a
known solution of the equation, and whose every check must hold at tol 0.

At ``cfl_sigma`` 1 the wave step is c*dt/h = 1 exactly, so with zero
forcing each characteristic moves one node a step with no smearing,
and every stamp samples, up to the rounding of that shift, the PDE
solution for the step-sampled boundary data.  A bound that fails such a
run is wrong, not the grid.  The table holds:

- the resonant wave family: zero initial data and forcing, boundary data
  0.4*sin(2*pi*(c/4)*t), n = 200, t_end = 8/c (8 when c < 1), at
  c in {1/2, 1, 2, 3, 4, 10}; ``wave_m`` with m = 0.01 at q in {2, 4, inf}
  and ``wave_r_eps`` with r = 1, eps = 0.5 at q in {2, 4, 50} wherever
  c*r > eps (so not at c = 1/2);
- the steady state w = 0.4*y of constant d = 0.4 at c = 10, run from zero
  data and from the steady state itself up to t = 3, with ``wave_m`` m = 1
  and ``wave_r_eps`` r = eps = 1 at q = 2.

The wave formulas failed these checks when they wrote their
c-dependence by hand (sup|d| gains 4/c and 2/c, initial terms
without the factor c), before both became the c = 1 form composed with the
speed map: at c = 2 ``wave_m`` at q = inf and all three ``wave_r_eps``
checks, every check at c = 3, 4 and 10, both checks of the steady state run
from zero data and ``wave_r_eps`` on the one run from the steady state.
Both formulas passed every check at c <= 1.  Later oracles join the table
as rows.
"""

import numpy as np
import pytest

from isscert import cli
from isscert.config import build_plan
from isscert.solvers.wave import least_step

ZERO = {"kind": "constant", "value": 0.0}


def _wave(name, c, t_end, boundary_data, checks, displacement=ZERO):
    return {"name": name, "pde": "wave",
            "scenario": {"c": c, "forcing": ZERO, "boundary_data": boundary_data,
                         "initial_displacement": displacement, "initial_velocity": ZERO},
            "grid": {"n": 200}, "solver": {"t_end": t_end, "cfl_sigma": 1.0},
            "checks": [dict(check, tol=0.0) for check in checks]}


def _resonant(c):
    r, eps = 1.0, 0.5
    checks = [{"kind": "wave_m", "q": q, "m": 0.01} for q in (2, 4, "inf")]
    if c * r > eps:
        checks += [{"kind": "wave_r_eps", "q": q, "r": r, "eps": eps} for q in (2, 4, 50)]
    data = {"kind": "sinusoid", "amplitude": 0.4, "frequency": c / 4}
    return _wave(f"resonant_c{c:g}", c, 8.0 / max(c, 1.0), data, checks)


def _steady(start):
    checks = [{"kind": "wave_m", "q": 2, "m": 1.0},
              {"kind": "wave_r_eps", "q": 2, "r": 1.0, "eps": 1.0}]
    displacement = {"kind": "affine", "intercept": 0.0, "slope": 0.4} if start else ZERO
    return _wave(f"steady_from_{'steady' if start else 'zero'}", 10.0, 3.0,
                 {"kind": "constant", "value": 0.4}, checks, displacement)


ORACLES = [*(_resonant(c) for c in (0.5, 1.0, 2.0, 3.0, 4.0, 10.0)),
           _steady(False), _steady(True)]


@pytest.mark.parametrize("doc", ORACLES, ids=[doc["name"] for doc in ORACLES])
def test_every_check_holds_on_an_exact_solution(doc):
    res = cli.run_plan(build_plan(doc))
    assert len(res.reports) == len(doc["checks"])
    for rep in res.reports:
        assert rep.tol == 0.0 and rep.applicable
        assert rep.violations == 0, (rep.kind, rep.q, rep.min_margin)


def test_the_oracle_runs_sample_the_exact_solution():
    # every run steps at c*dt/h == 1 exactly, and the steady state stays put
    # up to the rounding of its initial slope, a centred difference of 0.4*y
    for doc in ORACLES:
        plan = build_plan(doc)
        c, h = plan.scenario.c, plan.grid.h
        assert c * least_step(plan.scenario, plan.grid, plan.solver) / h == 1.0
    steady = cli.run_plan(build_plan(ORACLES[-1])).traj
    for name, value in (("plus", 4.0), ("minus", -4.0)):  # w_t +- c*w_y = +-10*0.4
        assert np.abs(steady.states(name) - value).max() <= 1e-12
