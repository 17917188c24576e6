"""Spans and counters recorded around calls into isscert's layers.

Nothing here edits ``src``.  :func:`install` replaces public functions at
the names through which ``isscert.cli``, ``isscert.certify``,
``isscert.glf`` and ``isscert.verify`` reach them, with wrappers that
open a span, call the original and close the span.  The wrappers forward
arguments and return values unchanged, so traced runs must produce the
same reports as untraced ones.

A span is ``[name, start, end, parent, op, attrs]``: times from
``time.perf_counter``, ``parent`` the index of the enclosing span (or
-1), ``op`` the operation index, ``attrs`` a dict of counts or None.
"""

from __future__ import annotations

import os
import time

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.op = -1
        self._stack: list = []
        self._solving = False
        self._flux_calls = 0
        self._flux_s = 0.0

    def open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, _clock(), 0.0, parent, self.op, None])
        self._stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][2] = _clock()
        self._stack.pop()

    def wrap(self, fn, name, attrs_of=None):
        """A function that runs fn inside a span named name.

        attrs_of(args, result) returns the counts stored on the span; it
        runs after the span closes, so its cost is not charged to fn.
        """
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if attrs_of is not None:
                self.spans[idx][5] = attrs_of(args, result)
            return result
        traced.__wrapped__ = fn
        return traced

    # -- solver spans carry the flux-law counts made inside them ----------

    def wrap_solver(self, fn):
        def traced(scn, grid, cfg):
            idx = self.open("solvers.solve")
            self._solving, self._flux_calls, self._flux_s = True, 0, 0.0
            try:
                traj = fn(scn, grid, cfg)
            finally:
                self._solving = False
                self.close(idx)
            self.spans[idx][5] = _solve_attrs(scn, grid, cfg, traj,
                                              self._flux_calls, self._flux_s)
            return traj
        traced.__wrapped__ = fn
        return traced


class CountingFn:
    """Counts and times scalar calls of a flux law made inside a solve.

    The parabolic closure calls the law with one float per residual; the
    structural checks call it with arrays and are not counted.  Attribute
    access reaches the wrapped map.
    """

    def __init__(self, fn, tracer):
        self._fn = fn
        self._tracer = tracer

    def __call__(self, v):
        tr = self._tracer
        if not (tr._solving and isinstance(v, float)):
            return self._fn(v)
        t0 = _clock()
        out = self._fn(v)
        tr._flux_s += _clock() - t0
        tr._flux_calls += 1
        return out

    def __getattr__(self, name):
        return getattr(self._fn, name)


def parabolic_steps(t_end, dt):
    """Step count of the parabolic stepper, replaying its time loop."""
    t, steps = 0.0, 0
    while t < t_end - 1e-12 * t_end:
        t += min(dt, t_end - t)
        steps += 1
    return steps


def flux_nodes(scn, grid):
    """Flux-boundary nodes the parabolic step closes, summed over sweeps."""
    if scn.dim == 1:
        return len(scn.gamma2)
    g1, g2 = scn.gamma1, scn.gamma2
    rows = grid.ny + 1 - ("bottom" in g1) - ("top" in g1)
    cols = grid.nx + 1 - ("left" in g1) - ("right" in g1)
    return (rows * (("left" in g2) + ("right" in g2))
            + cols * (("bottom" in g2) + ("top" in g2)))


def _solve_attrs(scn, grid, cfg, traj, flux_calls, flux_s):
    steps = traj.meta.get("steps")
    if steps is None:
        steps = parabolic_steps(cfg.t_end, cfg.dt)
    points = traj.state(0).size
    attrs = {
        "grid": int(getattr(grid, "nx", None) or grid.n),
        "steps": int(steps),
        "point_steps": int(steps) * points,
        "trajectory_bytes": len(traj) * points * len(traj.names) * 8,
        "flux_calls": flux_calls,
        "flux_s": flux_s,
        "closures": 0,
    }
    if traj.pde_class == "parabolic":
        attrs["closures"] = flux_nodes(scn, grid) * int(steps)
    return attrs


def _csv_bytes(args, paths):
    return {"csv_bytes": sum(os.path.getsize(p) for p in paths
                             if str(p).endswith(".csv"))}


def _stamps(args, result):
    return {"stamps": len(args[0])}


def install(tracer):
    """Wrap the layer entry points; return a function that undoes it."""
    import isscert.certify
    import isscert.cli
    import isscert.fields
    import isscert.glf
    import isscert.verify

    saved = []

    def patch(owner, attr, new):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    cli = isscert.cli
    load_plan = cli.load_plan

    def traced_load_plan(source):
        idx = tracer.open("config.load_plan")
        try:
            plan = load_plan(source)
        finally:
            tracer.close(idx)
        if plan.pde == "parabolic":
            scn = plan.scenario
            scn.boundary_reaction = CountingFn(scn.boundary_reaction, tracer)
        return plan

    patch(cli, "load_plan", traced_load_plan)
    for attr in ("solve_parabolic", "solve_transport", "solve_wave"):
        patch(cli, attr, tracer.wrap_solver(getattr(cli, attr)))
    for attr in ("glf_for_parabolic", "glf_for_transport", "glf_for_wave"):
        patch(cli, attr, tracer.wrap(getattr(cli, attr), "glf.level"))
    patch(cli, "dissipation_report",
          tracer.wrap(cli.dissipation_report, "glf.dissipation_report"))
    patch(cli, "wave_forcing_slack",
          tracer.wrap(cli.wave_forcing_slack, "glf.forcing_slack"))
    patch(cli, "prepare_bound",
          tracer.wrap(cli.prepare_bound, "certify.prepare_bound"))
    patch(cli, "check_trajectory",
          tracer.wrap(cli.check_trajectory, "certify.check_trajectory", _stamps))
    traj_cls = isscert.fields.Trajectory
    patch(traj_cls, "write_csv",
          tracer.wrap(traj_cls.write_csv, "fields.write_csv", _csv_bytes))
    for mod in (isscert.certify, isscert.glf):
        patch(mod, "sup_field", tracer.wrap(mod.sup_field, "signals.sup_field"))
        patch(mod, "sup_window", tracer.wrap(mod.sup_window, "signals.sup_window"))
    patch(isscert.glf, "invert_monotone",
          tracer.wrap(isscert.glf.invert_monotone, "comparison.invert"))
    # run_suite looks the suite functions up in this table
    suites = isscert.verify._SUITE_FNS
    patch(isscert.verify, "_SUITE_FNS", {
        key: tuple(tracer.wrap(fn, "verify.suite." + fn.__name__.removeprefix("verify_"))
                   for fn in fns)
        for key, fns in suites.items()})

    def uninstall():
        for owner, attr, old in reversed(saved):
            setattr(owner, attr, old)

    return uninstall
