"""YAML run configurations: loading, validation, object construction.

A config document has the sections

    name, description, pde, scenario, grid, solver, energy (optional),
    checks (optional)

and :func:`build_plan` turns it into solver-ready objects.  Errors carry
the dotted key path of the offending entry.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np
import yaml

from .certify import BOUNDS
from .scenarios import bundled_config_text, bundled_names
from .signals import (SpaceTimeField, TimeSignal, profile2d_sinprod,
                      profile_affine, profile_bump, profile_constant,
                      profile_poly, profile_sin, profile_sum)
from .fields import Grid1D, Grid2D
from .solvers import (ParabolicScenario, SolverConfig, TransportScenario,
                      WaveScenario)
from .solvers.parabolic import EDGES

__all__ = ["ConfigError", "RunPlan", "load_config", "build_plan", "load_plan"]


class ConfigError(ValueError):
    """Invalid configuration; the message starts with the dotted key path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


def _expect_mapping(doc, path):
    if not isinstance(doc, dict):
        raise ConfigError(path, f"expected a mapping, got {type(doc).__name__}")
    return doc


def _get(doc, key, path, required=True, default=None):
    if key not in doc:
        if required:
            raise ConfigError(f"{path}.{key}", "missing required key")
        return default
    return doc[key]


def _number(doc, key, path, required=True, default=None):
    val = _get(doc, key, path, required, default)
    if val is None and not required:
        return default
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(f"{path}.{key}", f"expected a number, got {val!r}")
    # exact for ints too large for a float; false for NaN
    if not abs(val) <= sys.float_info.max:
        raise ConfigError(f"{path}.{key}", f"expected a finite number, got {val!r}")
    return float(val)


def _integer(doc, key, path, default):
    """An integral number as an int; default None makes the key required."""
    val = _number(doc, key, path, required=default is None, default=default)
    if not float(val).is_integer():
        raise ConfigError(f"{path}.{key}", f"expected an integer, got {val!r}")
    return int(val)


def _coeffs(doc, path):
    coeffs = _get(doc, "coeffs", path)
    if not (isinstance(coeffs, list) and coeffs and all(
            isinstance(c, (int, float)) and not isinstance(c, bool) for c in coeffs)):
        raise ConfigError(f"{path}.coeffs", "expected a nonempty list of numbers")
    return coeffs


def _reject_unknown(doc, allowed, path):
    extra = sorted(set(doc) - set(allowed))
    if extra:
        raise ConfigError(f"{path}.{extra[0]}", "unknown key")


# ---------------------------------------------------------------------------
# leaf builders

# keys each leaf kind takes besides "kind"
_SIGNAL_KEYS = {"constant": ("value",),
                "sinusoid": ("amplitude", "frequency", "phase", "offset"),
                "exp_decay": ("amplitude", "rate", "offset"),
                "polynomial": ("coeffs",)}
_PROFILE_KEYS = {
    1: {"sum": ("terms",), "constant": ("value",), "affine": ("intercept", "slope"),
        "sin": ("amplitude", "mode"), "bump": ("amplitude", "center", "halfwidth"),
        "poly": ("coeffs",)},
    2: {"sum": ("terms",), "constant": ("value",),
        "sinprod": ("amplitude", "mode_x", "mode_y")}}
_FIELD_KEYS = {"constant": ("value",), "uniform": ("signal",),
               "separable": ("profile", "signal")}
_MAP_KEYS = {"identity": (), "linear": ("slope",), "cubic": ("gamma",)}
_SPEED_KEYS = {"constant": ("value",), "reciprocal": ("scale",)}


def _leaf_kind(spec, path, kinds, what):
    """The kind of a leaf spec, after rejecting an unknown kind or key."""
    kind = _get(_expect_mapping(spec, path), "kind", path)
    if not isinstance(kind, str) or kind not in kinds:
        raise ConfigError(f"{path}.kind", f"unknown {what} kind {kind!r}")
    _reject_unknown(spec, ("kind",) + kinds[kind], path)
    return kind


def _at_path(build):
    """Report a ValueError of the object a builder makes at the builder's path."""
    def wrapped(spec, path, *args):
        try:
            return build(spec, path, *args)
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(path, str(exc)) from exc
    return wrapped


@_at_path
def _build_signal(spec, path) -> TimeSignal:
    kind = _leaf_kind(spec, path, _SIGNAL_KEYS, "signal")
    if kind == "constant":
        return TimeSignal.constant(_number(spec, "value", path))
    if kind == "sinusoid":
        return TimeSignal.sinusoid(
            _number(spec, "amplitude", path),
            _number(spec, "frequency", path),
            phase=_number(spec, "phase", path, required=False, default=0.0),
            offset=_number(spec, "offset", path, required=False, default=0.0))
    if kind == "exp_decay":
        return TimeSignal.exp_decay(
            _number(spec, "amplitude", path),
            _number(spec, "rate", path),
            offset=_number(spec, "offset", path, required=False, default=0.0))
    return TimeSignal.polynomial(*_coeffs(spec, path))


@_at_path
def _build_profile(spec, path, dim):
    kind = _leaf_kind(spec, path, _PROFILE_KEYS[dim], "2D profile" if dim == 2 else "profile")
    if kind == "sum":
        terms = _get(spec, "terms", path)
        if not isinstance(terms, list) or not terms:
            raise ConfigError(f"{path}.terms", "expected a nonempty list")
        parts = [_build_profile(t, f"{path}.terms[{i}]", dim)
                 for i, t in enumerate(terms)]
        return profile_sum(*parts)
    if kind == "constant":
        return profile_constant(_number(spec, "value", path))
    if kind == "sinprod":
        return profile2d_sinprod(_number(spec, "amplitude", path),
                                 mode_x=_integer(spec, "mode_x", path, 1),
                                 mode_y=_integer(spec, "mode_y", path, 1))
    if kind == "affine":
        return profile_affine(_number(spec, "intercept", path),
                              _number(spec, "slope", path))
    if kind == "sin":
        return profile_sin(_number(spec, "amplitude", path),
                           mode=_integer(spec, "mode", path, 1))
    if kind == "bump":
        return profile_bump(_number(spec, "amplitude", path),
                            _number(spec, "center", path),
                            _number(spec, "halfwidth", path))
    return profile_poly(*_coeffs(spec, path))


@_at_path
def _build_field(spec, path, dim) -> SpaceTimeField:
    kind = _leaf_kind(spec, path, _FIELD_KEYS, "field")
    if kind == "constant":
        return SpaceTimeField.constant(_number(spec, "value", path))
    if kind == "uniform":
        return SpaceTimeField.from_signal(
            _build_signal(_get(spec, "signal", path), f"{path}.signal"))
    profile = _build_profile(_get(spec, "profile", path), f"{path}.profile", dim)
    sig = _build_signal(_get(spec, "signal", path), f"{path}.signal")
    return SpaceTimeField.separable(profile, sig)


@_at_path
def _build_monotone(spec, path):
    """v, slope*v (slope > 0) or v + gamma*v**3 (gamma >= 0), elementwise."""
    kind = _leaf_kind(spec, path, _MAP_KEYS, "map")
    if kind == "identity":
        return lambda v: np.asarray(v, dtype=float) + 0.0
    if kind == "linear":
        slope = _number(spec, "slope", path)
        if not slope > 0:
            raise ValueError("slope must be positive")
        return lambda v: slope * np.asarray(v, dtype=float)
    gamma = _number(spec, "gamma", path)
    if not gamma >= 0:
        raise ValueError("gamma must be nonnegative")
    return lambda v: np.asarray(v, dtype=float) * (1.0 + gamma * np.asarray(v, dtype=float) ** 2)


@_at_path
def _build_speed(spec, path):
    kind = _leaf_kind(spec, path, _SPEED_KEYS, "speed")
    if kind == "constant":
        value = _number(spec, "value", path)
        if value <= 0:
            raise ConfigError(f"{path}.value", "speed must be positive")
        return lambda s: value
    scale = _number(spec, "scale", path, required=False, default=1.0)
    if scale < 0:
        raise ConfigError(f"{path}.scale", "scale must be nonnegative")
    return lambda s: 1.0 / (1.0 + scale * np.abs(s))


# ---------------------------------------------------------------------------
# section builders


def _edge_list(doc, key, path, dim):
    edges = _get(doc, key, path, required=False, default=[])
    if edges is None:
        edges = []
    if not isinstance(edges, list):
        raise ConfigError(f"{path}.{key}", "expected a list of edge names")
    for e in edges:
        if e not in EDGES[dim]:
            raise ConfigError(f"{path}.{key}", f"unknown edge {e!r} for dim={dim}")
    return frozenset(edges)


def _build_parabolic(doc, path, name):
    allowed = ("dim", "diffusion", "diffusion_floor", "damping", "damping_floor",
               "reaction", "boundary_reaction", "forcing", "dirichlet_data",
               "flux_data", "dirichlet_edges", "flux_edges", "initial")
    _reject_unknown(doc, allowed, path)
    dim = _integer(doc, "dim", path, 1)
    if dim not in (1, 2):
        raise ConfigError(f"{path}.dim", f"dim must be 1 or 2, got {dim}")
    scn = ParabolicScenario(
        dim=dim,
        a=_build_field(_get(doc, "diffusion", path), f"{path}.diffusion", dim),
        a0=_number(doc, "diffusion_floor", path),
        c=_build_field(_get(doc, "damping", path), f"{path}.damping", dim),
        c0=_number(doc, "damping_floor", path),
        reaction=_build_monotone(_get(doc, "reaction", path), f"{path}.reaction"),
        boundary_reaction=_build_monotone(_get(doc, "boundary_reaction", path),
                                          f"{path}.boundary_reaction"),
        f=_build_field(_get(doc, "forcing", path), f"{path}.forcing", dim),
        d1=_build_field(_get(doc, "dirichlet_data", path), f"{path}.dirichlet_data", dim),
        d2=_build_field(_get(doc, "flux_data", path), f"{path}.flux_data", dim),
        w0=_build_profile(_get(doc, "initial", path), f"{path}.initial", dim),
        gamma1=_edge_list(doc, "dirichlet_edges", path, dim),
        gamma2=_edge_list(doc, "flux_edges", path, dim),
        label=name)
    return scn


def _build_transport(doc, path, name):
    allowed = ("assumption", "speed", "speed_floor", "k", "boundary_data", "initial")
    _reject_unknown(doc, allowed, path)
    floor = _number(doc, "speed_floor", path, required=False, default=None)
    return TransportScenario(
        speed_map=_build_speed(_get(doc, "speed", path), f"{path}.speed"),
        assumption=_get(doc, "assumption", path),
        k=_number(doc, "k", path),
        d=_build_signal(_get(doc, "boundary_data", path), f"{path}.boundary_data"),
        rho0=_build_profile(_get(doc, "initial", path), f"{path}.initial", 1),
        speed_floor=floor,
        label=name)


def _build_wave(doc, path, name):
    allowed = ("c", "forcing", "boundary_data", "initial_displacement",
               "initial_velocity")
    _reject_unknown(doc, allowed, path)
    d_sig = _build_signal(_get(doc, "boundary_data", path), f"{path}.boundary_data")
    return WaveScenario(
        c=_number(doc, "c", path),
        f=_build_field(_get(doc, "forcing", path), f"{path}.forcing", 1),
        d=d_sig,
        w0=_build_profile(_get(doc, "initial_displacement", path),
                          f"{path}.initial_displacement", 1),
        v0=_build_profile(_get(doc, "initial_velocity", path),
                          f"{path}.initial_velocity", 1),
        label=name)


@_at_path
def _build_grid(doc, path, pde, scenario):
    doc = _expect_mapping(doc, path)
    if "nx" in doc or "ny" in doc:
        _reject_unknown(doc, ("nx", "ny"), path)
        if getattr(scenario, "dim", 1) != 2:
            raise ConfigError(path, "an nx/ny grid needs a dim=2 scenario")
        return Grid2D(_integer(doc, "nx", path, None), _integer(doc, "ny", path, None))
    _reject_unknown(doc, ("n", "layout"), path)
    # the transport scheme is cell-centered, the other two node-centered
    layout = "cell" if pde == "transport" else "node"
    if _get(doc, "layout", path, required=False, default=layout) != layout:
        raise ConfigError(f"{path}.layout", f"{pde} runs need layout {layout}, "
                                            f"got {doc['layout']!r}")
    return Grid1D(_integer(doc, "n", path, None), layout)


@_at_path
def _build_solver(doc, path, pde):
    doc = _expect_mapping(doc, path)
    allowed = ("t_end", "dt", "cfl_sigma", "bc_tol", "output_stride")
    _reject_unknown(doc, allowed, path)
    return SolverConfig(
        t_end=_number(doc, "t_end", path),
        # the parabolic stepper has no step-size rule of its own
        dt=_number(doc, "dt", path, required=pde == "parabolic", default=None),
        cfl_sigma=_number(doc, "cfl_sigma", path, required=False,
                          default=SolverConfig.cfl_sigma),
        bc_tol=_number(doc, "bc_tol", path, required=False, default=SolverConfig.bc_tol),
        output_stride=_integer(doc, "output_stride", path, SolverConfig.output_stride))


def _build_energy(doc, path, pde):
    if doc is None:
        return None
    doc = _expect_mapping(doc, path)
    _reject_unknown(doc, ("p", "rate", "eps"), path)
    energy = {"p": _number(doc, "p", path)}
    rate = _number(doc, "rate", path, required=False, default=None)
    eps = _number(doc, "eps", path, required=False, default=None)
    if rate is not None:
        energy["rate"] = rate
    if eps is not None:
        energy["eps"] = eps
    if pde == "wave" and rate is None:
        raise ConfigError(f"{path}.rate", "wave energies need an explicit weight rate")
    return energy


def _build_checks(doc, path):
    if doc is None:
        return []
    if not isinstance(doc, list):
        raise ConfigError(path, "expected a list of check entries")
    out = []
    for i, entry in enumerate(doc):
        epath = f"{path}[{i}]"
        entry = _expect_mapping(entry, epath)
        kind = _get(entry, "kind", epath)
        if not isinstance(kind, str) or kind not in BOUNDS:
            raise ConfigError(f"{epath}.kind", f"unknown check kind {kind!r}")
        bound = BOUNDS[kind]
        _reject_unknown(entry, ("kind", "q", "tol") + bound.keys, epath)
        q = _get(entry, "q", epath)
        if q == "inf" or q == math.inf:
            q = math.inf
        elif isinstance(q, (int, float)) and not isinstance(q, bool):
            q = _number(entry, "q", epath)
        else:
            raise ConfigError(f"{epath}.q", f"expected a number or 'inf', got {q!r}")
        tol = _number(entry, "tol", epath, required=False, default=0.0)
        params = {}
        for key in bound.keys:
            if key in entry:
                params[key] = (entry[key] if key == "variant"
                               else _number(entry, key, epath))
        for key in bound.required:
            if key not in params:
                raise ConfigError(f"{epath}.{key}", "missing required key")
        out.append({"kind": kind, "q": q, "tol": tol, "params": params})
    return out


@dataclass
class RunPlan:
    """Everything a run needs, built from one config document."""

    name: str
    description: str
    pde: str
    scenario: object
    grid: object
    solver: SolverConfig
    energy: dict | None
    checks: list = dc_field(default_factory=list)
    doc: dict = dc_field(default_factory=dict)


def load_config(source) -> dict:
    """Parse a YAML config from a path, or a bundled scenario name."""
    bundled = bundled_names()
    if isinstance(source, str) and source in bundled:
        text = bundled_config_text(source)
    else:
        path = Path(source)
        if not path.exists():
            known = ", ".join(bundled)
            raise ConfigError(str(source),
                              f"no such config file or bundled scenario (bundled: {known})")
        try:
            # bytes: the YAML reader detects the encoding and reports bad bytes
            text = path.read_bytes()
        except OSError as exc:
            raise ConfigError(str(source), f"cannot read: {exc.strerror}") from exc
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        # one line: the problem and its place, not the parser's context
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        problem = getattr(exc, "problem", None) or " ".join(str(exc).split())
        raise ConfigError(str(source), f"invalid YAML: {problem}{where}") from exc
    return _expect_mapping(doc, "<config>")


def build_plan(doc: dict) -> RunPlan:
    """Validate a config document and construct the run objects."""
    doc = _expect_mapping(doc, "<config>")
    _reject_unknown(doc, ("name", "description", "pde", "scenario", "grid",
                          "solver", "energy", "checks"), "<config>")
    name = _get(doc, "name", "<config>", required=False, default="run")
    # the run writes under <out>/<name>, so name must be one directory
    if not isinstance(name, str) or name in ("", ".", "..") or {os.sep, os.altsep} & set(name):
        raise ConfigError("<config>.name", f"expected a directory name, got {name!r}")
    description = _get(doc, "description", "<config>", required=False, default="")
    pde = _get(doc, "pde", "<config>")
    if pde not in ("parabolic", "transport", "wave"):
        raise ConfigError("<config>.pde", f"unknown pde class {pde!r}")
    sdoc = _expect_mapping(_get(doc, "scenario", "<config>"), "scenario")
    if pde == "parabolic":
        scenario = _build_parabolic(sdoc, "scenario", name)
    elif pde == "transport":
        scenario = _build_transport(sdoc, "scenario", name)
    else:
        scenario = _build_wave(sdoc, "scenario", name)
    try:
        scenario.validate()
    except ValueError as exc:
        raise ConfigError("scenario", str(exc)) from exc
    grid = _build_grid(_get(doc, "grid", "<config>"), "grid", pde, scenario)
    if pde == "parabolic" and scenario.dim == 2 and not isinstance(grid, Grid2D):
        raise ConfigError("grid", "a dim=2 scenario needs an nx/ny grid")
    solver = _build_solver(_get(doc, "solver", "<config>"), "solver", pde)
    energy = _build_energy(doc.get("energy"), "energy", pde)
    checks = _build_checks(doc.get("checks"), "checks")
    return RunPlan(name=name, description=description, pde=pde, scenario=scenario,
                   grid=grid, solver=solver, energy=energy, checks=checks, doc=doc)


def load_plan(source) -> RunPlan:
    return build_plan(load_config(source))
