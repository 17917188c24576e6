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
import re
import sys
from dataclasses import dataclass, field as dc_field
from importlib import resources
from pathlib import Path

import numpy as np
import yaml

from .certify import BOUNDS, admit_check
from .glf import ENERGIES
from .signals import (SpaceTimeField, TimeSignal, profile_affine,
                      profile_bump, profile_constant, profile_poly,
                      profile_sin, profile_sinprod, profile_sum)
from .fields import AXES, Grid, edge_names, grid_keys
from .solvers import (ParabolicScenario, SolverConfig, TransportScenario,
                      WaveScenario)
from .solvers import transport, wave
from .solvers.common import record_rows

__all__ = ["ConfigError", "RunPlan", "bundled_names", "load_config", "build_plan", "load_plan",
           "dump_config"]

# libyaml when PyYAML was built with it; the pure parser otherwise
_CSafeLoader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

# each YAML file shipped here is a bundled scenario, named after its file
_BUNDLED = resources.files("isscert.configs")


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
    return _finite(val, f"{path}.{key}")


def _finite(val, where):
    """A number as a float, or a ConfigError at where when it is not finite."""
    # exact for ints too large for a float; false for NaN
    if not abs(val) <= sys.float_info.max:
        raise ConfigError(where, f"expected a finite number, got {val!r}")
    return float(val)


def _integer(doc, key, path, default):
    """An integral number as an int; default None makes the key required."""
    val = _number(doc, key, path, required=default is None, default=default)
    if not float(val).is_integer():
        raise ConfigError(f"{path}.{key}", f"expected an integer, got {val!r}")
    return int(val)


def _reject_unknown(doc, allowed, path):
    extra = sorted(set(doc) - set(allowed))
    if extra:
        raise ConfigError(f"{path}.{extra[0]}", "unknown key")


# ---------------------------------------------------------------------------
# leaves (time signals, profiles, fields, monotone maps, speed maps) and
# scenario sections

# the monotone maps are plain arithmetic: a float in gives a float out, with
# the bits an array gives elementwise, so both flux closure kernels read the
# same law values


def _facts(law, **facts):
    """law, with its kind's facts as attributes, which the scenarios read
    instead of sampling the law.  A map kind is v -> slope*v + gamma*v**3,
    slope > 0 and gamma >= 0: odd, of the sign of v and nondecreasing, of
    least slope slope.  ParabolicScenario admits a flux law of slope 0 too;
    the level's inverse refuses only slope = gamma = 0.  A speed is even and
    nonincreasing in |s|, so its sup is its value at 0, sup."""
    law.__dict__.update(facts)
    return law


def _identity():
    return _facts(lambda v: v + 0.0, slope=1.0, gamma=0.0)


def _linear(slope):
    if not slope > 0:
        raise ValueError("slope must be positive")
    return _facts(lambda v: slope * v, slope=slope, gamma=0.0)


def _cubic(gamma):
    """v + gamma*v**3, elementwise; 1.0*v at gamma 0, finite where v*v is not."""
    if not gamma >= 0:
        raise ValueError("gamma must be nonnegative")
    if gamma == 0:
        return _linear(1.0)
    return _facts(lambda v: v * (1.0 + gamma * (v * v)), slope=1.0, gamma=gamma)


def _constant_speed(value):
    if value <= 0:
        raise ValueError("speed must be positive")
    return _facts(lambda s: value, sup=value)


def _reciprocal_speed(scale):
    if scale < 0:
        raise ValueError("scale must be nonnegative")
    return _facts(lambda s: 1.0 / (1.0 + scale * np.abs(s)), sup=1.0)


# each family's kinds: (constructor, the keys besides "kind" in its argument
# order); _read reads a key by its name alone
_LEAVES = {
    "signal": {"constant": (TimeSignal.constant, ("value",)),
               "sinusoid": (TimeSignal.sinusoid, ("amplitude", "frequency", "phase", "offset")),
               "exp_decay": (TimeSignal.exp_decay, ("amplitude", "rate", "offset")),
               "polynomial": (TimeSignal.polynomial, ("coeffs",))},
    "profile": {"sum": (profile_sum, ("terms",)), "constant": (profile_constant, ("value",)),
                "affine": (profile_affine, ("intercept", "slope")),
                "sin": (profile_sin, ("amplitude", "mode")),
                "bump": (profile_bump, ("amplitude", "center", "halfwidth")),
                "poly": (profile_poly, ("coeffs",))},
    # the profiles of a domain of dim axes, "<dim>D profile", from two axes on
    **{f"{dim}D profile": {
        "sum": (profile_sum, ("terms",)), "constant": (profile_constant, ("value",)),
        "sinprod": (profile_sinprod, ("amplitude", *(f"mode_{x}" for *_, x in AXES[:dim])))}
       for dim in range(2, len(AXES) + 1)},
    "field": {"constant": (SpaceTimeField.constant, ("value",)),
              "uniform": (SpaceTimeField.from_signal, ("signal",)),
              "separable": (SpaceTimeField.separable, ("profile", "signal"))},
    "map": {"identity": (_identity, ()), "linear": (_linear, ("slope",)),
            "cubic": (_cubic, ("gamma",))},
    "speed": {"constant": (_constant_speed, ("value",)),
              "reciprocal": (_reciprocal_speed, ("scale",))},
}
# optional keys and their defaults; every other number is required
_DEFAULTS = {"mode": 1, "phase": 0.0, "offset": 0.0, "scale": 1.0, "dim": 1,
             "speed_floor": None, **{f"mode_{x}": 1 for *_, x in AXES}}
# the leaf family of each key that holds a leaf; terms are of their leaf's family
_FAMILIES = {"signal": "signal", "boundary_data": "signal", "speed": "speed",
             "reaction": "map", "boundary_reaction": "map",
             **dict.fromkeys(("profile", "initial", "initial_displacement",
                              "initial_velocity"), "profile"),
             **dict.fromkeys(("diffusion", "damping", "forcing", "dirichlet_data",
                              "flux_data"), "field")}
# each class's scenario type and its keys, in reading order, with the
# attribute each sets; the label is the run's name
_SCENARIOS = {
    "parabolic": (ParabolicScenario, {
        "dim": "dim", "diffusion": "a", "diffusion_floor": "a0", "damping": "c",
        "damping_floor": "c0", "reaction": "reaction", "boundary_reaction": "boundary_reaction",
        "forcing": "f", "dirichlet_data": "d1", "flux_data": "d2", "initial": "w0",
        "dirichlet_edges": "gamma1", "flux_edges": "gamma2"}),
    "transport": (TransportScenario, {
        "speed_floor": "speed_floor", "speed": "speed_map", "assumption": "assumption",
        "k": "k", "boundary_data": "d", "initial": "rho0"}),
    "wave": (WaveScenario, {
        "boundary_data": "d", "c": "c", "forcing": "f", "initial_displacement": "w0",
        "initial_velocity": "v0"}),
}


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
def _leaf(spec, path, family, dim=1):
    """The object a leaf spec of a family describes; dim picks the profiles."""
    if family == "profile" and dim > 1:
        family = f"{dim}D profile"
    kind = _get(_expect_mapping(spec, path), "kind", path)
    if not isinstance(kind, str) or kind not in _LEAVES[family]:
        raise ConfigError(f"{path}.kind", f"unknown {family} kind {kind!r}")
    make, keys = _LEAVES[family][kind]
    _reject_unknown(spec, ("kind",) + keys, path)
    args = _read(spec, path, keys, family, dim)
    # a sum takes its terms, a polynomial its coefficients, as its arguments
    return make(*(args[0] if keys in (("terms",), ("coeffs",)) else args))


def _read(doc, path, keys, family, dim):
    """The value of each key of doc, in order, read by what its name says:
    a leaf of the key's family, a leaf family's terms, a list of numbers,
    a count (dim, whose axes the keys after it read, and mode*), edge
    names (*_edges), text (assumption), or a number."""
    out = []
    for key in keys:
        if key in _FAMILIES:
            out.append(_leaf(_get(doc, key, path), f"{path}.{key}", _FAMILIES[key], dim))
        elif key == "terms":
            terms = _get(doc, key, path)
            if not isinstance(terms, list) or not terms:
                raise ConfigError(f"{path}.terms", "expected a nonempty list")
            out.append([_leaf(t, f"{path}.terms[{i}]", family, dim) for i, t in enumerate(terms)])
        elif key == "coeffs":
            coeffs = _get(doc, key, path)
            if not (isinstance(coeffs, list) and coeffs and all(
                    isinstance(c, (int, float)) and not isinstance(c, bool) for c in coeffs)):
                raise ConfigError(f"{path}.coeffs", "expected a nonempty list of numbers")
            out.append([_finite(c, f"{path}.coeffs") for c in coeffs])
        elif key == "dim" or key.startswith("mode"):
            out.append(_integer(doc, key, path, _DEFAULTS[key]))
            if key == "dim":
                dim = out[-1]
                try:  # the keys after it read the axes of dim
                    edge_names(dim)
                except ValueError as exc:
                    raise ConfigError(f"{path}.dim", str(exc)) from None
        elif key.endswith("_edges"):
            edges = _get(doc, key, path, required=False)
            if edges is None:
                edges = []
            if not isinstance(edges, list):
                raise ConfigError(f"{path}.{key}", "expected a list of edge names")
            for e in edges:
                if e not in edge_names(dim):
                    raise ConfigError(f"{path}.{key}", f"unknown edge {e!r} for dim={dim}")
            out.append(frozenset(edges))
        elif key == "assumption":
            out.append(_get(doc, key, path))
        else:
            out.append(_number(doc, key, path, required=key not in _DEFAULTS,
                               default=_DEFAULTS.get(key)))
    return out


# ---------------------------------------------------------------------------
# section builders


@_at_path
def _build_grid(doc, path, pde, scenario):
    doc = _expect_mapping(doc, path)
    # the scenario's axes name the grid keys; transport and wave have one
    keys = grid_keys(getattr(scenario, "dim", 1))
    _reject_unknown(doc, (*keys, "layout"), path)
    # the transport scheme is cell-centered, the other two node-centered
    layout = "cell" if pde == "transport" else "node"
    if _get(doc, "layout", path, required=False, default=layout) != layout:
        raise ConfigError(f"{path}.layout", f"{pde} runs need layout {layout}, "
                                            f"got {doc['layout']!r}")
    return Grid(*(_integer(doc, key, path, None) for key in keys), layout=layout)


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


# each class's state arrays, least step and whether its steps but the last are
# equal: what march sizes its record of stamps by
_RECORDS = {"parabolic": (1, lambda scn, grid, cfg: cfg.dt, True),
            "transport": (1, transport.least_step, False),
            "wave": (2, wave.least_step, True)}


def _admit_record(pde, scenario, grid, solver):
    """Refuse a run whose record of stamps (:func:`~isscert.solvers.common.
    record_rows`, from the least step march is given) exceeds the host's
    physical memory: at solver.output_stride where the run's steps would fit
    in it as one 8-byte word each, else at the key that sets the least step,
    solver.dt or solver.cfl_sigma.  Where the host does not report its
    memory, march's RecordSizeError stays the only refusal."""
    names, least_step, equal = _RECORDS[pde]
    try:
        memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return
    dt_min, row = least_step(scenario, grid, solver), 8 * (1 + names * grid.npoints)
    steps = solver.t_end / dt_min
    rows = record_rows(solver, dt_min, equal) if steps < math.inf else math.inf
    if rows * row <= memory:
        return
    key = ("output_stride" if 8 * steps <= memory
           else "dt" if dt_min == solver.dt else "cfl_sigma")
    raise ConfigError(f"solver.{key}", f"the record of the steps of dt {dt_min:.4g} up to "
                      f"t = {solver.t_end:g}, {rows:.4g} stamps of {row} bytes, exceeds the "
                      f"host's {memory:.4g} bytes of physical memory")


def _refusal(exc, path, keys):
    """A ConfigError at path.<key> when exc names one of keys, else at path."""
    key = getattr(exc, "key", None)
    return ConfigError(f"{path}.{key}" if key in keys else path, str(exc))


def _build_energy(doc, path, pde, scenario):
    if doc is None:
        return None
    doc = _expect_mapping(doc, path)
    kind = ENERGIES[pde]
    _reject_unknown(doc, kind.keys, path)
    energy = {key: _number(doc, key, path) for key in kind.keys
              if key in kind.required or doc.get(key) is not None}
    try:  # the builder and decay rate at zero level, before any run
        kind.rate(kind.build(scenario, None, **energy), scenario)
    except ValueError as exc:
        raise _refusal(exc, path, kind.keys) from exc
    return energy


def _build_checks(doc, path, pde, scenario, grid, t_end):
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
        keys = ("kind", "q", "tol") + bound.keys
        _reject_unknown(entry, keys, epath)
        q = _get(entry, "q", epath)
        if q == "inf" or q == math.inf:
            q = math.inf
        elif isinstance(q, (int, float)) and not isinstance(q, bool):
            q = _number(entry, "q", epath)
        else:
            raise ConfigError(f"{epath}.q", f"expected a number or 'inf', got {q!r}")
        tol = _number(entry, "tol", epath, required=False, default=0.0)
        params = {key: entry[key] if key in bound.verbatim else _number(entry, key, epath)
                  for key in bound.keys if key in entry}
        try:
            admit_check(kind, pde, scenario, grid, t_end, q, params, tol)
        except ValueError as exc:
            raise _refusal(exc, epath, keys) from exc
        out.append({"kind": kind, "q": q, "tol": tol, "params": params})
    return out


@dataclass
class RunPlan:
    """Everything a run needs, built from one config document."""

    name: str
    pde: str
    scenario: object
    grid: object
    solver: SolverConfig
    energy: dict | None
    checks: list = dc_field(default_factory=list)
    doc: dict = dc_field(default_factory=dict)


def bundled_names() -> list:
    """Sorted names of the bundled scenario configurations."""
    return sorted(p.name.removesuffix(".yaml") for p in _BUNDLED.iterdir()
                  if p.name.endswith(".yaml"))


def load_config(source) -> dict:
    """Parse a YAML config from a path, or a bundled scenario name."""
    bundled = bundled_names()
    if isinstance(source, str) and source in bundled:
        text = _BUNDLED.joinpath(f"{source}.yaml").read_text()
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
        doc = yaml.load(text, Loader=_CSafeLoader)
    except yaml.YAMLError:
        # libyaml refuses some YAML that PyYAML reads, and words its errors
        # otherwise: PyYAML decides, with its document or its message
        try:
            doc = yaml.safe_load(text)
        except yaml.YAMLError as exc:
            # one line: the problem and its place, not the parser's context
            mark = getattr(exc, "problem_mark", None)
            where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
            problem = getattr(exc, "problem", None) or " ".join(str(exc).split())
            raise ConfigError(str(source), f"invalid YAML: {problem}{where}") from exc
    return _expect_mapping(doc, "<config>")


# the admit steps' own finiteness checks decide every refusal; numpy need not warn
@np.errstate(all="ignore")
def build_plan(doc: dict) -> RunPlan:
    """Validate a config document and construct the run objects."""
    doc = _expect_mapping(doc, "<config>")
    _reject_unknown(doc, ("name", "description", "pde", "scenario", "grid",
                          "solver", "energy", "checks"), "<config>")
    name = _get(doc, "name", "<config>", required=False, default="run")
    # the run writes under <out>/<name>, so name must be one directory
    if not isinstance(name, str) or name in ("", ".", "..") or {os.sep, os.altsep} & set(name):
        raise ConfigError("<config>.name", f"expected a directory name, got {name!r}")
    # free text, which dump_config leaves to PyYAML, holds no shared container
    description = doc.get("description", "")
    if not isinstance(description, str):
        raise ConfigError("<config>.description", f"expected a string, got {description!r}")
    pde = _get(doc, "pde", "<config>")
    if not isinstance(pde, str) or pde not in _SCENARIOS:
        raise ConfigError("<config>.pde", f"unknown pde class {pde!r}")
    make, keys = _SCENARIOS[pde]
    sdoc = _expect_mapping(_get(doc, "scenario", "<config>"), "scenario")
    _reject_unknown(sdoc, keys, "scenario")
    scenario = make(**dict(zip(keys.values(), _read(sdoc, "scenario", keys, None, 1))),
                    label=name)
    try:
        scenario.validate()
    except ValueError as exc:
        raise ConfigError("scenario", str(exc)) from exc
    grid = _build_grid(_get(doc, "grid", "<config>"), "grid", pde, scenario)
    solver = _build_solver(_get(doc, "solver", "<config>"), "solver", pde)
    _admit_record(pde, scenario, grid, solver)
    energy = _build_energy(doc.get("energy"), "energy", pde, scenario)
    checks = _build_checks(doc.get("checks"), "checks", pde, scenario, grid, solver.t_end)
    return RunPlan(name=name, pde=pde, scenario=scenario, grid=grid, solver=solver,
                   energy=energy, checks=checks, doc=doc)


def load_plan(source) -> RunPlan:
    return build_plan(load_config(source))


# ---------------------------------------------------------------------------
# the report's config echo

# a word PyYAML writes plain: YAML 1.1 reads it as a string, save the words it
# reads as a bool or null in the cases PyYAML resolves (yes, Yes, YES, ...)
_WORD = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_RESERVED = frozenset(("yes", "no", "on", "off", "true", "false", "null"))


def _word(text):
    """text, a schema word PyYAML writes plain; a ValueError for any other."""
    if not (isinstance(text, str) and _WORD.fullmatch(text)) or text.lower() in _RESERVED:
        raise ValueError(f"{text!r} is not a plain schema word")
    return text


def _scalar(value):
    """PyYAML's text of a scalar value build_plan admits below the top level."""
    if value is None:
        return "null"
    if type(value) is int:
        return str(value)
    if value == math.inf:  # q
        return ".inf"
    if type(value) is float and math.isfinite(value):
        text = repr(value).lower()
        # YAML 1.1 reads 1e+16 as a string; PyYAML writes 1.0e+16
        return text.replace("e", ".0e", 1) if "." not in text and "e" in text else text
    return _word(value)


def _anchors(doc):
    """PyYAML's anchor of each container doc holds twice or more, by id: id001,
    id002, ... in the order a depth-first walk over sorted keys meets each
    container's second reference."""
    seen, anchors = set(), {}

    def walk(node):
        if not isinstance(node, (dict, list)):
            return
        if id(node) in seen:
            anchors.setdefault(id(node), f"id{len(anchors) + 1:03d}")
            return
        seen.add(id(node))
        for child in ([node[key] for key in sorted(node)] if isinstance(node, dict) else node):
            walk(child)

    walk(doc)
    return anchors


def _node(value, indent, anchors, written):
    """A value's text after its key's ": " or its item's "- ", and the lines
    of its block body, a mapping's at indent and a list's items at indent."""
    if not isinstance(value, (dict, list)):
        return _scalar(value), []
    head = ""
    if id(value) in anchors:
        if id(value) in written:
            return f"*{anchors[id(value)]}", []
        written.add(id(value))
        head = f"&{anchors[id(value)]}"
    if not value:  # in flow style: [] or {}
        return f"{head} {value}".lstrip(), []
    lines = []
    if isinstance(value, dict):
        for key in sorted(value):
            _entry(key, value[key], indent, anchors, written, lines)
        return head, lines
    for item in value:
        # a list's items sit at its key's indent, their own bodies two further
        item_head, body = _node(item, indent + 2, anchors, written)
        if item_head or not body:
            lines += [f"{' ' * indent}- {item_head}", *body]
        else:
            lines += [f"{' ' * indent}- {body[0][indent + 2:]}", *body[1:]]
    return head, lines


def _entry(key, value, indent, anchors, written, lines):
    """Append the lines of one mapping entry at indent to lines."""
    head, body = _node(value, indent + 2 if isinstance(value, dict) else indent,
                       anchors, written)
    lines += [f"{' ' * indent}{_word(key)}:{' ' + head if head else ''}", *body]


def dump_config(doc) -> str:
    """The text ``yaml.safe_dump(doc, sort_keys=True, default_flow_style=False)``
    gives for a document :func:`build_plan` admitted, the report's config echo.

    Below the top level such a document holds mappings with keys from fixed
    tables, lists, finite numbers, ``.inf``, nulls and words of fixed
    vocabularies, whose text does not depend on their context; this writes
    those itself, with PyYAML's anchors on shared containers.  A string that
    PyYAML would quote raises ValueError.  The free text, name and
    description, goes through PyYAML's pure emitter, one entry at a time,
    for its quoting and line folding (libyaml's folds long quoted strings
    elsewhere): a top-level entry's text does not depend on its siblings'.
    """
    anchors, written, lines = _anchors(doc), set(), []
    for key in sorted(doc):
        if key in ("name", "description"):  # free text
            lines.append(yaml.safe_dump({key: doc[key]}, default_flow_style=False)[:-1])
        else:
            _entry(key, doc[key], 0, anchors, written, lines)
    return "\n".join(lines) + "\n"
