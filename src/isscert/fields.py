"""The grid on the unit cube [0, 1]^N, the axis table that names its edges
and keys, Lq norms, and the trajectory record produced by the solvers.

Node-centered layouts carry n+1 points per axis including both endpoints
and integrate with the composite trapezoid, axis by axis; the cell-centered
layout carries the interval's n cell midpoints and integrates with the
midpoint rule.  Both quadratures are second order, which is what the
certification tolerances assume.
"""

from __future__ import annotations

import errno
import math
import os
import signal
from itertools import product, repeat
from pathlib import Path

import numpy as np
import yaml

__all__ = [
    "AXES",
    "Grid",
    "Trajectory",
    "lq_norm",
    "trapezoid_1d",
]

_MIN_CELLS = 8
_BLOCK = 64  # stamps per call of Trajectory.blockwise

# Trajectory.write_csv forks a second writer from this many CSV rows on.  The
# child's half must save at least twice the fork.  On a 2-CPU x86-64 host with
# numpy and scipy loaded (Python 3.11, about 60 MB resident) a no-op fork plus
# waitpid took 3.0-6.6 ms (medians 3.8 and 4.6 in two runs of 30).  A row
# formats one value on any number of axes, its point's coordinate cells being
# formatted once per write: it cost 0.81-0.95 us to format and write on 1-D
# transport data, and 0.66-1.30 us (medians 0.76-1.30 in six runs of 30
# writes) on a 65x65 parabolic run.  rows/2 * row >= 2 * fork then holds from
# 11 700-24 200 rows at the medians.
_FORK_ROWS = 20_000


# One row per axis of the unit cube [0, 1]^N, in axis order: its (low, high)
# boundary edge names and its letter, which names the axis's grid key
# n<letter> and sinprod mode key mode_<letter>.  The interval is the one-axis
# case, with the grid key n; its profiles have no mode keys.
AXES = (("left", "right", "x"), ("bottom", "top", "y"), ("front", "back", "z"))


def edge_names(dim) -> tuple:
    """The boundary edge names of a domain with dim axes, (low, high) per
    axis; a dim the table has no rows for is refused."""
    if dim not in range(1, len(AXES) + 1):
        raise ValueError(f"dim must be 1 to {len(AXES)}, got {dim}")
    return tuple(edge for lo, hi, _ in AXES[:dim] for edge in (lo, hi))


def grid_keys(dim) -> tuple:
    """The grid keys of a domain with dim axes: n on the interval, else n<letter> per axis."""
    return ("n",) if dim == 1 else tuple("n" + x for *_, x in AXES[:dim])


class Grid:
    """Uniform grid on the unit cube [0, 1]^N with cells[k] cells along axis k.

    Layout "node" carries the cells[k] + 1 nodes of each axis, both ends
    included, as a tensor grid; layout "cell", on the interval only,
    carries the n cell midpoints.  shape is the shape of one state array,
    steps the step of each axis, and each cell count also reads as the
    attribute of its grid key (:func:`grid_keys`): grid.n on the interval,
    grid.nx, grid.ny, ... on more axes.
    """

    def __init__(self, *cells, layout="node"):
        edge_names(len(cells))
        if min(cells) < _MIN_CELLS:
            raise ValueError(f"need at least {_MIN_CELLS} cells, got {min(cells)}")
        if layout not in ("node", "cell") or (layout == "cell" and len(cells) > 1):
            raise ValueError(f"unknown layout {layout!r} for {len(cells)} axes")
        self.cells, self.layout, self.dim = cells, layout, len(cells)
        self.steps = tuple(1.0 / n for n in cells)
        self.shape = tuple(n + (layout == "node") for n in cells)
        self.npoints = math.prod(self.shape)
        self.__dict__.update(zip(grid_keys(self.dim), cells))

    @property
    def h(self) -> float:
        """The interval's step."""
        return 1.0 / self.n

    def coords(self) -> list:
        """Each axis's coordinates: its nodes, or the interval's cell midpoints."""
        if self.layout == "cell":
            return [(np.arange(self.n) + 0.5) * self.h]
        return [np.linspace(0.0, 1.0, n + 1) for n in self.cells]

    def points(self):
        """The interval's points, or the coordinate meshes (X, Y, ...) indexed [ix, iy, ...]."""
        coords = self.coords()
        return coords[0] if self.dim == 1 else np.meshgrid(*coords, indexing="ij")


def scalar_or_array(out):
    """A float for a 0-d result, else the array: one value per stacked state."""
    return float(out) if np.ndim(out) == 0 else out


def trapezoid_1d(values, h):
    """Composite trapezoid along the last axis, bitwise equal row by row."""
    values = np.asarray(values, dtype=float)
    return scalar_or_array(h * (values.sum(axis=-1) - 0.5 * (values[..., 0] + values[..., -1])))


def integrate(values, grid):
    """The grid's native second-order quadrature, per state of a stack.

    Cells take the midpoint rule and the interval's nodes
    :func:`trapezoid_1d`.  On more axes each state is contracted with each
    axis's trapezoid weights in turn, first axis first, and scaled by the
    product of the steps, so a state gives the same bits alone or stacked.
    """
    if grid.layout == "cell":
        return scalar_or_array(grid.h * np.sum(values, axis=-1))
    if grid.dim == 1:
        return trapezoid_1d(values, grid.h)
    values = np.asarray(values, dtype=float)
    weights = [np.r_[0.5, np.ones(m - 2), 0.5] for m in grid.shape]
    scale, out = math.prod(grid.steps), []
    for v in values.reshape(-1, *grid.shape):
        for w in weights[:-1]:
            v = (w @ v.reshape(w.size, -1)).reshape(v.shape[1:])
        out.append(scale * (weights[-1] @ v))
    return scalar_or_array(np.reshape(out, values.shape[:-grid.dim]))


def lq_norm(values, q, grid):
    """Lq norm over the grid's domain for q in [2, inf].

    values is one state array or a stack of them along a leading axis; a
    stack gives one norm per state, bitwise equal to the single-state
    call.  Finite q uses the grid's native second-order quadrature of
    |w|**q; q = inf is the max norm.
    """
    values = np.asarray(values, dtype=float)
    shape = grid.shape
    if values.shape[-len(shape):] != shape:
        raise ValueError(f"values shape {values.shape} does not match grid")
    if q == math.inf or q == "inf":
        return scalar_or_array(np.max(np.abs(values), axis=tuple(range(-len(shape), 0))))
    q = float(q)
    if not q >= 2.0:
        raise ValueError(f"q must lie in [2, inf], got {q}")
    integral = integrate(np.abs(values) ** q, grid)
    if np.ndim(integral) == 0:
        return float(integral) ** (1.0 / q)
    # Python's float power per state: numpy's array power can differ by an ulp
    return np.asarray([x ** (1.0 / q) for x in integral.tolist()])


def float_cells(values) -> list:
    """repr of every value as a Python float, in C order."""
    return list(map(repr, np.asarray(values, dtype=float).ravel().tolist()))


def csv_rows(*columns) -> str:
    """Comma-joined lines from equally long columns of formatted cells."""
    text = "\n".join(map(",".join, zip(*columns)))
    return text + "\n" if text else ""


def _two_writers(rows) -> bool:
    """Whether a CSV of rows rows is written by two processes."""
    return (rows >= _FORK_ROWS and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2)


def _part(path) -> Path:
    return path.with_name(path.name + ".part")


def _append_part(path):
    """Append <path>.part to path in the kernel, with no user-space buffer
    (sendfile refuses an O_APPEND target, so seek to the end instead)."""
    with open(_part(path), "rb") as src, open(path, "r+b") as dst:
        dst.seek(0, os.SEEK_END)
        while os.sendfile(dst.fileno(), src.fileno(), None, 1 << 30):
            pass


def write_table(path, header, columns, trailer) -> Path:
    """Write the header line, one row per entry of the float columns and the
    trailer text to path, making its directory if missing; return path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(f"{header}\n")
        fh.write(csv_rows(*map(float_cells, columns)))
        fh.write(trailer)
    return path


class Trajectory:
    """Append-only record of a solve: time stamps plus named state arrays.

    Parabolic and transport runs carry one array per stamp under the name
    "u"; wave runs carry the characteristic pair under "plus" and
    "minus".  Metadata (scheme, step sizes, grid size) lives in ``meta``.

    Solver counters, such as the largest state magnitudes a run reached,
    live in ``counters``, apart from ``meta``, so the sidecar does not
    depend on them.

    Storage: ``times`` plus one C-contiguous (capacity, *grid.shape)
    float array per state name; its first ``len(self)`` rows are the stamps.
    ``append`` copies into the next row, doubling the capacity when full;
    a solver that knows its stamp count sizes the record once with
    ``reserve``.
    """

    def __init__(self, pde_class: str, grid, names=("u",), meta=None):
        if pde_class not in ("parabolic", "transport", "wave"):
            raise ValueError(f"unknown pde class {pde_class!r}")
        self.pde_class = pde_class
        self.grid = grid
        self.names = tuple(names)
        self.meta = dict(meta or {})
        self.counters = {}
        self._n = 0
        self._times = np.empty(0)
        self._data = {k: np.empty((0, *grid.shape)) for k in self.names}

    def reserve(self, rows: int):
        """Make the capacity at least rows stamps, exactly rows if it grows."""
        if rows <= self._times.size:
            return
        n = self._n
        times, self._times = self._times, np.empty(rows)
        self._times[:n] = times[:n]
        for k, old in self._data.items():
            self._data[k] = np.empty((rows, *old.shape[1:]))
            self._data[k][:n] = old[:n]

    def append(self, t: float, **arrays):
        if set(arrays) != set(self.names):
            raise ValueError(f"expected arrays {self.names}, got {tuple(arrays)}")
        n = self._n
        if n and not t > self._times[n - 1]:
            raise ValueError("time stamps must increase")
        if n == self._times.size:
            self.reserve(max(16, 2 * n))
        for k, v in arrays.items():
            if np.shape(v) != self._data[k].shape[1:] or not np.isfinite(v).all():
                raise ValueError(f"state {k!r} must be finite of shape {self._data[k].shape[1:]}")
            self._data[k][n] = v
        self._times[n] = float(t)
        self._n = n + 1

    def __len__(self):
        return self._n

    @property
    def times(self) -> np.ndarray:
        view = self._times[:self._n]
        view.flags.writeable = False
        return view

    def states(self, name: str = None) -> np.ndarray:
        """Every recorded stamp of one state, shape (stamps, *points)."""
        return self._data[name or self.names[0]][:self._n]

    def blockwise(self, fn):
        """fn(times, {name: states}) on runs of at most _BLOCK stamps (one empty run if
        none), concatenated (per key for dicts): blocks bound the temporaries."""
        parts = [fn(self.times[lo:lo + _BLOCK], {k: self.states(k)[lo:lo + _BLOCK] for k in self.names})
                 for lo in range(0, max(self._n, 1), _BLOCK)]
        if isinstance(parts[0], dict):
            return {k: np.concatenate([p[k] for p in parts]) for k in parts[0]}
        return np.concatenate(parts)

    def state(self, i: int, name: str = None) -> np.ndarray:
        return self.states(name)[i]

    def snapshot(self, i: int) -> dict:
        """All state arrays at stamp i, keyed by name."""
        return {k: self.states(k)[i] for k in self.names}

    def write_csv(self, directory):
        """trajectory[_<name>].csv, one long-format CSV per state name, plus
        the metadata sidecar trajectory_meta.yaml.

        Columns are (t, y, value) on the interval and (t, y1, ..., yN,
        value) on N axes, each number the repr of a Python float.  The
        coordinate cells are each axis's reprs, joined per point in C order
        (last axis fastest).  Returns the list of paths written.

        The rows, numbered (name, stamp) in file order, go to disk in one
        of two ways with the same bytes.  With at least two usable CPUs and
        at least _FORK_ROWS rows, one forked child writes the second half
        of the stamps while this process writes the first: for a wave run
        the child takes trajectory_minus.csv; where the half falls inside
        one file, the child writes its stamps to <file>.part, which is
        appended to the file and removed.  Otherwise one process writes
        every row.  Both ways call the same row writer.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        dim = self.grid.dim
        coords = list(map(",".join, product(*map(float_cells, self.grid.coords()))))
        names = ["y"] if dim == 1 else [f"y{k}" for k in range(1, dim + 1)]
        header = f"t,{','.join(names)},value\n"
        suffixes = [""] if len(self.names) == 1 else [f"_{name}" for name in self.names]
        paths = [directory / f"trajectory{s}.csv" for s in suffixes]
        stamps = len(self.names) * self._n  # (name, stamp) pairs in file order
        if _two_writers(stamps * self.grid.npoints):
            self._write_halves(paths, header, coords, stamps // 2)
        else:
            self._write_stamps(paths, header, coords, 0, stamps)
        meta_path = directory / "trajectory_meta.yaml"
        # solvers may stash numpy scalars in meta; yaml wants plain types
        clean = {k: (v.item() if isinstance(v, np.generic) else v)
                 for k, v in self.meta.items()}
        # the pure emitter: libyaml's folds long quoted strings elsewhere
        with open(meta_path, "w") as fh:
            yaml.safe_dump(clean, fh, sort_keys=True, default_flow_style=False)
        return [*paths, meta_path]

    def _write_stamps(self, paths, header, coords, lo, hi):
        """Rows of the (name, stamp) pairs numbered lo..hi-1 in file order: a
        file's rows from stamp 0 on go to the file after its header, rows
        from a later stamp to <file>.part.  A record with no stamps gets the
        headers alone.  The only CSV row formatter."""
        n = self._n
        for i, (name, path) in enumerate(zip(self.names, paths)):
            a, b = max(lo - i * n, 0), min(hi - i * n, n)
            if a >= b and n:
                continue
            with open(path if a == 0 else _part(path), "w") as fh:
                if a == 0:
                    fh.write(header)
                for t, row in zip(float_cells(self.times[a:b]), self.states(name)[a:b]):
                    fh.write(csv_rows(repeat(t), coords, float_cells(row)))

    def _write_halves(self, paths, header, coords, half):
        """(name, stamp) pairs 0..half-1 here, the rest in a forked child.
        The child's failure names the file it starts in; if it starts inside
        that file, its .part is appended once the child succeeds and removed
        in every case."""
        first = paths[half // self._n]
        inner = half % self._n != 0
        pid = os.fork()
        if pid == 0:
            code = 255
            try:
                self._write_stamps(paths, header, coords, half, len(paths) * self._n)
                code = 0
            except OSError as exc:
                code = exc.errno if 0 < (exc.errno or 0) < 255 else 255
            finally:
                os._exit(code)
        try:
            try:
                self._write_stamps(paths, header, coords, 0, half)
            except BaseException:
                os.kill(pid, signal.SIGKILL)
                raise
            finally:
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            if 0 < code < 255:
                raise OSError(code, os.strerror(code), str(first))
            if code:
                raise OSError(errno.EIO, f"the second CSV writer ended with status {code}", str(first))
            if inner:
                _append_part(first)
        finally:
            if inner:
                _part(first).unlink(missing_ok=True)
