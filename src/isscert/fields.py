"""The grid on the unit cube [0, 1]^N, the axis table that names its edges
and keys, Lq norms, and the trajectory record produced by the solvers.

Node-centered layouts carry n+1 points per axis including both endpoints
and integrate with the composite trapezoid, axis by axis; the cell-centered
layout carries the interval's n cell midpoints and integrates with the
midpoint rule.  Both quadratures are second order, which is what the
certification tolerances assume.
"""

from __future__ import annotations

import contextlib
import contextvars
import errno
import math
import mmap
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
    "csv_stream",
    "lq_norm",
    "trapezoid_1d",
]

_MIN_CELLS = 8
_BLOCK = 64  # stamps per call of Trajectory.blockwise

# A record reserved at this many CSV rows in a csv_stream forks its _CsvWriter.
# The rows the child formats must save at least twice what the fork costs
# this process.  On a 2-CPU x86-64 host with numpy, isscert.cli and the
# parabolic step's LAPACK extension loaded (Python 3.11, 36 MB resident,
# after a parabolic_demo run) a no-op fork plus waitpid took 2.2-4.2 ms
# (medians 2.4-2.6 in 30, three processes; 60 MB with all of scipy.linalg:
# 2.2-8.0 ms, medians 2.3-3.7).  After the fork an append pays copy-on-write
# faults and sends an 8-byte stamp count, 2.6 us a stamp in all (Xeon, 1-D
# n = 200, medians of 15 runs of 2 000 appends: 6.8-7.0 us against 4.2-4.4,
# the count 1.2).  A row formats one value on any number of axes, its
# point's coordinate cells being formatted once: 1.20-1.26 us a row on 1-D
# n = 200 and 256 and on 64x64 states.  The child saves this process between
# half the rows (a writer that formatted nothing during the solve) and all
# of them, so rows/2 * row >= 2 * (fork + 2.6 us * stamps) holds from about
# 8 400 rows (42 stamps) on 1-D n = 200, and at 20 000 from 15 points.  The
# 2-D benchmark runs have 3 300-12 700 rows, and forking every run cut their
# throughput by 11-23 % in three 6 s benchmark pairs (measured with all of
# scipy.linalg loaded), so the bar stays above them.
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

    A state whose s**q, s = max|w|, leaves (2**-900, 2**900) takes the
    norm of w/s times s, so at no q does a finite state's norm read inf,
    or 0 unless it lies below the floats (subnormal values, say).  Every
    other state is left unscaled and keeps its bits; its terms that
    underflow are each below 2**-1074 against an integral of at least
    2**-900 times the least quadrature weight.
    """
    values = np.asarray(values, dtype=float)
    shape = grid.shape
    if values.shape[-len(shape):] != shape:
        raise ValueError(f"values shape {values.shape} does not match grid")
    mags = np.abs(values)
    peak = np.max(mags, axis=tuple(range(-len(shape), 0)))
    if q == math.inf or q == "inf":
        return scalar_or_array(peak)
    q = float(q)
    if not q >= 2.0:
        raise ValueError(f"q must lie in [2, inf], got {q}")
    # s**q leaves (2**-900, 2**900) where s leaves (lo, hi)
    lo, hi, scale = 2.0 ** (-900.0 / q), 2.0 ** (900.0 / q), 1.0
    if peak.size and not (lo < peak.min() and peak.max() < hi):
        scale = np.where(((peak <= lo) | (peak >= hi)) & (peak > 0.0) & (peak < math.inf),
                         peak, 1.0)
        mags = mags / scale.reshape(scale.shape + (1,) * len(shape))
    integral = integrate(mags ** q, grid)
    if np.ndim(integral) == 0:
        return float(scale) * float(integral) ** (1.0 / q)
    # Python's float power per state: numpy's array power can differ by an ulp
    return scale * np.asarray([x ** (1.0 / q) for x in integral.tolist()])


def float_cells(values) -> list:
    """repr of every value as a Python float, in C order."""
    return list(map(repr, np.asarray(values, dtype=float).ravel().tolist()))


def csv_rows(*columns) -> str:
    """Comma-joined lines from equally long columns of formatted cells."""
    text = "\n".join(map(",".join, zip(*columns)))
    return text + "\n" if text else ""


def _stamp_rows(t, coords, state) -> str:
    """The CSV rows of one state array at the float time t: the only row
    formatter, with coords the joined coordinate cells of each point."""
    return csv_rows(repeat(repr(t)), coords, float_cells(state))


def _coord_cells(grid) -> list:
    """Each point's coordinate cells, joined, in C order (last axis fastest)."""
    return list(map(",".join, product(*map(float_cells, grid.coords()))))


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

    Storage: one flat buffer, viewed as ``times`` and one C-contiguous
    (capacity, *grid.shape) array per name; their first ``len(self)`` rows
    are the stamps.  ``append`` copies into the next row, doubling the
    capacity when full; every solver sizes the record once, before its first
    stamp, with ``reserve``.  Only inside :func:`csv_stream` does a record
    get a second CSV writer process: one whose reserved stamps make
    _FORK_ROWS CSV rows is shared with it at ``reserve``, never grows again,
    and is sent each stamp count by ``append`` (see :meth:`write_csv`).
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
        self._mapping = None  # the shared mmap the record lies in, once streamed
        self._writer = None  # the second CSV writer, once streamed to

    def reserve(self, rows: int):
        """Make the capacity at least rows stamps, exactly rows if it grows;
        the stamps a solver reserves bound the ones it will append.  The one
        place a second CSV writer starts (see :func:`csv_stream`): the record,
        with any stamps already recorded, moves into a mapping shared with
        the writer, and is sent their count."""
        writers = _STREAM.get()
        stream = (writers is not None and self._writer is None
                  and rows * len(self.names) * self.grid.npoints >= _FORK_ROWS
                  and hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) >= 2)
        self._grow(max(rows, self._n), shared=stream)
        if stream:
            self._writer = _CsvWriter(self)
            writers.append(self._writer)
            self._writer.feed()

    def _grow(self, rows, shared=False):
        """Lay the record out in one new buffer of rows stamps, keeping those
        recorded, past the capacity or to share it with a writer forked after
        this; a streamed record never moves, as its writer reads it in place."""
        if rows <= self._times.size and not shared:
            return
        if self._writer is not None:
            raise ValueError(f"a streamed record holds at most its {self._times.size} "
                             "reserved stamps")
        size = rows * (1 + len(self.names) * self.grid.npoints)
        try:
            self._mapping = mmap.mmap(-1, 8 * size) if shared else None
        except OSError as exc:  # ENOMEM, the MemoryError of np.empty
            raise MemoryError(str(exc)) from exc
        flat = np.empty(size) if self._mapping is None else np.frombuffer(self._mapping)
        n, times, self._times = self._n, self._times, flat[:rows]
        self._times[:n] = times[:n]
        blocks = flat[rows:].reshape(len(self.names), rows, *self.grid.shape)
        for k, block in zip(self.names, blocks):
            block[:n] = self._data[k][:n]
            self._data[k] = block

    def append(self, t: float, **arrays):
        if set(arrays) != set(self.names):
            raise ValueError(f"expected arrays {self.names}, got {tuple(arrays)}")
        n = self._n
        if n and not t > self._times[n - 1]:
            raise ValueError("time stamps must increase")
        if n == self._times.size:
            self._grow(max(16, 2 * n))
        for k, v in arrays.items():
            if np.shape(v) != self._data[k].shape[1:] or not np.isfinite(v).all():
                raise ValueError(f"state {k!r} must be finite of shape {self._data[k].shape[1:]}")
            self._data[k][n] = v
        self._times[n] = float(t)
        self._n = n + 1
        if self._writer is not None:
            self._writer.feed()

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

        This process writes every row, unless the record was reserved
        inside :func:`csv_stream` and so already has a second writer
        process (:class:`_CsvWriter`), which has formatted stamps during
        the solve.  Then that writer writes the stamps before a split and
        this process the rest, to <file>.part, and the wait for the writer
        is left to the function the block yields: when this returns, each
        file holds its header and possibly part of its rows.  Both ways
        format rows with the same function and give the same bytes.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        paths = self._csv_paths(directory)
        axes = ["y"] if self.grid.dim == 1 else [f"y{k}" for k in range(1, self.grid.dim + 1)]
        header = f"t,{','.join(axes)},value\n"
        writer, self._writer = self._writer, None
        if writer is not None:
            writer.commit(paths, header)
        else:
            self._write_stamps(paths, header, 0)
        meta_path = directory / "trajectory_meta.yaml"
        # solvers may stash numpy scalars in meta; yaml wants plain types
        clean = {k: (v.item() if isinstance(v, np.generic) else v)
                 for k, v in self.meta.items()}
        # the pure emitter: libyaml's folds long quoted strings elsewhere
        with open(meta_path, "w") as fh:
            yaml.safe_dump(clean, fh, sort_keys=True, default_flow_style=False)
        return [*paths, meta_path]

    def _csv_paths(self, directory) -> list:
        suffixes = [""] if len(self.names) == 1 else [f"_{name}" for name in self.names]
        return [Path(directory) / f"trajectory{s}.csv" for s in suffixes]

    def _write_stamps(self, paths, header, lo):
        """The rows of stamps lo on of every file: from stamp 0 to the file
        after its header, from a later stamp to <file>.part.  The
        one-process writer, and this process's share of two."""
        coords = _coord_cells(self.grid)
        for name, path in zip(self.names, paths):
            with open(path if lo == 0 else _part(path), "w") as fh:
                if lo == 0:
                    fh.write(header)
                for t, state in zip(self.times[lo:].tolist(), self.states(name)[lo:]):
                    fh.write(_stamp_rows(t, coords, state))


# The csv_stream block a record is recorded in: the list of the writers
# started in it, or None outside every block.
_STREAM = contextvars.ContextVar("isscert_csv_stream", default=None)


@contextlib.contextmanager
def csv_stream():
    """A block in which a record reserved at _FORK_ROWS CSV rows or more, on
    two CPUs, starts its second CSV writer (see :class:`Trajectory`), so
    the writer formats stamps alongside the solve: the only second CSV
    process, since outside every block :meth:`Trajectory.write_csv` writes in one.

    The block yields a function that waits for every writer started in it
    and appends each one's .part files, raising the OSError of a writer
    that failed; call it after :meth:`Trajectory.write_csv` and whatever
    else the outputs need.  Leaving the block, in every way, stops and
    reaps each writer not waited for and removes its .part files; a writer
    never committed by write_csv has written nothing.
    """
    writers = []
    token = _STREAM.set(writers)

    def wait():
        for writer in writers:
            writer.finish()

    try:
        yield wait
    finally:
        _STREAM.reset(token)
        for writer in writers:
            writer.abort()


# The shared counters of a _CsvWriter: the stamps its child has formatted,
# the split stamp (_NO_SPLIT until the commit) and the index of the file
# the child works on.
_DONE, _SPLIT, _FILE = range(3)
_NO_SPLIT = 1 << 62


def _count(n) -> bytes:
    """A stamp count as the pipe carries it: 8 bytes, below PIPE_BUF."""
    return n.to_bytes(8, "little", signed=True)


class _CsvWriter:
    """The second CSV writer of a record: a forked child process.

    The child reads each stamp in the record's shared mapping, once
    :meth:`feed` has sent, over a pipe whose write orders the stores before
    it, a stamp count that includes it.  It formats the stamps, in order,
    into memory, and counts them in an array shared with this process.
    :meth:`commit` splits the stamps still unformatted in half: this process
    creates each file with its header and writes the stamps from the split
    on to <file>.part, while the child appends the stamps before the split
    to each file.  :meth:`finish` waits for the child and appends the .part
    files.  The child writes nothing before the commit, and on end of file
    before it exits without writing.
    """

    def __init__(self, traj):
        self.traj, self.paths, self.split = traj, None, None
        self.shared = np.frombuffer(mmap.mmap(-1, 24), dtype=np.int64)
        self.shared[:] = (0, _NO_SPLIT, 0)
        rfd, self.fd = os.pipe()
        try:
            self.pid = os.fork()
        except BaseException:
            os.close(rfd)
            os.close(self.fd)
            raise
        if self.pid == 0:
            code = 255
            try:
                os.close(self.fd)
                code = self._serve(rfd)
            except OSError as exc:
                code = exc.errno if 0 < (exc.errno or 0) < 255 else 255
            finally:
                os._exit(code)
        os.close(rfd)
        os.set_blocking(self.fd, False)

    def feed(self, data=None):
        """Send the child data, the count of stamps recorded by default: until
        the commit makes the pipe blocking, a count a full pipe refuses is
        dropped, as a later one replaces it.  Once the child has ended, send
        nothing (:meth:`finish` reports how it ended)."""
        data = _count(len(self.traj)) if data is None else data
        try:
            while self.fd >= 0 and data:
                data = data[os.write(self.fd, data):]
        except BlockingIOError:
            pass
        except BrokenPipeError:
            self._close()

    def _close(self):
        if self.fd >= 0:
            os.close(self.fd)
            self.fd = -1

    def _formatted(self) -> int:
        """The stamps the child has formatted so far."""
        return int(self.shared[_DONE])

    def commit(self, paths, header):
        """Split the stamps the child has not formatted in half, create each
        of paths with its header, send the child the split count and the
        commit, and write the rest to <file>.part."""
        try:
            n = len(self.traj)
            done = self._formatted()
            self.split = done + (n - done + 1) // 2
            self.shared[_SPLIT] = self.split
            self.paths = paths
            for path in paths:
                with open(path, "w") as fh:
                    fh.write(header)
            if self.fd >= 0:
                os.set_blocking(self.fd, True)
            # the commit: the count -1 and the directory
            self.feed(_count(self.split) + _count(-1) + os.fsencode(paths[0].parent))
            self._close()
            if self.split < n:
                self.traj._write_stamps(paths, header, self.split)
        except BaseException:
            self.abort()
            raise

    def _serve(self, rfd) -> int:
        """The child's work, returning its exit code: format every stamp
        before the split as the counts make it available, then append them
        to the files in the directory the commit names.  End of file before
        the commit ends it with 0."""
        traj, shared = self.traj, self.shared
        coords, texts = _coord_cells(traj.grid), [[] for _ in traj.names]
        with open(rfd, "rb") as pipe:
            while True:
                head = pipe.read(8)
                if len(head) < 8:
                    return 0
                count = int.from_bytes(head, "little", signed=True)
                if count < 0:
                    break
                for i in range(len(texts[0]), min(count, int(shared[_SPLIT]))):
                    # a float's repr, which an np.float64's is not
                    t = traj._times[i].item()
                    for j, (text, name) in enumerate(zip(texts, traj.names)):
                        shared[_FILE] = j
                        text.append(_stamp_rows(t, coords, traj._data[name][i]))
                    shared[_DONE] = len(texts[0])
                    # drop the pages read from this process's peak; the record keeps them
                    traj._mapping.madvise(mmap.MADV_DONTNEED)
            directory = os.fsdecode(pipe.read())
        split = int(shared[_SPLIT])
        for j, (path, text) in enumerate(zip(traj._csv_paths(directory), texts)):
            shared[_FILE] = j
            with open(path, "a") as fh:
                fh.writelines(text[:split])
        return 0

    def finish(self):
        """Wait for the child and append each .part to its file.  A child
        that failed raises an OSError naming the file it worked on; the
        .part files are removed in every case.  An uncommitted writer is
        aborted."""
        if self.paths is None:
            return self.abort()
        try:
            code = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
            self.pid = None
            failed = str(self.paths[self.shared[_FILE]])
            if 0 < code < 255:
                raise OSError(code, os.strerror(code), failed)
            if code:
                raise OSError(errno.EIO, f"the second CSV writer ended with status {code}", failed)
            if self.split < len(self.traj):
                for path in self.paths:
                    _append_part(path)
        finally:
            self.abort()

    def abort(self):
        """Close the pipe, stop and reap the child if it is still there, and
        remove the .part files."""
        self._close()
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None
        for path in self.paths or ():
            _part(path).unlink(missing_ok=True)
        if self.traj._writer is self:
            self.traj._writer = None
