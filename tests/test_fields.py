"""Tests for grids, norms, and trajectory recording."""

import errno
import math
import os
import time

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from isscert import fields
from isscert.config import load_plan
from isscert.fields import (_FORK_ROWS, Grid, Trajectory, csv_rows, float_cells,
                            integrate, lq_norm, trapezoid_1d)
from isscert.solvers import solve_transport


def test_grid1d_node_layout():
    g = Grid(10, layout="node")
    assert g.h == pytest.approx(0.1, rel=1e-15)
    assert g.npoints == 11
    pts = g.points()
    assert pts[0] == 0.0 and pts[-1] == 1.0
    assert np.allclose(np.diff(pts), g.h)


def test_grid1d_cell_layout():
    g = Grid(8, layout="cell")
    assert g.npoints == 8
    pts = g.points()
    assert pts[0] == pytest.approx(g.h / 2.0)
    assert pts[-1] == pytest.approx(1.0 - g.h / 2.0)


def test_grid1d_validation():
    with pytest.raises(ValueError):
        Grid(4)
    with pytest.raises(ValueError):
        Grid(16, layout="staggered")


def test_grid2d_geometry():
    g = Grid(8, 12)
    assert g.steps[0] == pytest.approx(0.125)
    X, Y = g.points()
    assert X.shape == (9, 13)
    with pytest.raises(ValueError):
        Grid(8, 4)


def test_grid_axes_read_by_their_grid_keys():
    line, square, cube = Grid(10), Grid(8, 12), Grid(8, 9, 10)
    assert (line.n, line.shape, line.dim) == (10, (11,), 1)
    assert (square.nx, square.ny, square.shape) == (8, 12, (9, 13))
    assert (cube.nx, cube.ny, cube.nz, cube.shape, cube.npoints) == (8, 9, 10, (9, 10, 11), 990)
    assert cube.steps == (0.125, 1.0 / 9.0, 0.1)
    assert not hasattr(line, "nx") and not hasattr(square, "n") and not hasattr(square, "nz")
    X, Y, Z = cube.points()
    assert X.shape == (9, 10, 11) and Z[0, 0, -1] == 1.0 and Y[0, 9, 0] == 1.0
    for cells, layout in [((), "node"), ((8, 8, 8, 8), "node"), ((8, 8), "cell"), ((8, 4, 8), "node")]:
        with pytest.raises(ValueError):
            Grid(*cells, layout=layout)


# ---------------------------------------------------------------------------
# norms


def test_lq_norm_constant():
    g = Grid(16, layout="node")
    ones = np.ones(g.npoints)
    assert lq_norm(ones, 2.0, g) == pytest.approx(1.0, rel=1e-14)
    assert lq_norm(3.0 * ones, 4.0, g) == pytest.approx(3.0, rel=1e-14)


def test_lq_norm_inf_is_max():
    g = Grid(8, layout="node")
    vals = np.array([0.0, 1.0, -5.0, 2.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    assert lq_norm(vals, math.inf, g) == 5.0


def test_lq_norm_sine():
    # L2 of sin(pi y) on [0,1] is 1/sqrt(2); trapezoid is second order
    g = Grid(200, layout="node")
    vals = np.sin(np.pi * g.points())
    assert lq_norm(vals, 2.0, g) == pytest.approx(1.0 / math.sqrt(2.0),
                                                  abs=1e-4)


def test_lq_norm_cell_quadrature():
    g = Grid(64, layout="cell")
    vals = np.ones(g.npoints)
    # midpoint rule is exact on constants
    assert lq_norm(vals, 2.0, g) == pytest.approx(1.0, rel=1e-14)


def test_lq_norm_validation():
    g = Grid(8, layout="node")
    with pytest.raises(ValueError):
        lq_norm(np.ones(9), 1.5, g)
    with pytest.raises(ValueError):
        lq_norm(np.ones(7), 2.0, g)


def test_lq_norm_2d():
    g = Grid(8, 8)
    vals = np.full((9, 9), 1.5)
    assert lq_norm(vals, 2.0, g) == pytest.approx(1.5, rel=1e-14)


@pytest.mark.parametrize("c", [1e-300, 0.1, 3.2, 1e300])
@pytest.mark.parametrize("layout", ["node", "cell", "square"])
def test_lq_norm_of_a_constant_is_its_size_at_every_q(layout, c):
    # c**q leaves the floats from q = 2 (1e-300, 1e300) or q = 300 (0.1) or
    # 600 (3.2) on; 0.1 once read 0.0 at q = 400
    grid = GRIDS[layout]
    for sign in (1.0, -1.0):
        for q in (2.0, 3.0, 300.0, 400.0, 700.0, 1e3, 1e4, 1e5, 1e6):
            assert abs(lq_norm(np.full(grid.shape, sign * c), q, grid) - c) <= 4 * math.ulp(c)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.data())
def test_lq_norm_is_nondecreasing_in_q_up_to_the_max(data):
    # the power-mean inequality: the quadrature weights are positive and sum
    # to 1 on the unit cube; a relative 1e-12, or a few subnormal steps,
    # allow for the rounding of each norm
    grid = GRIDS[data.draw(st.sampled_from(["node", "cell", "square"]))]
    values = (data.draw(hnp.arrays(float, grid.shape, elements=st.floats(-1.0, 1.0)))
              * 10.0 ** data.draw(st.integers(-300, 300)))
    qs = sorted(data.draw(st.lists(st.floats(2.0, 1e6), min_size=3, max_size=3)))
    norms = [lq_norm(values, q, grid) for q in qs] + [lq_norm(values, math.inf, grid)]
    assert all(lo <= hi * (1 + 1e-12) + 2e-323 for lo, hi in zip(norms, norms[1:]))
    # a norm reads 0 only for a zero state or one whose norm is below the
    # floats, such as a state of subnormal values
    assert min(norms) > 0 or norms[-1] < 1e-300


# ---------------------------------------------------------------------------
# trajectories


def test_trajectory_append_and_state():
    g = Grid(8, layout="node")
    traj = Trajectory("parabolic", g)
    traj.append(0.0, u=np.zeros(9))
    traj.append(0.1, u=np.ones(9))
    assert len(traj) == 2
    assert traj.times[-1] == 0.1
    np.testing.assert_array_equal(traj.state(1), np.ones(9))
    np.testing.assert_array_equal(traj.state(-1, "u"), np.ones(9))


def test_trajectory_wave_names():
    g = Grid(8, layout="node")
    traj = Trajectory("wave", g, names=("plus", "minus"))
    traj.append(0.0, plus=np.ones(9), minus=np.zeros(9))
    np.testing.assert_array_equal(traj.state(0, "minus"), np.zeros(9))


def test_trajectory_rejects_unknown_class():
    with pytest.raises(ValueError):
        Trajectory("elliptic", Grid(8))


def test_trajectory_write_csv(tmp_path):
    g = Grid(8, layout="node")
    traj = Trajectory("parabolic", g, meta={"scheme": "test",
                                            "dt": np.float64(0.25)})
    traj.append(0.0, u=np.linspace(0.0, 1.0, 9))
    traj.append(0.5, u=np.linspace(1.0, 2.0, 9))
    paths = traj.write_csv(tmp_path)
    csvs = [p for p in paths if p.suffix == ".csv"]
    assert csvs
    lines = csvs[0].read_text().splitlines()
    assert lines[0] == "t,y,value"
    assert len(lines) == 1 + 2 * 9
    # values round-trip exactly through repr
    first = lines[1].split(",")
    assert float(first[0]) == 0.0 and float(first[2]) == 0.0
    # numpy scalar meta must not break the yaml dump
    meta_path = [p for p in paths if p.suffix == ".yaml"][0]
    meta = yaml.safe_load(meta_path.read_text())
    assert meta["dt"] == 0.25


def test_trajectory_grows_past_doubling_boundaries():
    g = Grid(8, layout="node")
    traj = Trajectory("wave", g, names=("plus", "minus"))
    src = np.empty(9)
    for i in range(150):
        src[:] = i
        traj.append(0.01 * i, plus=src, minus=-src)
        src[:] = -1.0  # the record holds a copy, not the caller's array
    assert len(traj) == 150
    expected = np.repeat(np.arange(150.0)[:, None], 9, axis=1)
    np.testing.assert_array_equal(traj.states("plus"), expected)
    np.testing.assert_array_equal(traj.states("minus"), -expected)
    np.testing.assert_array_equal(traj.times, 0.01 * np.arange(150))
    assert traj.states("plus").flags.c_contiguous
    np.testing.assert_array_equal(traj.snapshot(37)["minus"], np.full(9, -37.0))


def test_trajectory_reserve_sizes_the_record_once():
    g = Grid(8, layout="node")
    traj = Trajectory("wave", g, names=("plus", "minus"))
    traj.reserve(5)
    buffers = [traj._times, *traj._data.values()]
    for i in range(5):
        traj.append(0.1 * i, plus=np.full(9, i), minus=np.full(9, -i))
    # exactly the rows reserved, and no reallocation on the way
    assert [b.shape[0] for b in buffers] == [5, 5, 5]
    assert traj._times is buffers[0] and traj._data["plus"] is buffers[1]
    traj.reserve(3)  # never shrinks
    assert traj._times is buffers[0]
    # past the reserve the record doubles and keeps the stamps
    traj.append(0.5, plus=np.full(9, 5.0), minus=np.full(9, -5.0))
    assert traj._times.size == 16
    np.testing.assert_array_equal(traj.states("minus")[:, 0], -np.arange(6.0))
    np.testing.assert_array_equal(traj.times, 0.1 * np.arange(6))


def test_blockwise_concatenates_runs_of_stamps():
    g = Grid(8, layout="node")
    traj = Trajectory("wave", g, names=("plus", "minus"))
    for i in range(150):
        traj.append(0.5 * i, plus=np.full(9, i), minus=np.full(9, -i))
    seen = []

    def fn(times, states):
        seen.append(times.size)
        return {"t": times.copy(), "sum": states["plus"].sum(axis=1) + states["minus"][:, 0]}
    out = traj.blockwise(fn)
    assert sum(seen) == 150 and len(seen) > 2 and max(seen) < 150
    np.testing.assert_array_equal(out["t"], traj.times)
    np.testing.assert_array_equal(out["sum"], 8.0 * np.arange(150))
    np.testing.assert_array_equal(traj.blockwise(lambda t, s: s["plus"][:, 0]),
                                  np.arange(150.0))


def test_blockwise_on_empty_trajectory():
    traj = Trajectory("parabolic", Grid(8, layout="node"))
    out = traj.blockwise(lambda t, s: {"t": t.copy(), "n": lq_norm(s["u"], 2, traj.grid)})
    assert out["t"].shape == (0,) and out["n"].shape == (0,)


def test_trajectory_append_validation():
    g = Grid(8, layout="node")
    traj = Trajectory("parabolic", g)
    with pytest.raises(ValueError):
        traj.append(0.0, u=np.zeros(8))
    with pytest.raises(ValueError):
        traj.append(0.0, u=np.full(9, math.nan))
    for wrong in (0.0, np.zeros(1), np.zeros((1, 9))):  # broadcastable, still rejected
        with pytest.raises(ValueError):
            traj.append(0.0, u=wrong)
    assert len(traj) == 0
    traj.append(0.0, u=np.zeros(9))
    with pytest.raises(ValueError):
        traj.append(0.0, u=np.zeros(9))
    with pytest.raises(ValueError):
        traj.times[0] = 1.0


# ---------------------------------------------------------------------------
# stacked states give bitwise the per-state results

GRIDS = {
    "node": Grid(40, layout="node"),
    "cell": Grid(33, layout="cell"),
    "square": Grid(9, 12),
    "cube": Grid(8, 9, 10),
}


def _stack(grid, stamps=23, seed=0):
    shape = grid.shape
    return np.random.default_rng(seed).standard_normal((stamps, *shape)) * 3.0


@pytest.mark.parametrize("q", [2.0, 3.0, 4.0, math.inf])
@pytest.mark.parametrize("layout", sorted(GRIDS))
def test_lq_norm_stack_matches_per_state(layout, q):
    grid = GRIDS[layout]
    values = _stack(grid)
    stacked = lq_norm(values, q, grid)
    assert stacked.shape == (values.shape[0],)
    assert np.array_equal(stacked, [lq_norm(v, q, grid) for v in values])
    with pytest.raises(ValueError):
        lq_norm(values[..., 1:], q, grid)


def test_trapezoids_stack_match_per_state():
    rows = _stack(GRIDS["node"])
    assert np.array_equal(trapezoid_1d(rows, 0.025),
                          [trapezoid_1d(r, 0.025) for r in rows])
    for grid in (GRIDS["square"], GRIDS["cube"]):
        sheets = _stack(grid)
        assert np.array_equal(integrate(sheets, grid), [integrate(s, grid) for s in sheets])
        assert type(integrate(sheets[0], grid)) is float


def _tensor_trapezoid_2d(v, hx, hy):
    """The square's trapezoid as the tensor form hx*hy*(wx @ V @ wy)."""
    wx = np.ones(v.shape[0]); wx[0] = wx[-1] = 0.5
    wy = np.ones(v.shape[1]); wy[0] = wy[-1] = 0.5
    return float(hx * hy * (wx @ v @ wy))


@pytest.mark.parametrize("cells", [(8, 8), (9, 12), (20, 16), (33, 64)])
def test_square_quadrature_is_the_tensor_form_bitwise(cells):
    grid = Grid(*cells)
    hx, hy = grid.steps
    rng = np.random.default_rng(sum(cells))
    for _ in range(300):
        v = rng.standard_normal(grid.shape) * 10.0 ** rng.integers(-8, 9)
        assert integrate(v, grid) == _tensor_trapezoid_2d(v, hx, hy)
    stack = rng.uniform(0.0, 5.0, (40, *grid.shape)) ** 3
    assert np.array_equal(integrate(stack, grid),
                          [_tensor_trapezoid_2d(v, hx, hy) for v in stack])


# ---------------------------------------------------------------------------
# CSV output is byte-equal to a row-by-row writer

ODD_VALUES = [0.1 + 0.2, -0.0, 5e-324, 1e16, 1.0 / 3.0]


_REFERENCES = {}


def _reference_csv(traj, name):
    """Row-by-row formatting of one state name, the writer's definition: the
    coordinates of each point read off the grid.points() meshes.  Kept per
    grid and record bytes, since many cases write the same records."""
    grid = traj.grid
    key = (grid.cells, grid.layout, traj.times.tobytes(), traj.states(name).tobytes())
    if key not in _REFERENCES:
        _REFERENCES[key] = _row_by_row(traj, name)
    return _REFERENCES[key]


def _row_by_row(traj, name):
    grid = traj.grid
    meshes = [grid.points()] if grid.dim == 1 else grid.points()
    axes = ["y"] if grid.dim == 1 else [f"y{k}" for k in range(1, grid.dim + 1)]
    lines = [f"t,{','.join(axes)},value\n"]
    for i, t in enumerate(traj.times):
        vals = traj.state(i, name)
        for idx in np.ndindex(grid.shape):
            cells = [float(t), *(float(m[idx]) for m in meshes), float(vals[idx])]
            lines.append(",".join(map(repr, cells)) + "\n")
    return "".join(lines)


def _assert_matches_reference(path, traj, name):
    """Compare line lists, and on a mismatch report only the first differing
    line: pytest's diff of two whole CSV texts can take minutes."""
    got, want = path.read_text().split("\n"), _reference_csv(traj, name).split("\n")
    if got != want:
        i = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
                 min(len(got), len(want)))
        assert got[i:i + 1] == want[i:i + 1], \
            f"line {i} differs first ({len(got)} lines, {len(want)} expected)"


def _forked_stamps(grid, names, parity=None):
    """The least stamp count, of the given parity if any, whose CSV has
    _FORK_ROWS rows."""
    stamps = -(-_FORK_ROWS // (grid.npoints * len(names)))
    return stamps + (parity is not None and stamps % 2 != parity)


def _odd_trajectory(layout, names, stamps, reserve_at=None, reserved=None):
    """A record whose values and stamps include the hardest reprs, its
    stamps, or reserved stamps if given, reserved after reserve_at of them
    are appended (0: before the first, as a solver does; None: never)."""
    grid = GRIDS[layout]
    pde = "wave" if len(names) == 2 else "parabolic"
    traj = Trajectory(pde, grid, names=names)
    values = _stack(grid, stamps=stamps)
    values.flat[:len(ODD_VALUES)] = ODD_VALUES
    times = [0.0, 5e-324, 0.1 + 0.2, 1.0 / 3.0, 1e16] + [1e16 + 2.0 * k for k in range(1, stamps - 4)]
    for i, (t, vals) in enumerate(zip(times, values)):
        if i == reserve_at:
            traj.reserve(reserved or stamps)
        traj.append(t, **{k: (-1) ** j * vals for j, k in enumerate(names)})
    if reserve_at == stamps:
        traj.reserve(stamps)
    return traj


def _assert_no_part_and_no_child(directory):
    assert not list(directory.glob("*.part"))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def two_cpus(monkeypatch):
    """Report two usable CPUs and count the forks made."""
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    return forks


@pytest.mark.parametrize("layout,names,parity", [
    ("node", ("u",), None), ("cell", ("u",), None), ("square", ("u",), None),
    ("node", ("plus", "minus"), None),
    ("node", ("u",), 1), ("node", ("u",), 0), ("node", ("plus", "minus"), 1),
    ("square", ("u",), 1),
    ("cube", ("u",), None), ("cube", ("u",), 1),
])
def test_write_csv_matches_row_reference(tmp_path, two_cpus, layout, names, parity):
    # parity None: 40 stamps, or fewer where 40 reach _FORK_ROWS rows; else
    # the least odd or even stamp count from _FORK_ROWS rows on.  Outside a
    # csv_stream this process writes every row, on two CPUs too.
    grid = GRIDS[layout]
    stamps = (min(40, (_FORK_ROWS - 1) // (grid.npoints * len(names))) if parity is None
              else _forked_stamps(grid, names, parity))
    traj = _odd_trajectory(layout, names, stamps)
    paths = traj.write_csv(tmp_path)
    assert not two_cpus
    for name, path in zip(names, paths):
        _assert_matches_reference(path, traj, name)
    _assert_no_part_and_no_child(tmp_path)


@pytest.mark.parametrize("rows, cpus, streamed", [
    ("below", {0, 1}, True), ("above", {0}, True), ("above", None, True), ("above", {0, 1}, False),
], ids=["few-rows", "one-cpu", "no-affinity", "no-stream"])
def test_small_outputs_never_fork(tmp_path, monkeypatch, rows, cpus, streamed):
    def no_fork():
        raise AssertionError("write_csv forked")

    monkeypatch.setattr(os, "fork", no_fork)
    if cpus is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
    grid = GRIDS["node"]
    stamps = _forked_stamps(grid, ("u",), 1) - (2 if rows == "below" else 0)
    assert (stamps * grid.npoints >= _FORK_ROWS) == (rows == "above")
    traj = _odd_trajectory("node", ("u",), stamps)
    _assert_matches_reference(traj.write_csv(tmp_path)[0], traj, "u")
    # nor does a record reserved in a csv_stream before its first stamp or
    # after its last, which would fork on two CPUs past _FORK_ROWS rows
    for at in (0, stamps) if streamed else ():
        with fields.csv_stream() as wait:
            traj = _odd_trajectory("node", ("u",), stamps, at)
            path = traj.write_csv(tmp_path / f"stream{at}")[0]
            wait()
        _assert_matches_reference(path, traj, "u")


def test_a_failing_parent_kills_and_reaps_the_writer(tmp_path, two_cpus, monkeypatch):
    parent, part, seen = os.getpid(), tmp_path / "trajectory.csv.part", []

    def stuck_child_failing_parent(*columns):
        if os.getpid() != parent:
            time.sleep(60)
        deadline = time.monotonic() + 10.0
        while not part.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        seen.append(part.exists())
        raise OSError(errno.EIO, "parent fails once the child writes its part")

    monkeypatch.setattr(fields, "csv_rows", stuck_child_failing_parent)
    start = time.monotonic()
    with fields.csv_stream():
        traj = _odd_trajectory("node", ("u",), _forked_stamps(GRIDS["node"], ("u",), 0), 0)
        with pytest.raises(OSError, match="parent fails"):
            traj.write_csv(tmp_path)
    assert time.monotonic() - start < 30.0 and seen == [True] and len(two_cpus) == 1
    _assert_no_part_and_no_child(tmp_path)


# records written by two processes, as (layout, names), and their ids
TWO_WRITER_RECORDS = [("node", ("u",)), ("cell", ("u",)), ("node", ("plus", "minus")),
                      ("square", ("u",)), ("cube", ("u",))]
RECORD_IDS = ["node", "cell", "wave", "square", "cube"]


def _streamed_stamps(layout, names):
    """Stamps past the least with _FORK_ROWS rows, so a record reserved
    mid-run streams stamps to its writer after the reserve too."""
    return _forked_stamps(GRIDS[layout], names, 1) + 8


def _writer_start(layout, names, start):
    """The stamps recorded when the second writer starts: none (reserved
    before the first stamp), those before mid-run, or every stamp of the
    least count with _FORK_ROWS rows (reserved after the last)."""
    return {"first-stamp": 0, "mid-run": _forked_stamps(GRIDS[layout], names, 1) - 1,
            "last-stamp": _forked_stamps(GRIDS[layout], names)}[start]


def _write_with_writer_started(directory, layout, names, start):
    """A record and the paths its CSVs went to, reserved inside a
    csv_stream at _writer_start: of _streamed_stamps, or of the least
    stamps with _FORK_ROWS rows where it is reserved after the last."""
    at = _writer_start(layout, names, start)
    stamps = at if start == "last-stamp" else _streamed_stamps(layout, names)
    with fields.csv_stream() as wait:
        traj = _odd_trajectory(layout, names, stamps, at)
        paths = traj.write_csv(directory)
        wait()
    return traj, paths


@pytest.mark.parametrize("progress", [None, "none", "half", "all"],
                         ids=["child", "forced-0", "forced-middle", "forced-all"])
@pytest.mark.parametrize("start", ["first-stamp", "mid-run", "last-stamp"])
@pytest.mark.parametrize("layout,names", TWO_WRITER_RECORDS, ids=RECORD_IDS)
def test_two_writers_match_the_reference_wherever_they_split(tmp_path, two_cpus, monkeypatch,
                                                             layout, names, start, progress):
    # the record is reserved, and its writer started, before the first
    # stamp, mid-run or after the last stamp; the stamps recorded before
    # then go over the pipe at the reserve.  The split halves what the
    # child has not formatted, so forcing the progress it reports to none,
    # half or every stamp moves the split from half the stamps to none left
    # for this process
    starts, splits = [], []
    init, commit = fields._CsvWriter.__init__, fields._CsvWriter.commit
    monkeypatch.setattr(fields._CsvWriter, "__init__",
                        lambda self, traj: starts.append(len(traj)) or init(self, traj))
    monkeypatch.setattr(fields._CsvWriter, "commit",
                        lambda self, *args: commit(self, *args) or splits.append(self.split))
    def claimed(self):
        if progress == "none":
            # the child has formatted every stamp, past the split, yet claims none
            deadline = time.monotonic() + 10.0
            while self.shared[fields._DONE] < len(self.traj) and time.monotonic() < deadline:
                time.sleep(1e-3)
        return {"none": 0, "half": len(self.traj) // 2, "all": len(self.traj)}[progress]

    if progress is not None:
        monkeypatch.setattr(fields._CsvWriter, "_formatted", claimed)
    traj, paths = _write_with_writer_started(tmp_path, layout, names, start)
    n = len(traj)
    assert len(two_cpus) == 1 and starts == [_writer_start(layout, names, start)]
    if progress is not None:
        done = {"none": 0, "half": n // 2, "all": n}[progress]
        assert splits == [done + (n - done + 1) // 2]
    for name, path in zip(names, paths):
        _assert_matches_reference(path, traj, name)
    _assert_no_part_and_no_child(tmp_path)


def test_a_streamed_transport_run_starts_its_writer_before_its_first_stamp(two_cpus, monkeypatch):
    # transport_global's record is sized by the step at its speed's sup, so
    # its writer starts at the reserve, as parabolic and wave runs do, not
    # once the stamps appended make _FORK_ROWS rows
    starts, init = [], fields._CsvWriter.__init__
    monkeypatch.setattr(fields._CsvWriter, "__init__",
                        lambda self, traj: starts.append(len(traj)) or init(self, traj))
    plan = load_plan("transport_global")
    with fields.csv_stream():
        traj = solve_transport(plan.scenario, plan.grid, plan.solver)
    assert len(traj) * plan.grid.npoints >= _FORK_ROWS
    assert starts == [0] and len(two_cpus) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_stamps_whose_counts_the_pipe_refused_go_at_the_commit(tmp_path, two_cpus, monkeypatch):
    # a pipe that takes no count during the solve: the child learns of the
    # stamps before the split from the commit alone, and still formats them
    parent, write, refused = os.getpid(), os.write, []

    def full_pipe(fd, data):
        if os.getpid() == parent and not os.get_blocking(fd):
            refused.append(len(data))
            raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        return write(fd, data)

    monkeypatch.setattr(os, "write", full_pipe)
    traj, paths = _write_with_writer_started(tmp_path, "node", ("plus", "minus"), "first-stamp")
    # the count at the reserve and one an append
    assert len(two_cpus) == 1 and refused == [8] * (len(traj) + 1)
    for name, path in zip(("plus", "minus"), paths):
        _assert_matches_reference(path, traj, name)
    _assert_no_part_and_no_child(tmp_path)


@pytest.mark.parametrize("layout,names", TWO_WRITER_RECORDS, ids=RECORD_IDS)
def test_the_pipe_carries_stamp_counts_not_states(tmp_path, two_cpus, monkeypatch,
                                                  layout, names):
    # the child reads each stamp from the shared record, so every write to
    # it before the commit is one 8-byte stamp count: the reserve's and one
    # an append
    parent, write, sizes, commit = os.getpid(), os.write, [], fields._CsvWriter.commit

    def counted(fd, data):
        if os.getpid() == parent:
            sizes.append(len(data))
        return write(fd, data)

    monkeypatch.setattr(os, "write", counted)
    monkeypatch.setattr(fields._CsvWriter, "commit",
                        lambda self, *args: sizes.append("commit") or commit(self, *args))
    traj, paths = _write_with_writer_started(tmp_path, layout, names, "first-stamp")
    assert len(two_cpus) == 1 and sizes.index("commit") == len(traj) + 1
    assert set(sizes[:len(traj) + 1]) == {8}
    for name, path in zip(names, paths):
        _assert_matches_reference(path, traj, name)
    _assert_no_part_and_no_child(tmp_path)


def test_a_streamed_record_never_grows_past_its_reserve(tmp_path, two_cpus):
    # its writer reads the record in place, so a record that outgrew its
    # reserve would move its stamps where the writer never looks
    reserved = _forked_stamps(GRIDS["node"], ("u",))
    with pytest.raises(ValueError, match=f"its {reserved} reserved stamps"):
        with fields.csv_stream():
            _odd_trajectory("node", ("u",), _streamed_stamps("node", ("u",)), 0, reserved)
    assert len(two_cpus) == 1
    _assert_no_part_and_no_child(tmp_path)


@pytest.mark.parametrize("names, failing, file", [
    (("plus", "minus"), 2, "trajectory_minus.csv"), (("u",), 1, "trajectory.csv"),
], ids=["wave-minus", "one-name"])
def test_a_streamed_writer_failure_names_its_file(tmp_path, two_cpus, monkeypatch,
                                                  names, failing, file):
    # the child formats each stamp's plus rows, then its minus rows, and
    # fails on the first minus rows, or on the first rows of a one-name
    # record; it then takes no more stamps, and the wait reports its error
    # on that file
    parent, rows, calls = os.getpid(), fields.csv_rows, []

    def child_disk_full(*columns):
        if os.getpid() != parent:
            calls.append(columns)
            if len(calls) == failing:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return rows(*columns)

    monkeypatch.setattr(fields, "csv_rows", child_disk_full)
    with fields.csv_stream() as wait:
        traj = _odd_trajectory("node", names, _streamed_stamps("node", names), 0)
        traj.write_csv(tmp_path)
        with pytest.raises(OSError) as info:
            wait()
    assert (info.value.errno, info.value.filename) == (errno.ENOSPC, str(tmp_path / file))
    assert len(two_cpus) == 1
    _assert_no_part_and_no_child(tmp_path)


@pytest.mark.parametrize("committed", [False, True], ids=["before-commit", "after-commit"])
def test_leaving_a_csv_stream_reaps_its_writer(tmp_path, two_cpus, committed):
    # an exception inside the block, before or after write_csv's commit
    with pytest.raises(KeyboardInterrupt):
        with fields.csv_stream():
            traj = _odd_trajectory("node", ("u",), _streamed_stamps("node", ("u",)), 0)
            if committed:
                traj.write_csv(tmp_path)
            raise KeyboardInterrupt
    assert len(two_cpus) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == (
        ["trajectory.csv", "trajectory_meta.yaml"] if committed else [])
    _assert_no_part_and_no_child(tmp_path)


def test_csv_rows_formats_python_float_reprs():
    cells = float_cells(np.array(ODD_VALUES))
    assert cells == [repr(float(v)) for v in ODD_VALUES]
    assert csv_rows(cells, ["a"] * 5) == "".join(f"{c},a\n" for c in cells)
    assert csv_rows([], []) == ""
