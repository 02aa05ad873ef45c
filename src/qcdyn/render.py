"""Escape-time and attractor classification, and raster rendering.

Dynamical-plane rasters fix (alpha, c) and vary the starting point; parameter
rasters fix alpha, start at the critical point 0 and vary c.  Every cell is
classified independently by the same kernel, so renders are deterministic:
identical inputs give bit-identical rasters regardless of chunking or the
thread count (workers only decide which lanes share a block).

Inside a block the kernel iterates all live lanes at once.  A lane that
escapes is recorded, parked (its z set to NaN) and dropped from the arrays
in batches rather than on every step; the attractor window holds one
contiguous row per step and keeps only the last MAX_PERIOD + CYCLE_RUNS
rows, the ones the period search reads.  In escape mode a lane whose z
repeats exactly after LOCK_EVERY steps is retired the same way: its orbit
is an exact floating-point cycle, so it can neither escape later nor end on
another modulus (attractor mode retires no lanes).  None of this changes a
live lane's arithmetic, so a cell's result is the same in any block, at any
thread count and as if every lane ran to the end.

Every render runs on one schedule.  The cells are dealt into blocks of at
most BLOCK_LANES = 65536 lanes, and every block stops at step POOL_STEP = 32
and, in attractor mode, at the window's first step.  There the live lanes of
all blocks are pooled and dealt out again: across the workers only when each
gets at least POOL_MIN_LANES = 8192 lanes, else as one block on the calling
thread.  Most escapes come early, and the lanes left after them run as a few
larger blocks instead of many small ones, which two threads stepping small
arrays ran slower than one.  From the window's first step on a block holds
at most WINDOW_LANES = 16384 lanes, so its window is at most 16384 x 103 x
16 B = 27.0 MB.

The kernel is vectorised with numpy and is not bit-identical to iterating
maps.apply_map in plain Python: numpy's SIMD routines for np.abs, the power
|z|^(a-1) and the complex product round differently from the C library, so
on rare cells the escape step differs by one.  Matching apply_map exactly
takes np.hypot, np.float_power and split real arithmetic, but np.hypot
costs about 14x the time of np.abs and np.float_power about 5x that of **.
"""

from __future__ import annotations

import cmath
import contextvars
import math
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from enum import IntEnum
from typing import IO, Iterable, NamedTuple, Sequence

import numpy as np

from .errors import DomainError
from .maps import MapParams, _radius_floor

__all__ = [
    "PointClass",
    "CellResult",
    "GridSpec",
    "Raster",
    "escape_radius",
    "classify_point",
    "render_julia",
    "render_locus",
    "write_pgm",
    "write_cells_csv",
    "write_csv",
]

# cycle-detection constants: tail window recorded after the warm-up phase,
# smallest period <= MAX_PERIOD accepted when the last CYCLE_RUNS aligned
# pairs of window entries agree within TOL_CYCLE.
TOL_CYCLE = 1e-6
CYCLE_WINDOW = 200
MAX_PERIOD = 100
CYCLE_RUNS = 3
# the period search reads only the window's last MAX_PERIOD + CYCLE_RUNS rows
WINDOW_ROWS = min(CYCLE_WINDOW, MAX_PERIOD + CYCLE_RUNS)
# escape mode compares each lane with its state LOCK_EVERY steps earlier and
# retires the lanes that repeat exactly
LOCK_EVERY = 12
# lanes per block; from the window's first step on, an attractor block holds
# at most WINDOW_LANES, so its window is at most 16384 x 103 x 16 B = 27.0 MB
BLOCK_LANES = 65536
WINDOW_LANES = 16384
# renders pool the live lanes of all blocks at POOL_STEP (and attractor
# renders at the window's first step); a pool is split across the workers
# only when each gets at least POOL_MIN_LANES lanes (4096 measured slower,
# 16384 the same)
POOL_STEP = 32
POOL_MIN_LANES = 8192

ESCAPE_ONLY = "escape"
ATTRACTOR_DETECT = "attractor"


class PointClass(IntEnum):
    BOUNDED = 0
    ESCAPED = 1
    ATTRACTED = 2


@dataclass(frozen=True)
class CellResult:
    """Classification of one orbit: status, iteration count or period, |z| at the end."""

    status: PointClass
    value: int
    final_modulus: float


@dataclass(frozen=True)
class GridSpec:
    """Axis-aligned pixel grid over a rectangle in the plane.

    Pixel (i, j) (column i in [0, nx), row j in [0, ny)) samples the cell
    center

        re = center.re + ((i + 0.5)/nx - 0.5) * width
        im = center.im + (0.5 - (j + 0.5)/ny) * height

    so row j = 0 is the top of the image, matching raster output order.
    Every one of these coordinates must be finite: a grid whose edge cells
    overflow raises DomainError.
    """

    center: complex
    width: float
    height: float
    nx: int
    ny: int

    def __post_init__(self):
        if not (cmath.isfinite(self.center) and math.isfinite(self.width) and math.isfinite(self.height)):
            raise DomainError("grid center, width and height must be finite")
        if not (self.width > 0 and self.height > 0):
            raise DomainError("grid width and height must be positive")
        if self.nx < 1 or self.ny < 1:
            raise DomainError("grid needs at least one pixel per axis")
        object.__setattr__(self, "center", complex(self.center))
        with np.errstate(over="ignore"):
            re, im = self.axes()
        if not (np.isfinite(re).all() and np.isfinite(im).all()):
            raise DomainError("grid cell coordinates overflow the float range")

    def sample(self, i: int, j: int) -> complex:
        re = self.center.real + ((i + 0.5) / self.nx - 0.5) * self.width
        im = self.center.imag + (0.5 - (j + 0.5) / self.ny) * self.height
        return complex(re, im)

    def axes(self) -> tuple[np.ndarray, np.ndarray]:
        """The re of every column (length nx) and the im of every row (length ny)."""
        i = np.arange(self.nx)
        j = np.arange(self.ny)
        re = self.center.real + ((i + 0.5) / self.nx - 0.5) * self.width
        im = self.center.imag + (0.5 - (j + 0.5) / self.ny) * self.height
        return re, im

    def samples(self) -> np.ndarray:
        """All cell centers as a (ny, nx) complex array; [j, i] is sample(i, j).

        The parts are stored, not computed as re + 1j*im, so they are the
        axes bit for bit: that sum turns a -0.0 part into +0.0.
        """
        re, im = self.axes()
        out = np.empty((self.ny, self.nx), dtype=np.complex128)
        out.real = re
        out.imag = im[:, None]
        return out


@dataclass(frozen=True, eq=False)
class Raster:
    """Grid of classified cells stored as parallel (ny, nx) arrays."""

    grid: GridSpec
    status: np.ndarray
    value: np.ndarray
    final_modulus: np.ndarray
    max_iter: int
    mode: str

    def cell(self, i: int, j: int) -> CellResult:
        return CellResult(
            PointClass(int(self.status[j, i])),
            int(self.value[j, i]),
            float(self.final_modulus[j, i]),
        )


def escape_radius(p: MapParams) -> float:
    """R = max(|c|, 2^{1/(2a-1)}); any |z| > R has |f(z)| >= 2|z| - |c| > |z|.

    At the boundary exponent alpha = 1/2 no modulus bound forces escape (the
    radial factor is an isometry), so the radius degenerates to infinity; so
    does the radius of any alpha close enough to 1/2 that 2^{1/(2a-1)}
    overflows, and of any finite c whose modulus overflows (the radius the
    raster kernel's np.abs gives it).
    """
    try:
        modulus = abs(p.c)
    except OverflowError:
        modulus = math.inf
    return max(modulus, _radius_floor(p.alpha))


class _Lanes(NamedTuple):
    """Cells the kernel is iterating: flat cell index, current z, and c and
    escape radius, per lane for loci or one value for a whole Julia set."""

    idx: np.ndarray
    z: np.ndarray
    c: np.ndarray | complex
    radius: np.ndarray | float

    def select(self, key) -> _Lanes:
        """The lanes at key, a mask or a slice."""
        if isinstance(self.c, np.ndarray):
            return _Lanes(self.idx[key], self.z[key], self.c[key], self.radius[key])
        return _Lanes(self.idx[key], self.z[key], self.c, self.radius)

    @staticmethod
    def pool(parts: list[_Lanes]) -> _Lanes:
        """The lanes of all parts, in order, as one set."""
        if len(parts) == 1:
            return parts[0]
        idx = np.concatenate([p.idx for p in parts])
        z = np.concatenate([p.z for p in parts])
        if isinstance(parts[0].c, np.ndarray):
            return _Lanes(idx, z, np.concatenate([p.c for p in parts]), np.concatenate([p.radius for p in parts]))
        return _Lanes(idx, z, parts[0].c, parts[0].radius)


def _start_lanes(alpha: float, c: np.ndarray | complex, z0: np.ndarray | complex, cells: range) -> _Lanes:
    """The lanes of cells before step 0; c and z0 are flat arrays over all
    cells or one value for every cell."""
    part = slice(cells.start, cells.stop)
    z = np.empty(len(cells), dtype=np.complex128)
    z[...] = z0[part] if isinstance(z0, np.ndarray) else z0
    carr = np.asarray(c[part] if isinstance(c, np.ndarray) else c, dtype=np.complex128)
    # |c| comes from np.abs, like |z| below, so the step-1 tie |c| > |c| is false
    radius = np.maximum(np.abs(carr.reshape(-1)), _radius_floor(alpha))
    idx = np.arange(cells.start, cells.stop)
    if carr.ndim:
        return _Lanes(idx, z, carr, radius)
    return _Lanes(idx, z, complex(carr), float(radius[0]))


def _schedule(max_iter: int, mode: str) -> tuple[int, int]:
    """(total, start): the last step, and the first step the attractor window records."""
    warmup = max(200, max_iter // 4)
    total = max(max_iter, warmup + CYCLE_WINDOW) if mode == ATTRACTOR_DETECT else max_iter
    return total, warmup + CYCLE_WINDOW - WINDOW_ROWS


def _iterate(
    alpha: float,
    lanes: _Lanes,
    max_iter: int,
    mode: str,
    out: tuple[np.ndarray, np.ndarray, np.ndarray],
    n: int = 0,
    stop: int | None = None,
) -> _Lanes | None:
    """Iterate lanes, which hold the state after n steps, up to step stop
    (default: the last step) and classify them.

    Results go into out = (status, value, final_modulus), flat arrays indexed
    by lanes.idx.  With stop before the last step, the lanes still live at
    step stop are returned, compacted, before anything of that step is done
    (None when none is); iterating them from n = stop gives every lane the
    result it gets in one run.  The attractor window lives in one call, so
    a call that starts before the window's first step may stop only at or
    before it, or at the last step, and one that starts inside the window
    runs to the last step.  Every lane goes through the same numpy
    operations in the same order, so a cell's result does not depend on the
    block it sits in.

    An escaped lane is parked: its z becomes NaN, which never exceeds the
    radius, raises no floating-point warning and so is never recorded again,
    and a gone mask marks it.  Parked lanes are compacted away once they
    have wasted one full step's worth of lane-steps and at stop; the final
    moduli and the period search skip the lanes parked since.  Of the
    CYCLE_WINDOW steps after the warm-up the window keeps only the last
    WINDOW_ROWS = MAX_PERIOD + CYCLE_RUNS, the rows the period search
    compares.  It is stored (WINDOW_ROWS, lanes) so each step writes one
    contiguous row.  The period search (_periods) prunes pair by pair: for
    each q it tests the last aligned pair first, taking one row at a time
    for the lanes still in the running, and tests the next pair only on the
    lanes that passed, so most lanes cost one pair per q; a lane leaves the
    search once its smallest period is found.

    Escape mode also retires lanes that have closed into an exact cycle.
    Checkpoints are the steps n < total with (total - n) % LOCK_EVERY == 0;
    at each, after the escape test, a lane whose z equals (==) its z at the
    previous checkpoint keeps BOUNDED with value 0, takes its current modulus
    as its final modulus and is parked like an escaped lane.  This is exact: a
    lane's whole state is z (its c and radius are fixed and the step acts
    elementwise), so the orbit repeats with a period dividing LOCK_EVERY and
    z at step total equals the current z; every state of the cycle has already
    passed the escape test; == ignores only the sign of zero, which changes
    no modulus, no comparison and no nonzero part; and NaN, of parked lanes
    or of alpha = 1/2 overflow, never compares equal.  The cost is one
    compare and one copy of z per LOCK_EVERY steps.  Attractor mode retires
    no lanes, because its period search reads the window rows a retired
    lane would skip.

    Overflow raises no warning, in the steps or in the period search: an
    orbit that overflows is on its way out, and a lane at |z| = inf exceeds
    any finite radius at the next check.  A product with an infinite factor
    can give NaN instead, which never escapes; numpy still reports that as
    an invalid value (it happens at alpha = 1/2, whose radius is infinite).
    """
    status, value, finalmod = out
    idx, z, carr, radius = lanes
    per_point = isinstance(carr, np.ndarray)
    detect = mode == ATTRACTOR_DETECT
    total, start = _schedule(max_iter, mode)
    if stop is None:
        stop = total

    s = alpha - 1.0
    window = None
    mod = np.empty(idx.size)
    flag = np.empty(idx.size, dtype=bool)
    u = np.empty(idx.size, dtype=np.complex128)
    gone = np.zeros(idx.size, dtype=bool)
    parked = waste = 0
    ref = None  # escape mode: z at the previous checkpoint

    with np.errstate(over="ignore"):
        while True:
            if n == stop < total:
                # parked lanes are told apart by gone, not by isnan: at
                # alpha = 1/2 a live lane can overflow to NaN
                return _Lanes(idx, z, carr, radius).select(~gone)
            np.abs(z, out=mod)
            esc = np.greater(mod, radius, out=flag)
            if esc.any():
                hit = idx[esc]
                if n <= max_iter:
                    status[hit] = PointClass.ESCAPED
                    value[hit] = n
                # past the escape budget the point merely leaves the disk; it
                # stays BOUNDED but is dropped from further iteration
                finalmod[hit] = mod[esc]
                # NaN never exceeds the radius, so a parked lane is never recorded again
                z[esc] = np.nan
                gone |= esc
                parked += hit.size
            waste += parked
            if parked and (parked == idx.size or waste >= idx.size):
                keep = ~gone
                idx, z, mod = idx[keep], z[keep], mod[keep]
                flag, u, gone = flag[: idx.size], u[: idx.size], gone[: idx.size]
                gone[:] = False
                parked = waste = 0
                if per_point:
                    carr, radius = carr[keep], radius[keep]
                if window is not None:
                    window = np.compress(keep, window, axis=1)
                if ref is not None:
                    ref = ref[keep]
                if idx.size == 0:
                    return None
            if not detect and n < total and (total - n) % LOCK_EVERY == 0:
                # a lane equal to its state LOCK_EVERY steps ago is on an exact
                # cycle whose period divides LOCK_EVERY, and total - n is a
                # multiple of it, so its final modulus is the current one; NaN
                # (parked lanes) never compares equal
                if ref is not None:
                    same = np.equal(z, ref, out=flag)
                    if same.any():
                        finalmod[idx[same]] = mod[same]
                        z[same] = np.nan
                        gone |= same
                        parked += np.count_nonzero(same)
                ref = z.copy()
            if detect and n == start:
                window = np.empty((WINDOW_ROWS, idx.size), dtype=np.complex128)
            if detect and start <= n < start + WINDOW_ROWS:
                window[n - start] = z
            if n == total:
                break
            # same evaluation order as apply_map: u = |z|^(a-1) z, f = u u + c.
            # A lane at the branch point z = 0 has u = 0 and so lands on c, as in
            # apply_map; only the infinite 0^(a-1) of a < 1 needs patching
            if s < 0.0:
                zero = np.equal(mod, 0.0, out=flag)
                if zero.any():
                    mod[zero] = 1.0
            if s == 0.0:
                np.multiply(z, z, out=u)
                z, u = u, z
            else:
                np.multiply(mod ** s, z, out=u)
                np.multiply(u, u, out=z)
            z += carr
            n += 1

        # the lanes parked since the last compaction keep their results: a full
        # compaction here would copy the whole window
        live = np.flatnonzero(~gone)
        finalmod[idx[live]] = mod[live]
        if detect and window is not None:
            qfound = _periods(window, live)
            att = qfound > 0
            status[idx[att]] = PointClass.ATTRACTED
            value[idx[att]] = qfound[att]
    return None


def _periods(window: np.ndarray, lanes: np.ndarray) -> np.ndarray:
    """The smallest period of each lane whose column of the attractor window
    is listed in lanes, or 0; one entry per window column (0 off lanes).

    A lane has period q when each of the window's last CYCLE_RUNS aligned
    pairs (row m, row m + q) differs by less than TOL_CYCLE in modulus.  For
    each q, smallest first, the pairs are tested from the last one back,
    taking one row at a time for the lanes still in the running: a lane
    leaves q's test at the first pair it fails and the search once it has a
    period.  Every lane tested gets the same subtractions as the full
    conjunction, so the result is the same; NaN fails every pair.
    """
    qfound = np.zeros(window.shape[1], dtype=np.int32)
    pending = lanes
    for q in range(1, MAX_PERIOD + 1):
        m0 = WINDOW_ROWS - q - CYCLE_RUNS
        if m0 < 0 or pending.size == 0:
            break
        cand = pending
        for m in range(m0 + CYCLE_RUNS - 1, m0 - 1, -1):
            cand = cand[np.abs(window[m + q].take(cand) - window[m].take(cand)) < TOL_CYCLE]
            if cand.size == 0:
                break
        else:
            qfound[cand] = q
            pending = pending[qfound.take(pending) == 0]
    return qfound


def _deal(size: int, workers: int, cap: int) -> list[tuple[int, int]]:
    """Bounds of the blocks that size pooled lanes are dealt into: one per
    worker when each worker gets at least POOL_MIN_LANES lanes, else one
    block, in as many rounds as keep every block within cap lanes."""
    share = max(1, min(workers, size // POOL_MIN_LANES))
    k = share * -(-size // (share * cap))
    return [(size * i // k, size * (i + 1) // k) for i in range(k)]


def _check_run(max_iter: int, mode: str) -> None:
    if max_iter < 1:
        raise DomainError("max_iter must be >= 1")
    if mode not in (ESCAPE_ONLY, ATTRACTOR_DETECT):
        raise DomainError(f"unknown mode {mode!r}")


def classify_point(
    p: MapParams, z0: complex, max_iter: int, mode: str = ESCAPE_ONLY
) -> CellResult:
    """Classify the orbit of z0 under f.

    ESCAPED(n) when |f^n(z0)| first exceeds escape_radius at step n <= max_iter
    (escape is checked before anything else each step).  In attractor mode the
    orbit is additionally run through a warm-up of max(200, max_iter // 4)
    steps and a 200-point window; ATTRACTED(q) reports the smallest period
    q <= 100 for which the last CYCLE_RUNS aligned window pairs agree within
    TOL_CYCLE.  Everything else is BOUNDED.
    """
    _check_run(max_iter, mode)
    out = (np.zeros(1, dtype=np.int8), np.zeros(1, dtype=np.int32), np.zeros(1))
    _iterate(p.alpha, _start_lanes(p.alpha, p.c, z0, range(1)), max_iter, mode, out)
    return CellResult(PointClass(int(out[0][0])), int(out[1][0]), float(out[2][0]))


def _thread_count(threads: int | None) -> int:
    if threads is not None:
        return max(1, int(threads))
    env = os.environ.get("QCDYN_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return min(8, os.cpu_count() or 1)


def _render(
    alpha: float,
    c,
    z0,
    grid: GridSpec,
    max_iter: int,
    mode: str,
    threads: int | None,
) -> Raster:
    """Classify every cell; c and z0 are (ny, nx) arrays or one value for all.

    The cells are dealt into blocks (see _deal) of at most BLOCK_LANES.  The
    blocks run in epochs that end at POOL_STEP, at the attractor window's
    first step and at the last step: there every block stops, and the live
    lanes of all blocks are pooled and dealt out again, within BLOCK_LANES
    per block and, from the window on, within WINDOW_LANES.  Blocks on
    worker threads run in a copy of the caller's context, so they keep its
    floating-point error state (np.errstate).
    """
    _check_run(max_iter, mode)
    size = grid.nx * grid.ny
    out = (np.zeros(size, dtype=np.int8), np.zeros(size, dtype=np.int32), np.zeros(size))
    cells, starts = (np.reshape(v, -1) if isinstance(v, np.ndarray) else v for v in (c, z0))
    total, start = _schedule(max_iter, mode)
    workers = _thread_count(threads)

    def run(block, n, stop):
        if isinstance(block, range):  # cells not started yet
            block = _start_lanes(alpha, cells, starts, block)
        return _iterate(alpha, block, max_iter, mode, out, n, stop)

    stops = (POOL_STEP, start, total) if mode == ATTRACTOR_DETECT else (POOL_STEP, total)
    blocks = [range(a, b) for a, b in _deal(size, workers, BLOCK_LANES)]
    n = 0
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for stop in stops:
            if workers > 1 and len(blocks) > 1:
                jobs = [pool.submit(contextvars.copy_context().run, run, block, n, stop) for block in blocks]
                left = [job.result() for job in jobs]
            else:
                left = [run(block, n, stop) for block in blocks]
            live = [lanes for lanes in left if lanes is not None]
            if not live:
                break
            live = _Lanes.pool(live)
            cap = WINDOW_LANES if stop == start else BLOCK_LANES
            blocks = [live.select(slice(a, b)) for a, b in _deal(live.idx.size, workers, cap)]
            n = stop
    status, value, finalmod = (a.reshape(grid.ny, grid.nx) for a in out)
    return Raster(grid, status, value, finalmod, max_iter, mode)


def render_julia(
    p: MapParams,
    grid: GridSpec,
    max_iter: int = 1000,
    mode: str = ESCAPE_ONLY,
    threads: int | None = None,
) -> Raster:
    """Classify every grid sample as a starting point of f_{alpha,c}."""
    return _render(p.alpha, p.c, grid.samples(), grid, max_iter, mode, threads)


def render_locus(
    alpha: float,
    grid: GridSpec,
    max_iter: int = 256,
    mode: str = ESCAPE_ONLY,
    threads: int | None = None,
) -> Raster:
    """Classify the critical orbit of f_{alpha,c} for c at every grid sample.

    A cell is in the connectedness locus exactly when its orbit stays bounded.
    """
    return _render(alpha, grid.samples(), 0j, grid, max_iter, mode, threads)


def gray_levels(raster: Raster) -> np.ndarray:
    """Status -> 8-bit gray: escaped floor(255 n / max_iter) clamped to [0, 254],
    bounded 0, attracted 128."""
    g = np.zeros(raster.status.shape, dtype=np.uint8)
    esc = raster.status == PointClass.ESCAPED
    lev = (255 * raster.value[esc]) // raster.max_iter
    g[esc] = np.clip(lev, 0, 254).astype(np.uint8)
    g[raster.status == PointClass.ATTRACTED] = 128
    return g


@contextmanager
def _sink(out, mode: str, newline: str | None = None):
    """Yield out itself if it is a file handle, else the file it names opened in mode."""
    if hasattr(out, "write"):
        yield out
    else:
        with open(out, mode, newline=newline) as fh:
            yield fh


def write_csv(
    out: str | os.PathLike | IO[str],
    header: Sequence[str],
    rows: Iterable[Iterable[object]],
    newline: str = "\r\n",
) -> None:
    """The package's one table writer: a header line, then one comma-joined
    line per row, each ended by newline.  Cells go through str, so floats are
    written as their shortest round-tripping repr; no cell needs quoting."""
    with _sink(out, "w", newline="") as fh:
        fh.write(",".join(header) + newline)
        for row in rows:
            fh.write(",".join(map(str, row)) + newline)


def write_pgm(raster: Raster, out: str | os.PathLike | IO[bytes]) -> None:
    """Write the raster as an 8-bit binary PGM (P5), rows top to bottom."""
    g = gray_levels(raster)
    header = f"P5\n{raster.grid.nx} {raster.grid.ny}\n255\n".encode("ascii")
    with _sink(out, "wb") as fh:
        fh.write(header)
        fh.write(g.tobytes())


def write_cells_csv(raster: Raster, out: str | os.PathLike | IO[str]) -> None:
    """Raw per-cell dump: i, j, re, im, status, value.

    value is the escape iteration count for escaped cells, the detected
    period for attracted cells and 0 for bounded cells.  re and im are the
    shortest round-tripping reprs of the cell center; a column shares its re
    and a row its im (see GridSpec.samples), so each is formatted once, and
    so is each distinct (status, value) pair.  A row is the join of one list
    of pieces whose column pieces are fixed and whose j, im and cell pieces
    each row fills in.
    """
    re, im = raster.grid.axes()
    nx = raster.grid.nx
    # distinct pairs have distinct keys, as |value| < 2^31
    key = raster.status.astype(np.int64).ravel() * 2**32 + raster.value.ravel()
    _, first, inv = np.unique(key, return_index=True, return_inverse=True)
    pairs = zip(raster.status.flat[first].tolist(), raster.value.flat[first].tolist())
    cells = np.array([f",{PointClass(st).name.lower()},{val}\n" for st, val in pairs], dtype=object)
    inv = inv.reshape(raster.status.shape)
    pieces = [""] * (5 * nx)
    pieces[0::5] = [f"{i}," for i in range(nx)]
    pieces[2::5] = [f",{x!r}," for x in re.tolist()]
    with _sink(out, "w") as fh:
        fh.write("i,j,re,im,status,value\n")
        for j, y in enumerate(im.tolist()):
            pieces[1::5] = [str(j)] * nx
            pieces[3::5] = [repr(y)] * nx
            pieces[4::5] = cells.take(inv[j]).tolist()
            fh.write("".join(pieces))
