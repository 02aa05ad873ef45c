"""Escape-time and attractor classification, and raster rendering.

Dynamical-plane rasters fix (alpha, c) and vary the starting point; parameter
rasters fix alpha, start at the critical point 0 and vary c.  Every cell is
classified independently by the same kernel, so renders are deterministic:
identical inputs give bit-identical rasters regardless of chunking or the
thread count (workers only split the grid into fixed row blocks).

Inside a block the kernel iterates all live lanes at once.  A lane that
escapes is recorded, parked (its z set to NaN) and dropped from the arrays
in batches rather than on every step; the attractor window holds one
contiguous row per step and keeps only the last MAX_PERIOD + CYCLE_RUNS
rows, the ones the period search reads.  In escape mode a lane whose z
repeats exactly after LOCK_EVERY steps is retired the same way: its orbit
is an exact floating-point cycle, so it can neither escape later nor end on
another modulus (attractor mode retires no lanes).  None of this changes a
live lane's arithmetic, so a cell's result is the same in any block, at any
thread count and as if every lane ran to the end.  Renders split the grid
into row blocks of at most 65536 lanes in escape mode and 16384 in
attractor mode (one row where a row is longer), so an attractor block's
window is at most 16384 x 103 x 16 B = 27.0 MB.

The kernel is vectorised with numpy and is not bit-identical to iterating
maps.apply_map in plain Python: numpy's SIMD routines for np.abs, the power
|z|^(a-1) and the complex product round differently from the C library, so
on rare cells the escape step differs by one.  Matching apply_map exactly
takes np.hypot, np.float_power and split real arithmetic, but np.hypot
costs about 14x the time of np.abs and np.float_power about 5x that of **.
"""

from __future__ import annotations

import cmath
import math
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from enum import IntEnum
from typing import IO, Iterable, Sequence

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
    overflows.
    """
    return max(abs(p.c), _radius_floor(p.alpha))


def _classify_block(
    alpha: float,
    c: np.ndarray | complex,
    z0: np.ndarray,
    max_iter: int,
    mode: str,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Classify a flat block of starting points; c is a scalar or per-point array.

    Returns (status, value, final_modulus) arrays of z0's shape.  Every lane
    goes through the same numpy operations in the same order, so a cell's
    result does not depend on the block it sits in.

    An escaped lane is parked: its z becomes NaN, which never exceeds the
    radius, raises no floating-point warning and so is never recorded again,
    and a gone mask marks it.  Parked lanes are compacted away once they
    have wasted one full step's worth of lane-steps, at the step the cycle
    window starts (so it is allocated for live lanes only) and before the
    final moduli are read.  Of the CYCLE_WINDOW steps after the warm-up the
    window keeps only the last WINDOW_ROWS = MAX_PERIOD + CYCLE_RUNS, the
    rows the period search compares.  It is stored (WINDOW_ROWS, lanes) so
    each step writes one contiguous row, and the period search drops each
    lane once its smallest period is found.  An attractor block of 16384
    lanes thus holds at most 16384 x 103 x 16 B = 27.0 MB of window.

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

    Overflow raises no warning: an orbit that overflows is on its way out,
    and a lane at |z| = inf exceeds any finite radius at the next check.  A
    product with an infinite factor can give NaN instead, which never
    escapes; numpy still reports that as an invalid value (it happens at
    alpha = 1/2, whose radius is infinite).
    """
    z0 = np.asarray(z0, dtype=np.complex128)
    n_pts = z0.size
    z = z0.ravel().copy()
    carr = np.asarray(c, dtype=np.complex128)
    # |c| comes from np.abs, like |z| below, so the step-1 tie |c| > |c| is false
    radius = np.maximum(np.abs(carr.reshape(-1)), _radius_floor(alpha))
    per_point = carr.ndim > 0
    if per_point:
        carr = carr.ravel().copy()
    else:
        carr, radius = complex(carr), float(radius[0])

    status = np.zeros(n_pts, dtype=np.int8)
    value = np.zeros(n_pts, dtype=np.int32)
    finalmod = np.zeros(n_pts, dtype=np.float64)

    detect = mode == ATTRACTOR_DETECT
    warmup = max(200, max_iter // 4)
    total = max(max_iter, warmup + CYCLE_WINDOW) if detect else max_iter
    start = warmup + CYCLE_WINDOW - WINDOW_ROWS  # first step the window records

    idx = np.arange(n_pts)
    s = alpha - 1.0
    window = None
    mod = np.empty(n_pts)
    flag = np.empty(n_pts, dtype=bool)
    u = np.empty(n_pts, dtype=np.complex128)
    gone = np.zeros(n_pts, dtype=bool)
    parked = waste = 0
    ref = None  # escape mode: z at the previous checkpoint

    n = 0
    with np.errstate(over="ignore"):
        while True:
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
                # NaN never exceeds the radius, so a parked lane is never recorded
                # again.  Parked lanes are told apart by gone, not by isnan: at
                # alpha = 1/2 a live lane can overflow to NaN
                z[esc] = np.nan
                gone |= esc
                parked += hit.size
            waste += parked
            if parked and (parked == idx.size or waste >= idx.size or n == total or (detect and n == start)):
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
                    break
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
            if detect and start <= n < warmup + CYCLE_WINDOW:
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

    if idx.size:
        finalmod[idx] = mod
        if detect and window is not None:
            # smallest period first; a lane leaves the search once it has one
            qfound = np.zeros(idx.size, dtype=np.int32)
            pending = np.arange(idx.size)
            for q in range(1, MAX_PERIOD + 1):
                m0 = WINDOW_ROWS - q - CYCLE_RUNS
                if m0 < 0 or pending.size == 0:
                    break
                delta = window[m0 + q : m0 + q + CYCLE_RUNS, pending] - window[m0 : m0 + CYCLE_RUNS, pending]
                close = (np.abs(delta) < TOL_CYCLE).all(axis=0)
                qfound[pending[close]] = q
                pending = pending[~close]
            att = qfound > 0
            status[idx[att]] = PointClass.ATTRACTED
            value[idx[att]] = qfound[att]

    return (
        status.reshape(z0.shape),
        value.reshape(z0.shape),
        finalmod.reshape(z0.shape),
    )


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
    status, value, finalmod = _classify_block(
        p.alpha, p.c, np.array([z0], dtype=np.complex128), max_iter, mode
    )
    return CellResult(PointClass(int(status[0])), int(value[0]), float(finalmod[0]))


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
    _check_run(max_iter, mode)
    status = np.empty((grid.ny, grid.nx), dtype=np.int8)
    value = np.empty((grid.ny, grid.nx), dtype=np.int32)
    finalmod = np.empty((grid.ny, grid.nx), dtype=np.float64)

    block_rows = max(1, (16384 if mode == ATTRACTOR_DETECT else 65536) // grid.nx)
    blocks = [(j, min(j + block_rows, grid.ny)) for j in range(0, grid.ny, block_rows)]

    def run(block):
        j0, j1 = block
        cblk = c[j0:j1] if isinstance(c, np.ndarray) else c
        zblk = z0[j0:j1] if isinstance(z0, np.ndarray) else np.broadcast_to(z0, cblk.shape)
        s, v, fm = _classify_block(alpha, cblk, zblk, max_iter, mode)
        status[j0:j1] = s
        value[j0:j1] = v
        finalmod[j0:j1] = fm

    workers = _thread_count(threads)
    if workers > 1 and len(blocks) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run, blocks))
    else:
        for b in blocks:
            run(b)
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
    and a row its im (see GridSpec.samples), so each is formatted once.
    """
    re, im = raster.grid.axes()
    cols = [(f"{i},", f",{x!r},") for i, x in enumerate(re.tolist())]
    names = {int(pc): pc.name.lower() for pc in PointClass}
    with _sink(out, "w") as fh:
        fh.write("i,j,re,im,status,value\n")
        for j, y in enumerate(im.tolist()):
            tail = f"{y!r},"
            cells = zip(cols, raster.status[j].tolist(), raster.value[j].tolist())
            fh.write("".join(f"{head}{j}{mid}{tail}{names[st]},{val}\n" for (head, mid), st, val in cells))
