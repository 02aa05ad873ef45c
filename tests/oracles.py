"""Independent reference computations the test suite checks the library against.

Everything here deliberately avoids the code paths it verifies: derivatives
come from finite differences of the plain map evaluation, Taylor coefficients
from circle sampling and Fourier separation, and fixed-point censuses from an
exhaustive residual grid scan polished by a Newton iteration of its own that
solves with the real 2x2 Jacobian matrix, and cusps from a sign-change sweep
of the pushed-forward tangent with bisection.  The Hopf number comes from
Kuznetsov's explicit Neimark-Sacker coefficient c1, not from the library's
homological conjugation.  The census's lane-parallel Newton
is checked bit for bit against the scalar per-seed loop it replaced, kept
here over the scalar apply_map, jacobian and WirtingerPair.newton_step.
The raster's attractor period search and its cell CSV writer are checked
against the versions they replaced, kept here verbatim.
The small helpers at the end (jet evaluation, polyline diameter, pixel
diagonal) serve only the tests, so they live here rather than in the library.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
from scipy import ndimage

from qcdyn.errors import DomainError, NoConvergence
from qcdyn.fixed_points import (
    _DEDUP,
    _NEWTON_STEPS,
    _NEWTON_TOL,
    GAMMA_MINUS,
    GAMMA_PLUS,
    NEWTON_BOUND,
    _gamma_plus_loop,
    _record,
    param_for_fixed_point,
)
from qcdyn.jets import Jet3
from qcdyn.maps import BRANCH_POINT_DERIVATIVE, MapParams, _radius_floor, apply_map, jacobian, require_alpha
from qcdyn.render import GridSpec


def fd_jacobian(p: MapParams, z: complex, h: float | None = None) -> np.ndarray:
    """Central-difference 2x2 Jacobian of f at z.

    The additive constant (zero derivative) is dropped before differencing:
    near the branch point the map value is dominated by c while the local
    variation is tiny, and adding c first would round the signal away.
    """
    if h is None:
        h = 1e-6 * max(1.0, abs(z))
    p0 = MapParams(p.alpha, 0)
    g = lambda w: apply_map(p0, w)  # noqa: E731
    fxp, fxm = g(z + h), g(z - h)
    fyp, fym = g(z + 1j * h), g(z - 1j * h)
    return np.array(
        [
            [(fxp.real - fxm.real) / (2 * h), (fyp.real - fym.real) / (2 * h)],
            [(fxp.imag - fxm.imag) / (2 * h), (fyp.imag - fym.imag) / (2 * h)],
        ]
    )


def fd_jet(alpha: float, z0: complex, m: int = 64, degmax: int = 9) -> np.ndarray:
    """Degree-3 Taylor coefficients of f(z0 + .) - f(z0) in (dz, conj dz).

    Samples the map on circles around z0 and separates monomials by their
    Fourier mode j - k; radii and nuisance powers up to degmax absorb the
    higher-order terms that alias into each mode.
    """
    p = MapParams(alpha, 0)
    base = apply_map(p, z0)
    radii = [abs(z0) * s for s in (0.02, 0.03, 0.045, 0.0675, 0.1, 0.15)]
    four = []
    for rho in radii:
        samp = np.array(
            [apply_map(p, z0 + rho * cmath.exp(2j * math.pi * t / m)) - base for t in range(m)]
        )
        four.append(np.fft.fft(samp) / m)
    out = np.zeros((4, 4), np.complex128)
    groups: dict[int, list[tuple[int, int]]] = {}
    for j in range(4):
        for k in range(4 - j):
            if j + k:
                groups.setdefault(j - k, []).append((j, k))
    for nu, jks in groups.items():
        degs = [d for d in range(max(1, abs(nu)), degmax + 1) if (d - abs(nu)) % 2 == 0]
        a = np.array([[rho**d for d in degs] for rho in radii], dtype=np.complex128)
        rhs = np.array([f[nu % m] for f in four])
        sol, *_ = np.linalg.lstsq(a, rhs, rcond=None)
        for j, k in jks:
            out[j, k] = sol[degs.index(j + k)]
    return out


def _search_box(p: MapParams) -> float:
    # no fixed point can satisfy |z|^{2a} - |z| > |c|
    b = 1.5
    while b ** (2 * p.alpha) - b <= abs(p.c) + 0.1:
        b *= 1.25
    return b


def matrix_newton_fixed_point(p: MapParams, z0: complex) -> tuple[complex | None, bool]:
    """Newton for f(z) = z from one seed, solving with the real 2x2 Jacobian
    by Cramer's rule (60 steps, residual tolerance 1e-13, divergence at 1e6).

    Returns (root, stalled) like the library census's own Newton.
    """
    z = z0
    for _ in range(60):
        if abs(z) > 1e6 or not (math.isfinite(z.real) and math.isfinite(z.imag)):
            return None, False
        fval = apply_map(p, z) - z
        if abs(fval) < 1e-13:
            return z, False
        if z == 0:
            a = -np.eye(2)  # derivative of f - id at the branch point
        else:
            a = jacobian(p, z).m - np.eye(2)
        det = a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
        if abs(det) < 1e-300:
            return None, False
        bx, by = -fval.real, -fval.imag
        dx = (bx * a[1, 1] - by * a[0, 1]) / det
        dy = (by * a[0, 0] - bx * a[1, 0]) / det
        z = z + complex(dx, dy)
    return None, True


def scalar_newton_fixed_point(p: MapParams, z0: complex) -> tuple[complex | None, bool]:
    """Newton for f(z) = z from one seed.

    Returns (root, stalled): root is None on failure; stalled distinguishes
    running out of steps from diverging, overflowing or a singular step.
    """
    z = z0
    try:
        for _ in range(_NEWTON_STEPS):
            if abs(z) > NEWTON_BOUND or not cmath.isfinite(z):
                return None, False
            fval = apply_map(p, z) - z
            if abs(fval) < _NEWTON_TOL:
                return z, False
            df = jacobian(p, z) if z != 0 else BRANCH_POINT_DERIVATIVE
            z = z + df.newton_step(fval)
    except (NoConvergence, OverflowError):
        return None, False
    return None, True


def scalar_census_seeds(p: MapParams, extra_seeds=()) -> list[complex]:
    """The census's Newton starts, built one Python complex at a time."""
    radius = min(_radius_floor(p.alpha), NEWTON_BOUND)
    seeds: list[complex] = []
    for k in range(24):
        r = radius * (k + 1) / 24.0
        for j in range(24):
            seeds.append(r * cmath.exp(2j * math.pi * j / 24.0))
    disc = cmath.sqrt(1.0 - 4.0 * p.c)
    seeds.extend([(1.0 + disc) / 2.0, (1.0 - disc) / 2.0])
    seeds.extend(extra_seeds)
    return seeds


def distinct_roots_in_seed_order(zs) -> list[complex]:
    """The census's dedup as a plain loop: each z in turn, kept when it is
    farther than _DEDUP from every root kept before it."""
    roots: list[complex] = []
    for z in zs:
        if all(abs(z - r) > _DEDUP for r in roots):
            roots.append(z)
    return roots


def scalar_census(p: MapParams, extra_seeds=()):
    """find_fixed_points over scalar_newton_fixed_point: (records, stalled count)."""
    converged: list[complex] = []
    stalled = 0
    for seed in scalar_census_seeds(p, extra_seeds):
        z, stall = scalar_newton_fixed_point(p, seed)
        if z is None:
            stalled += stall
            continue
        converged.append(z)
    roots = distinct_roots_in_seed_order(converged)
    roots.sort(key=lambda w: (w.real, w.imag))
    return [_record(p, z) for z in roots], stalled


def label_minimum_positions(values: np.ndarray, labels: np.ndarray, nlab: int) -> list[tuple[int, ...]]:
    """ndimage.minimum_position(values, labels, range(1, nlab + 1)) over the
    labelled pixels only, without argsorting the whole grid.

    Ties go to the first pixel in row-major order, ndimage's documented "first
    minimum"; its labelled path breaks exact ties by an unstable argsort of
    the whole grid, so the two agree wherever a label's minimum is unique.
    """
    flat = np.flatnonzero(labels)
    vals = values.ravel()[flat]
    labs = labels.ravel()[flat]
    order = np.lexsort((flat, vals, labs))
    first = np.ones(order.size, dtype=bool)
    first[1:] = labs[order[1:]] != labs[order[:-1]]
    picked = flat[order[first]]
    return [tuple(int(v) for v in np.unravel_index(k, values.shape)) for k in picked]


def residual_grid(p: MapParams, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n x n grid over the search box and |f(z) - z| on it."""
    b = _search_box(p)
    xs = np.linspace(-b, b, n)
    grid = xs[None, :] + 1j * xs[:, None]
    r = np.abs(grid)
    rs = np.where(r == 0, 1.0, r)
    fval = rs ** (2 * p.alpha - 2) * grid * grid + p.c
    fval[r == 0] = p.c
    return grid, np.abs(fval - grid)


def brute_force_fixed_points(p: MapParams, n: int = 2000):
    """Exhaustive census: scan |f(z) - z| on an n x n grid over the search box,
    cluster sub-threshold pixels, add strict local minima as safety seeds, and
    polish every candidate by matrix_newton_fixed_point.  Returns records
    like find_fixed_points.
    """
    grid, resid = residual_grid(p, n)
    seeds: list[complex] = []
    mask = resid < 1e-3
    if mask.any():
        labels, nlab = ndimage.label(mask)
        for pos in label_minimum_positions(resid, labels, nlab):
            seeds.append(complex(grid[pos]))
    # interior pixels below 0.05 in row-major order, kept where no neighbour is lower
    rows, cols = np.nonzero(resid[1:-1, 1:-1] < 0.05)
    rows, cols = rows + 1, cols + 1
    centre = resid[rows, cols]
    local_min = np.ones(rows.size, dtype=bool)
    for dj in (-1, 0, 1):
        for di in (-1, 0, 1):
            if dj == di == 0:
                continue
            local_min &= centre <= resid[rows + dj, cols + di]
    for j, i in zip(rows[local_min], cols[local_min]):
        seeds.append(complex(grid[j, i]))

    roots: list[complex] = []
    for s in seeds:
        z, _ = matrix_newton_fixed_point(p, s)
        if z is None:
            continue
        if all(abs(z - other) > 1e-8 for other in roots):
            roots.append(z)
    roots.sort(key=lambda w: (w.real, w.imag))
    return [_record(p, z) for z in roots]


def census_signature(records, digits: int = 7):
    return sorted((round(r.z.real, digits), round(r.z.imag, digits), r.cls) for r in records)


def _segments_cross(a1, a2, b1, b2) -> bool:
    def orient(p, q, r):
        return (q.real - p.real) * (r.imag - p.imag) - (q.imag - p.imag) * (r.real - p.real)

    d1, d2 = orient(a1, a2, b1), orient(a1, a2, b2)
    d3, d4 = orient(b1, b2, a1), orient(b1, b2, a2)
    return d1 * d2 < 0 and d3 * d4 < 0


def count_self_intersections(points) -> int:
    """Number of transversal crossings between non-adjacent closed-polyline edges."""
    n = len(points)
    edges = [(points[i], points[(i + 1) % n]) for i in range(n)]
    count = 0
    for i in range(n):
        for j in range(i + 2, n):
            if i == 0 and j == n - 1:
                continue
            if _segments_cross(*edges[i], *edges[j]):
                count += 1
    return count


def detect_cusps_sweep(
    alpha: float, n: int = 4096, which: str = GAMMA_PLUS
) -> list[complex]:
    """Cusps of the curve image under p: points where the pushed-forward
    tangent reverses direction (the curve tangent falls in ker Dp).

    Returns the cusp locations in the c-plane.  gamma- yields an empty list
    (its image is an immersed circle); gamma+ has three cusps for alpha != 1.
    """
    require_alpha(alpha, strict=True)
    if alpha == 1.0:
        raise DomainError("cusp detection is degenerate at alpha = 1")
    if which == GAMMA_MINUS:
        loop = lambda a, t: -_gamma_plus_loop(a, t)  # noqa: E731
    elif which == GAMMA_PLUS:
        loop = _gamma_plus_loop
    else:
        raise DomainError(f"unknown curve {which!r}")

    h0 = 0.25 / n
    p0 = MapParams(alpha, 0)

    def push(t: float, h: float) -> complex:
        """Dp (tan) = tan - Df (tan) for the central-difference tangent at t."""
        tan = loop(alpha, t + h) - loop(alpha, t - h)
        df = jacobian(p0, loop(alpha, t))
        return tan - (df.fz * tan + df.fzbar * tan.conjugate())

    def dot(v: complex, w: complex) -> float:
        return (v * w.conjugate()).real

    # offset grid: the real cusp sits exactly at quarter parameters, where an
    # aligned sample would land on the zero of v and leave both neighbouring
    # dot products at noise level
    ts = [(k + 0.5) / n for k in range(n)]
    vs = [push(t, h0) for t in ts]
    cusps: list[complex] = []
    for k in range(n):
        v0, v1 = vs[k], vs[(k + 1) % n]
        if dot(v0, v1) >= 0.0:
            continue
        lo, hi = ts[k], ts[k] + 1.0 / n
        vref = v0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            hm = max(1e-12, (hi - lo) * 0.01)
            vm = push(mid, hm)
            if dot(vm, vref) > 0.0:
                lo = mid
            else:
                hi = mid
        t_star = 0.5 * (lo + hi)
        c = param_for_fixed_point(alpha, loop(alpha, t_star))
        if all(abs(c - other) > 1e-6 for other in cusps):
            cusps.append(c)
    cusps.sort(key=lambda w: (w.real, w.imag))
    return cusps


def kuznetsov_hopf_number(alpha: float, theta: float) -> float:
    """4 Re(c1/u) at the det = 1 point that hopf_number selects by theta.

    c1 is the Neimark-Sacker cubic coefficient (Kuznetsov, Elements of
    Applied Bifurcation Theory, 4.7) read off the jet after coord_change1,
    whose Taylor coefficients g_jk are j! k! times the jet's; the factor 4
    converts to hopf_number's normalisation L1 = 2z + ...  Only meaningful
    where hopf_number returns a value.
    """
    from qcdyn.jets import coord_change1, jet_of_map

    x = math.cos(theta) * (4.0 * alpha) ** ((alpha - 1.0) / (2.0 * alpha - 1.0)) / (alpha + 1.0)
    z0 = (4.0 * alpha) ** (1.0 / (2.0 - 4.0 * alpha)) * cmath.exp(1j * math.acos(x))
    g = coord_change1(jet_of_map(alpha, z0))
    u = g[1, 0]
    ub = u.conjugate()
    g20, g11, g02, g21 = 2.0 * g[2, 0], g[1, 1], 2.0 * g[0, 2], 2.0 * g[2, 1]
    c1 = (
        g20 * g11 * (1.0 - 2.0 * u) / (2.0 * (u * u - u))
        + abs(g11) ** 2 / (1.0 - ub)
        + abs(g02) ** 2 / (2.0 * (u * u - ub))
        + g21 / 2.0
    )
    return 4.0 * (c1 / u).real


def classify_reference(p: MapParams, z0: complex, max_iter: int, mode: str):
    """Plain-Python re-implementation of the classification loop (same contract)."""
    from qcdyn.render import ATTRACTOR_DETECT, CYCLE_RUNS, CYCLE_WINDOW, MAX_PERIOD, TOL_CYCLE
    from qcdyn.render import escape_radius

    radius = escape_radius(p)
    detect = mode == ATTRACTOR_DETECT
    warmup = max(200, max_iter // 4)
    total = max(max_iter, warmup + CYCLE_WINDOW) if detect else max_iter
    window: list[complex] = []
    z = z0
    n = 0
    while True:
        if abs(z) > radius:
            if n <= max_iter:
                return ("escaped", n, abs(z))
            return ("bounded", 0, abs(z))
        if detect and warmup <= n < warmup + CYCLE_WINDOW:
            window.append(z)
        if n == total:
            break
        z = apply_map(p, z)
        n += 1
    if detect and len(window) == CYCLE_WINDOW:
        for q in range(1, MAX_PERIOD + 1):
            m0 = CYCLE_WINDOW - q - CYCLE_RUNS
            if m0 < 0:
                break
            if all(abs(window[m + q] - window[m]) < TOL_CYCLE for m in range(m0, m0 + CYCLE_RUNS)):
                return ("attracted", q, abs(z))
    return ("bounded", 0, abs(z))


def classify_block_reference(
    alpha: float,
    c: np.ndarray | complex,
    z0: np.ndarray,
    max_iter: int,
    mode: str,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The vectorised escape kernel as render._classify_block (now
    render._iterate) first shipped it.

    Kept verbatim (only the constants are imported) so the tuned kernel can be
    checked for bit identity in status, value and final modulus.
    """
    from qcdyn.render import (
        ATTRACTOR_DETECT,
        CYCLE_RUNS,
        CYCLE_WINDOW,
        MAX_PERIOD,
        TOL_CYCLE,
        PointClass,
    )

    z0 = np.asarray(z0, dtype=np.complex128)
    n_pts = z0.size
    z = z0.ravel().copy()
    carr = np.asarray(c, dtype=np.complex128)
    if carr.ndim == 0:
        carr = np.full(z.shape, complex(carr))
    else:
        carr = carr.astype(np.complex128).ravel().copy()
    if alpha == 0.5:
        radius = np.full(z.shape, np.inf)
    else:
        radius = np.maximum(np.abs(carr), 2.0 ** (1.0 / (2.0 * alpha - 1.0)))

    status = np.zeros(n_pts, dtype=np.int8)
    value = np.zeros(n_pts, dtype=np.int32)
    finalmod = np.zeros(n_pts, dtype=np.float64)

    detect = mode == ATTRACTOR_DETECT
    warmup = max(200, max_iter // 4)
    total = max(max_iter, warmup + CYCLE_WINDOW) if detect else max_iter

    idx = np.arange(n_pts)
    s = alpha - 1.0
    window = None

    n = 0
    while True:
        mod = np.abs(z)
        esc = mod > radius
        if esc.any():
            hit = idx[esc]
            if n <= max_iter:
                status[hit] = PointClass.ESCAPED
                value[hit] = n
            # past the escape budget the point merely leaves the disk; it
            # stays BOUNDED but is dropped from further iteration
            finalmod[hit] = mod[esc]
            keep = ~esc
            idx, z, carr, radius = idx[keep], z[keep], carr[keep], radius[keep]
            if window is not None:
                window = window[keep]
            if idx.size == 0:
                break
        if detect and n == warmup:
            window = np.empty((idx.size, CYCLE_WINDOW), dtype=np.complex128)
        if detect and warmup <= n < warmup + CYCLE_WINDOW:
            window[:, n - warmup] = z
        if n == total:
            break
        zero = z == 0
        zsafe = np.where(zero, 1.0, z)
        u = np.abs(zsafe) ** s * zsafe  # same evaluation order as apply_map
        z = u * u + carr
        np.copyto(z, carr, where=zero)
        n += 1

    if idx.size:
        finalmod[idx] = np.abs(z)
        if detect and window is not None:
            qfound = np.zeros(idx.size, dtype=np.int32)
            for q in range(1, MAX_PERIOD + 1):
                m0 = CYCLE_WINDOW - q - CYCLE_RUNS
                if m0 < 0:
                    break
                delta = window[:, m0 + q : m0 + q + CYCLE_RUNS] - window[:, m0 : m0 + CYCLE_RUNS]
                close = (np.abs(delta) < TOL_CYCLE).all(axis=1)
                fresh = close & (qfound == 0)
                qfound[fresh] = q
            att = qfound > 0
            status[idx[att]] = PointClass.ATTRACTED
            value[idx[att]] = qfound[att]

    return (
        status.reshape(z0.shape),
        value.reshape(z0.shape),
        finalmod.reshape(z0.shape),
    )


def period_search_reference(window: np.ndarray, live: np.ndarray) -> np.ndarray:
    """The attractor period search as render._iterate ran it before
    render._periods: each q gathers the CYCLE_RUNS pair rows of all pending
    lanes at once and reduces the whole (CYCLE_RUNS, lanes) block.

    Kept verbatim (only the constants are imported, and qfound is sized by
    the window) so the pair-by-pair search can be checked for equal periods.
    """
    from qcdyn.render import CYCLE_RUNS, MAX_PERIOD, TOL_CYCLE, WINDOW_ROWS

    # smallest period first; a lane leaves the search once it has one
    qfound = np.zeros(window.shape[1], dtype=np.int32)
    pending = live
    for q in range(1, MAX_PERIOD + 1):
        m0 = WINDOW_ROWS - q - CYCLE_RUNS
        if m0 < 0 or pending.size == 0:
            break
        delta = window[m0 + q : m0 + q + CYCLE_RUNS, pending] - window[m0 : m0 + CYCLE_RUNS, pending]
        close = (np.abs(delta) < TOL_CYCLE).all(axis=0)
        qfound[pending[close]] = q
        pending = pending[~close]
    return qfound


def write_cells_csv_reference(raster, fh) -> None:
    """render.write_cells_csv as it formatted every cell with one f-string,
    before it joined pre-formatted pieces.  Kept verbatim (fh is a file
    handle here) so the new writer can be checked for equal bytes."""
    from qcdyn.render import PointClass

    re, im = raster.grid.axes()
    cols = [(f"{i},", f",{x!r},") for i, x in enumerate(re.tolist())]
    names = {int(pc): pc.name.lower() for pc in PointClass}
    fh.write("i,j,re,im,status,value\n")
    for j, y in enumerate(im.tolist()):
        tail = f"{y!r},"
        cells = zip(cols, raster.status[j].tolist(), raster.value[j].tolist())
        fh.write("".join(f"{head}{j}{mid}{tail}{names[st]},{val}\n" for (head, mid), st, val in cells))


def jet_identity() -> Jet3:
    """The jet of the identity map, z."""
    return Jet3.from_terms({(1, 0): 1.0})


def evaluate_jet(jet: Jet3, z: complex) -> complex:
    """The jet's polynomial at (z, conj z)."""
    w = z.conjugate()
    total = 0j
    for j in range(4):
        for k in range(4 - j):
            c = jet.coeff[j, k]
            if c != 0:
                total += c * z**j * w**k
    return total


def polyline_diameter(points) -> float:
    """The largest distance between two vertices, in row blocks of 512."""
    pts = np.asarray(points)
    out = 0.0
    for k in range(0, len(pts), 512):
        chunk = pts[k : k + 512]
        out = max(out, float(np.abs(chunk[:, None] - pts[None, :]).max()))
    return out


def pixel_diag(grid: GridSpec) -> float:
    """The diagonal of one grid cell."""
    return float(np.hypot(grid.width / grid.nx, grid.height / grid.ny))
