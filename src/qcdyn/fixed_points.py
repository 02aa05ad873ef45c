"""Fixed points of f and the three bifurcation curves in the z-plane.

For every z there is exactly one parameter making z a fixed point,

    p(z) = z - z^{a+1} zbar^{a-1} = z - |z|^{2a-2} z^2,

and the stability boundaries pull back to explicit loci in z:

    delta    det Df = 1            circle of radius (4a)^{1/(2-4a)}
    gamma+   Df has eigenvalue +1  1 - tr + det = 0
    gamma-   Df has eigenvalue -1  1 + tr + det = 0, equal to -gamma+

Their images under p bound the parameter regions with different fixed-point
inventories; p(gamma+) carries three cusps (one real) whenever alpha != 1.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceWarning, DomainError, NoConvergence
from .maps import BRANCH_POINT_DERIVATIVE, MapParams, _radius_floor, apply_map, jacobian, require_alpha

__all__ = [
    "Polyline",
    "FixedPointRecord",
    "DELTA",
    "GAMMA_PLUS",
    "GAMMA_MINUS",
    "param_for_fixed_point",
    "param_jacobian",
    "delta_circle",
    "gamma_plus",
    "gamma_minus",
    "classify_eigenvalues",
    "find_fixed_points",
    "trace_curve",
    "trace_curve_image",
    "detect_cusps",
    "injectivity_probe",
]

DELTA = "delta"
GAMMA_PLUS = "gamma+"
GAMMA_MINUS = "gamma-"

TOL_CLS = 1e-9
_NEWTON_TOL = 1e-13
_NEWTON_STEPS = 60
NEWTON_BOUND = 1e6  # Newton iterates beyond this modulus count as diverged
_SCALAR_LANES = 16  # _newton_lanes finishes on the scalar step once this few lanes are live
MIN_SAMPLES = 16  # fewest samples trace_curve accepts
_DEDUP = 1e-8
_SEED_DIRECTIONS = [cmath.exp(2j * math.pi * j / 24.0) for j in range(24)]


@dataclass(frozen=True)
class Polyline:
    """Ordered vertices of a sampled curve."""

    points: tuple[complex, ...]
    closed: bool = True

    def __post_init__(self):
        if len(self.points) < 2:
            raise DomainError("a polyline needs at least two points")
        object.__setattr__(self, "points", tuple(complex(p) for p in self.points))


@dataclass(frozen=True)
class FixedPointRecord:
    """A located fixed point with its derivative data and stability class."""

    z: complex
    eigenvalues: tuple[complex, complex]
    cls: str
    det: float
    trace: float


def param_for_fixed_point(alpha: float, z: complex) -> complex:
    """The parameter c = p(z) for which z is fixed; p(0) = 0 by continuity."""
    if z == 0:
        return 0j
    zz = z * z
    if zz != 0:
        try:
            return z - abs(z) ** (2.0 * alpha - 2.0) * zz
        except OverflowError:
            pass
    # for tiny |z|, z*z underflows to 0 or |z|^{2a-2} overflows; (|z|^{a-1} z)^2
    # has modulus |z|^{2a}, which underflows only where it is negligible beside z
    u = abs(z) ** (alpha - 1.0) * z
    return z - u * u


def param_jacobian(alpha: float, z: complex) -> np.ndarray:
    """Real 2x2 derivative of p at z, i.e. I - Df (any c; the constant drops)."""
    return np.eye(2) - jacobian(MapParams(alpha, 0), z).m


def delta_circle(alpha: float) -> float:
    """Radius (4a)^{1/(2-4a)} of the circle where det Df = 1; DomainError
    where it underflows to 0 (alpha just above 1/2)."""
    require_alpha(alpha, strict=True)
    r = (4.0 * alpha) ** (1.0 / (2.0 - 4.0 * alpha))
    if r == 0.0:
        raise DomainError(f"the delta circle radius (4a)^(1/(2-4a)) underflows to 0 at alpha = {alpha!r}")
    return r


def gamma_plus(alpha: float, theta: float) -> list[float]:
    """Radii (0 to 2, ascending) at angle theta where Df has eigenvalue +1.

    Solves 4a u^2 - 2(a+1) u cos(theta) + 1 = 0 for u = r^{2a-1}; positive
    roots exist only for cos(theta) > 0 with cos^2 >= 4a/(a+1)^2, and the
    double root at the sector boundary is returned once.
    """
    require_alpha(alpha, strict=True)
    ct = math.cos(theta)
    if ct <= 0.0:
        return []
    disc, r_hi = _gamma_plus_radius(alpha, ct, 1)
    if disc < 0.0:
        return []
    return [r_hi] if disc == 0.0 else [_gamma_plus_radius(alpha, ct, 0)[1], r_hi]


def _gamma_plus_radius(alpha: float, ct: float, branch: int) -> tuple[float, float]:
    """For ct = cos(theta) > 0: the discriminant d = (a+1)^2 ct^2 - 4a of
    4a u^2 - 2(a+1) u ct + 1 = 0 and the radius r = u^{1/(2a-1)} at its larger
    (branch 1) or smaller (branch 0) root u, solved with d clamped at 0;
    DomainError where (a+1)^2 overflows (alpha above about 1.3e154).  The
    smaller root is 1/((a+1) ct + sqrt d) by Vieta: ((a+1) ct - sqrt d)/(4a)
    cancels to 0 for large alpha."""
    try:
        disc = (alpha + 1.0) ** 2 * ct * ct - 4.0 * alpha
    except OverflowError:
        msg = f"the gamma+ radius overflows: (a+1)^2 is out of range at alpha = {alpha!r}"
        raise DomainError(msg) from None
    q = (alpha + 1.0) * ct + math.sqrt(max(0.0, disc))
    u = q / (4.0 * alpha) if branch else 1.0 / q
    return disc, u ** (1.0 / (2.0 * alpha - 1.0))


def gamma_minus(alpha: float, theta: float) -> list[float]:
    """Radii at angle theta on the eigenvalue -1 locus; gamma- = -gamma+."""
    return gamma_plus(alpha, theta + math.pi)


def classify_eigenvalues(eigs: tuple[complex, complex], tol: float = TOL_CLS) -> str:
    m1, m2 = abs(eigs[0]), abs(eigs[1])
    lo, hi = min(m1, m2), max(m1, m2)
    if hi < 1.0 - tol:
        return "attracting"
    if lo > 1.0 + tol:
        return "repelling"
    if lo < 1.0 - tol and hi > 1.0 + tol:
        return "saddle"
    return "neutral"


def _newton_lanes(p: MapParams, seeds: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Newton for f(z) = z from every seed at once, one numpy lane per seed.

    Each lane repeats the scalar iteration z <- z + (Df(z) - id)^{-1} (z - f(z))
    of apply_map, wirtinger and WirtingerPair.newton_step bit for bit in the
    finite case: moduli are np.hypot (Python's abs), real powers
    np.float_power (Python's **), and complex products and quotients are
    written out in real and imaginary parts in CPython's order.  A lane stops
    as a root once |f(z) - z| < 1e-13 and fails when |z| > NEWTON_BOUND or z
    is not finite.  A lane at the branch point z = 0, or whose step overflows
    or is singular (|f(z) - z| or det(Df - id) not finite, or
    |det(Df - id)| < 1e-300), finishes its remaining steps on the scalar
    iteration itself (_scalar_newton), bit for bit by construction; so do
    the live lanes once at most _SCALAR_LANES are left, as a numpy step costs
    about the same whatever the lane count, some 30 scalar steps' worth.
    A lane still live after 60 steps stalls.

    Returns (roots, converged, stalled): the root of each converged seed
    (nan elsewhere), the converged mask, and the number of stalled seeds.
    """
    seeds = np.asarray(seeds, dtype=np.complex128).ravel()
    found = np.full((seeds.size, 2), np.nan)  # (re, im) rows, viewed as complex at the end
    x, y = seeds.real.copy(), seeds.imag.copy()
    idx = np.arange(seeds.size)
    e_map, e_jac = p.alpha - 1.0, 2.0 * p.alpha - 1.0
    k_z, k_zbar = p.alpha + 1.0, p.alpha - 1.0
    cr, ci = p.c.real, p.c.imag
    drop = np.zeros(seeds.size, dtype=bool)
    handed = []  # (seed indices, x, y, steps left) of the lanes _scalar_newton finishes
    stalled = 0
    with np.errstate(all="ignore"):
        for step in range(_NEWTON_STEPS):
            r = np.hypot(x, y)
            keep = ~drop & (r <= NEWTON_BOUND)  # False for nan and inf moduli
            if np.count_nonzero(keep) < keep.size:
                x, y, r, idx = x[keep], y[keep], r[keep], idx[keep]
            if idx.size <= _SCALAR_LANES:
                handed.append((idx, x, y, _NEWTON_STEPS - step))
                break
            # apply_map: u = |z|^(a-1) z (float times complex), f - z = u u + c - z
            zx, zy = 0.0 * x, 0.0 * y  # the zero parts' products, kept for signed zeros
            s = np.float_power(r, e_map)
            ur = s * x - zy
            ui = s * y + zx
            fr = ur * ur - ui * ui + cr - x
            fi = ur * ui + ui * ur + ci - y
            fabs = np.hypot(fr, fi)
            # wirtinger: v = z / |z| (Smith's quotient by |z| + 0j),
            # fz = (a+1) s2 v, fzbar = (a-1) s2 v^3; newton_step takes a = fz - 1
            s2 = np.float_power(r, e_jac)
            vr = (x + zy) / r
            vi = (y - zx) / r
            sq_r = vr * vr - vi * vi
            sq_i = vr * vi + vi * vr
            cube_r = sq_r * vr - sq_i * vi
            cube_i = sq_r * vi + sq_i * vr
            k1, k2 = k_z * s2, k_zbar * s2
            # fz.real is k1 vr - 0.0 vi; once 1 is subtracted the zero product
            # cannot change the result, as vi is finite
            ar = k1 * vr - 1.0
            ai = k1 * vi + 0.0 * vr
            br = k2 * cube_r - 0.0 * cube_i
            bi = k2 * cube_i + 0.0 * cube_r
            # newton_step: det = |a|^2 - |b|^2, v = (b conj(r) - conj(a) r) / (det + 0j)
            amod, bmod = np.hypot(ar, ai), np.hypot(br, bi)
            det = np.float_power(amod, 2.0) - np.float_power(bmod, 2.0)
            hand = np.abs(det) < 1e-300
            # every OverflowError of the scalar step leaves fabs or det infinite
            # or nan, and so does z = 0, where v is 0/0
            if not math.isfinite((fabs + det).sum()):
                hand |= ~(np.isfinite(fabs) & np.isfinite(det))
            conv = fabs < _NEWTON_TOL
            if np.count_nonzero(hand):
                handed.append((idx[hand], x[hand], y[hand], _NEWTON_STEPS - step))
                conv &= ~hand
            if np.count_nonzero(conv):
                found[idx[conv], 0] = x[conv]
                found[idx[conv], 1] = y[conv]
            drop = conv | hand
            # conj(r) and conj(a) negate exactly, so x - (-y) is x + y bit for bit;
            # the quotient's denominator det + 0 * ratio is det itself
            nr = (br * fr + bi * fi) - (ar * fr + ai * fi)
            ni = (bi * fr - br * fi) - (ar * fi - ai * fr)
            ratio = 0.0 / det
            x = x + (nr + ni * ratio) / det
            y = y + (ni - nr * ratio) / det
        else:
            stalled = int(np.count_nonzero(~drop))
    for ids, xs, ys, steps in handed:
        for k, zr, zi in zip(ids.tolist(), xs.tolist(), ys.tolist()):
            root, stall = _scalar_newton(p, complex(zr, zi), steps)
            if root is not None:
                found[k] = root.real, root.imag
            stalled += stall
    return found.view(np.complex128).ravel(), ~np.isnan(found[:, 0]), stalled


def _scalar_newton(p: MapParams, z: complex, steps: int) -> tuple[complex | None, bool]:
    """At most `steps` Newton steps for f(z) = z from z, with the lanes' rules:
    (root, False) on convergence, (None, True) when the steps run out, and
    (None, False) on divergence, overflow or a singular step."""
    try:
        for _ in range(steps):
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


def _record(p: MapParams, z: complex) -> FixedPointRecord:
    jac = jacobian(p, z)
    return FixedPointRecord(
        z=z,
        eigenvalues=jac.eigenvalues,
        cls=classify_eigenvalues(jac.eigenvalues),
        det=jac.det,
        trace=jac.trace,
    )


def _census_seeds(p: MapParams, extra_seeds: tuple[complex, ...] = ()) -> np.ndarray:
    """The census's Newton starts in order: the polar grid ring by ring, the
    two roots of z^2 - z + c, then extra_seeds."""
    radius = min(_radius_floor(p.alpha), NEWTON_BOUND)
    seeds = [radius * (k + 1) / 24.0 * w for k in range(24) for w in _SEED_DIRECTIONS]
    disc = cmath.sqrt(1.0 - 4.0 * p.c)
    seeds.extend([(1.0 + disc) / 2.0, (1.0 - disc) / 2.0])
    seeds.extend(extra_seeds)
    return np.array(seeds, dtype=np.complex128)


def find_fixed_points(
    p: MapParams, extra_seeds: tuple[complex, ...] = ()
) -> list[FixedPointRecord]:
    """All fixed points found by multi-start Newton (every seed at once, see
    _newton_lanes), deduplicated in seed order and classified.

    Seeds: a 24x24 polar grid over the disk |z| <= 2^{1/(2a-1)} (which contains
    every fixed point of locus parameters) capped at NEWTON_BOUND, the two
    quadratic-case roots of z^2 - z + c, and any extra_seeds.  Emits
    ConvergenceWarning if some seeds stall without converging or diverging.
    """
    require_alpha(p.alpha, strict=True)
    roots: list[complex] = []
    lanes, converged, stalled = _newton_lanes(p, _census_seeds(p, extra_seeds))
    for z in lanes[converged].tolist():
        if all(abs(z - r) > _DEDUP for r in roots):
            roots.append(z)
    if stalled:
        warnings.warn(
            f"{stalled} Newton starts stalled without converging or diverging",
            ConvergenceWarning,
        )
    roots.sort(key=lambda w: (w.real, w.imag))
    return [_record(p, z) for z in roots]


def _gamma_plus_sector(alpha: float) -> float:
    """Half-opening angle of the gamma+ sector about the positive real axis."""
    arg = 2.0 * math.sqrt(alpha) / (alpha + 1.0)
    return math.acos(min(1.0, arg))


def _gamma_plus_loop(alpha: float, t: float) -> complex:
    """Closed-loop parametrisation of gamma+ by t in [0, 1).

    First half sweeps the sector on the larger root, second half returns on
    the smaller one; the halves join where the discriminant vanishes.
    """
    ts = _gamma_plus_sector(alpha)
    t = t % 1.0
    if t < 0.5:
        theta = ts * (4.0 * t - 1.0)
        branch = 1
    else:
        theta = ts * (3.0 - 4.0 * t)
        branch = 0
    r = _gamma_plus_radius(alpha, math.cos(theta), branch)[1]
    return r * cmath.exp(1j * theta)


def trace_curve(alpha: float, which: str, n: int) -> Polyline:
    """Sample the source curve (delta circle or gamma loops) as a closed polyline."""
    require_alpha(alpha, strict=True)
    if n < MIN_SAMPLES:
        raise DomainError(f"need at least {MIN_SAMPLES} samples")
    if which == DELTA:
        r = delta_circle(alpha)
        pts = [r * cmath.exp(2j * math.pi * k / n) for k in range(n)]
    elif which == GAMMA_PLUS:
        pts = [_gamma_plus_loop(alpha, k / n) for k in range(n)]
    elif which == GAMMA_MINUS:
        pts = [-_gamma_plus_loop(alpha, k / n) for k in range(n)]
    else:
        raise DomainError(f"unknown curve {which!r}")
    return Polyline(tuple(pts), closed=True)


def trace_curve_image(alpha: float, which: str, n: int) -> Polyline:
    """The image under p of the sampled curve: the bifurcation locus in the c-plane."""
    src = trace_curve(alpha, which, n)
    return Polyline(
        tuple(param_for_fixed_point(alpha, z) for z in src.points), closed=True
    )


def detect_cusps(alpha: float, which: str = GAMMA_PLUS) -> list[complex]:
    """Cusps of the curve image under p, in closed form, sorted by (re, im).

    Write z = r e^{i theta} and u = r^{2a-1}.  In the frame (e^{i theta},
    i e^{i theta}) Df acts as R(theta) diag(2au, 2u), so gamma+ is the curve
    4a u^2 - 2(a+1) u cos(theta) + 1 = 0, and a cusp of p(gamma+) is a point
    where its tangent lies in ker(I - Df).  Solving that condition gives the
    real cusp at theta = 0, u = 1/2, where c = z/2 = 2^{-2a/(2a-1)}, and a
    conjugate pair at u = (6a-2)^{-1/2}, cos(theta) = (5a-1) u/(a+1),
    sin(theta) = |a-1| u sqrt(6a-3)/(a+1), where c = z (1 - u e^{i theta})
    (p(z) without |z|^{2a-2}).  The three merge at c = 1/4 when a = 1, which
    raises DomainError, as does alpha above about 3e307, where the formula
    overflows.  gamma- yields an empty list: there Df has the eigenvalues -1
    and -det = -4a u^2, never 1, so p immerses it.
    """
    require_alpha(alpha, strict=True)
    if alpha == 1.0:
        raise DomainError("cusp detection is degenerate at alpha = 1")
    if which == GAMMA_MINUS:
        return []
    if which != GAMMA_PLUS:
        raise DomainError(f"unknown curve {which!r}")
    d = 2.0 * alpha - 1.0  # exact near 1/2, where the power 1/d amplifies every error
    real = 0.5 ** (1.0 / d) / 2.0
    u = (1.0 + 3.0 * d) ** -0.5
    cos_t = (5.0 * alpha - 1.0) * u / (alpha + 1.0)
    sin_t = abs(alpha - 1.0) * u * math.sqrt(3.0 * d) / (alpha + 1.0)
    r = math.exp(-math.log1p(3.0 * d) / (2.0 * d))  # u^{1/d}, without rounding u first
    w = complex(cos_t, sin_t)
    c = r * w * (1.0 - u * w)
    if not cmath.isfinite(c):
        raise DomainError(f"the cusp formula overflows at alpha = {alpha!r}")
    return sorted([complex(real, 0.0), c, c.conjugate()], key=lambda v: (v.real, v.imag))


def injectivity_probe(alpha: float, n_pairs: int, rng_seed: int) -> bool:
    """Sample random pairs in the left half-disk {Re z <= 0, |z| <= 3} and
    verify their p-images stay apart (tolerance scaled by the local Dp norm)."""
    require_alpha(alpha, strict=True)
    if n_pairs < 0 or rng_seed < 0:
        raise DomainError(f"pair count and seed must be >= 0, got {n_pairs!r} and {rng_seed!r}")
    rng = np.random.default_rng(rng_seed)

    def draw(k: int) -> np.ndarray:
        out = np.empty(k, dtype=np.complex128)
        filled = 0
        while filled < k:
            x = rng.uniform(-3.0, 0.0, k)
            y = rng.uniform(-3.0, 3.0, k)
            z = x + 1j * y
            z = z[np.abs(z) <= 3.0]
            take = min(k - filled, z.size)
            out[filled : filled + take] = z[:take]
            filled += take
        return out

    z1 = draw(n_pairs)
    z2 = draw(n_pairs)
    sep = np.abs(z1 - z2)
    good = sep > 1e-9  # discard near-coincident draws; they carry no information
    z1, z2 = z1[good], z2[good]
    with np.errstate(over="ignore", invalid="ignore"):
        p1 = z1 - np.abs(z1) ** (2.0 * alpha - 2.0) * z1 * z1
        p2 = z2 - np.abs(z2) ** (2.0 * alpha - 2.0) * z2 * z2
        scale = np.maximum(1.0, np.maximum(_param_jacobian_norm(alpha, z1), _param_jacobian_norm(alpha, z2)))
    # an infinite image or scale would make every pair look like a collision
    if not (np.isfinite(p1).all() and np.isfinite(p2).all() and np.isfinite(scale).all()):
        raise DomainError(
            f"the injectivity probe overflows: p or Dp is out of range on |z| <= 3 at alpha = {alpha!r}"
        )
    return not np.any(np.abs(p1 - p2) <= 1e-12 * scale)


def _param_jacobian_norm(alpha: float, z: np.ndarray) -> np.ndarray:
    """Frobenius norm of param_jacobian at each z: I - Df is v -> (1 - f_z) v - f_zbar conj(v),
    whose real matrix has norm sqrt(2) hypot(|1 - f_z|, |f_zbar|) (no squares to overflow)."""
    mod = np.abs(z)
    s = mod ** (2.0 * alpha - 1.0)
    u = z / mod
    one_minus_fz = 1.0 - (alpha + 1.0) * s * u
    fzbar_mod = abs(alpha - 1.0) * s
    return math.sqrt(2.0) * np.hypot(np.abs(one_minus_fz), fzbar_mod)
