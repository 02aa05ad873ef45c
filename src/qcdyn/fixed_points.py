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
from .maps import BRANCH_POINT_DERIVATIVE, MapParams, _radius_floor, apply_map, jacobian

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
_DEDUP = 1e-8


@dataclass(frozen=True)
class Polyline:
    """Ordered vertices of a sampled curve."""

    points: tuple[complex, ...]
    closed: bool = True

    def __post_init__(self):
        if len(self.points) < 2:
            raise DomainError("a polyline needs at least two points")
        object.__setattr__(self, "points", tuple(complex(p) for p in self.points))

    def diameter(self) -> float:
        pts = np.asarray(self.points)
        out = 0.0
        for k in range(0, len(pts), 512):
            chunk = pts[k : k + 512]
            out = max(out, float(np.abs(chunk[:, None] - pts[None, :]).max()))
        return out


@dataclass(frozen=True)
class FixedPointRecord:
    """A located fixed point with its derivative data and stability class."""

    z: complex
    eigenvalues: tuple[complex, complex]
    cls: str
    det: float
    trace: float


def _require_curve_alpha(alpha: float) -> None:
    if not alpha > 0.5:
        raise DomainError("fixed-point curve formulas require alpha > 1/2")


def param_for_fixed_point(alpha: float, z: complex) -> complex:
    """The parameter c = p(z) for which z is fixed; p(0) = 0 by continuity."""
    if z == 0:
        return 0j
    try:
        return z - abs(z) ** (2.0 * alpha - 2.0) * (z * z)
    except OverflowError:  # |z|^{2a-2} overflows for tiny |z|; (|z|^{a-1} z)^2 does not
        u = abs(z) ** (alpha - 1.0) * z
        return z - u * u


def param_jacobian(alpha: float, z: complex) -> np.ndarray:
    """Real 2x2 derivative of p at z, i.e. I - Df (any c; the constant drops)."""
    return np.eye(2) - jacobian(MapParams(alpha, 0), z).m


def delta_circle(alpha: float) -> float:
    """Radius (4a)^{1/(2-4a)} of the circle where det Df = 1; DomainError
    where it underflows to 0 (alpha just above 1/2)."""
    _require_curve_alpha(alpha)
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
    _require_curve_alpha(alpha)
    ct = math.cos(theta)
    if ct <= 0.0:
        return []
    disc = (alpha + 1.0) ** 2 * ct * ct - 4.0 * alpha
    if disc < 0.0:
        return []
    e = 1.0 / (2.0 * alpha - 1.0)
    if disc == 0.0:
        return [((alpha + 1.0) * ct / (4.0 * alpha)) ** e]
    s = math.sqrt(disc)
    u_lo = ((alpha + 1.0) * ct - s) / (4.0 * alpha)
    u_hi = ((alpha + 1.0) * ct + s) / (4.0 * alpha)
    return [u_lo**e, u_hi**e]


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


def _newton_fixed_point(p: MapParams, z0: complex) -> tuple[complex | None, bool]:
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


def _record(p: MapParams, z: complex) -> FixedPointRecord:
    jac = jacobian(p, z)
    return FixedPointRecord(
        z=z,
        eigenvalues=jac.eigenvalues,
        cls=classify_eigenvalues(jac.eigenvalues),
        det=jac.det,
        trace=jac.trace,
    )


def find_fixed_points(
    p: MapParams, extra_seeds: tuple[complex, ...] = ()
) -> list[FixedPointRecord]:
    """All fixed points found by multi-start Newton, deduplicated and classified.

    Seeds: a 24x24 polar grid over the disk |z| <= 2^{1/(2a-1)} (which contains
    every fixed point of locus parameters) capped at NEWTON_BOUND, the two
    quadratic-case roots of z^2 - z + c, and any extra_seeds.  Emits
    ConvergenceWarning if some seeds stall without converging or diverging.
    """
    _require_curve_alpha(p.alpha)
    radius = min(_radius_floor(p.alpha), NEWTON_BOUND)
    seeds: list[complex] = []
    for k in range(24):
        r = radius * (k + 1) / 24.0
        for j in range(24):
            seeds.append(r * cmath.exp(2j * math.pi * j / 24.0))
    disc = cmath.sqrt(1.0 - 4.0 * p.c)
    seeds.extend([(1.0 + disc) / 2.0, (1.0 - disc) / 2.0])
    seeds.extend(extra_seeds)

    roots: list[complex] = []
    stalled = 0
    for seed in seeds:
        z, stall = _newton_fixed_point(p, seed)
        if z is None:
            stalled += stall
            continue
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
    ct = math.cos(theta)
    disc = max(0.0, (alpha + 1.0) ** 2 * ct * ct - 4.0 * alpha)
    s = math.sqrt(disc)
    u = ((alpha + 1.0) * ct + (s if branch else -s)) / (4.0 * alpha)
    r = u ** (1.0 / (2.0 * alpha - 1.0))
    return r * cmath.exp(1j * theta)


def trace_curve(alpha: float, which: str, n: int) -> Polyline:
    """Sample the source curve (delta circle or gamma loops) as a closed polyline."""
    _require_curve_alpha(alpha)
    if n < 16:
        raise DomainError("need at least 16 samples")
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


def detect_cusps(
    alpha: float, n: int = 4096, which: str = GAMMA_PLUS
) -> list[complex]:
    """Cusps of the curve image under p: points where the pushed-forward
    tangent reverses direction (the curve tangent falls in ker Dp).

    Returns the cusp locations in the c-plane.  gamma- yields an empty list
    (its image is an immersed circle); gamma+ has three cusps for alpha != 1.
    """
    _require_curve_alpha(alpha)
    if alpha == 1.0:
        raise DomainError("cusp detection is degenerate at alpha = 1")
    if which == GAMMA_MINUS:
        loop = lambda a, t: -_gamma_plus_loop(a, t)  # noqa: E731
    elif which == GAMMA_PLUS:
        loop = _gamma_plus_loop
    else:
        raise DomainError(f"unknown curve {which!r}")

    h0 = 0.25 / n

    def push(t: float, h: float) -> np.ndarray:
        za, zb = loop(alpha, t - h), loop(alpha, t + h)
        tan = zb - za
        return param_jacobian(alpha, loop(alpha, t)) @ np.array([tan.real, tan.imag])

    # offset grid: the real cusp sits exactly at quarter parameters, where an
    # aligned sample would land on the zero of v and leave both neighbouring
    # dot products at noise level
    ts = [(k + 0.5) / n for k in range(n)]
    vs = [push(t, h0) for t in ts]
    cusps: list[complex] = []
    for k in range(n):
        v0, v1 = vs[k], vs[(k + 1) % n]
        if float(v0 @ v1) >= 0.0:
            continue
        lo, hi = ts[k], ts[k] + 1.0 / n
        vref = v0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            hm = max(1e-12, (hi - lo) * 0.01)
            vm = push(mid, hm)
            if float(vm @ vref) > 0.0:
                lo = mid
            else:
                hi = mid
        t_star = 0.5 * (lo + hi)
        c = param_for_fixed_point(alpha, loop(alpha, t_star))
        if all(abs(c - other) > 1e-6 for other in cusps):
            cusps.append(c)
    cusps.sort(key=lambda w: (w.real, w.imag))
    return cusps


def injectivity_probe(alpha: float, n_pairs: int, rng_seed: int) -> bool:
    """Sample random pairs in the left half-disk {Re z <= 0, |z| <= 3} and
    verify their p-images stay apart (tolerance scaled by the local Dp norm)."""
    _require_curve_alpha(alpha)
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
    p1 = z1 - np.abs(z1) ** (2.0 * alpha - 2.0) * z1 * z1
    p2 = z2 - np.abs(z2) ** (2.0 * alpha - 2.0) * z2 * z2
    for a, b, pa, pb in zip(z1, z2, p1, p2):
        scale = max(
            1.0,
            float(np.linalg.norm(param_jacobian(alpha, complex(a)))),
            float(np.linalg.norm(param_jacobian(alpha, complex(b)))),
        )
        if abs(pa - pb) <= 1e-12 * scale:
            return False
    return True
