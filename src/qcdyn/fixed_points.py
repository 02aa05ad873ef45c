"""Fixed points of f and the three bifurcation curves in the z-plane.

For every z there is exactly one parameter making z a fixed point,

    p(z) = z - z^{a+1} zbar^{a-1} = z - |z|^{2a-2} z^2,

and the stability boundaries pull back to explicit loci in z:

    delta    det Df = 1            circle of radius (4a)^{1/(2-4a)}
    gamma+   Df has eigenvalue +1  1 - tr + det = 0
    gamma-   Df has eigenvalue -1  1 + tr + det = 0, equal to -gamma+

Their images under p bound the parameter regions with different fixed-point
inventories; p(gamma+) carries three cusps (one real) whenever alpha != 1.

The fixed-point census (find_fixed_points) rests on f doubling the
argument: off the real axis a fixed point has one real unknown,
tau = cot(arg z), so the census scans one function of tau for sign changes
and polishes each with the package's one Newton, _scalar_newton.  The
scan rounds only in +, -, *, /, hypot and float_power on floats (besides
comparisons and integer arithmetic on float bit patterns), whose results do
not depend on the SIMD level numpy dispatches to.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceWarning, DomainError, NoConvergence
# apply_map and jacobian are called through this module's names, which the
# census bench wraps to count the calls
from .maps import MapParams, WirtingerPair, apply_map, jacobian, require_alpha

__all__ = [
    "Polyline",
    "FixedPointRecord",
    "DELTA",
    "GAMMA_PLUS",
    "GAMMA_MINUS",
    "param_for_fixed_point",
    "delta_circle",
    "gamma_plus",
    "gamma_minus",
    "classify_eigenvalues",
    "find_fixed_points",
    "trace_curve",
    "trace_curve_image",
    "detect_cusps",
    "saddle_node_parameter",
    "injectivity_probe",
]

DELTA = "delta"
GAMMA_PLUS = "gamma+"
GAMMA_MINUS = "gamma-"

TOL_CLS = 1e-9
_NEWTON_TOL = 1e-13
_ROUNDING = 16 * 2.0**-52  # times the largest modulus in f^q(z) - z: its rounding floor
_NEWTON_STEPS = 60
NEWTON_BOUND = 1e6  # Newton iterates beyond this modulus count as diverged
MIN_SAMPLES = 16  # fewest samples trace_curve accepts
_DEDUP = 1e-8
_SAME_ROOT = 1e-6  # see _census_roots
# the census scan in tau = cot(arg z): a fixed grid symmetric about 0, steps of
# 1/16 up to 1 and then ratio 2^(1/8) out to 2^64, and offsets from each
# breakpoint b, fractions 2^1 ... 2^-340 of max(1, |b|) in ratio 4, both sides
# (Python's ** and ldexp, not a numpy exp2 whose rounding may follow the SIMD level)
_TAU_TAIL = np.array([2.0 ** (k / 8.0) for k in range(1, 513)])
_TAU_GRID = np.concatenate((-_TAU_TAIL[::-1], np.arange(-16, 17) / 16.0, _TAU_TAIL))
_BREAK_OFFSETS = np.ldexp(1.0, np.arange(1, -341, -2))
_BREAK_OFFSETS = np.concatenate((-_BREAK_OFFSETS, _BREAK_OFFSETS))
_ZOOM = np.arange(65) / 64.0  # the cuts of a grid cell beside a minimum of |g|
_TAU_ROUNDS = 4  # 64-part sections of each sign change of the tau scan
_EXACT = 11  # sections that reach adjacent floats


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
    double root at the sector boundary is returned once.  DomainError for
    a theta that is not finite.
    """
    require_alpha(alpha, strict=True)
    if not math.isfinite(theta):
        raise DomainError(f"theta must be finite, got {theta!r}")
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


def classify_eigenvalues(eigs: tuple[complex, complex]) -> str:
    m1, m2 = abs(eigs[0]), abs(eigs[1])
    lo, hi = min(m1, m2), max(m1, m2)
    if hi < 1.0 - TOL_CLS:
        return "attracting"
    if lo > 1.0 + TOL_CLS:
        return "repelling"
    if lo < 1.0 - TOL_CLS and hi > 1.0 + TOL_CLS:
        return "saddle"
    return "neutral"


def _section(positive, lo: np.ndarray, hi: np.ndarray, rounds: int) -> np.ndarray:
    """For brackets [lo, hi], each within one sign, across which positive (a
    boolean of the point, array in and out) changes: after `rounds` rounds,
    the end of each bracket where positive holds.

    The sections run on the bit patterns of |x|, which order the floats of
    one sign the way their values do.  Each round cuts a bracket into 64
    parts and keeps the first whose ends differ, so _EXACT = 11 rounds take
    any bracket to two adjacent floats.
    """
    side = np.where((lo < 0.0) | (hi < 0.0), -1.0, 1.0)
    a, b = np.abs(lo).view(np.int64), np.abs(hi).view(np.int64)
    a, b = np.minimum(a, b), np.maximum(a, b)
    a_holds = positive(side * a.view(np.float64))
    k = np.arange(65)
    rows = np.arange(a.size)
    for _ in range(rounds):
        gap = (b - a)[:, None]
        cuts = a[:, None] + (gap // 64) * k + (gap % 64) * k // 64
        holds = positive(side[:, None] * cuts.view(np.float64))
        j = np.argmax(holds != holds[:, :1], axis=1)
        a, b = cuts[rows, j - 1], cuts[rows, j]
    return side * np.where(a_holds, a, b).view(np.float64)


def _tau_starts(p: MapParams) -> list[complex]:
    """Newton starts for the fixed points at non-real c, all off the real
    axis, in increasing tau = cot(arg z): one for each sign change of
    g = |R|^{2a} - rho over the scan grid, sectioned _TAU_ROUNDS times.

    R is taken in factored form (see find_fixed_points), with
    q = c_i tau_+ and tau_- = -c_i / q, so that it does not cancel near its
    zeros; rho = c_r - c_i tau.  Outside the domain rho > 0 the sign reads
    positive (|R|^{2a} >= rho holds there), as G does at the domain's end,
    so a root near that end brackets like any other.  Two roots in one
    grid cell change no sign there; where |g| has a grid minimum inside the
    domain without one, both cells beside it are cut into 64 and their
    sign changes join the rest.
    """
    cr, ci = p.c.real, p.c.imag
    q = cr + math.copysign(math.hypot(cr, ci), cr)
    tau_minus = -ci / q
    two_a = 2.0 * p.alpha

    def radius_rho(tau):
        ci_tau = ci * tau
        hyp = np.hypot(1.0, tau)
        return (q - ci_tau) * ((tau - tau_minus) / hyp), hyp, cr - ci_tau

    def power_rho(tau):
        r, _, rho = radius_rho(tau)
        return np.float_power(np.abs(r), two_a), rho

    def positive(tau):
        power, rho = power_rho(tau)
        return power >= rho

    with np.errstate(all="ignore"):
        breaks = np.array([cr / ci, q / ci, tau_minus])  # rho = 0, tau_+, tau_-
        near = breaks[:, None] + np.maximum(1.0, np.abs(breaks))[:, None] * _BREAK_OFFSETS
        tau = np.concatenate((_TAU_GRID, near[np.isfinite(near)]))
        tau.sort()
        power, rho = power_rho(tau)
        pos = power >= rho
        k = np.flatnonzero(pos[1:] != pos[:-1])
        gap = np.abs(power - rho)
        dip = (gap[1:-1] < gap[:-2]) & (gap[1:-1] <= gap[2:]) & (rho[1:-1] > 0.0)
        dip = np.flatnonzero(dip & (pos[:-2] == pos[1:-1]) & (pos[2:] == pos[1:-1])) + 1
        cells = np.concatenate((dip - 1, dip))
        fine = tau[cells, None] + (tau[cells + 1] - tau[cells])[:, None] * _ZOOM
        hold = positive(fine)
        row, col = np.nonzero(hold[:, 1:] != hold[:, :-1])
        lo = np.concatenate((tau[k], fine[row, col]))
        hi = np.concatenate((tau[k + 1], fine[row, col + 1]))
        order = np.argsort(lo)
        root = _section(positive, lo[order], hi[order], _TAU_ROUNDS)
        r, hyp, _ = radius_rho(root)
        x, y = r * (root / hyp), r / hyp
    return [complex(a, b) for a, b in zip(x.tolist(), y.tolist())]


def _real_starts(p: MapParams) -> list[complex]:
    """Newton starts for every fixed point at real c.

    On the axis h(x) = x - |x|^{2a} - c_r increases on x < 0 and has its one
    maximum at x* (saddle_node_parameter's), so the sign changes of h over
    max(c_r, -NEWTON_BOUND) <= 0 <= x* <= NEWTON_BOUND bracket all its roots
    within the bound.  An end where h is 0 (x* at the saddle-node, 0 at
    c = 0) is a start; each bracket with a sign change gives the float next
    to it where h >= 0, h being taken in apply_map's operations.  Off the
    axis the pair r e^{+-it} with r^{2a} = c_r and cos t = r / (2 c_r) exists
    where that cosine is below 1; its upper point is the last start.
    """
    cr, two_a = p.c.real, 2.0 * p.alpha
    x_star = saddle_node_parameter(p.alpha)[0]

    def sign(x):  # of h: u = |x|^{a-1} x and f = u^2 + c_r, as in apply_map
        u = np.where(x == 0.0, 0.0, np.float_power(np.abs(x), p.alpha - 1.0) * x)
        return np.sign(x - (u * u + cr))

    with np.errstate(all="ignore"):
        ends = np.array([max(min(cr, 0.0), -NEWTON_BOUND), 0.0, x_star, NEWTON_BOUND])
        h = sign(ends)
        k = np.flatnonzero(h[:-1] * h[1:] < 0)
        roots = _section(lambda x: sign(x) >= 0, ends[k], ends[k + 1], _EXACT)
    starts = [complex(x) for x in np.unique(ends[h == 0]).tolist() + roots.tolist()]
    if cr > 0.0:
        r = cr ** (1.0 / two_a)
        cos_t = r / (2.0 * cr)
        if cos_t < 1.0:
            starts.append(r * complex(cos_t, math.sqrt((1.0 - cos_t) * (1.0 + cos_t))))
    return starts


def _census_starts(p: MapParams) -> list[complex]:
    """The census's Newton starts: _real_starts' at real c; at non-real c
    _tau_starts', then c and the two roots of z^2 - z + c."""
    if p.c.imag == 0:
        return _real_starts(p)
    disc = cmath.sqrt(1.0 - 4.0 * p.c)
    return _tau_starts(p) + [p.c, (1.0 + disc) / 2.0, (1.0 - disc) / 2.0]


def _census_roots(p: MapParams) -> tuple[list[complex], int]:
    """Each census start polished by _scalar_newton: the roots in start
    order, and the number of starts that stalled.

    A start of _real_starts or _tau_starts lies next to a sign change, so
    next to a root.  The fixed starts serve the roots beyond the scan's
    reach (near the real axis at tiny c_i, where tau overflows): a root of
    theirs within _SAME_ROOT max(1, |z|) of one found before is that root.
    At real c each non-real root is followed by its conjugate, a root with
    the same residual.
    """
    starts = _census_starts(p)
    scanned = len(starts) - (3 if p.c.imag else 0)
    roots, stalled = [], 0
    for k, z in enumerate(starts):
        orbit, stall = _scalar_newton(p, z, _NEWTON_STEPS)
        stalled += stall
        if orbit is None:
            continue
        if k >= scanned and any(abs(orbit[0] - w) <= _SAME_ROOT * max(1.0, abs(w)) for w in roots):
            continue
        roots.append(orbit[0])
        if p.c.imag == 0 and orbit[0].imag != 0:
            roots.append(orbit[0].conjugate())
    return roots, stalled


def _chain(p: MapParams, orbit: list[complex]) -> WirtingerPair:
    """D f^k at orbit[0], chained along orbit = [z, f(z), ..., f^{k-1}(z)]."""
    df = jacobian(p, orbit[0])
    for w in orbit[1:]:
        df = jacobian(p, w) @ df
    return df


def _scalar_newton(p: MapParams, z: complex, steps: int, q: int = 1) -> tuple[list[complex] | None, bool]:
    """At most `steps` undamped Newton steps for f^q(z) = z from z: the
    package's one Newton, which polishes the census starts (q = 1) and runs
    orbits.find_periodic_orbit.

    A step gives up once |z| > NEWTON_BOUND or z is not finite, maps z
    forward q times, stops at a root once

        |f^q(z) - z| < max(_NEWTON_TOL, 16 eps max(|z|, |f^q(z)|, |c|)),  eps = 2^-52,

    and else moves z by (D f^q(z) - id)^{-1} (z - f^q(z)), with D f^q
    chained along the orbit by _chain (Df(0) = 0, see maps.jacobian).  The
    second bound is the rounding floor of the residual: f(z) - z =
    c + u^2 - z rounds at the ulp of its largest term, so past |c| or |z|
    of about 10 a root may have no float whose residual is below 1e-13.
    It is a max, not a sum, which would overflow near |c| = 1e308.  At
    q = 1 a step is apply_map, the tolerance test, jacobian and
    newton_step.
    Returns (orbit, False) on convergence, orbit being the root's
    [z, f(z), ..., f^{q-1}(z)], (None, True) when the steps run out, and
    (None, False) on divergence, overflow or a singular step."""
    try:
        for _ in range(steps):
            if abs(z) > NEWTON_BOUND or not cmath.isfinite(z):
                return None, False
            orbit, w = [z], apply_map(p, z)
            for _ in range(q - 1):
                orbit.append(w)
                w = apply_map(p, w)
            fval = w - z
            if abs(fval) < max(_NEWTON_TOL, _ROUNDING * max(abs(z), abs(w), abs(p.c))):
                return orbit, False
            z = z + _chain(p, orbit).newton_step(fval)
    except (NoConvergence, OverflowError):
        return None, False
    return None, True


def _require_classifiable(alpha: float) -> None:
    """DomainError from alpha = 2^53 on.  There the float spacing of alpha
    passes 1, so a + 1 and a - 1 round to floats whose difference is no
    longer 2; jacobian's two moduli lose that difference with them, and an
    eigenvalue read off it (2 at z = 1, c = 0) becomes rounding noise."""
    if alpha >= 2.0**53:
        raise DomainError(
            f"alpha = {alpha!r} is 2^53 or more: a + 1 and a - 1 are not both exact floats, "
            "so eigenvalues and classes are meaningless"
        )


def _record(p: MapParams, z: complex) -> FixedPointRecord:
    jac = jacobian(p, z)
    return FixedPointRecord(
        z=z,
        eigenvalues=jac.eigenvalues,
        cls=classify_eigenvalues(jac.eigenvalues),
        det=jac.det,
        trace=jac.trace,
    )


def _distinct_roots(found: list[complex]) -> list[complex]:
    """The roots in order, less each one within _DEDUP of a root kept before it."""
    roots = []
    for z in found:
        if all(abs(z - w) > _DEDUP for w in roots):
            roots.append(z)
    return roots


def find_fixed_points(p: MapParams) -> list[FixedPointRecord]:
    """All fixed points within NEWTON_BOUND, from a scan in one real unknown
    polished by _scalar_newton, deduplicated in start order and classified.
    A root is listed once its residual |f(z) - z| is below 1e-13 or below
    its rounding floor, 16 eps max(|z|, |f(z)|, |c|) (see _scalar_newton).

    f doubles the argument, so a fixed point z = r e^{it} off the real axis
    has one unknown, tau = cot t:

        z = R (tau + i) / sqrt(1 + tau^2),  R = N / sqrt(1 + tau^2),
        N = 2 c_r tau - c_i tau^2 + c_i = -c_i (tau - tau_+)(tau - tau_-),

    where |R|^{2a} = rho = c_r - c_i tau > 0 (r = |R|, and tau_+ tau_- = -1).
    G = 2a log|R| - log rho tends to +inf where rho -> 0 and at the open end
    of its half-line, and to -inf at the zeros of R.  At non-real c every
    fixed point is off the axis: _tau_starts brackets the sign changes of
    |R|^{2a} - rho over a fixed grid and points geometric in distance from
    those breakpoints, and c and the roots of z^2 - z + c follow as fallback
    starts.  At real c, h(x) = x - |x|^{2a} - c_r has at most three roots on
    the axis, bracketed between -|c|, 0, saddle_node_parameter's x* and
    NEWTON_BOUND, and the pair off it is closed form (_real_starts); a
    non-real root is listed with its exact conjugate.  A bracket misses two
    roots inside one grid cell where |R|^{2a} - rho has no grid minimum
    beside them, and a root beyond the grid's reach in tau, near the real
    axis at tiny c_i, is found only from a fallback start.

    At c = 0 the branch point is listed as exactly 0 in place of any root
    within _DEDUP of it, and classified from Df(0) = 0 (attracting:
    |f(z)| = |z|^{2a}).  Emits ConvergenceWarning if some polish starts stall
    without converging or diverging.  Raises DomainError where a root's
    eigenvalues overflow, and else from alpha = 2^53 on, where no class is
    meaningful (see _require_classifiable).
    """
    require_alpha(p.alpha, strict=True)
    found, stalled = _census_roots(p)
    roots = _distinct_roots(found)
    if p.c == 0:  # the branch point is fixed exactly; Newton only comes near it
        roots = [0j] + [z for z in roots if abs(z) > _DEDUP]
    if stalled:
        warnings.warn(
            f"{stalled} Newton starts stalled without converging or diverging",
            ConvergenceWarning,
        )
    roots.sort(key=lambda w: (w.real, w.imag))
    records = [_record(p, z) for z in roots]
    _require_classifiable(p.alpha)  # after the eigenvalues, whose overflow is named first
    return records


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


def detect_cusps(alpha: float) -> list[complex]:
    """Cusps of the curve image p(gamma+), in closed form, sorted by (re, im).

    Write z = r e^{i theta} and u = r^{2a-1}.  In the frame (e^{i theta},
    i e^{i theta}) Df acts as R(theta) diag(2au, 2u), so gamma+ is the curve
    4a u^2 - 2(a+1) u cos(theta) + 1 = 0, and a cusp of p(gamma+) is a point
    where its tangent lies in ker(I - Df).  Solving that condition gives the
    real cusp at theta = 0, u = 1/2, where c = z/2 = 2^{-2a/(2a-1)}, and a
    conjugate pair at u = (6a-2)^{-1/2}, cos(theta) = (5a-1) u/(a+1),
    sin(theta) = |a-1| u sqrt(6a-3)/(a+1), where c = z (1 - u e^{i theta})
    (p(z) without |z|^{2a-2}).  The three merge at c = 1/4 when a = 1, which
    raises DomainError, as does alpha above about 3e307, where the formula
    overflows.  p(gamma-) has no cusps: there Df has the eigenvalues -1
    and -det = -4a u^2, never 1, so p immerses it.
    """
    require_alpha(alpha, strict=True)
    if alpha == 1.0:
        raise DomainError("cusp detection is degenerate at alpha = 1")
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


def saddle_node_parameter(alpha: float) -> tuple[float, float, float]:
    """The saddle-node of x -> |x|^{2a} + c on the real axis: (x*, c*, A).

    x* = (2a)^{-1/(2a-1)} is where the multiplier along the axis, 2a x^{2a-1},
    is 1; c* = x* (1 - 1/(2a)) makes it fixed, and A = f''(x*)/2 =
    a (2a-1) x*^{2a-2}.  Just past it, at c* + eps, an orbit needs about
    pi / sqrt(A eps) steps to pass the bottleneck (Pomeau-Manneville; at
    a = 1, where (x*, c*, A) = (1/2, 1/4, 1), this is Boll's pi).  For
    a != 1 c* is not the real cusp of p(gamma+): there the unit multiplier
    is transverse to the axis.
    """
    require_alpha(alpha, strict=True)
    d = 2.0 * alpha - 1.0  # exact near 1/2, as in detect_cusps
    x = math.exp(-math.log1p(d) / d)
    return x, x * d / (2.0 * alpha), alpha * d * x ** (d - 1.0)


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
        scale = np.maximum(1.0, np.maximum(_dp_norm(alpha, z1), _dp_norm(alpha, z2)))
    # an infinite image or scale would make every pair look like a collision
    if not (np.isfinite(p1).all() and np.isfinite(p2).all() and np.isfinite(scale).all()):
        raise DomainError(
            f"the injectivity probe overflows: p or Dp is out of range on |z| <= 3 at alpha = {alpha!r}"
        )
    return not np.any(np.abs(p1 - p2) <= 1e-12 * scale)


def _dp_norm(alpha: float, z: np.ndarray) -> np.ndarray:
    """Frobenius norm of Dp = I - Df at each z: I - Df is v -> (1 - f_z) v - f_zbar conj(v),
    whose real matrix has norm sqrt(2) hypot(|1 - f_z|, |f_zbar|) (no squares to overflow)."""
    mod = np.abs(z)
    s = mod ** (2.0 * alpha - 1.0)
    u = z / mod
    one_minus_fz = 1.0 - (alpha + 1.0) * s * u
    fzbar_mod = abs(alpha - 1.0) * s
    return math.sqrt(2.0) * np.hypot(np.abs(one_minus_fz), fzbar_mod)
