"""Critical orbits, periodic orbits and inverse-branch leaf pullbacks."""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import BranchDegenerate, DomainError, NoConvergence
from .fixed_points import NEWTON_BOUND, Polyline, classify_eigenvalues
from .maps import BRANCH_POINT_DERIVATIVE, IDENTITY, MapParams, WirtingerPair, apply_map, jacobian, require_alpha
from .render import escape_radius

__all__ = [
    "OrbitTrace",
    "PeriodicOrbit",
    "SmoothnessExponent",
    "critical_orbit",
    "find_periodic_orbit",
    "pullback_leaf",
    "smoothness_exponent",
]

TOL_FP = 1e-9


@dataclass(frozen=True)
class OrbitTrace:
    """Forward orbit of the critical point; escaped marks early truncation."""

    points: tuple[complex, ...]
    escaped: bool


@dataclass(frozen=True)
class PeriodicOrbit:
    """A periodic cycle with the eigenvalues of its chained derivative."""

    points: tuple[complex, ...]
    period: int
    multipliers: tuple[complex, complex]
    cls: str


@dataclass(frozen=True)
class SmoothnessExponent:
    """Normal-hyperbolicity exponent m = ln(2a)/ln 2 of the invariant circle at c = 0.

    Circular leaf pullbacks converge in C^k for k <= m; for m < 1 the
    convergence is merely uniform.
    """

    m: float


def critical_orbit(p: MapParams, n: int) -> OrbitTrace:
    """[f(0), f^2(0), ..., f^n(0)], truncated after the first point beyond the
    escape radius, or before the first point past the float range (one that
    is infinite or nan, or whose value or modulus raises OverflowError);
    either truncation sets escaped.  A c whose modulus overflows gives (c,),
    escaped."""
    if n < 1:
        raise DomainError("orbit length must be >= 1")
    z = p.c  # f(0), never beyond the escape radius max(|c|, ...)
    pts = [z]
    try:
        # capped, so that an infinite |z| is beyond it where the radius is infinite
        radius = min(escape_radius(p), sys.float_info.max)
        for _ in range(n - 1):
            z = apply_map(p, z)
            if not abs(z) <= radius:  # beyond the radius, or infinite or nan
                break
            pts.append(z)
        else:
            return OrbitTrace(tuple(pts), False)
        if cmath.isfinite(z):
            pts.append(z)
    except OverflowError:
        pass
    return OrbitTrace(tuple(pts), True)


def _orbit_and_derivative(p: MapParams, z: complex, q: int) -> tuple[complex, WirtingerPair]:
    """f^q(z) and its derivative, chained along the orbit (Df(0) = 0)."""
    d = IDENTITY
    w = z
    for _ in range(q):
        d = (jacobian(p, w) if w != 0 else BRANCH_POINT_DERIVATIVE) @ d
        w = apply_map(p, w)
    return w, d


def _trial_residual(p: MapParams, z: complex, q: int) -> float:
    """|f^q(z) - z|, or infinity when the orbit of z overflows on the way."""
    w = z
    try:
        for _ in range(q):
            w = apply_map(p, w)
        return abs(w - z)
    except OverflowError:
        return math.inf


def find_periodic_orbit(p: MapParams, q: int, seed: complex) -> PeriodicOrbit:
    """Newton on f^q(z) = z with forward-chained derivatives.

    Steps are halved while they increase the residual (f^q is stiff near
    multipliers close to 1).  The returned orbit carries its minimal period
    (a divisor of q) and the eigenvalues of the derivative of f^period along
    one minimal cycle.  Raises NoConvergence if the seed does not lead to a
    root, including when the orbit of an iterate overflows; a trial step whose
    orbit overflows counts as one that increases the residual.
    """
    if q < 1:
        raise DomainError("period must be >= 1")
    z = complex(seed)
    resid = None
    try:
        for _ in range(100):
            if abs(z) > NEWTON_BOUND or not cmath.isfinite(z):
                raise NoConvergence(f"orbit search diverged from seed {seed}")
            w, df = _orbit_and_derivative(p, z, q)
            fval = w - z
            resid = abs(fval)
            if resid < 1e-12:
                break
            step = df.newton_step(fval)
            for _ in range(30):
                if _trial_residual(p, z + step, q) <= resid or abs(step) < 1e-16:
                    break
                step *= 0.5
            z = z + step
        else:
            raise NoConvergence(f"no period-{q} orbit reached from seed {seed}")
    except OverflowError:
        raise NoConvergence(f"orbit search diverged from seed {seed}") from None
    if not resid < 1e-12:
        raise NoConvergence(f"no period-{q} orbit reached from seed {seed}")

    cycle = [z]
    for _ in range(q - 1):
        cycle.append(apply_map(p, cycle[-1]))
    period = q
    for d in range(1, q):
        if q % d == 0 and abs(cycle[d % q] - z) < TOL_FP:
            period = d
            break
    eigs = _orbit_and_derivative(p, z, period)[1].eigenvalues
    return PeriodicOrbit(tuple(cycle[:period]), period, eigs, classify_eigenvalues(eigs))


def pullback_leaf(p: MapParams, leaf: Polyline, branch_word: list[int]) -> Polyline:
    """Apply inverse branches pointwise, one per entry of branch_word.

    Branch 0 is the half-argument branch (preimage with nonnegative real
    part), branch 1 its negation.  With c = 0 a round circle of radius rho
    pulls back to the round circle of radius rho^{(1/2a)^k} after k steps.
    Raises BranchDegenerate if a vertex comes within 1e-12 of the critical
    value c, where the branches collide.
    """
    pts = np.asarray(leaf.points, dtype=np.complex128)
    inv_exp = 1.0 / (2.0 * p.alpha)
    for bit in branch_word:
        if bit not in (0, 1):
            raise DomainError("branch word entries must be 0 or 1")
        w = pts - p.c
        if np.min(np.abs(w)) < 1e-12:
            raise BranchDegenerate("leaf passes through the critical value")
        z = np.abs(w) ** inv_exp * np.exp(0.5j * np.angle(w))
        pts = -z if bit else z
    return Polyline(tuple(pts.tolist()), closed=leaf.closed)


def smoothness_exponent(alpha: float) -> SmoothnessExponent:
    """m = ln(2a)/ln 2; equals 1 at alpha = 1 and 2 at alpha = 2."""
    return SmoothnessExponent(math.log(2.0 * require_alpha(alpha, strict=True)) / math.log(2.0))
