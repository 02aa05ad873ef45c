"""Critical orbits, periodic orbits and inverse-branch leaf pullbacks."""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NoConvergence
from .fixed_points import Polyline, _chain, _require_classifiable, _scalar_newton, classify_eigenvalues

# the census bench wraps orbits.apply_map and orbits.jacobian to count calls,
# so both names stay bound here although the derivative chain is _chain's
from .maps import MapParams, apply_map, jacobian, require_alpha
from .render import escape_radius

__all__ = [
    "OrbitTrace",
    "PeriodicOrbit",
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


def find_periodic_orbit(p: MapParams, q: int, seed: complex) -> PeriodicOrbit:
    """A period-q cycle through Newton on f^q(z) = z from seed.

    The search is the fixed-point census's own undamped step
    (fixed_points._scalar_newton) for at most 100 steps, so it stops at the
    same roots under the same rules: |f^q(z) - z| below 1e-13 or below its
    rounding floor 16 eps max(|z|, |f^q(z)|, |c|), divergence past
    NEWTON_BOUND, Df(0) = 0.  The returned orbit is the cycle that search
    converged on, cut to its minimal period (the least divisor d of q with
    |f^d(z) - z| < TOL_FP), with the eigenvalues of D f^period chained along
    it by the search's own fixed_points._chain.  Raises NoConvergence if the
    seed does not lead to a root: the steps run out, an iterate diverges or
    its orbit overflows, or a step is singular, and DomainError where the
    eigenvalues overflow or alpha >= 2^53 (see find_fixed_points).
    """
    if q < 1:
        raise DomainError("period must be >= 1")
    cycle, stalled = _scalar_newton(p, complex(seed), 100, q)
    if cycle is None:
        if stalled:
            raise NoConvergence(f"no period-{q} orbit reached from seed {seed} in 100 Newton steps")
        raise NoConvergence(f"no period-{q} orbit reached from seed {seed}")
    period = q
    for d in range(1, q):
        if q % d == 0 and abs(cycle[d] - cycle[0]) < TOL_FP:
            period = d
            break
    eigs = _chain(p, cycle[:period]).eigenvalues
    _require_classifiable(p.alpha)
    return PeriodicOrbit(tuple(cycle[:period]), period, eigs, classify_eigenvalues(eigs))


def pullback_leaf(p: MapParams, leaf: Polyline, branch_word: list[int]) -> Polyline:
    """Apply inverse branches pointwise, one per entry of branch_word.

    Branch 0 is the half-argument branch (preimage with nonnegative real
    part), branch 1 its negation.  With c = 0 a round circle of radius rho
    pulls back to the round circle of radius rho^{(1/2a)^k} after k steps.
    Raises DomainError if a vertex comes within 1e-12 of the critical
    value c, where the branches collide, or if a vertex minus c or its
    modulus is not finite.
    """
    pts = np.asarray(leaf.points, dtype=np.complex128)
    inv_exp = 1.0 / (2.0 * p.alpha)
    for bit in branch_word:
        if bit not in (0, 1):
            raise DomainError("branch word entries must be 0 or 1")
        with np.errstate(over="ignore", invalid="ignore"):
            w = pts - p.c
        r = np.abs(w)
        if not np.isfinite(r).all():
            raise DomainError(f"a leaf vertex minus c is not finite (c = {p.c!r})")
        if np.min(r) < 1e-12:
            raise DomainError("leaf passes through the critical value")
        z = r ** inv_exp * np.exp(0.5j * np.angle(w))
        pts = -z if bit else z
    return Polyline(tuple(pts.tolist()), closed=leaf.closed)


def smoothness_exponent(alpha: float) -> float:
    """Normal-hyperbolicity exponent m = ln(2a)/ln 2 of the invariant circle at c = 0.

    Circular leaf pullbacks converge in C^k for k <= m; for m < 1 the
    convergence is merely uniform.  m equals 1 at alpha = 1 and 2 at alpha = 2.
    """
    return math.log(2.0 * require_alpha(alpha, strict=True)) / math.log(2.0)
