"""The degree-two planar family f(r e^{it}) = r^{2a} e^{2it} + c.

Written in (z, zbar) coordinates the map is z^{a+1} zbar^{a-1} + c, and all
fractional powers here are evaluated in polar form r**p * exp(i*p*Arg z) with
the principal argument in (-pi, pi].  That branch makes f itself, and every
derivative formula below, single valued and continuous away from the origin.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NoConvergence

__all__ = [
    "MapParams",
    "WirtingerPair",
    "require_alpha",
    "q_alpha",
    "apply_map",
    "wirtinger",
    "jacobian",
    "inverse_branches",
    "lambda_min",
    "tip_parameter",
    "rho_expansion_ratio",
    "scaling_identity_check",
]


def require_alpha(alpha: float, strict: bool = False) -> float:
    """The exponent's domain rule, checked here for the whole package.

    The map itself needs alpha finite and >= 1/2; the curve, Hopf, tip and
    smoothness formulas degenerate at alpha = 1/2 and need alpha > 1/2
    (strict).  Returns alpha as a float; DomainError otherwise.
    """
    if not (math.isfinite(alpha) and (alpha > 0.5 if strict else alpha >= 0.5)):
        raise DomainError(f"alpha must be finite and {'>' if strict else '>='} 1/2, got {alpha!r}")
    return float(alpha)


@dataclass(frozen=True)
class MapParams:
    """One member of the family: the exponent alpha and the added constant c.

    alpha = 1 is the quadratic family z**2 + c.  Exponents below 1/2 change
    the character of the dynamics near infinity and are rejected; the boundary
    value alpha = 1/2 itself is accepted (f(z) = |z| e^{2i arg z} + c is still
    a well-defined continuous map, used by the scaling checks).  Both must be
    finite.
    """

    alpha: float
    c: complex = 0j

    def __post_init__(self):
        object.__setattr__(self, "alpha", require_alpha(self.alpha))
        if not cmath.isfinite(self.c):
            raise DomainError(f"c must be finite, got {self.c!r}")
        object.__setattr__(self, "c", complex(self.c))


@dataclass(frozen=True)
class WirtingerPair:
    """The real-linear map v -> fz v + fzbar conj(v) on tangent vectors.

    This is the derivative of f at a point, or a product of such derivatives
    along an orbit.  As a real 2x2 matrix it has trace 2 Re fz and determinant
    |fz|^2 - |fzbar|^2; its eigenvalues are real when |fzbar|^2 >= (Im fz)^2
    and a complex-conjugate pair otherwise.
    """

    fz: complex
    fzbar: complex

    @property
    def trace(self) -> float:
        return 2.0 * self.fz.real

    @property
    def det(self) -> float:
        """Determinant of the real Jacobian, |fz|^2 - |fzbar|^2."""
        return abs(self.fz) ** 2 - abs(self.fzbar) ** 2

    @property
    def eigenvalues(self) -> tuple[complex, complex]:
        """Re fz +- sqrt(|fzbar|^2 - (Im fz)^2): the discriminant (trace/2)^2 - det
        written without cancellation."""
        fz = self.fz
        disc = abs(self.fzbar) ** 2 - fz.imag**2
        if disc >= 0.0:
            s = math.sqrt(disc)
            return complex(fz.real + s), complex(fz.real - s)
        s = math.sqrt(-disc)
        return complex(fz.real, s), complex(fz.real, -s)

    @property
    def m(self) -> np.ndarray:
        """The real 2x2 matrix acting on (x, y) tangent vectors."""
        a, b = self.fz, self.fzbar
        return np.array([[a.real + b.real, b.imag - a.imag], [a.imag + b.imag, a.real - b.real]])

    def __matmul__(self, inner: WirtingerPair) -> WirtingerPair:
        """The composite map v -> self(inner(v)) (chain rule)."""
        a1, b1 = inner.fz, inner.fzbar
        a2, b2 = self.fz, self.fzbar
        return WirtingerPair(a2 * a1 + b2 * b1.conjugate(), a2 * b1 + b2 * a1.conjugate())

    def newton_step(self, r: complex) -> complex:
        """The v with (P - id) v = -r, P being this map.

        With P the derivative of F at z and r = F(z) - z this is the Newton
        step for a fixed point of F.  Raises NoConvergence when P - id is
        singular (P has eigenvalue 1).
        """
        a = self.fz - 1.0
        b = self.fzbar
        det = abs(a) ** 2 - abs(b) ** 2
        if abs(det) < 1e-300:
            raise NoConvergence("singular Newton step (multiplier 1?)")
        return (b * r.conjugate() - a.conjugate() * r) / det


IDENTITY = WirtingerPair(1 + 0j, 0j)
BRANCH_POINT_DERIVATIVE = WirtingerPair(0j, 0j)  # the Newton solvers' Df(0), for every alpha


def _radius_floor(alpha: float) -> float:
    """2^{1/(2a-1)}: the escape radius for |c| below it, and the modulus of
    the tip parameter.

    Saturates to infinity where the power overflows (alpha just above 1/2)
    and at alpha = 1/2 itself, where no modulus bound forces escape.
    """
    if alpha == 0.5:
        return math.inf
    try:
        return 2.0 ** (1.0 / (2.0 * alpha - 1.0))
    except OverflowError:
        return math.inf


def q_alpha(alpha: float, z: complex) -> complex:
    """The radial stretch Q_a(r e^{it}) = r^a e^{it}; Q_a o Q_b = Q_{ab}."""
    if z == 0:
        return 0j
    return abs(z) ** (alpha - 1.0) * z


def apply_map(p: MapParams, z: complex) -> complex:
    """Evaluate f(z) = |z|^{2a-2} z^2 + c; f(0) = c.

    Computed as (|z|^{a-1} z)^2 + c, which keeps intermediates in range even
    for tiny |z| at small exponents.  For alpha = 1 the prefactor is exactly
    1.0, so the value agrees with z*z + c to the last bit.
    """
    if z == 0:
        return p.c
    u = abs(z) ** (p.alpha - 1.0) * z
    return u * u + p.c


def wirtinger(p: MapParams, z: complex) -> WirtingerPair:
    """Wirtinger derivatives f_z = (a+1) z^a zbar^{a-1}, f_zbar = (a-1) z^{a+1} zbar^{a-2}.

    In polar form these are (a+1) r^{2a-1} e^{it} and (a-1) r^{2a-1} e^{3it},
    which is how they are computed (branch-consistent and continuous off 0).
    At the branch point z = 0 the derivative exists only as a limit; it is 0
    for alpha > 1 and singular otherwise.
    """
    if z == 0:
        if p.alpha <= 1.0:
            raise DomainError("derivative at the branch point requires alpha > 1")
        return WirtingerPair(0j, 0j)
    u = z / abs(z)
    s = abs(z) ** (2.0 * p.alpha - 1.0)
    return WirtingerPair((p.alpha + 1.0) * s * u, (p.alpha - 1.0) * s * (u * u * u))


# one body: the pair is the derivative; its .m is the real 2x2 matrix
jacobian = wirtinger


def inverse_branches(p: MapParams, y: complex) -> tuple[complex, complex]:
    """Both preimages of y under f: moduli |y-c|^{1/(2a)}, arguments arg(y-c)/2 and +pi.

    The first branch carries the half-argument in (-pi/2, pi/2] (nonnegative
    real part), the second is its negation.  y = c returns the double root 0.
    """
    w = y - p.c
    if w == 0:
        return (0j, 0j)
    r = abs(w) ** (1.0 / (2.0 * p.alpha))
    u = cmath.exp(0.5j * cmath.phase(w))
    z = r * u
    return (z, -z)


def lambda_min(p: MapParams, z: complex) -> float:
    """Smallest eigenvalue of (Df)^T Df at z: (|f_z| - |f_zbar|)^2.

    Equals 4 |z|^{4a-2} for alpha >= 1 and 4 a^2 |z|^{4a-2} for alpha < 1.
    """
    if z == 0:
        raise DomainError("lambda_min is undefined at the branch point")
    return 4.0 * min(p.alpha, 1.0) ** 2 * abs(z) ** (4.0 * p.alpha - 2.0)


def tip_parameter(alpha: float) -> float:
    """The real parameter c = -2^{1/(2a-1)} whose critical value lands on the
    repelling fixed point |c| after one step (the analogue of c = -2).

    Saturates to -infinity where the power overflows (alpha just above 1/2).
    """
    return -_radius_floor(require_alpha(alpha, strict=True))


def rho_expansion_ratio(alpha: float, z: complex) -> float:
    """Worst-case expansion of the singular metric |dz| / |c^2 - z^2|^{(2a-1)/(2a)}
    under f at z, with c fixed to tip_parameter(alpha).

    Minimising |(a+1) + (a-1)(z/zbar) e^{i phi}| over directions phi gives the
    closed form

        (a + 1 - |a - 1|) * (|c^2 - z^2| / ||c|^{2a} - |z|^{2a-2} z^2|)^{(2a-1)/(2a)}

    computed here in coordinates scaled by |c| for stability.  Where the tip
    parameter diverges (at alpha = 1/2, or where |c| overflows just above it)
    the scaled point is 0 and the formula degenerates to the constant 2, its
    limit as alpha decreases to 1/2.
    """
    alpha = require_alpha(alpha)
    factor = (alpha + 1.0 - abs(alpha - 1.0)) * 2.0 ** ((1.0 - alpha) / alpha)
    w = z / _radius_floor(alpha)
    if abs(w - 1.0) < 1e-12 or abs(w + 1.0) < 1e-12:
        raise DomainError("metric is singular at z = +/-c")
    x = abs(w)
    num = abs(1.0 - w * w)
    den = abs(1.0 - (x ** (2.0 * alpha - 2.0)) * w * w) if x > 0 else 1.0
    if den == 0.0:
        return math.inf
    return factor * (num / den) ** ((2.0 * alpha - 1.0) / (2.0 * alpha))


def scaling_identity_check(c: complex, z: complex, k: float) -> float:
    """|f_{kc}(kz) - k f_c(z)| for the boundary exponent alpha = 1/2.

    Exact scale invariance of the alpha = 1/2 family makes this vanish up to
    rounding for any k > 0.
    """
    if not k > 0:
        raise DomainError("scale factor k must be positive")
    left = apply_map(MapParams(0.5, k * c), k * z)
    right = k * apply_map(MapParams(0.5, c), z)
    return abs(left - right)
