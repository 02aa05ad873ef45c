"""Degree-3 truncated jets in (z, w = zbar) and the Hopf normal-form number.

A jet stores the coefficients of sum_{j+k<=3} c_{jk} z^j w^k.  Composition,
conjugation and chopping close over this space, which is enough to normalise
the 3-jet of the map at a fixed point with unit-circle eigenvalues

    F(z) = u z + b2 z^2 w + (removable terms) + O(|z|^4)

and read off the bifurcation direction Re(b2 / u): positive means the
invariant circle appears on the repelling side, negative on the attracting
side, zero (the conformal case) is degenerate.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import IO, Iterable, Sequence

import numpy as np

from .errors import ContractError, DomainError, EigenvalueError, ResonanceError
from .fixed_points import delta_circle
from .maps import require_alpha
from .render import write_csv

__all__ = [
    "Jet3",
    "jet_of_map",
    "chop_jet3",
    "conj_jet",
    "compose_jets",
    "coord_change1",
    "normal_form3",
    "hopf_number",
    "hopf_sweep",
    "write_sweep_csv",
]

DEG = 3
TOL_RES = 1e-3  # exclusion radius (in angle) around 1st..4th roots of unity

_ABOVE_DEG = np.add.outer(np.arange(4), np.arange(4)) > DEG  # z^j w^k with j + k > DEG

# angles of all roots of unity of order <= 4
_RESONANT_ANGLES = (
    0.0,
    math.pi,
    2.0 * math.pi / 3.0,
    4.0 * math.pi / 3.0,
    math.pi / 2.0,
    3.0 * math.pi / 2.0,
)


@dataclass(frozen=True, eq=False)
class Jet3:
    """Coefficients c[j, k] of z^j w^k for j + k <= 3 (4x4 array, rest zero)."""

    coeff: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeff, dtype=np.complex128)
        if c.shape != (4, 4):
            raise ContractError("jet coefficients must form a 4x4 array")
        object.__setattr__(self, "coeff", c)

    @classmethod
    def zero(cls) -> "Jet3":
        return cls(np.zeros((4, 4), dtype=np.complex128))

    @classmethod
    def from_terms(cls, terms: dict[tuple[int, int], complex]) -> "Jet3":
        c = np.zeros((4, 4), dtype=np.complex128)
        for (j, k), val in terms.items():
            if j < 0 or k < 0 or j + k > DEG:
                raise ContractError(f"monomial z^{j} w^{k} outside the degree-3 jet")
            c[j, k] = val
        return cls(c)

    def __getitem__(self, jk: tuple[int, int]) -> complex:
        return complex(self.coeff[jk])

    def __add__(self, other: "Jet3") -> "Jet3":
        return Jet3(self.coeff + other.coeff)

    def __sub__(self, other: "Jet3") -> "Jet3":
        return Jet3(self.coeff - other.coeff)

    def scale(self, s: complex) -> "Jet3":
        return Jet3(self.coeff * s)


def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of coefficient arrays, truncated to total degree 3."""
    out = np.zeros((4, 4), dtype=np.complex128)
    for j1 in range(4):
        for k1 in range(4 - j1):
            c1 = a[j1, k1]
            if c1 == 0:
                continue
            for j2 in range(4 - j1):
                for k2 in range(4 - j1 - k1 - j2):
                    c2 = b[j2, k2]
                    if c2 != 0:
                        out[j1 + j2, k1 + k2] += c1 * c2
    return out


def _binom(p: float, n: int) -> float:
    """Generalised binomial p (p-1) ... (p-n+1) / n!."""
    out = 1.0
    for i in range(n):
        out *= (p - i) / (i + 1)
    return out


def jet_of_map(alpha: float, z0: complex) -> Jet3:
    """Degree-3 expansion of z^{a+1} w^{a-1} about z0 (constant term dropped).

    coeff(j, k) = B(a+1, j) B(a-1, k) r^{2a-j-k} e^{i (2-j+k) t} with
    z0 = r e^{it}; the constant Q^2(z0) is absorbed into the additive
    parameter and excluded.  The linear part reproduces the Wirtinger
    derivatives.  Raises DomainError at z0 = 0 and where a coefficient
    overflows (|z0| tiny).
    """
    if z0 == 0:
        raise DomainError("jets are undefined at the branch point")
    r = abs(z0)
    t = cmath.phase(z0)
    c = np.zeros((4, 4), dtype=np.complex128)
    try:
        for j in range(4):
            for k in range(4 - j):
                if j + k == 0:
                    continue
                c[j, k] = (
                    _binom(alpha + 1.0, j)
                    * _binom(alpha - 1.0, k)
                    * r ** (2.0 * alpha - j - k)
                    * cmath.exp(1j * (2.0 - j + k) * t)
                )
    except OverflowError:
        raise DomainError(f"jet coefficients overflow at |z0| = {r!r}") from None
    return Jet3(c)


def chop_jet3(raw) -> Jet3:
    """Truncate a raw expansion (dict of (j,k) -> coeff, array, or Jet3) to degree 3."""
    if isinstance(raw, Jet3):
        raw = raw.coeff
    if isinstance(raw, dict):
        c = np.zeros((4, 4), dtype=np.complex128)
        for (j, k), val in raw.items():
            if j + k <= DEG:
                c[j, k] = val
        return Jet3(c)
    arr = np.asarray(raw, dtype=np.complex128)[:4, :4]
    c = np.zeros((4, 4), dtype=np.complex128)
    c[: arr.shape[0], : arr.shape[1]] = arr
    c[_ABOVE_DEG] = 0.0
    return Jet3(c)


def conj_jet(jet: Jet3) -> Jet3:
    """Conjugate every coefficient and swap z with w; an involution."""
    return Jet3(np.conj(jet.coeff).T.copy())


def compose_jets(outer: Jet3, inner: Jet3) -> Jet3:
    """Substitute inner for z and conj_jet(inner) for w in outer, then chop.

    The inner jet must have zero constant term, otherwise the truncation
    would not commute with substitution.
    """
    if inner[0, 0] != 0:
        raise ContractError("inner jet must have zero constant term")
    ic = inner.coeff
    cc = conj_jet(inner).coeff
    one = np.zeros((4, 4), dtype=np.complex128)
    one[0, 0] = 1.0
    # powers[j][k] = inner^j * conj^k truncated
    pows_i = [one]
    for _ in range(DEG):
        pows_i.append(_mul(pows_i[-1], ic))
    out = np.zeros((4, 4), dtype=np.complex128)
    for j in range(4):
        base = pows_i[j]
        term = base
        for k in range(4 - j):
            if k > 0:
                term = _mul(term, cc)
            c = outer.coeff[j, k]
            if c != 0:
                out += c * term
    return Jet3(out)


def coord_change1(jet: Jet3) -> Jet3:
    """Linear change z = C zeta + conj(zeta) removing the anti-linear term.

    With linear part a z + b w, C solves conj(b) C^2 + (conj(a) - a) C - b = 0
    (principal square root, + branch); the change exists when the linear part
    has complex-conjugate eigenvalues, i.e. |b| < |Im a|.  Jets with |b| below
    1e-14 are returned unchanged.
    """
    a = jet[1, 0]
    b = jet[0, 1]
    if abs(b) < 1e-14:
        return Jet3(jet.coeff.copy())
    if abs(b) >= abs(a.imag):
        raise ResonanceError(
            "linear part has real eigenvalues (|b| >= |Im a|); no conjugate pair"
        )
    temp = a - a.conjugate()
    croot = (temp + cmath.sqrt(temp * temp + 4.0 * b * b.conjugate())) / (
        2.0 * b.conjugate()
    )
    if abs(abs(croot) - 1.0) < 1e-10:
        raise ResonanceError("coordinate change lies on the unit circle; not invertible")
    lin = Jet3.from_terms({(1, 0): croot, (0, 1): 1.0})
    new = compose_jets(jet, lin)
    new = (new.scale(croot.conjugate()) - conj_jet(new)).scale(
        1.0 / (croot * croot.conjugate() - 1.0)
    )
    return chop_jet3(new)


def _resonance_distance(angle: float) -> float:
    """Distance from angle (mod 2 pi) to the nearest root of unity of order <= 4."""
    return min(abs((angle - res + math.pi) % (2.0 * math.pi) - math.pi) for res in _RESONANT_ANGLES)


def _check_nonresonant(u: complex) -> None:
    ang = cmath.phase(u)
    if _resonance_distance(ang) < TOL_RES:
        raise ResonanceError(
            f"eigenvalue angle {ang:.6f} within {TOL_RES} of a root of unity of order <= 4"
        )


def _quad_cubic_residual(
    rjet: Jet3, u: complex, avec: Sequence[complex], b2: complex
) -> Jet3:
    """The homological mismatch rjet o L1 - L1 o N for the candidate changes.

    L1 = 2z + a1 z^2 + a2 z w + a3 w^2 and N = u z + b2 z^2 w; the z^j w^k
    quadratic coefficient of the mismatch is 4 g_jk + (u - u^j ubar^k) a_jk,
    and its z^2 w coefficient falls by 2 b2 from its value at b2 = 0.
    """
    a1, a2, a3 = avec
    l1 = Jet3.from_terms({(1, 0): 2.0, (2, 0): a1, (1, 1): a2, (0, 2): a3})
    normal = Jet3.from_terms({(1, 0): u, (2, 1): b2})
    return compose_jets(rjet, l1) - compose_jets(l1, normal)


def _normal_form3_full(jet: Jet3) -> tuple[complex, tuple[complex, complex, complex], complex, Jet3]:
    """Resolve the degree-3 normal form; returns (u, (a1,a2,a3), b2, reduced jet).

    With the linear part reduced to u z the homological operator is diagonal
    on z^j w^k (Kuznetsov, Elements of Applied Bifurcation Theory, 4.7):
    (a1, a2, a3) = (a_20, a_11, a_02) with a_jk = 4 g_jk / (u^j ubar^k - u),
    g = rjet and the 4 from L1's 2z.  The denominators vanish only at u in
    {0, 1} or at u^3 = 1 with |u| = 1, which _check_nonresonant rejects.
    L1 o N has the z^2 w coefficient 2 b2.
    """
    rjet = coord_change1(chop_jet3(jet))
    u = rjet[1, 0]
    _check_nonresonant(u)
    ub = u.conjugate()
    avec = (
        4.0 * rjet[2, 0] / (u * u - u),
        4.0 * rjet[1, 1] / (u * ub - u),
        4.0 * rjet[0, 2] / (ub * ub - u),
    )
    b2 = _quad_cubic_residual(rjet, u, avec, 0.0)[2, 1] / 2.0
    return u, avec, b2, rjet


def normal_form3(jet: Jet3) -> complex:
    """Normal-form cubic coefficient ratio b2 / u of the jet.

    The jet is first reduced by coord_change1; the eigenvalue u must stay
    clear of 1st..4th roots of unity (ResonanceError otherwise).  Quadratic
    terms are removed by a conjugation L1 = 2z + a1 z^2 + a2 zw + a3 w^2 with
    a_jk = 4 g_jk / (u^j ubar^k - u), one division each since no denominator
    vanishes on a nonresonant u; the z^2 w coefficient of the remaining
    mismatch yields b2.
    """
    u, _, b2, _ = _normal_form3_full(jet)
    return b2 / u


def _delta_point(alpha: float, theta: float) -> complex:
    """The point r e^{it} of the det = 1 circle (t in [0, pi]) selected by theta:

        cos t = cos(theta) (4a)^{(a-1)/(2a-1)} / (a + 1).

    theta is a selection parameter, not the multiplier angle.  The trace there
    is 2 (a+1) (4a)^{-1/2} cos t, so the multipliers e^{+-i phi} have
    cos phi = cos(theta) (4a)^{(a-1)/(2a-1)} / (2 sqrt a), and phi != theta in
    general (at a = 1, cos phi = cos(theta) / 2).  EigenvalueError where the
    right-hand side leaves [-1, 1].
    """
    r = delta_circle(alpha)
    x = math.cos(theta) * (4.0 * alpha) ** ((alpha - 1.0) / (2.0 * alpha - 1.0)) / (
        alpha + 1.0
    )
    if abs(x) > 1.0:
        raise EigenvalueError(f"eigenvalues for theta = {theta} are not complex conjugates")
    return r * cmath.exp(1j * math.acos(x))


def hopf_number(alpha: float, theta: float) -> float:
    """Re(b2/u) for the fixed point on the det = 1 circle selected by theta.

    theta picks the point through _delta_point; the multiplier angle there is
    in general not theta.  Positive for alpha < 1, zero at alpha = 1, negative
    for alpha > 1 on nonresonant angles.  Raises ResonanceError within TOL_RES
    of a low-order root of unity (for theta itself and for the actual
    multiplier angle) and EigenvalueError when no conjugate-pair point exists
    for theta.
    """
    require_alpha(alpha, strict=True)
    if _resonance_distance(theta) < TOL_RES:
        raise ResonanceError(f"theta = {theta} is within {TOL_RES} of a resonant angle")
    z0 = _delta_point(alpha, theta)
    return normal_form3(jet_of_map(alpha, z0)).real


def hopf_sweep(
    alpha_grid: Iterable[float], theta_grid: Iterable[float]
) -> list[tuple[float, float, float, float, str]]:
    """Tabulate hopf_number over the grid product, row-major in (alpha, theta).

    Rows are (alpha, beta, theta, value, status) with beta = 1 - 1/alpha; the
    value is nan and the status names the failure for excluded points.  theta
    is hopf_number's selection parameter on the det = 1 circle, not the
    multiplier angle of the selected point.
    """
    rows = []
    for alpha in alpha_grid:
        beta = 1.0 - 1.0 / alpha
        for theta in theta_grid:
            try:
                val = hopf_number(alpha, theta)
                status = "ok"
            except ResonanceError:
                val, status = math.nan, "resonance"
            except EigenvalueError:
                val, status = math.nan, "eigenvalue"
            rows.append((alpha, beta, theta, val, status))
    return rows


def write_sweep_csv(rows, out: IO[str] | str) -> None:
    """CSV dump of hopf_sweep rows: alpha, beta, theta, hopf_number, status
    (LF line ends; an empty hopf_number for excluded points)."""
    table = ((a, b, t, "" if math.isnan(v) else v, s) for a, b, t, v, s in rows)
    write_csv(out, ("alpha", "beta", "theta", "hopf_number", "status"), table, newline="\n")
