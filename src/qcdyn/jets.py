"""Degree-3 truncated jets in (z, w = zbar) and the Hopf normal-form number.

A Jet3 holds the degree-3 truncation sum_{j+k<=3} c_{jk} z^j w^k of a germ;
composition truncates back into this space, which is enough to normalise
the 3-jet of the map at a fixed point with unit-circle eigenvalues

    F(z) = u z + b2 z^2 w + (removable terms) + O(|z|^4)

and read off the bifurcation direction Re(b2 / u): positive means the
invariant circle appears on the repelling side, negative on the attracting
side, zero (the conformal case) is degenerate.

Every step from hopf_number's input to its float runs in Python complex
arithmetic, on the 16 coefficients a Jet3 keeps as Python complex numbers;
no numpy array is built or read on that path.  Python's complex product and
sum round the same on every CPU, so Hopf numbers do not depend on which SIMD
loops numpy picks at import.
"""

from __future__ import annotations

import cmath
import math
from typing import IO, Iterable

import numpy as np

from .errors import DomainError, EigenvalueError, ResonanceError
from .fixed_points import delta_circle
from .maps import require_alpha
from .render import write_csv

__all__ = [
    "Jet3",
    "jet_of_map",
    "compose_jets",
    "coord_change1",
    "normal_form3",
    "hopf_number",
    "hopf_sweep",
    "write_sweep_csv",
]

DEG = 3
TOL_RES = 1e-3  # exclusion radius (in angle) around 1st..4th roots of unity

# a jet's 16 coefficients sit row-major in a flat list: c[j, k] at 4 j + k
_LOW = tuple(4 * j + k for j in range(DEG + 1) for k in range(DEG + 1 - j))  # j + k <= DEG
_TRANSPOSE = tuple(4 * k + j for j in range(4) for k in range(4))  # c[j, k] <- c[k, j]
_ONE = (1 + 0j,) + (0j,) * 15

# coord_change1's binomial sum, one entry per term (35 in all): g_jk times
# binom(j, m) binom(k, n) C^m conj(C)^(k-n) goes to zeta^(m+n) omega^(j-m+k-n),
# stored as (flat index of jk, flat index of (m + n, j - m + k - n), m, k - n,
# binom(j, m) binom(k, n))
_SUBSTITUTION_TERMS = tuple(
    (4 * j + k, 4 * (m + n) + j - m + k - n, m, k - n, float(math.comb(j, m) * math.comb(k, n)))
    for j in range(DEG + 1)
    for k in range(DEG + 1 - j)
    for m in range(j + 1)
    for n in range(k + 1)
)

# angles of all roots of unity of order <= 4
_RESONANT_ANGLES = (
    0.0,
    math.pi,
    2.0 * math.pi / 3.0,
    4.0 * math.pi / 3.0,
    math.pi / 2.0,
    3.0 * math.pi / 2.0,
)


class Jet3:
    """Coefficients c[j, k] of z^j w^k for j + k <= 3 (4x4, rest zero).

    A jet keeps its 16 coefficients as Python complex numbers and never
    changes them.  Jet3(coeff) takes a 4x4 array or nested sequence, checks
    its shape and keeps its degree-3 truncation: the coefficients with
    j + k > 3 read 0j.  jet[j, k] reads one coefficient as a complex, and
    jet.coeff gives all of them as a read-only 4x4 complex128 array, built
    on each read.  The functions of this module build their jets from
    coefficients they computed themselves, without that check.
    """

    __slots__ = ("_c",)

    def __init__(self, coeff):
        c = np.asarray(coeff, dtype=np.complex128)
        if c.shape != (4, 4):
            raise DomainError("jet coefficients must form a 4x4 array")
        flat = c.ravel().tolist()
        self._c = [flat[i] if i in _LOW else 0j for i in range(16)]

    @classmethod
    def _of(cls, flat: list[complex]) -> "Jet3":
        """The jet with these 16 row-major Python complex coefficients, unchecked."""
        jet = object.__new__(cls)
        jet._c = flat
        return jet

    @property
    def coeff(self) -> np.ndarray:
        out = np.array(self._c, dtype=np.complex128).reshape(4, 4)
        out.flags.writeable = False
        return out

    @classmethod
    def from_terms(cls, terms: dict[tuple[int, int], complex]) -> "Jet3":
        c = [0j] * 16
        for (j, k), val in terms.items():
            if j < 0 or k < 0 or j + k > DEG:
                raise DomainError(f"monomial z^{j} w^{k} outside the degree-3 jet")
            c[4 * j + k] = complex(val)
        return cls._of(c)

    def __repr__(self) -> str:
        return f"Jet3({self.coeff!r})"

    def __getitem__(self, jk: tuple[int, int]) -> complex:
        j, k = jk
        if not (0 <= j < 4 and 0 <= k < 4):
            raise IndexError(f"no coefficient of z^{j} w^{k} in a 4x4 jet")
        return self._c[4 * j + k]


def _mul(a: list[complex], b: list[complex]) -> list[complex]:
    """Product of flat coefficient lists, truncated to total degree 3."""
    out = [0j] * 16
    for j1 in range(4):
        for k1 in range(4 - j1):
            c1 = a[4 * j1 + k1]
            if c1 == 0:
                continue
            for j2 in range(4 - j1):
                for k2 in range(4 - j1 - k1 - j2):
                    c2 = b[4 * j2 + k2]
                    if c2 != 0:
                        out[4 * (j1 + j2) + k1 + k2] += c1 * c2
    return out


def _conj(c: list[complex]) -> list[complex]:
    """Conjugate every coefficient and swap z with w, on flat coefficient lists."""
    return [c[i].conjugate() for i in _TRANSPOSE]


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
    derivatives.  Raises DomainError for an alpha outside the map's domain,
    at z0 = 0, at a z0 that is not finite and where a coefficient overflows
    (|z0| tiny).
    """
    require_alpha(alpha)
    if z0 == 0:
        raise DomainError("jets are undefined at the branch point")
    if not cmath.isfinite(z0):
        raise DomainError(f"jets need a finite point, got z0 = {z0!r}")
    r = abs(z0)
    t = cmath.phase(z0)
    c = [0j] * 16
    try:
        for i in _LOW[1:]:  # every monomial of degree 1 to 3
            j, k = divmod(i, 4)
            c[i] = (
                _binom(alpha + 1.0, j)
                * _binom(alpha - 1.0, k)
                * r ** (2.0 * alpha - j - k)
                * cmath.exp(1j * (2.0 - j + k) * t)
            )
    except OverflowError:
        raise DomainError(f"jet coefficients overflow at |z0| = {r!r}") from None
    return Jet3._of(c)


def compose_jets(outer: Jet3, inner: Jet3) -> Jet3:
    """Substitute inner for z and its conjugate for w in outer, truncated to degree 3.

    The inner jet must have zero constant term, otherwise the truncation
    would not commute with substitution.
    """
    ic = inner._c
    if ic[0] != 0:
        raise DomainError("inner jet must have zero constant term")
    cc = _conj(ic)
    oc = outer._c
    out = [0j] * 16
    base = _ONE
    for j in range(4):
        if j:
            base = _mul(base, ic)  # inner^j
        term = base
        for k in range(4 - j):
            if k:
                term = _mul(term, cc)  # inner^j conj(inner)^k, truncated
            c = oc[4 * j + k]
            if c != 0:
                out = [o + c * t for o, t in zip(out, term)]
    return Jet3._of(out)


def coord_change1(jet: Jet3) -> Jet3:
    """Linear change z = C zeta + conj(zeta) removing the anti-linear term.

    With linear part a z + b w, C solves conj(b) C^2 + (conj(a) - a) C - b = 0
    (principal square root, + branch); the change exists when the linear part
    has complex-conjugate eigenvalues, i.e. |b| < |Im a|.  Jets with |b| below
    1e-14 are returned unchanged.

    With omega = conj(zeta) the substitution z = C zeta + omega,
    w = zeta + conj(C) omega is linear, so it is a binomial sum: each term
    g_jk z^j w^k adds

        g_jk binom(j, m) binom(k, n) C^m conj(C)^(k-n)

    to the coefficient of zeta^(m+n) omega^(j-m+k-n), for 0 <= m <= j and
    0 <= n <= k (35 terms).  The sum h becomes
    (conj(C) h_jk - conj(h_kj)) / (|C|^2 - 1) for j + k <= 3, and zero above.
    """
    a = jet[1, 0]
    b = jet[0, 1]
    if abs(b) < 1e-14:
        return jet
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
    cbar = croot.conjugate()
    cpow = (1.0, croot, croot * croot, croot * croot * croot)
    cbpow = (1.0, cbar, cbar * cbar, cbar * cbar * cbar)
    g = jet._c
    h = [0j] * 16
    for src, dst, m, e, weight in _SUBSTITUTION_TERMS:
        h[dst] += g[src] * weight * cpow[m] * cbpow[e]
    scale = 1.0 / (croot * cbar - 1.0)
    out = [0j] * 16
    for i in _LOW:
        out[i] = (h[i] * cbar - h[_TRANSPOSE[i]].conjugate()) * scale
    return Jet3._of(out)


def _resonance_distance(angle: float) -> float:
    """Distance from angle (mod 2 pi) to the nearest root of unity of order <= 4."""
    return min(abs((angle - res + math.pi) % (2.0 * math.pi) - math.pi) for res in _RESONANT_ANGLES)


def _check_nonresonant(u: complex) -> None:
    ang = cmath.phase(u)
    if _resonance_distance(ang) < TOL_RES:
        raise ResonanceError(
            f"eigenvalue angle {ang:.6f} within {TOL_RES} of a root of unity of order <= 4"
        )


def normal_form3(jet: Jet3) -> complex:
    """Normal-form cubic coefficient ratio b2 / u of the jet.

    The jet is first reduced by coord_change1 to rjet, whose linear part is
    u z; u must stay clear of 1st..4th roots of unity (ResonanceError
    otherwise).  The homological operator is then diagonal on z^j w^k
    (Kuznetsov, Elements of Applied Bifurcation Theory, 4.7), so the
    conjugation L1 = 2z + a1 z^2 + a2 zw + a3 w^2 removing the quadratic
    terms has a_jk = 4 g_jk / (u^j ubar^k - u), g = rjet and the 4 from L1's
    2z: one division each.  The denominators vanish only at u in {0, 1} or
    at u^3 = 1 with |u| = 1, which _check_nonresonant rejects.

    b2 is half the z^2 w coefficient of the mismatch rjet o L1 - L1 o N with
    N = u z + b2 z^2 w, taken at b2 = 0.  There N is linear, so
    L1 o N = 2u z + a1 u^2 z^2 + a2 |u|^2 z w + a3 ubar^2 w^2 has no z^2 w
    term.  compose_jets only adds onto zeros, so that coefficient is an
    exact +0, and x - 0 is x bit for bit (signed zeros too).
    So b2 is read off rjet o L1 alone, one compose_jets call.
    """
    rjet = coord_change1(jet)
    u = rjet[1, 0]
    _check_nonresonant(u)
    ub = u.conjugate()
    a1 = 4.0 * rjet[2, 0] / (u * u - u)
    a2 = 4.0 * rjet[1, 1] / (u * ub - u)
    a3 = 4.0 * rjet[0, 2] / (ub * ub - u)
    l1 = Jet3.from_terms({(1, 0): 2.0, (2, 0): a1, (1, 1): a2, (0, 2): a3})
    return compose_jets(rjet, l1)[2, 1] / 2.0 / u


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
    for theta; DomainError for a theta that is not finite.
    """
    require_alpha(alpha, strict=True)
    if not math.isfinite(theta):
        raise DomainError(f"theta must be finite, got {theta!r}")
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
