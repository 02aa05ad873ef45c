import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import fd_jacobian
from qcdyn.errors import DomainError, NoConvergence
from qcdyn.fixed_points import (
    DELTA,
    GAMMA_PLUS,
    delta_circle,
    find_fixed_points,
    gamma_minus,
    gamma_plus,
    injectivity_probe,
    trace_curve,
    trace_curve_image,
)
from qcdyn.jets import hopf_number
from qcdyn.maps import (
    MapParams,
    WirtingerPair,
    apply_map,
    inverse_branches,
    jacobian,
    lambda_min,
    q_alpha,
    require_alpha,
    rho_expansion_ratio,
    scaling_identity_check,
    tip_parameter,
    wirtinger,
)
from qcdyn.orbits import find_periodic_orbit, smoothness_exponent
from qcdyn.render import classify_point

RNG = np.random.default_rng(20240811)

finite_complex = st.builds(
    complex,
    st.floats(-3, 3, allow_nan=False),
    st.floats(-3, 3, allow_nan=False),
)
alphas = st.floats(0.55, 6.0, allow_nan=False)


class TestMapParams:
    def test_rejects_small_alpha(self):
        with pytest.raises(DomainError):
            MapParams(0.4, 0)

    def test_boundary_alpha_allowed(self):
        assert MapParams(0.5, 1j).alpha == 0.5


NON_FINITE = [
    (1.0, complex(math.nan, 0)),
    (1.0, complex(0, math.inf)),
    (math.inf, 0.1),
    (math.nan, 0.1),
]
ENTRY_POINTS = {
    "classify_point": lambda p: classify_point(p, 0.1, 50),
    "find_fixed_points": find_fixed_points,
    "find_periodic_orbit": lambda p: find_periodic_orbit(p, 2, 0.1),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("alpha, c", NON_FINITE)
def test_non_finite_parameters_rejected(entry, alpha, c):
    # MapParams refuses them, so no entry point can classify or solve with them
    with pytest.raises(DomainError):
        ENTRY_POINTS[entry](MapParams(alpha, c))


ALPHA_FORMULAS = {
    "tip_parameter": tip_parameter,
    "smoothness_exponent": smoothness_exponent,
    "rho_expansion_ratio": lambda a: rho_expansion_ratio(a, 0.1),
    "delta_circle": delta_circle,
    "gamma_plus": lambda a: gamma_plus(a, 0.1),
    "gamma_minus": lambda a: gamma_minus(a, 3.0),
    "trace_curve": lambda a: trace_curve(a, DELTA, 32),
    "trace_curve_image": lambda a: trace_curve_image(a, GAMMA_PLUS, 32),
    "injectivity_probe": lambda a: injectivity_probe(a, 10, 1),
    "hopf_number": lambda a: hopf_number(a, 2.0),
}


@pytest.mark.parametrize("formula", sorted(ALPHA_FORMULAS))
@pytest.mark.parametrize("alpha", [math.inf, math.nan])
def test_non_finite_alpha_rejected(formula, alpha):
    # each formula goes through maps.require_alpha, so none returns a value for these
    with pytest.raises(DomainError, match="finite"):
        ALPHA_FORMULAS[formula](alpha)


@pytest.mark.parametrize("strict", [False, True])
def test_require_alpha_bounds(strict):
    assert require_alpha(1, strict) == 1.0 and type(require_alpha(1, strict)) is float
    assert require_alpha(0.5000001, strict) == 0.5000001
    for bad in (0.4999999, -math.inf, math.inf, math.nan) + ((0.5,) if strict else ()):
        with pytest.raises(DomainError):
            require_alpha(bad, strict)
    if not strict:
        assert require_alpha(0.5) == 0.5


class TestApplyMap:
    def test_square(self):
        assert apply_map(MapParams(1, 0), 2) == 4

    def test_critical_value(self):
        assert apply_map(MapParams(1.5, -0.8), 0) == -0.8

    def test_radial_identity_at_half(self):
        assert apply_map(MapParams(0.5, 0), 4) == 4

    def test_alpha_one_is_quadratic_exactly(self):
        p = MapParams(1.0, 0.3 - 0.2j)
        for _ in range(200):
            z = complex(RNG.uniform(-2, 2), RNG.uniform(-2, 2))
            assert abs(apply_map(p, z) - (z * z + p.c)) <= 1e-15 * max(1.0, abs(z * z))

    @given(alphas, alphas, finite_complex)
    @settings(max_examples=60, deadline=None)
    def test_radial_group_property(self, a, b, z):
        lhs = q_alpha(a, q_alpha(b, z))
        rhs = q_alpha(a * b, z)
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))

    def test_continuity_across_negative_axis(self):
        # the polar branch makes f continuous through arg z = pi
        p = MapParams(1.7, 0.2j)
        up = apply_map(p, complex(-1.3, 1e-12))
        dn = apply_map(p, complex(-1.3, -1e-12))
        assert abs(up - dn) < 1e-9


class TestWirtinger:
    def test_holomorphic_case(self):
        z = 0.3 + 0.4j
        w = wirtinger(MapParams(1, 5), z)
        assert w.fzbar == 0
        assert abs(w.fz - 2 * z) < 1e-15

    def test_det_identity(self):
        for _ in range(1000):
            a = RNG.uniform(0.55, 6.0)
            z = complex(RNG.uniform(-3, 3), RNG.uniform(-3, 3))
            if abs(z) < 0.05:
                continue
            w = wirtinger(MapParams(a, 0), z)
            expect = 4.0 * a * abs(z) ** (4 * a - 2)
            assert abs(w.det - expect) < 1e-10 * max(1.0, expect)

    def test_unit_circle_det_alpha_two(self):
        w = wirtinger(MapParams(2, 0), cmath.exp(0.7j))
        assert w.det == pytest.approx(8.0, rel=1e-12)

    def test_trace_formula(self):
        # trace of the real derivative equals (a+1)(z zbar)^{a-1}(z + zbar)
        a = 1.5
        for r, t in [(0.5, 0.3), (1.2, -2.0), (2.0, 2.9)]:
            z = r * cmath.exp(1j * t)
            jac = jacobian(MapParams(a, 0), z)
            expect = (a + 1) * (z * z.conjugate()).real ** (a - 1) * (2 * r * math.cos(t))
            assert jac.trace == pytest.approx(expect, rel=1e-12)
            assert jac.trace == pytest.approx(2 * (a + 1) * r ** (2 * a - 1) * math.cos(t), rel=1e-12)

    def test_branch_point_errors(self):
        with pytest.raises(DomainError):
            wirtinger(MapParams(0.8, 0), 0)
        with pytest.raises(DomainError):
            wirtinger(MapParams(1.0, 0), 0)
        w = wirtinger(MapParams(1.5, 0), 0)
        assert w.fz == 0 and w.fzbar == 0


class TestJacobian:
    def test_conformal_moduli(self):
        jac = jacobian(MapParams(1, 0), 0.3)
        assert all(abs(e) == pytest.approx(0.6, rel=1e-12) for e in jac.eigenvalues)

    def test_real_axis_split(self):
        jac = jacobian(MapParams(2, 0), 1)
        assert sorted(e.real for e in jac.eigenvalues) == pytest.approx([2.0, 4.0])
        assert all(e.imag == 0 for e in jac.eigenvalues)

    def test_eigenvalue_product_is_det(self):
        for _ in range(300):
            a = RNG.uniform(0.55, 5.0)
            z = complex(RNG.uniform(-2, 2), RNG.uniform(-2, 2))
            if abs(z) < 0.05:
                continue
            jac = jacobian(MapParams(a, 0), z)
            prod = jac.eigenvalues[0] * jac.eigenvalues[1]
            assert abs(prod - jac.det) < 1e-9 * max(1.0, abs(jac.det))

    def test_matches_numpy_eigensolver(self):
        for _ in range(200):
            a = RNG.uniform(0.55, 5.0)
            z = complex(RNG.uniform(-2, 2), RNG.uniform(-2, 2))
            if abs(z) < 0.05:
                continue
            jac = jacobian(MapParams(a, 0), z)
            ref = sorted(np.linalg.eigvals(jac.m), key=lambda e: (e.real, e.imag))
            got = sorted(jac.eigenvalues, key=lambda e: (e.real, e.imag))
            assert np.allclose(got, ref, atol=1e-9)

    def test_finite_difference_oracle(self):
        worst = 0.0
        for _ in range(1000):
            a = RNG.uniform(0.6, 6.0)
            r = RNG.uniform(0.1, 3.0)
            z = r * cmath.exp(1j * RNG.uniform(-math.pi, math.pi))
            p = MapParams(a, complex(RNG.uniform(-1, 1), RNG.uniform(-1, 1)))
            exact = jacobian(p, z).m
            approx = fd_jacobian(p, z)
            worst = max(worst, np.linalg.norm(approx - exact) / np.linalg.norm(exact))
        assert worst < 1e-6


pair_parts = st.builds(
    complex,
    st.floats(-4, 4, allow_nan=False),
    st.floats(-4, 4, allow_nan=False),
)
pairs = st.builds(WirtingerPair, pair_parts, pair_parts)


def _same_pair(got, ref, tol):
    """Two unordered eigenvalue pairs agree within tol."""
    (g0, g1), (r0, r1) = got, ref
    return min(abs(g0 - r0) + abs(g1 - r1), abs(g0 - r1) + abs(g1 - r0)) < tol


class TestWirtingerPairAlgebra:
    """The pair acts as its real 2x2 matrix: composition, solve and eigenvalues."""

    @given(pairs, pairs)
    @settings(max_examples=200, deadline=None)
    def test_composition_is_matrix_product(self, outer, inner):
        ref = outer.m @ inner.m
        assert np.allclose((outer @ inner).m, ref, rtol=0, atol=1e-12 * max(1.0, np.abs(ref).max()))

    @given(pairs, pair_parts)
    @settings(max_examples=200, deadline=None)
    def test_newton_step_solves_shifted_system(self, pair, r):
        a = pair.m - np.eye(2)
        assume(np.linalg.cond(a) < 1e8)
        ref = np.linalg.solve(a, [-r.real, -r.imag])
        v = pair.newton_step(r)
        scale = max(1.0, float(np.abs(ref).max()))
        assert abs(v - complex(*ref)) < 1e-12 * np.linalg.cond(a) * scale

    @given(pairs)
    @settings(max_examples=200, deadline=None)
    def test_eigenvalues_match_numpy(self, pair):
        m = pair.m
        scale = max(1.0, float(np.abs(m).max()))
        # a near-double eigenvalue is only determined to about sqrt(eps)
        assert _same_pair(pair.eigenvalues, np.linalg.eigvals(m), 1e-6 * scale)

    def test_singular_step_raises(self):
        with pytest.raises(NoConvergence):
            WirtingerPair(1 + 0j, 0j).newton_step(0.5)
        with pytest.raises(NoConvergence):
            WirtingerPair(1.5 + 0j, 0.5 + 0j).newton_step(0.5)  # eigenvalues 2 and 1


class TestInverseBranches:
    def test_square_roots(self):
        assert inverse_branches(MapParams(1, 0), 4) == (2, -2)

    def test_critical_value_preimage(self):
        assert inverse_branches(MapParams(1.3, 0.5j), 0.5j) == (0, 0)

    def test_modulus_and_sign(self):
        p = MapParams(2.5, 0.7 - 0.1j)
        y = -1.2 + 0.4j
        b0, b1 = inverse_branches(p, y)
        assert b1 == -b0
        assert abs(b0) == pytest.approx(abs(y - p.c) ** (1 / (2 * p.alpha)), rel=1e-12)
        assert b0.real >= 0

    @given(alphas, finite_complex, finite_complex)
    @settings(max_examples=80, deadline=None)
    def test_round_trip(self, a, c, y):
        p = MapParams(a, c)
        for z in inverse_branches(p, y):
            assert abs(apply_map(p, z) - y) < 1e-10 * max(1.0, abs(y))

    def test_round_trip_spec_example(self):
        p = MapParams(0.75, -0.78)
        for _ in range(100):
            y = complex(RNG.uniform(-2, 2), RNG.uniform(-2, 2))
            for z in inverse_branches(p, y):
                assert abs(apply_map(p, z) - y) < 1e-12 * max(1.0, abs(y))


class TestLambdaMin:
    def test_unit_circle(self):
        assert lambda_min(MapParams(1, 0), 1j) == pytest.approx(4.0)
        assert lambda_min(MapParams(0.6, 0), cmath.exp(2j)) == pytest.approx(1.44)

    def test_defining_identity(self):
        for _ in range(300):
            a = RNG.uniform(0.55, 5.0)
            z = complex(RNG.uniform(-2, 2), RNG.uniform(-2, 2))
            if abs(z) < 0.05:
                continue
            w = wirtinger(MapParams(a, 0), z)
            assert lambda_min(MapParams(a, 0), z) == pytest.approx(
                (abs(w.fz) - abs(w.fzbar)) ** 2, rel=1e-10
            )

    def test_branch_point(self):
        with pytest.raises(DomainError):
            lambda_min(MapParams(2, 0), 0)


class TestRhoExpansion:
    def test_center_value(self):
        assert rho_expansion_ratio(1.0, 0) == pytest.approx(2.0)

    def test_alpha_one_constant(self):
        for z in (0.3 + 0.1j, -1.0, 1.9j):
            assert rho_expansion_ratio(1.0, z) == pytest.approx(2.0, rel=1e-12)

    def test_lower_bound_formula(self):
        # for alpha >= 1 the ratio stays above 2^{1/a} (1/a)^{(2a-1)/(2a)}
        for alpha in (1.0, 1.2, 1.5, 1.7):
            radius = 2 ** (1 / (2 * alpha - 1))
            bound = 2 ** (1 / alpha) * (1 / alpha) ** ((2 * alpha - 1) / (2 * alpha))
            for _ in range(200):
                z = complex(RNG.uniform(-radius, radius), RNG.uniform(-radius, radius))
                if abs(z) > radius or min(abs(z - radius), abs(z + radius)) < 1e-9:
                    continue
                assert rho_expansion_ratio(alpha, z) > bound - 1e-9

    def test_singularities(self):
        radius = 2 ** (1 / (2 * 1.2 - 1))
        with pytest.raises(DomainError):
            rho_expansion_ratio(1.2, radius)
        with pytest.raises(DomainError):
            rho_expansion_ratio(1.2, -radius)

    def test_boundary_alpha_limit(self):
        assert rho_expansion_ratio(0.5, 0.3 + 0.2j) == pytest.approx(2.0)

    def test_overflowing_tip_gives_boundary_limit(self):
        # 2^{1/(2a-1)} overflows here; the scaled point is 0 as at alpha = 1/2
        assert rho_expansion_ratio(0.5000001, 0.3 + 0.2j) == pytest.approx(2.0)


class TestScalingIdentity:
    def test_spec_triple(self):
        err = scaling_identity_check(1 + 1j, 0.3 - 0.2j, 3.0)
        scale = abs(3.0 * apply_map(MapParams(0.5, 1 + 1j), 0.3 - 0.2j))
        assert err < 1e-12 * max(1.0, scale)

    def test_unit_scale_exact(self):
        assert scaling_identity_check(0.7 - 0.3j, 1.1 + 0.2j, 1.0) == 0.0

    def test_critical_point(self):
        assert scaling_identity_check(-1, 0, 7.0) < 1e-14

    @given(finite_complex, finite_complex, st.floats(0.1, 10, allow_nan=False))
    @settings(max_examples=80, deadline=None)
    def test_random_triples(self, c, z, k):
        err = scaling_identity_check(c, z, k)
        scale = max(1.0, abs(k * apply_map(MapParams(0.5, c), z)))
        assert err < 1e-12 * scale


def test_tip_parameter():
    assert tip_parameter(1.0) == -2.0
    alpha = 0.8
    c = tip_parameter(alpha)
    # the critical value is a preimage of the repelling fixed point -c
    assert apply_map(MapParams(alpha, c), c) == pytest.approx(-c, rel=1e-12)
    with pytest.raises(DomainError):
        tip_parameter(0.5)
    assert tip_parameter(0.5000001) == -math.inf  # the power overflows
