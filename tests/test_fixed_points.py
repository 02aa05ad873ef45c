import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from oracles import (
    brute_force_fixed_points,
    census_signature,
    count_self_intersections,
    detect_cusps_sweep,
    label_minimum_positions,
    polyline_diameter,
    residual_grid,
    scalar_census,
    scalar_census_seeds,
    scalar_newton_fixed_point,
)
from qcdyn import fixed_points
from qcdyn.errors import ConvergenceWarning, DomainError
from qcdyn.fixed_points import (
    DELTA,
    GAMMA_MINUS,
    GAMMA_PLUS,
    FixedPointRecord,
    Polyline,
    classify_eigenvalues,
    delta_circle,
    detect_cusps,
    find_fixed_points,
    gamma_minus,
    gamma_plus,
    injectivity_probe,
    param_for_fixed_point,
    param_jacobian,
    trace_curve,
    trace_curve_image,
)
from qcdyn.fixed_points import _census_seeds, _newton_lanes, _param_jacobian_norm
from qcdyn.maps import MapParams, apply_map, jacobian

RNG = np.random.default_rng(11)


class TestParamMap:
    def test_origin(self):
        assert param_for_fixed_point(1.0, 0) == 0

    def test_imaginary_axis_parabola(self):
        for alpha in (0.75, 1.0, 2.0):
            for y in (-1.3, 0.4, 2.0):
                got = param_for_fixed_point(alpha, 1j * y)
                want = abs(y) ** (2 * alpha) + 1j * y
                assert abs(got - want) < 1e-12 * max(1.0, abs(want))

    def test_holomorphic_reduction(self):
        z = 0.7 - 0.2j
        assert param_for_fixed_point(1.0, z) == pytest.approx(z - z * z)

    def test_defining_property(self):
        for _ in range(200):
            alpha = RNG.uniform(0.55, 5.0)
            z = complex(RNG.uniform(-2, 2), RNG.uniform(-2, 2))
            c = param_for_fixed_point(alpha, z)
            assert abs(apply_map(MapParams(alpha, c), z) - z) < 1e-12 * max(1.0, abs(z))

    def test_commutes_with_conjugation(self):
        for _ in range(200):
            alpha = RNG.uniform(0.55, 5.0)
            z = complex(RNG.uniform(-2, 2), RNG.uniform(-2, 2))
            lhs = param_for_fixed_point(alpha, z.conjugate())
            rhs = param_for_fixed_point(alpha, z).conjugate()
            assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))

    def test_where_z_squared_underflows(self):
        # (2^-1000)^2 is 0 in floating point; p(z) = z - |z|^{2a-2} z^2 is
        # z (1 - w) ~ z/2 on the real axis and z w + i z on the imaginary one,
        # with w = |z|^{2a-1}
        alpha, z = 0.5005, 2.0**-1000
        w = 2.0 ** (-1000.0 * (2.0 * alpha - 1.0))
        assert abs(param_for_fixed_point(alpha, z) - z * (1.0 - w)) < 1e-12 * z
        assert abs(param_for_fixed_point(alpha, 1j * z) - complex(z * w, z)) < 1e-12 * z


class TestCurves:
    def test_delta_radius_values(self):
        assert delta_circle(1.0) == pytest.approx(0.5)
        assert delta_circle(2.0) == pytest.approx(8 ** (-1 / 6))
        with pytest.raises(DomainError):
            delta_circle(0.5)

    def test_delta_radius_underflow_is_named(self):
        with pytest.raises(DomainError, match="underflows to 0"):
            delta_circle(0.5000001)

    def test_delta_unit_determinant(self):
        for alpha in (0.6, 0.8, 1.0, 2.0, 6.0):
            r = delta_circle(alpha)
            for t in np.linspace(0, 2 * math.pi, 17):
                jac = jacobian(MapParams(alpha, 0), r * cmath.exp(1j * t))
                assert abs(jac.det - 1.0) < 1e-10

    def test_gamma_plus_double_root(self):
        assert gamma_plus(1.0, 0.0) == [0.5]

    def test_gamma_plus_two_roots(self):
        got = gamma_plus(2.0, 0.0)
        assert got == pytest.approx([0.25 ** (1 / 3), 0.5 ** (1 / 3)])

    def test_gamma_plus_empty_outside_sector(self):
        for alpha in (0.8, 2.0):
            edge = 4 * alpha / (alpha + 1) ** 2
            theta = math.acos(math.sqrt(edge)) + 0.05
            assert gamma_plus(alpha, theta) == []
            assert gamma_plus(alpha, 2.0) == []  # cos < 0

    def test_eigenvalue_plus_one(self):
        for alpha in (0.6, 0.8, 2.0, 6.0):
            sector = math.acos(2 * math.sqrt(alpha) / (alpha + 1))
            for t in np.linspace(-sector * 0.98, sector * 0.98, 11):
                for r in gamma_plus(alpha, t):
                    jac = jacobian(MapParams(alpha, 0), r * cmath.exp(1j * t))
                    assert abs(1 - jac.trace + jac.det) < 1e-9

    def test_eigenvalue_minus_one(self):
        for alpha in (0.6, 0.8, 2.0, 6.0):
            sector = math.acos(2 * math.sqrt(alpha) / (alpha + 1))
            for t in np.linspace(-sector * 0.98, sector * 0.98, 11):
                theta = t + math.pi
                for r in gamma_minus(alpha, theta):
                    jac = jacobian(MapParams(alpha, 0), r * cmath.exp(1j * theta))
                    assert abs(1 + jac.trace + jac.det) < 1e-9

    @pytest.mark.parametrize("alpha", [1e17, 1e20, 1e100])
    def test_gamma_radii_at_huge_alpha(self, alpha):
        # both roots of 4a u^2 - 2(a+1) u ct + 1 give r = u^{1/(2a-1)} -> 1;
        # the smaller one must not cancel to u = 0
        for which in (GAMMA_PLUS, GAMMA_MINUS):
            for z in trace_curve(alpha, which, 16).points:
                assert z != 0 and abs(abs(z) - 1.0) < 1e-12

    def test_gamma_minus_is_negated_gamma_plus(self):
        alpha, n = 1.4, 128
        plus = trace_curve(alpha, GAMMA_PLUS, n).points
        minus = trace_curve(alpha, GAMMA_MINUS, n).points
        assert minus == tuple(-z for z in plus)


class TestFindFixedPoints:
    def test_quadratic_origin(self):
        recs = find_fixed_points(MapParams(1.0, 0))
        assert {round(r.z.real, 9) for r in recs} == {0.0, 1.0}
        by_cls = {r.cls: r for r in recs}
        assert abs(by_cls["attracting"].z) < 1e-9
        assert all(abs(e) == pytest.approx(2.0) for e in by_cls["repelling"].eigenvalues)

    def test_quadratic_boundary_ray(self):
        recs = find_fixed_points(MapParams(1.0, 0.5))
        assert len(recs) == 2
        assert all(r.cls == "repelling" for r in recs)

    def test_records_satisfy_fixed_point_equation(self):
        for alpha, c in [(0.75, 0.13), (2.0, 0.43), (1.2, -0.4 + 0.1j)]:
            p = MapParams(alpha, c)
            for r in find_fixed_points(p):
                assert abs(apply_map(p, r.z) - r.z) < 1e-10

    def test_two_attractor_region(self):
        # inside the gamma+ image, between the real cusp and the fold point
        recs = find_fixed_points(MapParams(0.75, 0.135))
        counts = {cls: sum(r.cls == cls for r in recs) for cls in
                  ("attracting", "repelling", "saddle")}
        assert counts == {"attracting": 2, "repelling": 1, "saddle": 1}

    def test_high_alpha_region(self):
        recs = find_fixed_points(MapParams(2.0, 0.43))
        counts = {cls: sum(r.cls == cls for r in recs) for cls in
                  ("attracting", "repelling", "saddle")}
        assert counts == {"attracting": 1, "repelling": 2, "saddle": 1}

    def test_alpha_just_above_half(self):
        # 2^{1/(2a-1)} overflows (0.5000001) or dwarfs the Newton bound
        # (0.5001); the seed disk is capped at NEWTON_BOUND either way
        for alpha in (0.5000001, 0.5001):
            p = MapParams(alpha, 0.1 - 0.05j)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                recs = find_fixed_points(p)
            assert recs
            assert all(abs(apply_map(p, r.z) - r.z) < 1e-10 for r in recs)

    def test_matches_brute_force_scan(self):
        for alpha, c in [(0.75, -0.6), (0.75, 0.135), (2.0, 0.43), (2.0, -1.0)]:
            p = MapParams(alpha, c)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                newton = census_signature(find_fixed_points(p))
                brute = census_signature(brute_force_fixed_points(p, n=1200))
            assert newton == brute


class TestCurveImages:
    def test_cardioid_cusp_value(self):
        pts = trace_curve_image(1.0, DELTA, 64).points
        assert min(abs(p - 0.25) for p in pts) < 1e-12

    def test_limacon_inner_loop_below_one(self):
        img = trace_curve_image(0.8, DELTA, 512).points
        assert count_self_intersections(img) == 1

    def test_limacon_simple_above_one(self):
        img = trace_curve_image(2.0, DELTA, 512).points
        assert count_self_intersections(img) == 0

    def test_gamma_collapse_at_conformal_case(self):
        for which, target in [(GAMMA_PLUS, 0.25), (GAMMA_MINUS, -0.75)]:
            pl = trace_curve_image(1.0, which, 64)
            assert polyline_diameter(pl.points) < 1e-6
            assert abs(pl.points[0] - target) < 1e-9

    def test_minimum_sample_count(self):
        with pytest.raises(DomainError):
            trace_curve_image(0.8, DELTA, 8)

    def test_gamma_plus_near_half_moves_every_point(self):
        # half of this loop has |z| small enough that z*z underflows; p(z) != z
        # there, since z is not fixed by f_{a,0}
        src = trace_curve(0.5005, GAMMA_PLUS, 64).points
        img = trace_curve_image(0.5005, GAMMA_PLUS, 64).points
        assert not any(z == c for z, c in zip(src, img))

    def test_gamma_images_disjoint_by_sampling(self):
        # open question probed by sampling: the gamma+ and gamma- images
        # neither touch nor cross
        from oracles import _segments_cross

        for alpha in (0.8, 2.0):
            plus = trace_curve_image(alpha, GAMMA_PLUS, 256).points
            minus = trace_curve_image(alpha, GAMMA_MINUS, 256).points
            dmin = min(abs(a - b) for a in plus[::8] for b in minus[::8])
            assert dmin > 1e-3
            e_plus = list(zip(plus, plus[1:] + plus[:1]))
            e_minus = list(zip(minus, minus[1:] + minus[:1]))
            assert not any(
                _segments_cross(*ea, *eb) for ea in e_plus[::4] for eb in e_minus[::4]
            )


class TestCusps:
    @pytest.mark.parametrize("alpha", [0.8, 2.0])
    def test_three_cusps_one_real(self, alpha):
        cusps = detect_cusps(alpha)
        assert len(cusps) == 3
        real = [c for c in cusps if abs(c.imag) < 1e-9]
        assert len(real) == 1
        r = 0.5 ** (1 / (2 * alpha - 1))
        assert real[0].real == pytest.approx(r - r ** (2 * alpha), abs=1e-9)
        pair = sorted((c for c in cusps if abs(c.imag) >= 1e-9), key=lambda w: w.imag)
        assert pair[0] == pytest.approx(pair[1].conjugate(), abs=1e-8)

    @pytest.mark.parametrize(
        "alpha", [0.51, 0.55, 0.6, 0.75, 0.8, 0.95, 1.05, 1.5, 2.0, 3.0, 6.0, 20.0, 100.0]
    )
    def test_matches_sweep(self, alpha):
        got, ref = detect_cusps(alpha), detect_cusps_sweep(alpha)
        assert len(ref) == 3
        assert max(min(abs(c - s) for s in ref) for c in got) <= 1e-12

    @pytest.mark.parametrize("alpha", [0.999, 1.001])
    def test_three_cusps_next_to_one(self, alpha):
        # detect_cusps_sweep finds only one of the three here
        cusps = detect_cusps(alpha)
        assert len(cusps) == 3 and [c.imag == 0.0 for c in cusps].count(True) == 1

    @given(st.floats(0.5, 1e3, exclude_min=True).filter(lambda a: abs(a - 1.0) >= 1e-3))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_source_points_are_cusps(self, alpha):
        cusps = detect_cusps(alpha)
        real = [c for c in cusps if c.imag == 0.0]
        pair = [c for c in cusps if c.imag != 0.0]
        assert len(cusps) == 3 and len(real) == 1 and pair[0] == pair[1].conjugate()
        p0 = MapParams(alpha, 0)
        for z, images in zip(_cusp_sources(alpha), (real, pair)):
            if z == 0:  # 2^{-1/(2a-1)} underflows as a -> 1/2
                continue
            jac = jacobian(p0, z)
            assert abs(1 - jac.trace + jac.det) < 1e-9
            t = _gamma_plus_tangent(alpha, z)
            assert abs(t - (jac.fz * t + jac.fzbar * t.conjugate())) < 1e-9 * abs(t)
            assert min(abs(param_for_fixed_point(alpha, z) - c) for c in images) < 1e-12

    def test_gamma_minus_has_no_cusps(self):
        assert detect_cusps(0.8, GAMMA_MINUS) == []
        assert detect_cusps(2.0, GAMMA_MINUS) == []

    def test_conformal_case_rejected(self):
        with pytest.raises(DomainError):
            detect_cusps(1.0)


def _cusp_sources(alpha: float) -> list[complex]:
    """The derivation's source points: the real one (u = 1/2) and the one of
    the pair with theta > 0 (u = (6a-2)^{-1/2}); r = u^{1/(2a-1)} goes
    through log1p, which stays accurate as a -> 1/2."""
    d = 2 * alpha - 1
    u = (1 + 3 * d) ** -0.5
    r = math.exp(-math.log1p(3 * d) / (2 * d))
    w = complex((5 * alpha - 1) * u, abs(alpha - 1) * u * math.sqrt(3 * d)) / (alpha + 1)
    return [0.5 ** (1 / d), r * w]


def _gamma_plus_tangent(alpha: float, z: complex) -> complex:
    """Tangent of gamma+ at z: the level set G = 4a u^2 - 2(a+1) u cos(theta) + 1
    of u = r^{2a-1} and theta moves along (dG/dtheta, -dG/du) in (u, theta)."""
    r, theta = abs(z), cmath.phase(z)
    u = r ** (2 * alpha - 1)
    g_u = 8 * alpha * u - 2 * (alpha + 1) * math.cos(theta)
    g_theta = 2 * (alpha + 1) * u * math.sin(theta)
    return cmath.exp(1j * theta) * complex(g_theta * r / ((2 * alpha - 1) * u), -r * g_u)


class TestInjectivity:
    @pytest.mark.parametrize("alpha", [0.75, 2.0])
    def test_left_half_plane(self, alpha):
        assert injectivity_probe(alpha, 10_000, 42)

    def test_deterministic_in_seed(self):
        assert injectivity_probe(1.3, 500, 7) == injectivity_probe(1.3, 500, 7)

    @pytest.mark.parametrize("n_pairs,rng_seed", [(-5, 42), (10, -1)])
    def test_negative_count_or_seed_rejected(self, n_pairs, rng_seed):
        with pytest.raises(DomainError, match=">= 0"):
            injectivity_probe(0.8, n_pairs, rng_seed)

    def test_zero_pairs_pass(self):
        assert injectivity_probe(0.8, 0, 0)


def _fold_c(alpha: float) -> complex:
    """A parameter 4% outside the fold curve p(gamma+), off the real axis."""
    return 1.04 * trace_curve_image(alpha, GAMMA_PLUS, 64).points[5]


_LANE_ALPHAS = [0.5000001, 0.5001, 0.6, 0.75, 1.0, 1.5, 2.0, 3.0, 6.0]
_LANE_CASES = [(a, 0j) for a in _LANE_ALPHAS]  # c = 0: the seed (1 - disc)/2 is the branch point
_LANE_CASES += [(a, _fold_c(a)) for a in _LANE_ALPHAS if a >= 0.6]
_LANE_CASES += [(a, c) for a in _LANE_ALPHAS for c in (2.1 - 2.1j, -3.0, 0.3 - 0.2j, complex(-0.5, -0.0))]
# overflowing powers and moduli, where the scalar loop raises OverflowError; at
# alpha 14 this c makes the extra seed 4.63e5 a Newton start whose |f_z - 1|^2
# overflows while f(z) - z stays finite (without the overflow check it stalls)
_LANE_CASES += [(30.0, 0.5), (60.0, -0.3 + 0.1j), (2.0, 1e308 + 1e308j), (0.75, -1e308)]
_LANE_CASES += [(14.0, 4.63e5 - apply_map(MapParams(14.0, 0), 4.63e5))]
# signed zeros on both axes, the branch point, beyond the bound, and nan
_EXTRA_SEEDS = (0, complex(0.9, -0.0), complex(-0.8, -0.0), complex(-0.0, 0.7), 4.63e5, 1e7, complex("nan"))


def _bits(z: complex) -> bytes:
    return np.array([z], dtype=np.complex128).tobytes()


def _assert_census_matches_scalar(p: MapParams, extra_seeds=()) -> None:
    """find_fixed_points gives the scalar census's records and stall warning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        records = find_fixed_points(p, extra_seeds)
    want, stalled = scalar_census(p, extra_seeds)
    assert records == want
    stall_msgs = [str(w.message) for w in caught if w.category is ConvergenceWarning]
    assert stall_msgs == ([f"{stalled} Newton starts stalled without converging or diverging"]
                          if stalled else [])
    assert not [w for w in caught if w.category is RuntimeWarning]


# (alpha, c): |c| <= 1e3, and 1e3 <= |c| <= 1e300 in about a quarter of the
# draws (one branch of four)
_small_moduli = st.floats(0.0, 1e3)
_CENSUS_PARAMS = st.builds(
    lambda alpha, modulus, angle: (alpha, cmath.rect(modulus, angle)),
    st.floats(0.5000001, 8.0),
    st.one_of(_small_moduli, _small_moduli, _small_moduli, st.floats(1e3, 1e300)),
    st.floats(-math.pi, math.pi),
)


class TestLaneNewton:
    """The census's lane Newton against the scalar per-seed loop it replaced."""

    @pytest.mark.parametrize("alpha,c", _LANE_CASES)
    def test_seed_by_seed_identity(self, alpha, c):
        p = MapParams(alpha, c)
        seeds = _census_seeds(p, _EXTRA_SEEDS)
        assert seeds.tobytes() == np.array(scalar_census_seeds(p, _EXTRA_SEEDS), dtype=np.complex128).tobytes()
        roots, converged, stalled = _newton_lanes(p, seeds)
        ref = [scalar_newton_fixed_point(p, s) for s in seeds.tolist()]
        for k, (z, _) in enumerate(ref):
            assert converged[k] == (z is not None), (k, seeds[k])
            if z is not None:
                assert _bits(roots[k]) == _bits(z), (k, seeds[k], roots[k], z)
        # lanes are independent, so a subset run gives each seed's own stall flag
        stalled_ref = np.array([st for _, st in ref])
        assert stalled == np.count_nonzero(stalled_ref)
        if stalled:
            assert _newton_lanes(p, seeds[stalled_ref])[2] == stalled
        failed = ~converged & ~stalled_ref
        assert _newton_lanes(p, seeds[failed])[2] == 0

    @pytest.mark.parametrize("alpha,c", _LANE_CASES[::3])
    def test_records_match_scalar_census(self, alpha, c):
        _assert_census_matches_scalar(MapParams(alpha, c), _EXTRA_SEEDS)

    @given(_CENSUS_PARAMS)
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_census_property_matches_scalar_census(self, params):
        _assert_census_matches_scalar(MapParams(*params))

    @pytest.mark.parametrize("alpha,c", _LANE_CASES)
    def test_scalar_finish_changes_no_bit(self, alpha, c, monkeypatch):
        # no scalar finish (only the exceptional lanes reach the scalar step),
        # the shipped handover, and the scalar step only
        p = MapParams(alpha, c)
        seeds = _census_seeds(p, _EXTRA_SEEDS)
        runs = []
        for lanes in (0, fixed_points._SCALAR_LANES, seeds.size):
            monkeypatch.setattr(fixed_points, "_SCALAR_LANES", lanes)
            roots, converged, stalled = _newton_lanes(p, seeds)
            runs.append((roots.tobytes(), converged.tobytes(), stalled))
        assert runs[1] == runs[0] and runs[2] == runs[0]

    def test_handover_at_exactly_the_threshold(self, monkeypatch):
        # 1e7 leaves at the first bound check and the fixed point 1 converges
        # at step 0, so T + 1 lanes take step 0 as numpy and T lanes, started
        # around that fixed point, finish the other 59 steps on the scalar step
        p = MapParams(2.0, 0)
        lanes = fixed_points._SCALAR_LANES
        around_one = [1.0 + 0.1 * cmath.exp(2j * math.pi * k / lanes) for k in range(lanes)]
        seeds = np.array([1e7, 1.0] + around_one)
        handed = []
        scalar_newton = fixed_points._scalar_newton

        def spy(p, z, steps):
            handed.append(steps)
            return scalar_newton(p, z, steps)

        monkeypatch.setattr(fixed_points, "_scalar_newton", spy)
        roots, converged, stalled = _newton_lanes(p, seeds)
        assert handed == [fixed_points._NEWTON_STEPS - 1] * lanes
        assert converged.tolist() == [False] + [True] * (lanes + 1) and stalled == 0
        for k, seed in enumerate(seeds.tolist()):
            z, _ = scalar_newton_fixed_point(p, seed)
            assert z is None if k == 0 else _bits(roots[k]) == _bits(z)

    # (alpha, c, seed, steps the numpy lanes take first): the branch point,
    # Df - id exactly 0 at 0.5, |f_z - 1|^2 overflowing at 4.63e5, and an
    # overflow one step after a census grid seed
    _EXCEPTIONAL_LANES = [
        (0.75, 0.3 - 0.2j, 0j, 0),
        (1.0, 0j, 0.5, 0),
        _LANE_CASES[-1] + (4.63e5, 0),
        (60.0, -0.3 + 0.1j, 0.681602634383267 + 0.6816026343832668j, 1),
    ]

    @pytest.mark.parametrize("alpha,c,seed,numpy_steps", _EXCEPTIONAL_LANES)
    def test_exceptional_lanes_finish_on_the_scalar_step(self, alpha, c, seed, numpy_steps, monkeypatch):
        p = MapParams(alpha, c)
        z = complex(seed)
        for _ in range(numpy_steps):
            z = z + jacobian(p, z).newton_step(apply_map(p, z) - z)
        handed = []
        scalar_newton = fixed_points._scalar_newton

        def spy(p, z, steps):
            handed.append((_bits(z), steps))
            return scalar_newton(p, z, steps)

        monkeypatch.setattr(fixed_points, "_SCALAR_LANES", 0)
        monkeypatch.setattr(fixed_points, "_scalar_newton", spy)
        roots, converged, stalled = _newton_lanes(p, np.array([seed], dtype=np.complex128))
        assert handed == [(_bits(z), fixed_points._NEWTON_STEPS - numpy_steps)]
        want, stall = scalar_newton_fixed_point(p, seed)
        assert converged[0] == (want is not None) and stalled == stall
        if want is not None:
            assert _bits(roots[0]) == _bits(want)

    def test_no_seeds(self):
        roots, converged, stalled = _newton_lanes(MapParams(1.0, 0.1), np.array([], dtype=complex))
        assert roots.size == 0 and converged.size == 0 and stalled == 0


class TestParamJacobianNorm:
    @given(
        st.floats(0.5000001, 6.0),
        st.floats(-3.0, 3.0),
        st.floats(-3.0, 3.0),
    )
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_closed_form_matches_matrix_norm(self, alpha, x, y):
        z = complex(x, y)
        if abs(z) < 1e-6:
            z = complex(1e-6, y)
        want = np.linalg.norm(param_jacobian(alpha, z))
        got = _param_jacobian_norm(alpha, np.array([z]))[0]
        assert got == pytest.approx(want, rel=1e-12, abs=1e-300)


class TestLabelMinima:
    @pytest.mark.parametrize(
        "alpha,c,below",
        [
            (0.75, 0.135 + 0.01j, 0.01),
            (0.75, -0.6 + 0.2j, 0.03),
            (0.75, 0.1 + 0.05j, 0.02),
            (1.0, 0.2 + 0.3j, 0.02),
            (1.5, -0.5 + 0.5j, 0.03),
            (2.0, 0.43 - 0.05j, 0.03),
        ],
    )
    def test_matches_ndimage(self, alpha, c, below):
        _, resid = residual_grid(MapParams(alpha, c), 200)
        labels, nlab = ndimage.label(resid < below)
        assert nlab >= 2
        for k in range(1, nlab + 1):  # unique minima, so the tie rule plays no part
            vals = resid[labels == k]
            assert np.count_nonzero(vals == vals.min()) == 1
        assert label_minimum_positions(resid, labels, nlab) == ndimage.minimum_position(
            resid, labels, range(1, nlab + 1)
        )

    def test_ties_go_to_the_first_pixel(self):
        values = np.array([[3.0, 1.0, 9.0, 2.0], [1.0, 5.0, 9.0, 2.0]])
        labels, nlab = ndimage.label(values < 9.0)
        assert label_minimum_positions(values, labels, nlab) == [(0, 1), (0, 3)]


class TestDataTypes:
    def test_polyline_validation(self):
        with pytest.raises(DomainError):
            Polyline((1 + 0j,))
        pl = Polyline((0, 1, 1j))
        assert pl.closed and polyline_diameter(pl.points) == pytest.approx(math.sqrt(2))

    def test_classify_bands(self):
        assert classify_eigenvalues((0.5, 0.9j)) == "attracting"
        assert classify_eigenvalues((1.5, -2.0)) == "repelling"
        assert classify_eigenvalues((0.5, 2.0)) == "saddle"
        assert classify_eigenvalues((1.0, 2.0)) == "neutral"
        assert classify_eigenvalues((complex(1, 1e-12), 0.3)) == "neutral"

    def test_record_fields(self):
        rec = find_fixed_points(MapParams(1.0, 0))[0]
        assert isinstance(rec, FixedPointRecord)
        assert rec.det == pytest.approx(rec.eigenvalues[0].real * rec.eigenvalues[1].real)
