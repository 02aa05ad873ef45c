import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import evaluate_jet, fd_jet, jet_identity, kuznetsov_hopf_number
from qcdyn.errors import ContractError, DomainError, ResonanceError
from qcdyn.jets import (
    Jet3,
    chop_jet3,
    compose_jets,
    conj_jet,
    coord_change1,
    hopf_number,
    hopf_sweep,
    jet_of_map,
    normal_form3,
    write_sweep_csv,
)
from qcdyn.jets import _normal_form3_full, _quad_cubic_residual
from qcdyn.maps import MapParams, wirtinger

RNG = np.random.default_rng(5)

coeff_st = st.builds(complex, st.floats(-2, 2, allow_nan=False), st.floats(-2, 2, allow_nan=False))


def jets_st(zero_const=True):
    keys = [(j, k) for j in range(4) for k in range(4 - j)]
    if zero_const:
        keys.remove((0, 0))
    return st.fixed_dictionaries({k: coeff_st for k in keys}).map(Jet3.from_terms)


def random_conjugate_pair_jet():
    c = np.zeros((4, 4), np.complex128)
    for j in range(4):
        for k in range(4 - j):
            if j + k:
                c[j, k] = complex(RNG.uniform(-1, 1), RNG.uniform(-1, 1))
    c[1, 0] = complex(RNG.uniform(-0.5, 0.5), RNG.uniform(1.0, 2.0) * RNG.choice([-1, 1]))
    c[0, 1] = complex(RNG.uniform(-0.3, 0.3), RNG.uniform(-0.3, 0.3))
    return Jet3(c)


class TestJetOfMap:
    def test_holomorphic_taylor(self):
        z0 = 0.4 + 0.3j
        jet = jet_of_map(1.0, z0)
        assert jet[1, 0] == pytest.approx(2 * z0)
        assert jet[2, 0] == pytest.approx(1.0)
        for j in range(4):
            for k in range(1, 4 - j):
                assert jet[j, k] == 0

    def test_linear_part_is_wirtinger(self):
        for _ in range(100):
            alpha = RNG.uniform(0.55, 6.0)
            z0 = complex(RNG.uniform(-2, 2), RNG.uniform(-2, 2))
            if abs(z0) < 0.1:
                continue
            jet = jet_of_map(alpha, z0)
            w = wirtinger(MapParams(alpha, 0), z0)
            assert abs(jet[1, 0] - w.fz) < 1e-12 * abs(w.fz)
            assert abs(jet[0, 1] - w.fzbar) < 1e-12 * max(1.0, abs(w.fzbar))

    def test_finite_difference_oracle(self):
        worst = 0.0
        for _ in range(200):
            alpha = RNG.uniform(0.6, 6.0)
            r = RNG.uniform(0.2, 3.0)
            z0 = r * cmath.exp(1j * RNG.uniform(-math.pi, math.pi))
            exact = jet_of_map(alpha, z0).coeff
            approx = fd_jet(alpha, z0)
            worst = max(worst, np.linalg.norm(approx - exact) / np.linalg.norm(exact))
        assert worst < 1e-6

    def test_branch_point_rejected(self):
        with pytest.raises(DomainError):
            jet_of_map(1.5, 0)


class TestAlgebra:
    def test_chop_drops_high_degree(self):
        jet = chop_jet3({(2, 3): 4.0, (1, 1): 2.0, (0, 3): 1.0})
        assert jet[1, 1] == 2.0 and jet[0, 3] == 1.0
        assert all(jet[j, k] == 0 for j in range(4) for k in range(4 - j) if (j, k) not in {(1, 1), (0, 3)})

    @given(jets_st(zero_const=False))
    @settings(max_examples=50, deadline=None)
    def test_chop_idempotent(self, jet):
        assert np.array_equal(chop_jet3(chop_jet3(jet)).coeff, chop_jet3(jet).coeff)

    def test_chop_truncates_a_jet3(self):
        c = np.arange(1, 17, dtype=np.complex128).reshape(4, 4)
        assert np.array_equal(chop_jet3(Jet3(c)).coeff, chop_jet3(c).coeff)
        assert chop_jet3(Jet3(c))[2, 2] == 0 and chop_jet3(Jet3(c))[1, 2] == c[1, 2]

    def test_chop_zero(self):
        assert np.all(chop_jet3(Jet3.zero()).coeff == 0)

    def test_conj_swaps_indices(self):
        jet = Jet3.from_terms({(0, 2): 1 + 2j, (2, 1): 3 - 1j})
        out = conj_jet(jet)
        assert out[2, 0] == 1 - 2j and out[1, 2] == 3 + 1j

    @given(jets_st(zero_const=False))
    @settings(max_examples=50, deadline=None)
    def test_conj_involution(self, jet):
        assert np.array_equal(conj_jet(conj_jet(jet)).coeff, jet.coeff)

    def test_real_symmetric_jet_invariant(self):
        jet = Jet3.from_terms({(1, 0): 1.5, (0, 1): 1.5, (2, 1): -0.25, (1, 2): -0.25})
        assert np.array_equal(conj_jet(jet).coeff, jet.coeff)

    def test_compose_linear(self):
        lam, mu = 1.3 - 0.4j, -0.2 + 0.9j
        out = compose_jets(Jet3.from_terms({(1, 0): lam}), Jet3.from_terms({(1, 0): mu}))
        assert out[1, 0] == pytest.approx(lam * mu)

    def test_compose_square_expansion(self):
        a, b = 0.7 - 0.2j, 0.3 + 0.5j
        out = compose_jets(
            Jet3.from_terms({(2, 0): 1.0}), Jet3.from_terms({(1, 0): a, (0, 1): b})
        )
        assert out[2, 0] == pytest.approx(a * a)
        assert out[1, 1] == pytest.approx(2 * a * b)
        assert out[0, 2] == pytest.approx(b * b)

    @given(jets_st())
    @settings(max_examples=50, deadline=None)
    def test_compose_identity(self, jet):
        out = compose_jets(jet, jet_identity())
        assert np.allclose(out.coeff, jet.coeff, atol=1e-13)

    @given(jets_st(), jets_st(), jets_st())
    @settings(max_examples=40, deadline=None)
    def test_compose_associative_up_to_truncation(self, a, b, c):
        lhs = compose_jets(compose_jets(a, b), c)
        rhs = compose_jets(a, compose_jets(b, c))
        scale = max(1.0, np.abs(lhs.coeff).max())
        assert np.allclose(lhs.coeff, rhs.coeff, atol=1e-12 * scale)

    def test_compose_rejects_constant(self):
        with pytest.raises(ContractError):
            compose_jets(jet_identity(), chop_jet3({(0, 0): 1.0}))

    def test_evaluate_consistency(self):
        jet = jet_of_map(1.4, 0.9 + 0.2j)
        p0 = MapParams(1.4, 0)
        from qcdyn.maps import apply_map

        for d in (0.01, 0.01j, 0.007 - 0.004j):
            direct = apply_map(p0, 0.9 + 0.2j + d) - apply_map(p0, 0.9 + 0.2j)
            assert abs(evaluate_jet(jet, d) - direct) < 1e-7


class TestCoordChange:
    def test_holomorphic_untouched(self):
        jet = Jet3.from_terms({(1, 0): 1j, (3, 0): 2.0})
        out = coord_change1(jet)
        assert np.array_equal(out.coeff, jet.coeff)

    def test_kills_antilinear_term(self):
        for _ in range(100):
            jet = random_conjugate_pair_jet()
            out = coord_change1(jet)
            assert abs(out[0, 1]) < 1e-10

    def test_preserves_eigenvalue_modulus(self):
        for _ in range(100):
            jet = random_conjugate_pair_jet()
            a, b = jet[1, 0], jet[0, 1]
            lin = np.array(
                [
                    [(a + b).real, (-a + b).imag],
                    [(a + b).imag, (a - b).real],
                ]
            )
            ref = np.linalg.eigvals(lin)
            out = coord_change1(jet)
            assert abs(out[1, 0]) == pytest.approx(abs(ref[0]), rel=1e-9)

    def test_real_eigenvalues_rejected(self):
        jet = Jet3.from_terms({(1, 0): 2.0 + 0.1j, (0, 1): 1.0})
        with pytest.raises(ResonanceError):
            coord_change1(jet)


class TestNormalForm:
    def test_holomorphic_hopf_number_vanishes(self):
        for t in (0.8, 2.0, 2.9, 4.1):
            z0 = cmath.exp(1j * t) / 2
            jet = jet_of_map(1.0, z0)
            val = normal_form3(jet)
            assert abs(val.real) < 1e-8

    def test_quadratic_elimination_residual(self):
        for _ in range(40):
            jet = random_conjugate_pair_jet()
            try:
                u, avec, b2, rjet = _normal_form3_full(jet)
            except ResonanceError:
                continue
            big = _quad_cubic_residual(rjet, u, avec, b2)
            assert max(abs(big[2, 0]), abs(big[1, 1]), abs(big[0, 2])) < 1e-9
            assert abs(big[2, 1]) < 1e-9

    def test_rotation_invariance(self):
        phi = 0.7
        rot = Jet3.from_terms({(1, 0): cmath.exp(1j * phi)})
        rot_inv = Jet3.from_terms({(1, 0): cmath.exp(-1j * phi)})
        for _ in range(40):
            jet = random_conjugate_pair_jet()
            rotated = compose_jets(rot_inv, compose_jets(jet, rot))
            try:
                v0 = normal_form3(jet)
            except ResonanceError:
                continue
            v1 = normal_form3(rotated)
            assert abs(v0 - v1) < 1e-8 * max(1.0, abs(v0))

    def test_cubic_scaling_linearity(self):
        c = np.zeros((4, 4), np.complex128)
        c[1, 0] = complex(0.3, 1.4)
        c[0, 1] = 0.2 + 0.1j
        for jk in ((3, 0), (2, 1), (1, 2), (0, 3)):
            c[jk] = complex(RNG.uniform(-1, 1), RNG.uniform(-1, 1))
        v1 = normal_form3(Jet3(c))
        for t in (0.0, 2.0):
            ct = c.copy()
            for jk in ((3, 0), (2, 1), (1, 2), (0, 3)):
                ct[jk] = t * c[jk]
            vt = normal_form3(Jet3(ct))
            assert abs(vt - t * v1) < 1e-9 * max(1.0, abs(v1))

    def test_resonant_eigenvalue_rejected(self):
        for ang in (0.0, math.pi / 2, 2 * math.pi / 3, math.pi):
            jet = Jet3.from_terms(
                {(1, 0): cmath.exp(1j * (ang + 5e-4)), (2, 1): 1.0, (2, 0): 0.3}
            )
            with pytest.raises(ResonanceError):
                normal_form3(jet)


class TestHopfNumber:
    def test_conformal_case_zero(self):
        assert abs(hopf_number(1.0, 2.0)) < 1e-8

    def test_signs(self):
        assert hopf_number(0.75, 2.0) > 41.0
        assert hopf_number(1.5, 2.0) < -8.1

    def test_resonant_theta_rejected(self):
        with pytest.raises(ResonanceError):
            hopf_number(0.75, math.pi / 2 + 5e-4)
        with pytest.raises(ResonanceError):
            hopf_number(0.75, 2 * math.pi / 3)

    def test_alpha_domain(self):
        with pytest.raises(DomainError):
            hopf_number(0.5, 2.0)

    def test_delta_point_has_unit_circle_conjugate_eigenvalues(self):
        from qcdyn.jets import _delta_point
        from qcdyn.maps import jacobian

        for alpha in (0.6, 0.75, 1.5, 6.0):
            for theta in (0.7, 2.0, 3.9):
                z0 = _delta_point(alpha, theta)
                jac = jacobian(MapParams(alpha, 0), z0)
                e1, e2 = jac.eigenvalues
                assert e1.imag != 0  # conjugate pair
                assert abs(e1) == pytest.approx(1.0, abs=1e-10)
                assert e1 == pytest.approx(e2.conjugate())


class TestHopfSweep:
    def test_sign_partition(self):
        thetas = [2 * math.pi * (k + 0.5) / 24 for k in range(24)]
        rows = hopf_sweep([0.8, 1.7], thetas)
        for alpha, beta, theta, val, status in rows:
            if status != "ok":
                continue
            assert (val > 0) == (alpha < 1)

    def test_beta_reparameterization(self):
        rows = hopf_sweep([2.0], [2.0])
        assert rows[0][1] == pytest.approx(0.5)
        assert 1.0 / (1.0 - rows[0][1]) == pytest.approx(2.0)

    def test_empty_grids(self):
        assert hopf_sweep([], [1.0]) == []
        assert hopf_sweep([0.8], []) == []

    def test_gallery_surface_matches_kuznetsov_c1(self):
        # the Hopf surface of scripts/render_figures.py against the explicit
        # Neimark-Sacker coefficient
        betas = [-0.98 + 1.96 * k / 63 for k in range(64)]
        thetas = [2 * math.pi * (k + 0.5) / 64 for k in range(64)]
        rows = hopf_sweep([1.0 / (1.0 - b) for b in betas], thetas)
        ok = [(a, t, v) for a, _, t, v, status in rows if status == "ok"]
        assert len(ok) > 3800
        for alpha, theta, val in ok:
            ref = kuznetsov_hopf_number(alpha, theta)
            assert abs(val - ref) <= 1e-12 * abs(ref), (alpha, theta)

    def test_row_major_order_and_tags(self):
        rows = hopf_sweep([0.8, 1.5], [math.pi / 2, 2.0])
        assert [(r[0], r[2]) for r in rows] == [
            (0.8, math.pi / 2),
            (0.8, 2.0),
            (1.5, math.pi / 2),
            (1.5, 2.0),
        ]
        assert rows[0][4] == "resonance" and math.isnan(rows[0][3])
        assert rows[1][4] == "ok"

    def test_csv_output(self, tmp_path):
        rows = hopf_sweep([0.8], [math.pi / 2, 2.0])
        path = tmp_path / "sweep.csv"
        write_sweep_csv(rows, str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "alpha,beta,theta,hopf_number,status"
        assert len(lines) == 3
        assert lines[1].endswith(",resonance")
        assert lines[1].split(",")[3] == ""

    def test_continuity_on_nonresonant_interval(self):
        # no spikes: adjacent values differ by at most 10x the local slope scale
        for alpha in (0.75, 1.5):
            n, lo, hi = 64, 1.70, 2.00
            h = (hi - lo) / n
            vals = [hopf_number(alpha, lo + k * h) for k in range(n + 1)]
            for k in range(2, n - 1):
                slope = max(
                    abs(vals[k + 1] - vals[k - 1]) / (2 * h),
                    abs(vals[k] - vals[k - 2]) / (2 * h),
                    1.0,
                )
                assert abs(vals[k + 1] - vals[k]) <= 10.0 * h * slope
