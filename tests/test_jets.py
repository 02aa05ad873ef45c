import cmath
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    _quad_cubic_residual,
    bench_inputs,
    coord_change1_reference,
    evaluate_jet,
    fd_jet,
    jet_identity,
    kuznetsov_hopf_number,
    normal_form3_parts,
    run_python,
)
from qcdyn.errors import DomainError, ResonanceError
from qcdyn.jets import (
    Jet3,
    compose_jets,
    coord_change1,
    hopf_number,
    hopf_sweep,
    jet_of_map,
    normal_form3,
    write_sweep_csv,
)
import qcdyn.jets
from qcdyn.jets import _delta_point
from qcdyn.maps import MapParams, jacobian

RNG = np.random.default_rng(5)

coeff_st = st.builds(complex, st.floats(-2, 2, allow_nan=False), st.floats(-2, 2, allow_nan=False))


def jets_st(zero_const=True):
    keys = [(j, k) for j in range(4) for k in range(4 - j)]
    if zero_const:
        keys.remove((0, 0))
    return st.fixed_dictionaries({k: coeff_st for k in keys}).map(Jet3.from_terms)


def _with_linear_part(jet: Jet3, a: complex, b: complex) -> Jet3:
    c = jet.coeff.copy()
    c[1, 0], c[0, 1] = a, b
    return Jet3(c)


# jets whose linear part a z + b w has a conjugate eigenvalue pair:
# |b| <= 0.3 sqrt 2 < 1 <= |Im a|, as in random_conjugate_pair_jet
conjugate_pair_jets_st = st.builds(
    _with_linear_part,
    jets_st(),
    st.builds(complex, st.floats(-0.5, 0.5), st.floats(1.0, 2.0) | st.floats(-2.0, -1.0)),
    st.builds(complex, st.floats(-0.3, 0.3), st.floats(-0.3, 0.3)),
)


def _in_coord_change_domain(jet: Jet3, im_a: float, s: float, phi: float) -> Jet3:
    """jet with Im a = im_a and b = s |Im a| e^{i phi}, s in [0, 1): inside
    coord_change1's domain |b| < |Im a| by construction.  Where rounding puts
    b on the circle (s within ulps of 1, or a subnormal Im a) it is halved
    back inside."""
    m = abs(im_a)
    b = s * m * cmath.exp(1j * phi)
    while not abs(b) < m:
        b *= 0.5
    return _with_linear_part(jet, complex(jet[1, 0].real, im_a), b)


# the jets of jets_st(zero_const=False) with |b| < |Im a|, drawn there
coord_change_domain_jets_st = st.builds(
    _in_coord_change_domain,
    jets_st(zero_const=False),
    st.floats(0.0, 2.0, exclude_min=True) | st.floats(-2.0, 0.0, exclude_max=True),
    st.floats(0.0, 1.0, exclude_max=True),
    st.floats(-math.pi, math.pi),
)


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
            w = jacobian(MapParams(alpha, 0), z0)
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

    @pytest.mark.parametrize("z0", [complex(math.nan, 0.0), complex(0.3, math.inf), complex(-math.inf, 1.0)])
    def test_non_finite_point_rejected(self, z0):
        with pytest.raises(DomainError, match="finite point"):
            jet_of_map(1.5, z0)


class TestAlgebra:
    def test_chop_truncates_a_jet3(self):
        # Jet3 keeps the degree-3 truncation of what it is given
        c = np.arange(1, 17, dtype=np.complex128).reshape(4, 4)
        assert np.array_equal(Jet3(Jet3(c).coeff).coeff, Jet3(c).coeff)
        assert Jet3(c)[2, 2] == 0 and Jet3(c)[1, 2] == c[1, 2]
        assert Jet3(np.arange(16).reshape(4, 4))[2, 2] == 0

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
        with pytest.raises(DomainError, match="inner jet must have zero constant term"):
            compose_jets(jet_identity(), Jet3.from_terms({(0, 0): 1.0}))

    def test_evaluate_consistency(self):
        jet = jet_of_map(1.4, 0.9 + 0.2j)
        p0 = MapParams(1.4, 0)
        from qcdyn.maps import apply_map

        for d in (0.01, 0.01j, 0.007 - 0.004j):
            direct = apply_map(p0, 0.9 + 0.2j + d) - apply_map(p0, 0.9 + 0.2j)
            assert abs(evaluate_jet(jet, d) - direct) < 1e-7


# the six coefficients of a 4x4 array that a Jet3 drops, and values for them
_ABOVE_DEGREE_3 = [(j, k) for j in range(4) for k in range(4) if j + k > 3]
high_st = st.lists(coeff_st, min_size=6, max_size=6)


def _full(jet: Jet3, high) -> np.ndarray:
    """The jet's 4x4 coefficients with the entries above degree 3 set to high."""
    c = jet.coeff.copy()
    for jk, v in zip(_ABOVE_DEGREE_3, high):
        c[jk] = v
    return c


def _outcome(f, *jets):
    """The bits of f's result (a Jet3's coefficients or a complex), or the
    type and message of what it raised."""
    try:
        out = f(*jets)
    except ResonanceError as exc:
        return type(exc), str(exc)
    return out.coeff.tobytes() if isinstance(out, Jet3) else _hex(out)


class TestJet3Invariant:
    @given(st.lists(st.builds(complex, st.floats(), st.floats()), min_size=16, max_size=16))
    @settings(max_examples=100, deadline=None)
    def test_reads_zero_above_degree_3(self, flat):
        c = np.array(flat, dtype=np.complex128).reshape(4, 4)
        jet = Jet3(c)
        for j in range(4):
            for k in range(4):
                assert _hex(jet[j, k]) == _hex(c[j, k] if j + k <= 3 else 0j)

    @given(coord_change_domain_jets_st, jets_st(), high_st, high_st)
    @settings(max_examples=150, deadline=None)
    def test_full_array_gives_the_bits_of_its_truncation(self, jet, inner, high, high_inner):
        # a full 4x4 array and its truncation make the same jet, and
        # coord_change1, compose_jets and normal_form3 give the same bits on both
        full, full_inner = Jet3(_full(jet, high)), Jet3(_full(inner, high_inner))
        assert full.coeff.tobytes() == jet.coeff.tobytes()
        assert _outcome(coord_change1, full) == _outcome(coord_change1, jet)
        assert _outcome(compose_jets, full, full_inner) == _outcome(compose_jets, jet, inner)
        assert _outcome(normal_form3, full) == _outcome(normal_form3, jet)

    def test_untouched_jet_drops_terms_above_degree_3(self):
        # coord_change1 passes a jet with |b| < 1e-14 through as it is
        jet = Jet3.from_terms({(1, 0): 1j, (3, 0): 2.0})
        full = Jet3(_full(jet, [1.0 + 1j] * 6))
        assert coord_change1(full).coeff.tobytes() == jet.coeff.tobytes()


def bench_hopf_points(seed: int) -> list[tuple[float, float]]:
    """Every point (alpha, theta) of the benchmark's Hopf surface (63 exponents
    x 64 angles), built by perfbench/inputs.py, which imports no qcdyn code."""
    surface = bench_inputs("hopf", seed)
    return [(a, t) for a in surface.alphas for t in surface.thetas]


_REAL_EIGENVALUES = "linear part has real eigenvalues (|b| >= |Im a|); no conjugate pair"
_UNIT_CIRCLE = "coordinate change lies on the unit circle; not invertible"


def _assert_matches_reference(jet: Jet3) -> None:
    """coord_change1 raises what the compose_jets reference raises, or agrees
    with it to 1e-13 of the largest coefficient."""
    try:
        want = coord_change1_reference(jet).coeff
    except ResonanceError as exc:
        with pytest.raises(ResonanceError, match=re.escape(str(exc))):
            coord_change1(jet)
        return
    got = coord_change1(jet).coeff
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


class TestCoordChange:
    def test_holomorphic_untouched(self):
        # |b| below 1e-14 passes through as an equal copy
        for b in (0.0, 9e-15):
            jet = Jet3.from_terms({(1, 0): 1j, (0, 1): b, (3, 0): 2.0})
            out = coord_change1(jet)
            assert np.array_equal(out.coeff, jet.coeff)
            assert not np.shares_memory(out.coeff, jet.coeff)

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
        with pytest.raises(ResonanceError, match=re.escape(_REAL_EIGENVALUES)):
            coord_change1(jet)

    def test_unit_circle_change_rejected(self):
        # |b| is an ulp below |Im a|: the discriminant rounds to >= 0 and |C| to 1
        jet = Jet3.from_terms(
            {(1, 0): 0.3 + 0.7301818495469707j, (0, 1): -0.11124565379939823 - 0.7216577706354858j}
        )
        assert abs(jet[0, 1]) < abs(jet[1, 0].imag)
        for change in (coord_change1, coord_change1_reference):
            with pytest.raises(ResonanceError, match=re.escape(_UNIT_CIRCLE)):
                change(jet)

    @given(coord_change_domain_jets_st)
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_binomial_sum_matches_composition(self, jet):
        _assert_matches_reference(jet)

    def test_bench_surface_matches_composition(self):
        points = bench_hopf_points(7)
        assert len(points) == 4032
        for alpha, theta in points:
            _assert_matches_reference(jet_of_map(alpha, _delta_point(alpha, theta)))


def _hex(z: complex) -> tuple[str, str]:
    """The hex strings of z's parts: equal for equal bits, and for any two NaNs."""
    return z.real.hex(), z.imag.hex()


def _assert_b2_matches_mismatch(jet: Jet3) -> bool:
    """normal_form3 gives exactly the bits of b2 / u with b2 read off the full
    mismatch rjet o L1 - L1 o N at b2 = 0 (signed zeros count); False where
    the jet is resonant."""
    try:
        u, avec, _, rjet = normal_form3_parts(jet)
    except ResonanceError:
        return False
    want = _quad_cubic_residual(rjet, u, avec, 0.0)[2, 1] / 2.0 / u
    assert _hex(normal_form3(jet)) == _hex(want)
    return True


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
                u, avec, b2, rjet = normal_form3_parts(jet)
            except ResonanceError:
                continue
            big = _quad_cubic_residual(rjet, u, avec, b2)
            assert max(abs(big[2, 0]), abs(big[1, 1]), abs(big[0, 2])) < 1e-9
            assert abs(big[2, 1]) < 1e-9

    def test_b2_bits_match_full_mismatch_on_bench_surface(self):
        # the seed-7 bench surface, plus its 64 angles at alpha = 1, where
        # the jet is holomorphic and coord_change1 passes it through
        points = bench_hopf_points(7)
        points += [(1.0, theta) for _, theta in points[:64]]
        admissible = sum(_assert_b2_matches_mismatch(jet_of_map(a, _delta_point(a, t))) for a, t in points)
        assert admissible == 3863  # of 4,096; the rest are resonant

    @given(conjugate_pair_jets_st)
    @settings(max_examples=200, deadline=None)
    def test_b2_bits_match_full_mismatch(self, jet):
        _assert_b2_matches_mismatch(jet)

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
        for alpha in (0.6, 0.75, 1.5, 6.0):
            for theta in (0.7, 2.0, 3.9):
                z0 = _delta_point(alpha, theta)
                jac = jacobian(MapParams(alpha, 0), z0)
                e1, e2 = jac.eigenvalues
                assert e1.imag != 0  # conjugate pair
                assert abs(e1) == pytest.approx(1.0, abs=1e-10)
                assert e1 == pytest.approx(e2.conjugate())


# hashes hopf_number over the (alpha, theta) points read as JSON from stdin:
# float.hex of each value, or the name of its exclusion
_HOPF_DIGEST = """
import hashlib, json, sys
from qcdyn.errors import EigenvalueError, ResonanceError
from qcdyn.jets import hopf_number

def cell(alpha, theta):
    try:
        return hopf_number(alpha, theta).hex()
    except ResonanceError:
        return "resonance"
    except EigenvalueError:
        return "eigenvalue"

def digest(points):
    return hashlib.sha256(" ".join(cell(a, t) for a, t in points).encode()).hexdigest()
"""


def _supported_dispatch_targets() -> str:
    """Every numpy SIMD dispatch target this CPU supports, space-separated, as
    NPY_DISABLE_CPU_FEATURES takes them; empty where numpy dispatches nothing."""
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    return " ".join(t for t in __cpu_dispatch__ if __cpu_features__.get(t))


class TestSameBitsOnEveryCpu:
    def test_hopf_numbers_equal_at_numpy_baseline(self):
        # the CLI's 16 points (hopf --alpha 0.75,1.5 --theta-grid 8) and 16 of
        # the 63 exponents of the seed-7 bench surface, at numpy's baseline
        # loops in a subprocess against this process's default dispatch
        cli = [(a, 2.0 * math.pi * (k + 0.5) / 8) for a in (0.75, 1.5) for k in range(8)]
        surface = bench_hopf_points(7)
        alphas = sorted({a for a, _ in surface})[::4]
        points = cli + [(a, t) for a, t in surface if a in alphas]
        assert len(points) == 16 + 16 * 64
        ns: dict = {}
        exec(_HOPF_DIGEST, ns)
        out = run_python(
            ["-c", _HOPF_DIGEST + "print(digest(json.load(sys.stdin)))"],
            env={"NPY_DISABLE_CPU_FEATURES": _supported_dispatch_targets()},
            input=json.dumps(points), timeout=120, check=True,
        )
        assert out.stdout.strip() == ns["digest"](points)

    def test_hopf_path_builds_no_array(self, monkeypatch):
        # every name the module takes from numpy is gone, and hopf_number still runs
        monkeypatch.setattr(qcdyn.jets, "np", None)
        assert hopf_number(0.75, 2.0) > 41.0
        assert hopf_number(1.5, 2.0) < -8.1
        with pytest.raises(ResonanceError):
            hopf_number(0.75, 2 * math.pi / 3)


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
