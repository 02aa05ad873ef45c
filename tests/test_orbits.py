import cmath
import math
import re
import warnings

import numpy as np
import pytest

from oracles import bench_inputs, bits, real_matrix, scalar_census_seeds, scalar_newton_fixed_point
from qcdyn.errors import DomainError, NoConvergence
from qcdyn.fixed_points import Polyline, find_fixed_points
from qcdyn.maps import MapParams, apply_map, jacobian
from qcdyn.orbits import (
    OrbitTrace,
    critical_orbit,
    find_periodic_orbit,
    pullback_leaf,
    smoothness_exponent,
)

RNG = np.random.default_rng(23)


def circle(radius, n=128, center=0j):
    return Polyline(
        tuple(center + radius * cmath.exp(2j * math.pi * k / n) for k in range(n)),
        closed=True,
    )


class TestCriticalOrbit:
    def test_superattracting_cycle(self):
        trace = critical_orbit(MapParams(1, -1), 4)
        assert trace == OrbitTrace((-1, 0, -1, 0), False)

    def test_escape_beyond_cardioid(self):
        trace = critical_orbit(MapParams(1, 0.26), 500)
        assert trace.escaped
        assert abs(trace.points[-1]) > 2.0

    def test_two_attractor_region_critical_point_escapes(self):
        # two attracting fixed points, yet the critical orbit runs away
        for alpha, c in [(0.6, 0.07), (0.75, 0.17)]:
            recs = find_fixed_points(MapParams(alpha, c))
            assert sum(r.cls == "attracting" for r in recs) == 2
            assert critical_orbit(MapParams(alpha, c), 2000).escaped

    def test_orbit_matches_iteration(self):
        p = MapParams(1.3, 0.1 - 0.2j)
        trace = critical_orbit(p, 10)
        z = 0j
        for pt in trace.points:
            z = apply_map(p, z)
            assert z == pt

    def test_length_validation(self):
        with pytest.raises(DomainError):
            critical_orbit(MapParams(1, 0), 0)

    @pytest.mark.parametrize(
        "alpha,c",
        [
            (3.0, 1e200),  # |c|^(a-1) raises OverflowError
            (3.0, 1e60 + 1e60j),  # f(c) comes out as nan+infj
            (1.0, cmath.sqrt(1.3e308 * (1 + 1j))),  # f(c) is finite, |f(c)| raises
            (3.0, 1.5e308 + 1.5e308j),  # |c| itself raises
            (1.0, 1.5e308 + 1.5e308j),  # likewise; the escape radius is infinite
            (0.5, 1e308),  # the escape radius is infinite and f(c) = 2c is inf
        ],
    )
    def test_points_past_the_float_range_end_the_trace(self, alpha, c):
        p = MapParams(alpha, c)
        assert critical_orbit(p, 5) == OrbitTrace((p.c,), True)


class TestPeriodicOrbit:
    def test_superattracting_two_cycle(self):
        orb = find_periodic_orbit(MapParams(1, -1), 2, 0.1)
        assert orb.period == 2
        assert sorted(round(abs(z), 9) for z in orb.points) == [0.0, 1.0]
        assert all(abs(m) < 1e-9 for m in orb.multipliers)
        assert orb.cls == "attracting"

    def test_fixed_point_multiplier(self):
        orb = find_periodic_orbit(MapParams(1, 0), 1, 0.9)
        assert orb.period == 1
        assert orb.points[0] == pytest.approx(1.0)
        assert all(m == pytest.approx(2.0) for m in orb.multipliers)

    def test_minimal_period_reported(self):
        orb = find_periodic_orbit(MapParams(1, -1), 4, 0.1)
        assert orb.period == 2

    def test_cycle_closes(self):
        orb = find_periodic_orbit(MapParams(1.3, -0.6 + 0.1j), 3, 0.4 + 0.2j)
        for a, b in zip(orb.points, orb.points[1:] + orb.points[:1]):
            assert abs(apply_map(MapParams(1.3, -0.6 + 0.1j), a) - b) < 1e-9

    def test_multipliers_cyclic_invariance(self):
        p = MapParams(1.3, -0.6 + 0.1j)
        orb = find_periodic_orbit(p, 3, 0.4 + 0.2j)
        rotations = []
        for start in orb.points:
            o = find_periodic_orbit(p, 3, start + 1e-10)
            rotations.append(sorted((m.real, m.imag) for m in o.multipliers))
        for rot in rotations[1:]:
            assert np.allclose(rot, rotations[0], atol=1e-9)

    def test_multipliers_match_numpy_matrix_product(self):
        # the chained Wirtinger pairs against the product of real 2x2 matrices
        cases = [
            (MapParams(1.3, -0.6 + 0.1j), 3, 0.4 + 0.2j),
            (MapParams(0.75, -0.38), 2, -0.26 + 0.08j),
            (MapParams(2.0, 0.3 + 0.4j), 1, 0.5),
            (MapParams(0.6, -0.5 + 0.2j), 4, 0.3j),
            (MapParams(3.0, -0.9), 2, 0.2 + 0.1j),
        ]
        for p, q, seed in cases:
            self._check_cycle(p, q, find_periodic_orbit(p, q, seed))
        # the benchmark's 200 periodic starts (q = 1-4) for seed 7, each of
        # which reaches a cycle
        for alpha, c, q, start in bench_inputs("census", 7).periodic:
            p = MapParams(alpha, c)
            self._check_cycle(p, q, find_periodic_orbit(p, q, start))

    @staticmethod
    def _check_cycle(p, q, orb):
        """The cycle closes under f to 1e-9, its period divides q, and its
        multipliers are the eigenvalues of the product of the real 2x2
        matrices along it."""
        assert q % orb.period == 0 and len(orb.points) == orb.period, (p, q, orb)
        for a, b in zip(orb.points, orb.points[1:] + orb.points[:1]):
            assert abs(apply_map(p, a) - b) < 1e-9, (p, q, orb)
        m = np.eye(2)
        for z in orb.points:
            m = real_matrix(jacobian(p, z)) @ m
        (g0, g1), (r0, r1) = orb.multipliers, np.linalg.eigvals(m)
        err = min(abs(g0 - r0) + abs(g1 - r1), abs(g0 - r1) + abs(g1 - r0))
        assert err < 1e-9 * max(1.0, float(np.abs(m).max())), (p, q, orb)

    def test_period_one_search_is_the_census_step(self):
        # at q = 1 the search is the census's scalar Newton: from the seed-7
        # benchmark parameters and every 29th census seed, it returns the
        # oracle's root bit for bit wherever the oracle converges in its 60
        # steps (2,392 of 2,400 starts; the other 8 stall)
        checked = 0
        for alpha, c in bench_inputs("census", 7).fixed_points:
            p = MapParams(alpha, c)
            for seed in scalar_census_seeds(p)[::29]:
                want, _ = scalar_newton_fixed_point(p, seed)
                if want is not None:
                    assert bits(find_periodic_orbit(p, 1, seed).points[0]) == bits(want), (p, seed)
                    checked += 1
        assert checked == 2392

    def test_period_two_attractor_coexists_with_saddle(self):
        # real parameter just inside the gamma- image: an off-axis 2-cycle
        # attracts, yet the critical orbit rests on the saddle fixed point.
        # For real c the real axis is invariant and the saddle attracts along
        # it, so the orbit of 0 never leaves the axis for the cycle
        p = MapParams(0.75, -0.38)
        orb = find_periodic_orbit(p, 2, -0.26 + 0.08j)
        assert orb.period == 2
        assert orb.cls == "attracting"
        recs = find_fixed_points(p)
        saddles = [r for r in recs if r.cls == "saddle"]
        assert len(saddles) == 1
        z = 0j
        for _ in range(5000):
            z = apply_map(p, z)
        assert abs(z - saddles[0].z) < 1e-8

    def test_off_axis_critical_orbit_finds_the_two_cycle(self):
        # the same parameter moved 1e-9 off the real axis: the axis is no
        # longer invariant, the saddle repels the orbit off it, and the
        # critical orbit lands on the attracting 2-cycle
        p = MapParams(0.75, -0.38 + 1e-9j)
        orb = find_periodic_orbit(p, 2, -0.26 + 0.08j)
        assert orb.period == 2 and orb.cls == "attracting"
        saddles = [r for r in find_fixed_points(p) if r.cls == "saddle"]
        assert len(saddles) == 1
        z = 0j
        for _ in range(5000):
            z = apply_map(p, z)
        assert abs(apply_map(p, apply_map(p, z)) - z) < 1e-9
        assert min(abs(z - w) for w in orb.points) < 1e-7
        assert abs(z - saddles[0].z) > 0.05

    def test_no_convergence_on_divergent_seed(self):
        with pytest.raises(NoConvergence):
            find_periodic_orbit(MapParams(1, 0.26), 3, 5e6 + 5e6j)

    def test_overflowing_orbit_is_no_convergence(self):
        # f^4(100) at alpha = 3 is about 100^(6^4): past the float range
        with pytest.raises(NoConvergence):
            find_periodic_orbit(MapParams(3.0, 0.3), 4, 100.0)

    def test_overflowing_trial_steps_run_out_of_steps(self):
        # from these starts a full Newton step lands where f^q overflows; the
        # search takes it undamped, survives, and runs out of its 100 steps
        for c, q, seed in [
            (0.24671813919360353 + 0.6883541033080989j, 3, -0.6244969414347191 - 0.29084581781007784j),
            (0.8698983219429763 - 0.10293034450181904j, 4, 0.29546871508001427 + 0.3541799113945634j),
        ]:
            msg = f"no period-{q} orbit reached from seed {seed} in 100 Newton steps"
            with pytest.raises(NoConvergence, match=re.escape(msg)):
                find_periodic_orbit(MapParams(3.0, c), q, seed)

    def test_period_validation(self):
        with pytest.raises(DomainError):
            find_periodic_orbit(MapParams(1, 0), 0, 0.5)


class TestPullback:
    def test_closed_form_radius(self):
        pulled = pullback_leaf(MapParams(2, 0), circle(1.5), [0, 1, 0])
        mods = [abs(z) for z in pulled.points]
        expect = 1.5 ** (1 / 64)
        assert max(abs(m - expect) for m in mods) < 1e-12

    def test_square_root_per_step(self):
        pulled = pullback_leaf(MapParams(1, 0), circle(4.0), [0])
        assert all(abs(abs(z) - 2.0) < 1e-12 for z in pulled.points)

    def test_branch_choice_signs(self):
        base = circle(1.2)
        plus = pullback_leaf(MapParams(1.5, 0), base, [0])
        minus = pullback_leaf(MapParams(1.5, 0), base, [1])
        assert all(a == -b for a, b in zip(plus.points, minus.points))
        assert all(z.real >= 0 or abs(z.real) < 1e-12 for z in plus.points)

    def test_log_contraction_rate(self):
        alpha = 2.0
        p = MapParams(alpha, 0)
        leaf = circle(1.5)
        prev = math.log(1.5)
        for _ in range(4):
            leaf = pullback_leaf(p, leaf, [0])
            cur = max(abs(math.log(abs(z))) for z in leaf.points)
            assert cur == pytest.approx(prev / (2 * alpha), rel=0.1)
            prev = cur

    def test_perturbed_leaf_stabilizes_near_unit_circle(self):
        # with a small nonzero c the pullbacks converge to the invariant
        # curve, which sits within O(|c|) of the round circle
        alpha = 2.0
        p = MapParams(alpha, 0.05)
        pts = tuple(
            (1.5 + 0.1 * math.sin(3 * 2 * math.pi * k / 256))
            * cmath.exp(2j * math.pi * k / 256)
            for k in range(256)
        )
        leaf = Polyline(pts, closed=True)
        prev = None
        steps = []
        for _ in range(8):
            nxt = pullback_leaf(p, leaf, [0])
            if prev is not None:
                steps.append(max(abs(a - b) for a, b in zip(nxt.points, prev.points)))
            prev, leaf = nxt, nxt
        # successive pullbacks form a Cauchy sequence at a geometric rate
        assert all(b < 0.6 * a for a, b in zip(steps, steps[1:]))
        assert max(abs(abs(z) - 1.0) for z in leaf.points) < 2 * abs(p.c)

    def test_degenerate_leaf_rejected(self):
        c = 0.3 + 0.1j
        leaf = circle(0.5, center=c)  # passes straight through... only if radius 0
        bad = Polyline((c, 1.0, 1j), closed=True)
        with pytest.raises(DomainError, match="leaf passes through the critical value"):
            pullback_leaf(MapParams(1.2, c), bad, [0])

    def test_word_validation(self):
        with pytest.raises(DomainError):
            pullback_leaf(MapParams(1.2, 0), circle(1.0), [2])

    @pytest.mark.parametrize("c, leaf", [
        (-1e308, circle(1.7e308, n=8)),  # vertex - c overflows
        (0, Polyline((1.7e308 + 1.7e308j, 1.0, 1j), closed=True)),  # its modulus does
        (0, Polyline((complex(math.nan, 0), 1.0, 1j), closed=True)),
    ])
    def test_vertex_minus_c_not_finite_rejected(self, c, leaf):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="not finite"):
                pullback_leaf(MapParams(1.0, c), leaf, [0])


class TestSmoothnessExponent:
    def test_values(self):
        assert smoothness_exponent(1.0) == pytest.approx(1.0)
        assert smoothness_exponent(2.0) == pytest.approx(2.0)
        assert smoothness_exponent(5 / 8) == pytest.approx(math.log(1.25) / math.log(2))
        assert smoothness_exponent(5 / 8) < 1  # merely uniform convergence

    def test_domain(self):
        with pytest.raises(DomainError):
            smoothness_exponent(0.5)
