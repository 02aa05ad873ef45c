import io
import math
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from oracles import (
    classify_block_reference,
    classify_reference,
    period_search_reference,
    pixel_diag,
    raster_cell,
    write_cells_csv_reference,
)
from qcdyn import render
from qcdyn.errors import DomainError
from qcdyn.fixed_points import saddle_node_parameter
from qcdyn.maps import MapParams, apply_map, lambda_min, tip_parameter
from qcdyn.orbits import find_periodic_orbit
from qcdyn.render import (
    ATTRACTOR_DETECT,
    CYCLE_RUNS,
    CYCLE_WINDOW,
    ESCAPE_ONLY,
    LOCK_EVERY,
    MAX_PERIOD,
    POOL_STEP,
    TOL_CYCLE,
    WINDOW_LANES,
    WINDOW_ROWS,
    CellResult,
    GridSpec,
    PointClass,
    Raster,
    classify_point,
    escape_radius,
    gray_levels,
    render_julia,
    render_locus,
    write_cells_csv,
    write_pgm,
)

RNG = np.random.default_rng(7)

# grids at the edges of the float range: offsets that underflow to -0.0
# (re + 1j*im would make them +0.0) and cells whose coordinates are the
# largest finite ones
EDGE_GRIDS = [
    GridSpec(complex(-0.0, -0.0), 5e-324, 5e-324, 4, 4),
    GridSpec(complex(1.7e308, -1.7e308), 2e307, 2e307, 3, 3),
]


class TestEscapeRadius:
    def test_examples(self):
        assert escape_radius(MapParams(1, -2)) == 2.0
        assert escape_radius(MapParams(1, 0.1)) == 2.0
        assert escape_radius(MapParams(2, 3)) == 3.0

    def test_growth_beyond_radius(self):
        for _ in range(200):
            a = RNG.uniform(0.55, 4.0)
            c = complex(RNG.uniform(-3, 3), RNG.uniform(-3, 3))
            p = MapParams(a, c)
            r = escape_radius(p)
            z = (r * (1 + RNG.uniform(0.001, 1.0))) * np.exp(1j * RNG.uniform(0, 7))
            assert abs(apply_map(p, complex(z))) > abs(z)

    def test_boundary_alpha_infinite(self):
        assert escape_radius(MapParams(0.5, 1)) == math.inf

    def test_saturates_where_the_power_overflows(self):
        assert escape_radius(MapParams(0.5000001, 1)) == math.inf
        # likewise where |c| overflows, as np.abs gives it in the kernel
        assert escape_radius(MapParams(1, 1.5e308 + 1.5e308j)) == math.inf
        raster = render_julia(MapParams(0.5000001, -0.5), GridSpec(0, 3.0, 3.0, 4, 4), 20)
        assert np.all(raster.status == PointClass.BOUNDED)


class TestClassifyPoint:
    def test_bounded_and_attracted_fixed(self):
        p = MapParams(1, 0)
        assert classify_point(p, 0.5, 1000).status is PointClass.BOUNDED
        res = classify_point(p, 0.5, 1000, ATTRACTOR_DETECT)
        assert res.status is PointClass.ATTRACTED and res.value == 1

    def test_superattracting_two_cycle(self):
        res = classify_point(MapParams(1, -1), 0, 1000, ATTRACTOR_DETECT)
        assert res.status is PointClass.ATTRACTED and res.value == 2

    def test_large_c_escapes(self):
        res = classify_point(MapParams(1.5, 2.1), 0, 1000)
        assert res.status is PointClass.ESCAPED
        assert 0 < res.value <= 1000

    def test_immediate_escape(self):
        res = classify_point(MapParams(1, 0), 5.0, 100)
        assert res.status is PointClass.ESCAPED and res.value == 0

    def test_rejects_bad_args(self):
        with pytest.raises(DomainError):
            classify_point(MapParams(1, 0), 0, 0)
        with pytest.raises(DomainError):
            classify_point(MapParams(1, 0), 0, 10, "nope")

    @pytest.mark.parametrize("alpha", [0.6, 0.75, 1.0, 1.5, 3.0])
    def test_escape_time_past_the_saddle_node(self, alpha):
        # Pomeau-Manneville: from 0 at c* + eps the orbit escapes after about
        # pi / sqrt(A eps) steps (up to 31,000 here).  The measured offsets
        # N - pi / sqrt(A eps) lie in [-2.8, -0.8] steps, so K = 3.  The
        # reference kernel, one block of the five eps (0.07-0.28 s), escapes
        # on the same steps, so its offsets are the same
        _, c_star, a2 = saddle_node_parameter(alpha)
        for eps in (1e-3, 1e-4, 1e-5, 1e-6, 1e-7):
            res = classify_point(MapParams(alpha, c_star + eps), 0, 200000)
            assert res.status is PointClass.ESCAPED
            assert abs(res.value - math.pi / math.sqrt(a2 * eps)) <= 3.0, (eps, res.value)
        eps = np.array([1e-3, 1e-4, 1e-5, 1e-6, 1e-7])
        status, value = classify_block_reference(alpha, c_star + eps, np.zeros(5), 200000, ESCAPE_ONLY)
        assert np.all(status == PointClass.ESCAPED)
        offsets = value - np.pi / np.sqrt(a2 * eps)
        assert np.all(np.abs(offsets) <= 3.0), offsets

    def test_escape_time_at_the_cardioid_half_root(self):
        # Boll's pi: at alpha = 1 and c = -3/4 + i eps, where the period-1 and
        # period-2 components meet, N eps -> pi (Klebanoff 2001).  The
        # measured offsets N - pi / eps are +0.84, +1.41 and +1.07 steps; the
        # reference kernel, one block of the three eps, escapes on the same steps
        eps = np.array([1e-2, 1e-3, 1e-4])
        for e in eps.tolist():
            res = classify_point(MapParams(1.0, complex(-0.75, e)), 0, 40000)
            assert res.status is PointClass.ESCAPED
            assert abs(res.value - math.pi / e) <= 3.0, (e, res.value)
        status, value = classify_block_reference(1.0, -0.75 + 1j * eps, np.zeros(3), 40000, ESCAPE_ONLY)
        assert np.all(status == PointClass.ESCAPED)
        offsets = value - np.pi / eps
        assert np.all(np.abs(offsets) <= 3.0), offsets

    def test_matches_reference_loop(self):
        for _ in range(60):
            a = RNG.uniform(0.55, 3.0)
            c = complex(RNG.uniform(-1.5, 1.5), RNG.uniform(-1.5, 1.5))
            z0 = complex(RNG.uniform(-2, 2), RNG.uniform(-2, 2))
            mode = ATTRACTOR_DETECT if RNG.uniform() < 0.5 else ESCAPE_ONLY
            max_iter = int(RNG.integers(5, 400))
            p = MapParams(a, c)
            got = classify_point(p, z0, max_iter, mode)
            want = classify_reference(p, z0, max_iter, mode)
            assert (got.status.name.lower(), got.value) == want


class TestGridSpec:
    def test_sample_matches_array(self):
        g = GridSpec(0.5 - 0.25j, 3.0, 2.0, 7, 5)
        arr = g.samples()
        for j in (0, 2, 4):
            for i in (0, 3, 6):
                assert arr[j, i] == g.sample(i, j)

    @pytest.mark.parametrize("g", EDGE_GRIDS)
    def test_edge_samples_match_bit_for_bit(self, g):
        arr = g.samples()
        for j in range(g.ny):
            for i in range(g.nx):
                z = g.sample(i, j)
                assert np.array([arr[j, i].real, arr[j, i].imag]).tobytes() == np.array([z.real, z.imag]).tobytes()

    def test_overflowing_axes_rejected(self):
        # the top row's im, 1.7e308 + 1e308/3, overflows to inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="overflow"):
                GridSpec(1.7e308j, 1e308, 1e308, 3, 3)

    def test_orientation_top_row_has_larger_imag(self):
        g = GridSpec(0, 2.0, 2.0, 4, 4)
        arr = g.samples()
        assert arr[0, 0].imag > arr[-1, 0].imag

    def test_validation(self):
        with pytest.raises(DomainError):
            GridSpec(0, -1.0, 1.0, 4, 4)
        with pytest.raises(DomainError):
            GridSpec(0, 1.0, 1.0, 0, 4)
        for center, width, height in [
            (complex(math.nan, 0), 1.0, 1.0), (complex(0, math.inf), 1.0, 1.0),
            (0, math.inf, 1.0), (0, 1.0, math.inf), (0, math.nan, 1.0),
        ]:
            with pytest.raises(DomainError):
                GridSpec(center, width, height, 4, 4)


class TestKernelIdentity:
    """The escape kernel is bit-identical to the verbatim first version,
    tests/oracles.classify_block_reference, for any thread count, and warns
    nowhere (check_first_kernel).

    Escape grids hold just over 65536 cells, so each render starts on two or
    three blocks; attractor grids hold just over 16384, so at 2 and 3 threads
    the first steps run on two blocks before the live lanes are pooled.
    Julia grids have odd sides centred on 0, so one lane starts at the
    branch point; locus grids start every lane there.  The branch grid is a
    locus centred exactly on c = -1, whose centre cell's orbit 0 -> -1 -> 0
    comes back to the branch point every other step.
    """

    @pytest.mark.parametrize("alpha", [0.5, 0.6, 0.75, 1.0, 1.5, 2.0])
    @pytest.mark.parametrize("mode", [ESCAPE_ONLY, ATTRACTOR_DETECT])
    @pytest.mark.parametrize("kind", ["julia", "locus", "large_c", "branch"])
    def test_matches_first_kernel(self, alpha, mode, kind):
        max_iter = 40 if mode == ESCAPE_ONLY else 60
        status, value = self._check(alpha, mode, kind, max_iter)
        if kind == "branch":
            # |-1|^(a-1) = 1, so the centre cell's orbit is 0, -1, 0, ... for every a
            j, i = status.shape[0] // 2, status.shape[1] // 2
            if mode == ESCAPE_ONLY:
                assert (status[j, i], value[j, i]) == (PointClass.BOUNDED, 0)
            else:
                assert (status[j, i], value[j, i]) == (PointClass.ATTRACTED, 2)

    def test_escape_budget_past_the_window(self):
        # max_iter 1000: warm-up 250, window steps 250..449 of which only
        # 347..449 are stored, then 550 more steps; orbits escape in every
        # stretch
        status, value = self._check(1.0, ATTRACTOR_DETECT, "locus", 1000)
        steps = value[status == PointClass.ESCAPED]
        assert ((250 <= steps) & (steps < 347)).any() and ((347 <= steps) & (steps < 450)).any()
        assert (steps >= 450).any() and (status == PointClass.ATTRACTED).any()

    @staticmethod
    def _check(alpha, mode, kind, max_iter):
        nx, ny = (511, 131) if mode == ESCAPE_ONLY else (127, 131)
        if kind == "julia":
            grid = GridSpec(0, 4.0, 4.0, nx, ny)
        elif kind == "locus":
            grid = GridSpec(-0.3, 3.0, 3.0, nx, ny)
        elif kind == "branch":
            grid = GridSpec(-1.0, 0.5, 0.5, nx, ny)
            assert grid.samples()[ny // 2, nx // 2] == -1.0
        else:
            # every |c| above 2^{1/(2a-1)}, so the radius is |c| itself
            # (a = 1/2 has no finite floor; its radius stays infinite)
            floor = 2.0 ** (1.0 / (2.0 * alpha - 1.0)) if alpha > 0.5 else 5.0
            grid = GridSpec(1.3 * floor * np.exp(0.3j), 0.2 * floor, 0.2 * floor, nx, ny)
            assert np.abs(grid.samples()).min() > floor
        c = -0.7 + 0.2j if kind == "julia" else None
        return check_first_kernel(alpha, grid, max_iter, mode, c=c)


def check_first_kernel(alpha, grid, max_iter, mode, c=None):
    """Render a locus (c None) or a Julia set at threads 1, 2 and 3, with
    warnings raised as errors, and compare status and value bytes with the
    verbatim first kernel; return the reference."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if c is None:
            want = classify_block_reference(alpha, grid.samples(), np.zeros((grid.ny, grid.nx)), max_iter, mode)
        else:
            want = classify_block_reference(alpha, c, grid.samples(), max_iter, mode)
        for threads in (1, 2, 3):
            if c is None:
                got = render_locus(alpha, grid, max_iter, mode, threads=threads)
            else:
                got = render_julia(MapParams(alpha, c), grid, max_iter, mode, threads=threads)
            assert np.array_equal(got.status, want[0])
            assert np.array_equal(got.value, want[1])
    return want


class TestParkedLanes:
    """Escaped lanes are parked (z set to NaN) and compacted away in batches.

    Each case is compared with the verbatim first kernel at threads 1, 2
    and 3, with warnings raised as errors.  Escape grids hold just over 65536
    cells, so each render starts on two or three blocks; attractor grids hold
    just over 16384.
    """

    @pytest.mark.parametrize("alpha, c", [(0.75, 0.1483), (1.0, 0.2501)])
    def test_long_escape_tail(self, alpha, c):
        # c just right of where the locus leaves the positive real axis
        # (1/4 at a = 1; between 0.1481 and 0.1482 at a = 0.75, by a scan of
        # the critical orbit): orbits crawl through the gap the parabolic
        # point leaves, so escapes spread over hundreds of steps and parked
        # lanes wait across many of them
        grid = GridSpec(0, 3.2, 3.2, 511, 131)
        status, value = check_first_kernel(alpha, grid, 400, ESCAPE_ONLY, c=c)
        steps = value[status == PointClass.ESCAPED]
        assert steps.min() <= 2 and steps.max() >= 300
        assert np.unique(steps).size >= 60

    def test_escapes_after_warm_up(self):
        # max_iter 900: warm-up 225, window steps 225..424 of which 322..424
        # are stored; orbits near the locus boundary escape before, during
        # and after the stored rows
        grid = GridSpec(-0.75 + 0.1j, 0.05, 0.05, 127, 131)
        status, value = check_first_kernel(1.0, grid, 900, ATTRACTOR_DETECT)
        steps = value[status == PointClass.ESCAPED]
        assert (steps < 322).any() and ((322 < steps) & (steps < 425)).any() and (steps > 425).any()
        assert (status == PointClass.ATTRACTED).any()

    @pytest.mark.parametrize("mode", [ESCAPE_ONLY, ATTRACTOR_DETECT])
    def test_half_alpha(self, mode):
        # the radius is infinite: nothing escapes and nothing is parked
        grid = GridSpec(0, 4.0, 4.0, *((127, 131) if mode == ATTRACTOR_DETECT else (511, 131)))
        status, _ = check_first_kernel(0.5, grid, 300, mode, c=-0.7 + 0.2j)
        assert not (status == PointClass.ESCAPED).any()

    @pytest.mark.parametrize("mode", [ESCAPE_ONLY, ATTRACTOR_DETECT])
    def test_half_alpha_overflow_stays_live(self, mode):
        # parameters near the largest double overflow to inf and then NaN
        # while still live, and so cross every step where renders pool the
        # live lanes; only escapes may park a lane.  Blocks on worker threads
        # run under the caller's np.errstate, so silencing the warnings here
        # silences them at every thread count
        grid = GridSpec(0, 1.6e308, 1.6e308, 131, 131)
        c, z0 = grid.samples(), np.zeros((131, 131))
        with np.errstate(over="ignore", invalid="ignore"):
            want = classify_block_reference(0.5, c, z0, 300, mode)
            # over 1000 orbits reach NaN by step 300: the first step lands on
            # c, then the kernel's step u = |z|^(-1/2) z, z = u u + c, with
            # |z| clamped as the kernel does
            z = c.copy()
            for _ in range(299):
                u = np.maximum(np.abs(z), 5e-324) ** -0.5 * z
                z = u * u + c
        assert np.isnan(z).sum() > 1000
        for threads in (1, 2, 3):
            with np.errstate(over="ignore", invalid="ignore"), warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                got = render_locus(0.5, grid, 300, mode, threads=threads)
            assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], threads
            assert np.array_equal(got.status, want[0])
            assert np.array_equal(got.value, want[1])


class TestPooledLanes:
    """Every render stops its blocks at POOL_STEP, and attractor renders also
    at the window's first step; there the live lanes of all blocks are pooled
    and dealt out again.  Each case is compared with the verbatim first
    kernel at threads 1, 2 and 3, with warnings raised as errors."""

    @pytest.mark.parametrize("alpha, center, width, max_iter", [(0.75, -0.35, 2.6, 848), (1.0, -0.3, 3.0, 968)])
    def test_escapes_on_the_pool_steps(self, alpha, center, width, max_iter):
        # max_iter puts the window's first step, max_iter // 4 + 97, on a
        # step where some orbits escape (found by a scan of these grids)
        grid = GridSpec(center, width, width, 127, 131)
        start = max_iter // 4 + CYCLE_WINDOW - WINDOW_ROWS
        for mode, stops in ((ESCAPE_ONLY, [POOL_STEP]), (ATTRACTOR_DETECT, [POOL_STEP, start])):
            status, value = check_first_kernel(alpha, grid, max_iter, mode)
            steps = value[status == PointClass.ESCAPED]
            for step in stops:
                assert (steps == step).any(), (mode, step)

    @pytest.mark.parametrize("mode", [ESCAPE_ONLY, ATTRACTOR_DETECT])
    def test_more_than_two_full_blocks(self, mode):
        # 133120 cells start on three or four blocks, and the lanes still
        # live at POOL_STEP are dealt out again
        status, _ = check_first_kernel(1.5, GridSpec(0, 3.0, 3.0, 512, 260), 100, mode, c=-0.8 + 5e-4j)
        assert (status == PointClass.ESCAPED).any() and (status != PointClass.ESCAPED).any()

    @pytest.mark.parametrize("mode", [ESCAPE_ONLY, ATTRACTOR_DETECT])
    @pytest.mark.parametrize("max_iter", [2, POOL_STEP - 1, POOL_STEP])
    def test_budget_below_the_pool_step(self, mode, max_iter):
        # in escape mode the last step comes at or before POOL_STEP, so every
        # block runs to the end in its first epoch; in attractor mode the
        # orbits that leave the disk after the budget stay bounded
        status, value = check_first_kernel(1.0, GridSpec(-0.3, 3.0, 3.0, 127, 131), max_iter, mode)
        steps = value[status == PointClass.ESCAPED]
        assert steps.size and steps.max() <= max_iter

    @pytest.mark.parametrize("mode", [ESCAPE_ONLY, ATTRACTOR_DETECT])
    @pytest.mark.parametrize("max_iter", [200, 206])
    def test_lanes_lock_at_the_first_checkpoint_after_the_pool(self, mode, max_iter):
        # interior points of the main cardioid near c = 0.1 land exactly on
        # their fixed point within a few dozen steps.  The checkpoints are the
        # steps n with (max_iter - n) % LOCK_EVERY == 0; at the first one at
        # or after POOL_STEP (32 for max_iter 200, 38 for 206) many lanes
        # first equal their state LOCK_EVERY steps earlier.  A block resumed
        # at POOL_STEP holds no earlier state there, so in escape mode it
        # retires those lanes one checkpoint later, with the same result
        grid = GridSpec(0.1, 0.2, 0.2, 131, 131)
        first = next(n for n in range(POOL_STEP, max_iter) if (max_iter - n) % LOCK_EVERY == 0)
        c = grid.samples().reshape(-1)
        z, states = np.zeros_like(c), {}
        for n in range(first + 1):
            states[n] = z
            z = z * z + c  # the kernel's step at alpha = 1
        earlier, mid, last = (states[first - k * LOCK_EVERY] for k in (2, 1, 0))
        assert ((last == mid) & (mid != earlier)).sum() > 1000
        status, _ = check_first_kernel(1.0, grid, max_iter, mode)
        assert (status != PointClass.ESCAPED).all()

    @pytest.mark.parametrize("c", [None, -0.1])
    def test_window_splits(self, monkeypatch, c):
        # 25600 cells inside the main cardioid (locus) or the filled Julia
        # set, none of whose orbits lands exactly on its cycle before the
        # window: the locus cells lie near the cardioid's 1/2 point, where
        # the multiplier is about -0.9, and the Julia orbits off the real
        # axis keep an imaginary part that shrinks by about 0.18 a step.  All
        # are live at the window's first step, more than one window block
        # may hold, so the window is split
        iterate, start = render._iterate, 200 + CYCLE_WINDOW - WINDOW_ROWS
        sizes = []

        def spy(alpha, lanes, max_iter, mode, out, n=0, stop=None, trap=None):
            if n == start:
                sizes.append(lanes.idx.size)
            return iterate(alpha, lanes, max_iter, mode, out, n, stop, trap)

        monkeypatch.setattr(render, "_iterate", spy)
        grid = GridSpec(-0.7, 0.08, 0.08, 160, 160) if c is None else GridSpec(0, 0.8, 0.8, 160, 160)
        status, _ = check_first_kernel(1.0, grid, 256, ATTRACTOR_DETECT, c=c)
        attracted = (status == PointClass.ATTRACTED).sum()
        assert attracted > WINDOW_LANES
        # at each thread count, every attracted lane is in a window block and
        # no block holds more than WINDOW_LANES
        assert len(sizes) >= 6 and max(sizes) <= WINDOW_LANES
        assert sum(sizes) >= 3 * attracted


class TestLockedLanes:
    """Escape mode retires lanes whose z repeats exactly after LOCK_EVERY steps.

    Each case is compared with the verbatim first kernel, which iterates
    every bounded lane to the end, at threads 1, 2 and 3 with warnings raised
    as errors.  Grids hold just over 65536 cells, so each render starts on two
    or three blocks.
    """

    @pytest.mark.parametrize("max_iter", range(1000, 1000 + LOCK_EVERY))
    @pytest.mark.parametrize("alpha, c", [(1.5, -0.8 + 5e-4j), (1.0, -0.78 + 7e-4j)])
    def test_locking_julia_set(self, alpha, c, max_iter):
        # every bounded lane ends on an exact 2-cycle and retires; the budgets
        # cover each residue of max_iter mod LOCK_EVERY, so each placement of
        # the checkpoints relative to the last step
        status, _ = check_first_kernel(alpha, GridSpec(0, 4.0, 4.0, 511, 131), max_iter, ESCAPE_ONLY, c=c)
        assert (status == PointClass.BOUNDED).sum() > 8000

    def test_real_c(self):
        # no sample lies on the real axis, and none of the bounded orbits
        # closes into an exact cycle within the budget
        status, _ = check_first_kernel(1.5, GridSpec(0, 4.0, 4.0, 512, 130), 1000, ESCAPE_ONLY, c=-0.8)
        assert (status == PointClass.BOUNDED).sum() > 8000

    def test_locus(self):
        status, _ = check_first_kernel(1.0, GridSpec(-0.3, 3.0, 3.0, 511, 131), 1003, ESCAPE_ONLY)
        assert (status == PointClass.BOUNDED).sum() > 8000

    def test_half_alpha_large_c(self):
        # infinite radius, every lane bounded and live to the end
        grid = GridSpec(6.5 * np.exp(0.3j), 1.0, 1.0, 511, 131)
        status, _ = check_first_kernel(0.5, grid, 100, ESCAPE_ONLY)
        assert (status == PointClass.BOUNDED).all()

    def test_locked_orbits_return_at_once(self):
        # interior points of a period-2 component: they retire within a few
        # hundred steps, so a budget of 10**9 costs no more than 1204, which
        # has the same residue mod LOCK_EVERY and so the same checkpoints
        c = -0.8 + 5e-4j
        z0 = np.array([0, 0.1, -0.2 + 0.1j, 0.3j, 0.25 - 0.15j, -0.05j])
        assert 10**9 % LOCK_EVERY == 1204 % LOCK_EVERY
        want = classify_block_reference(1.5, c, z0, 1204, ESCAPE_ONLY)
        for z, status in zip(z0, want[0]):
            got = classify_point(MapParams(1.5, c), z, 10**9)
            assert (got.status, got.value) == (PointClass.BOUNDED, 0) and status == PointClass.BOUNDED


class TestLockedAttractorLanes:
    """Attractor mode retires lanes whose z repeats exactly after LOCK_EVERY
    steps before the window's first step, with the period the search gives
    their replayed cycle states.

    Each case is compared with the verbatim first kernel, which retires no
    lane, at threads 1, 2 and 3 with warnings raised as errors.  Grids hold
    just over 16384 cells, so at 2 and 3 threads the first steps run on two
    blocks.
    """

    @staticmethod
    def _retired(monkeypatch, max_iter):
        """A list that collects the number of lanes each _locked_periods call
        retires.  Every checkpoint n has n = total (mod LOCK_EVERY), so each
        call must place the window's first step (start - total) % LOCK_EVERY
        steps after the state it is given."""
        counts = []
        locked_periods = render._locked_periods
        total, start = render._schedule(max_iter, ATTRACTOR_DETECT)

        def spy(z, c, s, shift):
            assert shift == (start - total) % LOCK_EVERY
            counts.append(z.size)
            return locked_periods(z, c, s, shift)

        monkeypatch.setattr(render, "_locked_periods", spy)
        return counts

    @pytest.mark.parametrize("max_iter", [*range(256, 256 + LOCK_EVERY), *range(1000, 1000 + LOCK_EVERY)])
    @pytest.mark.parametrize("kind", ["locus", "julia"])
    def test_budgets(self, monkeypatch, kind, max_iter):
        # budgets 256-267 put the window at the end of the run (steps 297-399
        # of 400), 1000-1011 well before it (steps 347-449 and later); each
        # range covers every residue of the last step mod LOCK_EVERY, so
        # every shift of the checkpoints against the window rows.  The locus
        # has locked lanes of every period 1-12, the Julia set of period 3
        retired = self._retired(monkeypatch, max_iter)
        if kind == "locus":
            status, _ = check_first_kernel(1.5, GridSpec(-0.3, 3.0, 3.0, 127, 131), max_iter, ATTRACTOR_DETECT)
        else:
            grid = GridSpec(0, 3.2, 3.2, 127, 131)
            status, _ = check_first_kernel(1.3, grid, max_iter, ATTRACTOR_DETECT, c=-0.12 + 0.75j)
        # at each thread count most attracted cells retire before the window
        assert sum(retired) > 3 * (status == PointClass.ATTRACTED).sum() // 2

    @pytest.mark.parametrize("max_iter", [256, 1000])
    def test_lanes_locking_in_the_window_stay_in_it(self, monkeypatch, max_iter):
        # near the cardioid's 1/2 point orbits converge slowly: some land
        # exactly on their cycle before the window's first step, others only
        # in or after the window rows.  Exactly the first retire
        grid = GridSpec(-0.6, 0.3, 0.3, 127, 131)
        total, start = render._schedule(max_iter, ATTRACTOR_DETECT)
        c = grid.samples()
        z, ref = np.zeros_like(c), None
        first = np.full(c.shape, total + 1)
        with np.errstate(invalid="ignore"):
            for n in range(total + 1):
                z[np.abs(z) > 2.0] = np.nan  # the radius of every cell
                if (total - n) % LOCK_EVERY == 0:
                    if ref is not None:
                        first[(z == ref) & (first > total)] = n
                    ref = z.copy()
                z = z * z + c  # the kernel's step at alpha = 1
        early = (first < start).sum()
        assert early > 5000 and ((start <= first) & (first <= total)).sum() > 1000
        retired = self._retired(monkeypatch, max_iter)
        status, _ = check_first_kernel(1.0, grid, max_iter, ATTRACTOR_DETECT)
        assert sum(retired) == 3 * early
        assert (status[first >= start] == PointClass.ATTRACTED).sum() > 1000

    def test_half_alpha_large_c(self, monkeypatch):
        # infinite radius, every lane bounded, live to the end and in the window
        retired = self._retired(monkeypatch, 100)
        grid = GridSpec(6.5 * np.exp(0.3j), 1.0, 1.0, 127, 131)
        status, _ = check_first_kernel(0.5, grid, 100, ATTRACTOR_DETECT)
        assert (status == PointClass.BOUNDED).all() and sum(retired) == 0


class TestTrapRetirement:
    """Escape-mode Julia sets retire the lanes that enter a proved trap
    around an attracting cycle (render._find_trap, _trap_bound), with the
    bytes of running them to the end.

    Every test runs with warnings raised as errors.  Renders are compared
    with the verbatim first kernel, which retires no lane, at threads 1, 2
    and 3; the grids hold just over 65536 cells, so each render starts on
    two blocks.
    """

    TWO_CYCLE = [(-1 + math.sqrt(0.12)) / 2, (-1 - math.sqrt(0.12)) / 2]  # z^2 - 0.78

    @pytest.fixture(autouse=True)
    def _warnings_as_errors(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            yield

    @pytest.mark.parametrize(
        "alpha, c, trapped",
        [
            (1.0, -0.78, True),
            (1.0, -0.78 + 5e-4j, True),
            (1.5, -0.8 + 2e-4j, True),
            (1.5, -0.8 - 2e-4j, True),
            (0.75, -0.78, False),  # an attracting 2-cycle, but no disc is a trap
            (1.2, tip_parameter(1.2), False),  # no attracting cycle
            (1.0, 0.3, False),  # outside the locus
        ],
    )
    def test_matches_first_kernel(self, monkeypatch, alpha, c, trapped):
        found = []
        find_trap = render._find_trap

        def spy(p, live):
            found.append(find_trap(p, live))
            return found[-1]

        monkeypatch.setattr(render, "_find_trap", spy)
        # the tip grid's middle row is the real axis, which holds the interval
        # Julia set, so lanes are live at POOL_STEP
        width = 2.2 * abs(c) if c == tip_parameter(alpha) else 3.2
        status, _ = check_first_kernel(alpha, GridSpec(0, width, width, 511, 131), 400, ESCAPE_ONLY, c=c)
        assert len(found) == 3 and all((trap is not None) == trapped for trap in found)
        if trapped:
            assert (status == PointClass.BOUNDED).sum() > 5000

    def test_contraction_bound(self):
        # kappa bounds the 2-cycle's multiplier 4(1 + c) from above
        p = MapParams(1.0, -0.78)
        kappa = render._trap_bound(p, self.TWO_CYCLE, render.TRAP_RADII[0], escape_radius(p))
        assert abs(4 * (1 + p.c)) <= kappa < 1

    def test_no_trap_at_alpha_three_quarters(self):
        # the 2-cycle off the real axis attracts (spectral radius about
        # 0.984), but ||D f^2|| > 1 at its points, so no disc about them maps
        # into itself (the real 2-cycle, where the critical orbit goes, is a
        # saddle)
        p = MapParams(0.75, -0.78)
        z = 0.3 + 0.2j
        for _ in range(3000):
            z = apply_map(p, z)
        orbit = find_periodic_orbit(p, 2, z)
        assert orbit.cls == "attracting"
        for r in render.TRAP_RADII:
            assert render._trap_bound(p, list(orbit.points), r, escape_radius(p)) is None

    def test_discs_reaching_the_escape_radius_are_refused(self):
        p = MapParams(1.0, -0.78)
        r = render.TRAP_RADII[-1]
        reach = abs(self.TWO_CYCLE[1]) + r
        assert render._trap_bound(p, self.TWO_CYCLE, r, 2 * reach) is not None
        assert render._trap_bound(p, self.TWO_CYCLE, r, reach) is None

    def test_discs_within_the_rounding_allowance_are_refused(self):
        # at r = 1e-14 the contraction gains less than the rounding of a step
        p = MapParams(1.0, -0.78)
        assert render._trap_bound(p, self.TWO_CYCLE, 1e-14, escape_radius(p)) is None

    @pytest.mark.parametrize("alpha, c", [(0.75, -0.78), (1.0, -0.78), (1.5, -0.8), (3.0, 0.2 + 0.3j)])
    def test_rounding_allowance_bounds_the_kernel_step(self, alpha, c):
        # the kernel's step against f at 40 digits, on points of modulus
        # 1e-3 to 2: the error is nonzero and within the allowance
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(11)
        z = 10.0 ** rng.uniform(-3, 0.3, 2000) * np.exp(2j * np.pi * rng.random(2000))
        mod = np.abs(z)
        got, _ = render._step(z.copy(), np.empty_like(z), mod, alpha - 1.0, c)
        err = np.empty(z.size)
        with mpmath.workdps(40):
            for k, w in enumerate(z.tolist()):
                m = mpmath.mpc(w)
                err[k] = float(abs(abs(m) ** (2 * alpha - 2) * m * m + c - mpmath.mpc(got[k])))
        eta = render._STEP_ROUNDING * (1 + abs(alpha - 1)) * (np.abs(z) ** (2 * alpha) + abs(c)) + render._UNDERFLOW
        assert err.max() > 0 and (err <= eta / 4).all()

    def test_kernel_retires_lanes_strictly_inside(self):
        # an unproved disc D(0.5, 0.25) handed to the kernel: the lane at
        # distance exactly 0.25 runs on and escapes at step 4, the one just
        # inside is parked at the checkpoint n = 0 as BOUNDED
        lanes = render._start_lanes(1.0, 0.3, np.array([0.75, np.nextafter(0.75, 0)]), 2)
        out = (np.zeros(2, dtype=np.int8), np.zeros(2, dtype=np.int32))
        render._iterate(1.0, lanes, 2 * LOCK_EVERY, ESCAPE_ONLY, out, trap=(np.array([0.5]), 0.25))
        assert out[0].tolist() == [PointClass.ESCAPED, PointClass.BOUNDED] and out[1].tolist() == [4, 0]


class TestPeriodSearch:
    """render._periods, the pair-by-pair period search, gives every lane the
    period of the search it replaced, tests/oracles.period_search_reference,
    on synthetic windows of WINDOW_ROWS rows, one column per lane."""

    @staticmethod
    def _window():
        rows = np.arange(WINDOW_ROWS)[:, None]
        cols = []
        # every period, as q distinct points on a circle, exact and with
        # noise well inside and around the tolerance
        for q in range(1, MAX_PERIOD + 1):
            cycle = 0.3 + 0.5 * np.exp(2j * np.pi * np.arange(q) / q)
            exact = cycle[rows % q]
            cols += [exact, exact + 0.1 * TOL_CYCLE * RNG.standard_normal((WINDOW_ROWS, 1))]
            cols += [exact + 0.6 * TOL_CYCLE * (RNG.uniform(-1, 1, (WINDOW_ROWS, 1)) + 0j) for _ in range(4)]
        # no period: a wandering orbit
        cols += [RNG.standard_normal((WINDOW_ROWS, 1)) + 1j * RNG.standard_normal((WINDOW_ROWS, 1)) for _ in range(8)]
        # a fixed point with one row moved: each row in turn, so for some q
        # only the first, the middle or the last pair fails
        for r in range(WINDOW_ROWS):
            col = np.full((WINDOW_ROWS, 1), 0.25 - 0.5j)
            col[r] += 1.0
            cols.append(col)
        # non-finite entries, in every row or in one
        for bad in (np.nan, np.inf, -np.inf, complex(np.inf, np.inf), complex(0, -np.inf)):
            cols.append(np.full((WINDOW_ROWS, 1), bad, dtype=np.complex128))
            for r in (0, WINDOW_ROWS - 4, WINDOW_ROWS - 1):
                col = np.full((WINDOW_ROWS, 1), 0.1 + 0j)
                col[r] = bad
                cols.append(col)
        # the last row off by exactly TOL_CYCLE (rejected) and by just less
        for d in (TOL_CYCLE, np.nextafter(TOL_CYCLE, 0.0)):
            col = np.zeros((WINDOW_ROWS, 1), dtype=np.complex128)
            col[-1] = d
            cols.append(col)
        return np.hstack(cols).astype(np.complex128)

    def test_matches_the_block_search(self):
        window = self._window()
        every = np.arange(window.shape[1])
        for lanes in (every, np.flatnonzero(RNG.random(window.shape[1]) < 0.5)):
            with np.errstate(invalid="ignore"):
                want = period_search_reference(window, lanes)
                got = render._periods(window, lanes)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
            if lanes is every:
                # every period is found, on the exact cycles at least
                assert set(range(MAX_PERIOD + 1)) == set(got.tolist())
        # the lanes left out get none
        assert not got[np.setdiff1d(every, lanes)].any()

    def test_replayed_cycles(self, monkeypatch):
        # LOCK_EVERY states of a cycle caught at a checkpoint shift steps
        # (mod LOCK_EVERY) before the window: the row mapping gives each lane
        # the period of the window tiled from its states.  The states are fed
        # in for the kernel's steps.  Columns: exact cycles of every period
        # dividing LOCK_EVERY, then a 12-cycle and a 4-cycle whose points lie
        # within TOL_CYCLE of each other, found at periods 1 and 2, then a
        # 12-cycle whose first four points lie within TOL_CYCLE of each
        # other, whose period depends on the shift: 1 only when those four
        # are the window's last rows
        k = np.arange(LOCK_EVERY)[:, None]
        cols = [0.3 + 0.5 * np.exp(2j * np.pi * (k % q) / q) for q in (1, 2, 3, 4, 6, 12)]
        cols.append(0.2 - 0.1j + 0.3 * TOL_CYCLE * np.exp(2j * np.pi * k / LOCK_EVERY))
        cols.append((k % 2) + 0.5 * TOL_CYCLE * (k % 4 >= 2))
        cols.append(np.where(k < 4, 0.1 * TOL_CYCLE * k, 1.0 + k))
        states = np.hstack(cols).astype(np.complex128)
        lanes = np.arange(states.shape[1])
        tails = []
        for shift in range(LOCK_EVERY):
            replay = iter(states[1:])
            monkeypatch.setattr(render, "_step", lambda z, u, mod, s, c: (next(replay).copy(), u))
            got = render._locked_periods(states[0].copy(), 0j, 0.0, shift)
            window = states[(shift + np.arange(WINDOW_ROWS)) % LOCK_EVERY]
            assert np.array_equal(got, period_search_reference(window, lanes)), shift
            assert got[:-1].tolist() == [1, 2, 3, 4, 6, 12, 1, 2]
            tails.append(got[-1])
        assert [shift for shift, q in enumerate(tails) if q == 1] == [(4 - WINDOW_ROWS) % LOCK_EVERY]
        assert len(set(tails)) > 2

    def test_strict_tolerance_and_single_failing_pair(self):
        last = np.zeros((WINDOW_ROWS, 3), dtype=np.complex128)
        last[-1] = (TOL_CYCLE, np.nextafter(TOL_CYCLE, 0.0), 0.0)
        # row WINDOW_ROWS - 4 is the earlier row of q = 1's first pair, of
        # q = 2's middle pair and of q = 3's last pair only
        last[WINDOW_ROWS - 4, 2] = 1.0
        got = render._periods(last, np.arange(3))
        assert got.tolist() == [0, 1, CYCLE_RUNS + 1]
        assert np.array_equal(got, period_search_reference(last, np.arange(3)))


class TestRenderJulia:
    def test_rejects_non_finite_c(self):
        with pytest.raises(DomainError):
            render_julia(MapParams(1, complex(math.nan, 0)), GridSpec(0, 3.0, 3.0, 4, 4), 20)

    def test_unit_disk(self):
        g = GridSpec(0, 2.4, 2.4, 101, 101)
        raster = render_julia(MapParams(1, 0), g, 600)
        samples = g.samples()
        bounded = raster.status == PointClass.BOUNDED
        inside = np.abs(samples) <= 1.0
        disagree = bounded != inside
        near_edge = np.abs(np.abs(samples) - 1.0) <= pixel_diag(g)
        assert not np.any(disagree & ~near_edge)

    def test_interval_tip_strip(self):
        alpha = 1.2
        c = tip_parameter(alpha)
        w = 2.2 * abs(c)
        g = GridSpec(complex(0.0, 0.5 * w / 256), w, w, 256, 256)
        raster = render_julia(MapParams(alpha, c), g, 1000)
        samples = g.samples()
        bounded = raster.status == PointClass.BOUNDED
        assert bounded.any()
        assert np.abs(samples.imag[bounded]).max() < 2 * g.height / g.ny

    def test_bounded_within_k_disk_for_locus_parameter(self):
        for alpha, c in [(0.75, -0.78), (1.5, -0.8)]:
            p = MapParams(alpha, c)
            assert classify_point(p, 0, 400).status is PointClass.BOUNDED  # c in locus
            g = GridSpec(0, 4.0, 4.0, 101, 101)
            raster = render_julia(p, g, 400)
            samples = g.samples()
            bounded = raster.status == PointClass.BOUNDED
            assert bounded.any()
            limit = 2 ** (1 / (2 * alpha - 1)) + pixel_diag(g)
            assert np.abs(samples[bounded]).max() <= limit


class TestRenderLocus:
    def test_quadratic_membership(self):
        for c, member in [
            (0, True), (-1, True), (0.25, True), (-2, True),
            (0.26, False), (-2.01, False), (1 + 1j, False),
        ]:
            res = classify_point(MapParams(1, c), 0, 2000)
            assert (res.status is PointClass.BOUNDED) == member

    def test_large_alpha_disk_limit(self):
        for k in range(12):
            t = 2 * math.pi * k / 12
            inner = classify_point(MapParams(50.0, 0.5 * np.exp(1j * t)), 0, 400)
            outer = classify_point(MapParams(50.0, 1.5 * np.exp(1j * t)), 0, 400)
            assert inner.status is PointClass.BOUNDED
            assert outer.status is PointClass.ESCAPED

    def test_half_alpha_ray_membership_constant(self):
        for k in range(8):
            t = 2 * math.pi * k / 8
            base = 0.7 * np.exp(1j * t)
            states = {
                classify_point(MapParams(0.5, m * base), 0, 300).status for m in (1, 2, 3)
            }
            assert len(states) == 1

    def test_attractor_mode_marks_periodic_components(self):
        g = GridSpec(-0.5, 2.6, 2.6, 48, 48)
        raster = render_locus(1.0, g, 256, ATTRACTOR_DETECT)
        periods = raster.value[raster.status == PointClass.ATTRACTED]
        assert (periods == 1).any() and (periods == 2).any()


class TestDeterminism:
    def test_thread_count_does_not_change_output(self, monkeypatch):
        g = GridSpec(-0.5, 3.0, 3.0, 96, 96)
        outs = []
        for threads in ("1", "7"):
            monkeypatch.setenv("QCDYN_THREADS", threads)
            raster = render_locus(1.3, g, 200, ATTRACTOR_DETECT)
            outs.append((raster.status.copy(), raster.value.copy()))
        assert np.array_equal(outs[0][0], outs[1][0])
        assert np.array_equal(outs[0][1], outs[1][1])

    def test_threads_share_the_outputs_under_fast_switching(self):
        # blocks on several threads write disjoint cells of the same output
        # arrays; a thread switch every microsecond must lose no write
        g = GridSpec(-0.5, 3.0, 3.0, 160, 160)
        want = render_locus(1.3, g, 200, ATTRACTOR_DETECT, threads=1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = render_locus(1.3, g, 200, ATTRACTOR_DETECT, threads=7)
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(got.status, want.status)
        assert np.array_equal(got.value, want.value)

    @pytest.mark.parametrize("mode", [ESCAPE_ONLY, ATTRACTOR_DETECT])
    def test_one_block_render_submits_no_pool_job(self, mode, monkeypatch):
        # 64 cells make one block per epoch, which runs on the calling thread:
        # no worker's share holds a block, so nothing goes to the pool
        submitted = []
        submit = ThreadPoolExecutor.submit

        def spy(pool, *args, **kwargs):
            submitted.append(args)
            return submit(pool, *args, **kwargs)

        g = GridSpec(0, 3.0, 3.0, 8, 8)
        p = MapParams(1.3, -0.12 + 0.75j)
        want = render_julia(p, g, 300, mode, threads=1)
        monkeypatch.setattr(ThreadPoolExecutor, "submit", spy)
        got = render_julia(p, g, 300, mode, threads=8)
        assert submitted == []
        assert got.status.tobytes() == want.status.tobytes()
        assert got.value.tobytes() == want.value.tobytes()

    def test_repeat_runs_identical(self):
        g = GridSpec(0, 3.0, 3.0, 64, 64)
        a = render_julia(MapParams(0.75, -0.78), g, 300)
        b = render_julia(MapParams(0.75, -0.78), g, 300)
        assert np.array_equal(a.status, b.status)
        assert np.array_equal(a.value, b.value)


class TestOutputs:
    def test_pgm_bytes(self):
        g = GridSpec(0, 3.0, 3.0, 8, 6)
        raster = render_julia(MapParams(1, 0.3), g, 100)
        buf = io.BytesIO()
        write_pgm(raster, buf)
        raw = buf.getvalue()
        assert raw.startswith(b"P5\n8 6\n255\n")
        assert len(raw) == len(b"P5\n8 6\n255\n") + 48

    def test_gray_mapping(self):
        g = GridSpec(0, 3.0, 3.0, 5, 5)
        raster = render_julia(MapParams(1, 0), g, 100)
        g8 = gray_levels(raster)
        esc = raster.status == PointClass.ESCAPED
        assert np.all(g8[raster.status == PointClass.BOUNDED] == 0)
        expect = np.clip(255 * raster.value[esc] // 100, 0, 254)
        assert np.array_equal(g8[esc], expect)

    def test_attracted_gray(self):
        g = GridSpec(0, 1.0, 1.0, 2, 2)
        raster = render_julia(MapParams(1, 0), g, 300, ATTRACTOR_DETECT)
        g8 = gray_levels(raster)
        assert np.all(g8[raster.status == PointClass.ATTRACTED] == 128)

    def test_csv_cells(self):
        g = GridSpec(0, 2.0, 2.0, 3, 2)
        raster = render_julia(MapParams(1, 0), g, 50)
        buf = io.StringIO()
        write_cells_csv(raster, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "i,j,re,im,status,value"
        assert len(lines) == 1 + 6
        i, j, re, im, status, value = lines[1].split(",")
        assert (int(i), int(j)) == (0, 0)
        assert complex(float(re), float(im)) == g.sample(0, 0)
        assert status in {"bounded", "escaped", "attracted"}

    @pytest.mark.parametrize(
        "g",
        [
            GridSpec(complex(-0.0, -0.0), 2.0, 2.0, 5, 3),
            GridSpec(-0.0, 1e-300, 1e-300, 1, 9),
            GridSpec(0.3 - 1.2j, 1e300, 1e300, 9, 1),
            GridSpec(-0.0, 1e300, 1e-300, 7, 5),
            *EDGE_GRIDS,
        ],
    )
    def test_csv_coordinates_are_the_samples(self, g):
        shape = (g.ny, g.nx)
        raster = Raster(g, np.zeros(shape, np.int8), np.zeros(shape, np.int32), 1)
        buf = io.StringIO()
        write_cells_csv(raster, buf)
        lines = buf.getvalue().splitlines()[1:]
        assert len(lines) == g.nx * g.ny
        samples = g.samples()
        for k, line in enumerate(lines):
            i, j, re, im, _, _ = line.split(",")
            assert (int(i), int(j)) == (k % g.nx, k // g.nx)
            z = samples[int(j), int(i)]
            assert (re, im) == (repr(float(z.real)), repr(float(z.imag)))

    @pytest.mark.parametrize(
        "g",
        [
            GridSpec(0, 2.0, 2.0, 1, 1),
            GridSpec(-0.0, 1e-300, 1e-300, 1, 9),
            GridSpec(complex(-0.0, -0.0), 1e300, 1e300, 9, 1),
            GridSpec(0.3 - 1.2j, 1e-300, 1e300, 17, 5),
            *EDGE_GRIDS,
        ],
    )
    def test_csv_matches_the_per_cell_writer(self, g, tmp_path):
        max_iter = 1000
        shape = (g.ny, g.nx)
        status = RNG.integers(0, 3, shape).astype(np.int8)
        value = np.where(status == PointClass.BOUNDED, 0, RNG.integers(1, max_iter + 1, shape)).astype(np.int32)
        status.flat[-1], value.flat[-1] = PointClass.ESCAPED, max_iter
        raster = Raster(g, status, value, max_iter)
        want, got = io.StringIO(), io.StringIO()
        write_cells_csv_reference(raster, want)
        write_cells_csv(raster, got)
        assert got.getvalue() == want.getvalue()
        write_cells_csv(raster, tmp_path / "cells.csv")
        assert (tmp_path / "cells.csv").read_bytes() == want.getvalue().encode()

    def test_cell_accessor(self):
        g = GridSpec(0, 2.0, 2.0, 3, 2)
        raster = render_julia(MapParams(1, 0), g, 50)
        cell = raster_cell(raster, 1, 1)
        assert isinstance(cell, CellResult)
        assert cell.status is PointClass(int(raster.status[1, 1]))


class TestEscapeSoundness:
    def test_reported_escapes_keep_growing(self):
        for _ in range(120):
            a = RNG.uniform(0.6, 3.0)
            c = complex(RNG.uniform(-2, 2), RNG.uniform(-2, 2))
            z0 = complex(RNG.uniform(-2, 2), RNG.uniform(-2, 2))
            p = MapParams(a, c)
            res = classify_point(p, z0, 300)
            if res.status is not PointClass.ESCAPED:
                continue
            z = z0
            for _ in range(res.value):
                z = apply_map(p, z)
            assert abs(z) > escape_radius(p)
            prev = abs(z)
            for _ in range(10):
                if prev > 1e100:
                    break
                z = apply_map(p, z)
                assert abs(z) > prev
                prev = abs(z)


class TestExpansionOnKBound:
    def test_lambda_min_above_one_for_strong_parameters(self):
        # |c| - |2c|^{1/2a} >= 1 forces every bounded sample into an annulus
        # where the euclidean metric is expanded
        for alpha in (0.8, 1.0, 1.6, 2.5):
            s = 2.5
            while s - (2 * s) ** (1 / (2 * alpha)) < 1.0:
                s *= 1.2
            p = MapParams(alpha, s * np.exp(0.9j))
            g = GridSpec(0, 2.4 * s, 2.4 * s, 96, 96)
            raster = render_julia(p, g, 12)
            samples = g.samples()
            bounded = raster.status == PointClass.BOUNDED
            lower = (abs(p.c) - abs(2 * p.c) ** (1 / (2 * alpha))) ** (1 / (2 * alpha))
            for z in samples[bounded]:
                assert abs(z) >= lower - pixel_diag(g)
                assert abs(z) <= abs(p.c) + pixel_diag(g)
                assert lambda_min(p, complex(z)) > 1.0
