"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance is pinned here; nothing is deferred to calibration.
"""

import cmath
import math
import time
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from oracles import (
    brute_force_fixed_points,
    census_signature,
    fd_jacobian,
    fd_jet,
    pixel_diag,
    real_matrix,
    real_region_samples,
)
from qcdyn.errors import EigenvalueError, ResonanceError
from qcdyn.fixed_points import (
    DELTA,
    GAMMA_MINUS,
    GAMMA_PLUS,
    detect_cusps,
    find_fixed_points,
    trace_curve,
    trace_curve_image,
)
from qcdyn.jets import hopf_number, jet_of_map
from qcdyn.maps import (
    MapParams,
    apply_map,
    jacobian,
    lambda_min,
    rho_expansion_ratio,
    scaling_identity_check,
    tip_parameter,
)
from qcdyn.orbits import critical_orbit
from qcdyn.render import GridSpec, PointClass, classify_point, render_julia


def _report(num: int, desc: str, failures: list):
    status = "PASS" if not failures else "FAIL"
    print(f"[criterion {num}] {status} - {desc}")
    assert not failures, f"criterion {num}: {failures[:8]}"


def _admissible_thetas(alpha: float, n: int) -> list[float]:
    out = []
    for k in range(n):
        theta = 2 * math.pi * (k + 0.5) / n
        out.append(theta)
    return out


def test_criterion_1_hopf_sign_reproduction():
    failures = []
    t0 = time.monotonic()
    for alpha in (0.6, 0.75, 0.9):
        vals = []
        for theta in _admissible_thetas(alpha, 48):
            try:
                vals.append(hopf_number(alpha, theta))
            except (ResonanceError, EigenvalueError):
                continue
        if len(vals) < 32:
            failures.append((alpha, "too few admissible angles", len(vals)))
        bad = [v for v in vals if not v > 41.0]
        if bad:
            failures.append((alpha, "values at or below 41.0", min(vals)))
    for alpha in (1.5, 2.0, 6.0):
        vals = []
        for theta in _admissible_thetas(alpha, 48):
            try:
                vals.append(hopf_number(alpha, theta))
            except (ResonanceError, EigenvalueError):
                continue
        if len(vals) < 32:
            failures.append((alpha, "too few admissible angles", len(vals)))
        bad = [v for v in vals if not v < -8.1]
        if bad:
            failures.append((alpha, "values at or above -8.1", max(vals)))
    for theta in _admissible_thetas(1.0, 48):
        try:
            v = hopf_number(1.0, theta)
        except (ResonanceError, EigenvalueError):
            continue
        if not abs(v) < 1e-8:
            failures.append((1.0, theta, v))
    elapsed = time.monotonic() - t0
    if elapsed >= 30.0:
        failures.append(("runtime", elapsed))
    _report(1, f"Hopf numbers >41.0 / <-8.1 / ~0 by exponent ({elapsed:.1f}s)", failures)


def test_criterion_2_jet_and_jacobian_oracles():
    rng = np.random.default_rng(2024)
    failures = []
    for _ in range(500):
        alpha = rng.uniform(0.6, 6.0)
        r = rng.uniform(0.2, 3.0)
        z = r * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
        p = MapParams(alpha, complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))

        exact_j = jacobian(p, z)
        approx_j = fd_jacobian(p, z)
        exact_m = real_matrix(exact_j)
        rel = np.linalg.norm(approx_j - exact_m) / np.linalg.norm(exact_m)
        if not rel < 1e-6:
            failures.append(("jacobian", alpha, z, rel))

        exact_t = jet_of_map(alpha, z).coeff
        approx_t = fd_jet(alpha, z)
        rel = np.linalg.norm(approx_t - exact_t) / np.linalg.norm(exact_t)
        if not rel < 1e-6:
            failures.append(("jet", alpha, z, rel))

        expect = 4.0 * alpha * r ** (4 * alpha - 2)
        if not abs(exact_j.det - expect) < 1e-10 * max(1.0, expect):
            failures.append(("det", alpha, z, exact_j.det - expect))
    _report(2, "500-sample finite-difference and determinant oracles", failures)


def test_criterion_3_fixed_point_census():
    failures = []
    need = {
        0.75: {"attracting": 2, "repelling": 1, "saddle": 1},
        2.0: {"attracting": 1, "repelling": 2, "saddle": 1},
    }
    for alpha in (0.75, 2.0):
        cs = real_region_samples(alpha, 200)
        assert len(cs) >= 200
        found_region = False

        def one(c):
            p = MapParams(alpha, float(c))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                newton = find_fixed_points(p)
                brute = brute_force_fixed_points(p)
            return c, newton, brute

        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(one, cs))
        for c, newton, brute in results:
            if len(newton) > 4:
                failures.append((alpha, c, "more than four fixed points"))
            if census_signature(newton) != census_signature(brute):
                failures.append((alpha, c, "census mismatch"))
            counts = {
                cls: sum(r.cls == cls for r in newton)
                for cls in ("attracting", "repelling", "saddle")
            }
            if counts == need[alpha]:
                found_region = True
        if not found_region:
            failures.append((alpha, "expected mixed region never sampled"))
    _report(3, "Newton census equals 2000x2000 grid census on 2x200 real parameters", failures)


def test_criterion_4_curve_geometry():
    failures = []
    for alpha in (0.6, 0.8, 1.3, 2.0, 6.0):
        p0 = MapParams(alpha, 0)
        for z in trace_curve(alpha, DELTA, 256).points:
            if not abs(jacobian(p0, z).det - 1.0) < 1e-9:
                failures.append(("delta", alpha, z))
        for z in trace_curve(alpha, GAMMA_PLUS, 256).points:
            jac = jacobian(p0, z)
            if not abs(1 - jac.trace + jac.det) < 1e-9:
                failures.append(("gamma+", alpha, z))
        for z in trace_curve(alpha, GAMMA_MINUS, 256).points:
            jac = jacobian(p0, z)
            if not abs(1 + jac.trace + jac.det) < 1e-9:
                failures.append(("gamma-", alpha, z))
        plus = trace_curve(alpha, GAMMA_PLUS, 256).points
        minus = trace_curve(alpha, GAMMA_MINUS, 256).points
        if minus != tuple(-z for z in plus):
            failures.append(("negation", alpha))
    for alpha in (0.8, 2.0):
        cusps = detect_cusps(alpha)
        real = [c for c in cusps if abs(c.imag) < 1e-9]
        if len(cusps) != 3 or len(real) != 1:
            failures.append(("cusps", alpha, cusps))
    cardioid = trace_curve_image(1.0, DELTA, 64).points
    if not min(abs(c - 0.25) for c in cardioid) < 1e-12:
        failures.append(("cardioid cusp", min(abs(c - 0.25) for c in cardioid)))
    _report(4, "curve eigenvalue equations, cusp counts, symmetry, cardioid cusp", failures)


def test_criterion_5_escape_and_expansion():
    failures = []
    rng = np.random.default_rng(55)
    params = []
    for k in range(20):
        alpha = 0.6 + 2.4 * k / 19
        s = 2.0
        while s - (2 * s) ** (1 / (2 * alpha)) < 1.0:
            s *= 1.1
        params.append(MapParams(alpha, s * cmath.exp(1j * rng.uniform(0, 2 * math.pi))))
    for p in params:
        box = 2.4 * abs(p.c)
        grid = GridSpec(0, box, box, 192, 192)
        raster = render_julia(p, grid, 12)
        samples = grid.samples()
        bounded = raster.status == PointClass.BOUNDED
        lower = (abs(p.c) - abs(2 * p.c) ** (1 / (2 * p.alpha))) ** (1 / (2 * p.alpha))
        for z in samples[bounded]:
            z = complex(z)
            if not abs(z) >= lower - pixel_diag(grid):
                failures.append((p.alpha, p.c, z, "below annulus"))
            if not abs(z) <= abs(p.c) + pixel_diag(grid):
                failures.append((p.alpha, p.c, z, "outside annulus"))
            if not lambda_min(p, z) > 1.0:
                failures.append((p.alpha, p.c, z, "not expanding"))
        if not critical_orbit(p, 400).escaped:
            failures.append((p.alpha, p.c, "critical orbit stayed bounded"))
    _report(5, "strong-parameter annulus bounds, expansion, critical escape", failures)


def test_criterion_6_metric_expansion():
    failures = []
    for alpha in (0.5, 0.6, 1.0, 1.4, 1.7):
        radius = 1.0 if alpha == 0.5 else 2 ** (1 / (2 * alpha - 1))
        lo = math.inf
        for i in range(200):
            for j in range(200):
                z = complex(
                    (2 * (i + 0.5) / 200 - 1.0) * radius,
                    (2 * (j + 0.5) / 200 - 1.0) * radius,
                )
                if abs(z) > radius:
                    continue
                lo = min(lo, rho_expansion_ratio(alpha, z))
        if not lo > 1.0:
            failures.append((alpha, lo))
    _report(6, "pullback metric expansion ratio exceeds 1 on the tip disk", failures)


def test_criterion_7_interval_julia_set():
    failures = []
    for alpha in (0.8, 1.2):
        c = tip_parameter(alpha)
        p = MapParams(alpha, c)
        box = 2.2 * abs(c)
        grid = GridSpec(complex(0.0, 0.5 * box / 1024), box, box, 1024, 1024)
        raster = render_julia(p, grid, 1000)
        samples = grid.samples()
        bounded = raster.status == PointClass.BOUNDED
        if not bounded.any():
            failures.append((alpha, "no bounded cells"))
            continue
        tol = 2 * grid.height / grid.ny
        off_axis = np.abs(samples.imag[bounded]) >= tol
        if off_axis.any():
            failures.append((alpha, "bounded cells off the real axis", int(off_axis.sum())))
        # midpoint samples of [c, |c|]; orbits through the exactly representable
        # repelling endpoint drift off it in floats, so endpoints are excluded
        row = GridSpec(0, 2 * abs(c), 1.0, 512, 1)
        row_raster = render_julia(p, row, 1000)
        if not (row_raster.status == PointClass.BOUNDED).all():
            bad = (row_raster.status != PointClass.BOUNDED).sum()
            failures.append((alpha, "real interval samples escaped", int(bad)))
    _report(7, "tip Julia sets concentrate on the real interval", failures)


def test_criterion_8_limit_properties():
    failures = []
    rng = np.random.default_rng(88)
    for _ in range(300):
        c = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        k = rng.uniform(0.1, 10.0)
        err = scaling_identity_check(c, z, k)
        scale = max(1.0, abs(k * apply_map(MapParams(0.5, c), z)))
        if not err < 1e-12 * scale:
            failures.append(("scaling", c, z, k, err))
    for k in range(16):
        t = 2 * math.pi * k / 16
        inner = classify_point(MapParams(50.0, 0.5 * cmath.exp(1j * t)), 0, 400)
        outer = classify_point(MapParams(50.0, 1.5 * cmath.exp(1j * t)), 0, 400)
        if inner.status is not PointClass.BOUNDED:
            failures.append(("inner ring escaped", t))
        if outer.status is not PointClass.ESCAPED:
            failures.append(("outer ring bounded", t))
    _report(8, "half-exponent scaling identity and large-exponent disk limit", failures)


def test_criterion_9_figure_fidelity_note():
    # the original figures' grids and iteration caps are not recorded, so
    # bitwise reproduction is out of reach; the suite substitutes the
    # property checks above, and scripts/render_figures.py regenerates
    # qualitative counterparts of every figure.
    _report(9, "figure reproduction is qualitative by construction (see README)", [])
