"""Seeded inputs for the three benchmark workloads.

Everything here is plain Python driven by ``random.Random(seed)``: the same
seed gives the same inputs on any machine, and the library only ever receives
the numbers built here.  No qcdyn code runs while inputs are generated.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass

# --- raster -----------------------------------------------------------------

# (alpha, c, half-width) of the filled Julia sets: the gallery's two sets plus
# the conformal exponent, where a skipped-power fast path would show.
JULIA_SETS = ((0.75, -0.78 + 0j, 1.6), (1.0, -0.78 + 0j, 1.6), (1.5, -0.8 + 0j, 1.5))
# (alpha, center, width) of the gallery's connectedness loci.
LOCI = ((0.75, -0.35 + 0j, 2.6), (1.0, -0.5 + 0j, 3.0), (1.5, -0.5 + 0j, 3.2))
JULIA_ITER = 1000
JULIA_SIZE = 512
LOCUS_ITER = 256
LOCUS_SIZE = 512
ATTRACTOR_SIZE = 256
CLI_ALPHA = 0.75
CHECK_CELLS = 24  # cells per raster re-run by the plain-Python reference loop

# --- census -----------------------------------------------------------------

CENSUS_ALPHAS = (0.6, 0.75, 0.9, 1.0, 1.25, 1.5, 2.0, 3.0)
CENSUS_CALLS = 120
FOLD_OFFSET = 0.04  # relative offset from gamma+ of the near-fold census points
CURVE_ALPHAS = (0.6, 0.8, 2.0, 6.0)
CURVE_SAMPLES = 1024
PROBE_ALPHA = 0.8
PROBE_PAIRS = 10_000
PERIODIC_SEARCHES = 200
CRITICAL_ORBIT_LEN = 256
# the gallery's circular leaves: (alpha, pullback depth), c = 0, 1024 vertices
LEAVES = ((2.0, 8), (0.625, 8))
LEAF_POINTS = 1024

# --- hopf -------------------------------------------------------------------

HOPF_EXPONENTS = 63
HOPF_ANGLES = 64


@dataclass(frozen=True)
class RasterJob:
    kind: str  # "julia", "locus", "locus_attractor" or "cli_locus_attractor"
    alpha: float
    c: complex  # the Julia parameter; unused for loci
    center: complex
    width: float
    size: int
    max_iter: int
    cells: tuple[tuple[int, int], ...]  # (i, j) sampled for the reference check


@dataclass(frozen=True)
class CensusInputs:
    fixed_points: tuple[tuple[float, complex], ...]  # (alpha, c)
    periodic: tuple[tuple[float, complex, int, complex], ...]  # (alpha, c, q, start)
    curve_alphas: tuple[float, ...]
    curve_samples: int
    probe: tuple[float, int, int]  # (alpha, pairs, rng seed)
    leaves: tuple[tuple[float, int, tuple[complex, ...]], ...]  # (alpha, depth, vertices)
    critical_len: int


@dataclass(frozen=True)
class HopfInputs:
    alphas: tuple[float, ...]
    thetas: tuple[float, ...]


def _cells(rng: random.Random, size: int) -> tuple[tuple[int, int], ...]:
    return tuple((rng.randrange(size), rng.randrange(size)) for _ in range(CHECK_CELLS))


def _jitter(rng: random.Random, scale: float) -> complex:
    return complex(rng.uniform(-scale, scale), rng.uniform(-scale, scale))


def raster_inputs(seed: int) -> tuple[RasterJob, ...]:
    """The gallery's rasters, each c and center moved by a seeded ~1e-3 jitter."""
    rng = random.Random(f"raster-{seed}")
    jobs = []
    for alpha, c, half in JULIA_SETS:
        width = 2.0 * half
        jobs.append(RasterJob("julia", alpha, c + _jitter(rng, 1e-3), _jitter(rng, 1e-3 * width),
                              width, JULIA_SIZE, JULIA_ITER, _cells(rng, JULIA_SIZE)))
    for kind, size in (("locus", LOCUS_SIZE), ("locus_attractor", ATTRACTOR_SIZE)):
        for alpha, center, width in LOCI:
            jobs.append(RasterJob(kind, alpha, 0j, center + _jitter(rng, 1e-3 * width), width,
                                  size, LOCUS_ITER, _cells(rng, size)))
    alpha, center, width = next(locus for locus in LOCI if locus[0] == CLI_ALPHA)
    jobs.append(RasterJob("cli_locus_attractor", alpha, 0j, center + _jitter(rng, 1e-3 * width),
                          width, ATTRACTOR_SIZE, LOCUS_ITER, _cells(rng, ATTRACTOR_SIZE)))
    return tuple(jobs)


def gamma_plus_point(alpha: float, t: float) -> complex:
    """A point of the eigenvalue +1 loop, parametrised by t in [0, 1).

    Same loop as the library's gamma+ curve, written out independently: the
    larger root of 4a u^2 - 2(a+1) u cos(theta) + 1 = 0 (u = r^{2a-1}) on the
    way out across the sector, the smaller one on the way back.
    """
    sector = math.acos(min(1.0, 2.0 * math.sqrt(alpha) / (alpha + 1.0)))
    if t < 0.5:
        theta, sign = sector * (4.0 * t - 1.0), 1.0
    else:
        theta, sign = sector * (3.0 - 4.0 * t), -1.0
    ct = math.cos(theta)
    disc = max(0.0, (alpha + 1.0) ** 2 * ct * ct - 4.0 * alpha)
    u = ((alpha + 1.0) * ct + sign * math.sqrt(disc)) / (4.0 * alpha)
    return u ** (1.0 / (2.0 * alpha - 1.0)) * cmath.exp(1j * theta)


def _param(alpha: float, z: complex) -> complex:
    """c = z - |z|^{2a-2} z^2, the parameter for which z is fixed."""
    return z - abs(z) ** (2.0 * alpha - 2.0) * z * z


def census_inputs(seed: int) -> CensusInputs:
    """Fixed-point census parameters: every other c lies just inside the
    p(gamma+) image, where 3-4 fixed points coexist; the rest are spread over
    the box [-1.5, 1] x [-1, 1] that holds the loci.

    A near-fold c is p(z) for z = (1 +- 0.04) times a point of gamma+: p
    folds along gamma+, so both signs land on the multi-root side at a fixed
    small distance from the fold.  Draws are stratified (one per slice of the
    gamma+ loop, one per vertical strip of the box, per exponent) so that
    every seed covers both regions evenly and the census cost (which grows
    sharply as c approaches the fold) does not swing with the seed.
    """
    rng = random.Random(f"census-{seed}")
    per_alpha = CENSUS_CALLS // len(CENSUS_ALPHAS)
    near, far = (per_alpha + 1) // 2, per_alpha // 2
    params = []
    for k in range(CENSUS_CALLS):
        alpha = CENSUS_ALPHAS[k % len(CENSUS_ALPHAS)]
        m = k // len(CENSUS_ALPHAS)
        if m % 2 == 0:
            t = (m // 2 + rng.random()) / near
            c = _param(alpha, (1.0 + FOLD_OFFSET * (-1) ** (m // 2)) * gamma_plus_point(alpha, t))
        else:
            x = -1.5 + 2.5 * (m // 2 + rng.random()) / far
            c = complex(x, rng.uniform(-1.0, 1.0))
        params.append((alpha, c))
    periodic = []
    for k in range(PERIODIC_SEARCHES):
        alpha, c = params[rng.randrange(CENSUS_CALLS)]
        start = cmath.rect(rng.uniform(0.05, 1.0), rng.uniform(-math.pi, math.pi))
        periodic.append((alpha, c, 1 + k % 4, start))
    leaves = []
    for alpha, depth in LEAVES:
        n = LEAF_POINTS
        base = tuple(
            (1.6 + 0.25 * math.sin(4 * 2 * math.pi * k / n)) * cmath.exp(2j * math.pi * k / n)
            for k in range(n)
        )
        leaves.append((alpha, depth, base))
    return CensusInputs(
        fixed_points=tuple(params),
        periodic=tuple(periodic),
        curve_alphas=CURVE_ALPHAS,
        curve_samples=CURVE_SAMPLES,
        probe=(PROBE_ALPHA, PROBE_PAIRS, rng.randrange(2**31)),
        leaves=tuple(leaves),
        critical_len=CRITICAL_ORBIT_LEN,
    )


def hopf_inputs(seed: int) -> HopfInputs:
    """The gallery's Hopf surface: exponents alpha = 1/(1 - beta) on its beta
    grid (first 63 of 64 points, beta never 0), angles 2 pi (k + phase)/64
    with the phase drawn from the seed (the gallery uses 1/2)."""
    rng = random.Random(f"hopf-{seed}")
    betas = [-0.98 + 1.96 * k / 63 for k in range(HOPF_EXPONENTS)]
    phase = rng.uniform(0.05, 0.95)
    return HopfInputs(
        alphas=tuple(1.0 / (1.0 - b) for b in betas),
        thetas=tuple(2.0 * math.pi * (k + phase) / HOPF_ANGLES for k in range(HOPF_ANGLES)),
    )


GENERATORS = {"raster": raster_inputs, "census": census_inputs, "hopf": hopf_inputs}
