#!/usr/bin/env python3
"""Render the family's standard picture set.

Writes PGM rasters and CSV curve files into an output directory (default
./figures).  Grid sizes and iteration caps are chosen for quick turnaround;
bump --size for production-quality images.
"""

import argparse
import cmath
import math
import pathlib
import time

from qcdyn.fixed_points import (
    DELTA,
    GAMMA_MINUS,
    GAMMA_PLUS,
    Polyline,
    detect_cusps,
    trace_curve,
    trace_curve_image,
)
from qcdyn.jets import hopf_sweep, write_sweep_csv
from qcdyn.maps import MapParams, tip_parameter
from qcdyn.orbits import pullback_leaf
from qcdyn.render import (
    ATTRACTOR_DETECT,
    GridSpec,
    render_julia,
    render_locus,
    write_csv,
    write_pgm,
)


def save_polyline(path, polylines):
    rows = ((name, idx, z.real, z.imag) for name, pl in polylines for idx, z in enumerate(pl.points))
    write_csv(path, ("name", "index", "re", "im"), rows)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--outdir", default="figures")
    ap.add_argument("--size", type=int, default=512, help="raster edge length")
    args = ap.parse_args()
    out = pathlib.Path(args.outdir)
    out.mkdir(parents=True, exist_ok=True)
    n = args.size

    t0 = time.time()

    def log(msg):
        print(f"[{time.time() - t0:6.1f}s] {msg}")

    # filled Julia sets for one sub-conformal and one super-conformal exponent
    for alpha, c, half_width in [(0.75, -0.78, 1.6), (1.5, -0.8, 1.5)]:
        grid = GridSpec(0, 2 * half_width, 2 * half_width, n, n)
        raster = render_julia(MapParams(alpha, c), grid, 1000)
        name = f"julia_a{alpha}_c{c}.pgm"
        write_pgm(raster, out / name)
        log(name)

    # interval Julia sets at the tip parameter
    for alpha in (0.8, 1.2):
        c = tip_parameter(alpha)
        box = 2.2 * abs(c)
        grid = GridSpec(complex(0, 0.5 * box / n), box, box, n, n)
        raster = render_julia(MapParams(alpha, c), grid, 1000)
        name = f"julia_tip_a{alpha}.pgm"
        write_pgm(raster, out / name)
        log(name)

    # connectedness loci, plain escape and attractor-detect colourings
    for alpha, center, width in [(0.75, -0.35, 2.6), (1.0, -0.5, 3.0), (1.5, -0.5, 3.2)]:
        grid = GridSpec(center, width, width, n, n)
        raster = render_locus(alpha, grid, 256)
        write_pgm(raster, out / f"locus_a{alpha}.pgm")
        log(f"locus_a{alpha}.pgm")
        grid_small = GridSpec(center, width, width, min(n, 384), min(n, 384))
        raster = render_locus(alpha, grid_small, 256, ATTRACTOR_DETECT)
        write_pgm(raster, out / f"locus_a{alpha}_attractors.pgm")
        log(f"locus_a{alpha}_attractors.pgm")

    # bifurcation curves and their images, with gamma+ cusps
    for alpha in (0.6, 0.8, 2.0, 6.0):
        rows = []
        for which in (DELTA, GAMMA_PLUS, GAMMA_MINUS):
            rows.append((f"{which} source", trace_curve(alpha, which, 1024)))
            rows.append((f"{which} image", trace_curve_image(alpha, which, 1024)))
        save_polyline(out / f"curves_a{alpha}.csv", rows)
        cusps = detect_cusps(alpha)
        write_csv(out / f"cusps_a{alpha}.csv", ("re", "im"), ((z.real, z.imag) for z in cusps))
        log(f"curves_a{alpha}.csv ({len(cusps)} cusps)")

    # circular-leaf pullbacks: smooth for alpha = 2, merely uniform at 5/8
    for alpha in (2.0, 0.625):
        p = MapParams(alpha, 0)
        base = tuple(
            (1.6 + 0.25 * math.sin(4 * 2 * math.pi * k / 1024))
            * cmath.exp(2j * math.pi * k / 1024)
            for k in range(1024)
        )
        leaf = Polyline(base, closed=True)
        rows = [("A0", leaf)]
        pulled = leaf
        for depth in (1, 3, 8):
            while len(rows) <= depth:
                pulled = pullback_leaf(p, pulled, [0])
                rows.append((f"A{len(rows)}", pulled))
        keep = [rows[i] for i in (0, 1, 3, 8)]
        save_polyline(out / f"leaves_a{alpha}.csv", keep)
        log(f"leaves_a{alpha}.csv")

    # Hopf surface over the compactified exponent beta = 1 - 1/alpha
    betas = [-0.98 + 1.96 * k / 63 for k in range(64) if abs(-0.98 + 1.96 * k / 63) > 1e-9]
    alphas = [1.0 / (1.0 - b) for b in betas]
    thetas = [2 * math.pi * (k + 0.5) / 64 for k in range(64)]
    rows = hopf_sweep(alphas, thetas)
    write_sweep_csv(rows, out / "hopf_surface.csv")
    log("hopf_surface.csv")

    log("done")


if __name__ == "__main__":
    main()
