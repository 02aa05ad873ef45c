"""Command-line front end: batch subcommands with deterministic file outputs.

Exit codes: 0 success, 1 computation error (domain, resonance, convergence)
or unwritable output, 2 usage error: a flag value its type rejects (see the
flag types below; alpha goes through maps.require_alpha) or a hopf sweep
without -o.
Complex-valued flags accept "re" or "re,im"; prefix negative values with '='
(e.g. --c=-0.8,0.1).  QCDYN_THREADS caps render parallelism
without changing any output byte.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
from fractions import Fraction

from . import fixed_points as fp
from . import jets, orbits, render
from .errors import (
    BranchDegenerate,
    ContractError,
    DomainError,
    EigenvalueError,
    NoConvergence,
    ResonanceError,
)
from .maps import MapParams, require_alpha

_COMPUTE_ERRORS = (
    DomainError,
    ResonanceError,
    EigenvalueError,
    ContractError,
    BranchDegenerate,
    NoConvergence,
)


def _finite_float(text: str) -> float:
    try:
        value = float(text)
        if math.isfinite(value):
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")


def _positive_float(text: str) -> float:
    value = _finite_float(text)
    if value > 0:
        return value
    raise argparse.ArgumentTypeError(f"expected a positive number, got {text!r}")


def _count(least: int):
    """Flag type: an integer >= least."""

    def count(text: str) -> int:
        try:
            if (value := int(text)) >= least:
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected an integer >= {least}, got {text!r}")

    return count


def _alpha_flag(strict: bool):
    """Flag type: an exponent that passes maps.require_alpha (> 1/2 if strict)."""

    def alpha(text: str) -> float:
        try:
            return require_alpha(float(text), strict)
        except ValueError as exc:  # float()'s, or require_alpha's DomainError
            raise argparse.ArgumentTypeError(str(exc)) from None

    return alpha


_map_alpha, _curve_alpha = _alpha_flag(False), _alpha_flag(True)


def _alpha_list(text: str) -> list[float]:
    alphas = [_curve_alpha(tok) for tok in text.split(",") if tok]
    if not alphas:
        raise argparse.ArgumentTypeError(f"expected a value or comma list, got {text!r}")
    return alphas


def _branch_word(text: str) -> list[int]:
    bits = text.replace(",", "")
    if any(ch not in "01" for ch in bits):
        raise argparse.ArgumentTypeError(f"expected a word of 0s and 1s, got {text!r}")
    return [int(ch) for ch in bits]


def _complex_flag(text: str) -> complex:
    parts = text.split(",")
    try:
        if len(parts) <= 2:
            return complex(*map(_finite_float, parts))
    except argparse.ArgumentTypeError:
        pass
    raise argparse.ArgumentTypeError(f"expected finite 're' or 're,im', got {text!r}")


def _add_grid_flags(sp, default_iter):
    sp.add_argument("--center", type=_complex_flag, default=0j, help="grid center re,im")
    sp.add_argument("--width", type=_positive_float, required=True, help="grid width")
    sp.add_argument("--height", type=_positive_float, default=None, help="grid height (default: width*ny/nx)")
    sp.add_argument("--nx", type=_count(1), default=512)
    sp.add_argument("--ny", type=_count(1), default=512)
    sp.add_argument("--max-iter", type=_count(1), default=default_iter)
    sp.add_argument(
        "--mode",
        choices=[render.ESCAPE_ONLY, render.ATTRACTOR_DETECT],
        default=render.ESCAPE_ONLY,
    )
    sp.add_argument("--format", choices=["pgm", "csv"], default="pgm")


def _grid_from_args(args) -> render.GridSpec:
    height = args.height
    if height is None:
        height = args.width * args.ny / args.nx
        if math.isinf(height):  # width * ny overflowed; round the exact quotient instead
            with contextlib.suppress(OverflowError):
                height = float(Fraction(args.width) * args.ny / args.nx)
    return render.GridSpec(args.center, args.width, height, args.nx, args.ny)


def _write_raster(raster, args):
    if args.format == "pgm":
        render.write_pgm(raster, args.output)
    else:
        render.write_cells_csv(raster, args.output)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="qcdyn", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("julia", help="render a filled Julia set")
    sp.add_argument("--alpha", type=_map_alpha, required=True)
    sp.add_argument("--c", type=_complex_flag, required=True)
    _add_grid_flags(sp, 1000)
    sp.add_argument("-o", "--output", required=True)

    sp = sub.add_parser("locus", help="render the connectedness locus")
    sp.add_argument("--alpha", type=_map_alpha, required=True)
    _add_grid_flags(sp, 256)
    sp.add_argument("-o", "--output", required=True)

    sp = sub.add_parser("fixed-points", help="locate and classify fixed points")
    sp.add_argument("--alpha", type=_curve_alpha, required=True)
    sp.add_argument("--c", type=_complex_flag, required=True)
    sp.add_argument("-o", "--output", default=None, help=".csv or .json table (optional)")

    sp = sub.add_parser("curves", help="trace bifurcation curves and their images")
    sp.add_argument("--alpha", type=_curve_alpha, required=True)
    sp.add_argument(
        "--which",
        choices=[fp.DELTA, fp.GAMMA_PLUS, fp.GAMMA_MINUS, "all"],
        default="all",
    )
    sp.add_argument("--n", type=_count(fp.MIN_SAMPLES), default=512, help="samples per curve")
    sp.add_argument("--cusps", action="store_true",
                    help="append the three gamma+ cusp rows (closed form, independent of --n)")
    sp.add_argument("--probe", type=_count(0), default=0, metavar="PAIRS",
                    help="also run the injectivity probe with this many pairs")
    sp.add_argument("--seed", type=_count(0), default=42, help="probe RNG seed")
    sp.add_argument("-o", "--output", required=True, help="CSV output")

    sp = sub.add_parser("hopf", help="Hopf number at one angle or over a sweep")
    sp.add_argument("--alpha", type=_alpha_list, required=True, help="value or comma list")
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--theta", type=_finite_float, help="single angle")
    group.add_argument("--theta-grid", type=_count(1), help="uniform offset grid size over (0, 2pi)")
    sp.add_argument("-o", "--output", default=None, help="CSV output (required for sweeps)")

    sp = sub.add_parser("orbit", help="critical or periodic orbit")
    sp.add_argument("--alpha", type=_map_alpha, required=True)
    sp.add_argument("--c", type=_complex_flag, required=True)
    group = sp.add_mutually_exclusive_group(required=True)
    group.add_argument("--critical", type=_count(1), metavar="N", help="critical orbit length")
    group.add_argument("--periodic", type=_count(1), metavar="Q", help="period for Newton search")
    sp.add_argument("--seed-point", type=_complex_flag, default=0.1 + 0.1j,
                    help="Newton seed for --periodic")
    sp.add_argument("-o", "--output", default=None, help="CSV output")

    sp = sub.add_parser("leaf", help="pull a polyline back through inverse branches")
    sp.add_argument("--alpha", type=_map_alpha, required=True)
    sp.add_argument("--c", type=_complex_flag, required=True)
    sp.add_argument("--radius", type=_positive_float, required=True, help="initial circle radius")
    sp.add_argument("--points", type=_count(2), default=256)
    sp.add_argument("--word", type=_branch_word, required=True,
                    help="branch word, e.g. 010 or 0,1,0")
    sp.add_argument("-o", "--output", required=True, help="CSV output")
    return ap


def _write_points_csv(points, path: str) -> None:
    """Write an index,re,im table, one row per point."""
    render.write_csv(path, ("index", "re", "im"), ((i, z.real, z.imag) for i, z in enumerate(points)))


def _cmd_julia(args) -> int:
    raster = render.render_julia(
        MapParams(args.alpha, args.c), _grid_from_args(args), args.max_iter, args.mode
    )
    _write_raster(raster, args)
    return 0


def _cmd_locus(args) -> int:
    raster = render.render_locus(args.alpha, _grid_from_args(args), args.max_iter, args.mode)
    _write_raster(raster, args)
    return 0


def _cmd_fixed_points(args) -> int:
    records = fp.find_fixed_points(MapParams(args.alpha, args.c))
    print(f"{'re':>22} {'im':>22} {'class':>11} {'|l1|':>10} {'|l2|':>10} {'det':>10} {'trace':>10}")
    for r in records:
        print(
            f"{r.z.real:22.15g} {r.z.imag:22.15g} {r.cls:>11}"
            f" {abs(r.eigenvalues[0]):10.6g} {abs(r.eigenvalues[1]):10.6g}"
            f" {r.det:10.6g} {r.trace:10.6g}"
        )
    if args.output:
        if args.output.endswith(".json"):
            payload = [
                {
                    "re": r.z.real,
                    "im": r.z.imag,
                    "class": r.cls,
                    "eigenvalues": [[e.real, e.imag] for e in r.eigenvalues],
                    "det": r.det,
                    "trace": r.trace,
                }
                for r in records
            ]
            with open(args.output, "w") as fh:
                json.dump(payload, fh, indent=2)
                fh.write("\n")
        else:
            header = ("re", "im", "class", "eig1_re", "eig1_im", "eig2_re", "eig2_im", "det", "trace")

            def rows():
                for r in records:
                    e1, e2 = r.eigenvalues
                    yield r.z.real, r.z.imag, r.cls, e1.real, e1.imag, e2.real, e2.imag, r.det, r.trace

            render.write_csv(args.output, header, rows())
    return 0


def _cmd_curves(args) -> int:
    which = [fp.DELTA, fp.GAMMA_PLUS, fp.GAMMA_MINUS] if args.which == "all" else [args.which]

    def rows():
        for name in which:
            src = fp.trace_curve(args.alpha, name, args.n)
            img = fp.trace_curve_image(args.alpha, name, args.n)
            yield from ((name, "source", idx, z.real, z.imag) for idx, z in enumerate(src.points))
            yield from ((name, "image", idx, z.real, z.imag) for idx, z in enumerate(img.points))
        if args.cusps:
            cusps = fp.detect_cusps(args.alpha)
            yield from ((fp.GAMMA_PLUS, "cusp", idx, z.real, z.imag) for idx, z in enumerate(cusps))

    # every row is built before the file opens, so a DomainError partway
    # through leaves no truncated table behind
    render.write_csv(args.output, ("curve", "kind", "index", "re", "im"), list(rows()))
    if args.probe:
        verdict = fp.injectivity_probe(args.alpha, args.probe, args.seed)
        print(f"injectivity probe ({args.probe} pairs, seed {args.seed}): "
              f"{'passed' if verdict else 'FAILED'}")
        if not verdict:
            return 1
    return 0


def _cmd_hopf(args) -> int:
    if args.theta is not None:
        thetas = [args.theta]
    else:
        n = args.theta_grid
        thetas = [2.0 * math.pi * (k + 0.5) / n for k in range(n)]
    rows = jets.hopf_sweep(args.alpha, thetas)
    if args.theta is not None and len(args.alpha) == 1:
        alpha, beta, theta, val, status = rows[0]
        if status != "ok":
            print(f"alpha={alpha} theta={theta}: {status}", file=sys.stderr)
            return 1
        print(f"alpha={alpha} theta={theta} hopf={val!r}")
    if args.output:
        jets.write_sweep_csv(rows, args.output)
    return 0


def _cmd_orbit(args) -> int:
    p = MapParams(args.alpha, args.c)
    if args.critical is not None:
        trace = orbits.critical_orbit(p, args.critical)
        print(f"critical orbit: {len(trace.points)} points, "
              f"{'escaped' if trace.escaped else 'bounded'}")
        pts = trace.points
    else:
        orb = orbits.find_periodic_orbit(p, args.periodic, args.seed_point)
        m1, m2 = orb.multipliers
        print(f"period {orb.period} ({orb.cls}); multipliers "
              f"{m1.real:+.9g}{m1.imag:+.9g}i, {m2.real:+.9g}{m2.imag:+.9g}i")
        pts = orb.points
    if args.output:
        _write_points_csv(pts, args.output)
    return 0


def _cmd_leaf(args) -> int:
    circle = [
        args.radius * complex(math.cos(2 * math.pi * k / args.points),
                              math.sin(2 * math.pi * k / args.points))
        for k in range(args.points)
    ]
    leaf = fp.Polyline(tuple(circle), closed=True)
    pulled = orbits.pullback_leaf(MapParams(args.alpha, args.c), leaf, args.word)
    _write_points_csv(pulled.points, args.output)
    return 0


_DISPATCH = {
    "julia": _cmd_julia,
    "locus": _cmd_locus,
    "fixed-points": _cmd_fixed_points,
    "curves": _cmd_curves,
    "hopf": _cmd_hopf,
    "orbit": _cmd_orbit,
    "leaf": _cmd_leaf,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "hopf" and args.theta is None and not args.output:
        parser.error("hopf: sweeps need -o/--output for the CSV table")
    try:
        return _DISPATCH[args.command](args)
    except (*_COMPUTE_ERRORS, OSError) as exc:
        print(f"qcdyn {args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
