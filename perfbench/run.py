#!/usr/bin/env python3
"""qcdyn benchmark: three closed-loop workloads, each stressing one layer.

    python3 perfbench/run.py --workload {raster,census,hopf} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; qcdyn is imported from ./src.  The
seed generates every input (see inputs.py).  The last line of standard
output is one JSON object with the keys correct, attempted, failed, metrics.

--trace 0 measures the named workload untraced for at least S seconds and
three passes, and reports the end-to-end metrics:
  setup_s      median of 7 set-ups (import qcdyn in a fresh interpreter, build
               the inputs, one warm-up call), this process's own among them
  pass_s       time of one pass over all operations: the sum over operations
               of each one's best time across the run's N >= 3 passes
  op_p50_ms, op_p90_ms
               percentiles over the operations of each one's best latency
               across the passes; an operation is one find_fixed_points call
               (census, 120), one hopf_number call (hopf, 4032), or one raster
               rendered and encoded (raster, 10)
  peak_rss_mb  high-water resident set of this process
  ok_ops_frac  operations whose output passed its check, over those attempted
Times are best-of-N because the noise is one-sided: on a shared host,
contention from other guests slows a vCPU by up to ~40% for seconds at a
time and never speeds it up.

--trace 1 runs every workload (each per-layer metric belongs to one of them;
see layers.json) as an untraced pass, then two traced passes, and reports the
per-layer metrics of the first traced pass.  It also checks that the traced
passes reproduce the untraced outputs byte for byte (the raster's second
traced pass runs at threads=1: the determinism contract), and that every work
count repeats exactly.  The spans of each first traced pass are written to
.perfbench_trace/<workload>-seed<N>.csv.

Every time reported is a wall time scaled by the share of busy vCPU time the
host did not steal meanwhile (steal.py): on a shared virtual machine steal
comes and goes for minutes and would otherwise swamp the program's own
changes.  The span file keeps raw wall-clock times.

"failed" counts operations whose output failed its check or that raised an
exception outside qcdyn.errors' documented outcomes.  "correct" is false when
the run itself cannot be trusted: a pass did not reproduce the first pass's
outputs, tracing or the thread count changed an output, or a count did not
repeat.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import types
import warnings
from pathlib import Path
from time import perf_counter

from steal import cpu_ticks, unstolen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 7
MIN_PASSES = 3
WORKLOAD_NAMES = ("raster", "census", "hopf")


def load(workload: str, seed: int, tmpdir: str):
    """The set-up that setup_s times: import, inputs, one warm-up call."""
    t0 = perf_counter()
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import qcdyn
    from qcdyn import cli, errors, fixed_points, jets, maps, orbits, render

    if Path(qcdyn.__file__).resolve().parent != ROOT / "src" / "qcdyn":
        raise SystemExit(f"qcdyn imported from {qcdyn.__file__}, not from this checkout")
    from inputs import GENERATORS
    from workloads import WORKLOADS

    qc = types.SimpleNamespace(cli=cli, errors=errors, fixed_points=fixed_points, jets=jets, maps=maps,
                               orbits=orbits, render=render, MapParams=maps.MapParams)
    warnings.simplefilter("ignore", errors.ConvergenceWarning)
    wl = WORKLOADS[workload](qc, GENERATORS[workload](seed), tmpdir)
    if workload == "raster":
        render.render_julia(maps.MapParams(0.75, -0.78), render.GridSpec(0, 3.2, 3.2, 64, 64), 100, threads=2)
    elif workload == "census":
        alpha, c = wl.inputs.fixed_points[0]
        fixed_points.find_fixed_points(maps.MapParams(alpha, c))
    else:
        try:
            jets.hopf_number(wl.inputs.alphas[0], wl.inputs.thetas[0])
        except (errors.ResonanceError, errors.EigenvalueError):
            pass
    return wl, perf_counter() - t0


def setup_probe(workload: str, seed: int) -> float:
    """Time load() in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout.split()[-1])


def _failures(verdicts: list[bool], first, later) -> tuple[int, bool]:
    """Failed operations of a pass that should reproduce the first, and whether it did."""
    same = later.keys == first.keys
    failed = sum(not ok or a != b for ok, a, b in zip(verdicts, first.keys, later.keys))
    return failed, same


def measure(workload: str, seed: int, seconds: float, tmpdir: str) -> dict:
    ticks = cpu_ticks()
    wl, t_setup = load(workload, seed, tmpdir)
    setups = [t_setup * unstolen(ticks, cpu_ticks())]
    for _ in range(SETUP_SAMPLES - 1):
        ticks = cpu_ticks()
        t_setup = setup_probe(workload, seed)
        setups.append(t_setup * unstolen(ticks, cpu_ticks()))
    passes = [wl.run_pass()]
    verdicts = wl.check(passes[0])
    t_end = perf_counter() + seconds - passes[0].seconds
    while True:
        passes[-1].payloads = []  # outputs are compared by fingerprint; keep peak memory to one pass
        if perf_counter() >= t_end and len(passes) >= MIN_PASSES:
            break
        passes.append(wl.run_pass())
    attempted = failed = 0
    correct = True
    for p in passes:
        f, same = _failures(verdicts, passes[0], p)
        attempted += len(p.keys)
        failed += f
        correct &= same
    op_ms = [min(t) for t in zip(*(p.op_ms for p in passes))]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "pass_s": (sum(min(t) for t in zip(*(p.op_s for p in passes))), "s"),
        "op_p50_ms": (statistics.median(op_ms), "ms"),
        "op_p90_ms": (statistics.quantiles(op_ms, n=10)[8], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_ops_frac": ((attempted - failed) / attempted, "1"),
    }
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def trace(seed: int, tmpdir: str) -> dict:
    from tracing import Tracer

    outdir = ROOT / ".perfbench_trace"
    outdir.mkdir(exist_ok=True)
    metrics: dict = {}
    attempted = failed = 0
    correct = True
    for name in WORKLOAD_NAMES:
        wl, _ = load(name, seed, tmpdir)
        untraced = wl.run_pass()
        verdicts = wl.check(untraced)
        tracers, traced = [], []
        for threads in (2, 1 if name == "raster" else 2):
            with Tracer() as tracer:
                wl.instrument(tracer)
                traced.append(wl.run_pass(threads))
            tracer.scale = traced[-1].unstolen
            tracers.append(tracer)
        for p in (untraced, *traced):
            f, same = _failures(verdicts, untraced, p)
            attempted += len(p.keys)
            failed += f
            correct &= same
        counts = [wl.repeat_counts(p, t) for p, t in zip(traced, tracers)]
        if counts[0] != counts[1]:
            print(f"{name}: counts differ between traced passes: {counts}", file=sys.stderr)
            correct = False
        metrics.update(wl.layer_metrics(tracers[0], traced[0], tracers[1]))
        metrics[f"{name}.trace_overhead_frac"] = (traced[0].seconds / untraced.seconds - 1.0, "1")
        tracers[0].write(outdir / f"{name}-seed{seed}.csv")
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "qcdyn" / "__init__.py").is_file():
        print(f"no qcdyn sources under {ROOT / 'src'}; run from a qcdyn checkout", file=sys.stderr)
        return 2
    tmpdir = ROOT / ".perfbench_tmp" / str(os.getpid())
    tmpdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_probe:
            print(repr(load(args.workload, args.seed, str(tmpdir))[1]))
            return 0
        if args.trace:
            result = trace(args.seed, str(tmpdir))
        else:
            result = measure(args.workload, args.seed, args.seconds, str(tmpdir))
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
        try:
            tmpdir.parent.rmdir()
        except OSError:
            pass
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
