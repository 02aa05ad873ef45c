"""The three workloads: operations, output checks and per-layer metrics.

Each workload is a closed loop with one caller: an operation starts when the
previous one returns.  A pass runs every operation of the workload once.
Calls go through the module attributes at call time (``qc.render.render_julia``
and so on) so that the tracer's wrappers see them.

Outputs are checked once, on the first pass; later passes must reproduce the
first pass's outputs exactly (compared by fingerprint) and inherit its verdicts.
"""

from __future__ import annotations

import cmath
import hashlib
import io
import math
import os
import sys
import types
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

from inputs import CensusInputs, RasterJob
from steal import cpu_ticks, unstolen


@dataclass(frozen=True)
class Op:
    """One operation: call() is timed; collect() turns its result into the
    payload untimed; key(payload) is the fingerprint compared across passes;
    check(payload) is the verdict, also given the exceptions in documented."""

    kind: str
    call: Callable[[], object]
    check: Callable[[object], bool]
    key: Callable[[object], object] = repr
    collect: Callable[[object], object] | None = None
    documented: tuple[type, ...] = ()
    latency_sample: bool = False  # counts toward op_p50_ms / op_p90_ms


@dataclass
class Pass:
    seconds: float = 0.0
    op_s: list[float] = field(default_factory=list)  # every operation's own time
    op_ms: list[float] = field(default_factory=list)  # latency samples for the percentiles
    keys: list = field(default_factory=list)  # per-operation sha256 of the output
    payloads: list = field(default_factory=list)  # per-operation outputs for the checks
    kinds: list = field(default_factory=list)
    unstolen: float = 1.0  # share of busy vCPU time the host did not steal during the pass

    def of_kind(self, kind: str) -> list:
        return [p for k, p in zip(self.kinds, self.payloads) if k == kind]


class Workload:
    """Base: subclasses define ops(), instrument(), repeat_counts() and layer_metrics()."""

    name = ""

    def __init__(self, qc: types.SimpleNamespace, inputs, tmpdir: str):
        self.qc = qc
        self.inputs = inputs
        self.tmpdir = tmpdir

    def ops(self, threads: int):
        """Yield the pass's operations in order."""
        raise NotImplementedError

    def run_pass(self, threads: int = 2) -> Pass:
        """Run every operation once; the pass time sums the operations' own times,
        so fingerprinting and the other harness work between them are left out.
        All times are scaled by the pass's unstolen share (see steal.py)."""
        out = Pass()
        ticks = cpu_ticks()
        for op in self.ops(threads):
            t0 = perf_counter()
            try:
                result = op.call()
            except Exception as exc:  # judged by the check, not by the harness
                result = exc
            dt = perf_counter() - t0
            out.seconds += dt
            out.op_s.append(dt)
            if op.latency_sample:
                out.op_ms.append(dt * 1e3)
            if isinstance(result, Exception):
                key = f"raised {type(result).__name__}: {result}"
            else:
                result = op.collect(result) if op.collect else result
                key = op.key(result)
            out.keys.append(hashlib.sha256(key if isinstance(key, bytes) else repr(key).encode()).digest())
            out.payloads.append(result)
            out.kinds.append(op.kind)
        out.unstolen = f = unstolen(ticks, cpu_ticks())
        out.seconds *= f
        out.op_s = [t * f for t in out.op_s]
        out.op_ms = [t * f for t in out.op_ms]
        print(f"{self.name} pass: {out.seconds:.3f} s ({1.0 - f:.1%} stolen)", file=sys.stderr)
        return out

    def check(self, first: Pass) -> list[bool]:
        """Per-operation verdicts; an exception outside op.documented fails."""
        return [
            op.check(p) if not isinstance(p, Exception) or isinstance(p, op.documented) else False
            for op, p in zip(self.ops(threads=2), first.payloads)
        ]

    def instrument(self, tracer) -> None:
        raise NotImplementedError

    def repeat_counts(self, traced: Pass, tracer) -> dict:
        """Work counts of a traced pass that must repeat exactly on the next one."""
        raise NotImplementedError

    def layer_metrics(self, tracer, traced: Pass, tracer_b) -> dict:
        """Per-layer metrics of a traced pass; tracer_b holds the second traced pass."""
        raise NotImplementedError


# --- raster -----------------------------------------------------------------


class RasterWorkload(Workload):
    """Julia sets and loci rendered with an explicit thread count and encoded as
    PGM, plus one attractor locus through the CLI as CSV."""

    name = "raster"
    RENDER_SPANS = ("render.render_julia", "render.render_locus", "render.render_locus_attractor")

    def ops(self, threads: int):
        qc = self.qc
        render = qc.render
        for job in self.inputs:
            if job.kind == "cli_locus_attractor":
                path = os.path.join(self.tmpdir, "locus.csv")
                argv = [
                    "locus", "--alpha", repr(job.alpha), f"--center={job.center.real!r},{job.center.imag!r}",
                    "--width", repr(job.width), "--nx", str(job.size), "--ny", str(job.size),
                    "--max-iter", str(job.max_iter), "--mode", "attractor", "--format", "csv", "-o", path,
                ]

                def call(argv=argv):
                    saved = os.environ.get("QCDYN_THREADS")
                    os.environ["QCDYN_THREADS"] = str(threads)
                    try:
                        return qc.cli.main(argv)
                    finally:
                        if saved is None:
                            del os.environ["QCDYN_THREADS"]
                        else:
                            os.environ["QCDYN_THREADS"] = saved

                def collect(code, path=path):
                    with open(path, "rb") as fh:
                        return code, fh.read()

                yield Op(job.kind, call, lambda r, job=job: self._check_csv(job, *r), key=lambda r: r[1],
                         collect=collect, latency_sample=True)
                continue
            grid = self._grid(job)
            if job.kind == "julia":
                def raster(job=job, grid=grid):
                    return render.render_julia(qc.MapParams(job.alpha, job.c), grid, job.max_iter,
                                               render.ESCAPE_ONLY, threads=threads)
            else:
                mode = render.ATTRACTOR_DETECT if self._detect(job) else render.ESCAPE_ONLY

                def raster(job=job, grid=grid, mode=mode):
                    return render.render_locus(job.alpha, grid, job.max_iter, mode, threads=threads)

            def call(raster=raster):
                r = raster()
                buf = io.BytesIO()
                render.write_pgm(r, buf)
                return r, buf.getvalue()

            yield Op(job.kind, call, lambda r, job=job: self._check_pgm(job, *r), key=lambda r: r[1],
                     latency_sample=True)

    def _grid(self, job: RasterJob):
        return self.qc.render.GridSpec(job.center, job.width, job.width, job.size, job.size)

    @staticmethod
    def _detect(job: RasterJob) -> bool:
        return job.kind in ("locus_attractor", "cli_locus_attractor")

    def _reference(self, alpha: float, c: complex, z0: complex, max_iter: int, detect: bool):
        """Plain-Python classification over maps.apply_map: (status, value)."""
        render = self.qc.render
        p = self.qc.MapParams(alpha, c)
        apply_map = self.qc.maps.apply_map
        radius = render.escape_radius(p)
        warmup = max(200, max_iter // 4)
        total = max(max_iter, warmup + render.CYCLE_WINDOW) if detect else max_iter
        window = []
        z, n = z0, 0
        while True:
            if abs(z) > radius:
                return (render.PointClass.ESCAPED, n) if n <= max_iter else (render.PointClass.BOUNDED, 0)
            if detect and warmup <= n < warmup + render.CYCLE_WINDOW:
                window.append(z)
            if n == total:
                break
            z = apply_map(p, z)
            n += 1
        if detect:
            for q in range(1, render.MAX_PERIOD + 1):
                m0 = render.CYCLE_WINDOW - q - render.CYCLE_RUNS
                if m0 < 0:
                    break
                if all(abs(window[m + q] - window[m]) < render.TOL_CYCLE for m in range(m0, m0 + render.CYCLE_RUNS)):
                    return render.PointClass.ATTRACTED, q
        return render.PointClass.BOUNDED, 0

    def _expected(self, job: RasterJob, i: int, j: int):
        sample = self._grid(job).sample(i, j)
        if job.kind == "julia":
            return sample, self._reference(job.alpha, job.c, sample, job.max_iter, False)
        return sample, self._reference(job.alpha, sample, 0j, job.max_iter, self._detect(job))

    def _check_pgm(self, job: RasterJob, raster, pgm: bytes) -> bool:
        """Sampled cells match the reference loop in status and value, and the
        PGM carries their documented gray levels."""
        PC = self.qc.render.PointClass
        n = job.size
        header = f"P5\n{n} {n}\n255\n".encode("ascii")
        if not pgm.startswith(header) or len(pgm) != len(header) + n * n:
            return False
        for i, j in job.cells:
            _, (status, value) = self._expected(job, i, j)
            if int(raster.status[j, i]) != status or int(raster.value[j, i]) != value:
                return False
            gray = min(255 * value // job.max_iter, 254) if status == PC.ESCAPED else 128 if status == PC.ATTRACTED else 0
            if pgm[len(header) + j * n + i] != gray:
                return False
        return True

    def _check_csv(self, job: RasterJob, code: int, data: bytes) -> bool:
        """Exit code 0, one row per cell, sampled rows match the reference loop."""
        n = job.size
        lines = data.decode("ascii").split("\n")
        if code != 0 or lines[0] != "i,j,re,im,status,value" or len(lines) != n * n + 2 or lines[-1]:
            return False
        for i, j in job.cells:
            sample, (status, value) = self._expected(job, i, j)
            if lines[1 + j * n + i] != f"{i},{j},{sample.real!r},{sample.imag!r},{status.name.lower()},{value}":
                return False
        return True

    def point_iters(self, traced: Pass) -> int:
        """Escaped cells count their escape step, all others the full step budget."""
        total = 0
        for job, payload in zip(self.inputs, traced.payloads):
            budget = job.max_iter
            if self._detect(job):  # warm-up plus the cycle window, as documented in classify_point
                budget = max(budget, max(200, budget // 4) + self.qc.render.CYCLE_WINDOW)
            if job.kind == "cli_locus_attractor":
                for row in payload[1].decode("ascii").split("\n")[1:-1]:
                    _, _, _, _, status, value = row.split(",")
                    total += int(value) if status == "escaped" else budget
            else:
                raster = payload[0]
                esc = raster.status == self.qc.render.PointClass.ESCAPED
                total += int(raster.value[esc].sum()) + int((~esc).sum()) * budget
        return total

    def instrument(self, tracer) -> None:
        render = self.qc.render

        def locus_name(args, kwargs):
            mode = kwargs.get("mode", args[3] if len(args) > 3 else render.ESCAPE_ONLY)
            return "render.render_locus_attractor" if mode == render.ATTRACTOR_DETECT else "render.render_locus"

        tracer.span(render, "render_julia")
        tracer.span(render, "render_locus", locus_name)
        tracer.span(render, "write_pgm")
        tracer.span(render, "write_cells_csv")
        tracer.span(self.qc.cli, "main")

    def repeat_counts(self, traced: Pass, tracer) -> dict:
        return {"render.point_iters": self.point_iters(traced)}

    def layer_metrics(self, tracer, traced: Pass, tracer_b) -> dict:
        incl = tracer.inclusive()
        render_s = sum(incl[k] for k in self.RENDER_SPANS)
        render_s_1 = sum(tracer_b.inclusive()[k] for k in self.RENDER_SPANS)
        iters = self.point_iters(traced)
        return {
            "render.render_julia_s": (incl["render.render_julia"], "s"),
            "render.render_locus_s": (incl["render.render_locus"], "s"),
            "render.render_locus_attractor_s": (incl["render.render_locus_attractor"], "s"),
            "render.write_pgm_s": (incl["render.write_pgm"], "s"),
            "render.write_cells_csv_s": (incl["render.write_cells_csv"], "s"),
            "cli.main_s": (tracer.self_times()["cli.main"], "s"),
            "render.point_iters": (iters, "count"),
            "render.point_iters_per_s": (iters / render_s, "1/s"),
            "render.thread_speedup": (render_s_1 / render_s, "x"),
        }


# --- census -----------------------------------------------------------------


class CensusWorkload(Workload):
    """Scalar Newton work: fixed-point census, periodic orbits, curves, cusps,
    the injectivity probe, critical orbits and the gallery's leaf pullbacks."""

    name = "census"
    SEEDS_PER_CALL = 24 * 24 + 2  # polar seed grid plus the two quadratic roots

    def ops(self, threads: int):
        qc = self.qc
        inp: CensusInputs = self.inputs
        fp, orbits = qc.fixed_points, qc.orbits
        for alpha, c in inp.fixed_points:
            p = qc.MapParams(alpha, c)
            yield Op("find_fixed_points", lambda p=p: fp.find_fixed_points(p),
                     lambda r, p=p: self._check_census(p, r), latency_sample=True)
        for alpha, c in inp.fixed_points:
            p = qc.MapParams(alpha, c)
            yield Op("critical_orbit", lambda p=p: orbits.critical_orbit(p, inp.critical_len),
                     lambda r, p=p: self._check_critical(p, r))
        for alpha, c, q, start in inp.periodic:
            p = qc.MapParams(alpha, c)
            yield Op("find_periodic_orbit", lambda p=p, q=q, s=start: orbits.find_periodic_orbit(p, q, s),
                     lambda r, p=p, q=q: self._check_periodic(p, q, r), documented=(qc.errors.NoConvergence,))
        for alpha in inp.curve_alphas:
            yield Op("detect_cusps", lambda a=alpha: fp.detect_cusps(a), self._check_cusps)
            for which in (fp.DELTA, fp.GAMMA_PLUS, fp.GAMMA_MINUS):
                yield Op("trace_curve_image", lambda a=alpha, w=which: fp.trace_curve_image(a, w, inp.curve_samples),
                         lambda r, a=alpha, w=which: self._check_curve(a, w, r))
        alpha, pairs, rng_seed = inp.probe
        yield Op("injectivity_probe", lambda: fp.injectivity_probe(alpha, pairs, rng_seed), lambda r: r is True)
        for alpha, depth, base in inp.leaves:
            p = qc.MapParams(alpha, 0j)
            leaf = [fp.Polyline(base, closed=True)]
            for _ in range(depth):
                def call(p=p, leaf=leaf):
                    prev = leaf[0]
                    leaf[0] = orbits.pullback_leaf(p, prev, [0])
                    return prev.points, leaf[0]

                yield Op("pullback_leaf", call, lambda r, p=p: self._check_leaf(p, *r), key=lambda r: r[1])

    def _check_census(self, p, records) -> bool:
        """Each root is fixed to 1e-10, maps back to c through p(z) to 1e-9,
        is distinct from the others beyond 1e-8, and carries the class of its
        Jacobian's eigenvalues."""
        maps, fp = self.qc.maps, self.qc.fixed_points
        for k, r in enumerate(records):
            if not abs(maps.apply_map(p, r.z) - r.z) < 1e-10:
                return False
            if not abs(fp.param_for_fixed_point(p.alpha, r.z) - p.c) < 1e-9:
                return False
            if any(not abs(r.z - o.z) > 1e-8 for o in records[:k]):
                return False
            if r.cls != fp.classify_eigenvalues(maps.jacobian(p, r.z).eigenvalues):
                return False
        return True

    def _check_critical(self, p, trace) -> bool:
        """Each point is f of the previous one, and only a final point may lie
        beyond the escape radius, exactly when the trace says it escaped."""
        apply_map = self.qc.maps.apply_map
        radius = self.qc.render.escape_radius(p)
        z = 0j
        for k, w in enumerate(trace.points):
            z = apply_map(p, z)
            if w != z or (abs(z) > radius) != (trace.escaped and k == len(trace.points) - 1):
                return False
        return trace.escaped or len(trace.points) == self.inputs.critical_len

    def _check_periodic(self, p, q, orbit) -> bool:
        """A found cycle closes up under f to 1e-9, has a period dividing q and
        the class of its multipliers; NoConvergence is a documented outcome."""
        if isinstance(orbit, Exception):
            return True
        apply_map = self.qc.maps.apply_map
        pts = orbit.points
        if q % orbit.period or len(pts) != orbit.period:
            return False
        if any(not abs(apply_map(p, a) - b) < 1e-9 for a, b in zip(pts, pts[1:] + pts[:1])):
            return False
        return orbit.cls == self.qc.fixed_points.classify_eigenvalues(orbit.multipliers)

    @staticmethod
    def _check_cusps(cusps) -> bool:
        """Three cusps on the gamma+ image, exactly one of them real."""
        return len(cusps) == 3 and sum(abs(c.imag) < 1e-9 for c in cusps) == 1

    def _check_curve(self, alpha, which, image) -> bool:
        """The image is p of the sampled source curve, and each source point
        satisfies its curve equation to 1e-9."""
        maps, fp = self.qc.maps, self.qc.fixed_points
        src = fp.trace_curve(alpha, which, self.inputs.curve_samples).points
        if len(src) != len(image.points) or not image.closed:
            return False
        p = self.qc.MapParams(alpha, 0j)
        for z, c in zip(src, image.points):
            if c != fp.param_for_fixed_point(alpha, z):
                return False
            jac = maps.jacobian(p, z)
            resid = {fp.DELTA: jac.det - 1.0, fp.GAMMA_PLUS: 1.0 - jac.trace + jac.det,
                     fp.GAMMA_MINUS: 1.0 + jac.trace + jac.det}[which]
            if not abs(resid) < 1e-9:
                return False
        return True

    def _check_leaf(self, p, prev, leaf) -> bool:
        """What closed=True promises: each vertex maps forward onto the previous
        leaf to 1e-9, and no edge (the closing one included) exceeds 10x the
        median edge."""
        apply_map = self.qc.maps.apply_map
        pts = leaf.points
        if len(pts) != len(prev) or not leaf.closed:
            return False
        if any(not abs(apply_map(p, z) - w) < 1e-9 for z, w in zip(pts, prev)):
            return False
        edges = sorted(abs(b - a) for a, b in zip(pts, pts[1:] + pts[:1]))
        return edges[-1] <= 10.0 * edges[len(edges) // 2]

    def instrument(self, tracer) -> None:
        fp, orbits = self.qc.fixed_points, self.qc.orbits
        for name in ("find_fixed_points", "detect_cusps", "trace_curve_image", "injectivity_probe"):
            tracer.span(fp, name)
        for name in ("find_periodic_orbit", "pullback_leaf", "critical_orbit"):
            tracer.span(orbits, name)
        for module in (fp, orbits):  # the names those modules bound with "from .maps import"
            tracer.count(module, "apply_map", "maps.apply_map")
            tracer.count(module, "jacobian", "maps.jacobian")

    def repeat_counts(self, traced: Pass, tracer) -> dict:
        ffp = "fixed_points.find_fixed_points"
        return {
            "fixed_points.newton_seeds": self.SEEDS_PER_CALL * len(self.inputs.fixed_points),
            "fixed_points.roots_found": sum(len(r) for r in traced.of_kind("find_fixed_points")
                                            if not isinstance(r, Exception)),
            "maps.apply_map_calls": tracer.counted("maps.apply_map", ffp),
            "maps.jacobian_calls": tracer.counted("maps.jacobian", ffp),
        }

    def layer_metrics(self, tracer, traced: Pass, tracer_b) -> dict:
        incl = tracer.inclusive()
        counts = self.repeat_counts(traced, tracer)
        seeds = counts["fixed_points.newton_seeds"]
        orbits = traced.of_kind("find_periodic_orbit")
        return {
            "fixed_points.find_fixed_points_s": (incl["fixed_points.find_fixed_points"], "s"),
            "fixed_points.newton_seeds": (seeds, "count"),
            "fixed_points.seeds_per_s": (seeds / incl["fixed_points.find_fixed_points"], "1/s"),
            "fixed_points.roots_found": (counts["fixed_points.roots_found"], "count"),
            "fixed_points.detect_cusps_s": (incl["fixed_points.detect_cusps"], "s"),
            "fixed_points.trace_curve_image_s": (incl["fixed_points.trace_curve_image"], "s"),
            "fixed_points.injectivity_probe_s": (incl["fixed_points.injectivity_probe"], "s"),
            "maps.apply_map_calls": (counts["maps.apply_map_calls"], "count"),
            "maps.jacobian_calls": (counts["maps.jacobian_calls"], "count"),
            "maps.newton_steps_per_seed": (counts["maps.apply_map_calls"] / seeds, "1"),
            "orbits.find_periodic_orbit_s": (incl["orbits.find_periodic_orbit"], "s"),
            "orbits.periodic_found_frac": (sum(not isinstance(o, Exception) for o in orbits) / len(orbits), "1"),
            "orbits.pullback_leaf_s": (incl["orbits.pullback_leaf"], "s"),
            "orbits.critical_orbit_s": (incl["orbits.critical_orbit"], "s"),
        }


# --- hopf -------------------------------------------------------------------

_RESONANT = (0.0, math.pi, 2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0, math.pi / 2.0, 3.0 * math.pi / 2.0)


class HopfWorkload(Workload):
    """hopf_number over the gallery's exponent x angle surface."""

    name = "hopf"

    def ops(self, threads: int):
        jets, errors = self.qc.jets, self.qc.errors
        for alpha in self.inputs.alphas:
            for theta in self.inputs.thetas:
                def call(a=alpha, t=theta):
                    try:
                        return jets.hopf_number(a, t)
                    except errors.ResonanceError:  # excluded points, named as hopf_sweep names them
                        return "resonance"
                    except errors.EigenvalueError:
                        return "eigenvalue"

                yield Op("hopf_number", call, lambda r, a=alpha, t=theta: self._check(a, t, r), latency_sample=True)

    def _near_resonant(self, angle: float) -> bool:
        tol = self.qc.jets.TOL_RES
        return any(abs((angle - res + math.pi) % (2.0 * math.pi) - math.pi) < tol for res in _RESONANT)

    def _closed_form(self, alpha: float, theta: float):
        """The documented exclusion status, or for admissible points 4 Re(c1/u)
        with the Neimark-Sacker cubic coefficient c1 (Kuznetsov, Elements of
        Applied Bifurcation Theory, 4.7) read off the jet after coord_change1."""
        jets = self.qc.jets
        if self._near_resonant(theta):
            return "resonance"
        x = math.cos(theta) * (4.0 * alpha) ** ((alpha - 1.0) / (2.0 * alpha - 1.0)) / (alpha + 1.0)
        if abs(x) > 1.0:
            return "eigenvalue"
        z0 = (4.0 * alpha) ** (1.0 / (2.0 - 4.0 * alpha)) * cmath.exp(1j * math.acos(x))
        try:
            g = jets.coord_change1(jets.jet_of_map(alpha, z0))
        except self.qc.errors.ResonanceError:
            return "resonance"
        u = g[1, 0]
        if self._near_resonant(cmath.phase(u)):
            return "resonance"
        g20, g11, g02, g21 = 2.0 * g[2, 0], g[1, 1], 2.0 * g[0, 2], 2.0 * g[2, 1]
        ub = u.conjugate()
        c1 = (g20 * g11 * (1.0 - 2.0 * u) / (2.0 * (u * u - u)) + abs(g11) ** 2 / (1.0 - ub)
              + abs(g02) ** 2 / (2.0 * (u * u - ub)) + g21 / 2.0)
        return 4.0 * (c1 / u).real

    def _check(self, alpha: float, theta: float, got) -> bool:
        """Status as the exclusion rule predicts; values above 41 for alpha < 1,
        below -8 for alpha > 1, and within 1e-8 relative of the closed form."""
        want = self._closed_form(alpha, theta)
        if isinstance(want, str) or isinstance(got, str):
            return got == want
        sign_ok = got > 41.0 if alpha < 1.0 else got < -8.0
        return sign_ok and abs(got - want) <= 1e-8 * abs(want)

    def instrument(self, tracer) -> None:
        for name in ("hopf_number", "compose_jets", "coord_change1", "jet_of_map"):
            tracer.span(self.qc.jets, name)

    def repeat_counts(self, traced: Pass, tracer) -> dict:
        return {"jets.compose_jets_calls": tracer.calls()["jets.compose_jets"]}

    def layer_metrics(self, tracer, traced: Pass, tracer_b) -> dict:
        incl = tracer.inclusive()
        excluded = sum(isinstance(v, str) for v in traced.payloads) / len(traced.payloads)
        return {
            "jets.hopf_number_s": (incl["jets.hopf_number"], "s"),
            "jets.compose_jets_calls": (tracer.calls()["jets.compose_jets"], "count"),
            "jets.compose_jets_s": (incl["jets.compose_jets"], "s"),
            "jets.coord_change1_s": (incl["jets.coord_change1"], "s"),
            "jets.jet_of_map_s": (incl["jets.jet_of_map"], "s"),
            "jets.excluded_frac": (excluded, "1"),
        }


WORKLOADS = {w.name: w for w in (RasterWorkload, CensusWorkload, HopfWorkload)}
