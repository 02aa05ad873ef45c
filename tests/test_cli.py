import contextlib
import csv
import hashlib
import io
import json
import math
import shlex
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import run_python
from qcdyn import cli, errors
from qcdyn.cli import main
from qcdyn.jets import hopf_number, hopf_sweep


class TestJuliaCommand:
    def test_pgm_output(self, tmp_path, capsys):
        out = tmp_path / "k.pgm"
        code = main(
            ["julia", "--alpha", "1.5", "--c=-0.8", "--center", "0", "--width", "4",
             "--nx", "64", "--ny", "48", "-o", str(out)]
        )
        assert code == 0
        raw = out.read_bytes()
        assert raw.startswith(b"P5\n64 48\n255\n")
        assert len(raw) == len(b"P5\n64 48\n255\n") + 64 * 48

    def test_csv_output(self, tmp_path):
        out = tmp_path / "k.csv"
        code = main(
            ["julia", "--alpha", "1", "--c", "0", "--width", "3",
             "--nx", "8", "--ny", "8", "--format", "csv", "-o", str(out)]
        )
        assert code == 0
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 64
        assert {r["status"] for r in rows} <= {"bounded", "escaped", "attracted"}

    def test_alpha_just_above_half(self, tmp_path):
        out = tmp_path / "k.pgm"
        code = main(["julia", "--alpha", "0.5000001", "--c=-0.5", "--width", "3",
                     "--nx", "8", "--ny", "8", "-o", str(out)])
        assert code == 0
        assert out.read_bytes() == b"P5\n8 8\n255\n" + bytes(64)  # all bounded

    def test_byte_identical_across_thread_counts(self, tmp_path, monkeypatch):
        blobs = []
        for threads in ("1", "5"):
            monkeypatch.setenv("QCDYN_THREADS", threads)
            out = tmp_path / f"k{threads}.pgm"
            main(
                ["julia", "--alpha", "0.75", "--c=-0.78", "--width", "4",
                 "--nx", "96", "--ny", "96", "--max-iter", "300", "-o", str(out)]
            )
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]


class TestLocusCommand:
    def test_render(self, tmp_path):
        out = tmp_path / "m.pgm"
        code = main(
            ["locus", "--alpha", "1", "--center=-0.5", "--width", "3",
             "--nx", "32", "--ny", "32", "-o", str(out)]
        )
        assert code == 0
        assert out.read_bytes().startswith(b"P5\n32 32\n255\n")

    def test_alpha_just_above_half(self, tmp_path):
        # 2^{1/(2a-1)} overflows here; the escape radius saturates to infinity
        out = tmp_path / "m.pgm"
        code = main(["locus", "--alpha", "0.5000001", "--width", "3",
                     "--nx", "8", "--ny", "8", "-o", str(out)])
        assert code == 0
        assert out.read_bytes().startswith(b"P5\n8 8\n255\n")

    def test_default_height_where_width_times_ny_overflows(self, tmp_path):
        # 1.6e308 * 9 overflows, but the height it means, 9.6e307, is finite
        out = tmp_path / "m.pgm"
        code = main(["locus", "--alpha", "0.5", "--width", "1.6e308",
                     "--nx", "15", "--ny", "9", "-o", str(out)])
        assert code == 0
        assert out.read_bytes().startswith(b"P5\n15 9\n255\n")

    def test_overflowing_cell_coordinates(self, tmp_path, capsys):
        # the top row's im, 1.7e308 + 1e308/3, overflows to inf
        out = tmp_path / "ov.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["locus", "--alpha", "1", "--center=0,1.7e308", "--width", "1e308",
                         "--nx", "3", "--ny", "3", "--format", "csv", "-o", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err == "qcdyn locus: grid cell coordinates overflow the float range\n"
        assert not out.exists()

    def test_bad_alpha_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["locus", "--alpha", "0.3", "--width", "3", "-o", str(tmp_path / "x.pgm")])
        assert exc.value.code == 2
        assert "alpha" in capsys.readouterr().err


class TestFixedPointsCommand:
    def test_table_and_json(self, tmp_path, capsys):
        out = tmp_path / "fp.json"
        code = main(["fixed-points", "--alpha", "1", "--c", "0", "-o", str(out)])
        assert code == 0
        assert "repelling" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert {round(row["re"], 6) for row in payload} == {0.0, 1.0}

    def test_csv(self, tmp_path):
        out = tmp_path / "fp.csv"
        main(["fixed-points", "--alpha", "0.75", "--c", "0.135", "-o", str(out)])
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 4
        assert sorted(r["class"] for r in rows).count("attracting") == 2

    def test_parabolic_root_listed_once(self, capsys):
        # at c = 1/4 the fixed point 1/2 is double, and both its eigenvalues are 1
        assert main(["fixed-points", "--alpha", "1", "--c", "0.25"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert [row.split()[:5] for row in rows] == [["0.5", "0", "neutral", "1", "1"]]

    @pytest.mark.parametrize("alpha", ["0.5000001", "0.5001"])
    def test_alpha_just_above_half(self, capsys, alpha):
        # 2^{1/(2a-1)} overflows (or exceeds the Newton bound) at these exponents
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main(["fixed-points", "--alpha", alpha, "--c", "0"])
        assert code in (0, 1)
        assert "Traceback" not in capsys.readouterr().err

    def test_overflowing_derivative_is_named(self, capsys):
        # at alpha = 1e155 the root z = 1 has fz = a + 1 and fzbar = a - 1, whose squares overflow
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main(["fixed-points", "--alpha", "1e155", "--c", "0"])
        assert code == 1
        err = capsys.readouterr().err
        assert "overflow" in err and "Traceback" not in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize("alpha", ["1e16", "9007199254740992"])
    @pytest.mark.parametrize("command", [[], ["--periodic", "1", "--seed-point", "1"]], ids=["fixed-points", "orbit"])
    def test_exponent_past_2_53_is_refused(self, capsys, alpha, command):
        # from 2^53 on a + 1 and a - 1 are not both exact: z = 1 read as a
        # saddle (1e16) or neutral (2^53), where its eigenvalues are 2a and 2
        argv = ["orbit" if command else "fixed-points", "--alpha", alpha, "--c", "0", *command]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"qcdyn {argv[0]}: alpha = ") and "2^53" in err and len(err.splitlines()) == 1

    def test_exponent_below_2_53_keeps_its_classes(self, capsys):
        assert main(["fixed-points", "--alpha", "9007199254740991", "--c", "0"]) == 0
        assert main(["orbit", "--alpha", "9007199254740991", "--c", "0", "--periodic", "1", "--seed-point", "1"]) == 0
        assert capsys.readouterr().out.splitlines()[1:] == [
            f"{0:22} {0:22} {'attracting':>11} {0:10} {0:10} {0:10} {0:10}",
            f"{1:22} {0:22} {'repelling':>11} {'1.80144e+16':>10} {2:10} {'3.60288e+16':>10} {'1.80144e+16':>10}",
            "period 1 (repelling); multipliers +1.80143985e+16+0i, +2+0i",
        ]


class TestCurvesCommand:
    def test_curves_with_cusps_and_probe(self, tmp_path, capsys):
        out = tmp_path / "curves.csv"
        code = main(
            ["curves", "--alpha", "0.8", "--n", "64", "--cusps",
             "--probe", "300", "--seed", "11", "-o", str(out)]
        )
        assert code == 0
        rows = list(csv.DictReader(out.open()))
        kinds = {(r["curve"], r["kind"]) for r in rows}
        assert ("delta", "source") in kinds and ("gamma+", "image") in kinds
        assert sum(r["kind"] == "cusp" for r in rows) == 3
        assert "passed" in capsys.readouterr().out

    def test_cusps_next_to_one(self, tmp_path):
        out = tmp_path / "c.csv"
        assert main(["curves", "--alpha", "0.999", "--n", "16", "--cusps", "-o", str(out)]) == 0
        cusps = [r for r in csv.DictReader(out.open()) if r["kind"] == "cusp"]
        assert len(cusps) == 3 and [float(r["im"]) for r in cusps].count(0.0) == 1

    def test_probe_at_large_alpha(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["curves", "--alpha", "170", "--which", "delta", "--n", "16",
                         "--probe", "1000", "-o", str(out)]) == 0
            assert "passed" in capsys.readouterr().out
            code = main(["curves", "--alpha", "1e200", "--which", "delta", "--n", "16",
                         "--probe", "1000", "-o", str(out)])
        assert code == 1
        captured = capsys.readouterr()
        assert "FAILED" not in captured.out
        assert "overflows" in captured.err and len(captured.err.splitlines()) == 1

    def test_gamma_plus_overflow_is_named(self, tmp_path, capsys):
        out = tmp_path / "g.csv"
        assert main(["curves", "--alpha", "1e200", "--n", "16", "--cusps", "-o", str(out)]) == 1
        err = capsys.readouterr().err
        assert "(a+1)^2" in err and len(err.splitlines()) == 1

    def test_failure_leaves_no_partial_file(self, tmp_path, capsys):
        # the delta rows come before the gamma+ overflow; none may reach the disk
        out = tmp_path / "x.csv"
        assert main(["curves", "--alpha", "1e200", "--n", "16", "-o", str(out)]) == 1
        assert "(a+1)^2" in capsys.readouterr().err
        assert not out.exists()

    def test_single_curve(self, tmp_path):
        out = tmp_path / "d.csv"
        code = main(["curves", "--alpha", "2", "--which", "delta", "--n", "32", "-o", str(out)])
        assert code == 0
        rows = list(csv.DictReader(out.open()))
        assert {r["curve"] for r in rows} == {"delta"}
        assert len(rows) == 64  # source + image


class TestHopfCommand:
    def test_single_value(self, capsys):
        code = main(["hopf", "--alpha", "1.5", "--theta", "2.0"])
        assert code == 0
        out = capsys.readouterr().out
        assert "hopf=-" in out

    def test_sweep_bound(self, tmp_path):
        out = tmp_path / "h.csv"
        code = main(["hopf", "--alpha", "0.75", "--theta-grid", "64", "-o", str(out)])
        assert code == 0
        rows = list(csv.DictReader(out.open()))
        vals = [float(r["hopf_number"]) for r in rows if r["status"] == "ok"]
        assert len(vals) >= 32
        assert min(vals) > 41.0

    def test_single_theta_prints_every_alpha(self, capsys):
        code = main(["hopf", "--alpha", "0.75,1.5", "--theta", "2.0"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == [f"alpha={a} theta=2.0 hopf={hopf_number(a, 2.0)!r}" for a in (0.75, 1.5)]

    def test_single_theta_with_an_excluded_alpha_fails(self, tmp_path, capsys):
        # at this theta the multiplier angle is resonant at alpha 1.5 only
        out = tmp_path / "h.csv"
        theta = "2.4692918257215775"
        assert [row[4] for row in hopf_sweep([0.75, 1.5], [float(theta)])] == ["ok", "resonance"]
        code = main(["hopf", "--alpha", "0.75,1.5", "--theta", theta, "-o", str(out)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"alpha=1.5 theta={theta}: resonance\n"
        assert not out.exists()

    def test_resonant_single_theta_fails(self, capsys):
        code = main(["hopf", "--alpha", "0.75", "--theta", "0.0"])
        assert code == 1
        assert "resonance" in capsys.readouterr().err

    def test_delta_radius_underflow_is_named(self, capsys):
        code = main(["hopf", "--alpha", "0.5000001", "--theta", "2"])
        assert code == 1
        err = capsys.readouterr().err
        assert err == ("qcdyn hopf: the delta circle radius (4a)^(1/(2-4a)) underflows to 0"
                       " at alpha = 0.5000001\n")

    def test_sweep_requires_output(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["hopf", "--alpha", "0.75", "--theta-grid", "8"])
        assert exc.value.code == 2


class TestOrbitCommand:
    def test_critical(self, tmp_path, capsys):
        out = tmp_path / "orb.csv"
        code = main(["orbit", "--alpha", "1", "--c=-1", "--critical", "6", "-o", str(out)])
        assert code == 0
        assert "bounded" in capsys.readouterr().out
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 6

    def test_periodic(self, capsys):
        code = main(
            ["orbit", "--alpha", "0.75", "--c=-0.38", "--periodic", "2",
             "--seed-point=-0.26,0.08"]
        )
        assert code == 0
        assert "period 2 (attracting)" in capsys.readouterr().out

    def test_failed_search_exit_code(self, capsys):
        code = main(
            ["orbit", "--alpha", "1", "--c", "0.26", "--periodic", "3",
             "--seed-point", "5e6,5e6"]
        )
        assert code == 1


class TestLeafCommand:
    def test_pullback_csv(self, tmp_path):
        out = tmp_path / "leaf.csv"
        code = main(
            ["leaf", "--alpha", "2", "--c", "0", "--radius", "1.5",
             "--points", "32", "--word", "010", "-o", str(out)]
        )
        assert code == 0
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 32
        expect = 1.5 ** (1 / 64)
        for r in rows:
            assert abs(complex(float(r["re"]), float(r["im"]))) == pytest.approx(expect)

    def test_overflowing_vertex_fails_without_a_file(self, tmp_path, capsys):
        # every vertex minus c = -1e308 has real part past the float range
        out = tmp_path / "l.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["leaf", "--alpha", "1", "--c=-1e308", "--radius", "1.7e308",
                         "--points", "8", "--word", "0", "-o", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("qcdyn leaf: ") and "not finite" in err and err.count("\n") == 1
        assert not out.exists()


class TestPointTables:
    """orbit and leaf write the same index,re,im table (render.write_csv, CRLF rows)."""

    def test_orbit_bytes(self, tmp_path):
        out = tmp_path / "crit.csv"
        assert main(["orbit", "--alpha", "1", "--c=-1", "--critical", "3", "-o", str(out)]) == 0
        assert out.read_bytes() == b"index,re,im\r\n0,-1.0,0.0\r\n1,0.0,0.0\r\n2,-1.0,0.0\r\n"
        out = tmp_path / "per.csv"
        assert main(["orbit", "--alpha", "1", "--c=-1", "--periodic", "2",
                     "--seed-point", "0.1", "-o", str(out)]) == 0
        assert out.read_bytes() == b"index,re,im\r\n0,1.035490378629309e-25,0.0\r\n1,-1.0,0.0\r\n"

    def test_leaf_bytes(self, tmp_path):
        out = tmp_path / "leaf.csv"
        assert main(["leaf", "--alpha", "1", "--c", "0", "--radius", "4", "--points", "4",
                     "--word", "0", "-o", str(out)]) == 0
        assert out.read_bytes() == (
            b"index,re,im\r\n0,2.0,0.0\r\n1,1.4142135623730951,1.414213562373095\r\n"
            b"2,1.2246467991473532e-16,2.0\r\n3,1.414213562373095,-1.4142135623730951\r\n"
        )


class TestTableBytes:
    """Every CSV table the CLI writes, pinned byte for byte (sha256)."""

    @pytest.mark.parametrize(
        "argv,digest",
        [
            (["fixed-points", "--alpha", "0.75", "--c", "0.135"],
             "0602f6c39cabb39b3daf364535bb3ee2012039db3a8ed06412fd6ca1b7b9125b"),
            (["fixed-points", "--alpha", "1", "--c", "0"],
             "6584e26789ab57d927bcaa9ea583e88b68a57c6f31de659ffe047f097a4b2149"),
            (["fixed-points", "--alpha", "2", "--c=-0.5,0.3"],
             "3513ed0ea79767b7357c12a6873d82fe789eed37b3d197ec9d6e3904728bc4eb"),
            (["fixed-points", "--alpha", "0.6", "--c=-0.3,0.2"],
             "f56bd2e8ff45a8686eece613591b8038f6893e06debab2caf98c99bc45629683"),
            (["curves", "--alpha", "0.8", "--n", "16"],
             "8a000ed287d2890cbde18f61038547ab82da1274312a7465860076b88e573d4b"),
            (["curves", "--alpha", "0.8", "--n", "64", "--cusps"],
             "5f0c4c1087c247c9b54cd33e1be665e3590b59eead177bc145424c8280f793af"),
            (["hopf", "--alpha", "0.75,1.5", "--theta-grid", "8"],
             "80fd686eb8e6f39f13c058d2fa3c4be8bc56c85da8542e5d4708ea7275a15303"),
        ],
    )
    def test_digest(self, tmp_path, capsys, argv, digest):
        out = tmp_path / "t.csv"
        assert main(argv + ["-o", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_fixed_points_rows(self, tmp_path):
        out = tmp_path / "fp.csv"
        assert main(["fixed-points", "--alpha", "1", "--c", "0", "-o", str(out)]) == 0
        assert out.read_bytes() == (
            b"re,im,class,eig1_re,eig1_im,eig2_re,eig2_im,det,trace\r\n"
            b"0.0,0.0,attracting,0.0,0.0,0.0,0.0,0.0,0.0\r\n"
            b"1.0,0.0,repelling,2.0,0.0,2.0,0.0,4.0,4.0\r\n"
        )

    def test_fixed_points_rows_at_large_parameter(self, tmp_path):
        # the two roots (1 +- sqrt(1 - 4c))/2 of z^2 - z + c, which no float
        # leaves with |f(z) - z| < 1e-13 at |c| = 5000
        out = tmp_path / "fp.csv"
        assert main(["fixed-points", "--alpha", "1", "--c=5000,300", "-o", str(out)]) == 0
        assert out.read_bytes() == (
            b"re,im,class,eig1_re,eig1_im,eig2_re,eig2_im,det,trace\r\n"
            b"-1.6204201657090465,70.74069678536641,repelling,-3.240840331418093,141.48139357073282,"
            b"-3.240840331418093,-141.48139357073282,20027.487772770342,-6.481680662836186\r\n"
            b"2.620420165709047,-70.7406967853664,repelling,5.240840331418094,141.4813935707328,"
            b"5.240840331418094,-141.4813935707328,20044.451134096005,10.481680662836188\r\n"
        )

    def test_hopf_sweep_excluded_rows(self, tmp_path):
        out = tmp_path / "h.csv"
        assert main(["hopf", "--alpha", "1.5", "--theta-grid", "2", "-o", str(out)]) == 0
        assert out.read_bytes() == (
            b"alpha,beta,theta,hopf_number,status\n"
            b"1.5,0.33333333333333337,1.5707963267948966,,resonance\n"
            b"1.5,0.33333333333333337,4.71238898038469,,resonance\n"
        )


def _flag(z: complex) -> str:
    return f"={z.real!r},{z.imag!r}"


_alphas = st.one_of(st.floats(0.5, 0.501), st.floats(0.5, 6.0))
_cs = st.builds(complex, st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)).filter(lambda c: abs(c) <= 1e3)
_huge_cs = st.builds(complex, st.floats(-1e300, 1e300), st.floats(-1e300, 1e300))

_CSV_HEADERS = {
    "julia": ["i", "j", "re", "im", "status", "value"],
    "locus": ["i", "j", "re", "im", "status", "value"],
    "fixed-points": ["re", "im", "class", "eig1_re", "eig1_im", "eig2_re", "eig2_im", "det", "trace"],
    "curves": ["curve", "kind", "index", "re", "im"],
    "orbit": ["index", "re", "im"],
    "leaf": ["index", "re", "im"],
}
_CSV_LABELS = {
    "bounded", "escaped", "attracted",  # raster cell status
    "attracting", "repelling", "saddle", "neutral",  # fixed-point class
    "delta", "gamma+", "gamma-", "source", "image", "cusp",  # curve rows
}


@st.composite
def _argvs(draw):
    """A small run of any subcommand; "OUT" marks the output path."""
    cmd = draw(st.sampled_from(["julia", "locus", "fixed-points", "hopf", "orbit", "curves", "leaf"]))
    argv = [cmd, "--alpha", repr(draw(_alphas))]
    if cmd in ("fixed-points", "orbit", "curves") and draw(st.booleans()):
        # exponents far above 6, where powers, (a+1)^2 and the derivative's squares overflow
        argv[2] = repr(draw(st.floats(6.0, 1e300)))

    def c_flag(huge: bool) -> str:
        # parts up to 1e300 half the time, where Newton, orbits and rasters overflow
        return _flag(draw(_huge_cs if huge and draw(st.booleans()) else _cs))

    if cmd == "hopf":
        return argv + ["--theta", repr(draw(st.floats(0.0, 2.0 * math.pi)))]
    if cmd == "curves":
        which = draw(st.sampled_from(["delta", "gamma+", "gamma-", "all"]))
        argv += ["--which", which, "--n", str(draw(st.integers(16, 48)))]
        if draw(st.booleans()):
            argv.append("--cusps")
        if draw(st.booleans()):  # the probe, with counts and seeds down to negative values
            argv += [f"--probe={draw(st.integers(-3, 200))}", f"--seed={draw(st.integers(-3, 99))}"]
        return argv + ["-o", "OUT"]
    if cmd != "locus":
        argv.append("--c" + c_flag(cmd != "leaf"))
    if cmd in ("julia", "locus"):
        argv += ["--center" + c_flag(True), "--width", repr(draw(st.floats(1e-3, 10.0))),
                 "--nx", str(draw(st.integers(1, 8))), "--ny", str(draw(st.integers(1, 8))),
                 "--max-iter", str(draw(st.integers(1, 50))),
                 "--mode", draw(st.sampled_from(["escape", "attractor"])),
                 "--format", draw(st.sampled_from(["pgm", "csv"]))]
    if cmd == "orbit":
        if draw(st.booleans()):
            argv += ["--critical", str(draw(st.integers(1, 40)))]
        else:
            seed = draw(st.builds(complex, st.floats(-2, 2), st.floats(-2, 2)))
            argv += ["--periodic", str(draw(st.integers(1, 4))), "--seed-point" + _flag(seed)]
    if cmd == "leaf":
        bits = draw(st.text("01", max_size=4))
        argv += ["--radius", repr(draw(st.floats(1e-3, 1e3))), "--points", str(draw(st.integers(2, 64))),
                 "--word", ",".join(bits) if draw(st.booleans()) else bits]
    return argv + ["-o", "OUT"]


def _finite_or_label(cell: str) -> bool:
    try:
        return math.isfinite(float(cell))
    except ValueError:
        return cell in _CSV_LABELS


def _assert_well_formed(argv, path: Path) -> None:
    """A PGM has its P5 header and nx*ny bytes; a CSV has its header and
    only finite numbers besides the label columns."""
    if "--format" in argv and argv[argv.index("--format") + 1] == "pgm":
        nx, ny = int(argv[argv.index("--nx") + 1]), int(argv[argv.index("--ny") + 1])
        header = f"P5\n{nx} {ny}\n255\n".encode()
        raw = path.read_bytes()
        assert raw[: len(header)] == header and len(raw) == len(header) + nx * ny
        return
    rows = list(csv.reader(path.open(newline="")))
    assert rows[0] == _CSV_HEADERS[argv[0]]
    for row in rows[1:]:
        assert len(row) == len(rows[0]) and all(map(_finite_or_label, row)), row


@given(_argvs())
@settings(max_examples=400, deadline=None, derandomize=True)
def test_cli_never_shows_a_traceback(argv):
    # alpha down to 1/2 (where 2^{1/(2a-1)} overflows and the delta radius
    # underflows), and for fixed-points, orbit and curves up to 1e300 half the
    # time; any |c| <= 1e3 (fixed-points, orbit and julia c and the raster
    # centers: parts up to 1e300 half the time): the run succeeds with a
    # well-formed file, fails with a one-line message (1) or rejects its
    # arguments (2), and never raises
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out.csv"
        argv = [str(out) if a == "OUT" else a for a in argv]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
        assert code in (0, 1, 2), (argv, err.getvalue())
        assert "Traceback" not in err.getvalue()
        if code == 0 and "-o" in argv:
            _assert_well_formed(argv, out)


class TestUsageErrors:
    def test_missing_required_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["julia", "--alpha", "1.5"])
        assert exc.value.code == 2

    def test_bad_complex_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["julia", "--alpha", "1.5", "--c", "a,b", "--width", "3", "-o", "x.pgm"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "flags",
        [
            ["julia", "--alpha", "1", "--c=nan", "--width", "3"],
            ["julia", "--alpha", "1", "--c=0,inf", "--width", "3"],
            ["julia", "--alpha", "1", "--c", "0", "--width", "inf"],
            ["julia", "--alpha", "1", "--c", "0", "--width", "3", "--height", "nan"],
            ["julia", "--alpha", "inf", "--c", "0", "--width", "3"],
            ["locus", "--alpha", "1", "--center=nan", "--width", "3"],
            ["fixed-points", "--alpha", "inf", "--c", "0"],
        ],
    )
    def test_non_finite_numbers(self, tmp_path, capsys, flags):
        out = tmp_path / "x.pgm"
        with pytest.raises(SystemExit) as exc:
            main(flags + ["-o", str(out)])
        assert exc.value.code == 2
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags,needle",
        [
            (["curves", "--alpha", "0.8", "--n", "32", "--probe=-5"], "--probe"),
            (["curves", "--alpha", "0.8", "--n", "32", "--probe", "10", "--seed=-1"], "--seed"),
            (["curves", "--alpha", "0.8", "--n", "8"], "--n"),
            (["curves", "--alpha", "0.5"], "alpha must be finite and > 1/2"),
            (["fixed-points", "--alpha", "0.5", "--c", "0"], "alpha must be finite and > 1/2"),
            (["orbit", "--alpha", "0.4", "--c", "0", "--critical", "3"], "alpha must be finite and >= 1/2"),
            (["julia", "--alpha", "1", "--c", "0", "--width", "0"], "--width"),
            (["julia", "--alpha", "1", "--c", "0", "--width", "3", "--height=-1"], "--height"),
            (["julia", "--alpha", "1", "--c", "0", "--width", "3", "--nx", "0"], "--nx"),
            (["locus", "--alpha", "1", "--width", "3", "--ny", "2.5"], "--ny"),
            (["locus", "--alpha", "1", "--width", "3", "--max-iter", "0"], "--max-iter"),
            (["hopf", "--alpha", "0.75,0.5", "--theta", "2"], "--alpha"),
            (["hopf", "--alpha", ",", "--theta", "2"], "--alpha"),
            (["hopf", "--alpha", "0.75", "--theta-grid", "0"], "--theta-grid"),
            (["orbit", "--alpha", "1", "--c", "0", "--critical", "0"], "--critical"),
            (["orbit", "--alpha", "1", "--c", "0", "--periodic", "0"], "--periodic"),
            (["leaf", "--alpha", "1", "--c", "0", "--radius", "0", "--word", "0"], "--radius"),
            (["leaf", "--alpha", "1", "--c", "0", "--radius", "1", "--points", "1", "--word", "0"], "--points"),
            (["leaf", "--alpha", "1", "--c", "0", "--radius", "1", "--word", "012"], "--word"),
        ],
    )
    def test_flag_types(self, tmp_path, capsys, flags, needle):
        # each flag's type rejects the value before anything runs
        out = tmp_path / "x.out"
        with pytest.raises(SystemExit) as exc:
            main(flags + ["-o", str(out)])
        assert exc.value.code == 2
        assert needle in capsys.readouterr().err
        assert not out.exists()

    def test_unwritable_output(self, tmp_path, capsys):
        out = tmp_path / "missing" / "k.pgm"
        code = main(["julia", "--alpha", "1", "--c", "0", "--width", "3",
                     "--nx", "4", "--ny", "4", "-o", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("qcdyn julia: ") and str(out) in err
        assert err.count("\n") == 1

    def test_entry_point_runs(self):
        proc = run_python(["-m", "qcdyn.cli", "hopf", "--alpha", "1.5", "--theta", "2.0"])
        assert proc.returncode == 0
        assert "hopf=" in proc.stdout


# every exception class of qcdyn.errors but the warning
_LIBRARY_ERRORS = [
    cls
    for cls in vars(errors).values()
    if isinstance(cls, type) and cls.__module__ == errors.__name__ and not issubclass(cls, Warning)
]


@pytest.mark.parametrize("error", _LIBRARY_ERRORS, ids=lambda cls: cls.__name__)
def test_every_library_error_exits_1(monkeypatch, capsys, error):
    def fail(args):
        raise error("no such orbit")

    monkeypatch.setattr(cli, "_cmd_orbit", fail)
    assert main(["orbit", "--alpha", "1", "--c", "0", "--critical", "3"]) == 1
    assert capsys.readouterr().err == "qcdyn orbit: no such orbit\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["julia", "--alpha", "1.5", "--c=1e200,0", "--width", "4", "--nx", "3", "--ny", "2", "--format", "csv"],
        ["locus", "--alpha", "1", "--width", "1e300", "--nx", "15", "--ny", "9"],
        ["orbit", "--alpha", "3", "--c=1e200,0", "--critical", "5"],
    ],
)
def test_overflowing_orbits_print_nothing(tmp_path, argv):
    # orbits overflow before they leave the escape radius: raster orbits pass
    # |z| ~ 1e154, where z*z overflows, and f(c) of the critical orbit is past
    # the float range; the overflow is part of escaping and needs no warning
    proc = run_python(["-m", "qcdyn.cli", *argv, "-o", str(tmp_path / "out")])
    assert proc.returncode == 0
    assert proc.stderr == ""


def test_half_alpha_attractor_overflow_prints_no_overflow_warning(tmp_path):
    # at alpha = 1/2 the radius is infinite, so orbits that overflow stay live
    # into the cycle window; the period search compares their overflowed
    # entries, and that overflow needs no warning either.  What may remain is
    # the invalid value of a product with an infinite factor in the step
    proc = run_python(["-m", "qcdyn.cli", "locus", "--alpha", "0.5", "--width", "1.6e308", "--nx", "15", "--ny", "9",
                       "--max-iter", "300", "--mode", "attractor", "-o", str(tmp_path / "l.pgm")])
    assert proc.returncode == 0
    warned = [line for line in proc.stderr.splitlines() if "Warning" in line]
    assert all("invalid value encountered in multiply" in line for line in warned), proc.stderr


def _readme_command_lines() -> list[str]:
    """The qcdyn lines of the README's "Command line" code block."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.startswith("qcdyn ")]


def test_readme_examples_run_cleanly(tmp_path, monkeypatch, capsys):
    # every documented command runs as printed: exit 0, nothing on stderr
    # and no warning (which a shell run would print to stderr)
    lines = _readme_command_lines()
    assert len(lines) >= 10
    monkeypatch.chdir(tmp_path)
    for line in lines:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(shlex.split(line)[1:])
        err = capsys.readouterr().err
        assert (code, err, [str(w.message) for w in caught]) == (0, "", []), line
