import os
import subprocess
import sys
from pathlib import Path

import qcdyn

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "render_figures.py"

RASTERS = [
    "julia_a0.75_c-0.78.pgm", "julia_a1.5_c-0.8.pgm", "julia_tip_a0.8.pgm", "julia_tip_a1.2.pgm",
    *(f"locus_a{a}{tail}.pgm" for a in (0.75, 1.0, 1.5) for tail in ("", "_attractors")),
]
TABLES = [
    *(f"{kind}_a{a}.csv" for a in (0.6, 0.8, 2.0, 6.0) for kind in ("curves", "cusps")),
    "leaves_a2.0.csv", "leaves_a0.625.csv", "hopf_surface.csv",
]


def test_gallery_writes_every_figure(tmp_path):
    src = str(Path(qcdyn.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--size", "32", "--outdir", str(tmp_path)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(RASTERS + TABLES)
    header = b"P5\n32 32\n255\n"
    for name in RASTERS:
        raw = (tmp_path / name).read_bytes()
        assert raw.startswith(header) and len(raw) == len(header) + 32 * 32, name
    for name in TABLES:
        assert (tmp_path / name).read_text().count("\n") >= 1, name
