"""Behaviour lock: CLI reports compared byte for byte with checked-in fixtures.

Each case runs ``cli.main`` in-process and compares its stdout and report
files with ``tests/golden/<case>/``. A temperature field is too big to check
in, so its fixture is the sha256 of ``temperature_field.csv``. Manifests hold
a timestamp and paths and are not compared. Nothing here rewrites a fixture:
a change that moves one records the old value, the new value and the cause
in CHANGES.md.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import chipletdse
from chipletdse.cli import main

GOLDEN = Path(__file__).parent / "golden"
BUNDLED = chipletdse.bundled_spec_path()


def _pinned(doc: dict) -> None:
    """The sweep's anneal settings: never converges early, stops at 40 epochs."""
    doc["anneal"].update(tol_c=1e-9, max_iterations=40)


def _side45(doc: dict) -> None:
    """A 45 mm interposer: 1.9 mm cells mesh it as 24 x 1.9 = 45.6 mm, past its edge."""
    doc["package"].update(interposer_width_mm=45.0, interposer_height_mm=45.0)


def _side50(doc: dict) -> None:
    """A 50 mm interposer under the bundled 40 mm sink: a partial sink."""
    doc["package"].update(interposer_width_mm=50.0, interposer_height_mm=50.0)


def _side50_pinned(doc: dict) -> None:
    """The 50 mm variant at 40 epochs: every coarse peak comes from a partial-sink solve."""
    _side50(doc)
    _pinned(doc)


PLACE = ("history.csv", "floorplan.json")
FIELD = ("temperature_field.csv.sha256",)
PHY = ("bandwidth_curve.csv",)

# case -> (CLI arguments, spec, compared report files besides stdout). The spec
# is "bundled", None (no --spec) or an edit applied to a copy of the bundled one.
CASES = {
    "place_seed0": (["place", "--seed", "0"], "bundled", PLACE),
    "place_seed1": (["place", "--seed", "1"], "bundled", PLACE),
    "place_seed5": (["place", "--seed", "5"], "bundled", PLACE),
    "place_seed7_50mm": (["place", "--seed", "7"], _side50_pinned, PLACE),
    "sweep": (["sweep", "--sides", "30,35,45,50"], _pinned, ("interposer_sweep.csv",)),
    "calibrate_k": (["calibrate-k", "--k", "0.05,0.1"], "bundled", ("k_calibration.csv",)),
    "cost": (["cost"], "bundled", ("cost.csv",)),
    "power": (["power"], "bundled", ("power.csv",)),
    "perf": (["perf"], "bundled", ("perf.csv",)),
    "phy": (["phy"], "bundled", PHY),
    "phy_defaults": (["phy"], None, PHY),
    "phy_flags": (["phy", "--trace-width-um", "40", "--interposer-height-um", "80",
                   "--sigma", "5e7"], None, PHY),
    "thermal": (["thermal", "--resolution", "1"], "bundled", FIELD),
    "thermal_50mm": (["thermal", "--resolution", "1"], _side50, FIELD),
    # a cell that is no power of two, on a mesh that runs past the interposer,
    # under a sink that leaves 92 of its 576 top cells uncooled (the CG path)
    "thermal_45mm_odd_cell": (["thermal", "--resolution", "1.9"], _side45, FIELD),
    "thermal_fine": (["thermal", "--resolution", "0.5"], "bundled", FIELD),
}


def _spec_args(spec, tmp_path: Path) -> list[str]:
    if spec is None:
        return []
    if spec == "bundled":
        return ["--spec", BUNDLED]
    doc = json.loads(Path(BUNDLED).read_text())
    spec(doc)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    return ["--spec", str(path)]


def _produced(out: Path, name: str) -> bytes:
    if name.endswith(".sha256"):
        digest = hashlib.sha256((out / name.removesuffix(".sha256")).read_bytes()).hexdigest()
        return (digest + "\n").encode()
    return (out / name).read_bytes()


@pytest.mark.parametrize("case", sorted(CASES))
def test_reports_match_fixtures(case, tmp_path, capsys):
    args, spec, files = CASES[case]
    out = tmp_path / "out"
    assert main([*args, *_spec_args(spec, tmp_path), "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    expected = GOLDEN / case
    assert stdout == (expected / "stdout.txt").read_text()
    for name in files:
        assert _produced(out, name) == (expected / name).read_bytes(), f"{case}/{name}"


# Prints the sha256 of the grid model's columns on the grids the CLI meshes (2 mm
# on 40 and 50 mm, 1 mm and 0.5 mm on 40 mm); given a spec and an --out, then the
# thermal_fine case's field digest and stdout.
KERNEL_CODE = """
import contextlib, hashlib, io, sys
from chipletdse import thermal
from chipletdse.cli import main
from chipletdse.model import load_bundle
spec = sys.argv[1]
stack = load_bundle(spec).package.stack
cols = hashlib.sha256()
for n, cell_mm in ((20, 2.0), (25, 2.0), (40, 1.0), (80, 0.5)):
    cols.update(thermal._grid_model(stack, thermal.Grid(n, n, cell_mm)).cols.tobytes())
print(cols.hexdigest())
if len(sys.argv) > 2:
    with contextlib.redirect_stdout(io.StringIO()) as stdout:
        assert main(["thermal", "--resolution", "0.5", "--spec", spec, "--out", sys.argv[2]]) == 0
    field = open(f"{sys.argv[2]}/temperature_field.csv", "rb").read()
    print(hashlib.sha256(field).hexdigest() + "\\n" + stdout.getvalue(), end="")
"""


def test_grid_model_independent_of_blas_kernel(tmp_path):
    """The grid model's columns are the same doubles under another OpenBLAS kernel
    and thread count, and the thermal_fine fixture holds there too. Without
    OpenBLAS the variables are ignored and the case still passes."""
    src = str(Path(chipletdse.__file__).parents[1])
    prescott = {"OPENBLAS_CORETYPE": "Prescott", "OPENBLAS_NUM_THREADS": "2"}
    runs = [subprocess.run([sys.executable, "-c", KERNEL_CODE, BUNDLED, *out],
                           capture_output=True, text=True, check=True,
                           env={**os.environ, "PYTHONPATH": src, **extra}).stdout
            for extra, out in (({}, ()), (prescott, (str(tmp_path / "out"),)))]
    default_cols, (prescott_cols, field) = runs[0], runs[1].split("\n", 1)
    assert prescott_cols == default_cols.rstrip("\n")
    expected = GOLDEN / "thermal_fine"
    assert field == ((expected / "temperature_field.csv.sha256").read_text()
                     + (expected / "stdout.txt").read_text())


@pytest.mark.parametrize("case", ["place_seed7_50mm", "sweep"])
def test_annealer_fixtures_independent_of_blas_kernel(case, tmp_path):
    """The annealer's fixtures, rerun in a fresh process under another OpenBLAS
    kernel and thread count, match byte for byte. Without OpenBLAS the
    variables are ignored and the case still checks another process."""
    args, spec, files = CASES[case]
    out = tmp_path / "out"
    env = {**os.environ, "PYTHONPATH": str(Path(chipletdse.__file__).parents[1]),
           "OPENBLAS_CORETYPE": "Prescott", "OPENBLAS_NUM_THREADS": "2"}
    proc = subprocess.run([sys.executable, "-m", "chipletdse.cli", *args,
                           *_spec_args(spec, tmp_path), "--out", str(out)],
                          capture_output=True, check=True, env=env)
    expected = GOLDEN / case
    assert proc.stdout == (expected / "stdout.txt").read_bytes()
    for name in files:
        assert _produced(out, name) == (expected / name).read_bytes(), f"{case}/{name}"
