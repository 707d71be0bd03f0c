"""Each output check accepts the program's real output and rejects a corrupted copy.

Run from the root of the checkout:  python3 -m pytest perfbench/test_checks.py
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks

ROOT = Path(__file__).resolve().parent.parent
BUNDLED = ROOT / "src" / "chipletdse" / "data" / "infotainment.json"
WORK = ROOT / ".perfbench-out" / "test-checks"


def run_cli(*args: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-m", "chipletdse.cli", *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, check=True)
    return proc.stdout


@pytest.fixture(scope="module")
def work() -> Path:
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    return WORK


@pytest.fixture(scope="module")
def spec() -> dict:
    return checks.load_spec(BUNDLED)


def rewrite_csv(src: Path, dst: Path, edit) -> None:
    with src.open(newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with dst.open("w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def test_cost_rejects_wrong_yield(work, spec):
    run_cli("cost", "--spec", str(BUNDLED), "--out", str(work / "cost"))
    good = work / "cost" / "cost.csv"
    checks.check_cost(good, spec)

    def edit(rows):
        rows[1][3] = format(float(rows[1][3]) * 0.99, ".6g")

    bad = work / "cost_bad.csv"
    rewrite_csv(good, bad, edit)
    with pytest.raises(checks.CheckError, match="yield"):
        checks.check_cost(bad, spec)


@pytest.fixture(scope="module")
def field(work):
    stdout = run_cli("thermal", "--spec", str(BUNDLED), "--resolution", "2",
                     "--out", str(work / "thermal"))
    return work / "thermal" / "temperature_field.csv", stdout


def test_field_passes(field, spec):
    path, stdout = field
    checks.check_field(path, stdout, spec, 2.0)


def test_field_rejects_energy_imbalance(field, spec, work):
    path, stdout = field
    ambient = spec["package"]["ambient_c"]

    def edit(rows):
        for row in rows[1:]:
            if row[0] == "sink":
                row[3] = repr(ambient + (float(row[3]) - ambient) * 1.01)

    bad = work / "field_imbalance.csv"
    rewrite_csv(path, bad, edit)
    with pytest.raises(checks.CheckError, match="leave through the sink"):
        checks.check_field(bad, stdout, spec, 2.0)


def test_field_rejects_hottest_cell_outside_chiplet_layer(field, spec, work):
    path, stdout = field

    def edit(rows):
        peak = max(float(r[3]) for r in rows[1:])
        substrate = next(r for r in rows[1:] if r[0] == "substrate")
        substrate[3] = repr(peak + 1.0)

    bad = work / "field_hot_substrate.csv"
    rewrite_csv(path, bad, edit)
    with pytest.raises(checks.CheckError, match="outside the chiplet layer"):
        checks.check_field(bad, stdout, spec, 2.0)


def test_floorplan_rejects_overlap(work, spec):
    short = dict(spec, anneal=dict(spec["anneal"], max_iterations=1))
    spec_path = work / "short_anneal.json"
    spec_path.write_text(json.dumps(short))
    run_cli("place", "--spec", str(spec_path), "--out", str(work / "place"))
    good = work / "place" / "floorplan.json"
    checks.check_floorplan(good, spec)

    doc = json.loads(good.read_text())
    by_name = {p["name"]: p for p in doc["placements"]}
    big, small = by_name["cpu0"], by_name["pcie"]  # pcie fits inside cpu0's footprint
    small["x_mm"], small["y_mm"] = big["x_mm"] + 1.0, big["y_mm"] + 1.0
    bad = work / "floorplan_overlap.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(checks.CheckError, match="overlap"):
        checks.check_floorplan(bad, spec)
