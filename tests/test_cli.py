import argparse
import copy
import csv
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
import xml.etree.ElementTree as ET
from dataclasses import fields
from importlib import resources
from pathlib import Path

import pytest

import chipletdse
from chipletdse.cli import _sha256, build_parser, main
from chipletdse.model import (
    CHIPLET_KINDS,
    AnnealConfig,
    PhySpec,
    ProcessCostParams,
    floorplan_to_document,
    load_spec,
)
from chipletdse import place
from chipletdse.place import bst_placement
from chipletdse.svgout import _KIND_FILL

SMALL_DOC = {
    "package": {
        "name": "small",
        "interposer_width_mm": 20.0,
        "interposer_height_mm": 20.0,
        "min_spacing_mm": 1.0,
        "ambient_c": 45.0,
    },
    "chiplets": [
        {"name": "a", "width_mm": 6, "height_mm": 6, "power_w": 12.0,
         "kind": "compute", "ports": [{"peer": "b", "weight": 2.0}]},
        {"name": "b", "width_mm": 5, "height_mm": 5, "power_w": 6.0,
         "kind": "compute", "ports": [{"peer": "c", "weight": 1.0}]},
        {"name": "c", "width_mm": 4, "height_mm": 4, "power_w": 3.0,
         "kind": "memory"},
        {"name": "d", "width_mm": 4, "height_mm": 4, "power_w": 2.0,
         "kind": "io"},
    ],
    "anneal": {"k0": 0.1, "decay": 0.9, "tol_c": 0.1, "max_iterations": 15,
               "moves_per_iteration": 5, "seed": 2, "coarse_cell_mm": 2.0,
               "fine_cell_mm": 2.0},
    "tiles": [
        {"name": "t0", "frequency_hz": 2e9, "voltage_v": 1.0, "activity": 0.1,
         "load_capacitance_f": 1e-9, "area_mm2": 50.0},
        {"name": "t1", "frequency_hz": 1e9, "voltage_v": 0.9, "activity": 0.2,
         "load_capacitance_f": 2e-9, "area_mm2": 30.0},
    ],
    "configs": [
        {"name": "C1", "cost": 129.6854, "throughput": 1.95e9, "latency": 30.311},
        {"name": "C2", "cost": 177.3822, "throughput": 1.97e9, "latency": 43.234},
        {"name": "C3", "cost": 136.7064, "throughput": 1.92e9, "latency": 30.763},
    ],
    "process": {"n_connections": 1000},
}


@pytest.fixture()
def spec_path(tmp_path):
    path = tmp_path / "small.json"
    path.write_text(json.dumps(SMALL_DOC))
    return str(path)


def read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr() == (f"{chipletdse.__version__}\n", "")


class TestCostCommand:
    def test_writes_report_and_manifest(self, spec_path, tmp_path, capsys):
        out = tmp_path / "cost"
        assert main(["cost", "--spec", spec_path, "--out", str(out)]) == 0
        rows = read_csv(out / "cost.csv")
        assert rows[0] == ["die", "area_mm2", "gross_dies_or_connections",
                           "yield", "cost"]
        assert [r[0] for r in rows[1:]] == ["a", "b", "c", "d", "PACKAGE"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["subcommand"] == "cost"
        assert spec_path in manifest["inputs"]
        assert "package_cost" in capsys.readouterr().out

    def test_missing_spec_fails_with_path(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        assert main(["cost", "--spec", missing, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == f"error: {missing}: file not found\n"

    def test_negative_connections_names_field(self, spec_path, tmp_path, capsys):
        out = tmp_path / "cost"
        assert main(["cost", "--spec", spec_path, "--out", str(out), "--connections", "-5"]) == 1
        assert capsys.readouterr().err == "error: process.n_connections: must be >= 0 and finite\n"
        assert not (out / "cost.csv").exists()

    def test_assembly_yield_underflow_fails(self, spec_path, tmp_path, capsys):
        out = tmp_path / "cost"
        argv = ["cost", "--spec", spec_path, "--out", str(out), "--connections", "1000000000"]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: assembly yield underflows to 0\n"
        assert not (out / "cost.csv").exists()

    def test_connections_flag_overrides_spec(self, spec_path, tmp_path):
        out = tmp_path / "cost"
        assert main(["cost", "--spec", spec_path, "--out", str(out), "--connections", "7"]) == 0
        assert read_csv(out / "cost.csv")[-1][2] == "7"

    def test_connections_in_exponent_form(self, spec_path, tmp_path):
        reports = []
        for connections in ("1e3", "1000"):
            out = tmp_path / connections
            assert main(["cost", "--spec", spec_path, "--out", str(out),
                         "--connections", connections]) == 0
            reports.append((out / "cost.csv").read_bytes())
        assert reports[0] == reports[1]


class TestPowerCommand:
    def test_system_row(self, spec_path, tmp_path, capsys):
        out = tmp_path / "power"
        assert main(["power", "--spec", spec_path, "--out", str(out)]) == 0
        rows = read_csv(out / "power.csv")
        assert [r[0] for r in rows[1:]] == ["t0", "t1", "SYSTEM"]
        assert "system_power_w" in capsys.readouterr().out

    def test_spec_without_tiles_fails(self, tmp_path, capsys):
        doc = {k: v for k, v in SMALL_DOC.items() if k != "tiles"}
        path = tmp_path / "notiles.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "o"
        assert main(["power", "--spec", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: tiles: no tile rows\n"
        assert not (out / "power.csv").exists()


class TestPerfCommand:
    def test_from_spec_configs(self, spec_path, tmp_path, capsys):
        out = tmp_path / "perf"
        assert main(["perf", "--spec", spec_path, "--out", str(out)]) == 0
        rows = read_csv(out / "perf.csv")
        assert [r[0] for r in rows[1:]] == ["C1", "C3", "C2"]
        assert "best_config = C1" in capsys.readouterr().out

    def test_from_csv(self, tmp_path):
        cfg = tmp_path / "configs.csv"
        cfg.write_text("name,cost,throughput,latency\n"
                       "X,100,1e9,10\nY,100,1e9,20\n")
        out = tmp_path / "perf"
        assert main(["perf", "--configs", str(cfg), "--out", str(out)]) == 0
        rows = read_csv(out / "perf.csv")
        assert [r[0] for r in rows[1:]] == ["X", "Y"]

    def test_spec_without_configs(self, tmp_path, capsys):
        doc = {k: v for k, v in SMALL_DOC.items() if k != "configs"}
        path = tmp_path / "noconfigs.json"
        path.write_text(json.dumps(doc))
        assert main(["perf", "--spec", str(path), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == "error: configs: no configuration rows\n"

    def test_header_only_csv(self, tmp_path, capsys):
        cfg = tmp_path / "empty.csv"
        cfg.write_text("name,cost,throughput,latency\n")
        assert main(["perf", "--configs", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == f"error: {cfg}: no configuration rows\n"

    def test_csv_with_byte_order_mark(self, tmp_path, capsys):
        # a spreadsheet's UTF-8 export starts with a byte-order mark
        cfg = tmp_path / "bom.csv"
        cfg.write_bytes(b"\xef\xbb\xbfname,cost,throughput,latency\nX,100,1e9,10\n")
        out = tmp_path / "perf"
        assert main(["perf", "--configs", str(cfg), "--out", str(out)]) == 0
        assert [r[0] for r in read_csv(out / "perf.csv")[1:]] == ["X"]
        assert "best_config = X" in capsys.readouterr().out


class TestPhyCommand:
    def test_defaults(self, tmp_path, capsys):
        out = tmp_path / "phy"
        assert main(["phy", "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        values = dict(line.split(" = ") for line in printed.strip().splitlines())
        assert float(values["max_trace_length_mm"]) == pytest.approx(36.518, rel=5e-3)
        assert float(values["c_per_length_pf_m"]) == pytest.approx(388.99, rel=5e-3)
        assert len(read_csv(out / "bandwidth_curve.csv")) == 101

    def test_faster_clock_shortens_reach(self, tmp_path, capsys):
        assert main(["phy", "--clock", "8e9", "--out", str(tmp_path / "p")]) == 0
        printed = capsys.readouterr().out
        values = dict(line.split(" = ") for line in printed.strip().splitlines())
        assert float(values["max_trace_length_mm"]) < 36.518 / 1.9

    def test_clock_below_skin_depth_bound_names_its_field(self, tmp_path, capsys):
        # the default 50 x 20 um trace needs a skin depth under 35 um: above about 3.46 MHz
        out = tmp_path / "p"
        assert main(["phy", "--clock", "3.4e6", "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: phy.clock_frequency_hz: must be above 3.45793e+06 Hz, where the skin depth "
            "falls below half the trace's width plus thickness\n")
        assert not out.exists()

    def test_clock_above_skin_depth_bound_runs(self, tmp_path):
        out = tmp_path / "p"
        assert main(["phy", "--clock", "3.6e6", "--out", str(out)]) == 0
        assert len(read_csv(out / "bandwidth_curve.csv")) == 101


class TestThermalCommand:
    def test_field_csv(self, spec_path, tmp_path, capsys):
        out = tmp_path / "thermal"
        assert main(["thermal", "--spec", spec_path, "--out", str(out),
                     "--resolution", "2.0"]) == 0
        rows = read_csv(out / "temperature_field.csv")
        # default stack: 8 layers on a 10x10 grid
        assert len(rows) == 1 + 8 * 10 * 10
        printed = capsys.readouterr().out
        assert "peak_chiplet_c" in printed

    def test_field_csv_quotes_layer_names(self, tmp_path, capsys):
        with open(chipletdse.bundled_spec_path()) as fh:
            doc = json.load(fh)
        doc["stack"]["layers"][5]["name"] = 'tim, "paste"'
        doc["stack"]["layers"][6]["name"] = '100% "Cu",\nspreader %s'  # % must not format
        path = tmp_path / "quoted.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "thermal"
        assert main(["thermal", "--spec", str(path), "--out", str(out),
                     "--resolution", "2.0"]) == 0
        raw = (out / "temperature_field.csv").read_bytes()
        assert b'\r\n"tim, ""paste""",0,0,' in raw and b"\r\nchiplet,9,9," in raw
        assert b'\r\n"100% ""Cu"",\nspreader %s",19,19,' in raw
        rows = read_csv(out / "temperature_field.csv")
        for name in ('tim, "paste"', '100% "Cu",\nspreader %s'):
            layer = [r for r in rows if r[0] == name]
            assert len(layer) == 20 * 20 and layer[1][1:3] == ["1", "0"]
        # every row is the text csv.writer writes for it, byte for byte
        buf = io.StringIO()
        csv.writer(buf).writerows(rows)
        assert buf.getvalue().encode() == raw

    def test_default_grid_is_the_placer_fine_grid(self, spec_path, tmp_path, capsys):
        """thermal solves place's plan on anneal.fine_cell_mm (2 mm here), so its
        chiplet peak is place's final peak."""
        assert main(["place", "--spec", spec_path, "--out", str(tmp_path / "p")]) == 0
        placed = dict(line.split(" = ") for line in capsys.readouterr().out.splitlines()[:2])
        assert main(["thermal", "--spec", spec_path, "--out", str(tmp_path / "t"),
                     "--floorplan", str(tmp_path / "p" / "floorplan.json")]) == 0
        solved = dict(line.split(" = ") for line in capsys.readouterr().out.splitlines())
        assert solved["peak_chiplet_c"] == placed["final_peak_t_c"]
        assert len(read_csv(tmp_path / "t" / "temperature_field.csv")) == 1 + 8 * 10 * 10

    def test_stiff_partial_sink(self, tmp_path, capsys):
        with open(chipletdse.bundled_spec_path()) as fh:
            doc = json.load(fh)
        doc["stack"].update(h_top_w_m2k=1e7, sink_side_mm=10)
        path = tmp_path / "stiff.json"
        path.write_text(json.dumps(doc))
        assert main(["thermal", "--spec", str(path), "--out", str(tmp_path / "t"),
                     "--resolution", "1"]) == 0
        assert "peak_chiplet_c" in capsys.readouterr().out


FLOORPLAN_DOC = floorplan_to_document(bst_placement(load_spec(SMALL_DOC)))


def edited(edit, base=SMALL_DOC):
    doc = copy.deepcopy(base)
    edit(doc)
    return doc


def assert_field_error(status, err, field):
    assert status == 1
    assert err.startswith(f"error: {field}: ") and err.count("\n") == 1


class TestSpecErrors:
    """Each malformed input exits 1 with one `error: <field path>: <reason>` line
    and makes no --out."""

    @pytest.mark.parametrize("command, edit, error", [
        ("power", lambda d: d["tiles"][0].update(frequency_hz=0),
         "tiles[0].frequency_hz: must be > 0 and finite"),
        ("power", lambda d: d["tiles"][0].pop("name"), "tiles[0].name: missing or empty"),
        ("place", lambda d: d["anneal"].update(decay="fast"),
         "anneal.decay: expected a finite number, got 'fast'"),
        ("place", lambda d: d.update(anneal=[1, 2]), "anneal: expected an object"),
        ("place", lambda d: d["anneal"].update(moves_per_iteration=0),
         "anneal.moves_per_iteration: must be > 0 and finite"),
        ("perf", lambda d: d["configs"][0].update(cost="cheap"),
         "configs[0].cost: expected a finite number, got 'cheap'"),
        ("cost", lambda d: d["process"].update(n_connections="many"),
         "process.n_connections: expected a finite number, got 'many'"),
        ("cost", lambda d: d["process"].update(wafer_diameter_mm=-300),
         "process.wafer_diameter_mm: must be > 0 and finite"),
        ("cost", lambda d: d["process"].update(wafer_diameter_mm=float("inf")),
         "process.wafer_diameter_mm: expected a finite number, got inf"),
        ("cost", lambda d: d["process"].update(d0_per_mm2=float("nan")),
         "process.d0_per_mm2: expected a finite number, got nan"),
        ("phy", lambda d: d.update(phy={"trace_width_um": "wide"}),
         "phy.trace_width_um: expected a finite number, got 'wide'"),
        ("cost", lambda d: d.update(stack={"h_top_w_m2k": -1}),
         "stack.h_top_w_m2k: must be > 0 and finite"),
        ("cost", lambda d: d.update(stack={"layers": [
            {"name": "base", "thickness_mm": 1.0, "conductivity_w_mk": 0},
            {"name": "chiplet", "thickness_mm": 0.5, "conductivity_w_mk": 130.0}]}),
         "stack.layers[0].conductivity_w_mk: must be > 0 and finite"),
        ("cost", lambda d: d.update(stack={"sink_side_mm": -5}),
         "stack.sink_side_mm: must be > 0 and finite"),
        ("cost", lambda d: d.update(stack={"sink_side_mm": 0}),
         "stack.sink_side_mm: must be > 0 and finite"),
        ("cost", lambda d: d["package"].update(ambient_c=200),
         "package.ambient_c: must be within [-40.0, 125.0] (automotive range)"),
        ("place", lambda d: d.update(stack={"layers": [
            {"name": "a", "thickness_mm": 1.0, "conductivity_w_mk": 130.0},
            {"name": "b", "thickness_mm": 0.5, "conductivity_w_mk": 130.0}]}),
         "stack.layers: no layer named 'chiplet'"),
        ("thermal", lambda d: d.update(stack={"layers": [
            {"name": "chiplet", "thickness_mm": 1.0, "conductivity_w_mk": 130.0},
            {"name": "chiplet", "thickness_mm": 0.5, "conductivity_w_mk": 130.0}]}),
         "stack.layers[1].name: duplicate name 'chiplet'"),
        ("cost", lambda d: d["tiles"][1].update(name="t0"), "tiles[1].name: duplicate name 't0'"),
        ("cost", lambda d: d["configs"][1].update(name="C1"),
         "configs[1].name: duplicate name 'C1'"),
        ("cost", lambda d: d["chiplets"][3].update(name="c"),
         "chiplets[3].name: duplicate name 'c'"),
        ("cost", lambda d: d["chiplets"][1]["ports"].append({"peer": "a", "weight": 3.0}),
         "chiplets[1].ports[1].weight: conflicting connection weights between 'a' and 'b': "
         "2.0 vs 3.0"),
        ("cost", lambda d: d["package"].update(interposer_width_mm=10.0, interposer_height_mm=10.0),
         "package.interposer_width_mm: chiplet footprints with spacing halo (135.0 mm^2) exceed "
         "interposer area (100.0 mm^2)"),
        ("cost", lambda d: d["chiplets"][0].update(kind="fpga"),
         "chiplets[0].kind: must be one of ('compute', 'gpu', 'memory', 'io', 'noc', 'analog')"),
        ("cost", lambda d: d["chiplets"][0]["ports"][0].update(weight=0.5),
         "chiplets[0].ports[0].weight: must be >= 1"),
        ("cost", lambda d: d.update(stack={"layers": [
            {"name": "chiplet", "thickness_mm": 0.5, "conductivity_w_mk": 130.0}]}),
         "stack.layers: at least 2 layers required"),
        ("power", lambda d: d["tiles"][0].update(activity=1.5),
         "tiles[0].activity: must be in [0, 1]"),
        # values each field accepts that overflow or underflow a model: these lines
        # name the quantity out of range, not a field
        ("cost", lambda d: d["chiplets"][0].update(width_mm=1e-155, height_mm=1e-155),
         "dies per wafer out of floating-point range (die of 1e-310 mm^2)"),
        ("cost", lambda d: d["process"].update(d0_per_mm2=1e300),
         "die of 36.0 mm^2: yield underflows to 0"),
        ("power", lambda d: d["tiles"][0].update(voltage_v=1e200),
         "voltage 1e+200 V overflows the power model"),
        ("phy", lambda d: d.update(phy={"trace_width_um": 1e-300}),
         "bandwidth target out of floating-point range"),
    ], ids=lambda v: v.split(": ")[0] if isinstance(v, str) else "")
    def test_spec_field_named(self, tmp_path, capsys, command, edit, error):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(edited(edit)))  # inf and nan are written as Infinity, NaN
        out = tmp_path / "o"
        assert main([command, "--spec", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {error}\n"
        assert not out.exists()

    @pytest.mark.parametrize("edit, error", [
        (lambda s: s.update(h_top_w_mk2=s.pop("h_top_w_m2k")), "stack.h_top_w_mk2: unknown key"),
        (lambda s: s.update(ambient_c=45.0), "stack.ambient_c: unknown key"),  # package's key
    ], ids=["misspelled", "held_by_package"])
    def test_unknown_key_in_bundled_spec(self, tmp_path, capsys, edit, error):
        doc = json.loads(Path(chipletdse.bundled_spec_path()).read_text())
        edit(doc["stack"])
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["cost", "--spec", str(path), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == f"error: {error}\n"

    @pytest.mark.parametrize("key", ["frequency_hz", "voltage_v"])
    def test_tile_operating_point_required(self, tmp_path, capsys, key):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(edited(lambda d: d["tiles"][0].pop(key))))
        status = main(["power", "--spec", str(path), "--out", str(tmp_path / "o")])
        assert status == 1
        assert capsys.readouterr().err == f"error: tiles[0].{key}: missing required field\n"

    def test_negative_tile_frequency_reason(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(edited(lambda d: d["tiles"][0].update(frequency_hz=-1))))
        status = main(["power", "--spec", str(path), "--out", str(tmp_path / "o")])
        assert status == 1
        assert capsys.readouterr().err == "error: tiles[0].frequency_hz: must be > 0 and finite\n"

    @pytest.mark.parametrize("edit, field", [
        (lambda d: d["placements"][0].update(rotation_deg=0.5), "placements[0].rotation_deg"),
        (lambda d: d["placements"][0].update(rotation_deg=45), "placements[0].rotation_deg"),
        (lambda d: d["placements"][0].update(width_mm=-3), "placements[0].width_mm"),
        (lambda d: d["placements"][0].update(power_w=-30), "placements[0].power_w"),
        (lambda d: d["interposer"].update(min_spacing_mm=-3), "interposer.min_spacing_mm"),
        (lambda d: d["placements"][1].update(x_mm=-5.0), "placements[1]"),  # out of bounds
        (lambda d: d["placements"][1].update(x_mm=1.0), "placements[1]"),  # onto placements[0]
        (lambda d: d["placements"][3].update(name="a"), "placements[3].name"),
    ], ids=lambda v: v if isinstance(v, str) else "")
    def test_floorplan_field_named(self, spec_path, tmp_path, capsys, edit, field):
        path = tmp_path / "floorplan.json"
        path.write_text(json.dumps(edited(edit, FLOORPLAN_DOC)))
        status = main(["thermal", "--spec", spec_path, "--floorplan", str(path),
                       "--out", str(tmp_path / "o")])
        assert_field_error(status, capsys.readouterr().err, field)

    def test_missing_floorplan(self, spec_path, tmp_path, capsys):
        missing = tmp_path / "gone.json"
        status = main(["thermal", "--spec", spec_path, "--floorplan", str(missing),
                       "--out", str(tmp_path / "o")])
        assert status == 1
        assert capsys.readouterr().err == f"error: {missing}: file not found\n"

    def test_oversized_grid_rejected(self, spec_path, tmp_path, capsys):
        path = tmp_path / "floorplan.json"
        path.write_text(json.dumps(edited(lambda d: d["interposer"].update(width_mm=1e300),
                                          FLOORPLAN_DOC)))
        status = main(["thermal", "--spec", spec_path, "--floorplan", str(path),
                       "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert status == 1
        assert err.startswith("error: ") and "cells per side" in err and err.count("\n") == 1

    def test_missing_configs_csv(self, tmp_path, capsys):
        missing = tmp_path / "gone.csv"
        assert main(["perf", "--configs", str(missing), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == f"error: {missing}: file not found\n"

    def test_configs_csv_cell(self, tmp_path, capsys):
        cfg = tmp_path / "configs.csv"
        cfg.write_text("name,cost,throughput,latency\nX,abc,1e9,10\n")
        assert main(["perf", "--configs", str(cfg), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}[0].cost: ") and err.count("\n") == 1

    def test_configs_csv_nonpositive_value(self, tmp_path, capsys):
        cfg = tmp_path / "configs.csv"
        cfg.write_text("name,cost,throughput,latency\nX,100,1e9,10\nY,100,1e9,0\n")
        assert main(["perf", "--configs", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == f"error: {cfg}[1].latency: must be > 0 and finite\n"

    @pytest.mark.parametrize("text, key", [
        ("name,cost,throughput,latency,notes\nA,1,1e9,1,fast\n", "notes"),
        ("name,cost,throughput,latency\nA,1,1e9,1,fast\n", "(cells past the header)"),
    ], ids=["column", "cell"])
    def test_configs_csv_unknown_column(self, tmp_path, capsys, text, key):
        cfg = tmp_path / "notes.csv"
        cfg.write_text(text)
        assert main(["perf", "--configs", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == f"error: {cfg}[0].{key}: unknown key\n"

    def test_configs_csv_ratio_out_of_range(self, tmp_path, capsys):
        cfg = tmp_path / "big.csv"
        cfg.write_text("name,cost,throughput,latency\nY,100,1e9,10\nX,100,1e300,1e-300\n")
        assert main(["perf", "--configs", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == (
            f"error: {cfg}[1]: golden ratio of throughput 1e+300, latency 1e-300 and cost "
            "100.0 is out of floating-point range\n")

    def test_spec_configs_ratio_out_of_range(self, tmp_path, capsys):
        with open(chipletdse.bundled_spec_path()) as fh:
            doc = json.load(fh)
        doc["configs"][1].update(throughput=1e300, latency=1e-300)
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        assert main(["perf", "--spec", str(path), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: configs[1]: golden ratio of throughput 1e+300, ")
        assert err.count("\n") == 1

    FLAG_ERRORS = [
        ("phy --clock 0", "phy.clock_frequency_hz: must be > 0 and finite"),
        ("phy --sf -1", "phy.safety_factor: must be > 0 and finite"),
        ("phy --trace-width-um 0", "phy.trace_width_um: must be > 0 and finite"),
        ("phy --trace-thickness-um inf", "phy.trace_thickness_um: expected a finite number, got inf"),
        ("phy --ground-thickness-um nan",
         "phy.ground_thickness_um: expected a finite number, got nan"),
        ("phy --interposer-height-um -5", "phy.interposer_height_um: must be > 0 and finite"),
        ("phy --er 0.5", "phy.relative_permittivity: must be >= 1 and finite"),
        ("phy --sigma 0", "phy.conductivity_s_m: must be > 0 and finite"),
        ("place --spec SPEC --seed -1", "anneal.seed: must be >= 0 and finite"),
    ]

    @pytest.mark.parametrize("argv, error", FLAG_ERRORS,
                             ids=[argv.split()[-2] for argv, _ in FLAG_ERRORS])
    def test_rejected_flag_value_names_its_field(self, spec_path, tmp_path, capsys, argv, error):
        """A flag's error names the spec path it sets, which its --help metavar shows."""
        argv = [spec_path if a == "SPEC" else a for a in argv.split()]
        out = tmp_path / "o"
        assert main([*argv, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {error}\n"
        assert not out.exists()  # the run fails before main makes --out

    def test_non_number_flag_value_names_its_field(self, tmp_path, capsys):
        # a flag's text that is no number is a spec error (status 1), not a usage error (2)
        out = tmp_path / "o"
        assert main(["phy", "--sf", "x", "--out", str(out)]) == 1
        assert capsys.readouterr().err == \
            "error: phy.safety_factor: expected a finite number, got 'x'\n"
        assert not out.exists()


def subparsers():
    return next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


class TestFlagScope:
    """--seed and --resolution exist only on the subcommands that read them, and
    every override flag's dest is the <section>.<field> path of a field of its
    subcommand's spec section."""

    SECTIONS = {"thermal": ("anneal", AnnealConfig), "place": ("anneal", AnnealConfig),
                "calibrate-k": ("anneal", AnnealConfig), "sweep": ("anneal", AnnealConfig),
                "cost": ("process", ProcessCostParams), "phy": ("phy", PhySpec)}
    NOT_OVERRIDES = {"help", "spec", "out", "floorplan", "configs", "k", "sides"}

    def test_every_override_flag_names_a_field(self):
        # the spec reader reads a flag in place of the key its dest names, so a
        # dest that names no field of the section would be silently ignored
        assert not any("." in dest for dest in self.NOT_OVERRIDES)
        for command, p in subparsers().items():
            name, cls = self.SECTIONS.get(command, ("", None))
            paths = {f"{name}.{f.name}" for f in fields(cls)} if cls else set()
            dests = {a.dest for a in p._actions if a.option_strings} - self.NOT_OVERRIDES
            assert dests <= paths, command

    @pytest.mark.parametrize("command, flags", [
        ("cost", ["--seed", "3"]),
        ("cost", ["--resolution", "0.1"]),
        ("power", ["--seed", "3"]),
        ("perf", ["--resolution", "0.1"]),
        ("phy", ["--seed", "3", "--resolution", "0.1"]),
        ("thermal", ["--seed", "9"]),
    ])
    def test_unread_flag_rejected(self, spec_path, tmp_path, capsys, command, flags):
        with pytest.raises(SystemExit) as exc:
            main([command, "--spec", spec_path, "--out", str(tmp_path / "o"), *flags])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestFailedRunLeavesNoOut:
    """--out is made only once the subcommand has computed every report, so a
    run that exits 1 before that leaves none."""

    @pytest.mark.parametrize("argv", [
        ["phy", "--sf", "x"],
        ["perf", "--configs", "{tmp}/bad.csv"],
        ["perf", "--configs", "{tmp}/missing.csv"],
        ["thermal", "--spec", "{spec}", "--floorplan", "{tmp}/missing.json"],
        ["sweep", "--spec", "{spec}", "--sides", "30,x"],
        ["calibrate-k", "--spec", "{spec}", "--k", "0.1,-1"],
        ["place", "--spec", "{spec}", "--resolution", "4.5"],
    ], ids=lambda argv: " ".join(argv[:1] + argv[-2:]).replace("{tmp}/", ""))
    def test_exit_1_makes_no_out(self, spec_path, tmp_path, capsys, argv):
        (tmp_path / "bad.csv").write_text("name,cost,throughput,latency\nX,cheap,1e9,10\n")
        out = tmp_path / "o"
        argv = [a.format(tmp=tmp_path, spec=spec_path) for a in argv]
        assert main([*argv, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()


class TestUnwritableOut:
    """An --out that cannot be made a directory, or a report or manifest path
    in it that cannot be written, exits 1 with one error line, as an
    unreadable input does, prints nothing to stdout, leaves none of its
    reports and no staging directory, and leaves every file in --out as it was."""

    @pytest.mark.parametrize("command", ["cost", "place"])
    @pytest.mark.parametrize("out, reason", [
        ("taken", "[Errno 17] File exists"),
        ("taken/sub", "[Errno 20] Not a directory"),
    ], ids=["existing-file", "under-a-file"])
    def test_unwritable_out(self, spec_path, tmp_path, capsys, command, out, reason):
        (tmp_path / "taken").write_text("kept\n")
        out = str(tmp_path / out)
        assert main([command, "--spec", spec_path, "--out", out]) == 1
        assert capsys.readouterr().err == f"error: {out}: unwritable ({reason}: '{out}')\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["small.json", "taken"]
        assert (tmp_path / "taken").read_text() == "kept\n"

    @pytest.mark.parametrize("argv, name", [
        ("cost", "cost.csv"),
        ("thermal --resolution 2", "temperature_field.csv"),
        ("place", "floorplan.svg"),
        ("cost", "manifest.json"),
    ], ids=lambda v: v.split()[0])
    def test_unwritable_report(self, spec_path, tmp_path, capsys, argv, name):
        out = tmp_path / "o"
        (out / name).mkdir(parents=True)
        command, *flags = argv.split()
        assert main([command, "--spec", spec_path, *flags, "--out", str(out)]) == 1
        path = out / name
        assert capsys.readouterr() == ("", f"error: {path}: not a regular file\n")
        # refused before any write: only the pre-made directory
        assert [p.name for p in out.iterdir()] == [name]

    def test_failed_run_keeps_an_earlier_runs_reports(self, spec_path, tmp_path, capsys):
        out = tmp_path / "d"
        assert main(["place", "--spec", spec_path, "--seed", "1", "--out", str(out)]) == 0
        (out / "floorplan.svg").unlink()
        (out / "floorplan.svg").mkdir()
        before = {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()}
        capsys.readouterr()
        assert main(["place", "--spec", spec_path, "--seed", "2", "--out", str(out)]) == 1
        assert capsys.readouterr() == ("", f"error: {out / 'floorplan.svg'}: not a regular file\n")
        assert {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()} == before
        assert sorted(p.name for p in out.iterdir()) == sorted([*before, "floorplan.svg"])

    def test_write_failure_keeps_an_earlier_runs_reports(self, spec_path, tmp_path, capsys,
                                                         monkeypatch):
        out = tmp_path / "d"
        argv = ["thermal", "--spec", spec_path, "--out", str(out)]
        assert main(argv) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}

        def disk_full(tf):
            yield "layer,x,y,t_c\r\n"
            raise OSError(28, "No space left on device")

        monkeypatch.setattr("chipletdse.cli._field_csv", disk_full)
        capsys.readouterr()
        assert main(argv) == 1
        stdout, stderr = capsys.readouterr()
        assert stdout == "" and stderr.startswith("error: ")
        assert stderr.endswith("temperature_field.csv: unwritable "
                               "([Errno 28] No space left on device)\n")
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before


class TestFlagReadAsSpecKey:
    """An override flag's text is read as the spec value it stands for: a run
    with the flag matches a run whose spec holds that value at the flag's path,
    in exit status, stderr, stdout, recorded seed, whether --out was made and
    every report byte."""

    # text -> the value a spec holds for it; a text that is no number is held as is
    VALUES = {"1e3": 1e3, ".5": 0.5, "+2": 2, "007": 7, "1_000": 1000, "1.5": 1.5, "-1": -1,
              "0": 0, "inf": math.inf, "nan": math.nan, "x": "x", "": "",
              "123456789012345678901234567890": 123456789012345678901234567890}
    EXTRA = {"calibrate-k": ["--k", "0.1"], "sweep": ["--sides", "20"]}
    FLAGS = [(command, a.option_strings[0], a.dest) for command, p in subparsers().items()
             for a in p._actions if "." in a.dest]

    def run(self, capsys, out, command, doc, flag=()):
        """One run, without --spec if doc is None."""
        argv = [command, "--out", str(out), *flag, *self.EXTRA.get(command, [])]
        if doc is not None:
            spec = out.parent / f"{out.name}.json"
            spec.write_text(json.dumps(doc))
            argv += ["--spec", str(spec)]
        status = main(argv)
        stdout, stderr = capsys.readouterr()
        files = {f.name: f.read_bytes() for f in out.glob("*") if f.name != "manifest.json"}
        seed = json.loads((out / "manifest.json").read_text())["seed"] if status == 0 else None
        return status, stderr, stdout, seed, out.exists(), files

    @pytest.mark.parametrize("command, option, dest", FLAGS,
                             ids=[f"{command} {option}" for command, option, _ in FLAGS])
    def test_flag_matches_spec_key(self, tmp_path, capsys, command, option, dest):
        section, key = dest.split(".")
        base = edited(lambda d: d["anneal"].update(max_iterations=1))  # one annealing epoch
        for i, (text, value) in enumerate(self.VALUES.items()):
            # phy's flags run without --spec, over an empty phy section
            flagged = self.run(capsys, tmp_path / f"flag{i}", command,
                               None if command == "phy" else base, [option, text])
            keyed = self.run(capsys, tmp_path / f"key{i}", command,
                             edited(lambda d: d.setdefault(section, {}).update({key: value}), base))
            assert flagged == keyed, text

    def test_long_seed_stays_exact(self, spec_path, tmp_path):
        seed = "123456789012345678901234567890"
        out = tmp_path / "o"
        assert main(["place", "--spec", spec_path, "--out", str(out), "--seed", seed]) == 0
        assert json.loads((out / "manifest.json").read_text())["seed"] == int(seed)


SINK_GAP = "sink footprint covers no grid cells"


class TestResolutionValidation:
    @pytest.mark.parametrize("command, resolution, reason", [
        pytest.param(command, resolution, reason, id=f"{command}-{resolution}")
        for command, resolution, reason in [
            ("place", "0", "must be > 0 and finite"), ("place", "-2", "must be > 0 and finite"),
            ("thermal", "0", "must be > 0 and finite"), ("thermal", "-1", "must be > 0 and finite"),
            ("thermal", "inf", "expected a finite number, got inf"),
            ("calibrate-k", "nan", "expected a finite number, got nan"),
            ("sweep", "inf", "expected a finite number, got inf"),
        ]])
    def test_non_positive_resolution_rejected(self, spec_path, tmp_path, capsys,
                                              command, resolution, reason):
        """--resolution sets anneal.fine_cell_mm in every subcommand that takes it."""
        k = ["--k", "0.1"] if command == "calibrate-k" else []
        status = main([command, "--spec", spec_path, "--out", str(tmp_path / "o"),
                       "--resolution", resolution, *k])
        assert status == 1
        assert capsys.readouterr().err == f"error: anneal.fine_cell_mm: {reason}\n"

    @pytest.mark.parametrize("command, extra, resolution, message", [
        ("place", [], "0.01",
         "a 20.0 x 20.0 mm grid of 0.01 mm cells exceeds 500 cells per side"),
        ("calibrate-k", ["--k", "0.1,0.2"], "4.5",
         "cell size 4.5 mm exceeds smallest dimension of chiplet 'c'"),
        # the 20 mm side would anneal first; the 30 mm side's fine grid is too big
        ("sweep", ["--sides", "20,30"], "0.05",
         "a 30.0 x 30.0 mm grid of 0.05 mm cells exceeds 500 cells per side"),
        # on a 22 mm board a 0.8 mm sink covers a 2 mm cell centre but no 1 mm one
        ("place", [], "1", SINK_GAP),
        ("calibrate-k", ["--k", "0.1,0.2"], "1", SINK_GAP),
        ("sweep", ["--sides", "22"], "1", SINK_GAP),
    ])
    def test_unusable_fine_grid_fails_before_annealing(self, spec_path, tmp_path, capsys,
                                                       monkeypatch, command, extra,
                                                       resolution, message):
        def no_moves(fp, rng):
            raise AssertionError("annealing started")

        def no_models(stack, grid):
            raise AssertionError("thermal model built")

        if message == SINK_GAP:
            doc = copy.deepcopy(SMALL_DOC)
            doc["package"].update(interposer_width_mm=22.0, interposer_height_mm=22.0)
            doc["stack"] = {"sink_side_mm": 0.8}
            spec_path = str(tmp_path / "sink-gap.json")
            Path(spec_path).write_text(json.dumps(doc))
        # the grids are checked on the mesh, before any thermal model is built
        monkeypatch.setattr("chipletdse.place.propose_move", no_moves)
        monkeypatch.setattr("chipletdse.thermal._grid_model", no_models)
        out = tmp_path / "o"
        status = main([command, "--spec", spec_path, "--out", str(out),
                       "--resolution", resolution, *extra])
        assert status == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


class TestPlaceCommand:
    def test_outputs_and_determinism(self, spec_path, tmp_path):
        out1, out2 = tmp_path / "p1", tmp_path / "p2"
        assert main(["place", "--spec", spec_path, "--out", str(out1)]) == 0
        assert main(["place", "--spec", spec_path, "--out", str(out2)]) == 0
        for name in ("floorplan.json", "floorplan.svg", "history.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        doc = json.loads((out1 / "floorplan.json").read_text())
        assert len(doc["placements"]) == 4
        assert "<svg" in (out1 / "floorplan.svg").read_text()

    def test_seed_override_changes_history(self, spec_path, tmp_path):
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        assert main(["place", "--spec", spec_path, "--out", str(out1)]) == 0
        assert main(["place", "--spec", spec_path, "--out", str(out2),
                     "--seed", "7"]) == 0
        assert (out1 / "history.csv").read_bytes() != (out2 / "history.csv").read_bytes()
        m2 = json.loads((out2 / "manifest.json").read_text())
        assert m2["seed"] == 7

    def test_svg_escapes_markup_in_names(self, tmp_path):
        name = "cpu<0>&co"
        path = tmp_path / "named.json"
        path.write_text(json.dumps(edited(lambda d: d["chiplets"][0].update(name=name))))
        out = tmp_path / "p"
        assert main(["place", "--spec", str(path), "--out", str(out)]) == 0
        svg = ET.parse(out / "floorplan.svg")  # raises on malformed XML
        texts = [t.text for t in svg.iter("{http://www.w3.org/2000/svg}text")]
        assert len(texts) == 4
        assert any(t == name or t.startswith(f"{name} (r") for t in texts)

    def test_every_kind_has_its_own_fill(self):
        # a kind without an entry would render in the fallback grey
        assert set(_KIND_FILL) == set(CHIPLET_KINDS)
        assert len(set(_KIND_FILL.values())) == len(CHIPLET_KINDS)

    def test_fast_decay_runs(self, tmp_path):
        # once K has decayed, an improving move's acceptance exponent is huge
        path = tmp_path / "fast.json"
        path.write_text(json.dumps(edited(lambda d: d["anneal"].update(decay=0.5, tol_c=1e-3))))
        assert main(["place", "--spec", str(path), "--out", str(tmp_path / "p")]) == 0


class TestCalibrateAndSweepCommands:
    def test_calibrate_duplicate_candidates(self, spec_path, tmp_path):
        out = tmp_path / "cal"
        assert main(["calibrate-k", "--spec", spec_path, "--out", str(out),
                     "--k", "0.1,0.1"]) == 0
        rows = read_csv(out / "k_calibration.csv")
        assert rows[1] == rows[2]

    def test_sweep_flags_infeasible(self, spec_path, tmp_path, capsys):
        out = tmp_path / "sweep"
        assert main(["sweep", "--spec", spec_path, "--out", str(out),
                     "--sides", "10,20"]) == 0
        rows = read_csv(out / "interposer_sweep.csv")
        assert rows[1][3] == "false" and rows[2][3] == "true"
        assert "infeasible" in capsys.readouterr().out

    def test_partial_sink_sweep_on_the_fine_grid(self, tmp_path):
        # at 50 mm the bundled 40 mm sink leaves 22,500 of the 0.2 mm grid's top
        # cells uncooled, and the fine solve runs CG over them
        out = tmp_path / "sweep"
        assert main(["sweep", "--spec", chipletdse.bundled_spec_path(), "--resolution", "0.2",
                     "--sides", "30,50", "--out", str(out)]) == 0
        rows = read_csv(out / "interposer_sweep.csv")
        assert [(r[0], r[3]) for r in rows[1:]] == [("30", "true"), ("50", "true")]

    @pytest.mark.parametrize("sides, error", [
        pytest.param("20,0", "sides[1]: must be > 0 and finite", id="20,0"),
        pytest.param("-5", "sides[0]: must be > 0 and finite", id="-5"),
        pytest.param("nan", "sides[0]: expected a finite number, got nan", id="nan"),
        pytest.param("inf", "sides[0]: expected a finite number, got inf", id="inf"),
    ])
    def test_non_positive_side_rejected(self, spec_path, tmp_path, capsys, sides, error):
        out = tmp_path / "sweep"
        assert main(["sweep", "--spec", spec_path, "--out", str(out), "--sides", sides]) == 1
        assert capsys.readouterr().err == f"error: {error}\n"
        assert not out.exists()  # the run fails before main makes --out

    def test_every_k_checked_before_annealing(self, spec_path, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(place, "optimize", lambda *args: pytest.fail("annealed"))
        out = tmp_path / "cal"
        assert main(["calibrate-k", "--spec", spec_path, "--out", str(out), "--k", "0.1,-1"]) == 1
        assert capsys.readouterr().err == "error: k[1]: must be > 0 and finite\n"

    def test_infinite_k_rejected(self, spec_path, tmp_path, capsys):
        out = tmp_path / "cal"
        assert main(["calibrate-k", "--spec", spec_path, "--out", str(out), "--k", "0.1,inf"]) == 1
        assert capsys.readouterr().err == "error: k[1]: expected a finite number, got inf\n"
        assert not (out / "k_calibration.csv").exists()

    @pytest.mark.parametrize("argv, report, error", [
        (["sweep", "--sides", "30,x"], "interposer_sweep.csv",
         "sides[1]: expected a finite number, got 'x'"),
        (["calibrate-k", "--k="], "k_calibration.csv", "k[0]: expected a finite number, got ''"),
    ], ids=["sides", "k"])
    def test_list_item_read_as_a_spec_number(self, spec_path, tmp_path, capsys, argv, report,
                                             error):
        out = tmp_path / "o"
        assert main([*argv, "--spec", spec_path, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {error}\n"
        assert not (out / report).exists()


class TestRerunCommand:
    @pytest.mark.parametrize("argv, inputs", [
        ("place --spec SPEC", ["SPEC"]),
        # no --spec: the manifest records no input, and rerun reads each flag again
        ("phy --clock 8e9 --sf 2 --er 4 --sigma 5e7", []),
    ], ids=["place", "phy-flags"])
    def test_rerun_reproduces_outputs(self, spec_path, tmp_path, argv, inputs):
        out, given = tmp_path / "run", {"SPEC": spec_path}
        assert main([given.get(a, a) for a in argv.split()] + ["--out", str(out)]) == 0
        recorded = json.loads((out / "manifest.json").read_text())["inputs"]
        assert list(recorded) == [given[a] for a in inputs]
        before = {p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.json"}
        for name in before:
            (out / name).unlink()
        assert main(["rerun", str(out / "manifest.json")]) == 0
        for name, blob in before.items():
            assert (out / name).read_bytes() == blob

    def test_rerun_refuses_changed_input(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(SMALL_DOC))
        out = tmp_path / "cost"
        assert main(["cost", "--spec", str(spec), "--out", str(out)]) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        spec.write_text(json.dumps(edited(lambda d: d["process"].update(n_connections=5))))
        capsys.readouterr()
        assert main(["rerun", str(out / "manifest.json")]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {spec}: input changed since the recorded run\n"
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        spec.unlink()
        assert main(["rerun", str(out / "manifest.json")]) == 1

    def test_rerun_refuses_rerun_manifest(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"argv": ["rerun", str(manifest)], "inputs": {}}))
        status = main(["rerun", str(manifest)])
        assert_field_error(status, capsys.readouterr().err, str(manifest))

    @pytest.mark.parametrize("recorded, reason", [
        ({"argv": ["bogus"], "inputs": {}}, "argv: argument subcommand: invalid choice: 'bogus'"),
        ({"argv": [], "inputs": {}}, "argv: the following arguments are required: subcommand"),
        ({"argv": ["cost", "--spec"], "inputs": {}}, "argv: argument --spec: expected one argument"),
        ({"argv": "cost --spec s.json", "inputs": {}}, "not a chipletdse manifest"),
    ], ids=["unknown-subcommand", "empty", "flag-without-value", "argv-not-a-list"])
    def test_rerun_refuses_manifest_without_a_run(self, tmp_path, capsys, monkeypatch,
                                                  recorded, reason):
        monkeypatch.chdir(tmp_path)  # a recorded run without --out would write ./out
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(recorded))
        status = main(["rerun", str(manifest)])
        err = capsys.readouterr().err
        assert_field_error(status, err, str(manifest))
        assert err.startswith(f"error: {manifest}: {reason}")
        assert list(tmp_path.iterdir()) == [manifest]

    def test_missing_manifest(self, tmp_path, capsys):
        assert main(["rerun", str(tmp_path / "gone.json")]) == 1
        assert capsys.readouterr().err == f"error: {tmp_path / 'gone.json'}: file not found\n"


class TestRunManifest:
    """Every run subcommand records its subcommand, given input files and seed,
    and writes exactly its reports and the manifest to --out."""

    @pytest.fixture()
    def inputs(self, spec_path, tmp_path):
        csv_path = tmp_path / "configs.csv"
        csv_path.write_text("name,cost,throughput,latency\nX,100,1e9,10\nY,100,1e9,20\n")
        fp_path = tmp_path / "floorplan.json"
        fp_path.write_text(json.dumps(FLOORPLAN_DOC))
        return {"SPEC": spec_path, "CSV": str(csv_path), "FP": str(fp_path)}

    def run(self, command, inputs, out):
        return main([inputs.get(a, a) for a in command.split()] + ["--out", str(out)])

    RUNS = [
        ("cost --spec SPEC", "SPEC", None, "cost.csv, manifest.json"),
        ("power --spec SPEC", "SPEC", None, "manifest.json, power.csv"),
        ("perf --spec SPEC", "SPEC", None, "manifest.json, perf.csv"),
        ("perf --configs CSV", "CSV", None, "manifest.json, perf.csv"),
        ("phy", "", None, "bandwidth_curve.csv, manifest.json"),
        ("phy --spec SPEC", "SPEC", None, "bandwidth_curve.csv, manifest.json"),
        ("thermal --spec SPEC --resolution 2", "SPEC", None,
         "manifest.json, temperature_field.csv"),
        ("thermal --spec SPEC --floorplan FP", "SPEC FP", None,
         "manifest.json, temperature_field.csv"),
        ("place --spec SPEC", "SPEC", 2,
         "floorplan.json, floorplan.svg, history.csv, manifest.json"),
        ("place --spec SPEC --seed 7", "SPEC", 7,
         "floorplan.json, floorplan.svg, history.csv, manifest.json"),
        ("calibrate-k --spec SPEC --k 0.1", "SPEC", 2, "k_calibration.csv, manifest.json"),
        ("calibrate-k --spec SPEC --k 0.1 --seed 5", "SPEC", 5,
         "k_calibration.csv, manifest.json"),
        ("sweep --spec SPEC --sides 20", "SPEC", 2, "interposer_sweep.csv, manifest.json"),
        ("sweep --spec SPEC --sides 20 --seed 4", "SPEC", 4,
         "interposer_sweep.csv, manifest.json"),
    ]

    @pytest.mark.parametrize("argv, given, seed, files", RUNS,
                             ids=[f"{argv}-{given}-{seed}" for argv, given, seed, _ in RUNS])
    def test_manifest(self, inputs, tmp_path, argv, given, seed, files):
        out = tmp_path / "run"
        assert self.run(argv, inputs, out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["subcommand"] == argv.split()[0]
        assert list(manifest["inputs"]) == [inputs[g] for g in given.split()]
        assert manifest["seed"] == seed
        assert ", ".join(sorted(p.name for p in out.iterdir())) == files

    def test_perf_needs_an_input(self, tmp_path, capsys):
        assert main(["perf", "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == "error: perf needs --spec or --configs\n"

    def test_perf_configs_replace_spec_rows(self, inputs, tmp_path):
        out = tmp_path / "run"
        assert self.run("perf --spec SPEC --configs CSV", inputs, out) == 0
        assert [r[0] for r in read_csv(out / "perf.csv")[1:]] == ["X", "Y"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert list(manifest["inputs"]) == [inputs["SPEC"], inputs["CSV"]]


class TestImportBoundary:
    """Only the subcommands that solve load numpy, place and thermal: the
    report subcommands pay no numpy import, and none loads numpy.random. Each
    report subcommand loads its own report module alone, and the solving ones
    load none of them. None loads OpenSSL (_hashlib), nor, unless a site hook
    has, importlib.resources."""

    SOLVER = "chipletdse.place,chipletdse.thermal,numpy"
    REPORTS = "chipletdse.costyield,chipletdse.perf,chipletdse.phy,chipletdse.power"

    # each command runs on the bundled spec into ./<its name>; "rerun <name>"
    # repeats the run recorded in <name>/manifest.json
    CODE = """
import sys
import chipletdse
from chipletdse.cli import main
watched, commands = sys.argv[1].split(","), sys.argv[2:]
for command in commands:
    name, *flags = command.split()
    argv = [name, *flags, "--spec", chipletdse.bundled_spec_path(), "--out", name]
    assert main(["rerun", f"{flags[0]}/manifest.json"] if name == "rerun" else argv) == 0
print(sorted(m for m in sys.modules if m in watched))
"""

    def loaded_after(self, tmp_path, *commands, watched=SOLVER, options=()):
        src = str(Path(chipletdse.__file__).parents[1])
        proc = subprocess.run([sys.executable, *options, "-c", self.CODE, watched, *commands],
                              capture_output=True, text=True, check=True, cwd=tmp_path,
                              env={**os.environ, "PYTHONPATH": src})
        return proc.stdout.splitlines()[-1]

    def test_report_subcommands_load_no_numpy(self, tmp_path):
        assert self.loaded_after(tmp_path, "cost", "power", "perf", "phy") == "[]"

    def test_thermal_loads_the_solver_modules(self, tmp_path):
        assert self.loaded_after(tmp_path, "thermal") == \
            "['chipletdse.place', 'chipletdse.thermal', 'numpy']"

    @pytest.mark.parametrize("command", ["place", "thermal"])
    def test_solving_subcommand_loads_no_numpy_random(self, tmp_path, command):
        # the annealer draws from place._Pcg64, not from a numpy Generator
        assert self.loaded_after(tmp_path, command, watched="numpy.random") == "[]"

    @pytest.mark.parametrize("command, module", [
        ("cost", "costyield"), ("power", "power"), ("perf", "perf"), ("phy", "phy")])
    def test_report_subcommand_loads_only_its_module(self, tmp_path, command, module):
        assert self.loaded_after(tmp_path, command, watched=self.REPORTS) == \
            f"['chipletdse.{module}']"

    @pytest.mark.parametrize("commands", [(), ("place",)])
    def test_import_and_place_load_no_report_module(self, tmp_path, commands):
        assert self.loaded_after(tmp_path, *commands, watched=self.REPORTS) == "[]"

    def test_no_subcommand_loads_openssl(self, tmp_path):
        # hashlib would load OpenSSL's libcrypto: the manifest hashes with _sha256 or _sha2
        assert self.loaded_after(tmp_path, "cost", "power", "perf", "phy", "thermal", "place",
                                 "calibrate-k --k 0.1", "sweep --sides 40", "rerun place",
                                 watched="_hashlib") == "[]"

    def test_no_site_hook_loads_neither_openssl_nor_resources(self, tmp_path):
        # -S: no site hook (such as one importing certifi) loads either module first
        assert self.loaded_after(tmp_path, "cost", "rerun cost", options=["-S"],
                                 watched="_hashlib,importlib.resources") == "[]"

    def test_bundled_spec_path_is_the_package_resource(self):
        assert chipletdse.bundled_spec_path() == \
            str(resources.files("chipletdse.data") / "infotainment.json")


class TestManifestHash:
    """The manifest's sha256 is the interpreter's built-in hash: hashlib's digest
    to the byte, so a manifest hashed by hashlib still reruns."""

    @pytest.mark.parametrize("size", [0, 64, (1 << 20) + 3])
    def test_digest_is_hashlibs(self, tmp_path, size):
        path = tmp_path / "blob"
        path.write_bytes(random.Random(size).randbytes(size))
        assert _sha256(path) == hashlib.sha256(path.read_bytes()).hexdigest()

    def test_manifest_hashed_by_hashlib_reruns(self, spec_path, tmp_path):
        out = tmp_path / "cost"
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({
            "argv": ["cost", "--spec", spec_path, "--out", str(out)],
            "inputs": {spec_path: hashlib.sha256(Path(spec_path).read_bytes()).hexdigest()}}))
        assert main(["rerun", str(manifest)]) == 0
        assert read_csv(out / "cost.csv")[-1][0] == "PACKAGE"


def test_place_output_ignores_the_hash_seed(tmp_path):
    # str hashes differ between these processes, so any output that followed a
    # set's iteration order would differ too
    spec, src = chipletdse.bundled_spec_path(), str(Path(chipletdse.__file__).parents[1])
    outs = []
    for hash_seed in ("0", "4242"):
        out = tmp_path / f"hash{hash_seed}"
        proc = subprocess.run([sys.executable, "-m", "chipletdse.cli", "place", "--spec", str(spec),
                               "--seed", "3", "--out", str(out)], check=True, capture_output=True,
                              env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": hash_seed})
        files = {f.name: f.read_bytes() for f in out.iterdir() if f.name != "manifest.json"}
        outs.append((proc.stdout, proc.stderr, files))
    assert sorted(outs[0][2]) == ["floorplan.json", "floorplan.svg", "history.csv"]
    assert outs[0] == outs[1]
