import copy
import csv
import json

import pytest

import chipletdse
from chipletdse.cli import main
from chipletdse.model import floorplan_to_document, load_spec
from chipletdse.place import bst_placement

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
        assert "nope.json" in capsys.readouterr().err


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
        assert main(["power", "--spec", str(path), "--out", str(tmp_path / "o")]) == 1
        assert "tiles" in capsys.readouterr().err


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
    """Each malformed input exits 1 with one `error: <field path>: <reason>` line."""

    @pytest.mark.parametrize("command, edit, field", [
        ("power", lambda d: d["tiles"][0].update(frequency_hz=0), "tiles[0].frequency_hz"),
        ("power", lambda d: d["tiles"][0].pop("name"), "tiles[0].name"),
        ("place", lambda d: d["anneal"].update(decay="fast"), "anneal.decay"),
        ("place", lambda d: d.update(anneal=[1, 2]), "anneal"),
        ("place", lambda d: d["anneal"].update(moves_per_iteration=0),
         "anneal.moves_per_iteration"),
        ("perf", lambda d: d["configs"][0].update(cost="cheap"), "configs[0].cost"),
        ("cost", lambda d: d["process"].update(n_connections="many"), "process.n_connections"),
        ("cost", lambda d: d["process"].update(wafer_diameter_mm=-300),
         "process.wafer_diameter_mm"),
        ("cost", lambda d: d["process"].update(wafer_diameter_mm=float("inf")),
         "process.wafer_diameter_mm"),
        ("cost", lambda d: d["process"].update(d0_per_mm2=float("nan")), "process.d0_per_mm2"),
        ("phy", lambda d: d.update(phy={"trace_width_um": "wide"}), "phy.trace_width_um"),
        ("cost", lambda d: d.update(stack={"h_top_w_m2k": -1}), "stack.h_top_w_m2k"),
        ("cost", lambda d: d.update(stack={"layers": [
            {"name": "base", "thickness_mm": 1.0, "conductivity_w_mk": 0},
            {"name": "chiplet", "thickness_mm": 0.5, "conductivity_w_mk": 130.0}]}),
         "stack.layers[0].conductivity_w_mk"),
        ("cost", lambda d: d.update(stack={"sink_side_mm": -5}), "stack.sink_side_mm"),
        ("cost", lambda d: d.update(stack={"sink_side_mm": 0}), "stack.sink_side_mm"),
        ("cost", lambda d: d["package"].update(ambient_c=200), "package.ambient_c"),
        ("place", lambda d: d.update(stack={"layers": [
            {"name": "a", "thickness_mm": 1.0, "conductivity_w_mk": 130.0},
            {"name": "b", "thickness_mm": 0.5, "conductivity_w_mk": 130.0}]}),
         "stack.layers"),
    ], ids=lambda v: v if isinstance(v, str) else "")
    def test_spec_field_named(self, tmp_path, capsys, command, edit, field):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(edited(edit)))  # inf and nan are written as Infinity, NaN
        status = main([command, "--spec", str(path), "--out", str(tmp_path / "o")])
        assert_field_error(status, capsys.readouterr().err, field)

    @pytest.mark.parametrize("edit, field", [
        (lambda d: d["placements"][0].update(rotation_deg=0.5), "placements[0].rotation_deg"),
        (lambda d: d["placements"][0].update(rotation_deg=45), "placements[0].rotation_deg"),
        (lambda d: d["placements"][0].update(width_mm=-3), "placements[0].width_mm"),
        (lambda d: d["placements"][0].update(power_w=-30), "placements[0].power_w"),
        (lambda d: d["interposer"].update(min_spacing_mm=-3), "interposer.min_spacing_mm"),
    ], ids=lambda v: v if isinstance(v, str) else "")
    def test_floorplan_field_named(self, spec_path, tmp_path, capsys, edit, field):
        path = tmp_path / "floorplan.json"
        path.write_text(json.dumps(edited(edit, FLOORPLAN_DOC)))
        status = main(["thermal", "--spec", spec_path, "--floorplan", str(path),
                       "--out", str(tmp_path / "o")])
        assert_field_error(status, capsys.readouterr().err, field)

    def test_oversized_grid_rejected(self, spec_path, tmp_path, capsys):
        path = tmp_path / "floorplan.json"
        path.write_text(json.dumps(edited(lambda d: d["interposer"].update(width_mm=1e300),
                                          FLOORPLAN_DOC)))
        status = main(["thermal", "--spec", spec_path, "--floorplan", str(path),
                       "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert status == 1
        assert err.startswith("error: ") and "cells per side" in err and err.count("\n") == 1

    def test_configs_csv_cell(self, tmp_path, capsys):
        cfg = tmp_path / "configs.csv"
        cfg.write_text("name,cost,throughput,latency\nX,abc,1e9,10\n")
        assert main(["perf", "--configs", str(cfg), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}[0].cost: ") and err.count("\n") == 1

    def test_explicit_zero_phy_flag_rejected(self, tmp_path, capsys):
        assert main(["phy", "--clock", "0", "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: clock_frequency: ") and err.count("\n") == 1


class TestFlagScope:
    """--seed and --resolution exist only on the subcommands that read them."""

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


class TestResolutionValidation:
    @pytest.mark.parametrize("command, resolution", [
        ("place", "0"), ("place", "-2"), ("thermal", "0"), ("thermal", "-1"),
    ])
    def test_non_positive_resolution_rejected(self, spec_path, tmp_path, capsys,
                                              command, resolution):
        status = main([command, "--spec", spec_path, "--out", str(tmp_path / "o"),
                       "--resolution", resolution])
        err = capsys.readouterr().err
        assert status == 1
        assert err.startswith("error:") and "Traceback" not in err


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


class TestRerunCommand:
    def test_rerun_reproduces_outputs(self, spec_path, tmp_path):
        out = tmp_path / "run"
        assert main(["place", "--spec", spec_path, "--out", str(out)]) == 0
        before = {name: (out / name).read_bytes()
                  for name in ("floorplan.json", "floorplan.svg", "history.csv")}
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

    def test_missing_manifest(self, tmp_path, capsys):
        assert main(["rerun", str(tmp_path / "gone.json")]) == 1
        assert "gone.json" in capsys.readouterr().err
