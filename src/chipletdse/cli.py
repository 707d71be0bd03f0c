"""Command-line entry point.

Subcommands: cost, power, perf, phy, thermal, place, calibrate-k, sweep,
rerun. Every run writes its outputs plus a manifest.json (inputs with
content hashes, seed, timestamp) to the output directory. Numeric output
is formatted to 6 significant digits so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, bundled_spec_path
from . import costyield, perf, phy, place, power, svgout, thermal
from .model import (
    PowerParams,
    SpecBundle,
    SpecError,
    floorplan_from_document,
    floorplan_to_document,
    load_bundle,
)
from .power import TileOperatingPoint


def _fmt(value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".6g")
    return str(value)


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_manifest(out: Path, subcommand: str, inputs: list[Path],
                    seed: int | None, argv: list[str]) -> None:
    manifest = {
        "tool": "chipletdse",
        "version": __version__,
        "subcommand": subcommand,
        "argv": argv,
        "inputs": {str(p): _sha256(p) for p in inputs if p.exists()},
        "seed": seed,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_bundle(args) -> SpecBundle:
    path = Path(args.spec)
    if not path.exists():
        raise SpecError(f"spec file not found: {path}")
    return load_bundle(path)


def _anneal_config(bundle: SpecBundle, args) -> place.AnnealConfig:
    a = bundle.anneal
    seed = args.seed if args.seed is not None else int(a.get("seed", 0))
    kwargs = dict(
        k0=float(a.get("k0", 0.1)),
        decay=float(a.get("decay", 0.97)),
        tol=float(a.get("tol_c", 0.1)),
        max_iterations=int(a.get("max_iterations", 500)),
        moves_per_iteration=int(a.get("moves_per_iteration", 10)),
        seed=seed,
        coarse_cell_mm=float(a.get("coarse_cell_mm", 2.0)),
        fine_cell_mm=float(a.get("fine_cell_mm", 1.0)),
    )
    if args.resolution is not None:
        kwargs["fine_cell_mm"] = args.resolution
    return place.AnnealConfig(**kwargs)


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_cost(args, argv) -> int:
    bundle = _load_bundle(args)
    out = _out_dir(args)
    dies = [(c.area, 1) for c in bundle.package.chiplets]
    n_conn = args.connections
    if n_conn is None:
        n_conn = int(bundle.raw.get("process", {}).get("n_connections", 20000))
    breakdown = costyield.package_cost(dies, n_conn, bundle.process)
    rows = [
        [bundle.package.chiplets[i].name, d.area, d.gross_dies_per_wafer,
         d.die_yield, d.cost_per_die]
        for i, d in enumerate(breakdown.dies)
    ]
    rows.append(["PACKAGE", sum(d.area for d in breakdown.dies),
                 breakdown.n_connections, breakdown.assembly_yield,
                 breakdown.package_cost])
    _write_csv(out / "cost.csv",
               ["die", "area_mm2", "gross_dies_or_connections", "yield", "cost"],
               rows)
    _write_manifest(out, "cost", [Path(args.spec)], None, argv)
    print(f"package_cost = {_fmt(breakdown.package_cost)} "
          f"(assembly_yield {_fmt(breakdown.assembly_yield)})")
    return 0


_TILE_PARAM_KEYS = {
    "activity": "activity",
    "load_capacitance_f": "load_capacitance",
    "gain_factor_a_v2": "gain_factor",
    "transition_time_s": "transition_time",
    "threshold_v": "threshold",
    "leakage_current_a": "leakage_current",
    "transistor_density_mm2": "transistor_density",
    "area_mm2": "area",
}


def _cmd_power(args, argv) -> int:
    bundle = _load_bundle(args)
    out = _out_dir(args)
    tiles = []
    for td in bundle.tiles:
        params = PowerParams(**{
            dest: float(td[key]) for key, dest in _TILE_PARAM_KEYS.items() if key in td
        })
        tiles.append(TileOperatingPoint(
            td["name"], float(td["frequency_hz"]), float(td["voltage_v"]), params))
    if not tiles:
        raise SpecError(f"{args.spec}: no 'tiles' section for the power subcommand")
    rows_out, total = power.system_power(tiles)
    rows = [[name, b.switching, b.short_circuit, b.leakage, b.total]
            for name, b in rows_out]
    rows.append(["SYSTEM", sum(b.switching for _, b in rows_out),
                 sum(b.short_circuit for _, b in rows_out),
                 sum(b.leakage for _, b in rows_out), total])
    _write_csv(out / "power.csv",
               ["tile", "switching_w", "short_circuit_w", "leakage_w", "total_w"],
               rows)
    _write_manifest(out, "power", [Path(args.spec)], None, argv)
    print(f"system_power_w = {_fmt(total)}")
    return 0


def _cmd_perf(args, argv) -> int:
    inputs = []
    if args.configs:
        path = Path(args.configs)
        if not path.exists():
            raise SpecError(f"configs file not found: {path}")
        inputs.append(path)
        with path.open() as fh:
            entries = [
                (r["name"], float(r["cost"]), float(r["throughput"]), float(r["latency"]))
                for r in csv.DictReader(fh)
            ]
    else:
        bundle = _load_bundle(args)
        inputs.append(Path(args.spec))
        entries = [
            (c["name"], float(c["cost"]), float(c["throughput"]), float(c["latency"]))
            for c in bundle.configs
        ]
    if not entries:
        raise SpecError("no configuration rows found (spec 'configs' or --configs CSV)")
    ranked = perf.rank_configs(entries)
    out = _out_dir(args)
    _write_csv(out / "perf.csv",
               ["config", "cost", "throughput", "latency", "golden_ratio", "relative"],
               [[r.name, r.cost, r.throughput, r.latency, r.golden_ratio, r.relative]
                for r in ranked])
    _write_manifest(out, "perf", inputs, None, argv)
    print(f"best_config = {ranked[0].name} "
          f"(golden_ratio {_fmt(ranked[0].golden_ratio)})")
    return 0


def _phy_geometry(bundle: SpecBundle | None, args) -> tuple[phy.TraceGeometry, phy.PhyTargets]:
    section = bundle.phy if bundle else {}
    um = 1e-6
    geometry = phy.TraceGeometry(
        trace_width=(args.trace_width_um or section.get("trace_width_um", 50.0)) * um,
        trace_thickness=(args.trace_thickness_um or section.get("trace_thickness_um", 20.0)) * um,
        ground_thickness=(args.ground_thickness_um or section.get("ground_thickness_um", 50.0)) * um,
        interposer_height=(args.interposer_height_um or section.get("interposer_height_um", 100.0)) * um,
        relative_permittivity=args.er or section.get("relative_permittivity", 11.68),
        conductivity=args.sigma or section.get("conductivity_s_m", 5.98e7),
    )
    targets = phy.PhyTargets(
        clock_frequency=args.clock or section.get("clock_frequency_hz", 2e9),
        safety_factor=args.sf or section.get("safety_factor", 1.5),
    )
    return geometry, targets


def _cmd_phy(args, argv) -> int:
    bundle = _load_bundle(args) if args.spec else None
    geometry, targets = _phy_geometry(bundle, args)
    lp = phy.line_params(geometry, targets.clock_frequency)
    max_len = phy.max_trace_length(targets, geometry)
    lengths = [i * 1e-3 for i in range(1, 101)]
    curve = phy.bandwidth_curve(lengths, targets, geometry)
    out = _out_dir(args)
    _write_csv(out / "bandwidth_curve.csv",
               ["length_mm", "log10_bw_hz", "log10_target_hz"],
               [[L * 1e3, bw, tgt] for L, bw, tgt in curve])
    _write_manifest(out, "phy", [Path(args.spec)] if args.spec else [], None, argv)
    print(f"c_per_length_pf_m = {_fmt(lp.c_per_length * 1e12)}")
    print(f"r_total_per_length_ohm_m = {_fmt(lp.r_total_per_length)}")
    print(f"max_trace_length_mm = {_fmt(max_len * 1e3)}")
    return 0


def _cmd_thermal(args, argv) -> int:
    bundle = _load_bundle(args)
    out = _out_dir(args)
    inputs = [Path(args.spec)]
    if args.floorplan:
        fpath = Path(args.floorplan)
        if not fpath.exists():
            raise SpecError(f"floorplan file not found: {fpath}")
        inputs.append(fpath)
        fp = floorplan_from_document(fpath)
    else:
        fp = place.bst_placement(bundle.package)
    cell = 1.0 if args.resolution is None else args.resolution
    pm = thermal.rasterize(fp, cell)
    tf = thermal.solve_steady_state(pm, bundle.package.stack)
    rows = []
    for li, lname in enumerate(tf.stack.layer_names):
        layer = tf.data[li]
        for iy in range(layer.shape[0]):
            for ix in range(layer.shape[1]):
                rows.append([lname, ix, iy, layer[iy, ix]])
    _write_csv(out / "temperature_field.csv", ["layer", "x", "y", "t_c"], rows)
    _write_manifest(out, "thermal", inputs, None, argv)
    for lname in tf.stack.layer_names:
        print(f"peak_{lname}_c = {_fmt(thermal.peak_temperature(tf, lname))}")
    return 0


def _write_placement_outputs(out: Path, result: place.AnnealResult, kinds: dict[str, str]) -> None:
    (out / "floorplan.json").write_text(
        json.dumps(floorplan_to_document(result.floorplan), indent=2) + "\n")
    (out / "floorplan.svg").write_text(svgout.floorplan_svg(result.floorplan, kinds))
    _write_csv(out / "history.csv",
               ["iteration", "peak_t_c", "wirelength_mm", "cost", "k"],
               [[h.iteration, h.peak_t, h.wirelength, h.cost, h.k]
                for h in result.history])


def _cmd_place(args, argv) -> int:
    bundle = _load_bundle(args)
    out = _out_dir(args)
    cfg = _anneal_config(bundle, args)
    result = place.optimize(bundle.package, cfg)
    kinds = {c.name: c.kind for c in bundle.package.chiplets}
    _write_placement_outputs(out, result, kinds)
    _write_manifest(out, "place", [Path(args.spec)], cfg.seed, argv)
    print(f"initial_peak_t_c = {_fmt(result.initial_peak_t)}")
    print(f"final_peak_t_c = {_fmt(result.final_peak_t)}")
    print(f"iterations = {result.iterations} converged = {result.converged}")
    return 0


def _cmd_calibrate_k(args, argv) -> int:
    bundle = _load_bundle(args)
    out = _out_dir(args)
    cfg = _anneal_config(bundle, args)
    candidates = [float(v) for v in args.k.split(",")]
    rows = place.calibrate_k(bundle.package, candidates, cfg)
    _write_csv(out / "k_calibration.csv",
               ["k0", "iterations_to_converge", "final_peak_t_c"],
               [[r.k0, r.iterations, r.final_peak_t] for r in rows])
    _write_manifest(out, "calibrate-k", [Path(args.spec)], cfg.seed, argv)
    for r in rows:
        print(f"k0={_fmt(r.k0)} iterations={r.iterations} "
              f"final_peak_t_c={_fmt(r.final_peak_t)}")
    return 0


def _cmd_sweep(args, argv) -> int:
    bundle = _load_bundle(args)
    out = _out_dir(args)
    cfg = _anneal_config(bundle, args)
    sides = [float(v) for v in args.sides.split(",")]
    rows = place.interposer_sweep(bundle.package, sides, cfg)
    _write_csv(out / "interposer_sweep.csv",
               ["side_mm", "area_mm2", "peak_t_c", "feasible"],
               [[r.side_mm, r.area_mm2,
                 r.peak_t if r.peak_t is not None else "infeasible", r.feasible]
                for r in rows])
    _write_manifest(out, "sweep", [Path(args.spec)], cfg.seed, argv)
    for r in rows:
        status = _fmt(r.peak_t) if r.feasible else "infeasible"
        print(f"side={_fmt(r.side_mm)}mm peak_t_c={status}")
    return 0


def _cmd_rerun(args, argv) -> int:
    path = Path(args.manifest)
    if not path.exists():
        raise SpecError(f"manifest not found: {path}")
    recorded = json.loads(path.read_text())
    return _dispatch(recorded["argv"])


# ---------------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser, spec_required: bool = True) -> None:
    p.add_argument("--spec", required=spec_required, default=None,
                   help=f"package spec JSON (bundled: {bundled_spec_path()})")
    p.add_argument("--out", default="out", help="output directory")
    p.add_argument("--seed", type=int, default=None, help="RNG seed override")
    p.add_argument("--resolution", type=float, default=None,
                   help="thermal grid cell size, mm")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chipletdse",
        description="Chiplet package design-space exploration toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("cost", help="die/package cost and yield report")
    _add_common(p)
    p.add_argument("--connections", type=int, default=None,
                   help="inter-die connection count for assembly yield")
    p.set_defaults(func=_cmd_cost)

    p = sub.add_parser("power", help="per-tile power breakdown")
    _add_common(p)
    p.set_defaults(func=_cmd_power)

    p = sub.add_parser("perf", help="golden-ratio config ranking")
    _add_common(p, spec_required=False)
    p.add_argument("--configs", default=None,
                   help="CSV with name,cost,throughput,latency columns")
    p.set_defaults(func=_cmd_perf)

    p = sub.add_parser("phy", help="interconnect physical-layer limits")
    _add_common(p, spec_required=False)
    p.add_argument("--clock", type=float, default=None, help="clock frequency, Hz")
    p.add_argument("--sf", type=float, default=None, help="bandwidth safety factor")
    p.add_argument("--trace-width-um", type=float, default=None)
    p.add_argument("--trace-thickness-um", type=float, default=None)
    p.add_argument("--ground-thickness-um", type=float, default=None)
    p.add_argument("--interposer-height-um", type=float, default=None)
    p.add_argument("--er", type=float, default=None, help="relative permittivity")
    p.add_argument("--sigma", type=float, default=None, help="trace conductivity, S/m")
    p.set_defaults(func=_cmd_phy)

    p = sub.add_parser("thermal", help="steady-state temperature field")
    _add_common(p)
    p.add_argument("--floorplan", default=None,
                   help="floorplan JSON (default: BST packing of the spec)")
    p.set_defaults(func=_cmd_thermal)

    p = sub.add_parser("place", help="thermally-aware annealing placement")
    _add_common(p)
    p.set_defaults(func=_cmd_place)

    p = sub.add_parser("calibrate-k", help="annealing K calibration table")
    _add_common(p)
    p.add_argument("--k", required=True, help="comma-separated K0 candidates")
    p.set_defaults(func=_cmd_calibrate_k)

    p = sub.add_parser("sweep", help="interposer-area sweep")
    _add_common(p)
    p.add_argument("--sides", default="30,35,40,45,50",
                   help="comma-separated square side lengths, mm")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("rerun", help="re-execute a recorded manifest")
    p.add_argument("manifest", help="manifest.json from a previous run")
    p.set_defaults(func=_cmd_rerun)

    return parser


def _dispatch(argv: list[str]) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, argv)
    except (SpecError, costyield.CostModelError, perf.PerfError, phy.PhyError,
            thermal.ThermalError, place.PlacementError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main(argv: list[str] | None = None) -> int:
    return _dispatch(list(sys.argv[1:]) if argv is None else list(argv))


if __name__ == "__main__":
    sys.exit(main())
