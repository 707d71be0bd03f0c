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
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

from . import __version__, bundled_spec_path
from . import costyield, perf, phy, place, power, svgout, thermal
from .model import (
    AnnealConfig,
    SpecBundle,
    SpecError,
    floorplan_from_document,
    floorplan_to_document,
    load_bundle,
    load_configs_csv,
    read_document,
)
from .svgout import fmt


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt(v) for v in row])


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


def _given(**flags) -> dict:
    """The flags given on the command line, as dataclass field overrides."""
    return {name: value for name, value in flags.items() if value is not None}


def _anneal_config(bundle: SpecBundle, args) -> AnnealConfig:
    return replace(bundle.anneal, **_given(seed=args.seed, fine_cell_mm=args.resolution))


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_cost(args, argv) -> int:
    bundle = load_bundle(Path(args.spec))
    out = _out_dir(args)
    dies = [(c.area, 1) for c in bundle.package.chiplets]
    n_conn = bundle.process.n_connections if args.connections is None else args.connections
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
    print(f"package_cost = {fmt(breakdown.package_cost)} "
          f"(assembly_yield {fmt(breakdown.assembly_yield)})")
    return 0


def _cmd_power(args, argv) -> int:
    bundle = load_bundle(Path(args.spec))
    out = _out_dir(args)
    if not bundle.tiles:
        raise SpecError(f"{args.spec}: no 'tiles' section for the power subcommand")
    rows_out, total = power.system_power(bundle.tiles)
    rows = [[name, b.switching, b.short_circuit, b.leakage, b.total]
            for name, b in rows_out]
    rows.append(["SYSTEM", sum(b.switching for _, b in rows_out),
                 sum(b.short_circuit for _, b in rows_out),
                 sum(b.leakage for _, b in rows_out), total])
    _write_csv(out / "power.csv",
               ["tile", "switching_w", "short_circuit_w", "leakage_w", "total_w"],
               rows)
    _write_manifest(out, "power", [Path(args.spec)], None, argv)
    print(f"system_power_w = {fmt(total)}")
    return 0


def _cmd_perf(args, argv) -> int:
    if args.configs:
        source = Path(args.configs)
        entries = load_configs_csv(source)
    elif args.spec:
        source = Path(args.spec)
        entries = load_bundle(source).configs
    else:
        raise SpecError("perf needs --spec or --configs")
    if not entries:
        raise SpecError("no configuration rows found (spec 'configs' or --configs CSV)")
    ranked = perf.rank_configs(entries)
    out = _out_dir(args)
    _write_csv(out / "perf.csv",
               ["config", "cost", "throughput", "latency", "golden_ratio", "relative"],
               [[r.name, r.cost, r.throughput, r.latency, r.golden_ratio, r.relative]
                for r in ranked])
    _write_manifest(out, "perf", [source], None, argv)
    print(f"best_config = {ranked[0].name} "
          f"(golden_ratio {fmt(ranked[0].golden_ratio)})")
    return 0


def _cmd_phy(args, argv) -> int:
    bundle = load_bundle(Path(args.spec)) if args.spec else None
    geometry = replace(bundle.geometry if bundle else phy.TraceGeometry(), **_given(
        trace_width=args.trace_width_um, trace_thickness=args.trace_thickness_um,
        ground_thickness=args.ground_thickness_um, interposer_height=args.interposer_height_um,
        relative_permittivity=args.er, conductivity=args.sigma))
    targets = replace(bundle.targets if bundle else phy.PhyTargets(), **_given(
        clock_frequency=args.clock, safety_factor=args.sf))
    lp = phy.line_params(geometry, targets.clock_frequency)
    max_len = phy.max_trace_length(targets, geometry)
    lengths = [i * 1e-3 for i in range(1, 101)]
    curve = phy.bandwidth_curve(lengths, targets, geometry)
    out = _out_dir(args)
    _write_csv(out / "bandwidth_curve.csv",
               ["length_mm", "log10_bw_hz", "log10_target_hz"],
               [[L * 1e3, bw, tgt] for L, bw, tgt in curve])
    _write_manifest(out, "phy", [Path(args.spec)] if args.spec else [], None, argv)
    print(f"c_per_length_pf_m = {fmt(lp.c_per_length * 1e12)}")
    print(f"r_total_per_length_ohm_m = {fmt(lp.r_total_per_length)}")
    print(f"max_trace_length_mm = {fmt(max_len * 1e3)}")
    return 0


def _cmd_thermal(args, argv) -> int:
    bundle = load_bundle(Path(args.spec))
    out = _out_dir(args)
    inputs = [Path(args.spec)]
    if args.floorplan:
        fpath = Path(args.floorplan)
        inputs.append(fpath)
        fp = floorplan_from_document(fpath)
    else:
        fp = place.bst_placement(bundle.package)
    cell = 1.0 if args.resolution is None else args.resolution
    pm = thermal.rasterize(fp, cell)
    tf = thermal.solve_steady_state(pm, bundle.package.stack)
    rows = [[lname, ix, iy, t] for lname, layer in zip(tf.stack.layer_names, tf.data)
            for iy, row in enumerate(layer) for ix, t in enumerate(row)]
    _write_csv(out / "temperature_field.csv", ["layer", "x", "y", "t_c"], rows)
    _write_manifest(out, "thermal", inputs, None, argv)
    for lname in tf.stack.layer_names:
        print(f"peak_{lname}_c = {fmt(thermal.peak_temperature(tf, lname))}")
    return 0


def _cmd_place(args, argv) -> int:
    bundle = load_bundle(Path(args.spec))
    out = _out_dir(args)
    cfg = _anneal_config(bundle, args)
    result = place.optimize(bundle.package, cfg)
    kinds = {c.name: c.kind for c in bundle.package.chiplets}
    (out / "floorplan.json").write_text(
        json.dumps(floorplan_to_document(result.floorplan), indent=2) + "\n")
    (out / "floorplan.svg").write_text(svgout.floorplan_svg(result.floorplan, kinds))
    _write_csv(out / "history.csv",
               ["iteration", "peak_t_c", "wirelength_mm", "cost", "k"],
               [[h.iteration, h.peak_t, h.wirelength, h.cost, h.k]
                for h in result.history])
    _write_manifest(out, "place", [Path(args.spec)], cfg.seed, argv)
    print(f"initial_peak_t_c = {fmt(result.initial_peak_t)}")
    print(f"final_peak_t_c = {fmt(result.final_peak_t)}")
    print(f"iterations = {result.iterations} converged = {result.converged}")
    return 0


def _cmd_calibrate_k(args, argv) -> int:
    bundle = load_bundle(Path(args.spec))
    out = _out_dir(args)
    cfg = _anneal_config(bundle, args)
    rows = place.calibrate_k(bundle.package, args.k, cfg)
    _write_csv(out / "k_calibration.csv",
               ["k0", "iterations_to_converge", "final_peak_t_c"],
               [[r.k0, r.iterations, r.final_peak_t] for r in rows])
    _write_manifest(out, "calibrate-k", [Path(args.spec)], cfg.seed, argv)
    for r in rows:
        print(f"k0={fmt(r.k0)} iterations={r.iterations} "
              f"final_peak_t_c={fmt(r.final_peak_t)}")
    return 0


def _cmd_sweep(args, argv) -> int:
    bundle = load_bundle(Path(args.spec))
    out = _out_dir(args)
    cfg = _anneal_config(bundle, args)
    rows = place.interposer_sweep(bundle.package, args.sides, cfg)
    _write_csv(out / "interposer_sweep.csv",
               ["side_mm", "area_mm2", "peak_t_c", "feasible"],
               [[r.side_mm, r.area_mm2,
                 r.peak_t if r.peak_t is not None else "infeasible", r.feasible]
                for r in rows])
    _write_manifest(out, "sweep", [Path(args.spec)], cfg.seed, argv)
    for r in rows:
        status = fmt(r.peak_t) if r.feasible else "infeasible"
        print(f"side={fmt(r.side_mm)}mm peak_t_c={status}")
    return 0


def _cmd_rerun(args, argv) -> int:
    """Re-execute a recorded run, unless an input it hashed has changed since."""
    recorded = read_document(Path(args.manifest))
    recorded_argv, inputs = recorded.get("argv"), recorded.get("inputs")
    if not (isinstance(recorded_argv, list) and isinstance(inputs, dict)):
        raise SpecError(f"{args.manifest}: not a chipletdse manifest")
    if recorded_argv[:1] == ["rerun"]:
        raise SpecError(f"{args.manifest}: records a rerun, not a run to repeat")
    for name, digest in inputs.items():
        if not Path(name).is_file() or _sha256(Path(name)) != digest:
            raise SpecError(f"{name}: input changed since the recorded run")
    return _dispatch([str(a) for a in recorded_argv])


# ---------------------------------------------------------------------------


def _floats(text: str) -> list[float]:
    return [float(v) for v in text.split(",")]


def _micrometres(text: str) -> float:
    return float(text) * 1e-6


def _add_common(p: argparse.ArgumentParser, spec_required: bool = True,
                seed: bool = False, resolution: bool = False) -> None:
    p.add_argument("--spec", required=spec_required, default=None,
                   help=f"package spec JSON (bundled: {bundled_spec_path()})")
    p.add_argument("--out", default="out", help="output directory")
    if seed:
        p.add_argument("--seed", type=int, default=None, help="RNG seed override")
    if resolution:
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
    p.add_argument("--trace-width-um", type=_micrometres, default=None)
    p.add_argument("--trace-thickness-um", type=_micrometres, default=None)
    p.add_argument("--ground-thickness-um", type=_micrometres, default=None)
    p.add_argument("--interposer-height-um", type=_micrometres, default=None)
    p.add_argument("--er", type=float, default=None, help="relative permittivity")
    p.add_argument("--sigma", type=float, default=None, help="trace conductivity, S/m")
    p.set_defaults(func=_cmd_phy)

    p = sub.add_parser("thermal", help="steady-state temperature field")
    _add_common(p, resolution=True)
    p.add_argument("--floorplan", default=None,
                   help="floorplan JSON (default: BST packing of the spec)")
    p.set_defaults(func=_cmd_thermal)

    p = sub.add_parser("place", help="thermally-aware annealing placement")
    _add_common(p, seed=True, resolution=True)
    p.set_defaults(func=_cmd_place)

    p = sub.add_parser("calibrate-k", help="annealing K calibration table")
    _add_common(p, seed=True, resolution=True)
    p.add_argument("--k", type=_floats, required=True, help="comma-separated K0 candidates")
    p.set_defaults(func=_cmd_calibrate_k)

    p = sub.add_parser("sweep", help="interposer-area sweep")
    _add_common(p, seed=True, resolution=True)
    p.add_argument("--sides", type=_floats, default="30,35,40,45,50",
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
            power.PowerError, thermal.ThermalError, place.PlacementError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main(argv: list[str] | None = None) -> int:
    return _dispatch(list(sys.argv[1:]) if argv is None else list(argv))


if __name__ == "__main__":
    sys.exit(main())
