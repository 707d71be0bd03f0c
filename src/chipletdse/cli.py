"""Command-line entry point.

Subcommands: cost, power, perf, phy, thermal, place, calibrate-k, sweep,
rerun. Each subcommand computes its reports and stdout lines without
touching --out; main then creates --out, writes every report and a
manifest.json (inputs with content hashes, seed, timestamp), and prints
the lines once the last write has succeeded. Numeric output is formatted
to 6 significant digits so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import __version__, bundled_spec_path, svgout
from .model import (
    ChipletdseError,
    SpecBundle,
    SpecError,
    floorplan_from_document,
    floorplan_to_document,
    load_bundle,
    load_configs_csv,
    load_phy,
    read_document,
    read_numbers,
)
from .svgout import fmt

try:  # the interpreter's own SHA-256: hashlib would load OpenSSL's libcrypto for it
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256


def _csv(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows([fmt(v) for v in row] for row in rows)
    return buf.getvalue()


def _sha256(path: Path) -> str:
    return sha256(path.read_bytes()).hexdigest()


def _manifest(args, bundle: SpecBundle | None, argv: list[str]) -> str:
    """The record of a run: its argv, the hashed input files it was given
    (--spec, --configs, --floorplan) and the seed of the subcommands that
    take --seed."""
    given = (vars(args).get(flag) for flag in ("spec", "configs", "floorplan"))
    inputs = [Path(p) for p in given if p]
    manifest = {
        "tool": "chipletdse",
        "version": __version__,
        "subcommand": args.subcommand,
        "argv": argv,
        "inputs": {str(p): _sha256(p) for p in inputs if p.exists()},
        "seed": bundle.anneal.seed if "anneal.seed" in vars(args) else None,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    return json.dumps(manifest, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Subcommands: each returns its reports (file name -> text) and stdout lines


def _cmd_cost(args, bundle: SpecBundle) -> tuple[dict, list[str]]:
    from . import costyield
    chiplets = bundle.package.chiplets
    breakdown = costyield.package_cost([c.area for c in chiplets], bundle.process)
    rows = [[c.name, c.area, d.gross_dies_per_wafer, d.die_yield, d.cost_per_die]
            for c, d in zip(chiplets, breakdown.dies)]
    rows.append(["PACKAGE", sum(c.area for c in chiplets),
                 bundle.process.n_connections, breakdown.assembly_yield, breakdown.package_cost])
    return ({"cost.csv": _csv(["die", "area_mm2", "gross_dies_or_connections", "yield", "cost"],
                              rows)},
            [f"package_cost = {fmt(breakdown.package_cost)} "
             f"(assembly_yield {fmt(breakdown.assembly_yield)})"])


def _cmd_power(args, bundle: SpecBundle) -> tuple[dict, list[str]]:
    from . import power
    if not bundle.tiles:
        raise SpecError("tiles: no tile rows")
    breakdowns, total = power.system_power([p for _, p in bundle.tiles])
    rows = [[name, b.switching, b.short_circuit, b.leakage, b.total]
            for (name, _), b in zip(bundle.tiles, breakdowns)]
    rows.append(["SYSTEM", sum(b.switching for b in breakdowns),
                 sum(b.short_circuit for b in breakdowns),
                 sum(b.leakage for b in breakdowns), total])
    return ({"power.csv": _csv(["tile", "switching_w", "short_circuit_w", "leakage_w", "total_w"],
                               rows)},
            [f"system_power_w = {fmt(total)}"])


def _cmd_perf(args, bundle: SpecBundle | None) -> tuple[dict, list[str]]:
    from . import perf
    if args.configs:
        source = Path(args.configs)
        entries = load_configs_csv(source)
    elif bundle:
        source, entries = "configs", bundle.configs
    else:
        raise SpecError("perf needs --spec or --configs")
    ranked = perf.rank_configs(entries, str(source))  # rows named as the loader names them
    return ({"perf.csv": _csv(
                ["config", "cost", "throughput", "latency", "golden_ratio", "relative"],
                [[r.name, r.cost, r.throughput, r.latency, r.golden_ratio, r.relative]
                 for r in ranked])},
            [f"best_config = {ranked[0].name} (golden_ratio {fmt(ranked[0].golden_ratio)})"])


def _cmd_phy(args, bundle: SpecBundle | None) -> tuple[dict, list[str]]:
    from . import phy
    p = bundle.phy if bundle else load_phy(vars(args))
    lp = phy.line_params(p)
    max_len = phy.max_trace_length(p)
    lengths = [i * 1e-3 for i in range(1, 101)]
    curve = phy.bandwidth_curve(lengths, p)
    return ({"bandwidth_curve.csv": _csv(["length_mm", "log10_bw_hz", "log10_target_hz"],
                                         [[L * 1e3, bw, tgt] for L, bw, tgt in curve])},
            [f"c_per_length_pf_m = {fmt(lp.c_per_length * 1e12)}",
             f"r_total_per_length_ohm_m = {fmt(lp.r_total_per_length)}",
             f"max_trace_length_mm = {fmt(max_len * 1e3)}"])


def _field_csv(tf):
    """temperature_field.csv a layer at a time: the rows csv.writer would write,
    one %-template per layer: the layer name as csv quotes it (its % escaped),
    the cell's x and y, and %.6g, fmt's text for a float."""
    yield _csv(["layer", "x", "y", "t_c"], [])
    cells = [f",{ix},{iy},%.6g\r\n" for iy in range(tf.grid.ny) for ix in range(tf.grid.nx)]
    for lname, layer in zip(tf.stack.layer_names, tf.data):
        quoted = _csv([lname], [])[:-2].replace("%", "%%")  # without csv's "\r\n"
        yield (quoted + quoted.join(cells)) % tuple(layer.ravel().tolist())


def _cmd_thermal(args, bundle: SpecBundle) -> tuple[dict, list[str]]:
    from . import place, thermal
    if args.floorplan:
        fp = floorplan_from_document(Path(args.floorplan))
    else:
        fp = place.bst_placement(bundle.package)
    pm = thermal.rasterize(fp, bundle.anneal.fine_cell_mm)
    tf = thermal.solve_steady_state(pm, bundle.package.stack)
    return ({"temperature_field.csv": _field_csv(tf)},
            [f"peak_{lname}_c = {fmt(thermal.peak_temperature(tf, lname))}"
             for lname in tf.stack.layer_names])


def _cmd_place(args, bundle: SpecBundle) -> tuple[dict, list[str]]:
    from . import place
    result = place.optimize(bundle.package, bundle.anneal)
    kinds = {c.name: c.kind for c in bundle.package.chiplets}
    return ({"floorplan.json": json.dumps(floorplan_to_document(result.floorplan), indent=2) + "\n",
             "floorplan.svg": svgout.floorplan_svg(result.floorplan, kinds),
             "history.csv": _csv(["iteration", "peak_t_c", "wirelength_mm", "cost", "k"],
                                 [[h.iteration, h.peak_t, h.wirelength, h.cost, h.k]
                                  for h in result.history])},
            [f"initial_peak_t_c = {fmt(result.initial_peak_t)}",
             f"final_peak_t_c = {fmt(result.final_peak_t)}",
             f"iterations = {result.iterations} converged = {result.converged}"])


def _cmd_calibrate_k(args, bundle: SpecBundle) -> tuple[dict, list[str]]:
    from . import place
    k = read_numbers(args.k, "k")
    runs = list(zip(k, place.calibrate_k(bundle.package, k, bundle.anneal)))
    return ({"k_calibration.csv": _csv(["k0", "iterations_to_converge", "final_peak_t_c"],
                                       [[k0, r.iterations, r.final_peak_t] for k0, r in runs])},
            [f"k0={fmt(k0)} iterations={r.iterations} final_peak_t_c={fmt(r.final_peak_t)}"
             for k0, r in runs])


def _cmd_sweep(args, bundle: SpecBundle) -> tuple[dict, list[str]]:
    from . import place
    sides = read_numbers(args.sides, "sides")
    results = place.interposer_sweep(bundle.package, sides, bundle.anneal)
    rows = [[side, side * side, "infeasible" if r is None else r.final_peak_t, r is not None]
            for side, r in zip(sides, results)]
    return ({"interposer_sweep.csv": _csv(["side_mm", "area_mm2", "peak_t_c", "feasible"], rows)},
            [f"side={fmt(side)}mm peak_t_c={fmt(peak_t)}" for side, _, peak_t, _ in rows])


def _recorded_run(manifest: str) -> tuple[argparse.Namespace, list[str]]:
    """The parsed arguments and argv of the run a manifest records, unless
    the manifest holds no run or an input it hashed has changed since."""
    recorded = read_document(Path(manifest))
    argv, inputs = recorded.get("argv"), recorded.get("inputs")
    if not (isinstance(argv, list) and isinstance(inputs, dict)):
        raise SpecError(f"{manifest}: not a chipletdse manifest")
    argv = [str(a) for a in argv]
    if argv[:1] == ["rerun"]:
        raise SpecError(f"{manifest}: records a rerun, not a run to repeat")
    for name, digest in inputs.items():
        if not Path(name).is_file() or _sha256(Path(name)) != digest:
            raise SpecError(f"{name}: input changed since the recorded run")
    try:
        with contextlib.redirect_stderr(io.StringIO()) as usage:
            return build_parser().parse_args(argv), argv
    except SystemExit:  # argparse's last stderr line reads "<prog>: error: <reason>"
        reason = usage.getvalue().strip().rpartition("error: ")[2]
        raise SpecError(f"{manifest}: argv: {reason or 'not a run'}") from None


# ---------------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser, spec_required: bool = True,
                seed: bool = False, resolution: bool = False) -> None:
    p.add_argument("--spec", required=spec_required, default=None,
                   help=f"package spec JSON (bundled: {bundled_spec_path()})")
    p.add_argument("--out", default="out", help="output directory")
    if seed:
        p.add_argument("--seed", dest="anneal.seed", help="RNG seed override")
    if resolution:
        p.add_argument("--resolution", dest="anneal.fine_cell_mm", help="thermal grid cell size, mm")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chipletdse",
        description="Chiplet package design-space exploration toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("cost", help="die/package cost and yield report")
    _add_common(p)
    p.add_argument("--connections", dest="process.n_connections",
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
    p.add_argument("--clock", dest="phy.clock_frequency_hz", help="clock frequency, Hz")
    p.add_argument("--sf", dest="phy.safety_factor", help="bandwidth safety factor")
    p.add_argument("--trace-width-um", dest="phy.trace_width_um")
    p.add_argument("--trace-thickness-um", dest="phy.trace_thickness_um")
    p.add_argument("--ground-thickness-um", dest="phy.ground_thickness_um")
    p.add_argument("--interposer-height-um", dest="phy.interposer_height_um")
    p.add_argument("--er", dest="phy.relative_permittivity", help="relative permittivity")
    p.add_argument("--sigma", dest="phy.conductivity_s_m", help="trace conductivity, S/m")
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
    p.add_argument("--k", required=True, help="comma-separated K0 candidates")
    p.set_defaults(func=_cmd_calibrate_k)

    p = sub.add_parser("sweep", help="interposer-area sweep")
    _add_common(p, seed=True, resolution=True)
    p.add_argument("--sides", default="30,35,40,45,50",
                   help="comma-separated square side lengths, mm")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("rerun", help="re-execute a recorded manifest")
    p.add_argument("manifest", help="manifest.json from a previous run")

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command line, or for rerun the one its manifest records. The
    subcommand gets the loaded spec (None without --spec) and returns its
    reports and stdout lines; only then is --out created and every report
    written, manifest.json last, and the lines printed once all are written.
    A path that cannot be written exits 1 with one error line, and removes
    the reports this run had written."""
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    try:
        if args.subcommand == "rerun":
            args, argv = _recorded_run(args.manifest)
        bundle = load_bundle(Path(args.spec), vars(args)) if args.spec else None
        reports, lines = args.func(args, bundle)
        reports["manifest.json"] = _manifest(args, bundle, argv)
        out = path = Path(args.out)
        written = []
        try:
            out.mkdir(parents=True, exist_ok=True)
            for name, text in reports.items():
                path = out / name
                with path.open("w", newline="") as fh:
                    written.append(path)
                    (fh.write if isinstance(text, str) else fh.writelines)(text)
        except OSError as exc:
            for done in written:
                done.unlink()
            raise ChipletdseError(f"{path}: unwritable ({exc})") from None
        for line in lines:
            print(line)
        return 0
    except ChipletdseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
