"""Output checks for the benchmark workloads.

Every check either recomputes a report from the spec values or tests a
property the method must have (energy balance, the maximum principle,
floorplan legality, a physical lower bound on the peak). None of them
imports chipletdse or compares against a stored copy of earlier output.
Each check raises ``CheckError`` with a message naming the file and row.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

MM = 1e-3
# Rounded vacuum constants of the PHY model (documented in the package's
# phy module); the per-length capacitance is defined in terms of them.
MU0 = 1.2566e-6
EPS0 = 8.8542e-12
LN9 = math.log(9.0)
DEFAULT_CONNECTIONS = 20000  # documented default of process.n_connections
GEOMETRY_EPS_MM = 1e-6


class CheckError(Exception):
    """A workload output is wrong."""


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckError(msg)


def _read_csv(path: Path, header: list[str]) -> list[list[str]]:
    with Path(path).open(newline="") as fh:
        rows = list(csv.reader(fh))
    _require(bool(rows) and rows[0] == header,
             f"{path}: header {rows[0] if rows else None} != {header}")
    return rows[1:]


def close6(printed: str, expected: float, what: str) -> None:
    """``printed`` is ``expected`` written to 6 significant digits."""
    try:
        value = float(printed)
    except ValueError:
        raise CheckError(f"{what}: {printed!r} is not a number") from None
    if expected == 0:
        _require(value == 0, f"{what}: {printed} != 0")
        return
    half_ulp = 0.5 * 10.0 ** (math.floor(math.log10(abs(expected))) - 5)
    _require(abs(value - expected) <= half_ulp * (1 + 1e-6),
             f"{what}: {printed} != {expected:.9g}")


def stdout_value(stdout: str, key: str) -> str:
    """Value of a ``key = value`` line printed by the CLI."""
    for line in stdout.splitlines():
        name, sep, rest = line.partition(" = ")
        if sep and name == key:
            return rest.split()[0]
    raise CheckError(f"stdout has no {key!r} line")


def load_spec(path: Path) -> dict:
    return json.loads(Path(path).read_text())


# ---------------------------------------------------------------------------
# report_cli: cost, power, perf, phy


def check_cost(path: Path, spec: dict) -> None:
    """Negative-binomial yield, gross dies, die cost and assembly yield."""
    proc = spec.get("process", {})
    wafer_cost = proc.get("wafer_cost", 10000.0)
    diameter = proc.get("wafer_diameter_mm", 300.0)
    d0 = proc.get("d0_per_mm2", 0.002)
    alpha = proc.get("alpha_yield", 3.0)
    die_survival = proc.get("assembly_die_survival", 0.999)
    conn_survival = proc.get("assembly_conn_survival", 0.999999)
    n_conn = int(proc.get("n_connections", DEFAULT_CONNECTIONS))

    rows = _read_csv(path, ["die", "area_mm2", "gross_dies_or_connections", "yield", "cost"])
    chiplets = spec["chiplets"]
    _require(len(rows) == len(chiplets) + 1,
             f"{path}: {len(rows)} rows for {len(chiplets)} dies plus PACKAGE")
    raw_cost = 0.0
    total_area = 0.0
    for row, c in zip(rows, chiplets):
        where = f"{path} row {c['name']}"
        _require(row[0] == c["name"], f"{where}: die name {row[0]!r}")
        area = c["width_mm"] * c["height_mm"]
        gross = math.floor(math.pi * (diameter / 2) ** 2 / area
                           - math.pi * diameter / math.sqrt(2 * area))
        die_yield = (1 + d0 * area / alpha) ** -alpha
        cost = wafer_cost / (gross * die_yield)
        close6(row[1], area, f"{where} area")
        _require(row[2] == str(gross), f"{where}: gross dies {row[2]} != {gross}")
        close6(row[3], die_yield, f"{where} yield")
        close6(row[4], cost, f"{where} cost")
        raw_cost += cost
        total_area += area
    package = rows[-1]
    assembly = die_survival ** len(chiplets) * conn_survival ** n_conn
    _require(package[0] == "PACKAGE", f"{path}: last row is {package[0]!r}, not PACKAGE")
    close6(package[1], total_area, f"{path} PACKAGE area")
    _require(package[2] == str(n_conn), f"{path}: connections {package[2]} != {n_conn}")
    close6(package[3], assembly, f"{path} assembly yield")
    close6(package[4], raw_cost / assembly, f"{path} package cost")


def check_power(path: Path, spec: dict) -> None:
    """Switching A*C*F*V^2, short-circuit A*(B/12)*F*T*(V-2Vth)^3, leakage I*V*N*area."""
    rows = _read_csv(path, ["tile", "switching_w", "short_circuit_w", "leakage_w", "total_w"])
    tiles = spec["tiles"]
    _require(len(rows) == len(tiles) + 1,
             f"{path}: {len(rows)} rows for {len(tiles)} tiles plus SYSTEM")
    sums = [0.0, 0.0, 0.0, 0.0]
    for row, t in zip(rows, tiles):
        where = f"{path} row {t['name']}"
        _require(row[0] == t["name"], f"{where}: tile name {row[0]!r}")
        a, f, v = t["activity"], t["frequency_hz"], t["voltage_v"]
        switching = a * t["load_capacitance_f"] * f * v ** 2
        overdrive = v - 2 * t["threshold_v"]
        short = (a * t["gain_factor_a_v2"] / 12 * f * t["transition_time_s"] * overdrive ** 3
                 if overdrive > 0 else 0.0)
        leakage = (t["leakage_current_a"] * v * t["transistor_density_mm2"] * t["area_mm2"])
        parts = [switching, short, leakage, switching + short + leakage]
        for name, printed, value in zip(("switching", "short-circuit", "leakage", "total"),
                                        row[1:], parts):
            close6(printed, value, f"{where} {name}")
        sums = [s + p for s, p in zip(sums, parts)]
    system = rows[-1]
    _require(system[0] == "SYSTEM", f"{path}: last row is {system[0]!r}, not SYSTEM")
    for printed, value in zip(system[1:], sums):
        close6(printed, value, f"{path} SYSTEM")


def check_perf(path: Path, spec: dict) -> None:
    """Golden ratio throughput/(latency*cost), ranked descending, ties by name."""
    rows = _read_csv(path, ["config", "cost", "throughput", "latency", "golden_ratio", "relative"])
    configs = spec["configs"]
    ratio = {c["name"]: c["throughput"] / (c["latency"] * c["cost"]) for c in configs}
    low = min(ratio.values())
    order = sorted(ratio, key=lambda name: (-ratio[name], name))
    _require([r[0] for r in rows] == order, f"{path}: ranking {[r[0] for r in rows]} != {order}")
    by_name = {c["name"]: c for c in configs}
    for row in rows:
        c = by_name[row[0]]
        where = f"{path} row {row[0]}"
        for printed, value in zip(row[1:], (c["cost"], c["throughput"], c["latency"],
                                            ratio[row[0]], ratio[row[0]] / low)):
            close6(printed, value, where)


def _phy_line(spec: dict) -> tuple[float, float]:
    """(R_total * C per length, target bandwidth) of the spec's stripline."""
    p = spec["phy"]
    um = 1e-6
    w, t = p["trace_width_um"] * um, p["trace_thickness_um"] * um
    g, h = p["ground_thickness_um"] * um, p["interposer_height_um"] * um
    sigma, f = p["conductivity_s_m"], p["clock_frequency_hz"]
    v0 = 1 / math.sqrt(MU0 * EPS0)
    c_len = p["relative_permittivity"] * (w / h + 0.441) / (30 * math.pi * v0)
    r_dc = (1 / (w * t) + 1 / (2 * g)) / sigma
    delta = (math.pi * f * MU0 * sigma) ** -0.5
    r_ac = (1 / (delta * (2 * t - 4 * delta + 2 * w)) + 1 / (2 * sigma)) / sigma
    return (r_dc + r_ac) * c_len, p["safety_factor"] * f


def check_phy(path: Path, stdout: str, spec: dict) -> None:
    """RC bandwidth curve 0.35/(R*C*L^2*ln 9) over 1..100 mm, and the reach."""
    rows = _read_csv(path, ["length_mm", "log10_bw_hz", "log10_target_hz"])
    rc, target = _phy_line(spec)
    _require(len(rows) == 100, f"{path}: {len(rows)} rows, expected 100")
    for i, row in enumerate(rows, start=1):
        length = i * MM
        where = f"{path} row {i}"
        close6(row[0], i, f"{where} length")
        close6(row[1], math.log10(0.35 / (rc * length ** 2 * LN9)), f"{where} bandwidth")
        close6(row[2], math.log10(target), f"{where} target")
    reach_mm = math.sqrt(0.35 / (target * rc * LN9)) / MM
    close6(stdout_value(stdout, "max_trace_length_mm"), reach_mm, "phy max_trace_length_mm")


# ---------------------------------------------------------------------------
# thermal_field


def _stack(spec: dict) -> tuple[list[dict], float, float | None]:
    stack = spec["stack"]
    return stack["layers"], stack.get("h_top_w_m2k", 1000.0), stack.get("sink_side_mm")


def total_power(spec: dict) -> float:
    return sum(c.get("power_w", 0.0) for c in spec["chiplets"])


def read_field(path: Path, layer_names: list[str]) -> dict[str, list[list[float]]]:
    """temperature_field.csv as {layer: [row y][column x]} with a full grid per layer."""
    rows = _read_csv(path, ["layer", "x", "y", "t_c"])
    cells: dict[str, dict[tuple[int, int], float]] = {name: {} for name in layer_names}
    for row in rows:
        _require(row[0] in cells, f"{path}: unknown layer {row[0]!r}")
        cells[row[0]][int(row[1]), int(row[2])] = float(row[3])
    first = cells[layer_names[0]]
    nx = 1 + max(x for x, _ in first)
    ny = 1 + max(y for _, y in first)
    for name, layer in cells.items():
        _require(len(layer) == nx * ny and all((x, y) in layer for x in range(nx) for y in range(ny)),
                 f"{path}: layer {name} does not fill an {nx}x{ny} grid")
    return {name: [[layer[x, y] for x in range(nx)] for y in range(ny)]
            for name, layer in cells.items()}


def sink_heat_flow(top: list[list[float]], spec: dict, cell_mm: float) -> float:
    """Heat leaving through the cooled top cells, W.

    Each cooled cell couples to ambient through half the top layer in series
    with the convective coefficient; the sink is a square centred on the mesh
    and cools the cells whose centres it covers.
    """
    layers, h_top, sink_side = _stack(spec)
    ambient = spec["package"].get("ambient_c", 45.0)
    area = (cell_mm * MM) ** 2
    t_top, k_top = layers[-1]["thickness_mm"] * MM, layers[-1]["conductivity_w_mk"]
    conductance = 1.0 / (t_top / (2 * k_top * area) + 1.0 / (h_top * area))
    ny, nx = len(top), len(top[0])

    def cooled(i: int, n: int) -> bool:
        return sink_side is None or abs((i + 0.5) * cell_mm - n * cell_mm / 2) <= sink_side / 2

    return sum(conductance * (top[y][x] - ambient)
               for y in range(ny) if cooled(y, ny)
               for x in range(nx) if cooled(x, nx))


def check_field(path: Path, stdout: str, spec: dict, cell_mm: float) -> None:
    """Energy balance, no cell below ambient, hottest cell in the chiplet layer."""
    layers, _, _ = _stack(spec)
    names = [layer["name"] for layer in layers]
    field = read_field(path, names)
    ny, nx = len(field[names[0]]), len(field[names[0]][0])
    pkg = spec["package"]
    _require(nx * cell_mm >= pkg["interposer_width_mm"] - GEOMETRY_EPS_MM
             and ny * cell_mm >= pkg["interposer_height_mm"] - GEOMETRY_EPS_MM,
             f"{path}: {nx}x{ny} cells of {cell_mm} mm do not cover the interposer")

    power = total_power(spec)
    flow = sink_heat_flow(field[names[-1]], spec, cell_mm)
    _require(abs(flow - power) <= 1e-3 * power,
             f"{path}: {flow:.6g} W leave through the sink, {power:.6g} W are injected")

    ambient = pkg.get("ambient_c", 45.0)
    coldest = min(t for layer in field.values() for row in layer for t in row)
    _require(coldest >= ambient - 1e-4, f"{path}: cell at {coldest} C is below ambient {ambient} C")

    peaks = {name: max(max(row) for row in layer) for name, layer in field.items()}
    hottest_other = max(t for name, t in peaks.items() if name != "chiplet")
    _require(peaks["chiplet"] > hottest_other,
             f"{path}: hottest cell ({hottest_other} C) is outside the chiplet layer "
             f"({peaks['chiplet']} C)")
    for name, peak in peaks.items():
        printed = float(stdout_value(stdout, f"peak_{name}_c"))
        _require(printed == peak, f"stdout peak_{name}_c = {printed}, field maximum {peak}")


# ---------------------------------------------------------------------------
# anneal


def check_floorplan(path: Path, spec: dict) -> None:
    """Every spec chiplet placed once, footprint and power unchanged, in bounds, halo kept."""
    doc = json.loads(Path(path).read_text())
    pkg = spec["package"]
    width, height = doc["interposer"]["width_mm"], doc["interposer"]["height_mm"]
    _require((width, height) == (pkg["interposer_width_mm"], pkg["interposer_height_mm"]),
             f"{path}: interposer {width}x{height} differs from the spec")
    spacing = pkg.get("min_spacing_mm", 1.0)
    placed = doc["placements"]
    names = [p["name"] for p in placed]
    expected = {c["name"]: c for c in spec["chiplets"]}
    _require(sorted(names) == sorted(expected), f"{path}: placed {sorted(names)}")

    boxes = []
    for p in placed:
        c = expected[p["name"]]
        where = f"{path} placement {p['name']}"
        _require((p["width_mm"], p["height_mm"], p["power_w"])
                 == (c["width_mm"], c["height_mm"], c.get("power_w", 0.0)),
                 f"{where}: footprint or power changed")
        _require(p["rotation_deg"] in (0, 90, 180, 270), f"{where}: rotation {p['rotation_deg']}")
        w, h = p["width_mm"], p["height_mm"]
        if p["rotation_deg"] in (90, 270):
            w, h = h, w
        x0, y0 = p["x_mm"], p["y_mm"]
        margin = spacing / 2 - GEOMETRY_EPS_MM
        _require(x0 >= margin and y0 >= margin
                 and x0 + w <= width - margin and y0 + h <= height - margin,
                 f"{where}: outside the interposer or its edge margin")
        boxes.append((p["name"], x0, y0, x0 + w, y0 + h))
    gap = spacing - GEOMETRY_EPS_MM
    for i, (na, ax0, ay0, ax1, ay1) in enumerate(boxes):
        for nb, bx0, by0, bx1, by1 in boxes[i + 1:]:
            apart = (ax1 + gap <= bx0 or bx1 + gap <= ax0
                     or ay1 + gap <= by0 or by1 + gap <= ay0)
            _require(apart, f"{path}: {na} and {nb} overlap or break the {spacing} mm halo")


def peak_lower_bound(spec: dict, side_mm: float) -> float:
    """ambient + P / (h_eff * A_sink) with A_sink bounded from above.

    The cooled area is at most the sink square clipped to the interposer,
    grown by one cell of the coarsest annealing mesh on every side; h_eff is
    the top boundary's conductance per unit area.
    """
    layers, h_top, sink_side = _stack(spec)
    t_top, k_top = layers[-1]["thickness_mm"] * MM, layers[-1]["conductivity_w_mk"]
    h_eff = 1.0 / (t_top / (2 * k_top) + 1.0 / h_top)
    cell = max(spec["anneal"]["coarse_cell_mm"], spec["anneal"]["fine_cell_mm"])
    cooled_side = side_mm if sink_side is None else min(sink_side, side_mm)
    area = ((cooled_side + 2 * cell) * MM) ** 2
    return spec["package"].get("ambient_c", 45.0) + total_power(spec) / (h_eff * area)


def check_place(out: Path, stdout: str, spec: dict) -> None:
    """floorplan.json legal, history rows == printed iterations, peaks above the bound."""
    check_floorplan(out / "floorplan.json", spec)
    rows = _read_csv(out / "history.csv", ["iteration", "peak_t_c", "wirelength_mm", "cost", "k"])
    iterations = int(stdout_value(stdout, "iterations"))
    _require(len(rows) == iterations,
             f"{out}/history.csv: {len(rows)} rows, stdout says {iterations} iterations")
    _require([int(r[0]) for r in rows] == list(range(iterations)),
             f"{out}/history.csv: iterations are not numbered 0..{iterations - 1}")
    bound = peak_lower_bound(spec, spec["package"]["interposer_width_mm"])
    peaks = [float(r[1]) for r in rows]
    peaks += [float(stdout_value(stdout, k)) for k in ("initial_peak_t_c", "final_peak_t_c")]
    low = min(peaks)
    _require(low >= bound, f"{out}: reported peak {low} C is below the bound {bound:.6g} C")


def check_sweep(path: Path, spec: dict, sides: list[float]) -> None:
    """One feasible row per side, area = side^2, peak above the bound."""
    rows = _read_csv(path, ["side_mm", "area_mm2", "peak_t_c", "feasible"])
    _require(len(rows) == len(sides), f"{path}: {len(rows)} rows for {len(sides)} sides")
    for row, side in zip(rows, sides):
        where = f"{path} side {side:g}"
        close6(row[0], side, where)
        close6(row[1], side * side, f"{where} area")
        _require(row[3] == "true", f"{where}: infeasible")
        bound = peak_lower_bound(spec, side)
        _require(float(row[2]) >= bound, f"{where}: peak {row[2]} C is below the bound {bound:.6g} C")


def check_same_bytes(first: Path, second: Path) -> None:
    _require(Path(first).read_bytes() == Path(second).read_bytes(),
             f"{first} and {second} differ for the same seed")
