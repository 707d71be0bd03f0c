"""Shared domain types, spec-file ingestion, and validation.

All lengths are mm, power in W, temperature in degrees C unless a field
name says otherwise. Spec files are JSON documents with top-level keys
``package``, ``chiplets``, ``stack``, ``process``, ``phy``, ``anneal``,
``tiles`` and ``configs`` (schema documented in the repository README);
``load_bundle`` is the only code that reads them.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import sys
from dataclasses import MISSING, dataclass, field, fields, replace
from pathlib import Path
from typing import Any

import numpy as np

from .phy import PhyTargets, TraceGeometry

CHIPLET_KINDS = ("compute", "gpu", "memory", "io", "noc", "analog")
CHIPLET_LAYER = "chiplet"  # the stack layer that takes the floorplan's power

AMBIENT_MIN_C = -40.0  # automotive qualification range
AMBIENT_MAX_C = 125.0


class SpecError(ValueError):
    """Malformed or invalid specification document."""


class ParseError(SpecError):
    """Document is not structurally readable."""


class ValidationError(SpecError):
    """An invariant is violated; message names the offending field path."""


def _positive(obj: Any, *names: str) -> None:
    """Range check of dataclass fields: ``"<field>: must be > 0"``; NaN fails."""
    for name in names:
        if not getattr(obj, name) > 0:
            raise ValidationError(f"{name}: must be > 0")


def _non_negative(obj: Any, *names: str) -> None:
    for name in names:
        if not getattr(obj, name) >= 0:
            raise ValidationError(f"{name}: must be >= 0")


@dataclass(frozen=True)
class ChipletSpec:
    """One die: footprint, dissipated power, and logical connectivity."""

    name: str
    width: float
    height: float
    power: float = 0.0
    kind: str = "compute"
    ports: tuple[tuple[str, float], ...] = ()  # (peer, weight)

    def __post_init__(self) -> None:
        _positive(self, "width", "height")
        _non_negative(self, "power")
        if self.kind not in CHIPLET_KINDS:
            raise ValidationError(f"kind: must be one of {CHIPLET_KINDS}")
        for k, (_, weight) in enumerate(self.ports):
            if not weight >= 1:
                raise ValidationError(f"ports[{k}].weight: must be >= 1")

    @property
    def area(self) -> float:
        return self.width * self.height


@dataclass(frozen=True)
class LayerSpec:
    name: str
    thickness_mm: float
    conductivity: float  # W/(m K)

    def __post_init__(self) -> None:
        _positive(self, "thickness_mm", "conductivity")


@dataclass(frozen=True)
class ThermalStack:
    """Ordered 2.5D package layers, bottom (substrate) to top (heatsink).

    ``sink_side_mm`` limits the convective top boundary to a centered square
    footprint of that positive side (a fixed-size heat sink / cold plate);
    None means the whole top face is cooled.
    """

    layers: tuple[LayerSpec, ...]
    h_top: float = 1000.0  # W/(m^2 K), convective top boundary
    ambient: float = 45.0  # degrees C
    sink_side_mm: float | None = None

    def __post_init__(self) -> None:
        if len(self.layers) < 2:
            raise ValidationError("layers: at least 2 layers required")
        if CHIPLET_LAYER not in self.layer_names:
            raise ValidationError(f"layers: no layer named {CHIPLET_LAYER!r}")
        _positive(self, "h_top")
        if self.sink_side_mm is not None:
            _positive(self, "sink_side_mm")

    @property
    def layer_names(self) -> tuple[str, ...]:
        return tuple(layer.name for layer in self.layers)

    def layer_index(self, name: str) -> int:
        try:
            return self.layer_names.index(name)
        except ValueError:
            raise KeyError(f"unknown layer {name!r}; have {self.layer_names}") from None


#: Default 2.5D sandwich. Conductivities are standard material values and
#: the bump layers are homogenized. All overridable in the spec file.
DEFAULT_STACK_LAYERS = (
    LayerSpec("substrate", 1.0, 0.3),
    LayerSpec("c4", 0.1, 2.0),
    LayerSpec("interposer", 0.1, 130.0),
    LayerSpec("microbumps", 0.05, 2.0),
    LayerSpec("chiplet", 0.5, 130.0),
    LayerSpec("tim", 0.1, 5.0),
    LayerSpec("spreader", 0.3, 400.0),
    LayerSpec("sink", 0.6, 400.0),
)


def default_stack(ambient: float = 45.0, h_top: float = 1000.0) -> ThermalStack:
    return ThermalStack(DEFAULT_STACK_LAYERS, h_top=h_top, ambient=ambient)


@dataclass(frozen=True)
class ProcessCostParams:
    """Wafer economics inputs for the negative-binomial yield model, plus the
    package's inter-die connection count that the cost report prices."""

    wafer_cost: float = 10000.0
    wafer_diameter: float = 300.0  # mm
    d0: float = 0.002  # defects per mm^2
    alpha_yield: float = 3.0
    assembly_die_survival: float = 0.999
    assembly_conn_survival: float = 0.999999
    n_connections: int = 20000

    def __post_init__(self) -> None:
        _positive(self, "wafer_cost", "wafer_diameter", "alpha_yield")
        _non_negative(self, "d0", "n_connections")
        for name in ("assembly_die_survival", "assembly_conn_survival"):
            if not 0 < getattr(self, name) <= 1:
                raise ValidationError(f"{name}: must be in (0, 1]")


@dataclass(frozen=True)
class ServiceSpec:
    """Inputs of the analytic latency/throughput model."""

    word_bits: float
    service_bandwidth: float  # bits/s
    base_latency: float = 0.0  # s
    clock: float = 2e9  # Hz
    channels: int = 1
    bits_per_channel_per_cycle: float = 1.0

    def __post_init__(self) -> None:
        _positive(self, "service_bandwidth", "clock")
        _non_negative(self, "word_bits", "base_latency", "channels")


@dataclass(frozen=True)
class PowerParams:
    """CMOS power model inputs (switching, short-circuit, leakage)."""

    activity: float = 0.1
    load_capacitance: float = 1e-9  # F
    frequency: float = 2e9  # Hz
    voltage: float = 1.0  # V
    gain_factor: float = 1e-4  # A/V^2
    transition_time: float = 50e-12  # s
    threshold: float = 0.3  # V
    leakage_current: float = 1e-10  # A per transistor
    transistor_density: float = 1e8  # transistors/mm^2
    area: float = 100.0  # mm^2

    def __post_init__(self) -> None:
        _non_negative(self, *(f.name for f in fields(self)))
        if not self.activity <= 1:
            raise ValidationError("activity: must be in [0, 1]")


@dataclass(frozen=True)
class TileOperatingPoint:
    """A tile's DVFS operating point: its own (F, V) over shared params."""

    name: str
    frequency: float  # Hz
    voltage: float  # V
    params: PowerParams

    def __post_init__(self) -> None:
        _positive(self, "frequency")
        _non_negative(self, "voltage")

    def effective_params(self) -> PowerParams:
        return replace(self.params, frequency=self.frequency, voltage=self.voltage)


@dataclass(frozen=True)
class AnnealConfig:
    """Simulated-annealing schedule and thermal grids of the placer."""

    k0: float = 0.1
    decay: float = 0.97
    tol: float = 0.1  # degrees C
    max_iterations: int = 500
    moves_per_iteration: int = 10
    seed: int = 0
    coarse_cell_mm: float = 2.0  # per-move thermal evaluation grid
    fine_cell_mm: float = 1.0  # final solve on the returned plan

    def __post_init__(self) -> None:
        _positive(self, "k0", "tol", "coarse_cell_mm", "fine_cell_mm", "max_iterations",
                  "moves_per_iteration")
        _non_negative(self, "seed")
        if not 0 < self.decay < 1:
            raise ValidationError("decay: must be in (0, 1)")


@dataclass(frozen=True)
class PackageSpec:
    """A validated package: chiplets + interposer + thermal stack.

    The package is qualified for automotive use, so the ambient of its stack
    must lie in [AMBIENT_MIN_C, AMBIENT_MAX_C].
    """

    name: str
    chiplets: tuple[ChipletSpec, ...]
    interposer_width: float
    interposer_height: float
    min_spacing: float = 1.0
    stack: ThermalStack = field(default_factory=default_stack)

    def __post_init__(self) -> None:
        _positive(self, "interposer_width", "interposer_height")
        _non_negative(self, "min_spacing")
        if not AMBIENT_MIN_C <= self.stack.ambient <= AMBIENT_MAX_C:
            raise ValidationError(f"ambient: must be within [{AMBIENT_MIN_C}, {AMBIENT_MAX_C}] "
                                  "(automotive range)")

    @property
    def chiplet_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.chiplets)

    def with_interposer(self, width: float, height: float) -> "PackageSpec":
        spec = replace(self, interposer_width=width, interposer_height=height)
        _check_footprint_budget(spec)
        return spec


# ---------------------------------------------------------------------------
# Floorplans (shared between the thermal solver and the placer)


@dataclass(frozen=True)
class PlacedChiplet:
    """A chiplet instance placed on the interposer.

    (x, y) is the lower-left corner of the *effective* (rotated) footprint;
    width/height are the unrotated footprint.
    """

    name: str
    x: float
    y: float
    rotation: int  # degrees: 0 / 90 / 180 / 270
    width: float
    height: float
    power: float = 0.0

    def __post_init__(self) -> None:
        # O(1): the annealer builds one of these per proposed move
        if self.rotation not in (0, 90, 180, 270):
            raise ValidationError("rotation: must be 0, 90, 180 or 270")
        _positive(self, "width", "height")
        _non_negative(self, "power")

    @property
    def eff_width(self) -> float:
        return self.height if self.rotation in (90, 270) else self.width

    @property
    def eff_height(self) -> float:
        return self.width if self.rotation in (90, 270) else self.height

    @property
    def center(self) -> tuple[float, float]:
        return (self.x + self.eff_width / 2.0, self.y + self.eff_height / 2.0)


@dataclass(frozen=True)
class Floorplan:
    """Placements on an interposer plus the inter-chiplet connectivity."""

    width: float
    height: float
    placements: tuple[PlacedChiplet, ...]
    links: tuple[tuple[str, str, float], ...] = ()  # (a, b, weight), a < b
    min_spacing: float = 0.0

    def __post_init__(self) -> None:
        # O(1), as the annealer builds one per move; placement legality is validate()'s job
        _positive(self, "width", "height")
        _non_negative(self, "min_spacing")

    @property
    def total_power(self) -> float:
        return sum(p.power for p in self.placements)

    def is_valid(self) -> bool:
        try:
            self.validate()
        except ValidationError:
            return False
        return True

    def validate(self) -> None:
        """Raise unless all placements are in bounds and non-overlapping.

        Bounds require min_spacing/2 margin to the interposer edge; pairs
        require min_spacing separation (the spacing halo).
        """
        margin = self.min_spacing / 2.0
        eps = 1e-9
        for p in self.placements:
            if (p.x < margin - eps or p.y < margin - eps
                    or p.x + p.eff_width > self.width - margin + eps
                    or p.y + p.eff_height > self.height - margin + eps):
                raise ValidationError(f"placement {p.name}: outside interposer bounds")
        s = self.min_spacing
        for i, a in enumerate(self.placements):
            for b in self.placements[i + 1:]:
                if (a.x < b.x + b.eff_width + s - eps
                        and b.x < a.x + a.eff_width + s - eps
                        and a.y < b.y + b.eff_height + s - eps
                        and b.y < a.y + a.eff_height + s - eps):
                    raise ValidationError(f"placements {a.name} and {b.name} overlap or violate spacing")
        seen: set[str] = set()
        for p in self.placements:
            if p.name in seen:
                raise ValidationError(f"placement {p.name}: duplicate chiplet")
            seen.add(p.name)


def floorplan_to_document(fp: Floorplan) -> dict:
    """Standalone JSON form of a floorplan (footprints and links included)."""
    return {
        "interposer": {"width_mm": fp.width, "height_mm": fp.height,
                       "min_spacing_mm": fp.min_spacing},
        "placements": [
            {"name": p.name, "x_mm": p.x, "y_mm": p.y, "rotation_deg": p.rotation,
             "width_mm": p.width, "height_mm": p.height, "power_w": p.power}
            for p in fp.placements
        ],
        "links": [{"a": a, "b": b, "weight": w} for a, b, w in fp.links],
    }


def floorplan_from_document(document: dict | str | Path) -> Floorplan:
    doc = read_document(document)
    placements = tuple(
        _section(PlacedChiplet, pd, f"placements[{i}]", _PLACED_KEYS,
                 name=_name(pd, f"placements[{i}]", f"chiplet{i}"),
                 rotation=_num(pd, "rotation_deg", f"placements[{i}]", 0.0))
        for i, pd in enumerate(_list(doc, "placements")))
    names = [p.name for p in placements]
    links = []
    for i, ld in enumerate(_list(doc, "links")):
        path = f"links[{i}]"
        if not isinstance(ld, dict):
            raise ValidationError(f"{path}: expected an object")
        for end in ("a", "b"):
            _require(ld.get(end) in names, f"{path}.{end}", f"unknown placement {ld.get(end)!r}")
        weight = _num(ld, "weight", path, 1.0)
        _require(weight > 0, f"{path}.weight", "must be > 0")
        links.append((ld["a"], ld["b"], weight))
    fp = _section(Floorplan, doc.get("interposer"), "interposer", _INTERPOSER_KEYS,
                  placements=placements, links=tuple(links))
    fp.validate()
    return fp


def links_from_spec(spec: PackageSpec) -> tuple[tuple[str, str, float], ...]:
    """Undirected (a, b, weight) link list from the symmetrized matrix."""
    names = spec.chiplet_names
    mat = validate_connectivity(spec)
    out = []
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            if mat[i, j] > 0:
                out.append((names[i], names[j], float(mat[i, j])))
    return tuple(out)


# ---------------------------------------------------------------------------
# Loading / validation


def _require(cond: bool, path: str, msg: str) -> None:
    if not cond:
        raise ValidationError(f"{path}: {msg}")


def _num(doc: dict, key: str, path: str, default: float | None = None) -> float:
    if key not in doc:
        if default is None:
            raise ValidationError(f"{path}.{key}: missing required field")
        return default
    v = doc[key]
    # json accepts NaN and +-Infinity; an integer beyond float range is not finite either
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not abs(v) <= sys.float_info.max:
        raise ValidationError(f"{path}.{key}: expected a finite number, got {v!r}")
    return float(v)


def _name(doc: Any, path: str, default: str | None = None) -> str:
    """The non-empty ``name`` of the object ``doc``."""
    if not isinstance(doc, dict):
        raise ValidationError(f"{path}: expected an object")
    name = doc.get("name", default)
    _require(isinstance(name, str) and bool(name), f"{path}.name", "missing or empty")
    return name


def _list(doc: dict, key: str, path: str = "") -> list:
    value = doc.get(key, [])
    if not isinstance(value, list):
        raise ValidationError(f"{path}.{key}: expected a list" if path else f"{key}: expected a list")
    return value


def _unique(names: list[str], path: str) -> None:
    dup = next((n for i, n in enumerate(names) if n in names[:i]), None)
    _require(dup is None, path, f"duplicate name {dup!r}")


def _section(cls, doc: Any, path: str, keys: dict[str, str],
             scale: dict[str, float] | None = None, **given):
    """Build dataclass ``cls`` from the spec object ``doc``.

    Each field not in ``given`` reads spec key ``keys.get(field, field)``,
    multiplied by ``scale[key]`` where the spec unit differs; a field whose
    default is an int reads an integer. An absent key takes the field's
    default, or is a missing-field error if it has none. A range error that
    ``cls`` raises as ``"<field>: <reason>"`` is re-raised as
    ``ValidationError("<path>.<key>: <reason>")``.
    """
    if not isinstance(doc, dict):
        raise ValidationError(f"{path}: expected an object")
    kwargs = dict(given)
    for f in fields(cls):
        key = keys.get(f.name, f.name)
        if f.name in given or (key not in doc and f.default is not MISSING):
            continue
        value = _num(doc, key, path) * (scale or {}).get(key, 1.0)
        if isinstance(f.default, int):  # int() of the JSON value keeps a large seed exact
            _require(value.is_integer(), f"{path}.{key}", f"expected an integer, got {doc[key]!r}")
            value = int(doc[key])
        kwargs[f.name] = value
    try:
        return cls(**kwargs)
    except ValueError as exc:
        name, _, reason = str(exc).partition(": ")
        raise ValidationError(f"{path}.{keys.get(name, name)}: {reason}") from None


def _port(doc: Any, path: str) -> tuple[str, float]:
    if not isinstance(doc, dict):
        raise ValidationError(f"{path}: expected an object")
    peer = doc.get("peer")
    _require(isinstance(peer, str) and bool(peer), f"{path}.peer", "missing or empty")
    return peer, _num(doc, "weight", path, 1.0)


def _chiplet(doc: Any, path: str) -> ChipletSpec:
    return _section(ChipletSpec, doc, path, _CHIPLET_KEYS, name=_name(doc, path),
                    kind=doc.get("kind", "compute"),
                    ports=tuple(_port(pd, f"{path}.ports[{k}]")
                                for k, pd in enumerate(_list(doc, "ports", path))))


def _stack(doc: Any, ambient: float) -> ThermalStack:
    """The ``stack`` section; its layers default to DEFAULT_STACK_LAYERS."""
    if not isinstance(doc, dict):
        raise ValidationError("stack: expected an object")
    layers = DEFAULT_STACK_LAYERS if "layers" not in doc else tuple(
        _section(LayerSpec, ld, f"stack.layers[{i}]", _LAYER_KEYS,
                 name=_name(ld, f"stack.layers[{i}]"))
        for i, ld in enumerate(_list(doc, "layers", "stack")))
    return _section(ThermalStack, doc, "stack", _STACK_KEYS, layers=layers, ambient=ambient)


def _check_footprint_budget(spec: PackageSpec) -> None:
    s = spec.min_spacing
    budget = sum((c.width + s) * (c.height + s) for c in spec.chiplets)
    avail = spec.interposer_width * spec.interposer_height
    _require(
        budget <= avail,
        "package",
        f"chiplet footprints with spacing halo ({budget:.1f} mm^2) exceed "
        f"interposer area ({avail:.1f} mm^2)",
    )


def load_spec(document: dict | str | Path) -> PackageSpec:
    """Parse and validate a package spec document: a parsed dict or a path."""
    doc = read_document(document)
    pkg = doc.get("package")
    name = _name(pkg, "package", "package")
    chiplets_doc = doc.get("chiplets")
    if not isinstance(chiplets_doc, list) or not chiplets_doc:
        raise ValidationError("chiplets: must be a non-empty list")
    chiplets = tuple(_chiplet(cd, f"chiplets[{i}]") for i, cd in enumerate(chiplets_doc))

    names = [c.name for c in chiplets]
    _unique(names, "chiplets")
    for i, c in enumerate(chiplets):
        for k, (peer, _) in enumerate(c.ports):
            _require(peer in names, f"chiplets[{i}].ports[{k}].peer",
                     f"unresolved peer {peer!r}")
            _require(peer != c.name, f"chiplets[{i}].ports[{k}].peer",
                     "chiplet cannot link to itself")

    stack = _stack(doc.get("stack", {}), _num(pkg, "ambient_c", "package", 45.0))
    spec = _section(PackageSpec, pkg, "package", _PACKAGE_KEYS, name=name, chiplets=chiplets,
                    stack=stack)
    _check_footprint_budget(spec)
    # Symmetrize connectivity now so invariants hold on the returned spec;
    # raises on conflicting weights.
    mat = validate_connectivity(spec)
    by_name = sorted(range(len(names)), key=lambda j: names[j])
    return replace(spec, chiplets=tuple(
        replace(c, ports=tuple((names[j], float(mat[i, j])) for j in by_name if mat[i, j] > 0))
        for i, c in enumerate(chiplets)))


def read_document(document: dict | str | Path) -> dict:
    """The JSON object in a parsed dict, or in the file at a path."""
    if isinstance(document, dict):
        return document
    path = Path(document)
    if not path.exists():
        raise ParseError(f"file not found: {path}")
    try:
        doc = json.loads(path.read_text())
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: unreadable ({exc})") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: malformed JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top-level JSON value must be an object")
    return doc


def validate_connectivity(spec: PackageSpec) -> np.ndarray:
    """Symmetric n x n connection-weight matrix with zero diagonal.

    A link declared on either endpoint is propagated to both; conflicting
    nonzero weights are an error.
    """
    names = list(spec.chiplet_names)
    index = {n: i for i, n in enumerate(names)}
    n = len(names)
    mat = np.zeros((n, n))
    for c in spec.chiplets:
        for peer, weight in c.ports:
            i, j = index[c.name], index[peer]
            if mat[i, j] == 0:
                mat[i, j] = mat[j, i] = weight
            elif not math.isclose(mat[i, j], weight, rel_tol=1e-12):
                raise ValidationError(
                    f"chiplets: conflicting connection weights between "
                    f"{names[min(i, j)]!r} and {names[max(i, j)]!r}: "
                    f"{mat[i, j]} vs {weight}")
    np.fill_diagonal(mat, 0.0)
    return mat


# ---------------------------------------------------------------------------
# Full spec-file bundle (CLI entry): package plus the optional sections
# driving the other subcommands.

# spec key of each dataclass field whose name differs from it
_PACKAGE_KEYS = {"interposer_width": "interposer_width_mm",
                 "interposer_height": "interposer_height_mm",
                 "min_spacing": "min_spacing_mm",
                 "ambient": "ambient_c"}  # a PackageSpec check on its stack's ambient
_CHIPLET_KEYS = {"width": "width_mm", "height": "height_mm", "power": "power_w"}
_STACK_KEYS = {"h_top": "h_top_w_m2k"}
_LAYER_KEYS = {"conductivity": "conductivity_w_mk"}
_PLACED_KEYS = {**_CHIPLET_KEYS, "x": "x_mm", "y": "y_mm", "rotation": "rotation_deg"}
_INTERPOSER_KEYS = {"width": "width_mm", "height": "height_mm", "min_spacing": "min_spacing_mm"}
_PROCESS_KEYS = {"wafer_diameter": "wafer_diameter_mm", "d0": "d0_per_mm2"}
_ANNEAL_KEYS = {"tol": "tol_c"}
_TRACE_KEYS = {"trace_width": "trace_width_um", "trace_thickness": "trace_thickness_um",
               "ground_thickness": "ground_thickness_um",
               "interposer_height": "interposer_height_um", "conductivity": "conductivity_s_m"}
_MICROMETRES = dict.fromkeys(
    ("trace_width_um", "trace_thickness_um", "ground_thickness_um", "interposer_height_um"), 1e-6)
_TARGET_KEYS = {"clock_frequency": "clock_frequency_hz"}
_TILE_KEYS = {  # PowerParams and TileOperatingPoint; both take the tile's F and V
    "frequency": "frequency_hz",
    "voltage": "voltage_v",
    "load_capacitance": "load_capacitance_f",
    "gain_factor": "gain_factor_a_v2",
    "transition_time": "transition_time_s",
    "threshold": "threshold_v",
    "leakage_current": "leakage_current_a",
    "transistor_density": "transistor_density_mm2",
    "area": "area_mm2",
}
_CONFIG_COLUMNS = ("cost", "throughput", "latency")

#: One configuration to rank: (name, cost, throughput, latency).
ConfigRow = tuple[str, float, float, float]


@dataclass(frozen=True)
class SpecBundle:
    """A whole spec file, every section parsed, defaulted and validated."""

    package: PackageSpec
    process: ProcessCostParams
    anneal: AnnealConfig
    geometry: TraceGeometry
    targets: PhyTargets
    tiles: tuple[TileOperatingPoint, ...]
    configs: tuple[ConfigRow, ...]


def _tile(doc: Any, path: str) -> TileOperatingPoint:
    return _section(TileOperatingPoint, doc, path, _TILE_KEYS, name=_name(doc, path),
                    params=_section(PowerParams, doc, path, _TILE_KEYS))


def _config_row(doc: Any, path: str) -> ConfigRow:
    name = _name(doc, path)
    values = tuple(_num(doc, key, path) for key in _CONFIG_COLUMNS)
    for key, value in zip(_CONFIG_COLUMNS, values):
        _require(value > 0, f"{path}.{key}", "must be > 0")
    return (name, *values)


def _config_rows(docs: list, path: str) -> tuple[ConfigRow, ...]:
    rows = tuple(_config_row(doc, f"{path}[{i}]") for i, doc in enumerate(docs))
    _unique([r[0] for r in rows], path)
    return rows


def load_configs_csv(path: Path) -> tuple[ConfigRow, ...]:
    """Rows of a CSV with name,cost,throughput,latency columns, checked like
    the spec's ``configs`` (field paths read ``<file>[<row>].<column>``)."""
    try:
        with path.open(newline="") as fh:
            rows = list(csv.DictReader(fh))
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise ParseError(f"{path}: unreadable ({exc})") from None
    for row in rows:
        for key in _CONFIG_COLUMNS:
            with contextlib.suppress(TypeError, ValueError):  # else rejected with its path
                row[key] = float(row.get(key))
    return _config_rows(rows, str(path))


def load_bundle(document: dict | str | Path) -> SpecBundle:
    """Parse a whole spec: the package plus every optional section.

    An absent section or key takes the default of the dataclass it fills;
    every invalid value raises ValidationError("<field path>: <reason>").
    """
    doc = read_document(document)
    package = load_spec(doc)
    phy = doc.get("phy", {})
    tiles = tuple(_tile(td, f"tiles[{i}]") for i, td in enumerate(_list(doc, "tiles")))
    _unique([t.name for t in tiles], "tiles")
    return SpecBundle(
        package=package,
        process=_section(ProcessCostParams, doc.get("process", {}), "process", _PROCESS_KEYS),
        anneal=_section(AnnealConfig, doc.get("anneal", {}), "anneal", _ANNEAL_KEYS),
        geometry=_section(TraceGeometry, phy, "phy", _TRACE_KEYS, _MICROMETRES),
        targets=_section(PhyTargets, phy, "phy", _TARGET_KEYS),
        tiles=tiles,
        configs=_config_rows(_list(doc, "configs"), "configs"),
    )
