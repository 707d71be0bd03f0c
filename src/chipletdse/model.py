"""Shared domain types, spec-file ingestion, and validation.

Spec files are JSON documents with top-level keys ``package``,
``chiplets``, ``stack``, ``process``, ``phy``, ``anneal``, ``tiles`` and
``configs`` (schema documented in the repository README); ``load_bundle`` is
the only code that reads them. Each spec key is the name of the dataclass
field that holds it, and a unit-bearing key ends in its unit (``width_mm``,
``power_w``, ``frequency_hz``), so a range error names the same field from a
constructor as from a spec: ``"<field>: <reason>"``, prefixed by the
section's path. Derived values are in mm, W and degrees C.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import sys
from collections.abc import Collection
from dataclasses import MISSING, asdict, dataclass, fields
from pathlib import Path
from typing import Any

CHIPLET_KINDS = ("compute", "gpu", "memory", "io", "noc", "analog")
CHIPLET_LAYER = "chiplet"  # the stack layer that takes the floorplan's power

AMBIENT_MIN_C = -40.0  # automotive qualification range
AMBIENT_MAX_C = 125.0


class ChipletdseError(Exception):
    """Root of the errors the package raises for bad input or an infeasible
    model; the CLI reports any of them as ``error: <message>``."""


class SpecError(ChipletdseError, ValueError):
    """Malformed or invalid specification document."""


class ParseError(SpecError):
    """Document is not structurally readable."""


class ValidationError(SpecError):
    """An invariant is violated; message names the offending field path."""


def _positive(obj: Any, *names: str) -> None:
    """Range check of dataclass fields: ``"<field>: must be > 0 and finite"``;
    NaN and infinity fail, whether a spec, a flag or a constructor gave them."""
    for name in names:
        if not 0 < getattr(obj, name) < math.inf:
            raise ValidationError(f"{name}: must be > 0 and finite")


def _non_negative(obj: Any, *names: str) -> None:
    """``_positive``'s rule with 0 allowed: ``"<field>: must be >= 0 and finite"``."""
    for name in names:
        if not 0 <= getattr(obj, name) < math.inf:
            raise ValidationError(f"{name}: must be >= 0 and finite")


def _require(cond: bool, path: str, msg: str) -> None:
    if not cond:
        raise ValidationError(f"{path}: {msg}")


def require_unique(names: list[str], path: str) -> None:
    """Raise ``ValidationError("<path>[<i>].name: duplicate name '<name>'")``
    at the first index i whose name repeats an earlier one."""
    seen: set[str] = set()
    for i, name in enumerate(names):
        _require(name not in seen, f"{path}[{i}].name", f"duplicate name {name!r}")
        seen.add(name)


@dataclass(frozen=True)
class ChipletSpec:
    """One die: footprint, dissipated power, and logical connectivity."""

    name: str
    width_mm: float
    height_mm: float
    power_w: float = 0.0
    kind: str = "compute"
    ports: tuple[tuple[str, float], ...] = ()  # (peer, weight)

    def __post_init__(self) -> None:
        _positive(self, "width_mm", "height_mm")
        _non_negative(self, "power_w")
        if self.kind not in CHIPLET_KINDS:
            raise ValidationError(f"kind: must be one of {CHIPLET_KINDS}")
        for k, (_, weight) in enumerate(self.ports):
            if not weight >= 1:
                raise ValidationError(f"ports[{k}].weight: must be >= 1")

    @property
    def area(self) -> float:
        return self.width_mm * self.height_mm


@dataclass(frozen=True)
class LayerSpec:
    name: str
    thickness_mm: float
    conductivity_w_mk: float

    def __post_init__(self) -> None:
        _positive(self, "thickness_mm", "conductivity_w_mk")


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


@dataclass(frozen=True)
class ThermalStack:
    """Ordered 2.5D package layers, bottom (substrate) to top (heatsink).

    ``sink_side_mm`` limits the convective top boundary to a centered square
    footprint of that positive side (a fixed-size heat sink / cold plate);
    None means the whole top face is cooled.
    """

    layers: tuple[LayerSpec, ...] = DEFAULT_STACK_LAYERS
    h_top_w_m2k: float = 1000.0  # convective top boundary
    ambient_c: float = 45.0
    sink_side_mm: float | None = None

    def __post_init__(self) -> None:
        if len(self.layers) < 2:
            raise ValidationError("layers: at least 2 layers required")
        if CHIPLET_LAYER not in self.layer_names:
            raise ValidationError(f"layers: no layer named {CHIPLET_LAYER!r}")
        require_unique(list(self.layer_names), "layers")
        _positive(self, "h_top_w_m2k")
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


@dataclass(frozen=True)
class ProcessCostParams:
    """Wafer economics inputs for the negative-binomial yield model, plus the
    package's inter-die connection count that the cost report prices."""

    wafer_cost: float = 10000.0
    wafer_diameter_mm: float = 300.0
    d0_per_mm2: float = 0.002  # defect density
    alpha_yield: float = 3.0
    assembly_die_survival: float = 0.999
    assembly_conn_survival: float = 0.999999
    n_connections: int = 20000

    def __post_init__(self) -> None:
        _positive(self, "wafer_cost", "wafer_diameter_mm", "alpha_yield")
        _non_negative(self, "d0_per_mm2", "n_connections")
        for name in ("assembly_die_survival", "assembly_conn_survival"):
            if not 0 < getattr(self, name) <= 1:
                raise ValidationError(f"{name}: must be in (0, 1]")


@dataclass(frozen=True)
class ServiceSpec:
    """Inputs of the analytic latency model."""

    word_bits: float
    service_bandwidth: float  # bits/s
    base_latency: float = 0.0  # s

    def __post_init__(self) -> None:
        _positive(self, "service_bandwidth")
        _non_negative(self, "word_bits", "base_latency")


@dataclass(frozen=True)
class ConfigSpec:
    """One configuration for the golden-ratio ranking."""

    name: str
    cost: float
    throughput: float
    latency: float

    def __post_init__(self) -> None:
        _positive(self, "cost", "throughput", "latency")


@dataclass(frozen=True)
class PowerParams:
    """CMOS power model inputs (switching, short-circuit, leakage)."""

    activity: float = 0.1
    load_capacitance_f: float = 1e-9
    frequency_hz: float = 2e9
    voltage_v: float = 1.0
    gain_factor_a_v2: float = 1e-4
    transition_time_s: float = 50e-12
    threshold_v: float = 0.3
    leakage_current_a: float = 1e-10  # per transistor
    transistor_density_mm2: float = 1e8  # transistors per mm^2
    area_mm2: float = 100.0

    def __post_init__(self) -> None:
        _positive(self, "frequency_hz")
        _non_negative(self, *(f.name for f in fields(self)))
        if not self.activity <= 1:
            raise ValidationError("activity: must be in [0, 1]")


@dataclass(frozen=True)
class PhySpec:
    """The ``phy`` section: a copper stripline on a Si/SiO2 interposer
    (lengths in micrometres) and the clock whose bandwidth it must carry."""

    trace_width_um: float = 50.0
    trace_thickness_um: float = 20.0
    ground_thickness_um: float = 50.0
    interposer_height_um: float = 100.0
    relative_permittivity: float = 11.68
    conductivity_s_m: float = 5.98e7
    clock_frequency_hz: float = 2e9
    safety_factor: float = 1.5

    def __post_init__(self) -> None:
        _positive(self, "trace_width_um", "trace_thickness_um", "ground_thickness_um",
                  "interposer_height_um", "conductivity_s_m")
        if not 1 <= self.relative_permittivity < math.inf:
            raise ValidationError("relative_permittivity: must be >= 1 and finite")
        _positive(self, "clock_frequency_hz", "safety_factor")

    @property
    def target_bandwidth(self) -> float:
        return self.safety_factor * self.clock_frequency_hz


@dataclass(frozen=True)
class AnnealConfig:
    """Simulated-annealing schedule and thermal grids of the placer."""

    k0: float = 0.1
    decay: float = 0.97
    tol_c: float = 0.1
    max_iterations: int = 500
    moves_per_iteration: int = 10
    seed: int = 0
    coarse_cell_mm: float = 2.0  # per-move thermal evaluation grid
    fine_cell_mm: float = 1.0  # final solve on the returned plan

    def __post_init__(self) -> None:
        _positive(self, "k0", "tol_c", "coarse_cell_mm", "fine_cell_mm", "max_iterations",
                  "moves_per_iteration")
        _non_negative(self, "seed")
        if not 0 < self.decay < 1:
            raise ValidationError("decay: must be in (0, 1)")


@dataclass(frozen=True)
class PackageSpec:
    """A validated package: chiplets + interposer + thermal stack.

    The package is qualified for automotive use, so the ambient of its stack
    must lie in [AMBIENT_MIN_C, AMBIENT_MAX_C]. The chiplets' footprints,
    each grown by ``min_spacing_mm``, must not exceed the interposer area.
    """

    name: str
    chiplets: tuple[ChipletSpec, ...]
    interposer_width_mm: float
    interposer_height_mm: float
    min_spacing_mm: float = 1.0
    stack: ThermalStack = ThermalStack()

    def __post_init__(self) -> None:
        _positive(self, "interposer_width_mm", "interposer_height_mm")
        _non_negative(self, "min_spacing_mm")
        if not AMBIENT_MIN_C <= self.stack.ambient_c <= AMBIENT_MAX_C:
            raise ValidationError(f"ambient_c: must be within [{AMBIENT_MIN_C}, {AMBIENT_MAX_C}] "
                                  "(automotive range)")
        s = self.min_spacing_mm
        budget = sum((c.width_mm + s) * (c.height_mm + s) for c in self.chiplets)
        area = self.interposer_width_mm * self.interposer_height_mm
        if budget > area:
            raise ValidationError(f"interposer_width_mm: chiplet footprints with spacing halo "
                                  f"({budget:.1f} mm^2) exceed interposer area ({area:.1f} mm^2)")


# ---------------------------------------------------------------------------
# Floorplans (shared between the thermal solver and the placer)


Box = tuple[float, float, float, float]  # (x0, y0, x1, y1), mm
_PLACEMENT_EPS_MM = 1e-9  # slack of every bounds and spacing test


def footprint(x_mm: float, y_mm: float, width_mm: float, height_mm: float,
              rotation_deg: int) -> tuple[float, float, Box]:
    """Effective width, height and box of a width_mm x height_mm chiplet turned
    by rotation_deg, a quarter turn swapping the sides, with the lower-left
    corner of its turned footprint at (x_mm, y_mm).

    The far edges are the anchor plus the effective sides, so the box a move is
    checked on equals, bit for bit, the box of the row built from that move.
    """
    if rotation_deg in (90, 270):
        width_mm, height_mm = height_mm, width_mm
    return width_mm, height_mm, (x_mm, y_mm, x_mm + width_mm, y_mm + height_mm)


@dataclass(frozen=True)
class PlacedChiplet:
    """A chiplet instance placed on the interposer.

    (x_mm, y_mm) is the lower-left corner of the *effective* (rotated)
    footprint; width_mm/height_mm are the unrotated footprint. ``eff_width``,
    ``eff_height``, ``box`` (the effective footprint) and ``center`` are derived
    once, at construction, and are not fields: ``asdict`` and equality see the
    seven fields alone.
    """

    name: str
    x_mm: float
    y_mm: float
    rotation_deg: int  # 0 / 90 / 180 / 270
    width_mm: float
    height_mm: float
    power_w: float = 0.0

    def __post_init__(self) -> None:
        # O(1): the annealer builds one of these per accepted proposal
        # type() is int: 90.0 would reach reports as "90.0", and False == 0
        if type(self.rotation_deg) is not int or self.rotation_deg not in (0, 90, 180, 270):
            raise ValidationError("rotation_deg: must be 0, 90, 180 or 270")
        _positive(self, "width_mm", "height_mm")
        _non_negative(self, "power_w")
        w, h, box = footprint(self.x_mm, self.y_mm, self.width_mm, self.height_mm,
                              self.rotation_deg)
        # plain attributes, read on every move: a property or cached_property costs more
        object.__setattr__(self, "eff_width", w)
        object.__setattr__(self, "eff_height", h)
        object.__setattr__(self, "box", box)
        object.__setattr__(self, "center", (self.x_mm + w / 2.0, self.y_mm + h / 2.0))


@dataclass(frozen=True)
class Floorplan:
    """Placements on an interposer plus the inter-chiplet connectivity."""

    width_mm: float
    height_mm: float
    placements: tuple[PlacedChiplet, ...]
    # (a, b, weight): a declared before b from links_from_spec; as written from a document
    links: tuple[tuple[str, str, float], ...] = ()
    min_spacing_mm: float = 0.0

    def __post_init__(self) -> None:
        # O(1), as the annealer builds one per move; placement legality is validate()'s job
        _positive(self, "width_mm", "height_mm")
        _non_negative(self, "min_spacing_mm")

    def is_valid(self) -> bool:
        try:
            self.validate()
        except ValidationError:
            return False
        return True

    # The legality rule, shared by validate and admits.
    def _in_bounds(self, box: Box) -> bool:
        """The footprint keeps a min_spacing_mm/2 margin to every interposer edge."""
        margin, eps = self.min_spacing_mm / 2.0, _PLACEMENT_EPS_MM
        x0, y0, x1, y1 = box
        return not (x0 < margin - eps or y0 < margin - eps
                    or x1 > self.width_mm - margin + eps or y1 > self.height_mm - margin + eps)

    def _apart(self, a: Box, b: Box) -> bool:
        """Two footprints are at least min_spacing_mm apart (the spacing halo)."""
        s, eps = self.min_spacing_mm, _PLACEMENT_EPS_MM
        return not (a[0] < b[2] + s - eps and b[0] < a[2] + s - eps
                    and a[1] < b[3] + s - eps and b[1] < a[3] + s - eps)

    def validate(self) -> None:
        """Raise unless all placements are in bounds and non-overlapping.

        Bounds require min_spacing_mm/2 margin to the interposer edge; pairs
        require min_spacing_mm separation (the spacing halo).
        """
        boxes = [p.box for p in self.placements]
        for i, box in enumerate(boxes):
            if not self._in_bounds(box):
                raise ValidationError(f"placements[{i}]: outside interposer bounds")
        for i, a in enumerate(boxes):
            for j in range(i + 1, len(boxes)):
                if not self._apart(a, boxes[j]):
                    raise ValidationError(
                        f"placements[{j}]: overlaps placements[{i}] or violates spacing")
        require_unique([p.name for p in self.placements], "placements")

    def admits(self, moved: dict[int, Box]) -> bool:
        """Whether this plan stays legal with placements[i]'s footprint moved to
        the box ``moved[i]``.

        Legality is decided on boxes, before any row is built, and only the
        moved boxes are tested, each against every other row: O(n) per box,
        not validate's O(n^2). So this plan must itself be legal; then the
        answer equals ``is_valid`` on the plan whose moved rows have those boxes.
        """
        for i, a in moved.items():
            if not self._in_bounds(a):
                return False
            for j, q in enumerate(self.placements):
                if j != i and not self._apart(a, moved[j] if j in moved else q.box):
                    return False
        return True


def floorplan_to_document(fp: Floorplan) -> dict:
    """Standalone JSON form of a floorplan (footprints and links included),
    keyed as ``floorplan_from_document`` reads it."""
    return {
        "interposer": {key: getattr(fp, key)
                       for key in ("width_mm", "height_mm", "min_spacing_mm")},
        "placements": [asdict(p) for p in fp.placements],
        "links": [{"a": a, "b": b, "weight": w} for a, b, w in fp.links],
    }


def floorplan_from_document(document: dict | str | Path) -> Floorplan:
    doc = read_document(document)
    _known(doc, "", ("interposer", "placements", "links"))
    placements = tuple(
        _section(PlacedChiplet, pd, f"placements[{i}]", keys=("name", "rotation_deg"),
                 name=_text(pd, "name", f"placements[{i}]", f"chiplet{i}"),
                 rotation_deg=_int(pd, "rotation_deg", f"placements[{i}]", 0))
        for i, pd in enumerate(_list(doc, "placements")))
    names = [p.name for p in placements]
    links = []
    for i, ld in enumerate(_list(doc, "links")):
        path = f"links[{i}]"
        if not isinstance(ld, dict):
            raise ValidationError(f"{path}: expected an object")
        _known(ld, path, ("a", "b", "weight"))
        for end in ("a", "b"):
            _require(ld.get(end) in names, f"{path}.{end}", f"unknown placement {ld.get(end)!r}")
        weight = _num(ld, "weight", path, 1.0)
        _require(weight > 0, f"{path}.weight", "must be > 0 and finite")  # _num checked finite
        links.append((ld["a"], ld["b"], weight))
    fp = _section(Floorplan, doc.get("interposer"), "interposer",
                  placements=placements, links=tuple(links))
    fp.validate()
    return fp


def links_from_spec(spec: PackageSpec) -> tuple[tuple[str, str, float], ...]:
    """The undirected (a, b, weight) links that the chiplets' ports declare.

    Either end may declare a link, or both with equal weight. ``a`` is
    declared before ``b``, and links are ordered by those declaration
    indices. A port naming an unknown chiplet or its own chiplet, or
    redeclaring a link with another weight, raises ValidationError.
    """
    names = [c.name for c in spec.chiplets]
    index = {name: i for i, name in enumerate(names)}
    weights: dict[tuple[int, int], float] = {}
    for i, c in enumerate(spec.chiplets):
        for k, (peer, weight) in enumerate(c.ports):
            path = f"chiplets[{i}].ports[{k}]"
            _require(peer in index, f"{path}.peer", f"unresolved peer {peer!r}")
            _require(peer != c.name, f"{path}.peer", "chiplet cannot link to itself")
            pair = (min(i, index[peer]), max(i, index[peer]))
            known = weights.setdefault(pair, weight)
            if not math.isclose(known, weight, rel_tol=1e-12):
                raise ValidationError(
                    f"{path}.weight: conflicting connection weights between "
                    f"{names[pair[0]]!r} and {names[pair[1]]!r}: {known} vs {weight}")
    return tuple((names[a], names[b], float(w)) for (a, b), w in sorted(weights.items()))


# ---------------------------------------------------------------------------
# Loading / validation


def _finite(v: Any, path: str) -> float:
    # json accepts NaN and +-Infinity; an integer beyond float range is not finite either
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not abs(v) <= sys.float_info.max:
        raise ValidationError(f"{path}: expected a finite number, got {v!r}")
    return float(v)


def _num(doc: dict, key: str, path: str, default: float | None = None) -> float:
    if key not in doc and default is not None:
        return default
    _require(key in doc, f"{path}.{key}", "missing required field")
    return _finite(doc[key], f"{path}.{key}")


def _int(doc: dict, key: str, path: str, default: int | None = None) -> int:
    """``_num`` of a key that must hold an integer; int() of the JSON value
    keeps a large one (a seed) exact."""
    if key not in doc and default is not None:
        return default
    value = _num(doc, key, path)
    _require(value.is_integer(), f"{path}.{key}", f"expected an integer, got {doc[key]!r}")
    return int(doc[key])


def _text(doc: Any, key: str, path: str, default: str | None = None) -> str:
    """The non-empty string ``key`` of the object ``doc``."""
    if not isinstance(doc, dict):
        raise ValidationError(f"{path}: expected an object")
    value = doc.get(key, default)
    _require(isinstance(value, str) and bool(value), f"{path}.{key}", "missing or empty")
    return value


def _list(doc: dict, key: str, path: str = "") -> list:
    value = doc.get(key, [])
    if not isinstance(value, list):
        raise ValidationError(f"{path}.{key}: expected a list" if path else f"{key}: expected a list")
    return value


def _flag_value(text: str) -> int | float | str:
    """A flag's text as the value a spec would hold: an int, else a float, else the text."""
    for number in (int, float):
        with contextlib.suppress(ValueError):
            return number(text)
    return text


def read_numbers(text: str, path: str) -> list[float]:
    """A comma-separated list flag's values, each read as a spec number at ``<path>[<i>]``."""
    return [_finite(_flag_value(v), f"{path}[{i}]") for i, v in enumerate(text.split(","))]


def _known(doc: dict, path: str, keys: Collection[str]) -> None:
    """Raise ``ValidationError("<path>.<key>: unknown key")`` at the first key of
    ``doc`` not in ``keys``; a top-level key (path "") is named alone, and an
    empty or unprintable one by its repr, so the error stays one line."""
    for key in doc:
        if key not in keys:
            name = key if key and str(key).isprintable() else repr(key)
            raise ValidationError(f"{path}.{name}: unknown key" if path else f"{name}: unknown key")


def _section(cls, doc: Any, path: str, flags: dict | None = None, keys: Collection[str] = (),
             **given):
    """Build dataclass ``cls`` from the spec object ``doc``.

    Each field not in ``given`` reads the spec key of its own name, or the flag
    ``<path>.<field>`` in ``flags`` if given (not None); a field whose default is
    an int reads an integer. An absent key takes the field's default, or is a
    missing-field error if it has none. ``doc`` may hold only those keys and
    ``keys``, the ones the caller read itself: a field that ``given`` fills from
    elsewhere is no key of ``doc``. A range error that ``cls`` raises as
    ``"<field>: <reason>"`` is re-raised as ``ValidationError("<path>.<field>: <reason>")``.
    """
    if not isinstance(doc, dict):
        raise ValidationError(f"{path}: expected an object")
    _known(doc, path, {f.name for f in fields(cls) if f.name not in given}.union(keys))
    doc = {**doc, **{key.removeprefix(f"{path}."): _flag_value(text) for key, text in
                     (flags or {}).items() if key.startswith(f"{path}.") and text is not None}}
    kwargs = dict(given)
    for f in fields(cls):
        if f.name in given or (f.name not in doc and f.default is not MISSING):
            continue
        kwargs[f.name] = (_int if isinstance(f.default, int) else _num)(doc, f.name, path)
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ValidationError(f"{path}.{exc}") from None


def _port(doc: Any, path: str) -> tuple[str, float]:
    peer, weight = _text(doc, "peer", path), _num(doc, "weight", path, 1.0)
    _known(doc, path, ("peer", "weight"))
    return peer, weight


def _chiplet(doc: Any, path: str) -> ChipletSpec:
    return _section(ChipletSpec, doc, path, keys=("name", "kind", "ports"),
                    name=_text(doc, "name", path),
                    kind=doc.get("kind", ChipletSpec.kind),
                    ports=tuple(_port(pd, f"{path}.ports[{k}]")
                                for k, pd in enumerate(_list(doc, "ports", path))))


def _stack(doc: Any, ambient_c: float) -> ThermalStack:
    """The ``stack`` section; absent layers take ThermalStack's default."""
    if not isinstance(doc, dict):
        raise ValidationError("stack: expected an object")
    layers = ThermalStack.layers if "layers" not in doc else tuple(
        _section(LayerSpec, ld, f"stack.layers[{i}]", keys=("name",),
                 name=_text(ld, "name", f"stack.layers[{i}]"))
        for i, ld in enumerate(_list(doc, "layers", "stack")))
    return _section(ThermalStack, doc, "stack", keys=("layers",), layers=layers,
                    ambient_c=ambient_c)


def load_spec(document: dict | str | Path) -> PackageSpec:
    """Parse and validate a package spec document: a parsed dict or a path."""
    doc = read_document(document)
    _known(doc, "", _DOCUMENT_KEYS)
    pkg = doc.get("package")
    name = _text(pkg, "name", "package", "package")
    chiplets_doc = doc.get("chiplets")
    if not isinstance(chiplets_doc, list) or not chiplets_doc:
        raise ValidationError("chiplets: must be a non-empty list")
    chiplets = tuple(_chiplet(cd, f"chiplets[{i}]") for i, cd in enumerate(chiplets_doc))

    require_unique([c.name for c in chiplets], "chiplets")
    stack = _stack(doc.get("stack", {}), _num(pkg, "ambient_c", "package", ThermalStack.ambient_c))
    spec = _section(PackageSpec, pkg, "package", keys=("name", "ambient_c"), name=name,
                    chiplets=chiplets, stack=stack)
    links_from_spec(spec)  # a bad port fails every subcommand at load
    return spec


def read_document(document: dict | str | Path) -> dict:
    """The JSON object in a parsed dict, or in the file at a path."""
    if isinstance(document, dict):
        return document
    path = Path(document)
    if not path.exists():
        raise ParseError(f"{path}: file not found")
    try:
        doc = json.loads(path.read_text())
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: unreadable ({exc})") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: malformed JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top-level JSON value must be an object")
    return doc


# ---------------------------------------------------------------------------
# Full spec-file bundle (CLI entry): package plus the optional sections
# driving the other subcommands.

@dataclass(frozen=True)
class SpecBundle:
    """A whole spec file, every section parsed, defaulted and validated:
    the package (from ``package``, ``chiplets`` and ``stack``) and one field
    per other top-level section, named after it."""

    package: PackageSpec
    process: ProcessCostParams
    anneal: AnnealConfig
    phy: PhySpec
    tiles: tuple[tuple[str, PowerParams], ...]  # (name, params): a tile states its own F and V
    configs: tuple[ConfigSpec, ...]


#: The top-level keys of a spec: the package's three, a bundle field's each, and a free-text note
_DOCUMENT_KEYS = frozenset({"chiplets", "stack", "power_model_note",
                            *(f.name for f in fields(SpecBundle))})


def _tile(doc: Any, path: str) -> tuple[str, PowerParams]:
    return _text(doc, "name", path), _section(
        PowerParams, doc, path, keys=("name", "frequency_hz", "voltage_v"),
        frequency_hz=_num(doc, "frequency_hz", path), voltage_v=_num(doc, "voltage_v", path))


def _config_rows(docs: list, path: str) -> tuple[ConfigSpec, ...]:
    rows = tuple(_section(ConfigSpec, doc, f"{path}[{i}]", keys=("name",),
                          name=_text(doc, "name", f"{path}[{i}]"))
                 for i, doc in enumerate(docs))
    require_unique([r.name for r in rows], path)
    return rows


def load_configs_csv(path: Path) -> tuple[ConfigSpec, ...]:
    """Rows of a CSV with name,cost,throughput,latency columns and no other,
    checked like the spec's ``configs`` (field paths read ``<file>[<row>].<column>``)."""
    if not path.exists():
        raise ParseError(f"{path}: file not found")
    try:
        with path.open(newline="", encoding="utf-8-sig") as fh:  # as spreadsheets save it
            rows = list(csv.DictReader(fh, restkey="(cells past the header)"))
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise ParseError(f"{path}: unreadable ({exc})") from None
    for row in rows:
        for f in fields(ConfigSpec)[1:]:  # the numeric columns, after name
            with contextlib.suppress(TypeError, ValueError):  # else rejected with its path
                row[f.name] = float(row.get(f.name))
    return _config_rows(rows, str(path))


def load_phy(flags: dict) -> PhySpec:
    """The ``phy`` section without a spec: its defaults under the given flags."""
    return _section(PhySpec, {}, "phy", flags)


def load_bundle(document: dict | str | Path, flags: dict | None = None) -> SpecBundle:
    """Parse a whole spec: the package plus every optional section.

    An absent section or key takes its dataclass default and a given flag replaces
    the key it names; every invalid value raises ValidationError("<field path>: <reason>").
    """
    doc = read_document(document)
    package = load_spec(doc)
    tiles = tuple(_tile(td, f"tiles[{i}]") for i, td in enumerate(_list(doc, "tiles")))
    require_unique([name for name, _ in tiles], "tiles")
    return SpecBundle(
        package=package,
        process=_section(ProcessCostParams, doc.get("process", {}), "process", flags),
        anneal=_section(AnnealConfig, doc.get("anneal", {}), "anneal", flags),
        phy=_section(PhySpec, doc.get("phy", {}), "phy", flags),
        tiles=tiles,
        configs=_config_rows(_list(doc, "configs"), "configs"),
    )
