import ast
import copy
import dataclasses
import importlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chipletdse
from chipletdse.model import (
    AnnealConfig,
    ChipletdseError,
    ChipletSpec,
    ConfigSpec,
    Floorplan,
    LayerSpec,
    PackageSpec,
    ParseError,
    PhySpec,
    PlacedChiplet,
    PowerParams,
    ProcessCostParams,
    SpecBundle,
    SpecError,
    ThermalStack,
    ValidationError,
    floorplan_from_document,
    floorplan_to_document,
    links_from_spec,
    load_bundle,
    load_configs_csv,
    load_spec,
    require_unique,
)
from chipletdse.place import bst_placement


def make_doc(chiplets, width=40.0, height=40.0, spacing=1.0, ambient=45.0):
    return {
        "package": {
            "name": "t",
            "interposer_width_mm": width,
            "interposer_height_mm": height,
            "min_spacing_mm": spacing,
            "ambient_c": ambient,
        },
        "chiplets": chiplets,
    }


def chip(name, w=5.0, h=5.0, power=1.0, ports=()):
    return {
        "name": name, "width_mm": w, "height_mm": h, "power_w": power,
        "kind": "compute", "ports": [{"peer": p, "weight": wt} for p, wt in ports],
    }


class TestLoadSpec:
    def test_bundled_infotainment_areas(self):
        spec = load_spec(chipletdse.bundled_spec_path())
        # published block areas: core 13.5 mm^2 (8-core cpu0 = 108), 10MB
        # SRAM 69.3, NIU 7.9317, PCIe 6.24
        area = {c.name: c.area for c in spec.chiplets}
        assert area["cpu0"] == pytest.approx(8 * 13.5, rel=1e-4)
        assert area["sram"] == pytest.approx(69.3, rel=1e-4)
        assert area["niu"] == pytest.approx(7.9317, rel=1e-4)
        assert area["pcie"] == pytest.approx(6.24, rel=1e-4)

    def test_empty_chiplet_list_rejected(self):
        with pytest.raises(ValidationError, match="chiplets"):
            load_spec(make_doc([]))

    def test_footprints_exceeding_interposer_rejected(self):
        # total footprint ~2x the interposer area
        chiplets = [chip(f"c{i}", 8.0, 8.0) for i in range(13)]
        with pytest.raises(ValidationError, match="exceed"):
            load_spec(make_doc(chiplets, width=20.0, height=20.0))

    def test_over_budget_package_spec_rejected(self):
        # (5 + 1)^2 * 4 = 144 mm^2 of footprint with halo on a 10 x 10 interposer
        chiplets = tuple(ChipletSpec(f"c{i}", 5.0, 5.0) for i in range(4))
        with pytest.raises(ValidationError, match=r"^interposer_width_mm: chiplet footprints"):
            PackageSpec("p", chiplets, 10.0, 10.0, min_spacing_mm=1.0)

    def test_unresolved_peer_rejected(self):
        doc = make_doc([chip("a", ports=[("ghost", 1.0)]), chip("b")])
        with pytest.raises(ValidationError, match="ghost"):
            load_spec(doc)

    def test_malformed_json_is_parse_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json\n}")
        with pytest.raises(ParseError):
            load_spec(path)

    @pytest.mark.parametrize("reader, content, reason", [
        (load_spec, b"\xff\xfe{}", "unreadable"),
        (load_spec, b"[1, 2]", "top-level JSON value must be an object"),
        (load_configs_csv, b"name,cost\n\xff\xfe,1\n", "unreadable"),
    ], ids=["undecodable", "top-level-array", "undecodable-csv"])
    def test_undecodable_or_non_object_file_is_parse_error(self, tmp_path, reader, content,
                                                           reason):
        path = tmp_path / "bad"
        path.write_bytes(content)
        with pytest.raises(ParseError) as exc:
            reader(path)
        assert str(exc.value).startswith(f"{path}: {reason}")

    def test_documented_defaults(self):
        """An absent port weight reads 1 and an absent package.ambient_c 45 C."""
        doc = make_doc([chip("a"), chip("b")])
        doc["chiplets"][0]["ports"] = [{"peer": "b"}]
        del doc["package"]["ambient_c"]
        spec = load_spec(doc)
        assert links_from_spec(spec) == (("a", "b", 1.0),)
        assert spec.stack.ambient_c == 45.0

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError, match="not found"):
            load_spec(str(tmp_path / "nope.json"))

    def test_ambient_outside_automotive_range(self):
        with pytest.raises(ValidationError, match="ambient"):
            load_spec(make_doc([chip("a")], ambient=150.0))

    @pytest.mark.parametrize("build, field", [
        (lambda: ChipletSpec("a", 1, 1, power_w=math.inf), "power_w"),
        (lambda: ProcessCostParams(d0_per_mm2=math.inf), "d0_per_mm2"),
    ])
    def test_non_negative_field_must_be_finite(self, build, field):
        with pytest.raises(ValidationError, match=rf"^{field}: must be >= 0 and finite$"):
            build()

    def test_negative_width_names_field(self):
        doc = make_doc([chip("a", w=-1.0)])
        with pytest.raises(ValidationError, match=r"chiplets\[0\].width_mm"):
            load_spec(doc)


class TestConnectivity:
    def test_single_link(self):
        spec = load_spec(make_doc([chip("a", ports=[("b", 1.0)]), chip("b")]))
        assert links_from_spec(spec) == (("a", "b", 1.0),)

    def test_isolated_chiplet_zero_row(self):
        spec = load_spec(make_doc([chip("a", ports=[("b", 1.0)]), chip("b"), chip("c")]))
        assert all("c" not in link[:2] for link in links_from_spec(spec))

    def test_one_sided_declaration_symmetrized(self):
        # declared on the later chiplet only, the link still reads (a, b)
        spec = load_spec(make_doc([chip("a"), chip("b", ports=[("a", 2.0)])]))
        assert links_from_spec(spec) == (("a", "b", 2.0),)

    def test_conflicting_weights_rejected(self):
        doc = make_doc([chip("a", ports=[("b", 2.0)]), chip("b", ports=[("a", 3.0)])])
        with pytest.raises(ValidationError,
                           match=r"^chiplets\[1\]\.ports\[0\]\.weight: conflicting"):
            load_spec(doc)

    def test_self_link_rejected(self):
        doc = make_doc([chip("a", ports=[("a", 1.0)])])
        with pytest.raises(ValidationError, match=r"^chiplets\[0\]\.ports\[0\]\.peer: "):
            load_spec(doc)

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_symmetry_zero_diagonal_property(self, data):
        n = data.draw(st.integers(min_value=1, max_value=6))
        names = [f"c{i}" for i in range(n)]
        declared = {}  # (i, j) -> weights declared from either end
        chiplets = []
        for i in range(n):
            ports = []
            for j in range(n):
                if j != i and data.draw(st.booleans()):
                    weight = float(data.draw(st.integers(1, 5)))
                    ports.append((names[j], weight))
                    declared.setdefault((min(i, j), max(i, j)), set()).add(weight)
            chiplets.append(chip(names[i], 2.0, 2.0, ports=ports))
        # identical weight may be declared on both sides; conflicts rejected.
        doc = make_doc(chiplets, width=60.0, height=60.0)
        if any(len(weights) > 1 for weights in declared.values()):
            with pytest.raises(ValidationError, match="conflicting"):
                load_spec(doc)
            return
        links = links_from_spec(load_spec(doc))
        assert links == tuple((names[i], names[j], weights.pop())
                              for (i, j), weights in sorted(declared.items()))


class TestRequireUnique:
    @settings(max_examples=200, deadline=None)
    @given(names=st.lists(st.sampled_from("abcdef"), max_size=8))
    def test_raises_iff_a_name_repeats_naming_the_first_repeat(self, names):
        first = next((i for i, n in enumerate(names) if n in names[:i]), None)
        if first is None:
            require_unique(names, "rows")
        else:
            with pytest.raises(ValidationError) as exc:
                require_unique(names, "rows")
            assert str(exc.value) == f"rows[{first}].name: duplicate name {names[first]!r}"


class TestFloorplan:
    def test_overlap_rejected(self):
        fp = Floorplan(20, 20, (
            PlacedChiplet("a", 1, 1, 0, 5, 5, 1.0),
            PlacedChiplet("b", 4, 4, 0, 5, 5, 1.0),
        ))
        with pytest.raises(ValidationError, match="overlap"):
            fp.validate()

    def test_out_of_bounds_rejected(self):
        fp = Floorplan(10, 10, (PlacedChiplet("a", 8, 8, 0, 5, 5, 1.0),))
        with pytest.raises(ValidationError, match="bounds"):
            fp.validate()

    @pytest.mark.parametrize("second, message", [
        (PlacedChiplet("b", 4, 4, 0, 5, 5), "placements[1]: overlaps placements[0] or violates spacing"),
        (PlacedChiplet("b", 18, 1, 0, 5, 5), "placements[1]: outside interposer bounds"),
        (PlacedChiplet("a", 10, 10, 0, 5, 5), "placements[1].name: duplicate name 'a'"),
    ])
    def test_errors_name_placement_index(self, second, message):
        fp = Floorplan(20, 20, (PlacedChiplet("a", 1, 1, 0, 5, 5, 1.0), second))
        with pytest.raises(ValidationError) as exc:
            fp.validate()
        assert str(exc.value) == message

    def test_rotation_swaps_footprint(self):
        p = PlacedChiplet("a", 0, 0, 90, 4, 2, 1.0)
        assert (p.eff_width, p.eff_height) == (2, 4)

    @pytest.mark.parametrize("rotation", [0, 90, 180, 270])
    def test_derived_footprint_follows_the_fields(self, rotation):
        def expected(p):
            turned = p.rotation_deg in (90, 270)
            w, h = (p.height_mm, p.width_mm) if turned else (p.width_mm, p.height_mm)
            return (w, h, (p.x_mm, p.y_mm, p.x_mm + w, p.y_mm + h),
                    (p.x_mm + w / 2.0, p.y_mm + h / 2.0))

        p = PlacedChiplet("a", 1.1, 2.3, rotation, 4.7, 2.9, 1.0)
        moved = dataclasses.replace(p, x_mm=3.7, y_mm=0.9, rotation_deg=(rotation + 90) % 360)
        for q in (p, moved):
            assert (q.eff_width, q.eff_height, q.box, q.center) == expected(q)

    def test_derived_footprint_is_not_a_field(self):
        p = PlacedChiplet("a", 1, 2, 90, 5, 3, 1.5)
        assert p.box and p.center  # derived at construction
        doc = floorplan_to_document(Floorplan(20, 20, (p,)))
        for keys in (dataclasses.asdict(p), doc["placements"][0]):
            assert not {"box", "center", "eff_width", "eff_height"} & set(keys)

    @pytest.mark.parametrize("rotation", [90.0, 0.0, False, True, 45, "90"])
    def test_rotation_must_be_an_integer_quarter_turn(self, rotation):
        with pytest.raises(ValidationError) as exc:
            PlacedChiplet("a", 1, 1, rotation, 5, 3)
        assert str(exc.value) == "rotation_deg: must be 0, 90, 180 or 270"

    def test_spacing_enforced(self):
        fp = Floorplan(20, 20, (
            PlacedChiplet("a", 1, 1, 0, 5, 5, 1.0),
            PlacedChiplet("b", 6.5, 1, 0, 5, 5, 1.0),
        ), min_spacing_mm=1.0)
        with pytest.raises(ValidationError):
            fp.validate()

    def test_document_roundtrip(self):
        fp = Floorplan(20, 20, (
            PlacedChiplet("a", 1, 1, 0, 5, 5, 1.0),
            PlacedChiplet("b", 8, 8, 90, 5, 3, 2.0),
        ), links=(("a", "b", 2.0),), min_spacing_mm=1.0)
        assert floorplan_from_document(floorplan_to_document(fp)) == fp

    def test_document_key_order(self):
        doc = floorplan_to_document(Floorplan(20, 20, (PlacedChiplet("a", 1, 2, 90, 5, 3, 1.5),),
                                              min_spacing_mm=1.0))
        assert list(doc) == ["interposer", "placements", "links"]
        assert list(doc["interposer"]) == ["width_mm", "height_mm", "min_spacing_mm"]
        assert list(doc["placements"][0].items()) == [
            ("name", "a"), ("x_mm", 1), ("y_mm", 2), ("rotation_deg", 90), ("width_mm", 5),
            ("height_mm", 3), ("power_w", 1.5)]

    def test_document_defaults(self):
        """An absent rotation_deg reads 0 and an absent link weight 1."""
        doc = floorplan_to_document(Floorplan(20, 20, (
            PlacedChiplet("a", 1, 1, 0, 5, 5, 1.0),
            PlacedChiplet("b", 8, 8, 0, 5, 5, 1.0),
        ), links=(("a", "b", 1.0),)))
        del doc["placements"][1]["rotation_deg"], doc["links"][0]["weight"]
        fp = floorplan_from_document(doc)
        assert fp.placements[1].rotation_deg == 0 and type(fp.placements[1].rotation_deg) is int
        assert fp.links == (("a", "b", 1.0),)

    def test_json_roundtrip_keeps_rotation_an_integer(self):
        fp = Floorplan(20, 20, (PlacedChiplet("a", 1, 1, 90, 5, 3, 1.0),))
        back = floorplan_from_document(json.loads(json.dumps(floorplan_to_document(fp))))
        assert type(back.placements[0].rotation_deg) is int
        assert '"rotation_deg": 90,' in json.dumps(floorplan_to_document(back))

    @pytest.mark.parametrize("link, field", [
        ({"a": "ghost", "b": "b"}, r"links\[0\]\.a"),
        ({"a": "a", "b": ["b"]}, r"links\[0\]\.b"),
        ({"a": "a", "b": "b", "weight": "heavy"}, r"links\[0\]\.weight"),
        ({"a": "a", "b": "b", "weight": 0}, r"links\[0\]\.weight"),
    ])
    def test_document_link_errors_name_field(self, link, field):
        doc = floorplan_to_document(Floorplan(20, 20, (
            PlacedChiplet("a", 1, 1, 0, 5, 5, 1.0),
            PlacedChiplet("b", 8, 8, 0, 5, 5, 1.0),
        )))
        doc["links"] = [link]
        with pytest.raises(ValidationError, match=field):
            floorplan_from_document(doc)

    def test_link_weight_states_the_positivity_rule(self):
        doc = floorplan_to_document(Floorplan(20, 20, (
            PlacedChiplet("a", 1, 1, 0, 5, 5, 1.0),
            PlacedChiplet("b", 8, 8, 0, 5, 5, 1.0),
        )))
        doc["links"] = [{"a": "a", "b": "b", "weight": -2.0}]
        with pytest.raises(ValidationError, match=r"^links\[0\]\.weight: must be > 0 and finite$"):
            floorplan_from_document(doc)


class TestLayering:
    """model.py is the package's base module: it holds the domain types and
    the error root, and imports no other package module."""

    def test_model_imports_no_package_module_and_no_numpy(self):
        code = ("import sys, chipletdse.model; print(sorted(m for m in sys.modules "
                "if m.startswith('chipletdse.') or m.split('.')[0] == 'numpy'))")
        src = str(Path(chipletdse.__file__).parents[1])
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              check=True, env={**os.environ, "PYTHONPATH": src})
        assert proc.stdout.strip() == "['chipletdse.model']"

    @pytest.mark.parametrize("module, name, base", [
        ("model", "SpecError", ValueError),
        ("model", "ParseError", SpecError),
        ("model", "ValidationError", SpecError),
        ("costyield", "CostModelError", ValueError),
        ("perf", "PerfError", ValueError),
        ("phy", "PhyError", ValueError),
        ("power", "PowerError", ValueError),
        ("thermal", "ThermalError", RuntimeError),
        ("place", "PlacementError", RuntimeError),
    ])
    def test_error_class_under_one_root(self, module, name, base):
        cls = getattr(importlib.import_module(f"chipletdse.{module}"), name)
        assert issubclass(cls, ChipletdseError) and issubclass(cls, base)


PACKAGE_TREES = {p.stem: ast.parse(p.read_text(encoding="utf-8"))
                 for p in Path(chipletdse.__file__).parent.glob("*.py")}


def package_names_used(tree: ast.Module, home: str | None = None) -> set[tuple[str, str]]:
    """The (module, name) pairs of the package that ``tree`` imports by name or
    reads as ``<imported module>.<name>``, and, in ``home``'s own tree, each
    bare name it loads. An attribute of anything else, such as
    ``config.throughput``, is no use of a function."""
    modules, used = {}, set()  # local name -> package module it is bound to
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level == 1 or node.module == "chipletdse"
                                                 or (node.module or "").startswith("chipletdse.")):
            source = (node.module or "chipletdse").removeprefix("chipletdse").lstrip(".")
            for alias in node.names:
                if not source and alias.name in PACKAGE_TREES:  # from . import svgout
                    modules[alias.asname or alias.name] = alias.name
                else:  # from .model import load_bundle; from . import bundled_spec_path
                    used.add((source or "__init__", alias.name))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            used.add((modules[node.value.id], node.attr))
        elif home and isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add((home, node.id))
    return used


class TestPublicFunctionsAreReachable:
    def test_each_is_used_by_the_package_or_the_acceptance_tests(self):
        """No public function is reachable only from tests unless it backs a
        paper claim, which tests/test_acceptance.py checks."""
        acceptance = ast.parse((Path(__file__).parent / "test_acceptance.py").read_text("utf-8"))
        used = package_names_used(acceptance).union(
            *(package_names_used(tree, home) for home, tree in PACKAGE_TREES.items()))
        public = {(home, node.name) for home, tree in PACKAGE_TREES.items() for node in tree.body
                  if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
        assert sorted(public - used) == []


BUNDLED_DOC = json.loads(Path(chipletdse.bundled_spec_path()).read_text())
FLOORPLAN_DOC = floorplan_to_document(bst_placement(load_spec(BUNDLED_DOC)))

#: (dataclass, path of the section it reads, that section in a document)
SECTIONS = [
    (PackageSpec, "package", lambda d: d["package"]),
    (ChipletSpec, "chiplets[0]", lambda d: d["chiplets"][0]),
    (ThermalStack, "stack", lambda d: d["stack"]),
    (LayerSpec, "stack.layers[0]", lambda d: d["stack"]["layers"][0]),
    (ProcessCostParams, "process", lambda d: d["process"]),
    (AnnealConfig, "anneal", lambda d: d["anneal"]),
    (PhySpec, "phy", lambda d: d["phy"]),
    (PowerParams, "tiles[0]", lambda d: d["tiles"][0]),
    (ConfigSpec, "configs[0]", lambda d: d["configs"][0]),
    (PlacedChiplet, "placements[0]", lambda d: d["placements"][0]),
    (Floorplan, "interposer", lambda d: d["interposer"]),
]
#: (path, object, whether a floorplan document holds it) of every object the
#: loaders read: each section above, then the ones read by hand
OBJECTS = [(path, section, cls in (PlacedChiplet, Floorplan)) for cls, path, section in SECTIONS] + [
    ("", lambda d: d, False),
    ("chiplets[0].ports[0]", lambda d: d["chiplets"][0]["ports"][0], False),
    ("", lambda d: d, True),
    ("links[0]", lambda d: d["links"][0], True),
]
HELD_ELSEWHERE = {"ambient_c": ("package", lambda d: d["package"])}  # ThermalStack's
GIVEN_KEYS = {"name", "kind", "ports", "layers"}  # passed to _section through ``given``
OUT_OF_RANGE = {"ambient_c": 200.0}  # -1 C is a legal ambient; -1 fails every other check
BOUNDS_CHECKED = {"x_mm", "y_mm"}  # no field check: a corner off the board fails validate


def range_cases():
    for cls, path, section in SECTIONS:
        for f in dataclasses.fields(cls):
            if f.type in ("float", "int", "float | None"):
                where, get = HELD_ELSEWHERE.get(f.name, (path, section))
                yield pytest.param(cls, where, get, f.name, id=f"{where}.{f.name}")


class TestSpecKeysAreFieldNames:
    """Each spec key is the name of the field that holds it, so a range error
    reads ``<section path>.<field>: <reason>``."""

    @pytest.mark.parametrize("cls, path, section, field", list(range_cases()))
    def test_range_error_names_the_field(self, cls, path, section, field):
        floorplan = cls in (PlacedChiplet, Floorplan)
        doc = copy.deepcopy(FLOORPLAN_DOC if floorplan else BUNDLED_DOC)
        section(doc)[field] = OUT_OF_RANGE.get(field, -1)
        with pytest.raises(ValidationError) as exc:
            (floorplan_from_document if floorplan else load_bundle)(doc)
        prefix = f"{path}: " if field in BOUNDS_CHECKED else f"{path}.{field}: "
        assert str(exc.value).startswith(prefix)

    def test_every_bundled_key_is_a_field_of_its_reader(self):
        for cls, path, section in SECTIONS:
            doc = FLOORPLAN_DOC if cls in (PlacedChiplet, Floorplan) else BUNDLED_DOC
            held = {key for key, (where, _) in HELD_ELSEWHERE.items() if where == path}
            fields = {f.name for f in dataclasses.fields(cls)} | held
            assert set(section(doc)) - fields <= GIVEN_KEYS, path

    @pytest.mark.parametrize("path, section, floorplan", [
        pytest.param(path, section, floorplan, id=f"{'floorplan' if floorplan else 'spec'}:{path}")
        for path, section, floorplan in OBJECTS])
    def test_unknown_key_is_named(self, path, section, floorplan):
        doc = copy.deepcopy(FLOORPLAN_DOC if floorplan else BUNDLED_DOC)
        section(doc)["spare"] = 1.0
        key = f"{path}.spare" if path else "spare"
        with pytest.raises(ValidationError, match=rf"^{re.escape(key)}: unknown key$"):
            (floorplan_from_document if floorplan else load_bundle)(doc)

    @pytest.mark.parametrize("path, key, floorplan", [
        ("stack", "ambient_c", False),  # package.ambient_c holds it
        ("package", "chiplets", False),
        ("package", "stack", False),
        ("interposer", "placements", True),
        ("interposer", "links", True),
    ])
    def test_field_given_from_elsewhere_is_no_key(self, path, key, floorplan):
        doc = copy.deepcopy(FLOORPLAN_DOC if floorplan else BUNDLED_DOC)
        doc[path][key] = copy.deepcopy(doc[key] if key in doc else doc["package"][key])
        with pytest.raises(ValidationError, match=rf"^{path}\.{key}: unknown key$"):
            (floorplan_from_document if floorplan else load_bundle)(doc)

    def test_bundle_fields_are_the_optional_sections(self):
        """Besides ``package`` (read from package, chiplets and stack), each
        SpecBundle field holds the top-level section of its own name."""
        optional = [f.name for f in dataclasses.fields(SpecBundle) if f.name != "package"]
        notes = {"power_model_note"}  # free text, read by no code
        assert set(optional) == set(BUNDLED_DOC) - {"package", "chiplets", "stack"} - notes
        for name in optional:
            with pytest.raises(ValidationError, match=rf"^{name}: expected an? (object|list)$"):
                load_bundle({**BUNDLED_DOC, name: "x"})
