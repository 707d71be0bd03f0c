import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chipletdse
from chipletdse.model import (
    Floorplan,
    PackageSpec,
    ParseError,
    PlacedChiplet,
    ValidationError,
    floorplan_from_document,
    floorplan_to_document,
    load_spec,
    validate_connectivity,
)


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
        assert spec.chiplet("cpu0").area == pytest.approx(8 * 13.5, rel=1e-4)
        assert spec.chiplet("sram").area == pytest.approx(69.3, rel=1e-4)
        assert spec.chiplet("niu").area == pytest.approx(7.9317, rel=1e-4)
        assert spec.chiplet("pcie").area == pytest.approx(6.24, rel=1e-4)

    def test_empty_chiplet_list_rejected(self):
        with pytest.raises(ValidationError, match="chiplets"):
            load_spec(make_doc([]))

    def test_footprints_exceeding_interposer_rejected(self):
        # total footprint ~2x the interposer area
        chiplets = [chip(f"c{i}", 8.0, 8.0) for i in range(13)]
        with pytest.raises(ValidationError, match="exceed"):
            load_spec(make_doc(chiplets, width=20.0, height=20.0))

    def test_unresolved_peer_rejected(self):
        doc = make_doc([chip("a", ports=[("ghost", 1.0)]), chip("b")])
        with pytest.raises(ValidationError, match="ghost"):
            load_spec(doc)

    def test_malformed_json_is_parse_error(self):
        with pytest.raises(ParseError):
            load_spec("{not json\n}")

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError, match="not found"):
            load_spec(str(tmp_path / "nope.json"))

    def test_ambient_outside_automotive_range(self):
        with pytest.raises(ValidationError, match="ambient"):
            load_spec(make_doc([chip("a")], ambient=150.0))

    def test_negative_width_names_field(self):
        doc = make_doc([chip("a", w=-1.0)])
        with pytest.raises(ValidationError, match=r"chiplets\[0\].width_mm"):
            load_spec(doc)


class TestConnectivity:
    def test_single_link(self):
        spec = load_spec(make_doc([chip("a", ports=[("b", 1.0)]), chip("b")]))
        mat = validate_connectivity(spec)
        assert mat.tolist() == [[0, 1], [1, 0]]

    def test_isolated_chiplet_zero_row(self):
        spec = load_spec(make_doc([chip("a", ports=[("b", 1.0)]), chip("b"), chip("c")]))
        mat = validate_connectivity(spec)
        assert not mat[2].any() and not mat[:, 2].any()

    def test_one_sided_declaration_symmetrized(self):
        spec = load_spec(make_doc([chip("a", ports=[("b", 2.0)]), chip("b")]))
        mat = validate_connectivity(spec)
        assert mat[0, 1] == mat[1, 0] == 2.0

    def test_conflicting_weights_rejected(self):
        doc = make_doc([chip("a", ports=[("b", 2.0)]), chip("b", ports=[("a", 3.0)])])
        with pytest.raises(ValidationError, match="conflicting"):
            load_spec(doc)

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_symmetry_zero_diagonal_property(self, data):
        n = data.draw(st.integers(min_value=1, max_value=6))
        names = [f"c{i}" for i in range(n)]
        chiplets = []
        for i in range(n):
            ports = []
            for j in range(n):
                if j != i and data.draw(st.booleans()):
                    ports.append((names[j], float(data.draw(st.integers(1, 5)))))
            chiplets.append(chip(names[i], 2.0, 2.0, ports=ports))
        # identical weight may be declared on both sides; conflicts rejected.
        try:
            spec = load_spec(make_doc(chiplets, width=60.0, height=60.0))
        except ValidationError:
            return
        mat = validate_connectivity(spec)
        assert np.array_equal(mat, mat.T)
        assert not mat.diagonal().any()


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

    def test_rotation_swaps_footprint(self):
        p = PlacedChiplet("a", 0, 0, 90, 4, 2, 1.0)
        assert (p.eff_width, p.eff_height) == (2, 4)

    def test_spacing_enforced(self):
        fp = Floorplan(20, 20, (
            PlacedChiplet("a", 1, 1, 0, 5, 5, 1.0),
            PlacedChiplet("b", 6.5, 1, 0, 5, 5, 1.0),
        ), min_spacing=1.0)
        with pytest.raises(ValidationError):
            fp.validate()

    def test_document_roundtrip(self):
        fp = Floorplan(20, 20, (
            PlacedChiplet("a", 1, 1, 0, 5, 5, 1.0),
            PlacedChiplet("b", 8, 8, 90, 5, 3, 2.0),
        ), links=(("a", "b", 2.0),), min_spacing=1.0)
        assert floorplan_from_document(floorplan_to_document(fp)) == fp

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
