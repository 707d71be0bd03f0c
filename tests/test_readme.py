"""README's documented library use runs as written, and its schemas cannot
drift from the loader."""

import dataclasses
import json
import re
from pathlib import Path

import pytest

from chipletdse.model import (
    AnnealConfig,
    ChipletSpec,
    ConfigSpec,
    Floorplan,
    LayerSpec,
    PackageSpec,
    PhySpec,
    PlacedChiplet,
    PowerParams,
    ProcessCostParams,
    SpecBundle,
    ThermalStack,
    floorplan_from_document,
    load_bundle,
)

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_block_runs(capsys):
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    block = re.match(r"\s*```python\n(.*?)\n```", section, re.S).group(1)
    exec(compile(block, f"{README}:Library use", "exec"), {})
    # the block reports a ChipletdseError as "error: ..." instead of raising it
    assert "error:" not in capsys.readouterr().out


def schema(heading: str) -> dict:
    """The first jsonc block under ``heading``, its comments stripped."""
    section = README.read_text(encoding="utf-8").split(f"\n{heading}\n", 1)[1]
    block = re.search(r"```jsonc\n(.*?)\n```", section, re.S).group(1)
    return json.loads(re.sub(r"//[^\n]*|/\*.*?\*/", "", block, flags=re.S))


#: (dataclass, the schema object that names its fields, from the spec and
#: floorplan schemas): a field that the loader reads from another object is
#: looked up there too
OBJECTS = [
    (SpecBundle, lambda s, f: s),
    (PackageSpec, lambda s, f: {**s, **s["package"]}),  # chiplets and stack are top-level
    (ChipletSpec, lambda s, f: s["chiplets"][0]),
    (ThermalStack, lambda s, f: {**s["package"], **s["stack"]}),  # package.ambient_c
    (LayerSpec, lambda s, f: s["stack"]["layers"][0]),
    (ProcessCostParams, lambda s, f: s["process"]),
    (PhySpec, lambda s, f: s["phy"]),
    (AnnealConfig, lambda s, f: s["anneal"]),
    (PowerParams, lambda s, f: s["tiles"][0]),
    (ConfigSpec, lambda s, f: s["configs"][0]),
    (PlacedChiplet, lambda s, f: f["placements"][0]),
    (Floorplan, lambda s, f: {**f, **f["interposer"]}),  # placements and links are top-level
]


def test_schemas_load():
    """Every key the schemas name is one the loader knows, where they name it."""
    load_bundle(schema("## Spec file schema"))
    floorplan_from_document(schema("### Floorplan document"))


@pytest.mark.parametrize("cls, named", OBJECTS, ids=[cls.__name__ for cls, _ in OBJECTS])
def test_schema_names_every_field(cls, named):
    obj = named(schema("## Spec file schema"), schema("### Floorplan document"))
    assert {f.name for f in dataclasses.fields(cls)} <= set(obj)
