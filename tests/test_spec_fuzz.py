"""Random mutations of the bundled spec and of a floorplan document.

Each spec mutant either loads or raises SpecError, and the report commands on
it exit 0, or exit 1 with a single `error:` line; nothing else escapes. The
same holds for `thermal` on each floorplan mutant.
"""

import copy
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import chipletdse
from chipletdse.cli import main
from chipletdse.model import SpecError, floorplan_to_document, load_bundle, load_spec
from chipletdse.place import bst_placement

BUNDLED_PATH = str(chipletdse.bundled_spec_path())
BUNDLED = json.loads(Path(BUNDLED_PATH).read_text())
FLOORPLAN = floorplan_to_document(bst_placement(load_spec(BUNDLED)))

# st.floats() draws NaN and +-Infinity too, which json writes and reads back
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                 max_size=3),
    max_leaves=4)


@st.composite
def mutants(draw, base):
    """``base`` with one key, at any depth, set to a JSON value or deleted."""
    doc = copy.deepcopy(base)
    node = doc
    while True:
        key = draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
        child = node[key]
        if isinstance(child, (dict, list)) and child and draw(st.booleans()):
            node = child
        elif draw(st.integers(0, 4)) == 0:
            del node[key]
            return doc
        else:
            node[key] = draw(json_values)
            return doc


def assert_clean_exit(argv: list[str]) -> None:
    """``main(argv)`` exits 0, or 1 with a single `error:` line."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        status = main(argv)
    assert status == 0 or (status == 1 and err.getvalue().startswith("error: ")
                           and err.getvalue().count("\n") == 1), (argv[0], err.getvalue())


@settings(max_examples=40, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=mutants(BUNDLED))
def test_mutant_loads_or_fails_cleanly(tmp_path, doc):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc))
    try:
        load_bundle(spec)
    except SpecError:
        pass
    for command in ("cost", "power", "perf", "phy"):
        assert_clean_exit([command, "--spec", str(spec), "--out", str(tmp_path / command)])


@settings(max_examples=40, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=mutants(FLOORPLAN))
def test_floorplan_mutant_runs_or_fails_cleanly(tmp_path, doc):
    floorplan = tmp_path / "floorplan.json"
    floorplan.write_text(json.dumps(doc))
    assert_clean_exit(["thermal", "--spec", BUNDLED_PATH, "--floorplan", str(floorplan),
                       "--resolution", "2", "--out", str(tmp_path / "thermal")])
