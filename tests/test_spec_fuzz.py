"""Random mutations of the bundled spec and of a floorplan document.

Each spec mutant either loads or raises SpecError, and the report commands on
it exit 0, or exit 1 with a single `error:` line; nothing else escapes. The
same holds for `thermal` on each floorplan mutant. Every object of either
document is one the loader knows the keys of, so a mutant with a key added
fails with `unknown key`.
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
    """``base`` with one key, at any depth, set to a JSON value, deleted or added
    to an object; and whether a key was added."""
    doc = copy.deepcopy(base)
    node = doc
    while True:
        if isinstance(node, dict) and draw(st.integers(0, 4)) == 0:
            # each base already holds every field of its objects named in 3 characters or fewer
            node[draw(st.text(max_size=3).filter(lambda k: k not in node))] = draw(json_values)
            return doc, True
        key = draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
        child = node[key]
        if isinstance(child, (dict, list)) and child and draw(st.booleans()):
            node = child
        elif draw(st.integers(0, 4)) == 0:
            del node[key]
            return doc, False
        else:
            node[key] = draw(json_values)
            return doc, False


def assert_clean_exit(argv: list[str], added: bool) -> None:
    """``main(argv)`` exits 0, or 1 with a single `error:` line, which is an
    unknown key's if a key was added."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        status = main(argv)
    assert status == 0 or (status == 1 and err.getvalue().startswith("error: ")
                           and err.getvalue().count("\n") == 1), (argv[0], err.getvalue())
    assert not added or err.getvalue().endswith(": unknown key\n"), (argv[0], err.getvalue())


@settings(max_examples=40, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutant=mutants(BUNDLED))
def test_mutant_loads_or_fails_cleanly(tmp_path, mutant):
    doc, added = mutant
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc))
    try:
        load_bundle(spec)
    except SpecError:
        pass
    for command in ("cost", "power", "perf", "phy"):
        assert_clean_exit([command, "--spec", str(spec), "--out", str(tmp_path / command)], added)


@settings(max_examples=40, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutant=mutants(FLOORPLAN))
def test_floorplan_mutant_runs_or_fails_cleanly(tmp_path, mutant):
    doc, added = mutant
    floorplan = tmp_path / "floorplan.json"
    floorplan.write_text(json.dumps(doc))
    assert_clean_exit(["thermal", "--spec", BUNDLED_PATH, "--floorplan", str(floorplan),
                       "--resolution", "2", "--out", str(tmp_path / "thermal")], added)
