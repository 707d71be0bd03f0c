"""Random mutations of the bundled spec.

Each mutant either loads or raises SpecError, and the report commands on it
exit 0, or exit 1 with a single `error:` line; nothing else escapes.
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
from chipletdse.model import SpecError, load_bundle

BUNDLED = json.loads(Path(chipletdse.bundled_spec_path()).read_text())

# st.floats() draws NaN and +-Infinity too, which json writes and reads back
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                 max_size=3),
    max_leaves=4)


@st.composite
def mutants(draw):
    """The bundled spec with one key, at any depth, set to a JSON value or deleted."""
    doc = copy.deepcopy(BUNDLED)
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


@settings(max_examples=40, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=mutants())
def test_mutant_loads_or_fails_cleanly(tmp_path, doc):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc))
    try:
        load_bundle(spec)
    except SpecError:
        pass
    for command in ("cost", "power", "perf", "phy"):
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            status = main([command, "--spec", str(spec), "--out", str(tmp_path / command)])
        assert status == 0 or (status == 1 and err.getvalue().startswith("error: ")
                               and err.getvalue().count("\n") == 1), (command, err.getvalue())
