"""The callables that perfbench/traced.py times must still exist.

traced.py wraps each TARGETS entry by (module, attribute path) and reports a
missing one only as an absent span, so a rename would silently drop its
per-layer metric. The check resolves each path with getattr alone: installing
the tracer would leave every target wrapped for the tests that run after it.
"""

import importlib
import importlib.util
from pathlib import Path

TRACED = Path(__file__).resolve().parents[1] / "perfbench" / "traced.py"


def traced_targets() -> dict[str, tuple[str, str]]:
    spec = importlib.util.spec_from_file_location("perfbench_traced", TRACED)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_trace_target_resolves():
    unresolved = []
    for name, (module_name, path) in traced_targets().items():
        owner = importlib.import_module(module_name)
        try:
            for part in path.split("."):
                owner = getattr(owner, part)
        except AttributeError:
            unresolved.append(name)
            continue
        if not callable(owner):
            unresolved.append(name)
    assert not unresolved, f"perfbench trace targets that no longer resolve: {unresolved}"
