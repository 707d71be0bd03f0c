"""The callables and attributes that perfbench/traced.py reads must still exist.

traced.py wraps each TARGETS entry by (module, attribute path) and reports a
missing one only as an absent span, so a rename would silently drop its
per-layer metric. The check resolves each path with getattr alone: installing
the tracer would leave every target wrapped for the tests that run after it.
"""

import importlib
import importlib.util
from dataclasses import replace
from pathlib import Path

from chipletdse import place, thermal

TRACED = Path(__file__).resolve().parents[1] / "perfbench" / "traced.py"


def traced_module():
    spec = importlib.util.spec_from_file_location("perfbench_traced", TRACED)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves():
    unresolved = []
    for name, (module_name, path) in traced_module().TARGETS.items():
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


def test_tracer_names_each_thermal_solve(infotainment):
    """The tracer splits thermal.solve spans by the power map's nx, ny and cell_mm;
    without them every solve falls into the unclassified thermal.solve bucket and
    the full- and partial-sink solve times read null."""
    tracer = traced_module().Tracer()

    def names(package):
        pm = thermal.rasterize(place.bst_placement(package), 1.0)
        return [tracer._solve_name((pm, package.stack), {}) for _ in range(2)]

    assert names(infotainment) == ["thermal.setup", "thermal.solve_full"]
    wide = replace(infotainment, interposer_width_mm=50.0, interposer_height_mm=50.0)
    assert names(wide) == ["thermal.setup", "thermal.solve_partial"]
