"""Run one chipletdse CLI command with spans around each layer's public calls.

Usage: python3 perfbench/traced.py SPANS_JSON CLI_ARGS...

Wraps the public functions listed in TARGETS (from this file, not from the
package), calls ``chipletdse.cli.main(CLI_ARGS)`` and, when it returns,
writes every span as [name, start, end, parent index, returned normally]
to SPANS_JSON together with the import time of ``chipletdse.cli`` and the
targets that no longer exist. Exits with the command's status.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# span name -> (module, attribute path) of the wrapped callable
TARGETS = {
    "cli.main": ("chipletdse.cli", "main"),
    "model.load_bundle": ("chipletdse.model", "load_bundle"),
    "model.validate": ("chipletdse.model", "Floorplan.validate"),
    "place.is_valid": ("chipletdse.model", "Floorplan.is_valid"),
    "place.optimize": ("chipletdse.place", "optimize"),
    "place.propose_move": ("chipletdse.place", "propose_move"),
    "place.wirelength": ("chipletdse.place", "wirelength"),
    "thermal.rasterize": ("chipletdse.thermal", "rasterize"),
    "thermal.solve": ("chipletdse.thermal", "solve_steady_state"),
    "costyield.package_cost": ("chipletdse.costyield", "package_cost"),
    "power.system_power": ("chipletdse.power", "system_power"),
    "perf.rank_configs": ("chipletdse.perf", "rank_configs"),
    "phy.bandwidth_curve": ("chipletdse.phy", "bandwidth_curve"),
    "svgout.floorplan_svg": ("chipletdse.svgout", "floorplan_svg"),
}


class Tracer:
    """Spans in memory: [name, start, end, parent index, ok]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []
        self._geometries: set = set()

    def wrap(self, name: str, fn):
        namer = self._solve_name if name == "thermal.solve" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [namer(args, kwargs) if namer else name, time.perf_counter(), None,
                    self._open[-1] if self._open else -1, False]
            self.spans.append(span)
            self._open.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
                span[4] = True
                return result
            finally:
                span[2] = time.perf_counter()
                self._open.pop()

        return traced

    def _solve_name(self, args, kwargs) -> str:
        """thermal.setup for the first solve on a grid geometry, else full/partial sink."""
        try:
            pm = args[0] if args else kwargs["pm"]
            stack = args[1] if len(args) > 1 else kwargs["stack"]
            key = (stack, pm.nx, pm.ny, pm.cell_mm)
            if key not in self._geometries:
                self._geometries.add(key)
                return "thermal.setup"
            side, cell = stack.sink_side_mm, pm.cell_mm
        except (AttributeError, IndexError, KeyError, TypeError):
            return "thermal.solve"
        # the sink is centred on the mesh and cools the cells whose centres it covers
        full = side is None or max(pm.nx - 1, pm.ny - 1) * cell / 2 <= side / 2
        return "thermal.solve_full" if full else "thermal.solve_partial"


def install(tracer: Tracer) -> list[str]:
    """Wrap every target that exists; return the names of those that do not."""
    loaded = [importlib.import_module(m) for m in sorted({m for m, _ in TARGETS.values()})]
    absent = []
    for name, (module_name, path) in TARGETS.items():
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        try:
            for part in parents:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
        except AttributeError:
            absent.append(name)
            continue
        wrapped = tracer.wrap(name, original)
        setattr(owner, attr, wrapped)
        if not parents:
            # rebind copies made by ``from module import name``
            for module in loaded:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
    return absent


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    start = time.perf_counter()
    cli = importlib.import_module("chipletdse.cli")
    import_s = time.perf_counter() - start
    tracer = Tracer()
    absent = install(tracer)
    status = cli.main(cli_args)
    with open(spans_path, "w") as fh:
        json.dump({"import_s": import_s, "absent": absent, "spans": tracer.spans}, fh)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
