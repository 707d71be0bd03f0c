"""chipletdse benchmark: three CLI workloads, timed end to end and per layer.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload anneal --seed 1 --seconds 25 --trace 0

Each operation is one ``python3 -m chipletdse.cli`` command in a fresh
process, run closed loop, one at a time, with BLAS pinned to one thread.
A run repeats whole rounds of its workload's commands until ``--seconds``
have passed, checks every output (see checks.py) and prints one JSON
object as its last line of standard output.

--trace 0 reports the end-to-end metrics: setup_s, wall_s, op_p50_s and
peak_rss_mb. --trace 1 alternates untraced and traced rounds, the traced
ones running each command through traced.py, and reports the per-layer
metrics per round plus the tracing overhead. README.md has the details.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, NamedTuple

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUNDLED = SRC / "chipletdse" / "data" / "infotainment.json"
OUT = ROOT / ".perfbench-out"

SWEEP_SIDES = [30.0, 35.0, 40.0, 45.0, 50.0]
SETUP_PROBES = 5
OP_TIMEOUT_S = 170
# The bundled annealer stops when the peak moves less than tol_c for five
# epochs, which happens after 6 to 160 epochs depending on the seed. The
# anneal workload pins every optimize to this many epochs instead.
ANNEAL_EPOCHS = 40
# The thermal_field variant: the bundled package on a larger interposer, so
# the spec's 40 mm sink covers only part of the top face.
VARIANT_SIDE_MM = 50.0

# Imports the CLI and loads the spec, then prints the system-wide monotonic
# clock, so the parent can time interpreter start to "ready to compute".
PROBE = ("import sys, time\n"
         "import chipletdse.cli\n"
         "from chipletdse.model import load_bundle\n"
         "load_bundle(sys.argv[1])\n"
         "print(time.monotonic())\n")

END_TO_END = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "cli.import_s": "s", "cli.self_s": "s",
    "model.load_bundle_s": "s", "model.validate.calls": "count", "model.validate_s": "s",
    "place.optimize.calls": "count", "place.optimize_s": "s",
    "place.propose_move.calls": "count", "place.propose_move_s": "s",
    "place.is_valid.calls": "count", "place.legal_ratio": "ratio",
    "place.wirelength.calls": "count", "place.wirelength_s": "s",
    "thermal.rasterize.calls": "count", "thermal.rasterize_s": "s",
    "thermal.setups": "count", "thermal.setup_s": "s",
    "thermal.solves": "count", "thermal.solve_full_s": "s", "thermal.solve_partial_s": "s",
    "costyield.package_cost_s": "s", "power.system_power_s": "s",
    "perf.rank_configs_s": "s", "phy.bandwidth_curve_s": "s",
    "svgout.floorplan_svg_s": "s",
    "trace.overhead_s": "s",
}


def child_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    # With OpenBLAS's default of one thread per core, one process already
    # keeps both cores of a 2-CPU machine busy.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class Op(NamedTuple):
    """One CLI command of a round and the check of its outputs."""

    name: str
    args: list[str]
    check: Callable[[str], None]  # called with the command's stdout


class Workload:
    """Writes its inputs under ``work`` and defines the commands of one round."""

    min_rounds = 1
    setup_spec = BUNDLED  # the spec the set-up probe loads

    def __init__(self, work: Path, seed: int):
        self.work, self.seed = work, seed

    def ops(self, out: Path) -> list[Op]:
        raise NotImplementedError

    def check_round(self, out: Path, first: Path) -> None:
        """Cross-command checks; ``first`` is the first round's directory."""


class Anneal(Workload):
    """place, then the 5-side sweep, with the workload seed."""

    min_rounds = 2  # a repeat with the same seed must give the same bytes

    def __init__(self, work: Path, seed: int):
        super().__init__(work, seed)
        spec = checks.load_spec(BUNDLED)
        spec["anneal"].update(tol_c=1e-9, max_iterations=ANNEAL_EPOCHS)
        self.spec_path = self.setup_spec = work / "anneal.json"
        self.spec_path.write_text(json.dumps(spec, indent=1))
        self.spec = spec

    def ops(self, out):
        common = ["--spec", str(self.spec_path), "--seed", str(self.seed)]
        sides = ",".join(f"{s:g}" for s in SWEEP_SIDES)
        return [
            Op("place", ["place", *common, "--out", str(out / "place")],
               lambda stdout: checks.check_place(out / "place", stdout, self.spec)),
            Op("sweep", ["sweep", *common, "--sides", sides, "--out", str(out / "sweep")],
               lambda stdout: checks.check_sweep(out / "sweep" / "interposer_sweep.csv",
                                                 self.spec, SWEEP_SIDES)),
        ]

    def check_round(self, out, first):
        for rel in ("place/history.csv", "place/floorplan.json", "sweep/interposer_sweep.csv"):
            checks.check_same_bytes(first / rel, out / rel)
        # the 40 mm sweep side is the same optimize as place on the 40 mm spec
        final = checks.stdout_value((out / "place.stdout").read_text(), "final_peak_t_c")
        rows = (out / "sweep" / "interposer_sweep.csv").read_text().splitlines()
        side40 = rows[1 + SWEEP_SIDES.index(40.0)]
        if side40.split(",")[2] != final:
            raise checks.CheckError(f"sweep at 40 mm ({side40}) != place final peak {final}")


class ThermalField(Workload):
    """0.5 mm field on the bundled spec, 1 mm field on the 50 mm variant."""

    def __init__(self, work: Path, seed: int):
        super().__init__(work, seed)
        self.bundled = checks.load_spec(BUNDLED)
        variant = checks.load_spec(BUNDLED)
        variant["package"].update(interposer_width_mm=VARIANT_SIDE_MM,
                                  interposer_height_mm=VARIANT_SIDE_MM)
        self.variant_path = work / "variant50.json"
        self.variant_path.write_text(json.dumps(variant, indent=1))
        self.variant = variant

    def ops(self, out):
        ops = []
        for name, path, spec, cell in (("fine", BUNDLED, self.bundled, 0.5),
                                       ("variant", self.variant_path, self.variant, 1.0)):
            csv_path = out / name / "temperature_field.csv"
            ops.append(Op(name, ["thermal", "--spec", str(path), "--resolution", f"{cell:g}",
                                 "--out", str(out / name)],
                          lambda stdout, c=csv_path, s=spec, r=cell:
                              checks.check_field(c, stdout, s, r)))
        return ops


class ReportCli(Workload):
    """cost, power, perf and phy on the bundled spec."""

    def __init__(self, work: Path, seed: int):
        super().__init__(work, seed)
        self.spec = checks.load_spec(BUNDLED)

    def ops(self, out):
        spec = ["--spec", str(BUNDLED)]
        s = self.spec
        return [
            Op("cost", ["cost", *spec, "--out", str(out / "cost")],
               lambda stdout: checks.check_cost(out / "cost" / "cost.csv", s)),
            Op("power", ["power", *spec, "--out", str(out / "power")],
               lambda stdout: checks.check_power(out / "power" / "power.csv", s)),
            Op("perf", ["perf", *spec, "--out", str(out / "perf")],
               lambda stdout: checks.check_perf(out / "perf" / "perf.csv", s)),
            Op("phy", ["phy", *spec, "--out", str(out / "phy")],
               lambda stdout: checks.check_phy(out / "phy" / "bandwidth_curve.csv", stdout, s)),
        ]


WORKLOADS = {"anneal": Anneal, "thermal_field": ThermalField, "report_cli": ReportCli}


class Runner:
    def __init__(self, workload: Workload, work: Path):
        self.workload, self.work = workload, work
        self.env = child_env()
        self.attempted = 0
        self.failed = 0
        self.round_medians: list[float] = []  # median command time of each round
        self.setups: list[float] = []

    def probe_setup(self) -> None:
        start = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", PROBE, str(self.workload.setup_spec)],
                              cwd=ROOT, env=self.env, capture_output=True, text=True,
                              timeout=OP_TIMEOUT_S, check=True)
        self.setups.append(float(proc.stdout.strip()) - start)

    def round(self, index: int, traced: bool) -> tuple[float, Path, bool]:
        """Run one round; return its wall time (the sum of its commands'
        times), its directory and whether every command succeeded."""
        out = self.work / f"round{index}"
        out.mkdir()
        times = []
        ok = True
        for op in self.workload.ops(out):
            argv = [sys.executable, "-m", "chipletdse.cli", *op.args]
            if traced:
                argv = [sys.executable, str(HERE / "traced.py"),
                        str(out / f"{op.name}.spans.json"), *op.args]
            self.attempted += 1
            start = time.perf_counter()
            proc = subprocess.run(argv, cwd=ROOT, env=self.env, capture_output=True,
                                  text=True, timeout=OP_TIMEOUT_S)
            elapsed = time.perf_counter() - start
            times.append(elapsed)
            (out / f"{op.name}.stdout").write_text(proc.stdout)
            if proc.returncode != 0:
                self.failed += 1
                ok = False
                print(f"{op.name} exited {proc.returncode}: {proc.stderr.strip()[-400:]}",
                      file=sys.stderr)
                continue
            op.check(proc.stdout)
            print(f"round {index}{' traced' if traced else ''}: {op.name} {elapsed:.3f} s",
                  file=sys.stderr)
        self.round_medians.append(statistics.median(times))
        return sum(times), out, ok

    def rounds(self, seconds: float, traced_every_other: bool) -> tuple[list[float], list[float], list[Path]]:
        """Whole rounds until ``seconds`` have passed; returns (untraced walls, traced walls, traced dirs).

        Untraced runs probe the set-up time before every round, and at the
        end as often as needed to reach SETUP_PROBES, so the probes sample
        the whole run.
        """
        plain, traced, traced_dirs = [], [], []
        first = None
        start = time.perf_counter()
        index = 0
        while True:
            is_traced = traced_every_other and index % 2 == 1
            if not traced_every_other:
                self.probe_setup()
            wall, out, ok = self.round(index, is_traced)
            if first is None:
                first = out if ok else None
            elif ok:
                self.workload.check_round(out, first)
            (traced if is_traced else plain).append(wall)
            if is_traced:
                traced_dirs.append(out)
            index += 1
            done = time.perf_counter() - start >= seconds and index >= self.workload.min_rounds
            if done and not (traced_every_other and index % 2 == 1):
                break
        while not traced_every_other and len(self.setups) < SETUP_PROBES:
            self.probe_setup()
        return plain, traced, traced_dirs


def layer_metrics(span_files: list[Path], rounds: int) -> tuple[dict[str, float | None], int]:
    """Per-round layer metrics from the traced processes' span files."""
    calls: dict[str, int] = {}
    busy: dict[str, float] = {}
    absent: set[str] = set()
    imports, loads = [], []
    cli_self = 0.0
    legal = checked = 0
    for path in span_files:
        doc = json.loads(path.read_text())
        imports.append(doc["import_s"])
        absent.update(doc["absent"])
        spans = doc["spans"]
        child_time = [0.0] * len(spans)
        load = 0.0
        for name, start, end, parent, ok in spans:
            calls[name] = calls.get(name, 0) + 1
            busy[name] = busy.get(name, 0.0) + (end - start)
            if parent >= 0:
                child_time[parent] += end - start
                if name == "place.is_valid" and spans[parent][0] == "place.propose_move":
                    checked += 1
            if name == "place.propose_move" and ok:
                legal += 1
            if name == "model.load_bundle":
                load += end - start
        loads.append(load)
        cli_self += sum(end - start - child_time[i]
                        for i, (name, start, end, _, _) in enumerate(spans) if name == "cli.main")

    def per_round(value):
        return value / rounds

    solve_kinds = ("thermal.solve_full", "thermal.solve_partial", "thermal.solve")
    metrics: dict[str, float | None] = {
        "cli.import_s": statistics.median(imports),
        "cli.self_s": per_round(cli_self),
        "model.load_bundle_s": statistics.median(loads),
        "place.legal_ratio": legal / checked if checked else 0.0,
        "thermal.setups": per_round(calls.get("thermal.setup", 0)),
        "thermal.setup_s": per_round(busy.get("thermal.setup", 0.0)),
        "thermal.solves": per_round(sum(calls.get(k, 0) for k in solve_kinds)),
        "thermal.solve_full_s": per_round(busy.get("thermal.solve_full", 0.0)),
        "thermal.solve_partial_s": per_round(busy.get("thermal.solve_partial", 0.0)),
    }
    for name, unit in PER_LAYER.items():
        if name in metrics or name == "trace.overhead_s":
            continue
        span = name.removesuffix(".calls").removesuffix("_s")
        if unit == "count":
            metrics[name] = per_round(calls.get(span, 0))
        else:
            metrics[name] = per_round(busy.get(span, 0.0))

    # A wrapped function that no longer exists leaves its metrics absent.
    dependent = {
        "cli.main": ["cli.self_s"],
        "model.validate": ["model.validate.calls", "model.validate_s"],
        "place.is_valid": ["place.is_valid.calls", "place.legal_ratio"],
        "place.propose_move": ["place.legal_ratio"],
        "thermal.solve": ["thermal.setups", "thermal.setup_s", "thermal.solves",
                          "thermal.solve_full_s", "thermal.solve_partial_s"],
    }
    for name in absent:
        for metric in dependent.get(name, []) + [m for m in PER_LAYER
                                                 if m.startswith(name + ".") or m == name + "_s"]:
            metrics[metric] = None
    if calls.get("thermal.solve"):  # solves the tracer could not classify
        metrics["thermal.solve_full_s"] = metrics["thermal.solve_partial_s"] = None
    return metrics, sum(calls.values())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "chipletdse" / "cli.py").is_file():
        print(f"error: no chipletdse sources under {SRC}", file=sys.stderr)
        return 2

    work = OUT / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = WORKLOADS[args.workload](work, args.seed % 2**32)
    runner = Runner(workload, work)
    try:
        if args.trace:
            plain, traced, traced_dirs = runner.rounds(args.seconds, traced_every_other=True)
            span_files = sorted(p for d in traced_dirs for p in d.glob("*.spans.json"))
            layers, n_spans = layer_metrics(span_files, len(traced))
            layers["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
            print(f"traced rounds {len(traced)}, spans {n_spans}, "
                  f"untraced median {statistics.median(plain):.3f} s, "
                  f"traced median {statistics.median(traced):.3f} s", file=sys.stderr)
            metrics = {k: {"value": layers[k], "unit": u} for k, u in PER_LAYER.items()}
        else:
            plain, _, _ = runner.rounds(args.seconds, traced_every_other=False)
            rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
            values = {
                "setup_s": statistics.median(runner.setups),
                "wall_s": statistics.median(plain),
                # Not the pooled median: with two kinds of command per round
                # that falls in the gap between them, set by the slowest short
                # and the fastest long command alone.
                "op_p50_s": statistics.median(runner.round_medians),
                "peak_rss_mb": rss_kb / 1024.0,
            }
            print(f"rounds {len(plain)}, operations {runner.attempted}", file=sys.stderr)
            metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
        correct = True
    except (checks.CheckError, OSError, ValueError, KeyError, IndexError) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        correct, metrics = False, {}
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
