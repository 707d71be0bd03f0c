"""Thermally-aware simulated-annealing chiplet placement on the interposer.

The annealing cost blends min-max-normalized peak temperature and weighted
Manhattan wirelength; the temperature weight grows with peak temperature
and vanishes below 60 C. Acceptance uses exp(-dCost/K) with a geometric
decay of K. The initial placement is a deterministic binary-space-partition
packing in chiplet declaration order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .model import AnnealConfig, Floorplan, PackageSpec, PlacedChiplet, links_from_spec
from . import thermal


class PlacementError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Wirelength and cost function


def wirelength(fp: Floorplan) -> float:
    """Weighted Manhattan center-to-center wirelength, mm."""
    total = 0.0
    centers = {p.name: p.center for p in fp.placements}
    for a, b, w in fp.links:
        (ax, ay), (bx, by) = centers[a], centers[b]
        total += w * (abs(ax - bx) + abs(ay - by))
    return total


ALPHA_ONSET_C = 60.0
ALPHA_PIVOT_C = 45.0
ALPHA_CAP = 0.9


def alpha_for(t: float) -> float:
    """Temperature weight: 0 at or below 60 C, min{0.1 + (T-45)/100, 0.9} above."""
    if t <= ALPHA_ONSET_C:
        return 0.0
    return min(0.1 + (t - ALPHA_PIVOT_C) / 100.0, ALPHA_CAP)


@dataclass
class NormalizationBounds:
    """Running min/max of peak temperature and wirelength for min-max scaling."""

    t_min: float = math.inf
    t_max: float = -math.inf
    w_min: float = math.inf
    w_max: float = -math.inf

    def update(self, t: float, w: float) -> None:
        self.t_min = min(self.t_min, t)
        self.t_max = max(self.t_max, t)
        self.w_min = min(self.w_min, w)
        self.w_max = max(self.w_max, w)


def _normalized(value: float, lo: float, hi: float) -> float:
    # A degenerate bound (max == min, or nothing observed yet) contributes 0.
    if not (hi > lo) or math.isinf(lo):
        return 0.0
    return (min(max(value, lo), hi) - lo) / (hi - lo)


def anneal_cost(t: float, w: float, nb: NormalizationBounds) -> float:
    """alpha * T_norm + (1 - alpha) * W_norm, in [0, 1]."""
    alpha = alpha_for(t)
    return (alpha * _normalized(t, nb.t_min, nb.t_max)
            + (1.0 - alpha) * _normalized(w, nb.w_min, nb.w_max))


def acceptance_probability(cost_current: float, cost_neighbor: float, k: float) -> float:
    """min(1, exp((cost_current - cost_neighbor)/K)); improving moves always accepted."""
    if k <= 0:
        raise PlacementError("acceptance scale K must be > 0")
    return min(1.0, math.exp((cost_current - cost_neighbor) / k))


# ---------------------------------------------------------------------------
# Initial placement: deterministic binary-space-partition packing


class _BspNode:
    __slots__ = ("x", "y", "w", "h", "used", "right", "top")

    def __init__(self, x: float, y: float, w: float, h: float):
        self.x, self.y, self.w, self.h = x, y, w, h
        self.used = False
        self.right: _BspNode | None = None
        self.top: _BspNode | None = None

    def insert(self, w: float, h: float) -> tuple[float, float] | None:
        if self.used:
            pos = self.right.insert(w, h) if self.right else None
            if pos is None and self.top:
                pos = self.top.insert(w, h)
            return pos
        if w > self.w + 1e-9 or h > self.h + 1e-9:
            return None
        self.used = True
        self.right = _BspNode(self.x + w, self.y, self.w - w, h)
        self.top = _BspNode(self.x, self.y + h, self.w, self.h - h)
        return (self.x, self.y)


def bst_placement(spec: PackageSpec) -> Floorplan:
    """Pack chiplets in declaration order into a binary-partitioned interposer.

    Each chiplet is inserted with its spacing halo; the result is the
    deterministic baseline the annealer starts from.
    """
    s = spec.min_spacing
    root = _BspNode(s / 2.0, s / 2.0, spec.interposer_width - s, spec.interposer_height - s)
    placements = []
    for c in spec.chiplets:
        pos = root.insert(c.width + s, c.height + s)
        if pos is None:
            raise PlacementError(
                f"chiplet {c.name!r} does not fit: interposer "
                f"{spec.interposer_width}x{spec.interposer_height} mm is too small")
        placements.append(PlacedChiplet(
            c.name, pos[0] + s / 2.0, pos[1] + s / 2.0, 0, c.width, c.height, c.power))
    fp = Floorplan(
        spec.interposer_width, spec.interposer_height, tuple(placements),
        links=links_from_spec(spec), min_spacing=s)
    fp.validate()
    return fp


# ---------------------------------------------------------------------------
# Moves


RETRY_CAP = 200  # proposals drawn per move before the board counts as congested
WARMUP_SAMPLES = 20  # random neighbours that seed the normalization bounds
PERSISTENCE = 5  # consecutive epochs the |dT| < tol test must hold


def propose_move(fp: Floorplan, rng: np.random.Generator) -> Floorplan:
    """One random legal move: translate, rotate 90 degrees, or swap two chiplets.

    Translation magnitude is log-uniform between 1% and 100% of an eighth of
    the longer interposer side, so tightly packed boards still find legal
    small moves. Invalid proposals are re-drawn up to ``RETRY_CAP`` times; if
    none is legal the floorplan is considered too congested.
    """
    step_mm = max(fp.width, fp.height) / 8.0
    n = len(fp.placements)
    for _ in range(RETRY_CAP):
        kind = rng.integers(0, 3 if n >= 2 else 2)
        i = int(rng.integers(0, n))  # every kind's first draw: the chiplet to move
        placements = list(fp.placements)
        p = placements[i]
        if kind == 0:  # translate
            magnitude = step_mm * 10.0 ** rng.uniform(-2.0, 0.0)
            angle = rng.uniform(0.0, 2.0 * math.pi)
            placements[i] = replace(p, x=p.x + magnitude * math.cos(angle),
                                    y=p.y + magnitude * math.sin(angle))
        elif kind == 1:  # rotate 90 degrees about the footprint center
            if p.width == p.height:
                continue  # no-op rotation, not a move
            cx, cy = p.center
            # a quarter turn swaps the effective width and height
            placements[i] = replace(p, rotation=(p.rotation + 90) % 360,
                                    x=cx - p.eff_height / 2.0, y=cy - p.eff_width / 2.0)
        else:  # swap anchor positions of two chiplets
            j = int(rng.integers(0, n - 1))
            if j >= i:
                j += 1
            q = placements[j]
            placements[i], placements[j] = replace(p, x=q.x, y=q.y), replace(q, x=p.x, y=p.y)
        cand = replace(fp, placements=tuple(placements))
        if cand.is_valid():
            return cand
    raise PlacementError(f"floorplan too congested: no legal move in {RETRY_CAP} attempts")


# ---------------------------------------------------------------------------
# Annealing


@dataclass(frozen=True)
class HistoryRow:
    iteration: int
    peak_t: float
    wirelength: float
    cost: float
    k: float


@dataclass(frozen=True)
class AnnealResult:
    floorplan: Floorplan
    history: tuple[HistoryRow, ...]
    initial_peak_t: float
    final_peak_t: float  # fine-grid solve on the returned plan
    converged: bool

    @property
    def iterations(self) -> int:
        return len(self.history)


def _evaluate(fp: Floorplan, stack, cell_mm: float) -> tuple[float, float]:
    """(peak chiplet temperature on a cell_mm grid, wirelength)."""
    pm = thermal.rasterize(fp, cell_mm)
    tf = thermal.solve_steady_state(pm, stack)
    return thermal.peak_temperature(tf), wirelength(fp)


def optimize(spec: PackageSpec, cfg: AnnealConfig = AnnealConfig()) -> AnnealResult:
    """Anneal the chiplet placement, minimizing blended peak-T / wirelength cost.

    Deterministic for a fixed (spec, config): the RNG stream, move order,
    and accept decisions are fully seeded.
    """
    rng = np.random.default_rng(cfg.seed)
    stack = spec.stack
    current = bst_placement(spec)

    if len(spec.chiplets) == 1:
        c = spec.chiplets[0]
        centered = Floorplan(
            spec.interposer_width, spec.interposer_height,
            (PlacedChiplet(c.name, (spec.interposer_width - c.width) / 2.0,
                           (spec.interposer_height - c.height) / 2.0,
                           0, c.width, c.height, c.power),),
            links=(), min_spacing=spec.min_spacing)
        t, w = _evaluate(centered, stack, cfg.coarse_cell_mm)
        row = HistoryRow(0, t, w, 0.0, cfg.k0)
        return AnnealResult(centered, (row,), t,
                            _evaluate(centered, stack, cfg.fine_cell_mm)[0], True)

    bounds = NormalizationBounds()
    t0, w0 = _evaluate(current, stack, cfg.coarse_cell_mm)
    initial_peak = t0
    bounds.update(t0, w0)

    # warm-up: sample random neighbours to seed the min-max bounds
    for _ in range(WARMUP_SAMPLES):
        try:
            probe = propose_move(current, rng)
        except PlacementError:
            break
        bounds.update(*_evaluate(probe, stack, cfg.coarse_cell_mm))

    cur_t, cur_w = t0, w0
    # every state the chain visits; "best" is chosen under the final bounds
    visited: list[tuple[Floorplan, float, float]] = [(current, cur_t, cur_w)]

    history: list[HistoryRow] = []
    prev_peak = cur_t
    stable_epochs = 0
    converged = False

    for it in range(cfg.max_iterations):
        k = cfg.k0 * cfg.decay ** it
        for _ in range(cfg.moves_per_iteration):
            neighbor = propose_move(current, rng)
            nb_t, nb_w = _evaluate(neighbor, stack, cfg.coarse_cell_mm)
            bounds.update(nb_t, nb_w)
            cur_cost = anneal_cost(cur_t, cur_w, bounds)
            nb_cost = anneal_cost(nb_t, nb_w, bounds)
            if rng.random() < acceptance_probability(cur_cost, nb_cost, k):
                current, cur_t, cur_w = neighbor, nb_t, nb_w
                visited.append((current, cur_t, cur_w))
        history.append(HistoryRow(it, cur_t, cur_w,
                                  anneal_cost(cur_t, cur_w, bounds), k))
        if it > 0 and abs(cur_t - prev_peak) < cfg.tol:
            stable_epochs += 1
            if stable_epochs >= PERSISTENCE:
                converged = True
                break
        else:
            stable_epochs = 0
        prev_peak = cur_t

    best, _, _ = min(visited, key=lambda entry: anneal_cost(entry[1], entry[2], bounds))
    best.validate()
    return AnnealResult(best, tuple(history), initial_peak,
                        _evaluate(best, stack, cfg.fine_cell_mm)[0], converged)


# ---------------------------------------------------------------------------
# Calibration and sweeps


@dataclass(frozen=True)
class KCalibrationRow:
    k0: float
    iterations: int
    final_peak_t: float


def calibrate_k(
    spec: PackageSpec, k_candidates: list[float], cfg: AnnealConfig = AnnealConfig()
) -> list[KCalibrationRow]:
    """Run the annealer once per K0 candidate with a shared seed."""
    if not k_candidates:
        raise PlacementError("need at least one K candidate")
    rows = []
    for k0 in k_candidates:
        result = optimize(spec, replace(cfg, k0=k0))
        rows.append(KCalibrationRow(k0, result.iterations, result.final_peak_t))
    return rows


@dataclass(frozen=True)
class SweepRow:
    side_mm: float
    area_mm2: float
    peak_t: float | None
    feasible: bool


def interposer_sweep(
    spec: PackageSpec, side_lengths_mm: list[float], cfg: AnnealConfig = AnnealConfig()
) -> list[SweepRow]:
    """Optimized peak temperature per square interposer side length."""
    rows = []
    for side in side_lengths_mm:
        try:
            sized = spec.with_interposer(side, side)
            result = optimize(sized, cfg)
        except (PlacementError, ValueError):
            rows.append(SweepRow(side, side * side, None, False))
            continue
        rows.append(SweepRow(side, side * side, result.final_peak_t, True))
    return rows
