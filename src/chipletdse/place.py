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
from typing import Protocol

from .model import (AnnealConfig, ChipletdseError, Floorplan, PackageSpec, PlacedChiplet,
                    ValidationError, footprint, links_from_spec)
from . import thermal


class PlacementError(ChipletdseError, RuntimeError):
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
    """min(1, exp((cost_current - cost_neighbor)/K)); improving moves always accepted.
    The exponent is clamped at 0, so a tiny decayed K cannot overflow ``exp``."""
    if k <= 0:
        raise PlacementError("acceptance scale K must be > 0")
    return math.exp(min(0.0, (cost_current - cost_neighbor) / k))


# ---------------------------------------------------------------------------
# Initial placement: deterministic binary-space-partition packing


def bst_placement(spec: PackageSpec) -> Floorplan:
    """Pack chiplets in declaration order into a binary-partitioned interposer.

    The free space is a list of rectangles in the order the partition makes
    them. Each chiplet, with its spacing halo, takes the first one it fits,
    which is replaced in place by the strip to the chiplet's right and the strip
    above it. The result is the deterministic baseline the annealer starts from.
    """
    s = spec.min_spacing_mm
    free = [(s / 2.0, s / 2.0, spec.interposer_width_mm - s, spec.interposer_height_mm - s)]
    placements = []
    for c in spec.chiplets:
        w, h = c.width_mm + s, c.height_mm + s
        i = next((i for i, (_, _, fw, fh) in enumerate(free)
                  if w <= fw + 1e-9 and h <= fh + 1e-9), None)
        if i is None:
            raise PlacementError(
                f"chiplet {c.name!r} does not fit: interposer "
                f"{spec.interposer_width_mm}x{spec.interposer_height_mm} mm is too small")
        x, y, fw, fh = free[i]
        free[i:i + 1] = [(x + w, y, fw - w, h), (x, y + h, fw, fh - h)]
        placements.append(PlacedChiplet(
            c.name, x + s / 2.0, y + s / 2.0, 0, c.width_mm, c.height_mm, c.power_w))
    fp = Floorplan(
        spec.interposer_width_mm, spec.interposer_height_mm, tuple(placements),
        links=links_from_spec(spec), min_spacing_mm=s)
    fp.validate()
    return fp


# ---------------------------------------------------------------------------
# Random draws

_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG's default 128-bit LCG multiplier


class Draws(Protocol):
    """The two draws a move makes: ``integers(low, high)``, uniform on
    [low, high), and ``random()``, uniform on [0, 1). A numpy Generator has both."""

    def integers(self, low: int, high: int) -> int: ...

    def random(self) -> float: ...


def _hasher(const: int, mult: int):
    """SeedSequence's 32-bit hashmix, whose constant advances by ``mult`` per call."""
    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * mult & _M32
        value = value * const & _M32
        return value ^ value >> 16
    return hashmix


def _seed_state(seed: int) -> list[int]:
    """``np.random.SeedSequence(seed).generate_state(4, np.uint64)`` for an int seed >= 0."""
    words = [seed >> shift & _M32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    hashmix = _hasher(0x43B0D7E5, 0x931E8875)

    def mix(x: int, y: int) -> int:
        x = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return x ^ x >> 16

    # the entropy pool: four words, each mixed with every other and then with
    # every seed word past the fourth
    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    # eight 32-bit words drawn from the pool, read as four little-endian uint64s
    draw = _hasher(0x8B51F9DD, 0x58F38DED)
    state = [draw(pool[i % 4]) for i in range(8)]
    return [state[i] | state[i + 1] << 32 for i in range(0, 8, 2)]


class _Pcg64:
    """``np.random.default_rng(seed)``'s stream for the draws the annealer
    makes, bit for bit, without loading numpy.random (6 MB for two draws) and
    whatever numpy version is installed (NEP 19 lets its streams change).

    ``_seed_state(seed)`` seeds a PCG64: a 128-bit LCG whose 64-bit outputs
    are XSL-RR of the stepped state. ``integers`` is numpy's Lemire rejection
    on 32-bit draws, each 64-bit output serving two (low half first);
    ``random`` is the top 53 bits of one output.
    """

    __slots__ = ("_state", "_inc", "_half")

    def __init__(self, seed: int):
        s = _seed_state(seed)
        # pcg64_srandom_r(s[0]:s[1], s[2]:s[3]), each 128-bit value high word first
        self._inc = (s[2] << 64 | s[3]) << 1 & _M128 | 1
        self._state = ((self._inc + (s[0] << 64 | s[1])) * _PCG_MULT + self._inc) & _M128
        self._half: int | None = None

    def _next64(self) -> int:
        s = self._state = (self._state * _PCG_MULT + self._inc) & _M128
        x, rot = ((s >> 64) ^ s) & _M64, s >> 122
        return ((x >> rot) | (x << (64 - rot))) & _M64

    def random(self) -> float:
        return (self._next64() >> 11) * 2.0 ** -53

    def integers(self, low: int, high: int) -> int:
        n = high - low
        if not 0 < n <= _M32:  # numpy takes 2**32 and above by other methods
            raise ValueError(f"integers: high - low must be in [1, 2**32), got {n}")
        if n == 1:
            return low
        m = self._next32() * n
        if (m & _M32) < n:
            floor = (1 << 32) % n  # rejecting below it leaves every value equally likely
            while (m & _M32) < floor:
                m = self._next32() * n
        return low + (m >> 32)

    def _next32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        value = self._next64()
        self._half = value >> 32
        return value & _M32


# ---------------------------------------------------------------------------
# Moves


RETRY_CAP = 200  # proposals drawn per move before the board counts as congested
WARMUP_SAMPLES = 20  # random neighbours that seed the normalization bounds
PERSISTENCE = 5  # consecutive epochs the |dT| < tol_c test must hold
SCORE_GUARD_C = 1e-9  # how far a move score may lie from its plan's guarded full solve


def propose_move(fp: Floorplan, rng: Draws) -> Floorplan:
    """One random legal move: translate, rotate 90 degrees, or swap two chiplets.

    ``rng`` needs two methods (``Draws``): ``integers(low, high)`` picks the
    move kind and the chiplets, and ``random()`` the translation.

    Translation magnitude is log-uniform between 1% and 100% of an eighth of
    the longer interposer side, so tightly packed boards still find legal
    small moves. Invalid proposals are re-drawn up to ``RETRY_CAP`` times; if
    none is legal the floorplan is considered too congested. fp must be legal:
    legality is decided on the moved rows' boxes (``Floorplan.admits``) before
    any row is built, and only the proposal returned builds its moved rows.
    """
    step_mm = max(fp.width_mm, fp.height_mm) / 8.0
    n = len(fp.placements)
    for _ in range(RETRY_CAP):
        kind = rng.integers(0, 3 if n >= 2 else 2)
        i = int(rng.integers(0, n))  # every kind's first draw: the chiplet to move
        p = fp.placements[i]
        if kind == 0:  # translate
            # lo + (hi - lo) * rng.random() is numpy's definition of rng.uniform(lo, hi),
            # which TestProposeMoveReference compares against; _Pcg64 has no uniform
            magnitude = step_mm * 10.0 ** (-2.0 + 2.0 * rng.random())
            angle = 2.0 * math.pi * rng.random()
            moves = {i: (p, p.x_mm + magnitude * math.cos(angle),
                         p.y_mm + magnitude * math.sin(angle), p.rotation_deg)}
        elif kind == 1:  # rotate 90 degrees about the footprint center
            if p.width_mm == p.height_mm:
                continue  # no-op rotation, not a move
            cx, cy = p.center
            # a quarter turn swaps the effective width and height
            moves = {i: (p, cx - p.eff_height / 2.0, cy - p.eff_width / 2.0,
                         (p.rotation_deg + 90) % 360)}
        else:  # swap anchor positions of two chiplets
            j = int(rng.integers(0, n - 1))
            if j >= i:
                j += 1
            q = fp.placements[j]
            moves = {i: (p, q.x_mm, q.y_mm, p.rotation_deg),
                     j: (q, p.x_mm, p.y_mm, q.rotation_deg)}
        if fp.admits({k: footprint(x, y, row.width_mm, row.height_mm, rot)[2]
                      for k, (row, x, y, rot) in moves.items()}):
            placements = list(fp.placements)
            for k, (row, x, y, rot) in moves.items():
                placements[k] = PlacedChiplet(row.name, x, y, rot, row.width_mm, row.height_mm,
                                              row.power_w)
            # built directly, as the rows are: ``replace`` is slow on the per-move path
            return Floorplan(fp.width_mm, fp.height_mm, tuple(placements), fp.links,
                             fp.min_spacing_mm)
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


def _score(fp: Floorplan, stack, grid: thermal.Grid) -> tuple[float, float]:
    """(``thermal.plan_peak``, wirelength) of a legal move, on ``_start``'s checked coarse
    grid: no second check, and the chiplet layer alone (``thermal.chiplet_peak``)."""
    return thermal.chiplet_peak(thermal._rasterize(fp, grid), stack), wirelength(fp)


def _start(spec: PackageSpec, cfg: AnnealConfig) -> tuple[Floorplan, thermal.Grid]:
    """The packed plan and its coarse grid, once the plan rasterizes and the sink covers
    a cell centre on both grids. Moves keep the package and the chiplets' sides."""
    plan, grids = bst_placement(spec), []
    for cell_mm in (cfg.coarse_cell_mm, cfg.fine_cell_mm):
        grids.append(thermal.rasterize(plan, cell_mm).grid)
        grids[-1].cooled(spec.stack.sink_side_mm)
    return plan, grids[0]


def optimize(spec: PackageSpec, cfg: AnnealConfig = AnnealConfig()) -> AnnealResult:
    """Anneal the chiplet placement, minimizing blended peak-T / wirelength cost.

    Deterministic for a fixed (spec, config): the RNG stream, move order,
    and accept decisions are fully seeded. The stream is the one
    ``np.random.default_rng(cfg.seed)`` would give (``_Pcg64``).
    """
    rng = _Pcg64(cfg.seed)
    stack = spec.stack
    current, coarse = _start(spec, cfg)

    if len(current.placements) == 1:
        p = current.placements[0]
        centered = replace(current, placements=(replace(
            p, x_mm=(current.width_mm - p.width_mm) / 2.0,
            y_mm=(current.height_mm - p.height_mm) / 2.0),))
        t, w = thermal.plan_peak(centered, stack, cfg.coarse_cell_mm), wirelength(centered)
        row = HistoryRow(0, t, w, 0.0, cfg.k0)
        return AnnealResult(centered, (row,), t,
                            thermal.plan_peak(centered, stack, cfg.fine_cell_mm), True)

    bounds = NormalizationBounds()
    t0, w0 = thermal.plan_peak(current, stack, cfg.coarse_cell_mm), wirelength(current)
    bounds.update(t0, w0)

    # warm-up: sample random neighbours to seed the min-max bounds
    for _ in range(WARMUP_SAMPLES):
        try:
            probe = propose_move(current, rng)
        except PlacementError:
            break
        bounds.update(*_score(probe, stack, coarse))

    cur_t, cur_w = t0, w0
    # every state the chain visits; "best" is chosen under the final bounds
    visited: list[tuple[Floorplan, float, float]] = [(current, cur_t, cur_w)]

    history: list[HistoryRow] = []
    prev_peak = cur_t
    stable_epochs = 0
    converged = False

    for it in range(cfg.max_iterations):
        # a K that underflows to 0 takes its K -> 0+ limit: only no-worse moves pass
        k = max(cfg.k0 * cfg.decay ** it, math.ulp(0.0))
        for _ in range(cfg.moves_per_iteration):
            try:
                neighbor = propose_move(current, rng)
            except PlacementError:
                break  # no legal move from here: the epoch ends, as the warm-up does
            nb_t, nb_w = _score(neighbor, stack, coarse)
            bounds.update(nb_t, nb_w)
            cur_cost = anneal_cost(cur_t, cur_w, bounds)
            nb_cost = anneal_cost(nb_t, nb_w, bounds)
            if rng.random() < acceptance_probability(cur_cost, nb_cost, k):
                current, cur_t, cur_w = neighbor, nb_t, nb_w
                visited.append((current, cur_t, cur_w))
        # once per epoch the full field: residual-checked, and the score must agree
        full_t = thermal.plan_peak(current, stack, cfg.coarse_cell_mm)
        if not abs(full_t - cur_t) <= SCORE_GUARD_C:
            raise PlacementError(f"epoch {it}: move score {cur_t!r} C disagrees with "
                                 f"the full solve's {full_t!r} C")
        history.append(HistoryRow(it, cur_t, cur_w,
                                  anneal_cost(cur_t, cur_w, bounds), k))
        if it > 0 and abs(cur_t - prev_peak) < cfg.tol_c:
            stable_epochs += 1
            if stable_epochs >= PERSISTENCE:
                converged = True
                break
        else:
            stable_epochs = 0
        prev_peak = cur_t

    best, _, _ = min(visited, key=lambda entry: anneal_cost(entry[1], entry[2], bounds))
    return AnnealResult(best, tuple(history), t0,
                        thermal.plan_peak(best, stack, cfg.fine_cell_mm), converged)


# ---------------------------------------------------------------------------
# Calibration and sweeps


def calibrate_k(
    spec: PackageSpec, k_candidates: list[float], cfg: AnnealConfig = AnnealConfig()
) -> list[AnnealResult]:
    """Run the annealer once per K0 candidate with a shared seed; one result each.
    Every candidate is checked before the first one anneals."""
    if not k_candidates:
        raise PlacementError("need at least one K candidate")
    bad = next((i for i, k0 in enumerate(k_candidates) if not 0 < k0 < math.inf), None)
    if bad is not None:
        raise PlacementError(f"k[{bad}]: must be > 0 and finite")
    return [optimize(spec, replace(cfg, k0=k0)) for k0 in k_candidates]


def interposer_sweep(
    spec: PackageSpec, side_lengths_mm: list[float], cfg: AnnealConfig = AnnealConfig()
) -> list[AnnealResult | None]:
    """Anneal once per square interposer side: one result per side, in order,
    None where the side is infeasible (too small for the chiplets' footprint
    budget, or for the packer). A side that is not > 0 and finite is an error,
    and so is any error raised while annealing a side that packs; a packed
    side where no move is legal anneals from its packed plan. Every side, and its
    packed plan on both grids (``_start``), is checked before any side anneals.
    """
    bad = next((i for i, side in enumerate(side_lengths_mm) if not 0 < side < math.inf), None)
    if bad is not None:
        raise PlacementError(f"sides[{bad}]: must be > 0 and finite")
    # plans not reused: every side is checked before any anneals, each in one optimize call
    packed = {}
    for side in side_lengths_mm:
        try:
            sized = replace(spec, interposer_width_mm=side, interposer_height_mm=side)
            _start(sized, cfg)
        except (PlacementError, ValidationError):
            continue
        packed[side] = sized
    return [optimize(packed[side], cfg) if side in packed else None for side in side_lengths_mm]
