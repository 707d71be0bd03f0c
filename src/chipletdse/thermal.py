"""Compact steady-state thermal solver for the 2.5D package stack.

Each stack layer is one layer of finite-volume cells on one Grid: square cells from the
interposer's origin, each side rounded up to whole cells, so a side the cell does not divide
is meshed past its edge. Neighbouring cells exchange heat through resistances R = d/(k*A), and
the top layer with ambient through a convective h under a sink centred on the mesh; other
outer faces are adiabatic. Power enters the chiplet layer, rasterized from a floorplan.

Each layer's lateral operator is a uniform Neumann grid Laplacian, which the orthonormal 2-D
cosine (DCT-II) basis diagonalizes, so a fully cooled top face splits the stack into one
tridiagonal layer system per cosine mode, which one Thomas sweep over the layers solves for
all modes at once. A smaller sink takes the ambient conductance off k top cells: a rank-k
change, which the Woodbury identity corrects exactly through a k x k system on those cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .model import CHIPLET_LAYER, ChipletdseError, Floorplan, ThermalStack, ValidationError

MM = 1e-3

# Range check on requested grids; 0.1 mm cells on a 50 mm interposer still pass. At
# 500 x 500 the default 8-layer stack's cached responses hold 2 * 8 * 500^2 doubles, 32 MB;
# at most two grid models are cached, and a full-field solve keeps about four more
# arrays of the stack's size (8 * 500^2 doubles, 16 MB each) alive at its peak.
MAX_CELLS_PER_SIDE = 500


class ThermalError(ChipletdseError, RuntimeError):
    pass


class Grid(NamedTuple):
    """The mesh: nx x ny square cells of cell_mm, from the interposer's origin."""

    nx: int
    ny: int
    cell_mm: float  # as meshed: width / nx need not round back to it

    def edges(self) -> tuple[np.ndarray, np.ndarray]:  # along x and y, mm from the origin
        return np.arange(self.nx + 1) * self.cell_mm, np.arange(self.ny + 1) * self.cell_mm

    def cooled(self, sink_side_mm: float | None) -> np.ndarray:
        """(ny, nx) mask of the top cells whose centres the centred sink covers, or raises."""
        half = math.inf if sink_side_mm is None else sink_side_mm / 2.0
        x, y = (np.abs((np.arange(n) + 0.5) * self.cell_mm - n * self.cell_mm / 2.0) <= half
                for n in (self.nx, self.ny))
        if not (x.any() and y.any()):
            raise ThermalError("sink footprint covers no grid cells")
        return np.outer(y, x)


@dataclass(frozen=True)
class PowerMap:
    """Per-cell dissipated power (W) in the chiplet layer."""

    grid: Grid
    cells: np.ndarray  # (ny, nx), W
    # the reads of the mesh that perfbench/traced.py keys thermal setups on
    nx = property(lambda self: self.grid.nx)
    ny = property(lambda self: self.grid.ny)
    cell_mm = property(lambda self: self.grid.cell_mm)


@dataclass(frozen=True)
class TemperatureField:
    """Per-cell temperature (degrees C) for every stack layer."""

    stack: ThermalStack
    grid: Grid
    data: np.ndarray  # (n_layers, ny, nx)

    def layer(self, name: str) -> np.ndarray:
        return self.data[self.stack.layer_index(name)]


def grid_shape(width_mm: float, height_mm: float, cell_mm: float) -> Grid:
    sides = (width_mm / cell_mm - 1e-9, height_mm / cell_mm - 1e-9)
    if not all(side <= MAX_CELLS_PER_SIDE for side in sides):  # inf and NaN too, before ceil
        raise ThermalError(f"a {width_mm} x {height_mm} mm grid of {cell_mm} mm cells "
                           f"exceeds {MAX_CELLS_PER_SIDE} cells per side")
    return Grid(*(max(1, math.ceil(side)) for side in sides), cell_mm)


def _overlap(lo: np.ndarray, hi: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Length of each interval [lo, hi] inside each cell between edges, (len(lo), cells)."""
    left, right = edges[:-1], edges[1:]
    # np.clip's arithmetic without its per-call dispatch, which costs more than the clamp
    return (np.minimum(np.maximum(hi[:, None], left), right)
            - np.minimum(np.maximum(lo[:, None], left), right))


def rasterize(floorplan: Floorplan, cell_mm: float) -> PowerMap:
    """Spread each chiplet's power uniformly over the cells it covers; partial cells
    get area-weighted shares, so total power is conserved (up to float rounding).
    The one check of a plan against a grid: cell > 0, a legal plan, no chiplet
    narrower than a cell, then ``grid_shape``'s cap on cells per side."""
    if not cell_mm > 0:
        raise ThermalError(f"cell size must be > 0 mm, got {cell_mm}")
    floorplan.validate()
    small = [p.name for p in floorplan.placements if min(p.eff_width, p.eff_height) < cell_mm]
    if small:
        raise ThermalError(f"cell size {cell_mm} mm exceeds smallest dimension of "
                           f"chiplet {small[0]!r}")
    return _rasterize(floorplan, grid_shape(floorplan.width_mm, floorplan.height_mm, cell_mm))


def _rasterize(floorplan: Floorplan, grid: Grid) -> PowerMap:
    """``rasterize`` onto a grid it made for this package and these chiplets, unchecked."""
    x, y, w, h, power = np.array([(p.x_mm, p.y_mm, p.eff_width, p.eff_height, p.power_w)
                                  for p in floorplan.placements]).reshape(-1, 5).T
    x_edges, y_edges = grid.edges()
    ox, oy = _overlap(x, x + w, x_edges), _overlap(y, y + h, y_edges)
    density = power / (w * h)  # W/mm^2
    return PowerMap(grid, oy.T @ (density[:, None] * ox))


class _GridModel(NamedTuple):
    g_lat: np.ndarray  # (nl,) lateral conductance between neighbouring cells, W/K
    g_vert: np.ndarray  # (nl-1,) conductance from layer l to layer l+1, W/K
    sink: np.ndarray  # (ny, nx) top-cell conductance to ambient, W/K
    g_amb: float  # conductance to ambient of one cooled top cell, W/K
    uncooled: np.ndarray  # flat indices of the top cells outside the sink
    q_x: np.ndarray  # (nx, nx) orthonormal DCT-II basis
    q_y: np.ndarray  # (ny, ny)
    cols: np.ndarray  # (2, nl, ny, nx) per-mode inverse columns: chiplet-layer, top-layer power
    chip: int  # index of the chiplet layer


def _cosine_basis(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal DCT-II matrix Q and the eigenvalues of the n-point Neumann
    path Laplacian L, so that L = Q.T @ diag(eig) @ Q."""
    q = np.sqrt(2.0 / n) * np.cos(np.pi * np.arange(n)[:, None] * (np.arange(n) + 0.5) / n)
    q[0] = np.sqrt(1.0 / n)
    return q, 2.0 - 2.0 * np.cos(np.pi * np.arange(n) / n)


# Two geometries hold an anneal: optimize solves on its coarse and fine grids, and
# calibrate_k reuses that pair for every K0. The annealer checks its grids on the mesh
# (Grid.cooled) before the first move, so each interposer_sweep side builds its pair once.
@lru_cache(maxsize=2)
def _grid_model(stack: ThermalStack, grid: Grid) -> _GridModel:
    """Conductances and per-mode response columns for a grid geometry.

    The model depends only on (stack, grid), not on the power map, so it
    is cached and re-used across solves (the annealer solves thousands of
    power maps on one geometry). Only the two latest geometries stay cached;
    a caller that alternates three or more rebuilds them.
    """
    cell = grid.cell_mm * MM
    a_face = cell * cell  # horizontal cell face, m^2
    t = np.array([layer.thickness_mm for layer in stack.layers]) * MM
    k = np.array([layer.conductivity_w_mk for layer in stack.layers])
    g_lat = k * (cell * t) / cell
    # vertical conduction to the layer above (half-thickness series)
    g_vert = a_face / (t[:-1] / (2.0 * k[:-1]) + t[1:] / (2.0 * k[1:]))
    # convective top boundary: half top-layer conduction in series with h,
    # applied to the top cells whose centres the centred sink footprint covers
    g_amb = 1.0 / (t[-1] / (2.0 * k[-1] * a_face) + 1.0 / (stack.h_top_w_m2k * a_face))
    mask = grid.cooled(stack.sink_side_mm)

    # The cosine basis diagonalizes each layer's lateral operator, so with the
    # whole top face cooled mode (ky, kx) is an independent tridiagonal layers x
    # layers system: diagonal d[l] = g_lat[l] * eig + vert[l], off-diagonals -g_vert.
    # A Thomas sweep over the layers solves every mode at once for two unit
    # sources, one in the chiplet layer and one in the top layer. It needs no
    # pivoting: each mode's matrix is symmetric and diagonally dominant, strictly
    # so in the top row through g_amb, so every pivot w[l] stays > 0.
    q_x, eig_x = _cosine_basis(grid.nx)
    q_y, eig_y = _cosine_basis(grid.ny)
    nl, chip = len(t), stack.layer_index(CHIPLET_LAYER)
    vert = np.r_[g_vert, g_amb] + np.r_[0.0, g_vert]
    w = g_lat[:, None, None] * (eig_y[:, None] + eig_x)  # (nl, ny, nx) pivots
    w += vert[:, None, None]
    cols = np.zeros((2, nl, grid.ny, grid.nx))  # right-hand sides, solved in place
    cols[0, chip] = 1.0
    cols[1, -1] = 1.0
    for l in range(1, nl):  # forward elimination
        f = g_vert[l - 1] / w[l - 1]
        w[l] -= f * g_vert[l - 1]
        cols[:, l] += f * cols[:, l - 1]
    cols[:, -1] /= w[-1]
    for l in range(nl - 2, -1, -1):  # back substitution
        cols[:, l] += g_vert[l] * cols[:, l + 1]
        cols[:, l] /= w[l]
    return _GridModel(g_lat, g_vert, g_amb * mask, g_amb, np.flatnonzero(~mask), q_x, q_y, cols,
                      chip)


def _apply(model: _GridModel, x: np.ndarray) -> np.ndarray:
    """Conductance matrix times a temperature field, as a stencil, W."""
    out = np.zeros_like(x)
    out[-1] = model.sink * x[-1]
    for axis, g in ((2, model.g_lat), (1, model.g_lat), (0, model.g_vert)):
        lo = (slice(None),) * axis + (slice(None, -1),)
        hi = (slice(None),) * axis + (slice(1, None),)
        flux = np.subtract(x[hi], x[lo])
        flux *= g[:, None, None]
        out[lo] -= flux
        out[hi] += flux
    return out


def _response(model: _GridModel, p: np.ndarray, src: int, dst=slice(None)) -> np.ndarray:
    """Rise in layers dst, whole top face cooled, for the 2-D power map p in the
    chiplet layer (src 0) or the top layer (src 1)."""
    return model.q_y.T @ (model.cols[src, dst] * (model.q_y @ p @ model.q_x.T)) @ model.q_x


def _solve(model: _GridModel, p: np.ndarray, dst=slice(None)) -> np.ndarray:
    """Temperature rise in layers dst under the sink for chiplet-layer power p.

    U selects the k uncooled top cells, so A_p = A_f - g*U*U.T and by Woodbury
    T = T_f + A_f^-1*U*y, T_f = A_f^-1*p, where y solves the SPD k x k system
    C*y = U.T*T_f, C = I/g - U.T*A_f^-1*U, by CG in at most k steps. The residual
    A_p*T - p is g*U*(C*y - U.T*T_f), so CG stops once that is <= 1e-12*|p|; a
    CG that ends short of that bound (NaN included) raises ThermalError.
    """
    t = _response(model, p, 0, dst)
    u, g = model.uncooled, model.g_amb
    if not u.size:
        return t
    top = t[-1] if dst == slice(None) else _response(model, p, 0, -1)
    p_top, y = np.zeros(p.shape), np.zeros(u.size)
    top_cells = p_top.reshape(-1)  # a view: writing it writes p_top
    r = d = top.ravel()[u]
    # rr and alpha as Python floats: the same doubles, without numpy scalar overhead
    rr, stop = float(r @ r), (1e-12 * np.linalg.norm(p) / g) ** 2
    for _ in range(u.size):
        if not rr > stop:  # also ends on NaN, which the check below rejects
            break
        top_cells[u] = d
        cd = d / g - _response(model, p_top, 1, -1).ravel()[u]
        alpha = float(rr / (d @ cd))  # numpy division: a zero denominator gives inf
        y, r = y + alpha * d, r - alpha * cd
        rr, rr_old = float(r @ r), rr
        d = r + (rr / rr_old) * d
    if not rr <= stop:
        raise ThermalError(f"sink correction did not converge in {u.size} CG steps")
    top_cells[u] = y
    t += _response(model, p_top, 1, dst)  # in place: t is _response's fresh array
    return t


RESIDUAL_TOL = 1e-8


def solve_steady_state(pm: PowerMap, stack: ThermalStack) -> TemperatureField:
    """Solve the discretized steady-state heat equation.

    Directly in the cosine basis, plus the exact Woodbury correction for the top
    cells a smaller sink leaves uncooled (``_solve``, whose CG fails closed). The
    rise is checked against the system it solves, A*rise = p: the stencil residual
    must come out <= 1e-8 relative to the power (absolute without power), and no
    cell may lie below ambient, or a ThermalError is raised. The stencil conserves
    heat and p >= 0, so the residual sums to heat out - P, and the bound enforces
    the energy balance |heat out - P| <= sqrt(N)*1e-8*P over the N cells of the stack.
    """
    model = _grid_model(stack, pm.grid)
    rise = _solve(model, pm.cells)
    r = _apply(model, rise)
    r[model.chip] -= pm.cells
    res = np.linalg.norm(r) / (np.linalg.norm(pm.cells) or 1.0)
    if not res <= RESIDUAL_TOL:  # fails closed on NaN
        raise ThermalError(f"solver residual {res:.3e} exceeds {RESIDUAL_TOL}")
    if rise.min() < -1e-6:
        raise ThermalError("temperature field dips below ambient; model is inconsistent")
    rise += stack.ambient_c
    return TemperatureField(stack, pm.grid, rise)


def chiplet_peak(pm: PowerMap, stack: ThermalStack) -> float:
    """Peak chiplet-layer temperature, solved for that layer alone.

    The annealer's per-move score: ``_solve`` transforms back only the chiplet
    layer (and, under a partial sink, the top layer that starts CG), so no full
    field or stencil residual is built. The rise is computed by the same
    operations as ``solve_steady_state``'s: ``_solve(model, p, model.chip)``
    equals ``_solve(model, p)[model.chip]`` bit for bit, over the whole layer.
    Adding ambient rounds monotonically, so this equals
    ``peak_temperature(solve_steady_state(pm, stack))`` bit for bit. It fails
    closed: a CG that misses its bound, or a peak below ambient (NaN included),
    raises ThermalError.
    """
    model = _grid_model(stack, pm.grid)
    peak = stack.ambient_c + _solve(model, pm.cells, model.chip).max()
    if not peak >= stack.ambient_c - 1e-6:
        raise ThermalError(f"chiplet-layer peak {peak} C lies below ambient")
    return float(peak)


def boundary_heat_flow(tf: TemperatureField) -> float:
    """Heat leaving through the convective top boundary, W.

    In steady state this must equal the injected power (energy balance).
    """
    sink = _grid_model(tf.stack, tf.grid).sink
    return float(((tf.data[-1] - tf.stack.ambient_c) * sink).sum())


def peak_temperature(tf: TemperatureField, layer: str = CHIPLET_LAYER) -> float:
    return float(tf.layer(layer).max())


def plan_peak(floorplan: Floorplan, stack: ThermalStack, cell_mm: float) -> float:
    """Peak chiplet-layer temperature of a plan on a cell_mm grid, from a full field
    that passed ``solve_steady_state``'s residual guard. ``rasterize`` checks the
    plan first, so an illegal plan raises ValidationError."""
    return peak_temperature(solve_steady_state(rasterize(floorplan, cell_mm), stack))


def compare_soc_vs_chiplet(soc_plan: Floorplan, split_plan: Floorplan, stack: ThermalStack,
                           cell_mm: float) -> tuple[float, float, float]:
    """Peak chiplet-layer temperatures of two power-controlled floorplans.

    Returns (peak_soc, peak_split, delta). The plans must carry equal total
    power, otherwise the comparison is meaningless and an error is raised.
    """
    p_soc, p_split = (sum(p.power_w for p in plan.placements) for plan in (soc_plan, split_plan))
    if not math.isclose(p_soc, p_split, rel_tol=1e-9):
        raise ValidationError(
            f"total power differs: {p_soc} W vs {p_split} W; the comparison "
            "must be power-controlled")
    peak_soc, peak_split = (plan_peak(plan, stack, cell_mm) for plan in (soc_plan, split_plan))
    return peak_soc, peak_split, peak_soc - peak_split
