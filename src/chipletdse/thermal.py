"""Compact steady-state thermal solver for the 2.5D package stack.

The package is discretized as one finite-volume cell layer per stack layer
on an nx x ny grid. Neighbouring cells exchange heat through thermal
resistances R = d/(k*A); the top layer couples to ambient through a
convective coefficient h; all other outer faces are adiabatic. Power is
injected in the chiplet layer, rasterized from a floorplan.

Each layer's lateral operator is a uniform Neumann grid Laplacian, which the
orthonormal 2-D cosine (DCT-II) basis diagonalizes, so a fully cooled top face
splits the stack into one small layer system per cosine mode. A smaller sink
footprint takes the ambient conductance off k top cells: a rank-k change, which
the Woodbury identity corrects exactly through a k x k system on those cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .model import CHIPLET_LAYER, Floorplan, ThermalStack, ValidationError

MM = 1e-3

# Range check on requested grids; 0.1 mm cells on a 50 mm interposer still pass. At
# 500 x 500 the default 8-layer stack's cached responses hold 2 * 8 * 500^2 doubles, 32 MB.
MAX_CELLS_PER_SIDE = 500


class ThermalError(RuntimeError):
    pass


@dataclass(frozen=True)
class PowerMap:
    """Per-cell dissipated power (W) in the chiplet layer."""

    cell_mm: float
    cells: np.ndarray  # (ny, nx), W

    @property
    def nx(self) -> int:
        return self.cells.shape[1]

    @property
    def ny(self) -> int:
        return self.cells.shape[0]

    @property
    def total_power(self) -> float:
        return float(self.cells.sum())


@dataclass(frozen=True)
class TemperatureField:
    """Per-cell temperature (degrees C) for every stack layer."""

    stack: ThermalStack
    cell_mm: float
    data: np.ndarray  # (n_layers, ny, nx)

    def layer(self, name: str) -> np.ndarray:
        return self.data[self.stack.layer_index(name)]


def grid_shape(width_mm: float, height_mm: float, cell_mm: float) -> tuple[int, int]:
    sides = (width_mm / cell_mm - 1e-9, height_mm / cell_mm - 1e-9)
    if not all(side <= MAX_CELLS_PER_SIDE for side in sides):  # inf and NaN too, before ceil
        raise ThermalError(f"a {width_mm} x {height_mm} mm grid of {cell_mm} mm cells "
                           f"exceeds {MAX_CELLS_PER_SIDE} cells per side")
    return tuple(max(1, math.ceil(side)) for side in sides)


def _overlap(lo: np.ndarray, hi: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Length of each interval [lo, hi] inside each cell between edges, (len(lo), cells)."""
    return np.clip(hi[:, None], edges[:-1], edges[1:]) - np.clip(lo[:, None], edges[:-1], edges[1:])


def rasterize(floorplan: Floorplan, cell_mm: float) -> PowerMap:
    """Spread each chiplet's power uniformly over the cells it covers.

    Partial cells get area-weighted shares, so total power is conserved
    exactly (up to float rounding).
    """
    if not cell_mm > 0:
        raise ThermalError(f"cell size must be > 0 mm, got {cell_mm}")
    floorplan.validate()
    for p in floorplan.placements:
        if cell_mm > min(p.eff_width, p.eff_height):
            raise ThermalError(
                f"cell size {cell_mm} mm exceeds smallest dimension of "
                f"chiplet {p.name!r}")
    nx, ny = grid_shape(floorplan.width, floorplan.height, cell_mm)
    x, y, w, h, power = np.array([(p.x, p.y, p.eff_width, p.eff_height, p.power)
                                  for p in floorplan.placements]).reshape(-1, 5).T
    ox = _overlap(x, x + w, np.arange(nx + 1) * cell_mm)
    oy = _overlap(y, y + h, np.arange(ny + 1) * cell_mm)
    density = power / (w * h)  # W/mm^2
    return PowerMap(cell_mm, oy.T @ (density[:, None] * ox))


class _GridModel(NamedTuple):
    g_lat: np.ndarray  # (nl,) lateral conductance between neighbouring cells, W/K
    g_vert: np.ndarray  # (nl-1,) conductance from layer l to layer l+1, W/K
    sink: np.ndarray  # (ny, nx) top-cell conductance to ambient, W/K
    g_amb: float  # conductance to ambient of one cooled top cell, W/K
    uncooled: np.ndarray  # flat indices of the top cells outside the sink
    q_x: np.ndarray  # (nx, nx) orthonormal DCT-II basis
    q_y: np.ndarray  # (ny, ny)
    cols: np.ndarray  # (2, nl, ny, nx) per-mode inverse columns: chiplet-layer, top-layer power


def _cosine_basis(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal DCT-II matrix Q and the eigenvalues of the n-point Neumann
    path Laplacian L, so that L = Q.T @ diag(eig) @ Q."""
    q = np.sqrt(2.0 / n) * np.cos(np.pi * np.arange(n)[:, None] * (np.arange(n) + 0.5) / n)
    q[0] = np.sqrt(1.0 / n)
    return q, 2.0 - 2.0 * np.cos(np.pi * np.arange(n) / n)


@lru_cache(maxsize=16)
def _grid_model(stack: ThermalStack, nx: int, ny: int, cell_mm: float) -> _GridModel:
    """Conductances and per-mode response columns for a grid geometry.

    The model depends only on (stack, grid), not on the power map, so it
    is cached and re-used across solves (the annealer solves thousands of
    power maps on one geometry).
    """
    cell = cell_mm * MM
    a_face = cell * cell  # horizontal cell face, m^2
    t = np.array([layer.thickness_mm for layer in stack.layers]) * MM
    k = np.array([layer.conductivity for layer in stack.layers])
    g_lat = k * (cell * t) / cell
    # vertical conduction to the layer above (half-thickness series)
    g_vert = a_face / (t[:-1] / (2.0 * k[:-1]) + t[1:] / (2.0 * k[1:]))
    # convective top boundary: half top-layer conduction in series with h,
    # applied to the top cells whose centres the centred sink footprint covers
    g_amb = 1.0 / (t[-1] / (2.0 * k[-1] * a_face) + 1.0 / (stack.h_top * a_face))
    half = math.inf if stack.sink_side_mm is None else stack.sink_side_mm / 2.0
    in_x = np.abs((np.arange(nx) + 0.5) * cell_mm - nx * cell_mm / 2.0) <= half
    in_y = np.abs((np.arange(ny) + 0.5) * cell_mm - ny * cell_mm / 2.0) <= half
    mask = np.outer(in_y, in_x)
    if not mask.any():
        raise ThermalError("sink footprint covers no grid cells")

    # The cosine basis diagonalizes each layer's lateral operator, so with the
    # whole top face cooled mode (ky, kx) is an independent layers x layers
    # system: vertical couplings plus the lateral eigenvalue times diag(g_lat).
    q_x, eig_x = _cosine_basis(nx)
    q_y, eig_y = _cosine_basis(ny)
    vert = np.diag(np.r_[g_vert, g_amb] + np.r_[0.0, g_vert])
    vert -= np.diag(g_vert, 1) + np.diag(g_vert, -1)
    system = np.diag(g_lat) * (eig_y[:, None] + eig_x)[..., None, None]
    system += vert  # in place: at 500 x 500 each (ny, nx, nl, nl) array is 128 MB
    unit = np.eye(len(t))[:, [stack.layer_index(CHIPLET_LAYER), -1]]
    cols = np.ascontiguousarray(np.moveaxis(np.linalg.solve(system, unit), (3, 2), (0, 1)))
    return _GridModel(g_lat, g_vert, g_amb * mask, g_amb, np.flatnonzero(~mask), q_x, q_y, cols)


def _apply(model: _GridModel, x: np.ndarray) -> np.ndarray:
    """Conductance matrix times a temperature field, as a stencil, W."""
    out = np.zeros_like(x)
    out[-1] = model.sink * x[-1]
    for axis, g in ((2, model.g_lat), (1, model.g_lat), (0, model.g_vert)):
        lo = (slice(None),) * axis + (slice(None, -1),)
        hi = (slice(None),) * axis + (slice(1, None),)
        flux = (x[hi] - x[lo]) * g[:, None, None]
        out[lo] -= flux
        out[hi] += flux
    return out


def _response(model: _GridModel, p: np.ndarray, src: int, dst=slice(None)) -> np.ndarray:
    """Rise in layers dst, whole top face cooled, for the 2-D power map p in the
    chiplet layer (src 0) or the top layer (src 1)."""
    return model.q_y.T @ (model.cols[src, dst] * (model.q_y @ p @ model.q_x.T)) @ model.q_x


def _solve(model: _GridModel, p: np.ndarray) -> np.ndarray:
    """Temperature rise in every layer for chiplet-layer power p under the sink.

    U selects the k uncooled top cells, so A_p = A_f - g*U*U.T and by Woodbury
    T = T_f + A_f^-1*U*y, T_f = A_f^-1*p, where y solves the SPD k x k system
    C*y = U.T*T_f, C = I/g - U.T*A_f^-1*U, by CG in at most k steps. The residual
    A_p*T - p is g*U*(C*y - U.T*T_f), so CG stops once that is <= 1e-12*|p|.
    """
    t = _response(model, p, 0)
    u, g = model.uncooled, model.g_amb
    if not u.size:
        return t
    p_top, y = np.zeros(p.shape), np.zeros(u.size)
    r = d = t[-1].ravel()[u]
    rr, stop = r @ r, (1e-12 * np.linalg.norm(p) / g) ** 2
    for _ in range(u.size):
        if not rr > stop:  # also ends on NaN, which the residual guard then rejects
            break
        p_top.flat[u] = d
        cd = d / g - _response(model, p_top, 1, -1).ravel()[u]  # C @ d
        alpha = rr / (d @ cd)
        y, r = y + alpha * d, r - alpha * cd
        rr, rr_old = r @ r, rr
        d = r + (rr / rr_old) * d
    p_top.flat[u] = y
    return t + _response(model, p_top, 1)


RESIDUAL_TOL = 1e-8


def solve_steady_state(pm: PowerMap, stack: ThermalStack) -> TemperatureField:
    """Solve the discretized steady-state heat equation.

    Directly in the cosine basis, plus the exact Woodbury correction for the top
    cells a smaller sink leaves uncooled (``_solve``). The relative residual,
    measured with a stencil on the full field, must come out <= 1e-8 and no cell
    may lie below ambient, or a ThermalError is raised.
    """
    model = _grid_model(stack, pm.nx, pm.ny, pm.cell_mm)
    data = stack.ambient + _solve(model, pm.cells)

    source = np.zeros_like(data)
    source[stack.layer_index(CHIPLET_LAYER)] = pm.cells
    source[-1] += model.sink * stack.ambient  # right-hand side in absolute temperature
    # relative, except for a zero right-hand side (0 C ambient, no power): absolute
    res = np.linalg.norm(_apply(model, data) - source) / (np.linalg.norm(source) or 1.0)
    if not res <= RESIDUAL_TOL:  # fails closed on NaN
        raise ThermalError(f"solver residual {res:.3e} exceeds {RESIDUAL_TOL}")
    if data.min() < stack.ambient - 1e-6:
        raise ThermalError("temperature field dips below ambient; model is inconsistent")
    return TemperatureField(stack, pm.cell_mm, data)


def boundary_heat_flow(tf: TemperatureField) -> float:
    """Heat leaving through the convective top boundary, W.

    In steady state this must equal the injected power (energy balance).
    """
    ny, nx = tf.data.shape[1:]
    sink = _grid_model(tf.stack, nx, ny, tf.cell_mm).sink
    return float(((tf.data[-1] - tf.stack.ambient) * sink).sum())


def peak_temperature(tf: TemperatureField, layer: str = CHIPLET_LAYER) -> float:
    return float(tf.layer(layer).max())


def compare_soc_vs_chiplet(
    soc_plan: Floorplan,
    split_plan: Floorplan,
    stack: ThermalStack,
    cell_mm: float = 1.0,
) -> tuple[float, float, float]:
    """Peak chiplet-layer temperatures of two power-controlled floorplans.

    Returns (peak_soc, peak_split, delta). The plans must carry equal total
    power, otherwise the comparison is meaningless and an error is raised.
    """
    p_soc, p_split = soc_plan.total_power, split_plan.total_power
    if not math.isclose(p_soc, p_split, rel_tol=1e-9):
        raise ValidationError(
            f"total power differs: {p_soc} W vs {p_split} W; the comparison "
            "must be power-controlled")
    peak_soc = peak_temperature(solve_steady_state(rasterize(soc_plan, cell_mm), stack))
    peak_split = peak_temperature(solve_steady_state(rasterize(split_plan, cell_mm), stack))
    return peak_soc, peak_split, peak_soc - peak_split
