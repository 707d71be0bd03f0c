"""Compact steady-state thermal solver for the 2.5D package stack.

The package is discretized as one finite-volume cell layer per stack layer
on an nx x ny grid. Neighbouring cells exchange heat through thermal
resistances R = d/(k*A); the top layer couples to ambient through a
convective coefficient h; all other outer faces are adiabatic. Power is
injected in the chiplet layer, rasterized from a floorplan.

Each layer's lateral operator is a uniform Neumann grid Laplacian, which the
orthonormal 2-D cosine (DCT-II) basis diagonalizes, so a fully cooled top face
splits the stack into one small layer system per cosine mode. A smaller sink
footprint is solved by conjugate gradients preconditioned with that solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .model import Floorplan, ThermalStack, ValidationError

MM = 1e-3

CHIPLET_LAYER = "chiplet"


class ThermalError(RuntimeError):
    pass


@dataclass(frozen=True)
class PowerMap:
    """Per-cell dissipated power (W) in the chiplet layer."""

    nx: int
    ny: int
    cell_mm: float
    cells: np.ndarray  # (ny, nx), W

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
    nx = max(1, math.ceil(width_mm / cell_mm - 1e-9))
    ny = max(1, math.ceil(height_mm / cell_mm - 1e-9))
    return nx, ny


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
    cells = np.zeros((ny, nx))
    for p in floorplan.placements:
        density = p.power / (p.eff_width * p.eff_height)  # W/mm^2
        if density == 0:
            continue
        x0, x1 = p.x, p.x + p.eff_width
        y0, y1 = p.y, p.y + p.eff_height
        ix0 = max(0, int(x0 / cell_mm))
        ix1 = min(nx - 1, int((x1 - 1e-12) / cell_mm))
        iy0 = max(0, int(y0 / cell_mm))
        iy1 = min(ny - 1, int((y1 - 1e-12) / cell_mm))
        for iy in range(iy0, iy1 + 1):
            oy = min(y1, (iy + 1) * cell_mm) - max(y0, iy * cell_mm)
            for ix in range(ix0, ix1 + 1):
                ox = min(x1, (ix + 1) * cell_mm) - max(x0, ix * cell_mm)
                cells[iy, ix] += density * ox * oy
    return PowerMap(nx, ny, cell_mm, cells)


def _sink_mask(stack: ThermalStack, nx: int, ny: int, cell_mm: float) -> np.ndarray:
    """Top cells coupled to ambient: all, or a centered fixed sink footprint."""
    if stack.sink_side_mm is None:
        return np.ones((ny, nx), dtype=bool)
    half = stack.sink_side_mm / 2.0
    in_x = np.abs((np.arange(nx) + 0.5) * cell_mm - nx * cell_mm / 2.0) <= half
    in_y = np.abs((np.arange(ny) + 0.5) * cell_mm - ny * cell_mm / 2.0) <= half
    mask = np.outer(in_y, in_x)
    if not mask.any():
        raise ThermalError("sink footprint covers no grid cells")
    return mask


class _GridModel(NamedTuple):
    g_lat: np.ndarray  # (nl,) lateral conductance between neighbouring cells, W/K
    g_vert: np.ndarray  # (nl-1,) conductance from layer l to layer l+1, W/K
    sink: np.ndarray  # (ny, nx) top-cell conductance to ambient, W/K
    q_x: np.ndarray  # (nx, nx) orthonormal DCT-II basis
    q_y: np.ndarray  # (ny, ny)
    inv: np.ndarray  # (nl, nl, ny, nx) per-mode inverse with the whole top face cooled


def _cosine_basis(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal DCT-II matrix Q and the eigenvalues of the n-point Neumann
    path Laplacian L, so that L = Q.T @ diag(eig) @ Q."""
    q = np.sqrt(2.0 / n) * np.cos(np.pi * np.arange(n)[:, None] * (np.arange(n) + 0.5) / n)
    q[0] = np.sqrt(1.0 / n)
    return q, 2.0 - 2.0 * np.cos(np.pi * np.arange(n) / n)


@lru_cache(maxsize=16)
def _grid_model(stack: ThermalStack, nx: int, ny: int, cell_mm: float) -> _GridModel:
    """Conductances and per-mode inverses for a grid geometry.

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
    # applied to the cells under the (possibly fixed-size) sink footprint
    g_amb = 1.0 / (t[-1] / (2.0 * k[-1] * a_face) + 1.0 / (stack.h_top * a_face))
    mask = _sink_mask(stack, nx, ny, cell_mm)

    # The cosine basis diagonalizes each layer's lateral operator, so with the
    # whole top face cooled mode (ky, kx) is an independent layers x layers
    # system: vertical couplings plus the lateral eigenvalue times diag(g_lat).
    q_x, eig_x = _cosine_basis(nx)
    q_y, eig_y = _cosine_basis(ny)
    vert = np.diag(np.r_[g_vert, g_amb] + np.r_[0.0, g_vert])
    vert -= np.diag(g_vert, 1) + np.diag(g_vert, -1)
    system = vert + np.diag(g_lat) * (eig_y[:, None] + eig_x)[..., None, None]
    inv = np.ascontiguousarray(np.moveaxis(np.linalg.inv(system), (0, 1), (2, 3)))
    return _GridModel(g_lat, g_vert, g_amb * mask, q_x, q_y, inv)


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


def _full_sink_solve(model: _GridModel, p: np.ndarray) -> np.ndarray:
    """Temperature rise for power p with the whole top face cooled."""
    p_hat = model.q_y @ p @ model.q_x.T
    t_hat = np.einsum("lmyx,myx->lyx", model.inv, p_hat)
    return model.q_y.T @ t_hat @ model.q_x


RESIDUAL_TOL = 1e-8
PCG_MAX_ITER = 100


def _partial_sink_solve(model: _GridModel, p: np.ndarray) -> np.ndarray:
    """Conjugate gradients preconditioned by, and started from, the full-sink solve."""
    x = _full_sink_solve(model, p)
    r = p - _apply(model, x)
    d = z = _full_sink_solve(model, r)
    rz = np.vdot(r, z)
    stop = 1e-12 * np.linalg.norm(p)
    for _ in range(PCG_MAX_ITER):
        if np.linalg.norm(r) <= stop:
            return x
        ad = _apply(model, d)
        alpha = rz / np.vdot(d, ad)
        x += alpha * d
        r -= alpha * ad
        z = _full_sink_solve(model, r)
        rz, rz_old = np.vdot(r, z), rz
        d = z + (rz / rz_old) * d
    raise ThermalError(
        f"preconditioned CG did not converge after {PCG_MAX_ITER} iterations "
        f"(relative residual {np.linalg.norm(r) / np.linalg.norm(p):.3e})")


def solve_steady_state(pm: PowerMap, stack: ThermalStack) -> TemperatureField:
    """Solve the discretized steady-state heat equation.

    Directly in the cosine basis when the whole top face is cooled, else by
    conjugate gradients preconditioned with, and started from, that solve
    (ThermalError if they do not converge). Either way the relative residual,
    measured with a stencil on the full field, must come out <= 1e-8 and no
    cell may lie below ambient, or a ThermalError is raised.
    """
    nl = len(stack.layers)
    model = _grid_model(stack, pm.nx, pm.ny, pm.cell_mm)
    source = np.zeros((nl, pm.ny, pm.nx))
    cl = stack.layer_index(CHIPLET_LAYER) if CHIPLET_LAYER in stack.layer_names else nl - 1
    source[cl] = pm.cells
    solve = _full_sink_solve if model.sink.all() else _partial_sink_solve
    data = stack.ambient + solve(model, source)

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
