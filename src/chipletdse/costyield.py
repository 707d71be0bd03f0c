"""Die yield, assembly yield, and package cost.

Die yield follows the negative-binomial model
``(1 + d0*area/alpha)^(-alpha)``; assembly yield is a per-die times
per-connection survival product. Cost per die divides the wafer cost over
good dies per wafer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import ProcessCostParams


class CostModelError(ValueError):
    pass


def die_yield(area: float, params: ProcessCostParams) -> float:
    """Fraction of defect-free dies of the given area, in (0, 1]."""
    if area < 0:
        raise CostModelError("area must be >= 0")
    return (1.0 + params.d0 * area / params.alpha_yield) ** (-params.alpha_yield)


def gross_dies_per_wafer(area: float, wafer_diameter: float) -> int:
    """Whole dies cut from a round wafer, with the usual edge-loss correction.

    floor(pi*(D/2)^2/area - pi*D/sqrt(2*area)), clamped at 0.
    """
    if area <= 0:
        raise CostModelError("area must be > 0")
    if wafer_diameter <= 0:
        raise CostModelError("wafer diameter must be > 0")
    r = wafer_diameter / 2.0
    n = math.pi * r * r / area - math.pi * wafer_diameter / math.sqrt(2.0 * area)
    if not math.isfinite(n):
        raise CostModelError(f"dies per wafer out of floating-point range (die of {area} mm^2)")
    return max(0, math.floor(n))


def assembly_yield(n_dies: int, n_connections: int, params: ProcessCostParams) -> float:
    """Probability the multi-die package assembles correctly."""
    if n_dies < 0 or n_connections < 0:
        raise CostModelError("die and connection counts must be >= 0")
    return (params.assembly_die_survival ** n_dies
            * params.assembly_conn_survival ** n_connections)


@dataclass(frozen=True)
class DieCost:
    area: float
    count: int
    gross_dies_per_wafer: int
    die_yield: float
    cost_per_die: float


@dataclass(frozen=True)
class CostBreakdown:
    dies: tuple[DieCost, ...]
    n_dies: int
    n_connections: int
    raw_die_cost: float
    assembly_yield: float
    package_cost: float


def cost_per_die(area: float, params: ProcessCostParams) -> float:
    """Cost of one good die: wafer_cost / (gross_dies_per_wafer * die_yield)."""
    y = die_yield(area, params)
    gross = gross_dies_per_wafer(area, params.wafer_diameter)
    if gross == 0:
        raise CostModelError(f"die of {area} mm^2 exceeds wafer capacity")
    if y == 0:
        raise CostModelError(f"die of {area} mm^2: yield underflows to 0")
    return params.wafer_cost / (gross * y)


def package_cost(
    dies: list[tuple[float, int]],
    n_connections: int,
    params: ProcessCostParams,
) -> CostBreakdown:
    """Total package cost for a list of (die area, count) entries."""
    total_dies = sum(count for _, count in dies)
    if total_dies == 0:
        return CostBreakdown((), 0, n_connections, 0.0, 1.0, 0.0)
    rows = []
    raw = 0.0
    for area, count in dies:
        if count < 0:
            raise CostModelError("die count must be >= 0")
        if count == 0:
            continue
        per_die = cost_per_die(area, params)
        rows.append(DieCost(
            area=area,
            count=count,
            gross_dies_per_wafer=gross_dies_per_wafer(area, params.wafer_diameter),
            die_yield=die_yield(area, params),
            cost_per_die=per_die,
        ))
        raw += per_die * count
    ay = assembly_yield(total_dies, n_connections, params)
    if ay == 0:
        raise CostModelError("assembly yield underflows to 0")
    return CostBreakdown(tuple(rows), total_dies, n_connections, raw, ay, raw / ay)


def cost_ratio(
    soc_area: float,
    chiplet_areas: list[float],
    n_connections: int,
    params: ProcessCostParams,
) -> float:
    """SoC package cost over chiplet-system package cost.

    wafer_cost cancels: the ratio is independent of it.
    """
    soc = package_cost([(soc_area, 1)], 0, params)
    chip = package_cost([(a, 1) for a in chiplet_areas], n_connections, params)
    if chip.package_cost == 0:
        raise CostModelError("chiplet system has no dies")
    return soc.package_cost / chip.package_cost
