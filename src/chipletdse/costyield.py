"""Die yield, assembly yield, and package cost.

Die yield follows the negative-binomial model
``(1 + d0*area/alpha)^(-alpha)``; assembly yield is a per-die times
per-connection survival product. Cost per die divides the wafer cost over
good dies per wafer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .model import ChipletdseError, ProcessCostParams


class CostModelError(ChipletdseError, ValueError):
    pass


def die_yield(area: float, params: ProcessCostParams) -> float:
    """Fraction of defect-free dies of the given area, in (0, 1]."""
    if area < 0:
        raise CostModelError("area must be >= 0")
    return (1.0 + params.d0_per_mm2 * area / params.alpha_yield) ** (-params.alpha_yield)


def gross_dies_per_wafer(area: float, params: ProcessCostParams) -> int:
    """Whole dies cut from a round wafer, with the usual edge-loss correction.

    floor(pi*(D/2)^2/area - pi*D/sqrt(2*area)), clamped at 0.
    """
    if area <= 0:
        raise CostModelError("area must be > 0")
    d = params.wafer_diameter_mm
    r = d / 2.0
    n = math.pi * r * r / area - math.pi * d / math.sqrt(2.0 * area)
    if not math.isfinite(n):
        raise CostModelError(f"dies per wafer out of floating-point range (die of {area} mm^2)")
    return max(0, math.floor(n))


def assembly_yield(n_dies: int, params: ProcessCostParams) -> float:
    """Probability that a package of n_dies dies and params.n_connections
    inter-die connections assembles correctly."""
    if n_dies < 0:
        raise CostModelError("die count must be >= 0")
    return (params.assembly_die_survival ** n_dies
            * params.assembly_conn_survival ** params.n_connections)


@dataclass(frozen=True)
class DieCost:
    gross_dies_per_wafer: int
    die_yield: float
    cost_per_die: float  # of one good die


@dataclass(frozen=True)
class CostBreakdown:
    dies: tuple[DieCost, ...]
    raw_die_cost: float
    assembly_yield: float
    package_cost: float


def die_cost(area: float, params: ProcessCostParams) -> DieCost:
    """A die's yield, gross dies per wafer and the cost of one good die,
    wafer_cost / (gross_dies_per_wafer * die_yield)."""
    y = die_yield(area, params)
    gross = gross_dies_per_wafer(area, params)
    if gross == 0:
        raise CostModelError(f"die of {area} mm^2 exceeds wafer capacity")
    if y == 0:
        raise CostModelError(f"die of {area} mm^2: yield underflows to 0")
    return DieCost(gross, y, params.wafer_cost / (gross * y))


def package_cost(areas: list[float], params: ProcessCostParams) -> CostBreakdown:
    """Total package cost of one die per area, joined by params.n_connections
    connections; ``dies`` follows ``areas``."""
    if not areas:
        return CostBreakdown((), 0.0, 1.0, 0.0)
    dies = tuple(die_cost(area, params) for area in areas)
    raw = 0.0
    for d in dies:  # in area order: the report's sum is byte-stable
        raw += d.cost_per_die
    ay = assembly_yield(len(dies), params)
    if ay == 0:
        raise CostModelError("assembly yield underflows to 0")
    return CostBreakdown(dies, raw, ay, raw / ay)


def cost_ratio(soc_area: float, chiplet_areas: list[float], params: ProcessCostParams) -> float:
    """SoC package cost over chiplet-system package cost. The SoC is one die
    with no inter-die connections; the chiplets have params.n_connections.

    wafer_cost cancels: the ratio is independent of it.
    """
    soc = package_cost([soc_area], replace(params, n_connections=0))
    chip = package_cost(chiplet_areas, params)
    if chip.package_cost == 0:
        raise CostModelError("chiplet system has no dies")
    return soc.package_cost / chip.package_cost
