"""Analytic latency/throughput model and golden-ratio configuration ranking.

The golden ratio of compute is throughput / (latency * cost); only ratios
and rankings between configurations are meaningful (the absolute value is
unit-bearing).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import ChipletdseError, ServiceSpec, require_unique


class PerfError(ChipletdseError, ValueError):
    pass


def service_latency(s: ServiceSpec) -> float:
    """Word transfer time plus base service latency: b/R + Ti."""
    return s.word_bits / s.service_bandwidth + s.base_latency


def throughput(s: ServiceSpec) -> float:
    """k * F * channels, bits/s."""
    return s.bits_per_channel_per_cycle * s.clock * s.channels


def golden_ratio(throughput: float, latency: float, cost: float) -> float:
    if latency <= 0:
        raise PerfError("latency must be > 0")
    if cost <= 0:
        raise PerfError("cost must be > 0")
    spend = latency * cost
    ratio = throughput / spend if spend else math.inf
    # ranking divides by the smallest ratio, so it must stay a positive finite number
    if not 0 < ratio < math.inf:
        raise PerfError(f"golden ratio of throughput {throughput}, latency {latency} and "
                        f"cost {cost} is out of floating-point range")
    return ratio


@dataclass(frozen=True)
class ConfigResult:
    name: str
    cost: float
    throughput: float
    latency: float
    golden_ratio: float
    relative: float


def rank_configs(results: list[tuple[str, float, float, float]]) -> list[ConfigResult]:
    """Rank (name, cost, throughput, latency) rows by golden ratio, descending.

    ``relative`` normalizes each golden ratio to the minimum over the set.
    Ties are broken by name, so names must be unique.
    """
    if not results:
        raise PerfError("need at least one configuration")
    require_unique([name for name, *_ in results], "configs")
    ratios = {name: golden_ratio(tp, lat, cost) for name, cost, tp, lat in results}
    gr_min = min(ratios.values())
    rows = [
        ConfigResult(name, cost, tp, lat, ratios[name], ratios[name] / gr_min)
        for name, cost, tp, lat in results
    ]
    rows.sort(key=lambda r: (-r.golden_ratio, r.name))
    return rows
