"""Analytic latency/throughput model and golden-ratio configuration ranking.

The golden ratio of compute is throughput / (latency * cost); only ratios
and rankings between configurations are meaningful (the absolute value is
unit-bearing).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import ChipletdseError, ConfigSpec, ServiceSpec, require_unique


class PerfError(ChipletdseError, ValueError):
    pass


def service_latency(s: ServiceSpec) -> float:
    """Word transfer time plus base service latency: b/R + Ti."""
    return s.word_bits / s.service_bandwidth + s.base_latency


def throughput(s: ServiceSpec) -> float:
    """k * F * channels, bits/s."""
    return s.bits_per_channel_per_cycle * s.clock * s.channels


def golden_ratio(config: ConfigSpec) -> float:
    """throughput / (latency * cost) of a configuration."""
    spend = config.latency * config.cost
    ratio = config.throughput / spend if spend else math.inf
    # ranking divides by the smallest ratio, so it must stay a positive finite number
    if not 0 < ratio < math.inf:
        raise PerfError(f"golden ratio of throughput {config.throughput}, latency "
                        f"{config.latency} and cost {config.cost} is out of floating-point range")
    return ratio


@dataclass(frozen=True)
class ConfigResult(ConfigSpec):
    """A ranked configuration: its golden ratio and that ratio over the set's smallest."""

    golden_ratio: float
    relative: float


def rank_configs(configs: list[ConfigSpec], path: str = "configs") -> list[ConfigResult]:
    """Rank configurations by golden ratio, descending.

    ``relative`` normalizes each golden ratio to the minimum over the set.
    Ties are broken by name, so names must be unique. An error names its row
    as ``<path>[<i>]``, path being where the rows were read from.
    """
    if not configs:
        raise PerfError(f"{path}: no configuration rows")
    require_unique([c.name for c in configs], path)
    ratios = []
    for i, c in enumerate(configs):
        try:
            ratios.append(golden_ratio(c))
        except PerfError as exc:
            raise PerfError(f"{path}[{i}]: {exc}") from None
    gr_min = min(ratios)
    rows = [ConfigResult(**vars(c), golden_ratio=gr, relative=gr / gr_min)
            for c, gr in zip(configs, ratios)]
    rows.sort(key=lambda r: (-r.golden_ratio, r.name))
    return rows
