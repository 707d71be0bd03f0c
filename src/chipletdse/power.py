"""Switching, short-circuit, and leakage power with per-tile DVFS aggregation."""

from __future__ import annotations

from dataclasses import dataclass

from .model import PowerParams, TileOperatingPoint


class PowerError(ValueError):
    pass


@dataclass(frozen=True)
class PowerBreakdown:
    switching: float
    short_circuit: float
    leakage: float

    @property
    def total(self) -> float:
        return self.switching + self.short_circuit + self.leakage


def power_breakdown(p: PowerParams) -> PowerBreakdown:
    """Per-component power for one block.

    switching = A*C*F*V^2
    short     = A*(B/12)*F*T*(V - 2*Vth)^3, clamped to 0 when V <= 2*Vth
                (no conduction overlap below that point)
    leakage   = I*V * TDensity * area
    """
    try:
        switching = p.activity * p.load_capacitance * p.frequency * p.voltage ** 2
        overdrive = p.voltage - 2.0 * p.threshold
        short = (p.activity * (p.gain_factor / 12.0) * p.frequency
                 * p.transition_time * overdrive ** 3) if overdrive > 0 else 0.0
    except OverflowError:
        raise PowerError(f"voltage {p.voltage} V overflows the power model") from None
    leakage = p.leakage_current * p.voltage * p.transistor_density * p.area
    return PowerBreakdown(switching, short, leakage)


def system_power(tiles: list[TileOperatingPoint]) -> tuple[list[tuple[str, PowerBreakdown]], float]:
    """Per-tile breakdowns and their exact sum."""
    names = [t.name for t in tiles]
    if len(set(names)) != len(names):
        dup = next(n for n in names if names.count(n) > 1)
        raise PowerError(f"duplicate tile name {dup!r}")
    rows = [(t.name, power_breakdown(t.effective_params())) for t in tiles]
    return rows, sum(b.total for _, b in rows)
