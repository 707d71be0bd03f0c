"""Switching, short-circuit, and leakage power with per-tile DVFS aggregation."""

from __future__ import annotations

from dataclasses import dataclass

from .model import ChipletdseError, PowerParams


class PowerError(ChipletdseError, ValueError):
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
        switching = p.activity * p.load_capacitance_f * p.frequency_hz * p.voltage_v ** 2
        overdrive = p.voltage_v - 2.0 * p.threshold_v
        short = (p.activity * (p.gain_factor_a_v2 / 12.0) * p.frequency_hz
                 * p.transition_time_s * overdrive ** 3) if overdrive > 0 else 0.0
    except OverflowError:
        raise PowerError(f"voltage {p.voltage_v} V overflows the power model") from None
    leakage = p.leakage_current_a * p.voltage_v * p.transistor_density_mm2 * p.area_mm2
    return PowerBreakdown(switching, short, leakage)


def system_power(blocks: list[PowerParams]) -> tuple[list[PowerBreakdown], float]:
    """Each block's breakdown and their sum."""
    breakdowns = [power_breakdown(p) for p in blocks]
    return breakdowns, sum(b.total for b in breakdowns)
