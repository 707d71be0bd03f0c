"""Interconnect physical-layer limits for a stripline trace on a silicon
interposer: per-length R/C, skin depth, rise time, 3 dB bandwidth, and the
maximum chiplet-to-chiplet trace length for a target clock.

The trace is modelled as lossy RC (no inductance). mu0/eps0 are kept at the
rounded values the rest of the toolchain uses so per-length constants are
reproducible exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

MU0 = 1.2566e-6
EPS0 = 8.8542e-12
LN9 = math.log(9.0)


class PhyError(ValueError):
    pass


@dataclass(frozen=True)
class TraceGeometry:
    """Copper stripline on a Si/SiO2 interposer. All lengths in metres."""

    trace_width: float = 50e-6
    trace_thickness: float = 20e-6
    ground_thickness: float = 50e-6
    interposer_height: float = 100e-6
    relative_permittivity: float = 11.68
    conductivity: float = 5.98e7  # S/m

    def __post_init__(self) -> None:
        for name in ("trace_width", "trace_thickness", "ground_thickness",
                     "interposer_height", "conductivity"):
            if not 0 < getattr(self, name) < math.inf:
                raise PhyError(f"{name}: must be > 0 and finite")
        if not 1 <= self.relative_permittivity < math.inf:
            raise PhyError("relative_permittivity: must be >= 1 and finite")


@dataclass(frozen=True)
class PhyTargets:
    clock_frequency: float = 2e9
    safety_factor: float = 1.5

    def __post_init__(self) -> None:
        for name in ("clock_frequency", "safety_factor"):
            if not 0 < getattr(self, name) < math.inf:
                raise PhyError(f"{name}: must be > 0 and finite")

    @property
    def target_bandwidth(self) -> float:
        return self.safety_factor * self.clock_frequency


@dataclass(frozen=True)
class LineParams:
    c_per_length: float  # F/m
    r_dc_per_length: float  # ohm/m
    r_ac_per_length: float  # ohm/m
    skin_depth: float  # m

    @property
    def r_total_per_length(self) -> float:
        return self.r_dc_per_length + self.r_ac_per_length


def line_params(g: TraceGeometry, f: float) -> LineParams:
    """Per-length capacitance and DC/AC resistance at frequency f."""
    if f <= 0:
        raise PhyError("frequency must be > 0")
    v0 = 1.0 / math.sqrt(MU0 * EPS0)
    c_len = (g.relative_permittivity
             * (g.trace_width / g.interposer_height + 0.441)
             / (30.0 * math.pi * v0))
    try:
        r_dc = (1.0 / g.conductivity) * (
            1.0 / (g.trace_width * g.trace_thickness)
            + 1.0 / (2.0 * g.ground_thickness))
        delta = (math.pi * f * MU0 * g.conductivity) ** -0.5
        perimeter = 2.0 * g.trace_thickness - 4.0 * delta + 2.0 * g.trace_width
        if perimeter <= 0:
            raise PhyError("skin depth exceeds geometry")
        r_ac = (1.0 / g.conductivity) * (
            1.0 / (delta * perimeter) + 1.0 / (2.0 * g.conductivity))
    except ZeroDivisionError:  # a product of extreme geometry underflowed to 0
        raise PhyError("line parameters out of floating-point range") from None
    return LineParams(c_len, r_dc, r_ac, delta)


def _in_range(value: float, what: str) -> float:
    """value, unless it over- or underflowed out of (0, inf)."""
    if not 0 < value < math.inf:
        raise PhyError(f"{what} out of floating-point range")
    return value


def rise_time(length: float, lp: LineParams) -> float:
    """10-90% RC rise time of a trace of the given length, quadratic in it."""
    if length < 0:
        raise PhyError("length must be >= 0")
    return lp.r_total_per_length * lp.c_per_length * length * length * LN9


def bandwidth_3db(length: float, lp: LineParams) -> float:
    """0.35 / rise_time."""
    if length <= 0:
        raise PhyError("length must be > 0")
    return 0.35 / _in_range(rise_time(length, lp), "rise time")


def max_trace_length(targets: PhyTargets, g: TraceGeometry) -> float:
    """Longest trace whose 3 dB bandwidth still meets SF * f_clk.

    Closed-form inversion of bandwidth_3db(L) = SF * f_clk.
    """
    lp = line_params(g, targets.clock_frequency)
    denom = (targets.target_bandwidth
             * lp.r_total_per_length * lp.c_per_length * LN9)
    return math.sqrt(0.35 / _in_range(denom, "bandwidth target"))


def bandwidth_curve(
    lengths: list[float], targets: PhyTargets, g: TraceGeometry
) -> list[tuple[float, float, float]]:
    """(length, log10 bandwidth, log10 target) rows for plotting/CSV."""
    if not lengths:
        raise PhyError("length range must be non-empty")
    lp = line_params(g, targets.clock_frequency)
    log_target = math.log10(_in_range(targets.target_bandwidth, "target bandwidth"))
    return [(L, math.log10(bandwidth_3db(L, lp)), log_target) for L in lengths]
