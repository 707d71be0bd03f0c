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

from .model import ChipletdseError, PhySpec

MU0 = 1.2566e-6
EPS0 = 8.8542e-12
LN9 = math.log(9.0)


class PhyError(ChipletdseError, ValueError):
    pass


@dataclass(frozen=True)
class LineParams:
    c_per_length: float  # F/m
    r_dc_per_length: float  # ohm/m
    r_ac_per_length: float  # ohm/m
    skin_depth: float  # m

    @property
    def r_total_per_length(self) -> float:
        return self.r_dc_per_length + self.r_ac_per_length


def line_params(p: PhySpec) -> LineParams:
    """Per-length capacitance and DC/AC resistance at the clock frequency."""
    width, thickness, ground, height = (v * 1e-6 for v in (  # um -> m
        p.trace_width_um, p.trace_thickness_um, p.ground_thickness_um, p.interposer_height_um))
    v0 = 1.0 / math.sqrt(MU0 * EPS0)
    try:
        c_len = (p.relative_permittivity
                 * (width / height + 0.441)
                 / (30.0 * math.pi * v0))
        r_dc = (1.0 / p.conductivity_s_m) * (
            1.0 / (width * thickness)
            + 1.0 / (2.0 * ground))
        delta = (math.pi * p.clock_frequency_hz * MU0 * p.conductivity_s_m) ** -0.5
        perimeter = 2.0 * thickness - 4.0 * delta + 2.0 * width
        if perimeter <= 0:  # the skin depth is at least half the width plus thickness
            lowest = 1.0 / (math.pi * MU0 * p.conductivity_s_m * ((width + thickness) / 2.0) ** 2)
            raise PhyError(f"phy.clock_frequency_hz: must be above {lowest:.6g} Hz, where the "
                           "skin depth falls below half the trace's width plus thickness")
        r_ac = (1.0 / p.conductivity_s_m) * (
            1.0 / (delta * perimeter) + 1.0 / (2.0 * p.conductivity_s_m))
    except ZeroDivisionError:  # a tiny length, or a product of two, underflowed to 0 m
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


def max_trace_length(p: PhySpec) -> float:
    """Longest trace whose 3 dB bandwidth still meets SF * f_clk.

    Closed-form inversion of bandwidth_3db(L) = SF * f_clk.
    """
    lp = line_params(p)
    denom = (p.target_bandwidth
             * lp.r_total_per_length * lp.c_per_length * LN9)
    return math.sqrt(0.35 / _in_range(denom, "bandwidth target"))


def bandwidth_curve(lengths: list[float], p: PhySpec) -> list[tuple[float, float, float]]:
    """(length, log10 bandwidth, log10 target) rows for plotting/CSV."""
    if not lengths:
        raise PhyError("length range must be non-empty")
    lp = line_params(p)
    log_target = math.log10(_in_range(p.target_bandwidth, "target bandwidth"))
    return [(L, math.log10(bandwidth_3db(L, lp)), log_target) for L in lengths]
