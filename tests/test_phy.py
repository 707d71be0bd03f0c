import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chipletdse.model import ValidationError
from chipletdse.phy import (
    LN9,
    PhyError,
    PhySpec,
    bandwidth_3db,
    bandwidth_curve,
    line_params,
    max_trace_length,
    rise_time,
)

PHY = PhySpec()
LP = line_params(PHY)


class TestLineParams:
    def test_capacitance_per_length(self):
        assert LP.c_per_length == pytest.approx(388.99e-12, rel=5e-3)

    def test_skin_depth_at_2ghz(self):
        assert LP.skin_depth == pytest.approx(1.455e-6, rel=5e-3)

    def test_dc_resistance_per_length(self):
        assert LP.r_dc_per_length == pytest.approx(16.72, rel=5e-3)

    def test_ac_resistance_per_length(self):
        assert LP.r_ac_per_length == pytest.approx(85.64, rel=5e-3)

    def test_total_is_exact_sum(self):
        assert LP.r_total_per_length == LP.r_dc_per_length + LP.r_ac_per_length
        assert LP.r_total_per_length == pytest.approx(102.36, rel=5e-3)

    def test_nonpositive_frequency_rejected(self):
        with pytest.raises(ValidationError):
            replace(PHY, clock_frequency_hz=0.0)

    def test_skin_depth_exceeding_geometry_rejected(self):
        # at low frequency the skin depth outgrows the conductor cross
        # section and the AC perimeter model breaks down
        thin = PhySpec(trace_width_um=1.0, trace_thickness_um=1.0, clock_frequency_hz=1e3)
        with pytest.raises(PhyError, match="skin depth"):
            line_params(thin)

    def test_bad_geometry_rejected(self):
        with pytest.raises(ValidationError):
            PhySpec(trace_width_um=0.0)
        with pytest.raises(ValidationError):
            PhySpec(relative_permittivity=0.5)

    @pytest.mark.parametrize("field", ["trace_width_um", "trace_thickness_um",
                                       "ground_thickness_um", "interposer_height_um"])
    def test_length_underflowing_in_metres_rejected(self, field):
        # 1e-320 um passes the > 0 check but is 0.0 m once converted
        with pytest.raises(PhyError, match="out of floating-point range"):
            line_params(PhySpec(**{field: 1e-320}))

    @settings(max_examples=50, deadline=None)
    @given(f1=st.floats(1e8, 1e11), f2=st.floats(1e8, 1e11))
    def test_ac_resistance_grows_with_frequency(self, f1, f2):
        lo, hi = sorted((f1, f2))
        assert (line_params(replace(PHY, clock_frequency_hz=hi)).r_ac_per_length
                >= line_params(replace(PHY, clock_frequency_hz=lo)).r_ac_per_length)


class TestRiseTimeBandwidth:
    def test_rise_time_10mm(self):
        # hand value: R' * C' * L^2 * ln 9 at L = 10 mm
        assert rise_time(0.01, LP) == pytest.approx(8.7485e-12, rel=5e-3)

    def test_rise_time_quadratic_in_length(self):
        assert rise_time(0.02, LP) == pytest.approx(4 * rise_time(0.01, LP), rel=1e-12)

    def test_zero_length(self):
        assert rise_time(0.0, LP) == 0.0

    def test_bandwidth_is_035_over_rise_time(self):
        L = 0.015
        assert bandwidth_3db(L, LP) == pytest.approx(0.35 / rise_time(L, LP), rel=1e-12)

    def test_bandwidth_10mm(self):
        assert bandwidth_3db(0.01, LP) == pytest.approx(40.0e9, rel=1e-2)

    def test_negative_length_rejected(self):
        with pytest.raises(PhyError):
            rise_time(-1.0, LP)
        with pytest.raises(PhyError):
            bandwidth_3db(0.0, LP)


class TestMaxTraceLength:
    def test_reference_geometry(self):
        L = max_trace_length(PHY)
        assert 35.5e-3 <= L <= 37.5e-3
        assert L == pytest.approx(36.518e-3, rel=5e-3)

    def test_closed_form_inverts_bandwidth(self):
        L = max_trace_length(PHY)
        assert bandwidth_3db(L, LP) == pytest.approx(PHY.target_bandwidth, rel=1e-9)

    def test_shrinks_with_clock(self):
        slow = max_trace_length(replace(PHY, clock_frequency_hz=1e9))
        fast = max_trace_length(replace(PHY, clock_frequency_hz=4e9))
        assert fast < max_trace_length(PHY) < slow

    @settings(max_examples=50, deadline=None)
    @given(f=st.floats(5e8, 2e10), sf=st.floats(1.0, 3.0))
    def test_round_trip_property(self, f, sf):
        t = replace(PHY, clock_frequency_hz=f, safety_factor=sf)
        L = max_trace_length(t)
        lp = line_params(t)
        assert bandwidth_3db(L, lp) == pytest.approx(t.target_bandwidth, rel=1e-9)

    def test_bad_targets_rejected(self):
        with pytest.raises(ValidationError):
            PhySpec(clock_frequency_hz=-1.0)


class TestBandwidthCurve:
    def test_rows_match_point_model(self):
        lengths = [0.001 * k for k in range(1, 101)]
        rows = bandwidth_curve(lengths, PHY)
        assert len(rows) == 100
        for L, log_bw, log_target in rows:
            assert log_bw == pytest.approx(math.log10(bandwidth_3db(L, LP)), rel=1e-12)
            assert log_target == pytest.approx(math.log10(3e9), rel=1e-12)

    def test_crossing_near_max_length(self):
        # the curve crosses the target line at max_trace_length
        Lmax = max_trace_length(PHY)
        rows = bandwidth_curve([Lmax * 0.99, Lmax * 1.01], PHY)
        assert rows[0][1] > rows[0][2]
        assert rows[1][1] < rows[1][2]

    def test_empty_rejected(self):
        with pytest.raises(PhyError):
            bandwidth_curve([], PHY)
