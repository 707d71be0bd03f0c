import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chipletdse.model import PowerParams, ValidationError
from chipletdse.power import power_breakdown, system_power


class TestPowerBreakdown:
    def test_switching(self):
        p = PowerParams(activity=0.1, load_capacitance_f=1e-9, frequency_hz=2e9, voltage_v=1.0)
        assert power_breakdown(p).switching == pytest.approx(0.2, rel=1e-12)

    def test_zero_voltage_zeroes_everything(self):
        p = PowerParams(voltage_v=0.0)
        b = power_breakdown(p)
        assert b.switching == b.short_circuit == b.leakage == 0.0

    def test_short_circuit(self):
        p = PowerParams(activity=0.1, gain_factor_a_v2=1e-4, frequency_hz=2e9,
                        transition_time_s=50e-12, voltage_v=1.0, threshold_v=0.3)
        assert power_breakdown(p).short_circuit == pytest.approx(5.333e-9, rel=1e-3)

    def test_short_circuit_clamped_below_twice_threshold(self):
        p = PowerParams(voltage_v=0.5, threshold_v=0.3)
        assert power_breakdown(p).short_circuit == 0.0

    def test_leakage(self):
        p = PowerParams(leakage_current_a=1e-10, voltage_v=1.0,
                        transistor_density_mm2=1e8, area_mm2=100.0)
        assert power_breakdown(p).leakage == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("frequency", [0.0, -1.0])
    def test_frequency_must_be_positive(self, frequency):
        with pytest.raises(ValidationError, match=r"^frequency_hz: must be > 0 and finite$"):
            PowerParams(frequency_hz=frequency)

    def test_total_is_exact_sum(self):
        b = power_breakdown(PowerParams())
        assert b.total == b.switching + b.short_circuit + b.leakage

    def test_switching_quadratic_in_voltage(self):
        lo = power_breakdown(PowerParams(voltage_v=0.7)).switching
        hi = power_breakdown(PowerParams(voltage_v=1.4)).switching
        assert hi == pytest.approx(4.0 * lo, rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        field=st.sampled_from(["activity", "load_capacitance_f", "frequency_hz",
                               "voltage_v", "leakage_current_a",
                               "transistor_density_mm2", "area_mm2"]),
        lo=st.floats(0.61, 2.0), factor=st.floats(1.0, 3.0),
    )
    def test_total_monotone(self, field, lo, factor):
        # stay in the V > 2*Vth region so the short-circuit clamp is inactive
        base = PowerParams(voltage_v=1.5)
        if field == "activity":
            lo, factor = min(lo, 0.5), min(factor, 2.0)
        a = PowerParams(**{**base.__dict__, field: lo})
        b = PowerParams(**{**base.__dict__, field: lo * factor})
        assert power_breakdown(b).total >= power_breakdown(a).total


class TestSystemPower:
    def test_empty(self):
        breakdowns, total = system_power([])
        assert breakdowns == [] and total == 0.0

    def test_single_tile_matches_breakdown(self):
        breakdowns, total = system_power([PowerParams()])
        assert breakdowns == [power_breakdown(PowerParams())]
        assert total == power_breakdown(PowerParams()).total

    def test_two_identical_tiles_double(self):
        _, one = system_power([PowerParams()])
        _, two = system_power([PowerParams()] * 2)
        assert two == pytest.approx(2 * one, rel=1e-15)

    def test_area_split_preserves_total(self):
        # splitting one block into n equal-area tiles leaves total power
        # unchanged: the quantitative core of the SoC-vs-chiplet power claim
        _, p_whole = system_power([PowerParams(area_mm2=800.0)])
        # the aggregate logic is split too: C and B divide across the tiles
        parts = [PowerParams(area_mm2=200.0, load_capacitance_f=0.25e-9, gain_factor_a_v2=0.25e-4)
                 for _ in range(4)]
        _, p_parts = system_power(parts)
        assert p_parts == pytest.approx(p_whole, rel=1e-12)
