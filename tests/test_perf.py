import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chipletdse.model import ConfigSpec, ServiceSpec, ValidationError
from chipletdse.perf import (
    PerfError,
    golden_ratio,
    rank_configs,
    service_latency,
)

# reference configuration fixture (cost, throughput, latency) with known
# golden ratios and relatives
FIXTURE = [
    ConfigSpec("C1", 129.6854, 1.95e9, 30.311),
    ConfigSpec("C2", 177.3822, 1.97e9, 43.234),
    ConfigSpec("C3", 136.7064, 1.92e9, 30.763),
]


def gr(tp, lat, cost):
    return golden_ratio(ConfigSpec("c", cost, tp, lat))


class TestLatencyThroughput:
    def test_latency_is_word_time_plus_base(self):
        s = ServiceSpec(word_bits=512, service_bandwidth=64e9, base_latency=20e-9)
        assert service_latency(s) == pytest.approx(512 / 64e9 + 20e-9, rel=1e-12)

    def test_zero_base_latency(self):
        s = ServiceSpec(word_bits=256, service_bandwidth=32e9)
        assert service_latency(s) == pytest.approx(8e-9, rel=1e-12)


class TestGoldenRatio:
    def test_fixture_values(self):
        expected = {"C1": 4.9607e5, "C2": 2.5688e5, "C3": 4.5655e5}
        for c in FIXTURE:
            assert golden_ratio(c) == pytest.approx(expected[c.name], rel=1e-2)

    # the positivity of a ranked row is ConfigSpec's rule, checked when it is built
    def test_nonpositive_latency_rejected(self):
        with pytest.raises(ValidationError, match=r"^latency: must be > 0 and finite$"):
            ConfigSpec("c", 100.0, 1e9, 0.0)

    def test_nonpositive_cost_rejected(self):
        with pytest.raises(ValidationError, match=r"^cost: must be > 0 and finite$"):
            ConfigSpec("c", 0.0, 1e9, 1.0)

    def test_ratio_out_of_float_range_rejected(self):
        # latency * cost underflows to 0, so the ratio would be infinite
        with pytest.raises(PerfError, match="out of floating-point range"):
            gr(1e9, 1e-200, 1e-200)

    @settings(max_examples=50, deadline=None)
    @given(tp=st.floats(1e3, 1e12), lat=st.floats(1e-9, 1e3),
           cost=st.floats(1e-3, 1e6), k=st.floats(0.01, 100.0))
    def test_scale_covariance(self, tp, lat, cost, k):
        # linear in throughput, inverse in latency and cost
        base = gr(tp, lat, cost)
        assert gr(k * tp, lat, cost) == pytest.approx(k * base, rel=1e-9)
        assert gr(tp, k * lat, cost) == pytest.approx(base / k, rel=1e-9)
        assert gr(tp, lat, k * cost) == pytest.approx(base / k, rel=1e-9)


class TestRankConfigs:
    def test_fixture_order_and_relatives(self):
        rows = rank_configs(FIXTURE)
        assert [r.name for r in rows] == ["C1", "C3", "C2"]
        rel = {r.name: r.relative for r in rows}
        assert rel["C1"] == pytest.approx(1.931, abs=0.02)
        assert rel["C2"] == pytest.approx(1.000, abs=1e-12)
        assert rel["C3"] == pytest.approx(1.777, abs=0.02)

    def test_minimum_has_relative_one(self):
        rows = rank_configs(FIXTURE)
        assert rows[-1].relative == 1.0

    def test_tie_breaks_by_name(self):
        rows = rank_configs([ConfigSpec("b", 1.0, 1.0, 1.0), ConfigSpec("a", 1.0, 1.0, 1.0)])
        assert [r.name for r in rows] == ["a", "b"]

    def test_empty_rejected(self):
        with pytest.raises(PerfError, match=r"^configs: no configuration rows$"):
            rank_configs([])

    def test_duplicate_names_rejected(self):
        # a ratio keyed by name would give the first "a" row the second's ratio
        with pytest.raises(ValueError, match=r"^configs\[1\]\.name: duplicate name 'a'$"):
            rank_configs([ConfigSpec("a", 1.0, 1.0, 1.0), ConfigSpec("a", 2.0, 1.0, 1.0),
                          ConfigSpec("b", 1.0, 1.0, 1.0)])

    def test_bundled_configs_match_fixture(self, bundle):
        rows = rank_configs(bundle.configs)
        assert [r.name for r in rows] == ["C1", "C3", "C2"]
