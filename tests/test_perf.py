import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chipletdse.model import ServiceSpec
from chipletdse.perf import (
    PerfError,
    golden_ratio,
    rank_configs,
    service_latency,
    throughput,
)

# reference configuration fixture (cost, throughput, latency) with known
# golden ratios and relatives
FIXTURE = [
    ("C1", 129.6854, 1.95e9, 30.311),
    ("C2", 177.3822, 1.97e9, 43.234),
    ("C3", 136.7064, 1.92e9, 30.763),
]


class TestLatencyThroughput:
    def test_latency_is_word_time_plus_base(self):
        s = ServiceSpec(word_bits=512, service_bandwidth=64e9, base_latency=20e-9)
        assert service_latency(s) == pytest.approx(512 / 64e9 + 20e-9, rel=1e-12)

    def test_zero_base_latency(self):
        s = ServiceSpec(word_bits=256, service_bandwidth=32e9)
        assert service_latency(s) == pytest.approx(8e-9, rel=1e-12)

    def test_throughput(self):
        s = ServiceSpec(word_bits=64, service_bandwidth=1e9, clock=2e9,
                        channels=16, bits_per_channel_per_cycle=2.0)
        assert throughput(s) == pytest.approx(64e9, rel=1e-12)

    def test_zero_channels_zero_throughput(self):
        s = ServiceSpec(word_bits=64, service_bandwidth=1e9, channels=0)
        assert throughput(s) == 0.0


class TestGoldenRatio:
    def test_fixture_values(self):
        expected = {"C1": 4.9607e5, "C2": 2.5688e5, "C3": 4.5655e5}
        for name, cost, tp, lat in FIXTURE:
            assert golden_ratio(tp, lat, cost) == pytest.approx(
                expected[name], rel=1e-2)

    def test_nonpositive_latency_rejected(self):
        with pytest.raises(PerfError):
            golden_ratio(1e9, 0.0, 100.0)

    def test_nonpositive_cost_rejected(self):
        with pytest.raises(PerfError):
            golden_ratio(1e9, 1.0, 0.0)

    @settings(max_examples=50, deadline=None)
    @given(tp=st.floats(1e3, 1e12), lat=st.floats(1e-9, 1e3),
           cost=st.floats(1e-3, 1e6), k=st.floats(0.01, 100.0))
    def test_scale_covariance(self, tp, lat, cost, k):
        # linear in throughput, inverse in latency and cost
        base = golden_ratio(tp, lat, cost)
        assert golden_ratio(k * tp, lat, cost) == pytest.approx(k * base, rel=1e-9)
        assert golden_ratio(tp, k * lat, cost) == pytest.approx(base / k, rel=1e-9)
        assert golden_ratio(tp, lat, k * cost) == pytest.approx(base / k, rel=1e-9)


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
        rows = rank_configs([("b", 1.0, 1.0, 1.0), ("a", 1.0, 1.0, 1.0)])
        assert [r.name for r in rows] == ["a", "b"]

    def test_empty_rejected(self):
        with pytest.raises(PerfError):
            rank_configs([])

    def test_duplicate_names_rejected(self):
        # a ratio keyed by name would give the first "a" row the second's ratio
        with pytest.raises(ValueError, match=r"^configs\[1\]\.name: duplicate name 'a'$"):
            rank_configs([("a", 1.0, 1.0, 1.0), ("a", 2.0, 1.0, 1.0), ("b", 1.0, 1.0, 1.0)])

    def test_bundled_configs_match_fixture(self, bundle):
        rows = rank_configs(bundle.configs)
        assert [r.name for r in rows] == ["C1", "C3", "C2"]
