"""End-to-end acceptance gate.

Each test covers one release criterion and prints a single PASS/FAIL line;
run with ``pytest tests/test_acceptance.py -s`` to see the report.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chipletdse import costyield, perf, phy, place, power, thermal
from chipletdse.model import (
    Floorplan,
    PlacedChiplet,
    PowerParams,
    ProcessCostParams,
    ServiceSpec,
    default_stack,
)
from tests.test_thermal import SMALL, dense_solve, power_map, soc_plan, split_plan


def report(n: int, title: str):
    class _Reporter:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            status = "PASS" if exc_type is None else "FAIL"
            print(f"\nACCEPTANCE {n} ({title}): {status}")
            return False

    return _Reporter()


@pytest.fixture(scope="module")
def anneal_result(bundle):
    return place.optimize(bundle.package, bundle.anneal)


class TestCriterion1Phy:
    def test_per_length_constants_and_reach(self):
        with report(1, "PHY per-length constants and max trace length"):
            g = phy.TraceGeometry()
            t = phy.PhyTargets()
            lp = phy.line_params(g, t.clock_frequency)
            assert lp.c_per_length == pytest.approx(389e-12, rel=5e-3)
            assert lp.r_dc_per_length == pytest.approx(16.72, rel=5e-3)
            assert lp.r_ac_per_length == pytest.approx(85.64, rel=5e-3)
            assert lp.r_total_per_length == pytest.approx(102.36, rel=5e-3)
            reach = phy.max_trace_length(t, g)
            assert 35.5e-3 <= reach <= 37.5e-3


class TestCriterion2GoldenRatio:
    def test_config_table(self, bundle):
        with report(2, "golden-ratio table C1/C2/C3"):
            ranked = perf.rank_configs(bundle.configs)
            gr = {r.name: r.golden_ratio for r in ranked}
            rel = {r.name: r.relative for r in ranked}
            assert gr["C1"] == pytest.approx(4.97e5, rel=1e-2)
            assert gr["C2"] == pytest.approx(2.58e5, rel=1e-2)
            assert gr["C3"] == pytest.approx(4.58e5, rel=1e-2)
            assert rel["C1"] == pytest.approx(1.93, abs=0.02)
            assert rel["C2"] == pytest.approx(1.00, abs=0.02)
            assert rel["C3"] == pytest.approx(1.78, abs=0.02)


class TestCriterion3CostRatio:
    def test_ratio_in_published_bracket(self):
        with report(3, "SoC vs 4-chiplet cost ratio"):
            p = ProcessCostParams()
            ratio = costyield.cost_ratio(858.0, [170.0] * 4, 20000, p)
            assert 3.5 <= ratio <= 4.5

    @settings(max_examples=40, deadline=None)
    @given(scale=st.floats(0.001, 1000.0))
    def test_ratio_independent_of_wafer_cost(self, scale):
        p = ProcessCostParams()
        base = costyield.cost_ratio(858.0, [170.0] * 4, 20000, p)
        scaled = costyield.cost_ratio(
            858.0, [170.0] * 4, 20000,
            ProcessCostParams(wafer_cost=p.wafer_cost * scale))
        assert scaled == pytest.approx(base, rel=1e-12)

    def test_wafer_cost_property_reported(self):
        with report(3, "cost ratio independent of wafer cost (property)"):
            pass  # asserted exhaustively by the hypothesis test above


class TestCriterion4ThermalProperties:
    def test_solver_properties(self):
        with report(4, "thermal solver conservation/superposition/equivalence"):
            # zero power -> ambient
            tf = thermal.solve_steady_state(power_map(np.zeros((5, 5))), SMALL)
            assert np.allclose(tf.data, SMALL.ambient, atol=1e-9)
            # energy conservation on 50 random maps
            rng = np.random.default_rng(42)
            for _ in range(50):
                pm = power_map(rng.uniform(0.0, 5.0, size=(6, 6)))
                out = thermal.boundary_heat_flow(thermal.solve_steady_state(pm, SMALL))
                assert out == pytest.approx(pm.total_power, rel=1e-3)
            # superposition
            p1 = power_map(rng.uniform(0.0, 3.0, size=(5, 5)))
            p2 = power_map(rng.uniform(0.0, 3.0, size=(5, 5)))
            t1 = thermal.solve_steady_state(p1, SMALL).data - SMALL.ambient
            t2 = thermal.solve_steady_state(p2, SMALL).data - SMALL.ambient
            t12 = thermal.solve_steady_state(
                power_map(p1.cells + p2.cells), SMALL).data - SMALL.ambient
            assert np.allclose(t12, t1 + t2, rtol=1e-9, atol=1e-9)
            # equivalence with a dense direct solve on small grids
            for shape in ((3, 3), (6, 6), (4, 6)):
                pm = power_map(rng.uniform(0.0, 2.0, size=shape))
                got = thermal.solve_steady_state(pm, SMALL).data
                want = dense_solve(SMALL, pm)
                assert np.allclose(got, want, rtol=1e-6, atol=1e-9)


class TestCriterion5SocVsChiplet:
    def test_power_controlled_delta(self):
        with report(5, "SoC vs spaced chiplets peak delta >= 2 K"):
            stack = default_stack()
            peak_soc, peak_split, delta = thermal.compare_soc_vs_chiplet(
                soc_plan(), split_plan(4.0), stack, cell_mm=1.0)
            assert delta >= 2.0
            # regression golden values
            assert peak_soc == pytest.approx(99.0661, abs=0.05)
            assert peak_split == pytest.approx(95.5485, abs=0.05)
            assert delta == pytest.approx(3.5177, abs=0.05)


class TestCriterion6Annealer:
    def test_improvement_convergence_determinism(self, bundle, anneal_result):
        with report(6, "annealer improves, converges, deterministic"):
            r = anneal_result
            assert r.final_peak_t < r.initial_peak_t
            assert r.converged
            assert r.iterations <= 500
            # regression golden values (seed 1, bundled config)
            assert r.iterations == 99
            assert r.initial_peak_t == pytest.approx(109.13, abs=0.05)
            assert r.final_peak_t == pytest.approx(87.34, abs=0.05)
            again = place.optimize(bundle.package, bundle.anneal)
            assert again.history == r.history
            assert again.floorplan == r.floorplan


class TestCriterion7InterposerSweep:
    def test_interior_minimum(self, bundle):
        with report(7, "interposer sweep has interior minimum"):
            sides = [30.0, 35.0, 40.0, 45.0, 50.0]
            rows = place.interposer_sweep(bundle.package, sides, bundle.anneal)
            assert all(r.feasible for r in rows)
            peaks = [r.peak_t for r in rows]
            best = peaks.index(min(peaks))
            assert 0 < best < len(peaks) - 1
            # regression golden values (seed 1)
            assert sides[best] == 45.0
            for got, want in zip(peaks, [108.31, 96.53, 87.34, 86.22, 93.21]):
                assert got == pytest.approx(want, abs=0.5)


class TestCriterion8FormulaSuite:
    def test_representative_formulas(self):
        with report(8, "formula unit values"):
            p = ProcessCostParams()
            assert costyield.die_yield(858.0, p) == pytest.approx(0.2575, abs=5e-4)
            assert costyield.die_yield(170.0, p) == pytest.approx(0.7246, abs=5e-4)
            assert costyield.gross_dies_per_wafer(858.0, 300.0) == 59
            assert costyield.gross_dies_per_wafer(170.0, 300.0) == 364
            assert costyield.assembly_yield(4, 20000, p) == pytest.approx(0.9763, abs=5e-4)
            assert costyield.package_cost([(858.0, 1)], 0, p).package_cost == \
                pytest.approx(658.9, abs=0.5)
            assert costyield.package_cost([(170.0, 4)], 20000, p).package_cost == \
                pytest.approx(155.3, abs=0.5)

            b = power.power_breakdown(PowerParams(
                activity=0.1, load_capacitance=1e-9, frequency=2e9, voltage=1.0))
            assert b.switching == pytest.approx(0.2, rel=1e-9)
            assert power.power_breakdown(
                PowerParams(voltage=0.5, threshold=0.3)).short_circuit == 0.0

            s = ServiceSpec(word_bits=512, service_bandwidth=64e9, base_latency=20e-9)
            assert perf.service_latency(s) == pytest.approx(2.8e-8, rel=1e-9)
            assert perf.golden_ratio(1.95e9, 30.311, 129.6854) == \
                pytest.approx(4.9607e5, rel=1e-3)

            g = phy.TraceGeometry()
            lp = phy.line_params(g, 2e9)
            assert lp.skin_depth == pytest.approx(1.455e-6, rel=5e-3)
            assert phy.rise_time(0.01, lp) == pytest.approx(8.7485e-12, rel=5e-3)
            assert phy.bandwidth_3db(0.01, lp) == pytest.approx(40e9, rel=1e-2)

            assert place.alpha_for(50.0) == 0.0
            assert place.alpha_for(70.0) == pytest.approx(0.35, rel=1e-12)
            assert place.alpha_for(200.0) == 0.9
            assert place.acceptance_probability(0.2, 0.3, 0.1) == \
                pytest.approx(math.exp(-1.0), rel=1e-12)

            fp = Floorplan(20, 20, (
                PlacedChiplet("a", 0, 0, 0, 5, 5, 1.0),
                PlacedChiplet("b", 4, 6, 0, 5, 5, 1.0),
            ), links=(("a", "b", 1.0),), min_spacing=0.0)
            assert place.wirelength(fp) == pytest.approx(10.0, rel=1e-12)
