import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chipletdse import costyield as cy
from chipletdse.model import ProcessCostParams

P = ProcessCostParams()  # d0=0.002/mm^2, alpha=3, 300 mm wafer


def brute_package_cost(areas, n_conn, params):
    # independent arithmetic oracle, no shared code path beyond primitives
    total = 0.0
    for a in areas:
        gross = math.floor(math.pi * (params.wafer_diameter / 2) ** 2 / a
                           - math.pi * params.wafer_diameter / math.sqrt(2 * a))
        y = (1 + params.d0 * a / params.alpha_yield) ** -params.alpha_yield
        total += params.wafer_cost / (gross * y)
    ay = params.assembly_die_survival ** len(areas) * params.assembly_conn_survival ** n_conn
    return total / ay


class TestDieYield:
    def test_zero_area_yields_one(self):
        assert cy.die_yield(0.0, P) == 1.0

    def test_soc_area(self):
        assert cy.die_yield(858.0, P) == pytest.approx(0.2575, abs=5e-4)

    def test_chiplet_area(self):
        assert cy.die_yield(170.0, P) == pytest.approx(0.7246, abs=5e-4)

    @settings(max_examples=50, deadline=None)
    @given(a1=st.floats(0, 2000), a2=st.floats(0, 2000),
           d1=st.floats(0, 0.05), d2=st.floats(0, 0.05))
    def test_monotone_in_area_and_d0(self, a1, a2, d1, d2):
        lo_a, hi_a = sorted((a1, a2))
        lo_d, hi_d = sorted((d1, d2))
        assert cy.die_yield(hi_a, P) <= cy.die_yield(lo_a, P)
        p_lo = ProcessCostParams(d0=lo_d)
        p_hi = ProcessCostParams(d0=hi_d)
        assert cy.die_yield(500.0, p_hi) <= cy.die_yield(500.0, p_lo)


class TestGrossDies:
    def test_soc(self):
        assert cy.gross_dies_per_wafer(858.0, 300.0) == 59

    def test_chiplet(self):
        assert cy.gross_dies_per_wafer(170.0, 300.0) == 364

    def test_die_bigger_than_wafer(self):
        assert cy.gross_dies_per_wafer(80000.0, 300.0) == 0

    def test_nonpositive_area_rejected(self):
        with pytest.raises(cy.CostModelError):
            cy.gross_dies_per_wafer(0.0, 300.0)


class TestAssemblyYield:
    def test_empty_package(self):
        assert cy.assembly_yield(0, 0, P) == 1.0

    def test_single_die(self):
        assert cy.assembly_yield(1, 0, P) == pytest.approx(0.999)

    def test_four_dies_20k_connections(self):
        assert cy.assembly_yield(4, 20000, P) == pytest.approx(0.9763, abs=5e-4)


class TestPackageCost:
    def test_single_soc_die(self):
        got = cy.package_cost([(858.0, 1)], 0, P).package_cost
        assert got == pytest.approx(brute_package_cost([858.0], 0, P), rel=1e-12)
        assert got == pytest.approx(658.9, abs=0.5)

    def test_four_chiplets(self):
        got = cy.package_cost([(170.0, 4)], 20000, P).package_cost
        assert got == pytest.approx(brute_package_cost([170.0] * 4, 20000, P), rel=1e-12)
        assert got == pytest.approx(155.3, abs=0.5)

    def test_zero_dies(self):
        bd = cy.package_cost([], 0, P)
        assert bd.package_cost == 0.0
        assert bd.assembly_yield == 1.0

    def test_die_exceeding_wafer(self):
        with pytest.raises(cy.CostModelError, match="exceeds wafer"):
            cy.package_cost([(80000.0, 1)], 0, P)

    def test_cost_at_least_raw_die_cost(self):
        bd = cy.package_cost([(170.0, 4), (50.0, 2)], 5000, P)
        assert bd.package_cost >= bd.raw_die_cost


class TestCostRatio:
    def test_soc_vs_four_chiplets(self):
        ratio = cy.cost_ratio(858.0, [170.0] * 4, 20000, P)
        expected = brute_package_cost([858.0], 0, P) / brute_package_cost([170.0] * 4, 20000, P)
        assert ratio == pytest.approx(expected, rel=1e-12)
        assert ratio == pytest.approx(4.24, abs=0.02)

    def test_identity(self):
        assert cy.cost_ratio(858.0, [858.0], 0, P) == pytest.approx(1.0, rel=1e-12)

    def test_zero_defect_density_equal_silicon(self):
        # with d0=0 and an area-preserving split only assembly yield and
        # edge loss differ; the advantage collapses
        p0 = ProcessCostParams(d0=0.0)
        assert cy.cost_ratio(858.0, [858.0 / 4] * 4, 20000, p0) < 1.2

    @settings(max_examples=30, deadline=None)
    @given(scale=st.floats(0.01, 100.0))
    def test_invariant_under_wafer_cost(self, scale):
        base = cy.cost_ratio(858.0, [170.0] * 4, 20000, P)
        scaled = cy.cost_ratio(858.0, [170.0] * 4, 20000,
                               ProcessCostParams(wafer_cost=P.wafer_cost * scale))
        assert scaled == pytest.approx(base, rel=1e-12)
