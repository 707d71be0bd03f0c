import math

import numpy as np
import pytest

from chipletdse.model import ChipletSpec, Floorplan, PackageSpec, PlacedChiplet, ValidationError
from chipletdse.place import (
    AnnealConfig,
    NormalizationBounds,
    PlacementError,
    acceptance_probability,
    alpha_for,
    anneal_cost,
    bst_placement,
    calibrate_k,
    interposer_sweep,
    optimize,
    propose_move,
    wirelength,
)


def small_spec(width=20.0, height=20.0):
    chiplets = (
        ChipletSpec("a", 6, 6, 12.0, ports=(("b", 2.0),)),
        ChipletSpec("b", 5, 5, 6.0, ports=(("c", 1.0),)),
        ChipletSpec("c", 4, 4, 3.0),
        ChipletSpec("d", 4, 4, 2.0),
    )
    return PackageSpec("small", chiplets, width, height, min_spacing=1.0)


def oblong_spec():
    """No chiplet is square, so every rotate move changes the footprint."""
    chiplets = (
        ChipletSpec("a", 8, 4, 12.0, ports=(("b", 2.0),)),
        ChipletSpec("b", 3, 6, 6.0, ports=(("c", 1.0),)),
        ChipletSpec("c", 5, 2.5, 3.0),
        ChipletSpec("d", 2, 4.5, 2.0),
    )
    return PackageSpec("oblong", chiplets, 24.0, 20.0, min_spacing=1.0)


FAST = AnnealConfig(max_iterations=20, moves_per_iteration=5, seed=3,
                    coarse_cell_mm=2.0, fine_cell_mm=2.0)


class TestWirelength:
    def test_single_link_manhattan(self):
        fp = Floorplan(20, 20, (
            PlacedChiplet("a", 0, 0, 0, 5, 5, 1.0),
            PlacedChiplet("b", 4, 6, 0, 5, 5, 1.0),
        ), links=(("a", "b", 1.0),), min_spacing=0.0)
        # centers (2.5, 2.5) and (6.5, 8.5): |dx| + |dy| = 10
        assert wirelength(fp) == pytest.approx(10.0, rel=1e-12)

    def test_weights_scale_linearly(self):
        fp = Floorplan(20, 20, (
            PlacedChiplet("a", 0, 0, 0, 5, 5, 1.0),
            PlacedChiplet("b", 4, 6, 0, 5, 5, 1.0),
        ), links=(("a", "b", 0.7),), min_spacing=0.0)
        assert wirelength(fp) == pytest.approx(7.0, rel=1e-12)

    def test_no_links_zero(self):
        fp = Floorplan(20, 20, (PlacedChiplet("a", 1, 1, 0, 5, 5, 1.0),))
        assert wirelength(fp) == 0.0


class TestCostFunction:
    def test_alpha_zero_at_or_below_onset(self):
        assert alpha_for(50.0) == 0.0
        assert alpha_for(60.0) == 0.0

    def test_alpha_linear_region(self):
        assert alpha_for(70.0) == pytest.approx(0.35, rel=1e-12)
        assert alpha_for(100.0) == pytest.approx(0.65, rel=1e-12)

    def test_alpha_capped(self):
        assert alpha_for(125.0) == pytest.approx(0.9, rel=1e-12)
        assert alpha_for(200.0) == 0.9

    def test_cost_extremes(self):
        nb = NormalizationBounds(t_min=50.0, t_max=100.0, w_min=0.0, w_max=10.0)
        # both components at their maximum: alpha*1 + (1-alpha)*1
        assert anneal_cost(100.0, 10.0, nb) == pytest.approx(1.0, rel=1e-12)
        # cool plan, alpha = 0, zero wirelength
        assert anneal_cost(50.0, 0.0, nb) == 0.0

    def test_cost_midpoint(self):
        nb = NormalizationBounds(t_min=50.0, t_max=100.0, w_min=0.0, w_max=10.0)
        # T = 75: alpha = 0.4, T_norm = 0.5, W_norm = 0.5
        assert anneal_cost(75.0, 5.0, nb) == pytest.approx(0.5, rel=1e-12)

    def test_degenerate_bounds_contribute_zero(self):
        nb = NormalizationBounds()
        assert anneal_cost(80.0, 5.0, nb) == 0.0
        nb.update(80.0, 5.0)  # min == max on both axes
        assert anneal_cost(80.0, 5.0, nb) == 0.0

    def test_acceptance(self):
        assert acceptance_probability(0.5, 0.5, 0.1) == 1.0
        assert acceptance_probability(0.3, 0.2, 0.1) == 1.0  # improving
        assert acceptance_probability(0.2, 0.3, 0.1) == pytest.approx(math.exp(-1.0))

    def test_acceptance_requires_positive_k(self):
        with pytest.raises(PlacementError):
            acceptance_probability(0.1, 0.2, 0.0)


class TestBstPlacement:
    def test_valid_and_deterministic(self):
        a = bst_placement(small_spec())
        b = bst_placement(small_spec())
        a.validate()
        assert a == b

    def test_all_chiplets_placed_once(self):
        fp = bst_placement(small_spec())
        assert sorted(p.name for p in fp.placements) == ["a", "b", "c", "d"]

    def test_bundled_spec_packs(self, infotainment):
        fp = bst_placement(infotainment)
        fp.validate()
        assert len(fp.placements) == len(infotainment.chiplets)

    def test_too_small_interposer(self):
        with pytest.raises(PlacementError, match="does not fit"):
            bst_placement(small_spec(width=10.0, height=10.0))


class TestProposeMove:
    def test_deterministic_replay(self):
        fp = bst_placement(small_spec())
        seq1 = []
        rng = np.random.default_rng(5)
        cur = fp
        for _ in range(30):
            cur = propose_move(cur, rng)
            seq1.append(cur)
        rng = np.random.default_rng(5)
        cur = fp
        for i in range(30):
            cur = propose_move(cur, rng)
            assert cur == seq1[i]

    def test_moves_stay_legal(self):
        rng = np.random.default_rng(9)
        cur = bst_placement(small_spec())
        names = sorted(p.name for p in cur.placements)
        for _ in range(50):
            cur = propose_move(cur, rng)
            cur.validate()
            assert sorted(p.name for p in cur.placements) == names

    def test_congested_board_raises(self):
        # a square chiplet covering the whole board: no translation fits
        # and rotations are no-ops
        fp = Floorplan(10, 10, (PlacedChiplet("a", 0, 0, 0, 10, 10, 1.0),),
                       min_spacing=0.0)
        with pytest.raises(PlacementError, match="congested"):
            propose_move(fp, np.random.default_rng(0))

    def test_rotation_swaps_footprint_about_its_centre(self):
        rng = np.random.default_rng(2)
        cur = bst_placement(oblong_spec())
        rotations = 0
        for _ in range(100):
            nxt = propose_move(cur, rng)
            nxt.validate()
            for old, new in zip(cur.placements, nxt.placements):
                if new.rotation == old.rotation:
                    continue
                rotations += 1
                assert new.rotation == (old.rotation + 90) % 360
                assert (new.eff_width, new.eff_height) == (old.eff_height, old.eff_width)
                assert new.center == pytest.approx(old.center, rel=0.0, abs=1e-12)
            cur = nxt
        assert rotations >= 5


class TestAnnealConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValidationError):
            AnnealConfig(k0=0.0)
        with pytest.raises(ValidationError):
            AnnealConfig(decay=1.0)
        with pytest.raises(ValidationError):
            AnnealConfig(tol=0.0)
        with pytest.raises(ValidationError):
            AnnealConfig(max_iterations=0)
        with pytest.raises(ValidationError, match="moves_per_iteration"):
            AnnealConfig(moves_per_iteration=0)
        with pytest.raises(ValidationError, match="seed"):
            AnnealConfig(seed=-1)

    @pytest.mark.parametrize("field", ["coarse_cell_mm", "fine_cell_mm"])
    @pytest.mark.parametrize("value", [0.0, -2.0])
    def test_rejects_non_positive_cell_size(self, field, value):
        with pytest.raises(ValidationError, match="cell_mm"):
            AnnealConfig(**{field: value})


class TestOptimize:
    def test_deterministic(self):
        r1 = optimize(small_spec(), FAST)
        r2 = optimize(small_spec(), FAST)
        assert r1.history == r2.history
        assert r1.floorplan == r2.floorplan
        assert r1.final_peak_t == r2.final_peak_t

    def test_result_is_legal(self):
        r = optimize(small_spec(), FAST)
        r.floorplan.validate()
        assert r.iterations <= FAST.max_iterations

    def test_oblong_chiplets_legal_and_deterministic(self):
        r1 = optimize(oblong_spec(), FAST)
        r2 = optimize(oblong_spec(), FAST)
        r1.floorplan.validate()
        assert r1.history == r2.history
        assert r1.floorplan == r2.floorplan
        assert r1.final_peak_t == r2.final_peak_t

    def test_cooling_schedule_in_history(self):
        r = optimize(small_spec(), FAST)
        for i, row in enumerate(r.history):
            assert row.iteration == i
            assert row.k == pytest.approx(FAST.k0 * FAST.decay ** i, rel=1e-12)

    def test_single_chiplet_centered(self):
        spec = PackageSpec("one", (ChipletSpec("a", 5, 5, 3.0),), 20.0, 20.0)
        r = optimize(spec, FAST)
        p = r.floorplan.placements[0]
        assert (p.x, p.y) == (7.5, 7.5)
        assert len(r.history) == 1
        assert r.converged

    def test_seed_changes_trajectory(self):
        r1 = optimize(small_spec(), FAST)
        r2 = optimize(small_spec(), AnnealConfig(
            max_iterations=20, moves_per_iteration=5, seed=4,
            coarse_cell_mm=2.0, fine_cell_mm=2.0))
        assert r1.history != r2.history


class TestCalibrateAndSweep:
    def test_duplicate_candidates_identical(self):
        rows = calibrate_k(small_spec(), [0.1, 0.1], FAST)
        assert rows[0].iterations == rows[1].iterations
        assert rows[0].final_peak_t == rows[1].final_peak_t

    def test_empty_candidates_rejected(self):
        with pytest.raises(PlacementError):
            calibrate_k(small_spec(), [], FAST)

    def test_sweep_marks_infeasible_sides(self):
        rows = interposer_sweep(small_spec(), [8.0, 10.0, 20.0], FAST)
        assert [r.feasible for r in rows] == [False, False, True]
        assert rows[0].peak_t is None and rows[1].peak_t is None
        assert rows[2].peak_t > 45.0
        assert rows[2].area_mm2 == 400.0
