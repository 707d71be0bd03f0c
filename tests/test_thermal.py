import itertools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chipletdse import place, thermal
from chipletdse.model import (
    DEFAULT_STACK_LAYERS,
    Floorplan,
    LayerSpec,
    PlacedChiplet,
    ThermalStack,
    ValidationError,
)
from chipletdse.thermal import (
    Grid,
    PowerMap,
    ThermalError,
    boundary_heat_flow,
    chiplet_peak,
    compare_soc_vs_chiplet,
    grid_shape,
    peak_temperature,
    rasterize,
    solve_steady_state,
)

MM = 1e-3

# small 3-layer stack for oracle comparisons; whole top face cooled
SMALL = ThermalStack(
    layers=(
        LayerSpec("board", 0.5, 5.0),
        LayerSpec("chiplet", 0.3, 130.0),
        LayerSpec("lid", 0.4, 50.0),
    ),
    h_top_w_m2k=2000.0,
    ambient_c=45.0,
)


def dense_solve(stack, pm):
    """Independent reference: assemble the conductance system densely with
    plain loops and solve with np.linalg.solve. Only usable for tiny grids.
    """
    nl, nx, ny, cell_mm = len(stack.layers), pm.grid.nx, pm.grid.ny, pm.grid.cell_mm
    n = nl * ny * nx
    cell = cell_mm * MM
    A = np.zeros((n, n))
    b = np.zeros(n)

    def idx(l, iy, ix):
        return (l * ny + iy) * nx + ix

    def couple(i, j, g):
        A[i, i] += g
        A[j, j] += g
        A[i, j] -= g
        A[j, i] -= g

    for l, layer in enumerate(stack.layers):
        t = layer.thickness_mm * MM
        g_lat = layer.conductivity_w_mk * t  # k * (cell*t) / cell
        for iy in range(ny):
            for ix in range(nx):
                if ix + 1 < nx:
                    couple(idx(l, iy, ix), idx(l, iy, ix + 1), g_lat)
                if iy + 1 < ny:
                    couple(idx(l, iy, ix), idx(l, iy + 1, ix), g_lat)
        if l + 1 < nl:
            up = stack.layers[l + 1]
            r = (t / (2 * layer.conductivity_w_mk)
                 + up.thickness_mm * MM / (2 * up.conductivity_w_mk)) / (cell * cell)
            for iy in range(ny):
                for ix in range(nx):
                    couple(idx(l, iy, ix), idx(l + 1, iy, ix), 1.0 / r)

    top = stack.layers[-1]
    r_amb = (top.thickness_mm * MM / (2 * top.conductivity_w_mk * cell * cell)
             + 1.0 / (stack.h_top_w_m2k * cell * cell))
    half = math.inf if stack.sink_side_mm is None else stack.sink_side_mm / 2
    for iy in range(ny):
        for ix in range(nx):
            # cooled when the cell centre lies under the sink, which is
            # centred on the mesh
            if (abs((ix + 0.5) * cell_mm - nx * cell_mm / 2) > half
                    or abs((iy + 0.5) * cell_mm - ny * cell_mm / 2) > half):
                continue
            i = idx(nl - 1, iy, ix)
            A[i, i] += 1.0 / r_amb
            b[i] += stack.ambient_c / r_amb

    cl = stack.layer_names.index("chiplet")
    for iy in range(ny):
        for ix in range(nx):
            b[idx(cl, iy, ix)] += pm.cells[iy, ix]
    return np.linalg.solve(A, b).reshape(nl, ny, nx)


# the chiplet layer is the top layer: both response columns come from the same row
CHIP_ON_TOP = ThermalStack(
    layers=(
        LayerSpec("board", 0.5, 5.0),
        LayerSpec("interposer", 0.1, 130.0),
        LayerSpec("chiplet", 0.3, 130.0),
    ),
    h_top_w_m2k=2000.0,
    ambient_c=45.0,
)


def power_map(cells, cell_mm=1.0):
    cells = np.asarray(cells, dtype=float)
    return PowerMap(Grid(cells.shape[1], cells.shape[0], cell_mm), cells)


class TestGridShape:
    def test_exact_division(self):
        assert grid_shape(40.0, 40.0, 2.0) == Grid(20, 20, 2.0)

    def test_rounds_up(self):
        assert grid_shape(41.0, 39.5, 2.0) == Grid(21, 20, 2.0)
        # the mesh keeps the cell it was meshed with: 24 x 1.9 = 45.6 mm, and 45 / 24 != 1.9
        assert grid_shape(45.0, 45.0, 1.9) == Grid(24, 24, 1.9)

    def test_float_noise_does_not_add_a_cell(self):
        assert grid_shape(0.1 * 3, 30.0, 0.3) == Grid(1, 100, 0.3)

    def test_finest_legal_grid(self):
        assert grid_shape(50.0, 50.0, 0.1) == Grid(500, 500, 0.1)

    @pytest.mark.parametrize("width, height, cell_mm", [
        (50.2, 50.0, 0.1),
        (10.0, 60.0, 0.1),
        (1e308, 10.0, 1e-3),  # the quotient overflows to inf
        (1e300, 1e300, 1.0),
    ])
    def test_too_many_cells_rejected(self, width, height, cell_mm):
        with pytest.raises(ThermalError, match="cells per side"):
            grid_shape(width, height, cell_mm)


class TestRasterize:
    def test_conserves_power(self):
        fp = Floorplan(10, 10, (
            PlacedChiplet("a", 0.7, 0.3, 0, 3.1, 2.4, 5.0),
            PlacedChiplet("b", 5.2, 5.9, 0, 2.0, 3.0, 2.5),
        ))
        pm = rasterize(fp, 1.0)
        assert pm.cells.sum() == pytest.approx(7.5, rel=1e-12)

    def test_partial_cells_area_weighted(self):
        # 2.5 x 2.5 mm chiplet at the origin, 1 W/mm^2
        fp = Floorplan(5, 5, (PlacedChiplet("a", 0, 0, 0, 2.5, 2.5, 6.25),))
        pm = rasterize(fp, 1.0)
        assert pm.cells[0, 0] == pytest.approx(1.0, rel=1e-12)
        assert pm.cells[0, 2] == pytest.approx(0.5, rel=1e-12)
        assert pm.cells[2, 2] == pytest.approx(0.25, rel=1e-12)
        assert pm.cells.sum() == pytest.approx(6.25, rel=1e-12)

    def test_cell_larger_than_chiplet_rejected(self):
        fp = Floorplan(10, 10, (PlacedChiplet("a", 1, 1, 0, 1.5, 4.0, 1.0),))
        with pytest.raises(ThermalError, match="cell size"):
            rasterize(fp, 2.0)

    @pytest.mark.parametrize("cell_mm", [0.0, -1.0])
    def test_non_positive_cell_size_rejected(self, cell_mm):
        fp = Floorplan(5, 5, (PlacedChiplet("a", 0, 0, 0, 2.5, 2.5, 6.25),))
        with pytest.raises(ThermalError, match="cell size"):
            rasterize(fp, cell_mm)

    def test_invalid_floorplan_rejected(self):
        fp = Floorplan(5, 5, (PlacedChiplet("a", 3, 3, 0, 4, 4, 1.0),))
        with pytest.raises(ValidationError):
            rasterize(fp, 1.0)

    @pytest.mark.parametrize("cell_mm", [0.5, 0.7, 1.0, 2.0])
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_per_cell_reference(self, seed, cell_mm):
        fp = random_floorplan(np.random.default_rng(seed), cell_mm)
        assert np.allclose(rasterize(fp, cell_mm).cells, reference_power(fp, cell_mm),
                           rtol=0.0, atol=1e-12)


def random_floorplan(rng, cell_mm):
    """A legal floorplan with up to one chiplet in each of 3 x 3 slots of a
    30 x 24 mm interposer (2 mm spacing, so a 1 mm margin). Each chiplet has a
    random rotation and power. Per axis its size is whole cells or anything
    from one cell to the slot, and its low edge lies on the margin (or the
    slot's spacing halo), on a cell boundary, or anywhere in the slot."""
    placements = []
    for i in range(3):
        for j in range(3):
            if rng.random() < 0.2:
                continue
            eff = []
            for lo, hi in ((10.0 * i + 1.0, 10.0 * i + 9.0), (8.0 * j + 1.0, 8.0 * j + 7.0)):
                size = float(cell_mm * rng.integers(1, int((hi - lo) / cell_mm) + 1)
                             if rng.random() < 0.5 else rng.uniform(cell_mm, hi - lo))
                k0, k1 = math.ceil(lo / cell_mm), math.floor((hi - size) / cell_mm)
                pos = rng.choice([lo, rng.uniform(lo, hi - size),
                                  cell_mm * rng.integers(k0, k1 + 1) if k0 <= k1 else lo])
                eff.append((float(pos), size))
            (x, w), (y, h) = eff
            rotation = int(rng.choice([0, 90, 180, 270]))
            if rotation in (90, 270):
                w, h = h, w
            placements.append(PlacedChiplet(f"c{i}{j}", x, y, rotation, w, h,
                                            rng.uniform(0.5, 20.0)))
    return Floorplan(30.0, 24.0, tuple(placements), min_spacing_mm=2.0)


def reference_power(fp, cell_mm):
    """Per-cell sum of density * x overlap * y overlap, one cell at a time."""
    grid = grid_shape(fp.width_mm, fp.height_mm, cell_mm)
    nx, ny, cell_mm = grid.nx, grid.ny, grid.cell_mm
    cells = np.zeros((ny, nx))
    for p in fp.placements:
        density = p.power_w / (p.eff_width * p.eff_height)
        for iy in range(ny):
            oy = min(p.y_mm + p.eff_height, (iy + 1) * cell_mm) - max(p.y_mm, iy * cell_mm)
            for ix in range(nx):
                ox = min(p.x_mm + p.eff_width, (ix + 1) * cell_mm) - max(p.x_mm, ix * cell_mm)
                cells[iy, ix] += density * max(ox, 0.0) * max(oy, 0.0)
    return cells


class TestPowerMap:
    def test_shape_follows_cells(self):
        pm = power_map(np.ones((6, 5)))
        grid = pm.grid
        assert (pm.nx, pm.ny, pm.cell_mm) == (grid.nx, grid.ny, grid.cell_mm) == (5, 6, 1.0)
        assert pm.grid == Grid(5, 6, 1.0)
        tf = solve_steady_state(pm, SMALL)
        assert tf.grid == pm.grid and tf.data.shape == (3, 6, 5)

    def test_shape_is_read_only(self):
        with pytest.raises(AttributeError):
            power_map(np.ones((6, 5))).nx = 6


class TestSolver:
    def test_zero_power_is_ambient_everywhere(self):
        tf = solve_steady_state(power_map(np.zeros((4, 4))), SMALL)
        assert np.allclose(tf.data, SMALL.ambient_c, atol=1e-9)

    def test_field_below_ambient_raises(self):
        # negative cells satisfy the residual check; the ambient floor rejects them
        with pytest.raises(ThermalError, match="^temperature field dips below ambient"):
            solve_steady_state(power_map(np.full((4, 4), -1.0)), SMALL)

    def test_unknown_layer_raises(self):
        tf = solve_steady_state(power_map(np.zeros((2, 2))), SMALL)
        with pytest.raises(KeyError, match="unknown layer 'nope'"):
            tf.layer("nope")

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(7)
        for base, (shape, sink_side_mm) in itertools.product((SMALL, CHIP_ON_TOP), [
            ((5, 6), None),
            ((6, 6), 4.0),   # partial sink: 4 x 4 of 6 x 6 top cells cooled
            ((5, 7), 3.0),   # partial sink on an odd grid
            ((5, 7), 1.0),   # a single cooled cell
            ((6, 6), 6.0),   # sink as large as the die
            ((5, 7), 50.0),  # sink larger than the die
        ]):
            stack = ThermalStack(base.layers, h_top_w_m2k=base.h_top_w_m2k,
                                 ambient_c=base.ambient_c, sink_side_mm=sink_side_mm)
            for _ in range(5):
                pm = power_map(rng.uniform(0.0, 2.0, size=shape))
                got = solve_steady_state(pm, stack).data
                want = dense_solve(stack, pm)
                assert np.allclose(got, want, rtol=1e-6, atol=1e-9)
                if sink_side_mm is not None and sink_side_mm >= max(shape):
                    assert np.array_equal(got, solve_steady_state(pm, base).data)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(layers=st.lists(st.tuples(st.floats(0.02, 2.0), st.floats(0.2, 500.0)),
                           min_size=2, max_size=6),
           chip=st.sampled_from(["bottom", "middle", "top"]), h_top=st.floats(500.0, 1e4),
           sink_side_mm=st.none() | st.floats(1.0, 6.0),
           nx=st.integers(1, 6), ny=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    def test_random_stacks_match_dense_oracle(self, layers, chip, h_top, sink_side_mm,
                                              nx, ny, seed):
        # the per-mode tridiagonal sweep over the layers, wherever the chiplet layer
        # sits; a sink side below the grid's leaves top cells uncooled
        at = {"bottom": 0, "middle": len(layers) // 2, "top": len(layers) - 1}[chip]
        stack = ThermalStack(
            tuple(LayerSpec("chiplet" if i == at else f"l{i}", t, k)
                  for i, (t, k) in enumerate(layers)),
            h_top_w_m2k=h_top, ambient_c=45.0, sink_side_mm=sink_side_mm)
        pm = power_map(np.random.default_rng(seed).uniform(0.0, 2.0, size=(ny, nx)))
        got = solve_steady_state(pm, stack).data - stack.ambient_c
        want = dense_solve(stack, pm) - stack.ambient_c
        assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()

    def test_energy_conservation_random_maps(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            pm = power_map(rng.uniform(0.0, 5.0, size=(6, 6)))
            tf = solve_steady_state(pm, SMALL)
            out = boundary_heat_flow(tf)
            assert out == pytest.approx(pm.cells.sum(), rel=1e-3)

    def test_superposition(self):
        rng = np.random.default_rng(3)
        p1 = power_map(rng.uniform(0.0, 3.0, size=(4, 4)))
        p2 = power_map(rng.uniform(0.0, 3.0, size=(4, 4)))
        both = power_map(p1.cells + p2.cells)
        t1 = solve_steady_state(p1, SMALL).data - SMALL.ambient_c
        t2 = solve_steady_state(p2, SMALL).data - SMALL.ambient_c
        t12 = solve_steady_state(both, SMALL).data - SMALL.ambient_c
        assert np.allclose(t12, t1 + t2, rtol=1e-9, atol=1e-9)

    def test_monotone_in_power(self):
        base = power_map(np.ones((4, 4)))
        bumped = base.cells.copy()
        bumped[2, 1] += 1.5
        t0 = solve_steady_state(base, SMALL).data
        t1 = solve_steady_state(power_map(bumped), SMALL).data
        assert (t1 >= t0 - 1e-12).all()

    def test_peak_over_hot_cell(self):
        cells = np.zeros((5, 5))
        cells[1, 3] = 2.0
        tf = solve_steady_state(power_map(cells), SMALL)
        chip = tf.layer("chiplet")
        assert np.unravel_index(chip.argmax(), chip.shape) == (1, 3)
        assert peak_temperature(tf) == chip.max()

    def test_model_caches_two_response_columns(self):
        # power in the chiplet layer and the correction in the top layer: each mode
        # keeps 2 x layers entries, not the layers x layers inverse
        model = thermal._grid_model(ThermalStack(), Grid(30, 20, 1.0))
        assert model.cols.shape == (2, len(DEFAULT_STACK_LAYERS), 20, 30)

    @pytest.mark.parametrize("sink_side_mm", [None, 36.0])
    def test_full_field_solve_keeps_few_stack_sized_arrays(self, sink_side_mm):
        # the Woodbury correction, the residual's power and ambient are applied
        # in place: a warm solve's transient peak stays below 4.5 arrays of
        # the stack's size (about 4.1; 6 with full-stack temporaries)
        stack = ThermalStack(DEFAULT_STACK_LAYERS, sink_side_mm=sink_side_mm)
        pm = power_map(np.random.default_rng(5).uniform(0.0, 1e-3, size=(120, 120)), 0.5)
        solve_steady_state(pm, stack)  # builds and caches the grid model
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            solve_steady_state(pm, stack)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - start < 4.5 * len(DEFAULT_STACK_LAYERS) * 120 * 120 * 8

    def test_default_stack_runs_hotter_with_less_cooling(self):
        pm = power_map(np.full((10, 10), 0.5))
        cool = solve_steady_state(pm, ThermalStack(h_top_w_m2k=2000.0))
        warm = solve_steady_state(pm, ThermalStack(h_top_w_m2k=500.0))
        assert peak_temperature(warm) > peak_temperature(cool)

    def test_largest_grid_balances_energy(self, bundle):
        # 0.08 mm cells on the bundled 40 mm interposer: the 500 x 500 cap
        pm = rasterize(place.bst_placement(bundle.package), 0.08)
        tf = solve_steady_state(pm, bundle.package.stack)
        assert tf.grid == Grid(500, 500, 0.08)
        assert boundary_heat_flow(tf) == pytest.approx(pm.cells.sum(), rel=1e-9)


class TestSinkFootprint:
    def stack(self, side):
        return ThermalStack(SMALL.layers, h_top_w_m2k=SMALL.h_top_w_m2k,
                            ambient_c=SMALL.ambient_c, sink_side_mm=side)

    def test_conservation_holds_under_partial_sink(self):
        pm = power_map(np.full((6, 6), 1.0))
        tf = solve_steady_state(pm, self.stack(4.0))
        assert boundary_heat_flow(tf) == pytest.approx(pm.cells.sum(), rel=1e-3)

    def test_smaller_sink_runs_hotter(self):
        pm = power_map(np.full((6, 6), 1.0))
        full = peak_temperature(solve_steady_state(pm, self.stack(None)))
        small = peak_temperature(solve_steady_state(pm, self.stack(3.0)))
        assert small > full

    def test_wrong_capacitance_operator_caught_by_residual_guard(self, monkeypatch):
        # a top-in/top-out response of zero makes the capacitance system I/g: CG
        # converges on it at once, and only the full-stack residual sees the error
        response = thermal._response

        def top_zeroed(model, p, src, dst=slice(None)):
            if src == 1 and dst == -1:  # the top-in/top-out response CG applies
                return np.zeros_like(p)
            return response(model, p, src, dst)

        monkeypatch.setattr(thermal, "_response", top_zeroed)
        pm = power_map(np.random.default_rng(2).uniform(0.0, 2.0, size=(6, 6)))
        with pytest.raises(ThermalError, match="residual"):
            solve_steady_state(pm, self.stack(4.0))

    @pytest.mark.parametrize("side", [1.0, 10.0])
    def test_stiff_partial_sink_balances_energy(self, side):
        # h_top = 1e7 W/m^2K puts the uncooled cells' missing conductance far
        # above the conduction terms; the solve must stay exact
        stack = ThermalStack(DEFAULT_STACK_LAYERS, h_top_w_m2k=1e7, sink_side_mm=side)
        pm = power_map(np.random.default_rng(4).uniform(0.0, 0.1, size=(40, 40)))
        tf = solve_steady_state(pm, stack)
        assert boundary_heat_flow(tf) == pytest.approx(pm.cells.sum(), rel=1e-9)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("ambient_c", [0.0, 45.0])
    def test_zero_right_hand_side_is_ambient(self, ambient_c):
        # no power: the rise is zero and its residual is measured absolutely, not as
        # 0/0, whatever the ambient
        stack = ThermalStack(DEFAULT_STACK_LAYERS, ambient_c=ambient_c, sink_side_mm=5.0)
        tf = solve_steady_state(power_map(np.zeros((8, 8))), stack)
        assert not (tf.data - ambient_c).any()

    def test_residual_guard_with_power_in_the_top_layer(self, monkeypatch):
        # the chiplet layer is the top layer: the residual takes the power off the
        # layer where the sink also draws heat
        stack = ThermalStack(CHIP_ON_TOP.layers, h_top_w_m2k=CHIP_ON_TOP.h_top_w_m2k,
                             ambient_c=CHIP_ON_TOP.ambient_c, sink_side_mm=4.0)
        pm = power_map(np.random.default_rng(6).uniform(0.0, 2.0, size=(6, 6)))
        solve_steady_state(pm, stack)
        solve = thermal._solve

        def bumped(model, p):
            t = solve(model, p)
            t[-1, 2, 3] += 1e-3
            return t

        monkeypatch.setattr(thermal, "_solve", bumped)
        with pytest.raises(ThermalError, match="residual"):
            solve_steady_state(pm, stack)

    def test_non_finite_residual_raises(self, monkeypatch):
        monkeypatch.setattr(thermal, "_solve", lambda model, p: np.full((3, *p.shape), np.nan))
        with pytest.raises(ThermalError, match="residual"):
            solve_steady_state(power_map(np.full((6, 6), 1.0)), self.stack(4.0))

    def test_sink_missing_all_cells_rejected(self):
        pm = power_map(np.full((6, 6), 1.0))
        with pytest.raises(ThermalError, match="sink footprint"):
            solve_steady_state(pm, self.stack(0.5))


class TestChipletPeak:
    """The annealer's per-move score against the guarded full-field solve."""

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), cell_mm=st.sampled_from([0.7, 1.0, 2.0]),
           layers=st.sampled_from([DEFAULT_STACK_LAYERS, SMALL.layers, CHIP_ON_TOP.layers]),
           h_top=st.floats(100.0, 1e5), ambient=st.floats(0.0, 85.0),
           sink_side_mm=st.none() | st.floats(3.0, 40.0))
    def test_equals_full_solve_peak(self, seed, cell_mm, layers, h_top, ambient, sink_side_mm):
        # sinks below 30 x 24 mm leave top cells uncooled: the CG path
        pm = rasterize(random_floorplan(np.random.default_rng(seed), cell_mm), cell_mm)
        stack = ThermalStack(layers, h_top_w_m2k=h_top, ambient_c=ambient,
                             sink_side_mm=sink_side_mm)
        want = peak_temperature(solve_steady_state(pm, stack))
        assert chiplet_peak(pm, stack) == want
        # the identity the peak rests on, over the whole layer and bit for bit
        model = thermal._grid_model(stack, pm.grid)
        assert np.array_equal(thermal._solve(model, pm.cells, model.chip),
                              thermal._solve(model, pm.cells)[model.chip])

    @pytest.mark.parametrize("side, reason", [(None, "below ambient"), (4.0, "converge")])
    def test_nan_cell_raises(self, side, reason):
        cells = np.full((6, 6), 1.0)
        cells[2, 3] = np.nan
        stack = ThermalStack(SMALL.layers, h_top_w_m2k=SMALL.h_top_w_m2k,
                             ambient_c=SMALL.ambient_c, sink_side_mm=side)
        with pytest.raises(ThermalError, match=reason):
            chiplet_peak(power_map(cells), stack)

    def test_peak_below_ambient_raises(self):
        with pytest.raises(ThermalError, match="below ambient"):
            chiplet_peak(power_map(np.full((4, 4), -1.0)), SMALL)

    def test_unconverged_correction_raises(self, monkeypatch):
        # an affine top-in/top-out response: CG runs its k steps without meeting its bound
        response = thermal._response

        def offset(model, p, src, dst=slice(None)):
            return response(model, p, src, dst) + (1e-3 if src == 1 and dst == -1 else 0.0)

        monkeypatch.setattr(thermal, "_response", offset)
        stack = ThermalStack(SMALL.layers, h_top_w_m2k=SMALL.h_top_w_m2k,
                             ambient_c=SMALL.ambient_c, sink_side_mm=4.0)
        pm = power_map(np.random.default_rng(2).uniform(0.0, 2.0, size=(6, 6)))
        with pytest.raises(ThermalError, match="converge"):
            chiplet_peak(pm, stack)


def soc_plan(board=50.0, power=100.0):
    side = math.sqrt(858.0)
    x = (board - side) / 2
    return Floorplan(board, board, (PlacedChiplet("soc", x, x, 0, side, side, power),))


def split_plan(gap, board=50.0, power=100.0):
    side = math.sqrt(170.0)
    pitch = side + gap
    x0 = (board - 2 * side - gap) / 2
    placements = tuple(
        PlacedChiplet(f"c{i}{j}", x0 + i * pitch, x0 + j * pitch, 0,
                      side, side, power / 4)
        for i in range(2) for j in range(2)
    )
    return Floorplan(board, board, placements)


class TestSocVsChiplet:
    def test_identical_plans_zero_delta(self):
        plan = split_plan(4.0)
        _, _, d = compare_soc_vs_chiplet(plan, plan, SMALL, cell_mm=2.0)
        assert d == 0.0

    def test_unequal_power_rejected(self):
        with pytest.raises(ValidationError, match="power"):
            compare_soc_vs_chiplet(soc_plan(power=100.0),
                                   split_plan(4.0, power=90.0), SMALL, cell_mm=1.0)

    def test_split_runs_cooler_and_gap_helps(self):
        stack = ThermalStack()
        peak_soc, peak_4, delta = compare_soc_vs_chiplet(
            soc_plan(), split_plan(4.0), stack, cell_mm=1.0)
        assert delta > 0
        peaks = [compare_soc_vs_chiplet(soc_plan(), split_plan(g), stack,
                                        cell_mm=1.0)[1]
                 for g in (2.0, 4.0, 8.0)]
        assert peaks[0] > peaks[1] > peaks[2]
        assert peaks[1] == peak_4


def mirrored(fp, turn):
    """fp on its square interposer of side S mirrored in x ("x"), in y ("y"), turned
    by 180 degrees ("turn") or transposed ("transpose"): each is the same package."""
    s = fp.width_mm

    def moved(p):
        x, y = s - p.x_mm - p.eff_width, s - p.y_mm - p.eff_height
        return {"x": replace(p, x_mm=x), "y": replace(p, y_mm=y),
                "turn": replace(p, x_mm=x, y_mm=y, rotation_deg=(p.rotation_deg + 180) % 360),
                "transpose": replace(p, x_mm=p.y_mm, y_mm=p.x_mm,
                                     rotation_deg=(p.rotation_deg + 90) % 360)}[turn]
    return replace(fp, placements=tuple(moved(p) for p in fp.placements))


class TestPhysicalChecks:
    """Checks from physics, not from a copy of the discrete model."""

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(layers=st.lists(st.tuples(st.floats(0.02, 2.0), st.floats(0.2, 500.0)),
                           min_size=2, max_size=6),
           at=st.integers(0, 5), h_top=st.floats(100.0, 1e5), power=st.floats(0.1, 200.0),
           side=st.integers(1, 20).map(lambda n: 2.0 * n),
           cell_mm=st.sampled_from([2.0, 1.0, 0.5]))
    def test_uniform_plan_is_a_1d_series(self, layers, at, h_top, power, side, cell_mm):
        # one chiplet covers the whole interposer under a whole-face sink: no heat
        # flows sideways, so each column is the series resistance from the chiplet
        # layer's centre up through every layer above and the convective film
        at %= len(layers)
        stack = ThermalStack(
            tuple(LayerSpec("chiplet" if i == at else f"l{i}", t, k)
                  for i, (t, k) in enumerate(layers)), h_top_w_m2k=h_top)
        fp = Floorplan(side, side, (PlacedChiplet("die", 0.0, 0.0, 0, side, side, power),))
        (t_c, k_c), above = layers[at], layers[at + 1:]
        r_area = t_c * MM / (2 * k_c) + sum(t * MM / k for t, k in above) + 1.0 / h_top
        rise = power * r_area / (side * MM) ** 2
        chip = solve_steady_state(rasterize(fp, cell_mm), stack).layer("chiplet")
        assert chip.shape == (round(side / cell_mm),) * 2
        assert np.abs(chip - stack.ambient_c - rise).max() <= 1e-9 * rise

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(side=st.integers(30, 50), cell_mm=st.sampled_from([2.0, 1.0, 0.5]),
           seed=st.integers(0, 2**32 - 1), moves=st.integers(0, 20))
    def test_peak_is_symmetric_on_a_square_interposer(self, infotainment, side, cell_mm, seed,
                                                      moves):
        # with the sink centred, a mirrored, turned or transposed plan is the same
        # package; sides the cell does not divide mesh past one edge (ROADMAP item 4)
        assume(side % cell_mm == 0)
        fp = place.bst_placement(replace(infotainment, interposer_width_mm=float(side),
                                         interposer_height_mm=float(side)))
        rng = place._Pcg64(seed)
        for _ in range(moves):
            fp = place.propose_move(fp, rng)
        stack = infotainment.stack
        peak = thermal.plan_peak(fp, stack, cell_mm)
        for turn in ("x", "y", "turn", "transpose"):
            assert abs(thermal.plan_peak(mirrored(fp, turn), stack, cell_mm) - peak) <= 1e-9


def cosine_integrals(lo, hi, k):
    """Exact integral of cos(k*s) over [lo, hi], per interval and wavenumber."""
    with np.errstate(divide="ignore", invalid="ignore"):
        out = (np.sin(k * hi[:, None]) - np.sin(k * lo[:, None])) / k
    out[:, 0] = hi - lo  # k = 0
    return out


def continuum_peak(fp, stack, modes=200, step_mm=0.1):
    """Independent oracle: the chiplet-layer peak, in C, of the continuous plate
    [0, W] x [0, H] with adiabatic sides and the whole top face cooled.

    The power density expands in the first ``modes`` cosines cos(m*pi*x/W) along
    each axis, each coefficient from exact integrals over the chiplets'
    rectangles. Per mode the layers are the model's lumped ones: one node per
    layer with lateral conductance k*t*(kx^2 + ky^2) per unit area, half-thickness
    resistances in series between layers, and h in series with half the top
    layer, so each mode is one tridiagonal solve (np.linalg.solve). The series is
    summed on points step_mm apart, edges included. On the packed plans below it
    moves by at most 2e-3 C from 200 to 500 cosines per axis.
    """
    w_m, h_m = fp.width_mm * MM, fp.height_mm * MM
    kx, ky = np.arange(modes) * math.pi / w_m, np.arange(modes) * math.pi / h_m
    x, y, w, h, power = np.array([(p.x_mm, p.y_mm, p.eff_width, p.eff_height, p.power_w)
                                  for p in fp.placements]).T
    x, y, w, h = x * MM, y * MM, w * MM, h * MM
    q = (cosine_integrals(y, y + h, ky).T * (power / (w * h))) @ cosine_integrals(x, x + w, kx)
    q /= np.outer(np.r_[h_m, np.full(modes - 1, h_m / 2)], np.r_[w_m, np.full(modes - 1, w_m / 2)])
    t = np.array([layer.thickness_mm for layer in stack.layers]) * MM
    k = np.array([layer.conductivity_w_mk for layer in stack.layers])
    g = 1.0 / (t[:-1] / (2 * k[:-1]) + t[1:] / (2 * k[1:]))  # W/(m^2 K) between layers
    g_top = 1.0 / (t[-1] / (2 * k[-1]) + 1.0 / stack.h_top_w_m2k)
    nl, layer = len(t), np.arange(len(t))
    a = np.zeros((modes, modes, nl, nl))
    a[..., layer, layer] = (k * t) * (ky[:, None] ** 2 + kx ** 2)[..., None]
    a[..., layer, layer] += np.r_[g, g_top] + np.r_[0.0, g]
    a[..., layer[:-1], layer[1:]] = a[..., layer[1:], layer[:-1]] = -g
    chip = stack.layer_index("chiplet")
    source = np.zeros((modes, modes, nl, 1))
    source[..., chip, 0] = q
    rise = np.linalg.solve(a, source)[..., chip, 0]
    xs = np.linspace(0.0, w_m, round(fp.width_mm / step_mm) + 1)
    ys = np.linspace(0.0, h_m, round(fp.height_mm / step_mm) + 1)
    field = np.cos(np.outer(ys, ky)) @ rise @ np.cos(np.outer(kx, xs))
    return stack.ambient_c + float(field.max())


#: |plan_peak(h) - continuum_peak| <= C_H2 * h^2 with the whole face cooled on sides
#: the cell divides. Measured over 400 random draws from the property's ranges: at
#: most 0.11 C/mm^2 at 2 mm and 0.11 at 1 mm; with sides up to 60 mm, 0.19 and 0.13
#: (510 draws); on the packed plans at 30, 40 and 50 mm, 0.10 and 0.047.
C_H2 = 0.25


class TestContinuumOracle:
    @pytest.mark.parametrize("side", [30.0, 40.0, 50.0])
    def test_packed_plan_converges_to_the_oracle(self, infotainment, side):
        # the bundled stack, whole face cooled: 0.10, 0.047 and 0.029 C/mm^2 at most
        # at 2, 1 and 0.5 mm, and within 4e-4 C at 0.25 mm
        fp = place.bst_placement(replace(infotainment, interposer_width_mm=side,
                                         interposer_height_mm=side))
        stack = replace(infotainment.stack, sink_side_mm=None)
        oracle = continuum_peak(fp, stack)
        errors = [abs(thermal.plan_peak(fp, stack, cell_mm) - oracle) / cell_mm ** 2
                  for cell_mm in (2.0, 1.0, 0.5)]
        assert max(errors) <= 0.11
        assert abs(thermal.plan_peak(fp, stack, 0.25) - oracle) <= 2e-3

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(sides=st.tuples(*[st.integers(15, 25).map(lambda n: 2.0 * n)] * 2),
           seed=st.integers(0, 2**32 - 1), moves=st.integers(0, 20),
           scales=st.lists(st.tuples(st.floats(0.5, 2.0), st.floats(0.5, 2.0)),
                           min_size=len(DEFAULT_STACK_LAYERS), max_size=len(DEFAULT_STACK_LAYERS)),
           h_top=st.floats(500.0, 20000.0))
    def test_peak_within_c_h2_of_the_oracle(self, infotainment, sides, seed, moves, scales,
                                            h_top):
        width, height = sides
        fp = place.bst_placement(replace(infotainment, interposer_width_mm=width,
                                         interposer_height_mm=height))
        rng = place._Pcg64(seed)
        for _ in range(moves):
            fp = place.propose_move(fp, rng)
        stack = ThermalStack(tuple(LayerSpec(layer.name, layer.thickness_mm * ts,
                                             layer.conductivity_w_mk * ks)
                                   for layer, (ts, ks) in zip(DEFAULT_STACK_LAYERS, scales)),
                             h_top_w_m2k=h_top)
        oracle = continuum_peak(fp, stack)
        for cell_mm in (2.0, 1.0):
            assert abs(thermal.plan_peak(fp, stack, cell_mm) - oracle) <= C_H2 * cell_mm ** 2
