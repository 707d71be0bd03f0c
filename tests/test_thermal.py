import itertools
import math

import numpy as np
import pytest

from chipletdse import thermal
from chipletdse.model import (
    DEFAULT_STACK_LAYERS,
    Floorplan,
    LayerSpec,
    PlacedChiplet,
    ThermalStack,
    ValidationError,
    default_stack,
)
from chipletdse.thermal import (
    PowerMap,
    ThermalError,
    boundary_heat_flow,
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
    h_top=2000.0,
    ambient=45.0,
)


def dense_solve(stack, pm):
    """Independent reference: assemble the conductance system densely with
    plain loops and solve with np.linalg.solve. Only usable for tiny grids.
    """
    nl, nx, ny = len(stack.layers), pm.nx, pm.ny
    n = nl * ny * nx
    cell = pm.cell_mm * MM
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
        g_lat = layer.conductivity * t  # k * (cell*t) / cell
        for iy in range(ny):
            for ix in range(nx):
                if ix + 1 < nx:
                    couple(idx(l, iy, ix), idx(l, iy, ix + 1), g_lat)
                if iy + 1 < ny:
                    couple(idx(l, iy, ix), idx(l, iy + 1, ix), g_lat)
        if l + 1 < nl:
            up = stack.layers[l + 1]
            r = (t / (2 * layer.conductivity)
                 + up.thickness_mm * MM / (2 * up.conductivity)) / (cell * cell)
            for iy in range(ny):
                for ix in range(nx):
                    couple(idx(l, iy, ix), idx(l + 1, iy, ix), 1.0 / r)

    top = stack.layers[-1]
    r_amb = (top.thickness_mm * MM / (2 * top.conductivity * cell * cell)
             + 1.0 / (stack.h_top * cell * cell))
    half = math.inf if stack.sink_side_mm is None else stack.sink_side_mm / 2
    for iy in range(ny):
        for ix in range(nx):
            # cooled when the cell centre lies under the sink, which is
            # centred on the mesh
            if (abs((ix + 0.5) * pm.cell_mm - nx * pm.cell_mm / 2) > half
                    or abs((iy + 0.5) * pm.cell_mm - ny * pm.cell_mm / 2) > half):
                continue
            i = idx(nl - 1, iy, ix)
            A[i, i] += 1.0 / r_amb
            b[i] += stack.ambient / r_amb

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
    h_top=2000.0,
    ambient=45.0,
)


def power_map(cells, cell_mm=1.0):
    return PowerMap(cell_mm, np.asarray(cells, dtype=float))


class TestGridShape:
    def test_exact_division(self):
        assert grid_shape(40.0, 40.0, 2.0) == (20, 20)

    def test_rounds_up(self):
        assert grid_shape(41.0, 39.5, 2.0) == (21, 20)

    def test_float_noise_does_not_add_a_cell(self):
        assert grid_shape(0.1 * 3, 30.0, 0.3) == (1, 100)

    def test_finest_legal_grid(self):
        assert grid_shape(50.0, 50.0, 0.1) == (500, 500)

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
        assert pm.total_power == pytest.approx(7.5, rel=1e-12)

    def test_partial_cells_area_weighted(self):
        # 2.5 x 2.5 mm chiplet at the origin, 1 W/mm^2
        fp = Floorplan(5, 5, (PlacedChiplet("a", 0, 0, 0, 2.5, 2.5, 6.25),))
        pm = rasterize(fp, 1.0)
        assert pm.cells[0, 0] == pytest.approx(1.0, rel=1e-12)
        assert pm.cells[0, 2] == pytest.approx(0.5, rel=1e-12)
        assert pm.cells[2, 2] == pytest.approx(0.25, rel=1e-12)
        assert pm.total_power == pytest.approx(6.25, rel=1e-12)

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
    return Floorplan(30.0, 24.0, tuple(placements), min_spacing=2.0)


def reference_power(fp, cell_mm):
    """Per-cell sum of density * x overlap * y overlap, one cell at a time."""
    nx, ny = grid_shape(fp.width, fp.height, cell_mm)
    cells = np.zeros((ny, nx))
    for p in fp.placements:
        density = p.power / (p.eff_width * p.eff_height)
        for iy in range(ny):
            oy = min(p.y + p.eff_height, (iy + 1) * cell_mm) - max(p.y, iy * cell_mm)
            for ix in range(nx):
                ox = min(p.x + p.eff_width, (ix + 1) * cell_mm) - max(p.x, ix * cell_mm)
                cells[iy, ix] += density * max(ox, 0.0) * max(oy, 0.0)
    return cells


class TestPowerMap:
    def test_shape_follows_cells(self):
        pm = power_map(np.ones((6, 5)))
        assert (pm.nx, pm.ny) == (5, 6)
        assert solve_steady_state(pm, SMALL).data.shape == (3, 6, 5)

    def test_shape_is_read_only(self):
        with pytest.raises(AttributeError):
            power_map(np.ones((6, 5))).nx = 6


class TestSolver:
    def test_zero_power_is_ambient_everywhere(self):
        tf = solve_steady_state(power_map(np.zeros((4, 4))), SMALL)
        assert np.allclose(tf.data, SMALL.ambient, atol=1e-9)

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
            stack = ThermalStack(base.layers, h_top=base.h_top,
                                 ambient=base.ambient, sink_side_mm=sink_side_mm)
            for _ in range(5):
                pm = power_map(rng.uniform(0.0, 2.0, size=shape))
                got = solve_steady_state(pm, stack).data
                want = dense_solve(stack, pm)
                assert np.allclose(got, want, rtol=1e-6, atol=1e-9)
                if sink_side_mm is not None and sink_side_mm >= max(shape):
                    assert np.array_equal(got, solve_steady_state(pm, base).data)

    def test_energy_conservation_random_maps(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            pm = power_map(rng.uniform(0.0, 5.0, size=(6, 6)))
            tf = solve_steady_state(pm, SMALL)
            out = boundary_heat_flow(tf)
            assert out == pytest.approx(pm.total_power, rel=1e-3)

    def test_superposition(self):
        rng = np.random.default_rng(3)
        p1 = power_map(rng.uniform(0.0, 3.0, size=(4, 4)))
        p2 = power_map(rng.uniform(0.0, 3.0, size=(4, 4)))
        both = power_map(p1.cells + p2.cells)
        t1 = solve_steady_state(p1, SMALL).data - SMALL.ambient
        t2 = solve_steady_state(p2, SMALL).data - SMALL.ambient
        t12 = solve_steady_state(both, SMALL).data - SMALL.ambient
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
        model = thermal._grid_model(default_stack(), 30, 20, 1.0)
        assert model.cols.shape == (2, len(DEFAULT_STACK_LAYERS), 20, 30)

    def test_default_stack_runs_hotter_with_less_cooling(self):
        pm = power_map(np.full((10, 10), 0.5))
        cool = solve_steady_state(pm, default_stack(h_top=2000.0))
        warm = solve_steady_state(pm, default_stack(h_top=500.0))
        assert peak_temperature(warm) > peak_temperature(cool)


class TestSinkFootprint:
    def stack(self, side):
        return ThermalStack(SMALL.layers, h_top=SMALL.h_top,
                            ambient=SMALL.ambient, sink_side_mm=side)

    def test_conservation_holds_under_partial_sink(self):
        pm = power_map(np.full((6, 6), 1.0))
        tf = solve_steady_state(pm, self.stack(4.0))
        assert boundary_heat_flow(tf) == pytest.approx(pm.total_power, rel=1e-3)

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
        stack = ThermalStack(DEFAULT_STACK_LAYERS, h_top=1e7, sink_side_mm=side)
        pm = power_map(np.random.default_rng(4).uniform(0.0, 0.1, size=(40, 40)))
        tf = solve_steady_state(pm, stack)
        assert boundary_heat_flow(tf) == pytest.approx(pm.total_power, rel=1e-9)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_zero_right_hand_side_is_ambient(self):
        # 0 C ambient and no power: the residual is measured absolutely, not as 0/0
        stack = ThermalStack(DEFAULT_STACK_LAYERS, ambient=0.0, sink_side_mm=5.0)
        tf = solve_steady_state(power_map(np.zeros((8, 8))), stack)
        assert not tf.data.any()

    def test_non_finite_residual_raises(self, monkeypatch):
        monkeypatch.setattr(thermal, "_solve", lambda model, p: np.full((3, *p.shape), np.nan))
        with pytest.raises(ThermalError, match="residual"):
            solve_steady_state(power_map(np.full((6, 6), 1.0)), self.stack(4.0))

    def test_sink_missing_all_cells_rejected(self):
        pm = power_map(np.full((6, 6), 1.0))
        with pytest.raises(ThermalError, match="sink footprint"):
            solve_steady_state(pm, self.stack(0.5))


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
                                   split_plan(4.0, power=90.0), SMALL)

    def test_split_runs_cooler_and_gap_helps(self):
        stack = default_stack()
        peak_soc, peak_4, delta = compare_soc_vs_chiplet(
            soc_plan(), split_plan(4.0), stack, cell_mm=1.0)
        assert delta > 0
        peaks = [compare_soc_vs_chiplet(soc_plan(), split_plan(g), stack,
                                        cell_mm=1.0)[1]
                 for g in (2.0, 4.0, 8.0)]
        assert peaks[0] > peaks[1] > peaks[2]
        assert peaks[1] == peak_4
