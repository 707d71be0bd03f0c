import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from chipletdse import thermal
from chipletdse.model import (ChipletSpec, Floorplan, PackageSpec, PlacedChiplet, ThermalStack,
                              ValidationError, footprint)
from chipletdse.thermal import ThermalError
from chipletdse.place import (
    PERSISTENCE,
    RETRY_CAP,
    _Pcg64,
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
    return PackageSpec("small", chiplets, width, height, min_spacing_mm=1.0)


def oblong_spec():
    """No chiplet is square, so every rotate move changes the footprint."""
    chiplets = (
        ChipletSpec("a", 8, 4, 12.0, ports=(("b", 2.0),)),
        ChipletSpec("b", 3, 6, 6.0, ports=(("c", 1.0),)),
        ChipletSpec("c", 5, 2.5, 3.0),
        ChipletSpec("d", 2, 4.5, 2.0),
    )
    return PackageSpec("oblong", chiplets, 24.0, 20.0, min_spacing_mm=1.0)


FAST = AnnealConfig(max_iterations=20, moves_per_iteration=5, seed=3,
                    coarse_cell_mm=2.0, fine_cell_mm=2.0)


class TestWirelength:
    def test_single_link_manhattan(self):
        fp = Floorplan(20, 20, (
            PlacedChiplet("a", 0, 0, 0, 5, 5, 1.0),
            PlacedChiplet("b", 4, 6, 0, 5, 5, 1.0),
        ), links=(("a", "b", 1.0),), min_spacing_mm=0.0)
        # centers (2.5, 2.5) and (6.5, 8.5): |dx| + |dy| = 10
        assert wirelength(fp) == pytest.approx(10.0, rel=1e-12)

    def test_weights_scale_linearly(self):
        fp = Floorplan(20, 20, (
            PlacedChiplet("a", 0, 0, 0, 5, 5, 1.0),
            PlacedChiplet("b", 4, 6, 0, 5, 5, 1.0),
        ), links=(("a", "b", 0.7),), min_spacing_mm=0.0)
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

    def test_acceptance_with_decayed_k(self):
        assert acceptance_probability(0.5, 0.4, 1e-8) == 1.0  # exp(1e7) would overflow

    def test_acceptance_requires_positive_k(self):
        with pytest.raises(PlacementError):
            acceptance_probability(0.1, 0.2, 0.0)


class BspNode:
    """The packer as a binary-space-partition tree, searched in preorder: a used
    node holds the strip to the right of its chiplet and the strip above it."""

    __slots__ = ("x", "y", "w", "h", "used", "right", "top")

    def __init__(self, x: float, y: float, w: float, h: float):
        self.x, self.y, self.w, self.h = x, y, w, h
        self.used = False
        self.right: BspNode | None = None
        self.top: BspNode | None = None

    def insert(self, w: float, h: float) -> tuple[float, float] | None:
        if self.used:
            pos = self.right.insert(w, h) if self.right else None
            if pos is None and self.top:
                pos = self.top.insert(w, h)
            return pos
        if w > self.w + 1e-9 or h > self.h + 1e-9:
            return None
        self.used = True
        self.right = BspNode(self.x + w, self.y, self.w - w, h)
        self.top = BspNode(self.x, self.y + h, self.w, self.h - h)
        return (self.x, self.y)


def tree_packing(spec):
    """The packed (x, y) of each chiplet the tree places, and the name of the
    first chiplet it cannot place (None if all fit)."""
    s = spec.min_spacing_mm
    root = BspNode(s / 2.0, s / 2.0, spec.interposer_width_mm - s, spec.interposer_height_mm - s)
    spots = []
    for c in spec.chiplets:
        pos = root.insert(c.width_mm + s, c.height_mm + s)
        if pos is None:
            return spots, c.name
        spots.append((pos[0] + s / 2.0, pos[1] + s / 2.0))
    return spots, None


@st.composite
def packages(draw):
    """1-14 chiplets with integer or oblong float sides, 0-2 mm spacing, on an
    interposer within the footprint budget that may or may not pack them."""
    side = st.integers(1, 12) | st.floats(0.5, 12.0)
    chiplets = tuple(ChipletSpec(f"c{i}", draw(side), draw(side))
                     for i in range(draw(st.integers(1, 14))))
    s = draw(st.sampled_from([0.0, 1.0, 2.0]) | st.floats(0.0, 2.0))
    budget = sum((c.width_mm + s) * (c.height_mm + s) for c in chiplets)
    width = draw(st.floats(0.7, 1.5)) * math.sqrt(budget)
    height = budget / width * draw(st.floats(1.0, 3.0))
    if draw(st.booleans()):
        width, height = math.ceil(width), math.ceil(height)
    try:
        return PackageSpec("pack", chiplets, width, height, min_spacing_mm=s)
    except ValidationError:  # rounding put the area a hair under the budget
        assume(False)


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
        # within the 135 mm^2 footprint budget, but the packer finds no room for b
        with pytest.raises(PlacementError, match="does not fit"):
            bst_placement(small_spec(width=12.0, height=12.0))

    @settings(max_examples=200, deadline=None)
    @given(packages())
    def test_equals_partition_tree(self, spec):
        spots, misfit = tree_packing(spec)
        if misfit is None:
            assert [(p.x_mm, p.y_mm) for p in bst_placement(spec).placements] == spots
        else:
            with pytest.raises(PlacementError, match=re.escape(f"chiplet {misfit!r} does not fit")):
                bst_placement(spec)


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
                       min_spacing_mm=0.0)
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
                if new.rotation_deg == old.rotation_deg:
                    continue
                rotations += 1
                assert new.rotation_deg == (old.rotation_deg + 90) % 360
                assert (new.eff_width, new.eff_height) == (old.eff_height, old.eff_width)
                assert new.center == pytest.approx(old.center, rel=0.0, abs=1e-12)
            cur = nxt
        assert rotations >= 5


def reference_propose_move(fp, rng):
    """``propose_move`` with numpy's own ``rng.uniform`` draws: the reference that
    the lo + (hi - lo) * rng.random() draws must reproduce exactly."""
    step_mm = max(fp.width_mm, fp.height_mm) / 8.0
    n = len(fp.placements)
    for _ in range(RETRY_CAP):
        kind = rng.integers(0, 3 if n >= 2 else 2)
        i = int(rng.integers(0, n))
        p = fp.placements[i]
        if kind == 0:
            magnitude = step_mm * 10.0 ** rng.uniform(-2.0, 0.0)
            angle = rng.uniform(0.0, 2.0 * math.pi)
            moves = {i: (p, p.x_mm + magnitude * math.cos(angle),
                         p.y_mm + magnitude * math.sin(angle), p.rotation_deg)}
        elif kind == 1:
            if p.width_mm == p.height_mm:
                continue
            cx, cy = p.center
            moves = {i: (p, cx - p.eff_height / 2.0, cy - p.eff_width / 2.0,
                         (p.rotation_deg + 90) % 360)}
        else:
            j = int(rng.integers(0, n - 1))
            if j >= i:
                j += 1
            q = fp.placements[j]
            moves = {i: (p, q.x_mm, q.y_mm, p.rotation_deg),
                     j: (q, p.x_mm, p.y_mm, q.rotation_deg)}
        if fp.admits({k: footprint(x, y, row.width_mm, row.height_mm, rot)[2]
                      for k, (row, x, y, rot) in moves.items()}):
            placements = list(fp.placements)
            for k, (row, x, y, rot) in moves.items():
                placements[k] = PlacedChiplet(row.name, x, y, rot, row.width_mm, row.height_mm,
                                              row.power_w)
            return Floorplan(fp.width_mm, fp.height_mm, tuple(placements), fp.links,
                             fp.min_spacing_mm)
    raise PlacementError(f"floorplan too congested: no legal move in {RETRY_CAP} attempts")


class TestProposeMoveReference:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), oblong=st.booleans(), side=st.floats(20.0, 60.0))
    def test_equals_uniform_draws(self, seed, oblong, side):
        # every proposal and the generator state after it, raw doubles included
        spec = replace(oblong_spec() if oblong else small_spec(),
                       interposer_width_mm=side, interposer_height_mm=side)
        fp = want = bst_placement(spec)
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(40):
            fp, want = propose_move(fp, rng), reference_propose_move(want, ref)
            assert fp == want
            assert rng.bit_generator.state == ref.bit_generator.state


@st.composite
def proposals(draw):
    """A legal plan of oblong chiplets and a move of one or two of its rows:
    a translation that may leave the board, a contact with another row's
    spacing halo or with the edge margin a few eps either side, a swap, or a
    quarter turn."""
    fp = bst_placement(oblong_spec())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    for _ in range(draw(st.integers(0, 20))):
        fp = propose_move(fp, rng)
    n, s = len(fp.placements), fp.min_spacing_mm
    i = draw(st.integers(0, n - 1))
    j = (i + draw(st.integers(1, n - 1))) % n
    p, q = fp.placements[i], fp.placements[j]
    kind = draw(st.sampled_from(["translate", "contact", "swap", "rotate"]))
    if kind == "translate":
        return fp, {i: replace(p, x_mm=draw(st.floats(-5.0, fp.width_mm + 5.0)),
                               y_mm=draw(st.floats(-5.0, fp.height_mm + 5.0)))}
    if kind == "swap":
        return fp, {i: replace(p, x_mm=q.x_mm, y_mm=q.y_mm),
                    j: replace(q, x_mm=p.x_mm, y_mm=p.y_mm)}
    if kind == "rotate":
        cx, cy = p.center
        return fp, {i: replace(p, rotation_deg=(p.rotation_deg + 90) % 360,
                               x_mm=cx - p.eff_height / 2.0, y_mm=cy - p.eff_width / 2.0)}
    off = draw(st.sampled_from([-3e-9, -1e-9, -0.5e-9, 0.0, 0.5e-9, 1e-9, 3e-9]))
    gap = s + off
    x, y = {
        "right of": (q.x_mm + q.eff_width + gap, q.y_mm),
        "left of": (q.x_mm - gap - p.eff_width, q.y_mm),
        "above": (q.x_mm, q.y_mm + q.eff_height + gap),
        "below": (q.x_mm, q.y_mm - gap - p.eff_height),
        "low edge": (s / 2.0 + off, p.y_mm),
        "high edge": (fp.width_mm - s / 2.0 - off - p.eff_width, p.y_mm),
    }[draw(st.sampled_from(["right of", "left of", "above", "below", "low edge", "high edge"]))]
    return fp, {i: replace(p, x_mm=x, y_mm=y)}


class TestRowLegality:
    @settings(max_examples=300, deadline=None)
    @given(proposals())
    def test_admits_agrees_with_full_validate(self, proposal):
        fp, moved = proposal
        cand = replace(fp, placements=tuple(moved.get(k, p) for k, p in enumerate(fp.placements)))
        assert fp.admits({k: row.box for k, row in moved.items()}) == cand.is_valid()

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), oblong=st.booleans())
    def test_proposal_rows_have_the_boxes_admitted(self, seed, oblong):
        """Every returned plan is legal, and the rows it moved carry exactly the
        boxes that the last, accepting, admits call was given."""
        rng = np.random.default_rng(seed)
        cur = bst_placement(oblong_spec() if oblong else small_spec())
        calls = []
        admits = Floorplan.admits

        def recorded(self, moved):
            calls.append(moved)
            return admits(self, moved)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(Floorplan, "admits", recorded)
            for _ in range(20):
                nxt = propose_move(cur, rng)
                nxt.validate()
                boxes = calls[-1]
                assert admits(cur, boxes)
                for k, (old, new) in enumerate(zip(cur.placements, nxt.placements)):
                    assert new.box == boxes[k] if k in boxes else new is old
                cur = nxt

    def test_proposals_skip_full_validate(self, monkeypatch):
        fp = bst_placement(oblong_spec())
        monkeypatch.setattr(Floorplan, "validate", lambda self: pytest.fail("full validate"))
        rng = np.random.default_rng(4)
        for _ in range(20):
            fp = propose_move(fp, rng)

    def test_moves_rasterize_onto_the_checked_grid(self, monkeypatch):
        # every grid check comes from a checked rasterize: the warm-up probes and
        # the moves are spread onto the coarse grid _start checked, not re-meshed
        calls = {"grid_shape": 0, "rasterize": 0}
        for name in calls:
            def counted(*args, real=getattr(thermal, name), name=name):
                calls[name] += 1
                return real(*args)
            monkeypatch.setattr(thermal, name, counted)
        r = optimize(small_spec(), FAST)
        assert r.iterations > 0 and calls["rasterize"] == 2 + 1 + r.iterations + 1
        assert calls["grid_shape"] == calls["rasterize"]


# numpy 2.4.6's np.random.default_rng(seed) for CALLS, an int n meaning
# integers(0, n) and None meaning random(): the stream the annealer draws, pinned
# whatever numpy version is installed
CALLS = (13, None, 1, 2, 12, None, None, 3, 1, 13, None, 2, 3, None, 12, 13)
KNOWN_DRAWS = {
    0: [11, 0.2697867137638703, 0, 1, 3, 0.016527635528529094, 0.8132702392002724, 0, 0, 8,
        0.6066357757671799, 1, 2, 0.5436249914654229, 8, 7],
    1: [6, 0.9504636963259353, 0, 1, 0, 0.9486494471372439, 0.31183145201048545, 0, 0, 11,
        0.8277025938204418, 0, 0, 0.5495936876730595, 4, 1],
    7: [12, 0.8972138009695755, 0, 1, 6, 0.22520718999059186, 0.30016628491122543, 2, 0, 3,
        0.005265304565574724, 1, 1, 0.7970694287520462, 9, 1],
    2**64 - 1: [7, 0.8453117585624743, 0, 1, 4, 0.8945681264391473, 0.12896523452474162, 0, 0, 3,
                0.5894743473759847, 0, 0, 0.9106503555676262, 2, 1],
    2**200 + 1: [4, 0.03408675405596295, 0, 1, 4, 0.006460553346726017, 0.4145282599894661, 2, 0,
                 3, 0.7485398459785114, 1, 2, 0.2120823945053909, 9, 5],
}


def draw_all(rng, calls):
    return [rng.random() if n is None else rng.integers(0, n) for n in calls]


class TestPcg64:
    @pytest.mark.parametrize("seed", sorted(KNOWN_DRAWS))
    def test_known_answers(self, seed):
        draws = draw_all(_Pcg64(seed), CALLS)
        assert draws == KNOWN_DRAWS[seed]
        assert [type(d) for d in draws] == [float if n is None else int for n in CALLS]

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**256),
           calls=st.lists(st.one_of(st.none(), st.integers(1, 13), st.integers(1, 2**32 - 1)),
                          max_size=80))
    def test_equals_default_rng(self, seed, calls):
        assert draw_all(_Pcg64(seed), calls) == draw_all(np.random.default_rng(seed), calls)

    def test_one_value_range_draws_nothing(self):
        rng, ref = _Pcg64(3), _Pcg64(3)
        rng.integers(0, 2)  # buffers the high half of a 64-bit draw
        ref.integers(0, 2)
        assert rng.integers(5, 6) == 5
        assert draw_all(rng, CALLS) == draw_all(ref, CALLS)

    @pytest.mark.parametrize("low, high", [(0, 2**32), (0, 2**40), (7, 7 + 2**32), (0, 0), (3, 1)])
    def test_range_outside_one_to_two_pow_32_rejected(self, low, high):
        with pytest.raises(ValueError, match="high - low"):
            _Pcg64(0).integers(low, high)


def draw_chiplets(draw, n, side):
    """n chiplets with sides drawn from ``side``, each linked to an earlier one."""
    return tuple(ChipletSpec(
        f"c{i}", draw(side), draw(side), draw(st.floats(0.0, 20.0)),
        ports=((f"c{draw(st.integers(0, i - 1))}", draw(st.floats(1.0, 4.0))),) if i else ())
        for i in range(n))


def draw_stack(draw, sinks):
    """The default layers under a weak to strong top coefficient and a sink from sinks."""
    return ThermalStack(h_top_w_m2k=draw(st.sampled_from([500.0, 2500.0, 10000.0])),
                        sink_side_mm=draw(st.sampled_from(sinks)))


def draw_schedule(draw):
    """A short annealing schedule: 1-4 epochs of 1-4 moves."""
    return AnnealConfig(k0=draw(st.floats(1e-3, 1.0)), decay=draw(st.floats(0.01, 0.99)),
                        tol_c=draw(st.floats(1e-3, 1.0)), max_iterations=draw(st.integers(1, 4)),
                        moves_per_iteration=draw(st.integers(1, 4)),
                        seed=draw(st.integers(0, 2**64)))


@st.composite
def anneal_cases(draw):
    """A package of 1-7 chiplets (3-10 mm sides, each linked to an earlier
    one) that the packer fits on a 24-50 mm interposer, with no sink or a 10,
    20 or 40 mm one, a weak to strong top coefficient, and a short schedule."""
    chiplets = draw_chiplets(draw, draw(st.integers(1, 7)), st.floats(3.0, 10.0))
    stack = draw_stack(draw, [None, 10.0, 20.0, 40.0])
    interposer = draw(st.floats(24.0, 50.0))
    try:
        spec = PackageSpec("prop", chiplets, interposer, interposer,
                           min_spacing_mm=draw(st.floats(0.0, 1.0)), stack=stack)
        bst_placement(spec)
    except (ValidationError, PlacementError):
        assume(False)  # over the footprint budget, or the packer cannot fit it
    return spec, draw_schedule(draw)


class TestAnnealProperties:
    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(anneal_cases())
    def test_invariants(self, case):
        spec, cfg = case
        r = optimize(spec, cfg)
        r.floorplan.validate()
        # each chiplet once, with its own footprint and power
        rows = sorted((p.name, p.width_mm, p.height_mm, p.power_w) for p in r.floorplan.placements)
        assert rows == sorted((c.name, c.width_mm, c.height_mm, c.power_w) for c in spec.chiplets)
        assert 1 <= r.iterations <= cfg.max_iterations
        for it, row in enumerate(r.history):
            assert row.iteration == it
            assert row.k == max(cfg.k0 * cfg.decay ** it, math.ulp(0.0))
            assert 0.0 <= row.cost <= 1.0
        assert r.final_peak_t == thermal.plan_peak(r.floorplan, spec.stack, cfg.fine_cell_mm)
        assert optimize(spec, cfg) == r


@st.composite
def sweep_cases(draw):
    """``anneal_cases`` widened to what a sweep meets: 1-3 sides of 5-50 mm, some
    over the footprint budget and some the packer rejects, chiplets of 1.5-10 mm
    (under 2 mm a coarse cell outgrows them), any spacing from 0, and a 1 mm sink
    that can miss every coarse cell centre. One case in four is instead a row of
    2-4 chiplets of unequal widths and no spacing that tiles the first side, so
    that no move is legal on it."""
    stack, spacing = draw_stack(draw, [None, 1.0, 10.0, 40.0]), 0.0
    sides = draw(st.lists(st.integers(5, 50) | st.floats(5.0, 50.0), min_size=1, max_size=3))
    if draw(st.sampled_from([False, False, False, True])):
        widths = draw(st.lists(st.integers(2, 8), min_size=2, max_size=4, unique=True))
        sides.insert(0, sum(widths))
        chiplets = tuple(ChipletSpec(f"c{i}", w, sides[0], 5.0) for i, w in enumerate(widths))
    else:
        chiplets = draw_chiplets(draw, draw(st.integers(1, 7)),
                                 st.integers(2, 10) | st.floats(1.5, 10.0))
        spacing = draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
    # the spec's own interposer is never annealed: the sweep resizes it
    spec = PackageSpec("prop", chiplets, 1e3, 1e3, min_spacing_mm=spacing, stack=stack)
    return spec, sides, draw_schedule(draw)


def sweep_rejection(spec, side):
    """Why a sweep must mark a side infeasible: the footprint budget, the
    partition tree, or None when the side packs."""
    s = spec.min_spacing_mm
    if sum((c.width_mm + s) * (c.height_mm + s) for c in spec.chiplets) > side * side:
        return "budget"
    sized = replace(spec, interposer_width_mm=side, interposer_height_mm=side)
    return "packer" if tree_packing(sized)[1] is not None else None


# the only errors a sweep of packable sides may raise, by type and message start
SWEEP_ERRORS = {"cell": (ThermalError, "cell size"),
                "sink": (ThermalError, "sink footprint covers no grid cells")}


def sweep_case(*chiplets, side=20.0, sink=None):
    """One sweep of ``side`` for a spec of (width, height) chiplets, no spacing, a short run."""
    spec = PackageSpec("ex", tuple(ChipletSpec(f"c{i}", w, h, 5.0)
                                   for i, (w, h) in enumerate(chiplets)),
                       1e3, 1e3, min_spacing_mm=0.0, stack=ThermalStack(sink_side_mm=sink))
    return spec, [side], AnnealConfig(max_iterations=2, moves_per_iteration=2, seed=1)


class TestSweepProperties:
    def test_infeasible_exactly_when_rejected(self):
        reached = set()

        # one case per verdict, so the coverage assertion holds whatever the 80 draws are
        @settings(max_examples=80, derandomize=True, deadline=None)
        @given(sweep_cases())
        @example(sweep_case((6, 6), side=5.0))  # budget
        @example(sweep_case((6, 6), (6, 6), side=10.0))  # packer
        @example(sweep_case((4, 4), (5, 5)))  # annealed
        @example(sweep_case((4, 10), (6, 10), side=10.0))  # tiled
        @example(sweep_case((1.5, 4), (4, 4)))  # cell: a 2 mm coarse cell outgrows 1.5 mm
        @example(sweep_case((4, 4), (5, 5), sink=1.0))  # sink: between 2 mm cell centres
        def check(case):
            spec, sides, cfg = case
            try:
                rows = interposer_sweep(spec, sides, cfg)
            except (PlacementError, ThermalError) as exc:
                cause = next((cause for cause, (kind, start) in SWEEP_ERRORS.items()
                              if type(exc) is kind and str(exc).startswith(start)), None)
                assert cause, exc
                reached.add(cause)
                return
            assert len(rows) == len(sides)
            for side, r in zip(sides, rows):
                cause = sweep_rejection(spec, side)
                assert (r is None) == (cause is not None)
                assert cause or r.final_peak_t >= spec.stack.ambient_c
                reached.add(cause or "annealed")
            row = spec.chiplets
            if (spec.min_spacing_mm == 0 and {c.height_mm for c in row} == {sides[0]}
                    and sum(c.width_mm for c in row) == sides[0]):
                # a row that tiles the side: no move is legal, so it anneals from its packed plan
                sized = replace(spec, interposer_width_mm=sides[0], interposer_height_mm=sides[0])
                assert rows[0].floorplan == bst_placement(sized)
                reached.add("tiled")

        check()
        # the strategy reaches every verdict, a tiled row annealed, and every allowed error
        assert reached == {"budget", "packer", "annealed", "tiled", *SWEEP_ERRORS}


class TestAnnealConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValidationError):
            AnnealConfig(k0=0.0)
        with pytest.raises(ValidationError):
            AnnealConfig(decay=1.0)
        with pytest.raises(ValidationError):
            AnnealConfig(tol_c=0.0)
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

    def test_underflowed_k_keeps_annealing(self):
        # k0 * decay**it reaches 0.0 by the third epoch; K then takes its 0+ limit
        r = optimize(small_spec(), AnnealConfig(decay=1e-200, max_iterations=10,
                                                moves_per_iteration=5, seed=3,
                                                coarse_cell_mm=2.0, fine_cell_mm=2.0))
        assert len(r.history) == 10
        assert all(row.k > 0 for row in r.history)

    def test_score_drift_fails_the_epoch_guard(self, monkeypatch):
        exact = thermal.chiplet_peak
        monkeypatch.setattr(thermal, "chiplet_peak", lambda pm, stack: exact(pm, stack) + 1e-6)
        with pytest.raises(PlacementError, match="disagrees with the full solve"):
            optimize(small_spec(), FAST)

    def test_sweep_reports_an_annealing_error(self, monkeypatch):
        exact = thermal.chiplet_peak
        monkeypatch.setattr(thermal, "chiplet_peak", lambda pm, stack: exact(pm, stack) + 1e-6)
        # 8 mm breaks the footprint budget and 12 mm the packer: neither is annealed
        assert interposer_sweep(small_spec(), [8.0, 12.0], FAST) == [None, None]
        # 20 mm packs, so the guard's error while annealing it is not read as infeasible
        with pytest.raises(PlacementError, match="disagrees with the full solve"):
            interposer_sweep(small_spec(), [20.0], FAST)

    def test_board_with_no_legal_move_keeps_its_packed_plan(self):
        # a row that tiles the board packs legally, but no move is legal on it:
        # every epoch ends at once, and the run converges on the packed plan
        spec = PackageSpec("tiled", (ChipletSpec("a", 4, 10, 5.0), ChipletSpec("b", 6, 10, 5.0)),
                           10.0, 10.0, min_spacing_mm=0.0)
        r = optimize(spec, FAST)
        assert r.floorplan == bst_placement(spec)
        assert r.converged and r.iterations == PERSISTENCE + 1
        # so a sweep that starts from that board reports every side
        wide = replace(spec, interposer_width_mm=20.0, interposer_height_mm=20.0)
        assert interposer_sweep(spec, [10.0, 20.0], FAST) == [r, optimize(wide, FAST)]

    def test_single_chiplet_centered(self):
        spec = PackageSpec("one", (ChipletSpec("a", 5, 5, 3.0),), 20.0, 20.0)
        r = optimize(spec, FAST)
        p = r.floorplan.placements[0]
        assert (p.x_mm, p.y_mm) == (7.5, 7.5)
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

    def test_one_result_per_candidate(self):
        assert calibrate_k(small_spec(), [0.05], FAST)[0] == optimize(small_spec(),
                                                                      replace(FAST, k0=0.05))

    def test_empty_candidates_rejected(self):
        with pytest.raises(PlacementError):
            calibrate_k(small_spec(), [], FAST)

    def test_sweep_marks_infeasible_sides(self):
        results = interposer_sweep(small_spec(), [8.0, 10.0, 20.0], FAST)
        assert results == [None, None, optimize(small_spec(), FAST)]
        assert results[2].final_peak_t > 45.0

    def test_grid_model_cache_holds_the_two_live_grids(self, infotainment):
        # each side anneals on a coarse and a fine grid. The sweep checks every side's
        # grids on the mesh before any side anneals, which builds no model, so 3 sides
        # build their 6 geometries once each: 6 misses
        cfg = AnnealConfig(max_iterations=2, moves_per_iteration=3, seed=1)
        thermal._grid_model.cache_clear()
        assert None not in interposer_sweep(infotainment, [30.0, 40.0, 50.0], cfg)
        assert thermal._grid_model.cache_info().currsize <= 2
        assert thermal._grid_model.cache_info().misses == 6
        # calibrate_k reuses one geometry pair for every K0: no rebuilds
        thermal._grid_model.cache_clear()
        calibrate_k(infotainment, [0.05, 0.1, 0.2], cfg)
        assert thermal._grid_model.cache_info().misses == 2
