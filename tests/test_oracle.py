"""Grid-oracle tests: settings validation, per-operation grid scans
against brute-force enumeration, the fractional-programming iteration on
instances small enough to enumerate jointly, refinement behavior on
nested grids, and failure modes."""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from millopt import (
    DecisionVector,
    GridSpec,
    MillingPlan,
    OperationSpec,
    OracleError,
    OracleResult,
    constraint_margins,
    derive_coefficients,
    dinkelbach_solve,
    profit_rate,
    unit_cost,
    unit_time,
)
from millopt.milling import batch_evaluate, compile_context
from millopt import cli, milling, oracle
from millopt.oracle import per_op_grid_min, prepare_op_grid

from conftest import batch_v_max, single_face_plan, two_op_plan
from test_acceptance import random_plan


class TestGridSpec:
    def test_defaults(self):
        spec = GridSpec()
        assert spec.resolution == 500
        assert [f.name for f in dataclasses.fields(GridSpec)] == ["resolution"]
        assert oracle.MAX_DINKELBACH_ITERATIONS == 100

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"resolution": 1},
            {"resolution": 0},
            {"resolution": 2.5},
            pytest.param({"resolution": True}, id="resolution_bool"),
        ],
    )
    def test_rejects_bad_settings(self, kwargs):
        with pytest.raises(ValueError):
            GridSpec(**kwargs)


def brute_force_op_min(plan, coeffs, op_index, lam, resolution, fill):
    """Reference scan: explicit double loop, strict-< tie-keeping, margins
    checked through the scalar model API."""
    op = plan.operations[op_index]
    tool = plan.tool_for(op)
    c = coeffs[op_index]
    rate = plan.economics.minute_rate
    speed_exp = 1.0 / tool.life_exponent - 1.0
    feed_exp = (
        plan.machine.chip_area_exponent + plan.machine.slenderness_exponent
    ) / tool.life_exponent - 1.0
    speeds = np.linspace(op.speed_bounds[0], op.speed_bounds[1], resolution)
    feeds = np.linspace(op.feed_bounds[0], op.feed_bounds[1], resolution)
    best = None
    for v in speeds:
        for f in feeds:
            probe_speeds = list(fill[0])
            probe_feeds = list(fill[1])
            probe_speeds[op_index] = float(v)
            probe_feeds[op_index] = float(f)
            x = DecisionVector(tuple(probe_speeds), tuple(probe_feeds))
            if not constraint_margins(plan, x, coeffs)[op_index].satisfied:
                continue
            time = c.k1 / (float(v) * float(f)) + tool.change_time
            cost = rate * time + tool.price * c.k3 * v**speed_exp * f**feed_exp
            value = cost + lam * time
            if best is None or value < best[2] - 1e-15:
                best = (float(v), float(f), float(value))
    return best


def scan(op_index, lam, plan, ctx, grid):
    """per_op_grid_min on a freshly prepared grid; None when it has no
    feasible point."""
    op = prepare_op_grid(op_index, ctx, grid)
    return None if op is None else per_op_grid_min(op, lam)


def grid_min(plan, coeffs, op_index, lam, resolution):
    ctx = compile_context(plan)
    return scan(op_index, lam, plan, ctx, GridSpec(resolution=resolution))


def face_plan_variant(name):
    """single_face_plan as is, with a tool force limit, or with a finish limit."""
    plan = single_face_plan()
    if name == "force_limit":
        return dataclasses.replace(
            plan, tools=(dataclasses.replace(plan.tools[0], permitted_force=2500.0),)
        )
    if name == "finish_limit":
        return dataclasses.replace(
            plan, operations=(dataclasses.replace(plan.operations[0], surface_finish_req=4.0),)
        )
    return plan


class TestPerOpGridMin:
    # Without a limit the best feed at resolution 9 is the 0.4 ceiling; the
    # force and face-mill finish limits move it down the feed axis.
    @pytest.mark.parametrize(
        "variant, best_feed, lam",
        [pytest.param("plain", 0.4, lam, id=str(lam)) for lam in (0.0, 2.5, 10.0)]
        + [
            pytest.param(variant, best_feed, lam, id=f"{variant}-{lam}")
            for variant, best_feed in (("force_limit", 0.18125), ("finish_limit", 0.1375))
            for lam in (0.0, 2.5, 10.0)
        ],
    )
    def test_matches_brute_force_single_op(self, variant, best_feed, lam):
        plan = face_plan_variant(variant)
        coeffs = derive_coefficients(plan)
        got = grid_min(plan, coeffs, 0, lam, 9)
        expected = brute_force_op_min(plan, coeffs, 0, lam, 9, fill=((90.0,), (0.2,)))
        assert got is not None and expected is not None
        assert got[0] == expected[0] and got[1] == expected[1]
        assert got[2] == pytest.approx(expected[2], rel=1e-12)
        assert got[1] == pytest.approx(best_feed, rel=1e-12)

    @pytest.mark.parametrize("op_index", [0, 1])
    def test_matches_brute_force_two_ops(self, toy_two_op_plan, op_index):
        coeffs = derive_coefficients(toy_two_op_plan)
        fill = ((50.0, 45.0), (0.3, 0.3))
        got = grid_min(toy_two_op_plan, coeffs, op_index, 4.0, 7)
        expected = brute_force_op_min(toy_two_op_plan, coeffs, op_index, 4.0, 7, fill)
        assert got is not None and expected is not None
        assert (got[0], got[1]) == (expected[0], expected[1])
        assert got[2] == pytest.approx(expected[2], rel=1e-12)

    def test_zero_multiplier_minimizes_cost_contribution_alone(self, toy_single_plan):
        coeffs = derive_coefficients(toy_single_plan)
        v, f, value = grid_min(toy_single_plan, coeffs, 0, 0.0, 9)
        tool = toy_single_plan.tools[0]
        rate = toy_single_plan.economics.minute_rate
        time = coeffs[0].k1 / (v * f) + tool.change_time
        speed_exp = 1.0 / tool.life_exponent - 1.0
        feed_exp = (
            toy_single_plan.machine.chip_area_exponent
            + toy_single_plan.machine.slenderness_exponent
        ) / tool.life_exponent - 1.0
        wear = tool.price * coeffs[0].k3 * v**speed_exp * f**feed_exp
        assert value == pytest.approx(rate * time + wear, rel=1e-12)

    def test_every_grid_point_infeasible_returns_none(self, toy_infeasible_plan):
        coeffs = derive_coefficients(toy_infeasible_plan)
        assert grid_min(toy_infeasible_plan, coeffs, 0, 1.0, 15) is None

    def test_degenerate_single_point_box(self):
        base = two_op_plan()
        pinned = OperationSpec(
            **{
                **base.operations[0].__dict__,
                "speed_bounds": (45.0, 45.0),
                "feed_bounds": (0.2, 0.2),
            }
        )
        plan = MillingPlan(
            economics=base.economics,
            machine=base.machine,
            tools=base.tools,
            operations=(pinned, base.operations[1]),
        )
        coeffs = derive_coefficients(plan)
        got = grid_min(plan, coeffs, 0, 3.0, 4)
        assert got is not None
        assert got[0] == 45.0 and got[1] == 0.2


_CHUNK_ROWS = 512


def reference_grid_min(op_index, lam, plan, ctx, grid):
    """Full-grid form of per_op_grid_min: every point of the grid is
    evaluated, in chunks of 512 rows, and the infeasible ones are masked
    with inf before the arg-min.  The staircase scan must return exactly
    what this returns."""
    i, m = op_index, ctx.m
    change_time = plan.tool_for(plan.operations[i]).change_time
    weight = ctx.rate + lam

    speeds = np.linspace(ctx.lower[i], ctx.upper[i], grid.resolution)
    feeds = np.linspace(ctx.lower[m + i], ctx.upper[m + i], grid.resolution)

    feeds_pow = feeds**0.8
    feed_ok = feeds <= ctx.feed_cap[i]

    inv_feeds = 1.0 / feeds
    wear_feeds = feeds ** ctx.feed_exponent[i]
    best_value = math.inf
    best_v = best_f = 0.0
    for start in range(0, speeds.size, _CHUNK_ROWS):
        v = speeds[start : start + _CHUNK_ROWS, None]
        values = (
            weight * ctx.k1[i] * (1.0 / v) * inv_feeds[None, :]
            + ctx.tool_cost_coef[i] * v ** ctx.speed_exponent[i] * wear_feeds[None, :]
            + weight * change_time
        )
        ok = feed_ok[None, :] & (ctx.c5[i] * v * feeds_pow[None, :] <= 1.0)
        if not ok.any():
            continue
        values = np.where(ok, values, math.inf)
        flat = int(np.argmin(values))
        value = float(values.flat[flat])
        if value < best_value:
            best_value = value
            row, col = divmod(flat, feeds.size)
            best_v = float(speeds[start + row])
            best_f = float(feeds[col])
    if best_value == math.inf:
        return None
    return best_v, best_f, best_value


def scan_prepared_both(plan, ctx, op_index, lams, resolution):
    """One prepared grid scanned at every lam, each result asserted equal
    (floats with ==) to the full-grid scan."""
    grid = GridSpec(resolution=resolution)
    op = prepare_op_grid(op_index, ctx, grid)
    got = [None if op is None else per_op_grid_min(op, lam) for lam in lams]
    assert got == [reference_grid_min(op_index, lam, plan, ctx, grid) for lam in lams]
    return got


def scan_both(plan, ctx, op_index, lam, resolution):
    """per_op_grid_min, asserted equal (floats with ==) to the full-grid scan."""
    return scan_prepared_both(plan, ctx, op_index, (lam,), resolution)[0]


@pytest.fixture(scope="module")
def compiled_random_plans():
    rng = np.random.default_rng(20)
    plans = [random_plan(rng) for _ in range(300)]
    return [(plan, compile_context(plan)) for plan in plans]


class TestStaircaseMatchesFullGrid:
    @pytest.mark.parametrize("resolution", [2, 3, 7, 50, 301])
    def test_random_plans(self, compiled_random_plans, resolution):
        # the last multiplier makes rate + lam = -1: the weight of an
        # unprofitable plan's time, under which speed stops paying
        found = 0
        for plan, ctx in compiled_random_plans:
            for lam in (0.0, 0.7, 3.3, -(ctx.rate + 1.0)):
                for i in range(plan.m):
                    found += scan_both(plan, ctx, i, lam, resolution) is not None
        assert found > 0

    def test_builtin_case_at_its_lambda_trace(self, builtin_plan):
        ctx = compile_context(builtin_plan)
        for lam in (0.0, 1.3347188500502423, 1.3754333401782102, 1.3754610610670144):
            for i in range(builtin_plan.m):
                assert scan_both(builtin_plan, ctx, i, lam, 833) is not None


def pinned_face_plan(**bounds):
    """single_face_plan with its speed and/or feed box replaced."""
    plan = single_face_plan()
    op = dataclasses.replace(plan.operations[0], **bounds)
    return dataclasses.replace(plan, operations=(op,))


def edge_context(plan=None, **entries):
    """single_face_plan (or plan, one operation) compiled, with the named
    per-operation context entries replaced."""
    plan = plan or single_face_plan()
    ctx = compile_context(plan)
    return plan, dataclasses.replace(ctx, **{k: np.array([v]) for k, v in entries.items()})


def grid_axes(plan, resolution):
    """The speed and feed axes of operation 0, as the scan builds them."""
    op = plan.operations[0]
    return np.linspace(*op.speed_bounds, resolution), np.linspace(*op.feed_bounds, resolution)


# Without tool wear (tool_cost_coef 0) the value falls in both speed and
# feed, and with a negligible power coefficient only the feed cap binds: the
# minimum sits at the top speed and the highest feed the cap admits.
UNBOUND = {"tool_cost_coef": 0.0, "c5": 1e-9}


def staircase_context(plan, resolution, width, ncol=None, **entries):
    """plan (one operation) compiled with c5 set so that the fastest row of
    its resolution x resolution grid keeps exactly `width` feeds, and with
    the feed cap on feed ncol - 1 when ncol is given; the other named
    context entries are replaced as in edge_context."""
    speeds, feeds = grid_axes(plan, resolution)
    feeds_pow = feeds**0.8
    c5 = 1.0 / (speeds[-1] * feeds_pow[width - 1])
    while c5 * speeds[-1] * feeds_pow[width - 1] > 1.0:
        c5 = math.nextafter(c5, 0.0)
    if ncol is not None:
        entries["feed_cap"] = feeds[ncol - 1]
    plan, ctx = edge_context(plan, c5=c5, **entries)
    widths = oracle._power_widths(ctx.c5[0] * speeds, feeds_pow[: ncol or resolution])
    assert widths[-1] == width
    return plan, ctx, widths


# A speed box so narrow that, on a fine grid, every row keeps as many feeds
# as the fastest one.  Without tool wear the value then falls in speed and
# feed, so the unique minimum is the fastest row's last feasible point, and
# its value is U.  When the width is not a multiple of the band, each row's
# last band is bounded by the cheaper infeasible feeds past the width, below
# U, so every row keeps exactly that one tile.
NARROW_SPEEDS = pinned_face_plan(speed_bounds=(75.0, 75.1))


class TestStaircaseEdges:
    def test_single_point_speed_box(self):
        plan = pinned_face_plan(speed_bounds=(75.0, 75.0))
        ctx = compile_context(plan)
        for resolution in (2, 9, 301):
            got = scan_both(plan, ctx, 0, 2.0, resolution)
            assert got is not None and got[0] == 75.0

    def test_single_point_feed_box(self):
        plan = pinned_face_plan(feed_bounds=(0.2, 0.2))
        ctx = compile_context(plan)
        for resolution in (2, 9, 301):
            got = scan_both(plan, ctx, 0, 2.0, resolution)
            assert got is not None and got[1] == 0.2

    @pytest.mark.parametrize("k", [0, 1, 150, 299, 300])
    def test_cap_on_a_grid_feed_admits_it(self, k):
        speeds, feeds = grid_axes(single_face_plan(), 301)
        plan, ctx = edge_context(**UNBOUND, feed_cap=feeds[k])
        got = scan_both(plan, ctx, 0, 0.0, 301)
        # k = 0 leaves a single column
        assert got[:2] == (speeds[-1], feeds[k])

    @pytest.mark.parametrize("k", [0, 1, 150, 300])
    def test_cap_one_ulp_below_a_grid_feed_drops_it(self, k):
        speeds, feeds = grid_axes(single_face_plan(), 301)
        plan, ctx = edge_context(**UNBOUND, feed_cap=math.nextafter(feeds[k], 0.0))
        got = scan_both(plan, ctx, 0, 0.0, 301)
        if k == 0:
            # a cap below the lowest feed leaves no column
            assert got is None
        else:
            assert got[:2] == (speeds[-1], feeds[k - 1])

    def test_power_failing_at_lowest_corner_gives_none(self):
        speeds, feeds = grid_axes(single_face_plan(), 7)
        v, f_pow = speeds[0], (feeds**0.8)[0]
        c5 = 1.0 / (v * f_pow)
        while c5 * v * f_pow <= 1.0:
            c5 = math.nextafter(c5, math.inf)
        plan, ctx = edge_context(c5=c5)
        assert scan_both(plan, ctx, 0, 1.0, 7) is None
        plan, ctx = edge_context(c5=math.nextafter(c5, 0.0))
        assert scan_both(plan, ctx, 0, 1.0, 7)[:2] == (speeds[0], feeds[0])

    def test_power_boundary_is_the_rounded_product(self):
        # One speed, value falling in feed: the scan returns the highest
        # feed whose product (c5 * v) * f**0.8 rounds to <= 1.  Around each
        # feed's boundary some c5 make that product exactly 1, and some make
        # it pass while f**0.8 exceeds the rounded 1 / (c5 * v).
        base = pinned_face_plan(speed_bounds=(75.0, 75.0))
        _, feeds = grid_axes(base, 50)
        feeds_pow = feeds**0.8
        exact = reciprocal_short = 0
        for j in range(feeds.size):
            c5 = 1.0 / (75.0 * feeds_pow[j])
            for _ in range(4):
                c5 = math.nextafter(c5, 0.0)
            for _ in range(9):
                power = c5 * 75.0
                passing = int(np.count_nonzero(power * feeds_pow <= 1.0))
                exact += power * feeds_pow[j] == 1.0
                reciprocal_short += np.searchsorted(feeds_pow, 1.0 / power, "right") < passing
                plan, edge = edge_context(base, tool_cost_coef=0.0, c5=c5)
                got = scan_both(plan, edge, 0, 0.0, 50)
                if passing:
                    assert got[1] == feeds[passing - 1]
                else:
                    assert got is None
                c5 = math.nextafter(c5, math.inf)
        assert exact > 0 and reciprocal_short > 0

    def test_feasible_rows_not_a_multiple_of_block_rows(self):
        # Every row keeps one feed, and each row's first band is kept (see
        # staircase_context): 700 kept tiles, not a multiple of the tiles
        # per chunk.
        tiles = oracle._BLOCK_ELEMENTS // oracle._BAND
        assert 700 > tiles and 700 % tiles != 0
        plan, ctx, widths = staircase_context(NARROW_SPEEDS, 700, 1, tool_cost_coef=0.0)
        assert (widths == 1).all()
        speeds, feeds = grid_axes(plan, 700)
        assert scan_both(plan, ctx, 0, 2.0, 700)[:2] == (speeds[-1], feeds[0])
        # the unmodified plan, where power trims the rows into a staircase
        plan = single_face_plan()
        ctx = compile_context(plan)
        for lam in (0.0, 3.0):
            assert scan_both(plan, ctx, 0, lam, 301) is not None

    def test_all_ties_keep_the_first_point_across_blocks(self):
        # k1 and tool_cost_coef 0 make every value weight * change_time; the
        # 301 x 301 grid spans three blocks
        plan, ctx = edge_context(**UNBOUND, k1=0.0)
        speeds, feeds = grid_axes(plan, 301)
        tie = (ctx.rate + 2.0) * plan.tools[0].change_time
        assert scan_both(plan, ctx, 0, 2.0, 301) == (speeds[0], feeds[0], tie)


class TestBandEdges:
    @pytest.mark.parametrize("width", [63, 64, 65, 127, 128, 129])
    def test_row_widths_at_band_edges(self, width):
        # The fastest row keeps `width` feeds and slower rows more, up to
        # the 200 columns (three bands and a part) the feed cap leaves.
        # Without tool wear the value falls in both axes, so every row's
        # cheapest point is its last feasible one, and the feeds past it,
        # in the same band, are cheaper still.
        for entries in ({}, {"tool_cost_coef": 0.0}):
            plan, ctx, widths = staircase_context(
                single_face_plan(), 301, width, ncol=200, **entries
            )
            assert widths[0] == 200
            for lam in (0.0, 2.0, -(ctx.rate + 1.0)):
                assert scan_both(plan, ctx, 0, lam, 301) is not None

    def test_zero_and_negative_weight_on_builtin_case(self, builtin_plan):
        # rate + lam exactly 0 drops the time term; at -1 the time term is
        # negative, so a band's largest 1 / f bounds it
        ctx = compile_context(builtin_plan)
        for lam in (-ctx.rate, -(ctx.rate + 1.0)):
            assert ctx.rate + lam in (0.0, -1.0)
            for i in range(builtin_plan.m):
                assert scan_both(builtin_plan, ctx, i, lam, 833) is not None

    @pytest.mark.parametrize("width", [65, 129])
    def test_kept_tiles_span_chunks_with_a_unique_minimum_in_the_last(self, width):
        # one kept tile per row: 1,100 tiles, three chunks, and the minimum
        # in the last row
        tiles = oracle._BLOCK_ELEMENTS // oracle._BAND
        assert 1100 > 2 * tiles
        plan, ctx, widths = staircase_context(NARROW_SPEEDS, 1100, width, tool_cost_coef=0.0)
        assert (widths == width).all()
        speeds, feeds = grid_axes(plan, 1100)
        assert scan_both(plan, ctx, 0, 2.0, 1100)[:2] == (speeds[-1], feeds[width - 1])


# Speeds across a 12x ratio: the slow rows keep every feed, the fast ones
# few, so a staircase of several bands spans the row blocks.
WIDE_SPEEDS = pinned_face_plan(speed_bounds=(10.0, 120.0))


def rows_context(plan, resolution, nrow, **entries):
    """plan (one operation) compiled with c5 set so that exactly the first
    nrow rows of its resolution x resolution grid keep a feed; the other
    named context entries are replaced as in edge_context."""
    speeds, feeds = grid_axes(plan, resolution)
    first_pow = (feeds**0.8)[0]
    c5 = 1.0 / (speeds[nrow - 1] * first_pow)
    while c5 * speeds[nrow - 1] * first_pow > 1.0:
        c5 = math.nextafter(c5, 0.0)
    plan, ctx = edge_context(plan, c5=c5, **entries)
    op = prepare_op_grid(0, ctx, GridSpec(resolution=resolution))
    assert op.nrow == nrow
    return plan, ctx, op


class TestRowBlockEdges:
    @pytest.mark.parametrize("nrow", [63, 64, 65, 127, 128, 129])
    @pytest.mark.parametrize("wear", ["plain", "no_wear", "negative_wear"])
    def test_feasible_row_counts_at_block_edges(self, nrow, wear):
        # A negative tool_cost_coef puts the minimum in the last feasible
        # row: the last of a full block (64, 128), alone in a block (65,
        # 129), or next to the padding (63, 127).
        entries = {}
        if wear == "no_wear":
            entries["tool_cost_coef"] = 0.0
        elif wear == "negative_wear":
            entries["tool_cost_coef"] = -0.5
        plan, ctx, op = rows_context(WIDE_SPEEDS, 301, nrow, **entries)
        assert op.wear_band.size > 1
        for lam in (0.0, 2.0, -(ctx.rate + 1.0)):
            assert scan_both(plan, ctx, 0, lam, 301) is not None
        if wear == "negative_wear":
            speeds, _ = grid_axes(plan, 301)
            assert scan_both(plan, ctx, 0, 2.0, 301)[0] == speeds[nrow - 1]

    def test_tie_in_a_later_row_of_an_earlier_band_loses(self):
        # Integer axes 1..128, value c / (v * f) with c = (rate + lam) * k1:
        # rows v = 1 and 2 of one block tie, exactly, at v * f = 128, which
        # nothing feasible exceeds.  Row-major order reaches (1, 128), in
        # band 1, before (2, 64), in band 0.
        plan = pinned_face_plan(speed_bounds=(1.0, 128.0), feed_bounds=(1.0, 128.0))
        speeds, feeds = grid_axes(plan, 128)
        c5 = 1.0 / (2.0 * 64.0**0.8)
        while c5 * 2.0 * 64.0**0.8 > 1.0:
            c5 = math.nextafter(c5, 0.0)
        plan, ctx = edge_context(plan, k1=1.0, tool_cost_coef=0.0, c5=c5, feed_cap=128.0)
        op = prepare_op_grid(0, ctx, GridSpec(resolution=128))
        assert op.widths[:2].tolist() == [128, 64] and op.nrow <= oracle._BAND
        assert (speeds[:op.nrow] * feeds[op.widths[: op.nrow] - 1] <= 128.0).all()
        assert scan_both(plan, ctx, 0, 2.0, 128)[:2] == (1.0, 128.0)

    def test_negative_wear_and_weight_on_builtin_case(self, builtin_plan):
        # a negative tool_cost_coef makes every block's smallest wear row
        # factor its most negative one, and weight -1 does the same to the
        # time factors; 833 rows make 14 blocks
        ctx = compile_context(builtin_plan)
        ctx = dataclasses.replace(ctx, tool_cost_coef=-ctx.tool_cost_coef)
        for i in range(builtin_plan.m):
            scan_prepared_both(builtin_plan, ctx, i, (-(ctx.rate + 1.0), 0.0), 833)

    def test_one_prepared_grid_at_weights_of_both_signs(self, builtin_plan, compiled_random_plans):
        # weight = rate + lam changes sign between the scans of one
        # preparation, so the band extremes of 1 / f must swap with it
        ctx = compile_context(builtin_plan)
        lams = (1.3754333401782102, -(ctx.rate + 1.0), 0.0, -ctx.rate, -(ctx.rate + 0.25), 3.0)
        for i in range(builtin_plan.m):
            assert None not in scan_prepared_both(builtin_plan, ctx, i, lams, 833)
        for plan, ctx in compiled_random_plans[:60]:
            lams = (0.7, -(ctx.rate + 1.0), 3.3, -(ctx.rate + 0.5))
            for i in range(plan.m):
                scan_prepared_both(plan, ctx, i, lams, 129)


class TestToySingleOpExactly:
    """3x3 grid small enough to check every cell by hand."""

    def test_enumeration(self, toy_single_plan):
        coeffs = derive_coefficients(toy_single_plan)
        feasible = {}
        for v in (60.0, 90.0, 120.0):
            for f in (0.05, 0.225, 0.4):
                x = DecisionVector((v,), (f,))
                if all(m.satisfied for m in constraint_margins(toy_single_plan, x, coeffs)):
                    feasible[(v, f)] = profit_rate(toy_single_plan, x, coeffs)
        # exactly one infeasible cell: full speed and full feed overdraw the motor
        assert len(feasible) == 8
        assert (120.0, 0.4) not in feasible
        best_point = max(feasible, key=feasible.get)
        assert best_point == (60.0, 0.4)
        assert feasible[best_point] == pytest.approx(6.838161238413391, rel=1e-12)

    def test_oracle_agrees_with_enumeration(self, toy_single_plan):
        result = dinkelbach_solve(toy_single_plan, grid=GridSpec(resolution=3))
        assert result.feasible
        assert result.best.speeds == (60.0,)
        assert result.best.feeds == (0.4,)
        assert result.profit_rate == pytest.approx(6.838161238413391, rel=1e-12)
        assert result.iterations == 2

    def test_multiplier_trace_starts_at_corner_rate_and_never_falls(self, toy_single_plan):
        ctx = compile_context(toy_single_plan)
        result = dinkelbach_solve(toy_single_plan, grid=GridSpec(resolution=3))
        trace = result.lambda_trace
        assert trace[0] == batch_evaluate(ctx, ctx.lower).fitness[0]
        assert all(b >= a for a, b in zip(trace, trace[1:]))
        assert trace[-1] == result.profit_rate


class TestToyTwoOpJoint:
    def test_oracle_equals_joint_enumeration(self, toy_two_op_plan):
        coeffs = derive_coefficients(toy_two_op_plan)
        res = 10
        ops = toy_two_op_plan.operations
        grids = [
            (
                np.linspace(op.speed_bounds[0], op.speed_bounds[1], res),
                np.linspace(op.feed_bounds[0], op.feed_bounds[1], res),
            )
            for op in ops
        ]
        best_rate = -math.inf
        best_x = None
        for v1 in grids[0][0]:
            for f1 in grids[0][1]:
                for v2 in grids[1][0]:
                    for f2 in grids[1][1]:
                        x = DecisionVector(
                            (float(v1), float(v2)), (float(f1), float(f2))
                        )
                        if not all(
                            m.satisfied
                            for m in constraint_margins(toy_two_op_plan, x, coeffs)
                        ):
                            continue
                        rate = profit_rate(toy_two_op_plan, x, coeffs)
                        if rate > best_rate:
                            best_rate = rate
                            best_x = x
        result = dinkelbach_solve(toy_two_op_plan, grid=GridSpec(resolution=res))
        assert result.feasible
        assert result.profit_rate == pytest.approx(best_rate, abs=1e-9)
        assert result.best == best_x
        assert best_rate == pytest.approx(6.084071427331, abs=1e-9)

    def test_result_fields_are_mutually_consistent(self, toy_two_op_plan):
        coeffs = derive_coefficients(toy_two_op_plan)
        result = dinkelbach_solve(toy_two_op_plan, grid=GridSpec(resolution=10))
        assert result.unit_cost == pytest.approx(
            unit_cost(toy_two_op_plan, result.best, coeffs), rel=1e-12
        )
        assert result.unit_time == pytest.approx(
            unit_time(toy_two_op_plan, result.best, coeffs), rel=1e-12
        )
        assert result.profit_rate == pytest.approx(
            (25.0 - result.unit_cost) / result.unit_time, rel=1e-12
        )
        assert all(
            m.satisfied for m in constraint_margins(toy_two_op_plan, result.best, coeffs)
        )


@pytest.fixture(scope="module")
def builtin_oracle_500(builtin_plan):
    return dinkelbach_solve(builtin_plan, grid=GridSpec(resolution=500))


class TestBuiltinCaseOracle:
    def test_frozen_res_500_solution(self, builtin_oracle_500):
        result = builtin_oracle_500
        assert result.feasible
        assert result.profit_rate == pytest.approx(1.3780329565036475, rel=1e-12)
        assert result.unit_cost == pytest.approx(15.949808552444335, rel=1e-12)
        assert result.unit_time == pytest.approx(6.567470977267379, rel=1e-12)
        assert result.iterations == 4
        assert result.best.speeds == pytest.approx(
            (91.14228456913827, 40.0, 40.0, 30.0, 31.282565130260522), rel=1e-12
        )
        assert result.best.feeds == pytest.approx(
            (0.0780561122244489, 0.3250501002004008, 0.3250501002004008, 0.5, 0.3881763527054108),
            rel=1e-12,
        )

    def test_frozen_res_500_result_to_the_last_bit(self, builtin_oracle_500):
        assert builtin_oracle_500 == OracleResult(
            feasible=True,
            best=DecisionVector(
                speeds=(91.14228456913827, 40.0, 40.0, 30.0, 31.282565130260522),
                feeds=(
                    0.0780561122244489,
                    0.3250501002004008,
                    0.3250501002004008,
                    0.5,
                    0.3881763527054108,
                ),
            ),
            profit_rate=1.3780329565036475,
            unit_cost=15.949808552444335,
            unit_time=6.567470977267379,
            iterations=4,
            lambda_trace=(
                0.20579121144566853,
                1.3504893430595666,
                1.3780174099309268,
                1.3780329565036475,
                1.3780329565036475,
            ),
        )

    def test_best_point_saturates_binding_constraints(self, builtin_plan, builtin_oracle_500):
        coeffs = derive_coefficients(builtin_plan)
        margins = constraint_margins(builtin_plan, builtin_oracle_500.best, coeffs)
        assert all(m.satisfied for m in margins)
        # the first operation is finish-limited: its feed margin sits on 1
        assert margins[0].finish == pytest.approx(1.0, abs=1e-2)

    def test_nested_grid_refinement_is_monotone(self, builtin_plan, builtin_oracle_500):
        # resolution 2 uses only box corners, a subset of every grid;
        # resolution 9 contains every resolution-5 point (2r - 1 rule)
        rate_2 = dinkelbach_solve(builtin_plan, grid=GridSpec(resolution=2)).profit_rate
        rate_5 = dinkelbach_solve(builtin_plan, grid=GridSpec(resolution=5)).profit_rate
        rate_9 = dinkelbach_solve(builtin_plan, grid=GridSpec(resolution=9)).profit_rate
        assert rate_2 <= rate_5 + 1e-12
        assert rate_5 <= rate_9 + 1e-12
        assert rate_2 <= builtin_oracle_500.profit_rate + 1e-12

    def test_multiplier_trace_is_nondecreasing(self, builtin_oracle_500):
        trace = builtin_oracle_500.lambda_trace
        assert len(trace) == builtin_oracle_500.iterations + 1
        assert all(b >= a - 1e-12 for a, b in zip(trace, trace[1:]))


def grid_step(plan, coeffs, ops, lam):
    """One multiplier iteration: the per-operation grid minimizers at lam
    and (point, rate, unit_cost, unit_time) priced by the scalar model."""
    points = [per_op_grid_min(op, lam) for op in ops]
    x = DecisionVector(tuple(p[0] for p in points), tuple(p[1] for p in points))
    cost, time = unit_cost(plan, x, coeffs), unit_time(plan, x, coeffs)
    return x, (plan.economics.sale_price - cost) / time, cost, time


def prepared(plan, resolution):
    coeffs = derive_coefficients(plan)
    ctx = compile_context(plan)
    grid = GridSpec(resolution=resolution)
    return coeffs, ctx, [prepare_op_grid(i, ctx, grid) for i in range(plan.m)]


def dinkelbach_from(plan, lam, resolution):
    """Dinkelbach's iteration over the grid, run here from the multiplier
    lam: (best, profit_rate, unit_cost, unit_time) where it settles.  Once
    lam is the rate of a grid point, it stops as dinkelbach_solve does: at
    a point equal to the previous one or a rate not above lam."""
    coeffs, _, ops = prepared(plan, resolution)
    previous = None
    for _ in range(oracle.MAX_DINKELBACH_ITERATIONS):
        x, lam_next, cost, time = grid_step(plan, coeffs, ops, lam)
        if previous is not None and (x == previous or lam_next <= lam):
            return x, lam_next, cost, time
        lam, previous = lam_next, x
    raise AssertionError(f"no convergence from {lam}")


def midpoint_rate(plan):
    """Profit rate at the box midpoints, feasible or not."""
    mid = DecisionVector(
        tuple((op.speed_bounds[0] + op.speed_bounds[1]) / 2.0 for op in plan.operations),
        tuple((op.feed_bounds[0] + op.feed_bounds[1]) / 2.0 for op in plan.operations),
    )
    return profit_rate(plan, mid, derive_coefficients(plan))


class TestDinkelbachStart:
    """Dinkelbach's iteration converges from any multiplier: started at 0
    or at the box-midpoint ratio, it settles on the very answer that
    dinkelbach_solve, started at the lowest corner's rate, returns."""

    @staticmethod
    def start_free(plan, resolution):
        """False for a plan with no feasible point; else asserts that both
        starts settle on dinkelbach_solve's answer."""
        result = dinkelbach_solve(plan, grid=GridSpec(resolution=resolution))
        if not result.feasible:
            return False
        expected = (result.best, result.profit_rate, result.unit_cost, result.unit_time)
        for start in (0.0, midpoint_rate(plan)):
            assert dinkelbach_from(plan, start, resolution) == expected
        return True

    @pytest.mark.parametrize("resolution", [2, 7, 50, 500, 833])
    def test_builtin_case(self, builtin_plan, resolution):
        assert self.start_free(builtin_plan, resolution)

    @pytest.mark.parametrize("plan_name", ["builtin_plan", "toy_infeasible_plan"])
    def test_solve_prices_the_corner_once(self, plan_name, request, monkeypatch):
        # The starting multiplier comes from the compiled context's corner,
        # the one evaluation compile_context made of it.
        plan = request.getfixturevalue(plan_name)
        calls = []

        def counted(ctx, genomes):
            calls.append(np.atleast_2d(genomes).shape[0])
            return batch_evaluate(ctx, genomes)

        monkeypatch.setattr(milling, "batch_evaluate", counted)
        dinkelbach_solve(plan, grid=GridSpec(resolution=50))
        assert calls == [1]

    @pytest.mark.parametrize("resolution", [7, 50])
    def test_random_plans(self, resolution):
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 100:
            checked += self.start_free(random_plan(rng), resolution)


def tolerance_solve(plan, resolution):
    """Reference multiplier iteration with a tolerance: from the lowest
    corner's rate, stop once consecutive multipliers differ by less than
    1e-9, within 100 iterations."""
    coeffs, ctx, ops = prepared(plan, resolution)
    if not ctx.corner.feasible[0]:
        return OracleResult(False, None, None, None, None, 0, ())
    lam = float(ctx.corner.fitness[0])
    trace = [lam]
    for iteration in range(1, 101):
        x, lam_next, cost, time = grid_step(plan, coeffs, ops, lam)
        trace.append(lam_next)
        if abs(lam_next - lam) < 1e-9:
            return OracleResult(True, x, lam_next, cost, time, iteration, tuple(trace))
        lam = lam_next
    raise AssertionError(f"no convergence within 100 iterations: {trace}")


class TestStopRule:
    """dinkelbach_solve stops at a repeated point or a rate not above the
    multiplier.  It returns the whole result a tolerance of 1e-9 gives,
    and the point it returns is a fixed point of the iteration."""

    @staticmethod
    def check(plan, resolution):
        """False for a plan with no feasible point; else asserts both."""
        result = dinkelbach_solve(plan, grid=GridSpec(resolution=resolution))
        assert result == tolerance_solve(plan, resolution)
        if not result.feasible:
            return False
        coeffs, _, ops = prepared(plan, resolution)
        _, rate, _, _ = grid_step(plan, coeffs, ops, result.profit_rate)
        assert rate <= result.profit_rate
        return True

    @pytest.mark.parametrize("resolution", [2, 3, 7, 50, 500])
    def test_builtin_case(self, builtin_plan, resolution):
        assert self.check(builtin_plan, resolution)

    def test_stops_when_the_rate_does_not_rise(self, toy_single_plan, monkeypatch):
        # A scan alternating between the grid optimum and the lowest corner
        # never repeats its previous point; the falling rate stops it.
        grid = GridSpec(resolution=5)
        best = dinkelbach_solve(toy_single_plan, grid=grid).best
        _, ctx, _ = prepared(toy_single_plan, 5)
        corner = DecisionVector.from_genome(ctx.lower)
        assert best != corner
        points = itertools.cycle([(best.speeds[0], best.feeds[0], 0.0), (*ctx.lower, 0.0)])
        monkeypatch.setattr(oracle, "per_op_grid_min", lambda op, lam: next(points))
        result = dinkelbach_solve(toy_single_plan, grid=grid)
        assert result.iterations == 2 and result.best == corner
        assert result.lambda_trace[2] < result.lambda_trace[1]

    @pytest.mark.parametrize("resolution", [7, 50])
    def test_random_plans(self, resolution):
        rng = np.random.default_rng(23)
        checked = 0
        while checked < 100:
            checked += self.check(random_plan(rng), resolution)


class TestFailureModes:
    def test_infeasible_instance_reports_not_raises(self, toy_infeasible_plan):
        result = dinkelbach_solve(toy_infeasible_plan, grid=GridSpec(resolution=20))
        assert isinstance(result, OracleResult)
        assert not result.feasible
        assert result.best is None
        assert result.profit_rate is None
        assert result.unit_cost is None and result.unit_time is None
        # decided from the lowest corner, before any multiplier iteration
        assert result.iterations == 0
        assert result.lambda_trace == ()

    def test_corner_test_matches_grid_and_scalar_feasibility(self):
        # A plan has a feasible point iff its all-lowest genome is feasible:
        # on random plans that verdict equals "every operation has a
        # feasible grid point" and the scalar margins at that corner.
        rng = np.random.default_rng(3)
        grid = GridSpec(resolution=7)
        verdicts = set()
        for _ in range(500):
            plan = random_plan(rng)
            coeffs = derive_coefficients(plan)
            ctx = compile_context(plan)
            corner = bool(batch_evaluate(ctx, ctx.lower).feasible[0])
            on_grid = all(
                prepare_op_grid(i, ctx, grid) is not None for i in range(plan.m)
            )
            scalar = all(
                m.satisfied
                for m in constraint_margins(plan, DecisionVector.from_genome(ctx.lower), coeffs)
            )
            assert corner == on_grid == scalar
            verdicts.add(corner)
        assert verdicts == {True, False}

    def test_iteration_budget_exhaustion_raises_with_trace(self, toy_two_op_plan, monkeypatch):
        monkeypatch.setattr(oracle, "MAX_DINKELBACH_ITERATIONS", 1)
        with pytest.raises(OracleError) as excinfo:
            dinkelbach_solve(toy_two_op_plan, grid=GridSpec(resolution=10))
        message = str(excinfo.value)
        assert "1 iteration" in message
        assert "trace" in message

    def test_tight_tolerance_still_converges_on_finite_grid(self, toy_single_plan):
        # on a finite grid the iteration stops once the argmin repeats,
        # with no tolerance to set
        result = dinkelbach_solve(toy_single_plan, grid=GridSpec(resolution=5))
        assert result.feasible


# The bundled case's continuous optimum, from closed-form candidates.
BUNDLED_EXACT_RATE = 1.3791069903004314


def genome(result):
    """The flat [v_1..v_m, f_1..f_m] genome of a result's best point."""
    return np.array(result.best.speeds + result.best.feeds)


def boundary_genomes(ctx, rng, n):
    """Genomes on the edges of the feasible region: mixed corners of the
    box below feasible_upper, feeds at feed_cap, and at random feeds the
    fastest speeds batch_evaluate accepts (batch_v_max)."""
    m = ctx.m
    corners = np.where(rng.random((n, 2 * m)) < 0.5, ctx.lower, ctx.feasible_upper)
    capped = rng.uniform(ctx.lower, ctx.upper, size=(n, 2 * m))
    capped[:, m:] = ctx.feed_cap
    feeds = rng.uniform(ctx.lower[m:], np.maximum(ctx.lower[m:], ctx.feed_cap), size=(n, m))
    fastest = np.hstack((np.maximum(batch_v_max(ctx, feeds), ctx.lower[:m]), feeds))
    return np.vstack((ctx.lower, ctx.upper, ctx.feasible_upper, corners, capped, fastest))


class TestSolveExact:
    def test_bundled_optimum_and_certified_width(self, builtin_plan):
        ctx = compile_context(builtin_plan)
        result = oracle.solve_exact(ctx)
        assert result.profit_rate == pytest.approx(BUNDLED_EXACT_RATE, rel=1e-12, abs=0.0)
        assert 0.0 <= (result.rate_hi - result.profit_rate) / result.profit_rate <= 1e-12
        assert result.iterations <= 10
        # the rate is batch_evaluate's, and the point passes the scalar margins
        assert batch_evaluate(ctx, genome(result)).fitness[0] == result.profit_rate
        assert all(m.satisfied for m in constraint_margins(builtin_plan, result.best, ctx.coefficients))

    def test_bundled_result_is_pinned_bit_for_bit(self, builtin_plan):
        # tighter than the 1e-12 checks above, which stay: a change that
        # moves the iteration, its pricing or the bound's arithmetic shows
        result = oracle.solve_exact(compile_context(builtin_plan))
        assert result.profit_rate == 1.3791069903004307
        assert result.rate_hi == 1.3791069903006286
        assert result.iterations == 5
        assert result.best == DecisionVector(
            speeds=(91.13488278121908, 40.0, 40.0, 30.0, 31.257329437323737),
            feeds=(
                0.07817642957711536,
                0.32528539602542644,
                0.3252853960254269,
                0.5,
                0.38851434494290565,
            ),
        )
        # Python floats, as the grid's points are, not numpy scalars
        assert {type(value) for value in result.best.speeds + result.best.feeds} == {float}

    @pytest.mark.parametrize("resolution", [2, 7, 60, 500])
    def test_rate_hi_is_at_least_every_grid_optimum(self, builtin_plan, resolution):
        result = oracle.solve_exact(compile_context(builtin_plan))
        grid = dinkelbach_solve(builtin_plan, grid=GridSpec(resolution=resolution))
        assert grid.profit_rate <= result.rate_hi
        # the grid prices with the scalar model, which may round a few ulps apart
        assert grid.profit_rate <= result.profit_rate * (1.0 + 1e-13)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=120, deadline=None)
    def test_rate_hi_bounds_every_fitness_on_random_plans(self, seed):
        rng = np.random.default_rng(seed)
        plan = random_plan(rng)
        ctx = compile_context(plan)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = oracle.solve_exact(ctx)
        # exact feasibility is the lowest corner's
        assert result.feasible == (result.best is not None) == bool(ctx.corner.feasible[0])
        genomes = np.vstack((rng.uniform(ctx.lower, ctx.upper, size=(256, 2 * plan.m)), boundary_genomes(ctx, rng, 64)))
        assert batch_evaluate(ctx, genomes).fitness.max() <= result.rate_hi
        if result.best is None:
            assert result.rate_hi == 0.0
            assert (result.iterations, result.lambda_trace) == (0, ())
            return
        assert all(m.satisfied for m in constraint_margins(plan, result.best, ctx.coefficients))
        evaluation = batch_evaluate(ctx, genome(result))
        assert evaluation.fitness[0] == result.profit_rate <= result.rate_hi
        # cost and time are batch_evaluate's too, bit for bit
        assert (evaluation.unit_cost[0], evaluation.unit_time[0]) == (result.unit_cost, result.unit_time)
        # the corner's rate, then one per iteration, rising strictly until the last
        trace = result.lambda_trace
        assert len(trace) == result.iterations + 1 and trace[-1] == result.profit_rate
        assert all(a < b for a, b in zip(trace[:-2], trace[1:-1]))
        for resolution in (20, 60):
            grid = dinkelbach_solve(plan, grid=GridSpec(resolution=resolution))
            assert grid.rate_hi is None
            assert grid.profit_rate <= result.rate_hi
            assert grid.profit_rate <= result.profit_rate + 1e-13 * abs(result.profit_rate)
        # certified to within rounding: the width scales with S / time_fixed
        # (the excess over the floor, in cost, over the least unit time)
        if result.profit_rate > 0.0:
            assert result.rate_hi - result.profit_rate <= 1e-12 * ctx.sale_price / ctx.time_fixed
        else:
            assert result.rate_hi == 0.0

    def test_points_pass_both_power_tests_on_digest_and_random_plans(self, monkeypatch):
        # the kernel's power edge and constraint_margins take the same
        # pow, so no returned point is corrected and re-priced: each
        # passes constraint_margins wherever the corner is feasible, at
        # the rate the kernel's own terms give, which is batch_evaluate's
        calls = []

        def counted(*args):
            calls.append(args)
            return batch_evaluate(*args)

        monkeypatch.setattr(milling, "batch_evaluate", counted)
        points = 0
        for seed, count in (([7, 3], 60), (11, 400), (5, 400)):
            rng = np.random.default_rng(seed)
            for _ in range(count):
                plan = random_plan(rng)
                ctx = compile_context(plan)
                calls.clear()
                result = oracle.solve_exact(ctx)
                assert calls == []
                if result.best is None:
                    continue
                points += 1
                assert all(m.satisfied for m in constraint_margins(plan, result.best, ctx.coefficients))
                assert batch_evaluate(ctx, genome(result)).fitness[0] == result.profit_rate
        # the corner-feasible plans: 45 digest plans, 302 from rng 11 and
        # 306 from rng 5
        assert points == 653

    def test_corner_that_only_numpy_pow_accepts(self, builtin_plan):
        # Operation 1's lowest corner at the largest c5 that numpy's f**0.8
        # accepts there, at a feed where the C library's pow rounds the
        # product one rounding over the limit.  The scalar margins take
        # numpy's pow too, so they accept that corner as ctx.corner does,
        # and so does the point solve_exact returns, which stays there.
        ops = builtin_plan.operations
        f_lo = 0.05000000000000118
        plan = dataclasses.replace(
            builtin_plan,
            operations=(dataclasses.replace(ops[0], feed_bounds=(f_lo, ops[0].feed_bounds[1])), *ops[1:]),
        )
        ctx = compile_context(plan)
        m, v_lo = ctx.m, ctx.lower[0]
        numpy_power = (np.array([f_lo]) ** 0.8)[0]
        c5 = 1.0 / (v_lo * numpy_power)
        while (math.nextafter(c5, math.inf) * v_lo) * numpy_power <= 1.0:
            c5 = math.nextafter(c5, math.inf)
        while (c5 * v_lo) * numpy_power > 1.0:
            c5 = math.nextafter(c5, 0.0)
        assert (c5 * v_lo) * f_lo**0.8 > 1.0
        coefficients = (dataclasses.replace(ctx.coefficients[0], c5=c5), *ctx.coefficients[1:])
        edge = dataclasses.replace(ctx, c5=np.concatenate(([c5], ctx.c5[1:])), coefficients=coefficients)
        corner = DecisionVector.from_genome(edge.lower)
        assert edge.corner.feasible[0]
        assert all(margin.satisfied for margin in constraint_margins(plan, corner, coefficients))
        result = oracle.solve_exact(edge)
        assert (result.best.speeds[0], result.best.feeds[0]) == (v_lo, f_lo)
        assert all(margin.satisfied for margin in constraint_margins(plan, result.best, coefficients))
        fitness = batch_evaluate(edge, genome(result)).fitness[0]
        assert fitness == result.profit_rate == 0.7167028589576497
        assert result.rate_hi >= fitness
        # the power edge runs through the corner: no larger feed passes at
        # v_lo, and v_max(f_lo), inside the box, is numpy's edge exactly
        assert milling.feasible_polygons(edge).f_top[0] == f_lo
        top = milling.v_max(edge, edge.lower[None, m:])[0, 0]
        assert v_lo <= top and (c5 * top) * numpy_power <= 1.0 < (c5 * math.nextafter(top, math.inf)) * numpy_power

    def test_iteration_guard_raises_with_trace(self, builtin_plan, monkeypatch):
        # an unsettled iterate is no optimum: the exact path raises at the
        # guard as the grid's does
        ctx = compile_context(builtin_plan)
        monkeypatch.setattr(oracle, "MAX_DINKELBACH_ITERATIONS", 1)
        with pytest.raises(OracleError) as excinfo:
            oracle.solve_exact(ctx)
        message = str(excinfo.value)
        assert "within 1 iterations" in message
        assert f"trace: [{float(ctx.corner.fitness[0])!r}, " in message


def test_solvers_look_up_the_grid_scan_and_solve_on_the_module(builtin_plan, monkeypatch, capsys):
    """perfbench/tracing.py times the grid oracle by wrapping
    oracle.per_op_grid_min and oracle.dinkelbach_solve, and reads
    OracleResult.iterations; a solve or command that bound either function
    once would go untimed."""
    calls = {"per_op_grid_min": 0, "dinkelbach_solve": 0}

    def counting(name):
        original = getattr(oracle, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(oracle, name, counted)

    counting("per_op_grid_min")
    result = dinkelbach_solve(builtin_plan, grid=GridSpec(resolution=40))
    assert calls == {"per_op_grid_min": builtin_plan.m * result.iterations, "dinkelbach_solve": 0}

    counting("dinkelbach_solve")
    calls.update(per_op_grid_min=0)
    assert cli.main(["oracle", "--builtin-case", "--grid-resolution", "40", "--out", "json"]) == 0
    iterations = json.loads(capsys.readouterr().out)["iterations"]
    assert calls == {"per_op_grid_min": builtin_plan.m * iterations, "dinkelbach_solve": 1}
    assert "iterations" in {f.name for f in dataclasses.fields(OracleResult)}
