"""Grid verification oracle for the milling profit-rate problem.

The profit rate (sale_price - unit_cost) / unit_time is a ratio of two
sums that separate by operation: for a fixed multiplier lam, minimizing
cost_i + lam * time_i independently per operation maximizes the whole
numerator-minus-lam-times-denominator.  Iterating lam as the ratio at the
current minimizers (Dinkelbach's scheme) therefore finds the exact
optimum over a finite speed/feed grid in a handful of iterations, without
any evolutionary machinery.  It converges from the ratio of any feasible
point, and starts from the lowest corner of the box, whose feasibility
decides whether the plan has a feasible point at all.  From a point's
ratio lam rises strictly until the minimizer repeats, so the iteration
stops there, on a fixed point, and needs no tolerance.  The result is a
certified lower bound on the continuous optimum and the yardstick the
strategy is tested against.

Each per-operation scan is exact over the feasible grid points, but it
evaluates only the few that can hold the minimum.  Every constraint margin
is nondecreasing in speed and feed, so the feasible points of a grid form
a staircase: a prefix of the feeds in every row, no longer in a faster
row.  The scan cuts each row of the staircase into bands of feeds, bounds
every band from below with the same float expression as the values, and
evaluates only the bands whose bound does not exceed a value already
found.  It bounds blocks of rows the same way first, with each row factor
replaced by its smallest value over the block, and bounds single rows only
inside the blocks that can hold the minimum.  The cuts are exact, not
heuristics: the prefix widths come from the same rounded products the
constraint test computes, the bounds rest only on rounding being
monotone, and the kept values come from the same float operations as a
full-grid evaluation.  So the scan returns the very point, bit for bit,
that masking every infeasible point would.

Everything about an operation's grid that does not depend on lam (the
axes, the staircase, the factors of the value and their extremes) is
prepared once per solve, from the compiled model alone; each multiplier
iteration only scans.

solve_exact runs the same iteration, the one loop of _iterate, on
milling.operation_minima, which minimizes each operation over its
continuous feasible polygon in closed form, and certifies the result with
milling's rate_hi, an upper bound on every fitness batch_evaluate can
return in the box, proved beside the arithmetic it rests on.  The
strategy stops a run on it (es.run).  Every power test takes numpy's
f**0.8, so the point solve_exact returns passes the scalar
constraint_margins whenever the lowest corner does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .milling import (
    DecisionVector,
    EvalContext,
    MillingPlan,
    _is_integer,
    _rate_bound,
    compile_context,
    operation_minima,
    unit_cost,
    unit_time,
)

__all__ = [
    "MAX_DINKELBACH_ITERATIONS",
    "MAX_GRID_RESOLUTION",
    "GridSpec",
    "OracleResult",
    "OracleError",
    "per_op_grid_min",
    "dinkelbach_solve",
    "solve_exact",
]

# Elements per chunk of the grid scan: its two float64 buffers (256 KiB
# each) stay in a per-core L2 cache.
_BLOCK_ELEMENTS = 1 << 15

# Feed columns per band, and rows per block: the scan bounds each block's
# band, then each row's band inside the blocks it keeps, as one tile.
_BAND = 64


# Guard on the multiplier iteration.  On the bundled case and on random
# plans it stops within 7 iterations; reaching it is a fault on either path.
MAX_DINKELBACH_ITERATIONS = 100

# Largest grid resolution.  Each operation's prepared grid holds about a
# dozen float64 arrays of resolution elements, and its scan the bounds of
# (resolution / _BAND)**2 block tiles, with temporaries of that size: at
# 100,000 that is about 20 MB a tile array, and an oracle on the bundled
# case peaks near 100 MB and takes well under a second.  The tile arrays
# grow as the square, past any memory at a few million, so a larger
# resolution is refused before anything is allocated.
MAX_GRID_RESOLUTION = 100_000


class OracleError(RuntimeError):
    """The multiplier iteration did not settle within the guard."""


@dataclass(frozen=True)
class GridSpec:
    """Grid density for the oracle: resolution is the number of points per
    axis per operation, endpoints included, at most MAX_GRID_RESOLUTION."""

    resolution: int = 500

    def __post_init__(self) -> None:
        if not (_is_integer(self.resolution) and self.resolution >= 2):
            raise ValueError("resolution must be an integer >= 2")
        if self.resolution > MAX_GRID_RESOLUTION:
            raise ValueError(f"resolution must be at most {MAX_GRID_RESOLUTION}")


@dataclass(frozen=True)
class OracleResult:
    """Exact profit-rate optimum over the grid (dinkelbach_solve) or the
    box (solve_exact), as that solver prices it.  rate_hi is None from the
    grid; from solve_exact it bounds every fitness batch_evaluate returns
    in the box from above, and is +inf where none could be certified."""

    feasible: bool
    best: DecisionVector | None
    profit_rate: float | None
    unit_cost: float | None
    unit_time: float | None
    iterations: int
    lambda_trace: tuple[float, ...]
    rate_hi: float | None = None


@dataclass(frozen=True)
class OpGrid:
    """One operation's grid, prepared once per solve and scanned at each lam.

    It holds everything the scan needs that does not depend on lam: the
    axes, the feasible staircase, the row factors 1 / v and
    tool_cost_coef * v**a, the band factors 1 / f and f**b cut into bands
    of _BAND feeds, the extremes of the band factors over every band, and
    the smallest wear row factor of every block of _BAND rows.  Row arrays
    are padded to whole blocks, the padded rows with width 0, and band
    arrays to whole bands with 1.0, which lies past every row's width.
    """

    speeds: np.ndarray
    feeds: np.ndarray
    nrow: int
    widths: np.ndarray
    inv_speeds: np.ndarray
    wear_rows: np.ndarray
    inv_bands: np.ndarray
    wear_bands: np.ndarray
    inv_band_min: np.ndarray
    inv_band_max: np.ndarray
    wear_band: np.ndarray
    wear_blocks: np.ndarray
    rate: float
    k1: float


def prepare_op_grid(op_index: int, ctx: EvalContext, grid: GridSpec) -> OpGrid | None:
    """The lam-independent part of one operation's scan, or None when no
    point of its grid satisfies the constraints.

    The feasible points form a staircase.  The feeds ascend, so the test
    feeds <= feed_cap keeps a prefix of the columns.  In each row the
    power test (c5 * v) * feeds**0.8 <= 1 scales an ascending vector by
    one positive number, and rounding a product is monotone, so it keeps
    a prefix too; a faster row keeps no more.  Each row's prefix width is
    counted with the very product the test computes.

    Every factor comes from the compiled context batch_evaluate reads.
    """
    i, m = op_index, ctx.m
    speeds = np.linspace(ctx.lower[i], ctx.upper[i], grid.resolution)
    feeds = np.linspace(ctx.lower[m + i], ctx.upper[m + i], grid.resolution)

    ncol = int(np.searchsorted(feeds, ctx.feed_cap[i], side="right"))
    widths = _power_widths(ctx.c5[i] * speeds, (feeds**0.8)[:ncol])
    nrow = int(np.count_nonzero(widths))
    if nrow == 0:
        return None

    # Rows padded to whole blocks, feeds to whole bands.
    row_starts = np.arange(0, nrow, _BAND)
    band_starts = np.arange(0, ncol, _BAND)
    padded_widths = np.zeros(row_starts.size * _BAND, dtype=widths.dtype)
    padded_widths[:nrow] = widths[:nrow]
    inv_speeds, wear_rows = np.ones((2, padded_widths.size))
    inv_speeds[:nrow] = 1.0 / speeds[:nrow]
    wear_rows[:nrow] = ctx.tool_cost_coef[i] * speeds[:nrow] ** ctx.speed_exponent[i]
    inv_bands, wear_bands = np.ones((2, band_starts.size * _BAND))
    inv_bands[:ncol] = (1.0 / feeds)[:ncol]
    wear_bands[:ncol] = (feeds ** ctx.feed_exponent[i])[:ncol]

    # Extremes over each band's real columns, read from the computed
    # values: pow need not be monotone in floating point.
    wear_extreme = np.minimum if ctx.tool_cost_coef[i] >= 0.0 else np.maximum
    return OpGrid(
        speeds=speeds,
        feeds=feeds,
        nrow=nrow,
        widths=padded_widths,
        inv_speeds=inv_speeds,
        wear_rows=wear_rows,
        inv_bands=inv_bands.reshape(-1, _BAND),
        wear_bands=wear_bands.reshape(-1, _BAND),
        inv_band_min=np.minimum.reduceat(inv_bands[:ncol], band_starts),
        inv_band_max=np.maximum.reduceat(inv_bands[:ncol], band_starts),
        wear_band=wear_extreme.reduceat(wear_bands[:ncol], band_starts),
        wear_blocks=np.minimum.reduceat(wear_rows[:nrow], row_starts),
        rate=ctx.rate,
        k1=float(ctx.k1[i]),
    )


def per_op_grid_min(op: OpGrid, lam: float) -> tuple[float, float, float] | None:
    """Feasible grid point of one operation minimizing cost + lam * time.

    Exact over the feasible points of the prepared speed/feed grid; ties
    resolve to the lowest speed index, then the lowest feed index.
    Returns (speed, feed, value), or None when no feasible value is finite.

    A point's value is ((weight * k1) * (1 / v)) * (1 / f), plus
    (tool_cost_coef * v**a) * f**b, where weight = rate + lam; the tool
    change, alike at every point, is priced once in the fixed terms.  A
    tile is one row of the staircase times one band of _BAND consecutive
    feeds.  Its lower bound is the same expression with 1 / f and f**b
    replaced by their smallest computed values over the band's columns, or
    by their largest where the row factor they multiply is negative (the
    time term under weight < 0, the wear term under a negative
    tool_cost_coef).  The bound needs no convexity, only that rounding is
    monotone: fl(c * x) is monotone in x for a fixed-sign c, and fl(x + y)
    is nondecreasing in each argument, so no point of a tile lies below
    its bound.  Bands at or past a row's width hold no feasible point;
    inside a kept band, the columns at or past it are masked with inf.

    A block tile, _BAND rows times one band, is bounded first by the same
    routine, with each row factor replaced by its smallest computed value
    over the block's rows and the width by its first row's, the widest.
    That is right whatever the factor's sign, because what it multiplies
    is positive: fl(c * x) is nondecreasing in c for a fixed x > 0, so the
    block's smallest factor times a band extreme is at most every row's
    factor times it, and the band extreme is still picked by the sign the
    block's factors share.
    Row tiles are bounded only inside the block tiles bounded by U.

    U, the value of the best feasible point in the lowest-bounded row tile
    of the lowest-bounded block tile, is at least the minimum.  A tile
    whose bound exceeds U holds only points strictly above the minimum,
    so skipping it is exact, and keeping every tile with bound <= U (not
    < U) keeps every point equal to the minimum.  The kept row tiles are
    evaluated in row-major order, which is their points' row-major order,
    with the same float operations in the same order as when every grid
    point was evaluated and the infeasible ones masked, and chunks of them
    are compared with strict <.  So the first minimum in row-major order
    still wins, bit for bit.
    """
    weight = op.rate + lam
    time_coef = weight * op.k1
    time_rows = time_coef * op.inv_speeds
    time_band = op.inv_band_min if time_coef >= 0.0 else op.inv_band_max
    wear_rows, wear_band, widths = op.wear_rows, op.wear_band, op.widths
    nband = wear_band.size

    def tile_bounds(
        time_f: np.ndarray, wear_f: np.ndarray, width: np.ndarray, bands: np.ndarray
    ) -> np.ndarray:
        bounds = time_f * time_band[bands]
        bounds += wear_f * wear_band[bands]
        np.copyto(bounds, math.inf, where=bands * _BAND >= width)
        return bounds

    # Lower bound of every (block, band) tile; widths never grow with the
    # row, so a block's first row is its widest.
    time_blocks = np.minimum.reduceat(time_rows[: op.nrow], np.arange(0, op.nrow, _BAND))
    bounds = tile_bounds(
        time_blocks[:, None], op.wear_blocks[:, None], widths[::_BAND, None], np.arange(nband)
    )

    # U, from the lowest-bounded row tile of the lowest-bounded block tile.
    block, band = divmod(int(np.argmin(bounds)), nband)
    rows = block * _BAND + np.arange(_BAND)
    row_bounds = tile_bounds(time_rows[rows], wear_rows[rows], widths[rows], np.full(_BAND, band))
    row = int(rows[np.argmin(row_bounds)])
    probe = slice(band * _BAND, min((band + 1) * _BAND, int(widths[row])))
    upper = np.min(
        time_rows[row] * op.inv_bands.flat[probe]
        + wear_rows[row] * op.wear_bands.flat[probe]
    )

    # Row tiles of the blocks bounded by U; only those bounded by U stay,
    # sorted into row-major order.
    blocks, bands = np.divmod(np.flatnonzero(bounds <= upper), nband)
    rows = (blocks[:, None] * _BAND + np.arange(_BAND)).ravel()
    bands = np.repeat(bands, _BAND)
    row_bounds = tile_bounds(time_rows[rows], wear_rows[rows], widths[rows], bands)
    kept = np.sort((rows * nband + bands)[row_bounds <= upper])
    rows, bands = np.divmod(kept, nband)

    band_columns = np.arange(_BAND)
    tiles = _BLOCK_ELEMENTS // _BAND
    values_buf, wear_buf = np.empty((2, min(tiles, rows.size), _BAND))
    best_value = math.inf
    best_v = best_f = 0.0
    for start in range(0, rows.size, tiles):
        chunk_rows, chunk_bands = rows[start : start + tiles], bands[start : start + tiles]
        values, wear = values_buf[: chunk_rows.size], wear_buf[: chunk_rows.size]
        op.inv_bands.take(chunk_bands, axis=0, out=values)
        np.multiply(values, time_rows[chunk_rows, None], out=values)
        op.wear_bands.take(chunk_bands, axis=0, out=wear)
        np.multiply(wear, wear_rows[chunk_rows, None], out=wear)
        np.add(values, wear, out=values)
        feasible = widths[chunk_rows] - chunk_bands * _BAND
        np.copyto(values, math.inf, where=band_columns >= feasible[:, None])
        flat = int(np.argmin(values))
        value = float(values.flat[flat])
        if value < best_value:
            best_value = value
            tile, col = divmod(flat, _BAND)
            best_v = float(op.speeds[chunk_rows[tile]])
            best_f = float(op.feeds[chunk_bands[tile] * _BAND + col])
    if best_value == math.inf:
        return None
    return best_v, best_f, best_value


def _power_widths(power: np.ndarray, feeds_pow: np.ndarray) -> np.ndarray:
    """Per row, how many leading feeds pass power * feeds_pow <= 1.

    Counting feeds_pow <= 1 / power can only come out short: 1 / power is
    within half an ulp of the true reciprocal, so every feed it admits has
    a product that rounds to at most 1.  It can miss only feeds whose
    product comes within an ulp of 1, so each count is stepped up past the
    next run of equal feeds for as long as their product passes.
    """
    ncol = feeds_pow.size
    widths = np.searchsorted(feeds_pow, 1.0 / power, side="right")
    while True:
        grow = widths < ncol
        grow[grow] = power[grow] * feeds_pow[widths[grow]] <= 1.0
        if not grow.any():
            return widths
        widths[grow] = np.searchsorted(feeds_pow, feeds_pow[widths[grow]], side="right")


def _iterate(ctx: EvalContext, prepare: Callable[[], Callable[[float], tuple]]) -> OracleResult:
    """Dinkelbach's iteration (Management Science 13(7), 1967).  prepare,
    called once the box's lowest corner is known feasible, returns the
    step: from a multiplier lam, the speeds and the feeds, as tuples of
    floats, of the solver's per-operation minimizers of cost + lam * time,
    with their unit cost and unit time.  Only the returned point becomes
    a DecisionVector: the others are only compared.

    lam starts at the corner's profit rate, as the compiled context priced
    it (EvalContext.corner), and each iteration takes the rate of the
    step's point as the next lam.  It stops at the first point that equals
    the previous one (the corner, before the first iteration) or whose rate
    is not above lam: a fixed point of the iteration, and the step's
    optimum.  Until then lam rises strictly, so no point recurs and the
    iteration ends on a finite set of points without a tolerance.  An
    infeasible corner gives an infeasible result; an iteration that does
    not stop within MAX_DINKELBACH_ITERATIONS raises OracleError with the
    multiplier trace.
    """
    if not ctx.corner.feasible[0]:
        return OracleResult(False, None, None, None, None, iterations=0, lambda_trace=())
    lam = float(ctx.corner.fitness[0])
    step = prepare()
    corner = ctx.lower.tolist()
    previous = (tuple(corner[: ctx.m]), tuple(corner[ctx.m :]))
    trace: list[float] = [lam]
    for iteration in range(1, MAX_DINKELBACH_ITERATIONS + 1):
        speeds, feeds, cost, time = step(lam)
        lam_next = (ctx.sale_price - cost) / time
        trace.append(lam_next)
        if (speeds, feeds) == previous or lam_next <= lam:
            x = DecisionVector(speeds=speeds, feeds=feeds)
            return OracleResult(True, x, lam_next, cost, time, iteration, tuple(trace))
        lam, previous = lam_next, (speeds, feeds)
    raise OracleError(
        "multiplier iteration did not converge within "
        f"{MAX_DINKELBACH_ITERATIONS} iterations; trace: {trace}"
    )


def dinkelbach_solve(plan: MillingPlan, grid: GridSpec | None = None) -> OracleResult:
    """Exact profit-rate optimum over the product grid: _iterate, whose step
    takes per operation the grid point minimizing cost + lam * time
    (per_op_grid_min).  The lowest corner is a grid point, so when it is
    feasible with a finite value every scan finds a finite feasible point.
    Points are priced with the scalar model, which the frozen yardsticks
    pin to the last bit.  Raises DomainError as compile_context does, and
    OracleError as _iterate.
    """
    ctx = compile_context(plan)
    grid = grid or GridSpec()

    def prepare() -> Callable[[float], tuple]:
        ops = [prepare_op_grid(i, ctx, grid) for i in range(plan.m)]

        def step(lam: float) -> tuple[tuple[float, ...], tuple[float, ...], float, float]:
            points = [per_op_grid_min(op, lam) for op in ops]
            x = DecisionVector(speeds=tuple(p[0] for p in points), feeds=tuple(p[1] for p in points))
            return x.speeds, x.feeds, unit_cost(plan, x, ctx.coefficients), unit_time(plan, x, ctx.coefficients)

        return step

    return _iterate(ctx, prepare)


def solve_exact(ctx: EvalContext) -> OracleResult:
    """The continuous profit-rate optimum of a compiled plan, with a
    certified upper bound on every fitness its box holds.

    _iterate runs on milling.operation_minima, which solves each operation
    exactly, so the iteration is global.  Cost and time are summed from the
    kernel's terms in batch_evaluate's order, so they and the rate are
    batch_evaluate's.  It raises OracleError as _iterate does.

    rate_hi is milling._rate_bound at the last rate and minimizers found.
    Its three premises (convexity in log space, a polygon that holds every
    genome the rounded tests accept, a rounding allowance) describe
    milling's arithmetic and are argued and tested there.  When the corner
    is infeasible every genome is, every fitness is 0, and so is rate_hi.

    The last iterate is returned as it is: its point is the kernel's, on
    the power edge (milling.v_max), so it passes the scalar
    constraint_margins too wherever the lowest corner does.
    """
    polygons = minima = None

    def prepare() -> Callable[[float], tuple]:
        nonlocal polygons
        polygons = ctx.polygons
        return step

    def step(lam: float) -> tuple[tuple[float, ...], tuple[float, ...], float, float]:
        nonlocal minima
        minima = operation_minima(ctx, polygons, lam)
        machining = np.add.reduce(minima.machining)
        cost = ctx.cost_fixed + ctx.rate * machining + np.add.reduce(minima.wear)
        # Clipped into the box, so finite: DecisionVector's test would pass.
        speeds, feeds = tuple(minima.speeds.tolist()), tuple(minima.feeds.tolist())
        return speeds, feeds, float(cost), float(ctx.time_fixed + machining)

    result = _iterate(ctx, prepare)
    rate_hi = _rate_bound(ctx, polygons, result.profit_rate, minima) if result.feasible else 0.0
    return replace(result, rate_hi=rate_hi)
