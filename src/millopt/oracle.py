"""Brute-force verification oracle for the milling profit-rate problem.

The profit rate (sale_price - unit_cost) / unit_time is a ratio of two
sums that separate by operation: for a fixed multiplier lam, minimizing
cost_i + lam * time_i independently per operation maximizes the whole
numerator-minus-lam-times-denominator.  Iterating lam as the ratio at the
current minimizers (Dinkelbach's scheme) therefore finds the exact
optimum over a finite speed/feed grid in a handful of iterations, without
any evolutionary machinery.  The result is a certified lower bound on
the continuous optimum and the yardstick the strategy is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .milling import (
    DecisionVector,
    DerivedCoefficients,
    EvalContext,
    MillingPlan,
    batch_evaluate,
    compile_context,
    constraint_margins,
    derive_coefficients,
    profit_rate,
    unit_cost,
    unit_time,
)

__all__ = [
    "GridSpec",
    "OracleResult",
    "OracleError",
    "per_op_grid_min",
    "dinkelbach_solve",
]

_CHUNK_ROWS = 512


class OracleError(RuntimeError):
    """The multiplier iteration failed to converge."""


@dataclass(frozen=True)
class GridSpec:
    """Grid density and convergence settings for the oracle.

    resolution is the number of points per axis per operation, endpoints
    included.  The multiplier iteration stops when consecutive lam values
    differ by less than dinkelbach_tolerance.
    """

    resolution: int = 500
    dinkelbach_tolerance: float = 1e-9
    max_dinkelbach_iterations: int = 100

    def __post_init__(self) -> None:
        if not (isinstance(self.resolution, int) and self.resolution >= 2):
            raise ValueError("resolution must be an integer >= 2")
        if not (
            math.isfinite(self.dinkelbach_tolerance) and self.dinkelbach_tolerance > 0.0
        ):
            raise ValueError("dinkelbach_tolerance must be > 0")
        if not (
            isinstance(self.max_dinkelbach_iterations, int)
            and self.max_dinkelbach_iterations >= 1
        ):
            raise ValueError("max_dinkelbach_iterations must be an integer >= 1")


@dataclass(frozen=True)
class OracleResult:
    """Exact optimum of the profit rate over the product grid."""

    feasible: bool
    best: DecisionVector | None
    profit_rate: float | None
    unit_cost: float | None
    unit_time: float | None
    iterations: int
    lambda_trace: tuple[float, ...]


def per_op_grid_min(
    op_index: int,
    lam: float,
    plan: MillingPlan,
    ctx: EvalContext,
    grid: GridSpec,
) -> tuple[float, float, float] | None:
    """Feasible grid point of one operation minimizing cost + lam * time.

    Scans every point of the speed/feed grid; ties resolve to the lowest
    speed index, then the lowest feed index.  Returns (speed, feed, value)
    or None when no grid point satisfies the constraints.

    The formulas come from the compiled context batch_evaluate reads.  The
    tool-change addend alone comes from the plan: it is part of every
    compared value, so it fixes their rounding and with it argmin's pick.
    """
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


def _midpoint_lambda(
    plan: MillingPlan, coeffs: tuple[DerivedCoefficients, ...]
) -> float:
    """Ratio at the all-midpoints assignment if feasible, else 0."""
    mid = DecisionVector(
        speeds=tuple((op.speed_bounds[0] + op.speed_bounds[1]) / 2.0 for op in plan.operations),
        feeds=tuple((op.feed_bounds[0] + op.feed_bounds[1]) / 2.0 for op in plan.operations),
    )
    if all(m.satisfied for m in constraint_margins(plan, mid, coeffs)):
        return profit_rate(plan, mid, coeffs)
    return 0.0


def dinkelbach_solve(
    plan: MillingPlan,
    coeffs: tuple[DerivedCoefficients, ...] | None = None,
    grid: GridSpec | None = None,
) -> OracleResult:
    """Exact profit-rate optimum over the product grid.

    Raises OracleError with the multiplier trace if the iteration does
    not settle within max_dinkelbach_iterations; returns an infeasible
    result, before any iteration, when the plan has no feasible point.
    """
    coeffs = coeffs if coeffs is not None else derive_coefficients(plan)
    ctx = compile_context(plan, coeffs)
    grid = grid or GridSpec()
    # No point of the box is feasible unless its lowest corner is; when it
    # is, that corner is a grid point, so every per-operation scan finds one.
    if not batch_evaluate(ctx, ctx.lower).feasible[0]:
        return OracleResult(
            feasible=False,
            best=None,
            profit_rate=None,
            unit_cost=None,
            unit_time=None,
            iterations=0,
            lambda_trace=(),
        )
    lam = _midpoint_lambda(plan, coeffs)
    trace: list[float] = [lam]

    for iteration in range(1, grid.max_dinkelbach_iterations + 1):
        points = [per_op_grid_min(i, lam, plan, ctx, grid) for i in range(plan.m)]
        x = DecisionVector(speeds=tuple(p[0] for p in points), feeds=tuple(p[1] for p in points))
        cost = unit_cost(plan, x, coeffs)
        time = unit_time(plan, x, coeffs)
        lam_next = (plan.economics.sale_price - cost) / time
        trace.append(lam_next)
        if abs(lam_next - lam) < grid.dinkelbach_tolerance:
            return OracleResult(
                feasible=True,
                best=x,
                profit_rate=lam_next,
                unit_cost=cost,
                unit_time=time,
                iterations=iteration,
                lambda_trace=tuple(trace),
            )
        lam = lam_next

    raise OracleError(
        "multiplier iteration did not converge within "
        f"{grid.max_dinkelbach_iterations} iterations; trace: {trace}"
    )
