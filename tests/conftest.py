"""Shared fixtures: the bundled plan plus small hand-checkable instances,
the test helpers that write plans out and check published rows, and
those that find batch_evaluate's own power edge."""

from __future__ import annotations

import dataclasses
import math
from enum import Enum
from typing import Any

import numpy as np
import pytest

from millopt import (
    EconomicConstants,
    MachineSpec,
    MillingPlan,
    OperationKind,
    OperationSpec,
    ToolKind,
    ToolQuality,
    ToolSpec,
    builtin_case,
    derive_coefficients,
)
from millopt.case_study import _RENAMED, ReferenceRow
from millopt.milling import v_max

STANDARD_ECONOMICS = EconomicConstants(
    sale_price=25.0,
    material_cost=0.5,
    labor_rate=0.45,
    overhead_rate=1.45,
    setup_time=2.0,
)

STANDARD_MACHINE = MachineSpec(
    motor_power=8.5,
    efficiency=0.95,
    power_constant=2.24,
    wear_factor=1.1,
    chip_area_exponent=0.28,
    slenderness_exponent=0.14,
)

CARBIDE_FACE_MILL = ToolSpec(
    id=1,
    kind=ToolKind.FACE_MILL,
    quality=ToolQuality.CARBIDE,
    diameter=50.0,
    teeth=6,
    price=49.5,
    lead_angle=45.0,
    clearance_angle=5.0,
    taylor_constant=100.05,
    life_exponent=0.3,
    change_time=0.5,
)

HSS_END_MILL_10 = ToolSpec(
    id=2,
    kind=ToolKind.END_MILL,
    quality=ToolQuality.HSS,
    diameter=10.0,
    teeth=4,
    price=7.55,
    lead_angle=0.0,
    clearance_angle=5.0,
    taylor_constant=33.98,
    life_exponent=0.15,
    change_time=0.5,
)

HSS_END_MILL_12 = ToolSpec(
    id=3,
    kind=ToolKind.END_MILL,
    quality=ToolQuality.HSS,
    diameter=12.0,
    teeth=4,
    price=7.55,
    lead_angle=0.0,
    clearance_angle=5.0,
    taylor_constant=33.98,
    life_exponent=0.15,
    change_time=0.5,
)


def single_face_plan() -> MillingPlan:
    """One unconstrained-finish face operation; every 3x3 grid point but the
    fastest corner is feasible.  Small enough to enumerate by hand."""
    op = OperationSpec(
        number=1,
        kind=OperationKind.FACE,
        tool_id=1,
        axial_depth=5.0,
        radial_depth=25.0,
        travel=200.0,
        speed_bounds=(60.0, 120.0),
        feed_bounds=(0.05, 0.4),
    )
    return MillingPlan(
        economics=STANDARD_ECONOMICS,
        machine=STANDARD_MACHINE,
        tools=(CARBIDE_FACE_MILL,),
        operations=(op,),
    )


def two_op_plan() -> MillingPlan:
    """A corner pass plus a slot pass: small enough for joint enumeration."""
    op1 = OperationSpec(
        number=1,
        kind=OperationKind.CORNER,
        tool_id=2,
        axial_depth=5.0,
        radial_depth=5.0,
        travel=60.0,
        speed_bounds=(40.0, 70.0),
        feed_bounds=(0.05, 0.5),
        surface_finish_req=6.0,
    )
    op2 = OperationSpec(
        number=2,
        kind=OperationKind.SLOT,
        tool_id=3,
        axial_depth=8.0,
        radial_depth=8.0,
        travel=40.0,
        speed_bounds=(30.0, 50.0),
        feed_bounds=(0.05, 0.5),
    )
    return MillingPlan(
        economics=STANDARD_ECONOMICS,
        machine=STANDARD_MACHINE,
        tools=(HSS_END_MILL_10, HSS_END_MILL_12),
        operations=(op1, op2),
    )


def infeasible_plan() -> MillingPlan:
    """Motor power so low that the power margin exceeds 1 on the whole box."""
    machine = MachineSpec(
        motor_power=0.05,
        efficiency=0.95,
        power_constant=2.24,
        wear_factor=1.1,
        chip_area_exponent=0.28,
        slenderness_exponent=0.14,
    )
    op = OperationSpec(
        number=1,
        kind=OperationKind.FACE,
        tool_id=1,
        axial_depth=5.0,
        radial_depth=25.0,
        travel=200.0,
        speed_bounds=(60.0, 120.0),
        feed_bounds=(0.05, 0.4),
    )
    return MillingPlan(
        economics=STANDARD_ECONOMICS,
        machine=machine,
        tools=(CARBIDE_FACE_MILL,),
        operations=(op,),
    )


def finish_infeasible_plan() -> MillingPlan:
    """single_face_plan with a 1.0 um finish requirement: the finish margin
    is 1.28 at the lowest feed, while power holds there and force is free."""
    plan = single_face_plan()
    op = dataclasses.replace(plan.operations[0], surface_finish_req=1.0)
    return dataclasses.replace(plan, operations=(op,))


def force_infeasible_plan() -> MillingPlan:
    """single_face_plan with a 500 N force limit: the cutting force is
    835 N at the lowest feed, while power holds there and finish is free."""
    plan = single_face_plan()
    tool = dataclasses.replace(plan.tools[0], permitted_force=500.0)
    return dataclasses.replace(plan, tools=(tool,))


def _plain(value: Any) -> Any:
    """value as JSON-ready data: a dataclass as an object of its fields under
    their document keys, None fields left out; enums by value; tuples as lists."""
    if dataclasses.is_dataclass(value):
        items = ((field.name, getattr(value, field.name)) for field in dataclasses.fields(value))
        return {_RENAMED.get(name, name): _plain(item) for name, item in items if item is not None}
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, tuple):
        return [_plain(item) for item in value]
    return value


def dump_plan(plan: MillingPlan) -> dict[str, Any]:
    """Serialize a plan to a document that load_document reads back unchanged.

    Bounds are emitted explicitly (resolved, not defaulted) so the dump is
    self-contained; optional fields that are None are left out.
    """
    return _plain(plan)


def consistency_gap(row: ReferenceRow, sale_price: float) -> float:
    """Signed difference between the profit rate implied by a row's cost
    and time and the profit rate the row prints.

    The printed columns are rounded to two decimals, so on this table the
    gap can differ from zero by up to about 0.009 from printing alone.  Two
    rows of ``REFERENCE_ROWS`` exceed that as printed in the sources.
    """
    return (sale_price - row.unit_cost) / row.unit_time - row.profit_rate


def accepted_power(ctx, speeds, feeds):
    """batch_evaluate's power test, (c5 * v) * f**0.8 <= 1, per operation."""
    return ctx.c5 * speeds * feeds**0.8 <= 1.0


def step_up_while(x, limit, accepted):
    """x stepped up one double at a time, element by element, while the
    next double is at most limit and accepted passes it."""
    x = x.copy()
    while np.count_nonzero(grow := (x < limit) & accepted(up := np.nextafter(x, math.inf))):
        np.copyto(x, up, where=grow)
    return x


def batch_v_max(ctx, feeds):
    """The fastest speed, at most v_hi, that batch_evaluate's power test
    accepts at each feed: milling.v_max, which the C library's pow must
    accept too, stepped up while numpy's alone still does."""
    return step_up_while(v_max(ctx, feeds), ctx.upper[: ctx.m], lambda v: accepted_power(ctx, v, feeds))


@pytest.fixture(scope="session")
def builtin_plan():
    plan, _ = builtin_case()
    return plan


@pytest.fixture(scope="session")
def builtin_coeffs(builtin_plan):
    return derive_coefficients(builtin_plan)


@pytest.fixture(scope="session")
def toy_single_plan():
    return single_face_plan()


@pytest.fixture(scope="session")
def toy_two_op_plan():
    return two_op_plan()


@pytest.fixture(scope="session")
def toy_infeasible_plan():
    return infeasible_plan()
