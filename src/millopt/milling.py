"""Machining economics for multi-tool milling.

The model prices one workpiece that passes through m milling operations.
Each operation i runs at a cutting speed v_i (m/min) and a feed f_i
(mm/tooth); together they fix the machining time, the tool wear and the
cutting power, and therefore the unit cost, the unit time and the profit
rate of the part.  All monetary values share one currency unit, all times
are minutes.

Feasibility is expressed through normalized margins: a constraint of the
form  coefficient * quantity <= 1  is satisfied exactly when its margin is
<= 1.  The boundary counts as feasible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator

import numpy as np

__all__ = [
    "ModelError",
    "PlanError",
    "DomainError",
    "ContractError",
    "OperationKind",
    "ToolKind",
    "ToolQuality",
    "EconomicConstants",
    "MachineSpec",
    "ToolSpec",
    "OperationSpec",
    "MillingPlan",
    "DerivedCoefficients",
    "DecisionVector",
    "OperationMargins",
    "SPEED_LIMITS",
    "FEED_LIMITS",
    "derive_coefficients",
    "unit_time",
    "unit_cost",
    "profit_rate",
    "constraint_margins",
    "fitness",
    "plan_warnings",
    "EvalContext",
    "compile_context",
    "BatchEval",
    "batch_evaluate",
    "corner_rate",
    "cost_floor",
]


class ModelError(ValueError):
    """Base class for all model errors."""


class PlanError(ModelError):
    """A plan or one of its components violates a structural invariant."""


class DomainError(ModelError):
    """A numeric argument is outside the mathematical domain of a formula."""


class ContractError(ModelError):
    """Arguments are structurally inconsistent (e.g. dimension mismatch)."""


class OperationKind(str, Enum):
    FACE = "face"
    CORNER = "corner"
    POCKET = "pocket"
    SLOT = "slot"


class ToolKind(str, Enum):
    FACE_MILL = "face_mill"
    END_MILL = "end_mill"


class ToolQuality(str, Enum):
    HSS = "hss"
    CARBIDE = "carbide"


# Recommended cutting-speed windows (m/min) and feed windows (mm/tooth)
# per operation kind.  Plans may override them per operation.
SPEED_LIMITS: dict[OperationKind, tuple[float, float]] = {
    OperationKind.FACE: (60.0, 120.0),
    OperationKind.CORNER: (40.0, 70.0),
    OperationKind.POCKET: (40.0, 70.0),
    OperationKind.SLOT: (30.0, 50.0),
}

FEED_LIMITS: dict[OperationKind, tuple[float, float]] = {
    OperationKind.FACE: (0.05, 0.4),
    OperationKind.CORNER: (0.05, 0.5),
    OperationKind.POCKET: (0.05, 0.5),
    OperationKind.SLOT: (0.05, 0.5),
}


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise PlanError(message)


def _finite(value: float) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


@dataclass(frozen=True)
class EconomicConstants:
    """Shop-level economics shared by every operation.

    sale_price     revenue per finished part
    material_cost  raw material cost per part
    labor_rate     direct labor cost per minute
    overhead_rate  overhead cost per minute
    setup_time     fixed setup/load/unload time per part, minutes
    """

    sale_price: float
    material_cost: float
    labor_rate: float
    overhead_rate: float
    setup_time: float

    def __post_init__(self) -> None:
        for name in ("sale_price", "material_cost", "labor_rate", "overhead_rate", "setup_time"):
            value = getattr(self, name)
            _require(_finite(value) and value >= 0.0, f"economics.{name} must be finite and >= 0")
        _require(
            self.sale_price > self.material_cost,
            "economics.sale_price must exceed economics.material_cost",
        )

    @property
    def minute_rate(self) -> float:
        """Combined labor plus overhead cost per minute."""
        return self.labor_rate + self.overhead_rate


@dataclass(frozen=True)
class MachineSpec:
    """Milling machine and workpiece-material parameters.

    motor_power          rated motor power, kW
    efficiency           fraction of motor power available at the cutter
    power_constant       material power constant for the force model
    wear_factor          tool wear multiplier in the tool-life relation
    chip_area_exponent   feed exponent from the chip cross-section term
    slenderness_exponent feed exponent from the chip slenderness term
    """

    motor_power: float
    efficiency: float
    power_constant: float
    wear_factor: float
    chip_area_exponent: float
    slenderness_exponent: float

    def __post_init__(self) -> None:
        _require(_finite(self.motor_power) and self.motor_power > 0.0, "machine.motor_power must be > 0")
        _require(
            _finite(self.efficiency) and 0.0 < self.efficiency <= 1.0,
            "machine.efficiency must be in (0, 1]",
        )
        for name in ("power_constant", "wear_factor", "chip_area_exponent", "slenderness_exponent"):
            value = getattr(self, name)
            _require(_finite(value) and value > 0.0, f"machine.{name} must be finite and > 0")


@dataclass(frozen=True)
class ToolSpec:
    """One milling cutter.

    diameter mm, teeth count, price currency, angles degrees, change_time
    minutes.  taylor_constant and life_exponent parameterize the tool-life
    relation; permitted_force (N) is optional and enables the cutting-force
    constraint when present.
    """

    id: int
    kind: ToolKind
    quality: ToolQuality
    diameter: float
    teeth: int
    price: float
    lead_angle: float
    clearance_angle: float
    taylor_constant: float
    life_exponent: float
    change_time: float
    permitted_force: float | None = None

    def __post_init__(self) -> None:
        _require(isinstance(self.id, int) and self.id >= 0, "tool.id must be a non-negative integer")
        _require(_finite(self.diameter) and self.diameter > 0.0, f"tool {self.id}: diameter must be > 0")
        _require(isinstance(self.teeth, int) and self.teeth >= 1, f"tool {self.id}: teeth must be an integer >= 1")
        _require(_finite(self.price) and self.price >= 0.0, f"tool {self.id}: price must be >= 0")
        _require(
            _finite(self.lead_angle) and 0.0 <= self.lead_angle < 90.0,
            f"tool {self.id}: lead_angle must be in [0, 90) degrees",
        )
        _require(
            _finite(self.clearance_angle) and 0.0 < self.clearance_angle < 90.0,
            f"tool {self.id}: clearance_angle must be in (0, 90) degrees",
        )
        _require(
            _finite(self.taylor_constant) and self.taylor_constant > 0.0,
            f"tool {self.id}: taylor_constant must be > 0",
        )
        _require(
            _finite(self.life_exponent) and self.life_exponent > 0.0,
            f"tool {self.id}: life_exponent must be > 0",
        )
        _require(
            _finite(self.change_time) and self.change_time >= 0.0,
            f"tool {self.id}: change_time must be >= 0",
        )
        if self.permitted_force is not None:
            _require(
                _finite(self.permitted_force) and self.permitted_force > 0.0,
                f"tool {self.id}: permitted_force must be > 0 when given",
            )


@dataclass(frozen=True)
class OperationSpec:
    """One milling operation on the process plan.

    axial_depth and radial_depth are the axial and radial engagements in
    mm; travel is the tool path length in mm; surface_finish_req is the
    required surface roughness in micrometers (None disables the finish
    constraint).  radial_depth_assumed marks engagements that were assumed
    rather than measured, so reports can flag them.  k3_override replaces
    the derived tool-wear coefficient for calibration purposes.
    """

    number: int
    kind: OperationKind
    tool_id: int
    axial_depth: float
    radial_depth: float
    travel: float
    speed_bounds: tuple[float, float]
    feed_bounds: tuple[float, float]
    surface_finish_req: float | None = None
    radial_depth_assumed: bool = False
    k3_override: float | None = None

    def __post_init__(self) -> None:
        _require(isinstance(self.number, int) and self.number >= 0, "operation.number must be a non-negative integer")
        label = f"operation {self.number}"
        _require(_finite(self.axial_depth) and self.axial_depth > 0.0, f"{label}: axial_depth must be > 0")
        _require(_finite(self.radial_depth) and self.radial_depth > 0.0, f"{label}: radial_depth must be > 0")
        _require(_finite(self.travel) and self.travel > 0.0, f"{label}: travel must be > 0")
        for name in ("speed_bounds", "feed_bounds"):
            bounds = getattr(self, name)
            _require(
                isinstance(bounds, tuple) and len(bounds) == 2,
                f"{label}: {name} must be a (lower, upper) pair",
            )
            low, high = bounds
            _require(
                _finite(low) and _finite(high) and 0.0 < low <= high,
                f"{label}: {name} must satisfy 0 < lower <= upper",
            )
        if self.surface_finish_req is not None:
            _require(
                _finite(self.surface_finish_req) and self.surface_finish_req > 0.0,
                f"{label}: surface_finish_req must be > 0 when given",
            )
        if self.k3_override is not None:
            _require(
                _finite(self.k3_override) and self.k3_override > 0.0,
                f"{label}: k3_override must be > 0 when given",
            )


@dataclass(frozen=True)
class MillingPlan:
    """A complete process plan: economics, machine, tools and operations."""

    economics: EconomicConstants
    machine: MachineSpec
    tools: tuple[ToolSpec, ...]
    operations: tuple[OperationSpec, ...]

    def __post_init__(self) -> None:
        tool_ids = [tool.id for tool in self.tools]
        _require(len(set(tool_ids)) == len(tool_ids), "tool ids must be unique")
        numbers = [op.number for op in self.operations]
        _require(len(set(numbers)) == len(numbers), "operation numbers must be unique")
        known = set(tool_ids)
        for op in self.operations:
            _require(
                op.tool_id in known,
                f"operation {op.number} references unknown tool id {op.tool_id}",
            )

    @property
    def m(self) -> int:
        """Number of operations."""
        return len(self.operations)

    def tool_for(self, op: OperationSpec) -> ToolSpec:
        for tool in self.tools:
            if tool.id == op.tool_id:
                return tool
        raise PlanError(f"operation {op.number} references unknown tool id {op.tool_id}")


@dataclass(frozen=True)
class DerivedCoefficients:
    """Constant coefficients of one operation, precomputed from the plan.

    k1  machining-time coefficient: t_m = k1 / (v * f), minutes
    k3  tool-wear coefficient in the tool-cost term
    c5  power-constraint coefficient: c5 * v * f**0.8 <= 1
    c6  finish coefficient for face mills: c6 * f <= 1 (None if unused)
    c7  finish coefficient for end mills: c7 * f**2 <= 1 (None if unused)
    c8  force coefficient: c8 * cutting force <= 1 (None without a limit)
    """

    k1: float
    k3: float
    c5: float
    c6: float | None = None
    c7: float | None = None
    c8: float | None = None

    def __post_init__(self) -> None:
        _require(_finite(self.k1) and self.k1 > 0.0, "k1 must be > 0")
        _require(_finite(self.k3) and self.k3 > 0.0, "k3 must be > 0")
        _require(_finite(self.c5) and self.c5 > 0.0, "c5 must be > 0")
        _require(
            self.c6 is None or self.c7 is None,
            "at most one finish coefficient may be present",
        )
        for name in ("c6", "c7", "c8"):
            value = getattr(self, name)
            if value is not None:
                _require(_finite(value) and value > 0.0, f"{name} must be > 0 when present")


@dataclass(frozen=True)
class DecisionVector:
    """Cutting speeds (m/min) and feeds (mm/tooth), one pair per operation."""

    speeds: tuple[float, ...]
    feeds: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.speeds) != len(self.feeds):
            raise ContractError(
                f"speeds ({len(self.speeds)}) and feeds ({len(self.feeds)}) differ in length"
            )
        for value in (*self.speeds, *self.feeds):
            if not _finite(value):
                raise DomainError("speeds and feeds must be finite numbers")

    def __len__(self) -> int:
        return len(self.speeds)

    @staticmethod
    def from_genome(genome: np.ndarray) -> "DecisionVector":
        flat = np.asarray(genome, dtype=float).ravel()
        if flat.size % 2 != 0:
            raise ContractError(f"genome length {flat.size} is not even")
        m = flat.size // 2
        return DecisionVector(speeds=tuple(flat[:m]), feeds=tuple(flat[m:]))


def derive_coefficients(plan: MillingPlan) -> tuple[DerivedCoefficients, ...]:
    """Precompute the per-operation constants used by every evaluation.

    k1 converts the travel K (mm) into machining time: a cutter of
    diameter d turning at v m/min with z teeth advances f*z mm per
    revolution, so t_m = pi*d*K / (1000*z*v*f) minutes.

    k3 = k1 * (wear_factor / taylor_constant)**(1/life_exponent) feeds the
    tool-cost term unless the operation overrides it.
    """
    machine = plan.machine
    out: list[DerivedCoefficients] = []
    for op in plan.operations:
        tool = plan.tool_for(op)
        k1 = math.pi * tool.diameter * op.travel / (1000.0 * tool.teeth)
        if op.k3_override is not None:
            k3 = op.k3_override
        else:
            k3 = k1 * (machine.wear_factor / tool.taylor_constant) ** (1.0 / tool.life_exponent)
        c5 = (
            0.78
            * machine.power_constant
            * machine.wear_factor
            * tool.teeth
            * op.radial_depth
            * op.axial_depth
            / (60.0 * math.pi * tool.diameter * machine.efficiency * machine.motor_power)
        )
        c6 = c7 = None
        if op.surface_finish_req is not None:
            if tool.kind == ToolKind.FACE_MILL:
                tan_lead = math.tan(math.radians(tool.lead_angle))
                tan_clear = math.tan(math.radians(tool.clearance_angle))
                c6 = 318.0 / ((tan_lead + 1.0 / tan_clear) * op.surface_finish_req)
            else:
                c7 = 318.0 / (4.0 * tool.diameter * op.surface_finish_req)
        c8 = None if tool.permitted_force is None else 1.0 / tool.permitted_force
        out.append(DerivedCoefficients(k1=k1, k3=k3, c5=c5, c6=c6, c7=c7, c8=c8))
    return tuple(out)


def _check_positive_pair(v: float, f: float) -> None:
    if not (_finite(v) and _finite(f) and v > 0.0 and f > 0.0):
        raise DomainError(f"cutting speed and feed must be finite and > 0, got v={v}, f={f}")


def _check_dimensions(plan: MillingPlan, x: DecisionVector, coeffs: tuple[DerivedCoefficients, ...]) -> None:
    if len(x) != plan.m or len(coeffs) != plan.m:
        raise ContractError(
            f"plan has {plan.m} operations but got {len(x)} decision pairs and {len(coeffs)} coefficient sets"
        )


def unit_time(plan: MillingPlan, x: DecisionVector, coeffs: tuple[DerivedCoefficients, ...]) -> float:
    """Total time per part: setup, machining of every operation, tool changes."""
    _check_dimensions(plan, x, coeffs)
    total = plan.economics.setup_time
    for i, op in enumerate(plan.operations):
        v, f = x.speeds[i], x.feeds[i]
        _check_positive_pair(v, f)
        total += coeffs[i].k1 / (v * f)
        total += plan.tool_for(op).change_time
    return total


def unit_cost(plan: MillingPlan, x: DecisionVector, coeffs: tuple[DerivedCoefficients, ...]) -> float:
    """Total cost per part.

    Sums material, setup labor/overhead, machining labor/overhead, tool
    wear priced per fractional tool life consumed, and tool-change
    labor/overhead.
    """
    _check_dimensions(plan, x, coeffs)
    eco = plan.economics
    machine = plan.machine
    rate = eco.minute_rate
    total = eco.material_cost + rate * eco.setup_time
    feed_exponent_base = machine.chip_area_exponent + machine.slenderness_exponent
    for i, op in enumerate(plan.operations):
        v, f = x.speeds[i], x.feeds[i]
        _check_positive_pair(v, f)
        tool = plan.tool_for(op)
        total += rate * (coeffs[i].k1 / (v * f))
        life_inv = 1.0 / tool.life_exponent
        total += (
            tool.price
            * coeffs[i].k3
            * v ** (life_inv - 1.0)
            * f ** (feed_exponent_base * life_inv - 1.0)
        )
        total += rate * tool.change_time
    return total


def profit_rate(plan: MillingPlan, x: DecisionVector, coeffs: tuple[DerivedCoefficients, ...]) -> float:
    """Profit per minute: (sale_price - unit_cost) / unit_time."""
    return (plan.economics.sale_price - unit_cost(plan, x, coeffs)) / unit_time(plan, x, coeffs)


def _cutting_force(op_index: int, f: float, plan: MillingPlan) -> float:
    """Tangential cutting force in newtons at feed f.

    Grows with f**0.8 and with the engaged cross-section; sized so that
    force * v / 60000 equals the cutting power in kW.
    """
    if not (_finite(f) and f > 0.0):
        raise DomainError(f"feed must be finite and > 0, got f={f}")
    op = plan.operations[op_index]
    tool = plan.tool_for(op)
    machine = plan.machine
    return (
        780.0
        * machine.power_constant
        * machine.wear_factor
        * tool.teeth
        * op.radial_depth
        * op.axial_depth
        * f**0.8
        / (math.pi * tool.diameter)
    )


@dataclass(frozen=True)
class OperationMargins:
    """Normalized constraint margins of one operation.

    Margins <= 1 are satisfied; None means the constraint does not apply
    and counts as satisfied.  speed_ok and feed_ok report the box bounds.
    """

    operation: int
    power: float
    finish: float | None
    force: float | None
    speed_ok: bool
    feed_ok: bool

    @property
    def power_ok(self) -> bool:
        return self.power <= 1.0

    @property
    def finish_ok(self) -> bool:
        return self.finish is None or self.finish <= 1.0

    @property
    def force_ok(self) -> bool:
        return self.force is None or self.force <= 1.0

    @property
    def satisfied(self) -> bool:
        return self.power_ok and self.finish_ok and self.force_ok and self.speed_ok and self.feed_ok

    def items(self) -> Iterator[tuple[str, float | None, bool]]:
        yield "power", self.power, self.power_ok
        yield "finish", self.finish, self.finish_ok
        yield "force", self.force, self.force_ok
        yield "speed_box", None, self.speed_ok
        yield "feed_box", None, self.feed_ok


def _finish_and_force(
    plan: MillingPlan, op_index: int, c: DerivedCoefficients, f: float
) -> tuple[float | None, float | None]:
    """Finish and force margins of one operation at feed f; None where the
    operation has no such limit.  Neither depends on the speed."""
    if c.c6 is not None:
        finish: float | None = c.c6 * f
    elif c.c7 is not None:
        finish = c.c7 * f**2
    else:
        finish = None
    force = None if c.c8 is None else c.c8 * _cutting_force(op_index, f, plan)
    return finish, force


def constraint_margins(
    plan: MillingPlan, x: DecisionVector, coeffs: tuple[DerivedCoefficients, ...]
) -> tuple[OperationMargins, ...]:
    """Evaluate every constraint of every operation at the point x."""
    _check_dimensions(plan, x, coeffs)
    out: list[OperationMargins] = []
    for i, op in enumerate(plan.operations):
        v, f = x.speeds[i], x.feeds[i]
        _check_positive_pair(v, f)
        power = coeffs[i].c5 * v * f**0.8
        finish, force = _finish_and_force(plan, i, coeffs[i], f)
        speed_ok = op.speed_bounds[0] <= v <= op.speed_bounds[1]
        feed_ok = op.feed_bounds[0] <= f <= op.feed_bounds[1]
        out.append(
            OperationMargins(
                operation=op.number,
                power=power,
                finish=finish,
                force=force,
                speed_ok=speed_ok,
                feed_ok=feed_ok,
            )
        )
    return tuple(out)


def fitness(plan: MillingPlan, x: DecisionVector, coeffs: tuple[DerivedCoefficients, ...]) -> float:
    """Death-penalty objective: profit rate if feasible, exactly 0.0 otherwise."""
    margins = constraint_margins(plan, x, coeffs)
    if any(not m.satisfied for m in margins):
        return 0.0
    return profit_rate(plan, x, coeffs)


def plan_warnings(plan: MillingPlan) -> tuple[str, ...]:
    """Advisory notes a report should carry alongside any result."""
    notes: list[str] = []
    for op in plan.operations:
        tool = plan.tool_for(op)
        if op.radial_depth_assumed:
            notes.append(
                f"operation {op.number}: radial depth {op.radial_depth:g} mm is an assumed engagement value"
            )
        if tool.permitted_force is None:
            notes.append(
                f"operation {op.number}: tool {tool.id} has no permitted cutting force; force constraint skipped"
            )
    return tuple(notes)


_COLUMN_FIELDS = ("k1", "tool_cost_coef", "speed_exponent", "feed_exponent", "c5", "lower", "feasible_upper")


@dataclass(frozen=True)
class EvalContext:
    """Plan constants packed into arrays for batch evaluation.

    feed_cap[i] folds operation i's finish and force limits and its upper
    feed bound into one bound: the largest double f <= f_hi whose scalar
    finish and force margins are both <= 1.  Both margins grow with f, so
    a feed satisfies them exactly when it is <= feed_cap[i].
    feasible_upper is derived, never passed: the speed half of upper
    followed by feed_cap, the box a feasible genome lies below.
    change_time[i] is operation i's tool change time; the fixed terms hold their sum.
    The *_col fields are derived too: the per-operation constants, and the
    box, as columns that broadcast over batch_evaluate's operation-major
    blocks.
    """

    sale_price: float
    rate: float
    cost_fixed: float
    time_fixed: float
    k1: np.ndarray
    change_time: np.ndarray
    tool_cost_coef: np.ndarray
    speed_exponent: np.ndarray
    feed_exponent: np.ndarray
    c5: np.ndarray
    feed_cap: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    feasible_upper: np.ndarray = field(init=False, repr=False, compare=False)
    k1_col: np.ndarray = field(init=False, repr=False, compare=False)
    tool_cost_coef_col: np.ndarray = field(init=False, repr=False, compare=False)
    speed_exponent_col: np.ndarray = field(init=False, repr=False, compare=False)
    feed_exponent_col: np.ndarray = field(init=False, repr=False, compare=False)
    c5_col: np.ndarray = field(init=False, repr=False, compare=False)
    lower_col: np.ndarray = field(init=False, repr=False, compare=False)
    feasible_upper_col: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        feasible_upper = np.concatenate((self.upper[: self.m], self.feed_cap))
        object.__setattr__(self, "feasible_upper", feasible_upper)
        for name in _COLUMN_FIELDS:
            object.__setattr__(self, f"{name}_col", getattr(self, name)[:, None])

    @property
    def m(self) -> int:
        return self.k1.size


def _feed_cap(plan: MillingPlan, op_index: int, c: DerivedCoefficients) -> float:
    """Largest double f <= f_hi that the scalar finish and force margins accept.

    Starts from the closed form min(f_hi, 1/c6 or c7**-0.5,
    (c8 * force at f = 1)**-1.25), which rounding leaves a few ulps off,
    then steps up while the next double is accepted and down while the
    current one is not.
    """
    f_hi = plan.operations[op_index].feed_bounds[1]

    def accepted(f: float) -> bool:
        return all(m is None or m <= 1.0 for m in _finish_and_force(plan, op_index, c, f))

    cap = f_hi
    if c.c6 is not None:
        cap = min(cap, 1.0 / c.c6)
    elif c.c7 is not None:
        cap = min(cap, c.c7**-0.5)
    if c.c8 is not None:
        cap = min(cap, (c.c8 * _cutting_force(op_index, 1.0, plan)) ** -1.25)
    while cap < f_hi and accepted(math.nextafter(cap, math.inf)):
        cap = math.nextafter(cap, math.inf)
    while not accepted(cap):
        cap = math.nextafter(cap, 0.0)
    return cap


def compile_context(plan: MillingPlan) -> EvalContext:
    """Flatten a plan and its derived coefficients into the arrays
    batch_evaluate needs; lower and upper are the box of the flat decision
    vector [v_1..v_m, f_1..f_m].

    Raises DomainError when a price inside the speed and feed box
    overflows (see _check_box_prices)."""
    coeffs = derive_coefficients(plan)
    ops = plan.operations
    eco = plan.economics
    machine = plan.machine
    rate = eco.minute_rate
    tools = [plan.tool_for(op) for op in ops]
    change_time = np.array([tool.change_time for tool in tools])
    change_total = sum(change_time.tolist())
    feed_exponent_base = machine.chip_area_exponent + machine.slenderness_exponent

    ctx = EvalContext(
        sale_price=eco.sale_price,
        rate=rate,
        cost_fixed=eco.material_cost + rate * (eco.setup_time + change_total),
        time_fixed=eco.setup_time + change_total,
        k1=np.array([c.k1 for c in coeffs]),
        change_time=change_time,
        tool_cost_coef=np.array([tools[i].price * coeffs[i].k3 for i in range(plan.m)]),
        speed_exponent=np.array([1.0 / tool.life_exponent - 1.0 for tool in tools]),
        feed_exponent=np.array(
            [feed_exponent_base / tool.life_exponent - 1.0 for tool in tools]
        ),
        c5=np.array([c.c5 for c in coeffs]),
        feed_cap=np.array([_feed_cap(plan, i, c) for i, c in enumerate(coeffs)]),
        lower=np.array([op.speed_bounds[0] for op in ops] + [op.feed_bounds[0] for op in ops], dtype=float),
        upper=np.array([op.speed_bounds[1] for op in ops] + [op.feed_bounds[1] for op in ops], dtype=float),
    )
    _check_box_prices(ctx)
    return ctx


def _check_box_prices(ctx: EvalContext) -> None:
    """Raise DomainError unless batch_evaluate prices every genome in the
    box [lower, upper] with finite values.

    The lowest corner is checked first, by batch_evaluate itself.  Over
    the box, each machining time is largest at the lowest corner and
    smallest at the highest.  v**a, f**b and the wear term are products of
    positive monotone powers, largest at the corners the signs of a and b
    pick.  Summed, these bound every unit cost, and with the smallest time
    every profit rate, so no search in the box can overflow.  A factor
    that overflows makes the bound inf or NaN.
    """
    m = ctx.m
    v_lo, v_hi = ctx.lower[:m], ctx.upper[:m]
    f_lo, f_hi = ctx.lower[m:], ctx.upper[m:]
    with np.errstate(over="ignore", invalid="ignore"):
        corner_cost = batch_evaluate(ctx, ctx.lower).unit_cost[0]
        if not math.isfinite(corner_cost):
            raise DomainError(f"unit cost {corner_cost} at the lowest speeds and feeds: the plan overflows")
        speed_factor = np.where(ctx.speed_exponent >= 0.0, v_hi, v_lo) ** ctx.speed_exponent
        feed_factor = np.where(ctx.feed_exponent >= 0.0, f_hi, f_lo) ** ctx.feed_exponent
        wear = speed_factor * ctx.tool_cost_coef * feed_factor
        cost = ctx.cost_fixed + ctx.rate * (ctx.k1 / (v_lo * f_lo)).sum() + wear.sum()
        rate = max(ctx.sale_price, cost) / (ctx.time_fixed + (ctx.k1 / (v_hi * f_hi)).sum())
    if not (math.isfinite(cost) and math.isfinite(rate)):
        raise DomainError(f"unit cost up to {cost} inside the speed and feed bounds: the plan overflows")


def cost_floor(ctx: EvalContext) -> float:
    """A lower bound on the unit cost batch_evaluate computes at any genome
    of the box whose feeds lie at or below feed_cap, the set that holds
    every feasible genome; the mirror of _check_box_prices' upper bound.

    Dropping the power limit only lowers the minimum.  In x = ln v and
    y = ln f, operation i's cost phi(x, y) = rate*k1*e^(-x-y) +
    B*e^(a*x + b*y) is a sum of exponentials of affine functions, so it is
    convex for any signs of a and b.  Its tangent plane at any point p
    therefore lies below it, and phi(p) + min over the four corners q of
    the log box of grad phi(p).(q - p) bounds its minimum over the box.

    p is the minimiser over the box.  For a > 0 the best v at each f is
    (rate*k1 / (a*B*f**(b+1)))**(1/(a+1)), clipped to the speed box, and
    for a <= 0 it is v_hi.  The cost at that v is convex in y, and on each
    piece where the clip holds v at a bound it has one stationary point,
    while between the two pieces it is monotone.  So its minimum over the
    feed box lies at one of six feeds: the box ends, the two feeds where
    the clip starts to bind and the two stationary points, each clipped to
    the feed box.  p is the cheapest of them.

    The bound is cost_fixed plus the sum of these, less a rounding
    allowance of 16*(m + 16) machine epsilons times the summed magnitudes
    of the terms.  It rests on two premises: convexity, and that the
    rounding of this computation and of batch_evaluate's cost stays within
    that allowance.  A non-finite intermediate makes the bound -inf or
    NaN, which no price reaches.
    """
    m = ctx.m
    v_lo, v_hi = ctx.lower[:m], ctx.upper[:m]
    f_lo, f_hi = ctx.lower[m:], ctx.feed_cap
    a, b = ctx.speed_exponent, ctx.feed_exponent
    x_bounds = np.log(np.array([v_lo, v_hi]))
    y_lo, y_hi = np.log(f_lo), np.log(f_hi)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # A zero price gives a log of -inf and a term of 0; a log of a
        # nonpositive product is discarded by the where beside it.
        log_time = np.log(ctx.rate * ctx.k1)
        log_wear = np.log(ctx.tool_cost_coef)
        # Best x at y: c0 - slope*y, clipped to [x_lo, x_hi].  a <= 0 gives
        # c0 = inf, so x_hi; fmax and fmin map the NaN of two zero prices,
        # where every point costs the same, into the box.
        slope = (b + 1.0) / (a + 1.0)
        c0 = np.where(a > 0.0, (log_time - np.log(a * ctx.tool_cost_coef)) / (a + 1.0), math.inf)
        bends = (c0 - x_bounds) / slope
        # With x held at a bound, the cost falls in y up to this point and
        # rises after it; b <= 0 makes it fall all the way.
        stationary = np.where(
            b > 0.0, (log_time - np.log(b * ctx.tool_cost_coef) - (a + 1.0) * x_bounds) / (b + 1.0), math.inf
        )
        candidates = np.fmin(np.fmax(np.vstack((y_lo, y_hi, bends, stationary)), y_lo), y_hi)
        x = np.fmin(np.fmax(c0 - slope * candidates, x_bounds[0]), x_bounds[1])
        cost = np.exp(log_time - x - candidates) + np.exp(log_wear + a * x + b * candidates)
        cheapest = cost.argmin(axis=0), np.arange(m)

        # The tangent plane at p, priced as batch_evaluate prices.
        v = np.exp(x[cheapest])
        f = np.exp(candidates[cheapest])
        time_cost = ctx.k1 / (v * f) * ctx.rate
        wear = v**a * ctx.tool_cost_coef * f**b
        grad_x = a * wear - time_cost
        grad_y = b * wear - time_cost
        dx = np.log(np.array([v_lo / v, v_hi / v]))
        dy = np.log(np.array([f_lo / f, f_hi / f]))
        floor = time_cost + wear + (grad_x * dx).min(axis=0) + (grad_y * dy).min(axis=0)
        magnitude = time_cost + wear
        magnitude += (time_cost + abs(a) * wear) * (1.0 + abs(dx).sum(axis=0))
        magnitude += (time_cost + abs(b) * wear) * (1.0 + abs(dy).sum(axis=0))
        allowance = 16 * (m + 16) * np.finfo(float).eps * (ctx.cost_fixed + magnitude.sum())
        return float(ctx.cost_fixed + floor.sum() - allowance)


@dataclass(frozen=True)
class BatchEval:
    """Vectorized evaluation of n decision vectors."""

    fitness: np.ndarray
    unit_cost: np.ndarray
    unit_time: np.ndarray
    feasible: np.ndarray


def batch_evaluate(ctx: EvalContext, genomes: np.ndarray) -> BatchEval:
    """Evaluate an (n, 2m) array of decision vectors in one pass.

    Matches the scalar functions exactly: same formulas, same inclusive
    margin comparisons (finish and force through feed_cap), same death
    penalty.
    """
    points = np.atleast_2d(np.asarray(genomes, dtype=float))
    m = ctx.m
    if points.shape[1] != 2 * m:
        raise ContractError(f"expected genomes of length {2 * m}, got {points.shape[1]}")
    # min and max propagate NaN, so one pair of reductions rejects NaN,
    # +-inf and nonpositive entries alike; an empty batch has nothing to
    # reject.
    if points.size and not (points.min() > 0.0 and points.max() < math.inf):
        raise DomainError("all speeds and feeds must be finite and > 0")
    # Operation-major copy: v and f are contiguous (m, n) blocks, so every
    # ufunc below runs one inner loop per operation, not one per genome.
    columns = points.T.copy()
    v = columns[:m]
    f = columns[m:]

    # Machining times in the first m rows, wear costs in the last m.
    terms = np.empty_like(columns)
    t_machining = np.multiply(v, f, out=terms[:m])
    np.divide(ctx.k1_col, t_machining, out=t_machining)
    wear = np.power(v, ctx.speed_exponent_col, out=terms[m:])
    wear *= ctx.tool_cost_coef_col
    wear *= f**ctx.feed_exponent_col
    # Each genome's m terms are summed as one contiguous row, as in a
    # genome-major layout: numpy sums eight or more elements through
    # partial sums, so summing down the columns would change the bits
    # once m >= 8.
    machining, wear_total = terms.T.copy().reshape(points.shape[0], 2, m).sum(axis=2).T
    time_total = ctx.time_fixed + machining
    cost_total = ctx.cost_fixed + ctx.rate * machining + wear_total

    box = columns >= ctx.lower_col
    box &= columns <= ctx.feasible_upper_col
    power = ctx.c5_col * v
    power *= f**0.8
    box[:m] &= power <= 1.0
    feasible = box.all(axis=0)

    rate_of_profit = (ctx.sale_price - cost_total) / time_total
    return BatchEval(
        fitness=np.where(feasible, rate_of_profit, 0.0),
        unit_cost=cost_total,
        unit_time=time_total,
        feasible=feasible,
    )


def corner_rate(ctx: EvalContext) -> float | None:
    """Profit rate at the all-lowest genome ctx.lower, or None when it is
    infeasible, and with it, as every margin is nondecreasing in v and f,
    every point.  compile_context has checked that the rate is finite."""
    corner = batch_evaluate(ctx, ctx.lower)
    if not corner.feasible[0]:
        return None
    return float(corner.fitness[0])
