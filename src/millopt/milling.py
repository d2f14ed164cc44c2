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

The exact kernel (operation_minima) and its certified bound (_rate_bound)
live here too, beside the arithmetic their proofs describe, and
oracle.solve_exact iterates on them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, NamedTuple

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
    "PricingBuffers",
    "batch_evaluate",
    "v_max",
    "feasible_polygons",
    "operation_minima",
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


def _finite(value: float) -> bool:
    return (isinstance(value, float) or _is_integer(value)) and math.isfinite(value)


def _is_integer(value: object) -> bool:
    """An int that is not a bool: True and False are not counts or ids."""
    return isinstance(value, int) and not isinstance(value, bool)


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
            if not (_finite(value) and value >= 0.0):
                raise PlanError(f"economics.{name} must be finite and >= 0")
        if not self.sale_price > self.material_cost:
            raise PlanError("economics.sale_price must exceed economics.material_cost")

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
        if not (_finite(self.motor_power) and self.motor_power > 0.0):
            raise PlanError("machine.motor_power must be > 0")
        if not (_finite(self.efficiency) and 0.0 < self.efficiency <= 1.0):
            raise PlanError("machine.efficiency must be in (0, 1]")
        for name in ("power_constant", "wear_factor", "chip_area_exponent", "slenderness_exponent"):
            value = getattr(self, name)
            if not (_finite(value) and value > 0.0):
                raise PlanError(f"machine.{name} must be finite and > 0")


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
        if not (_is_integer(self.id) and self.id >= 0):
            raise PlanError("tool.id must be a non-negative integer")
        # Each test is guarded by its type test, so all are made at once and the first failure named.
        force = self.permitted_force
        for name, ok, rule in (
            ("diameter", _finite(self.diameter) and self.diameter > 0.0, "must be > 0"),
            ("teeth", _is_integer(self.teeth) and self.teeth >= 1, "must be an integer >= 1"),
            ("price", _finite(self.price) and self.price >= 0.0, "must be >= 0"),
            ("lead_angle", _finite(self.lead_angle) and 0.0 <= self.lead_angle < 90.0, "must be in [0, 90) degrees"),
            (
                "clearance_angle",
                _finite(self.clearance_angle) and 0.0 < self.clearance_angle < 90.0,
                "must be in (0, 90) degrees",
            ),
            ("taylor_constant", _finite(self.taylor_constant) and self.taylor_constant > 0.0, "must be > 0"),
            ("life_exponent", _finite(self.life_exponent) and self.life_exponent > 0.0, "must be > 0"),
            ("change_time", _finite(self.change_time) and self.change_time >= 0.0, "must be >= 0"),
            ("permitted_force", force is None or _finite(force) and force > 0.0, "must be > 0 when given"),
        ):
            if not ok:
                raise PlanError(f"tool {self.id}: {name} {rule}")


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
        if not (_is_integer(self.number) and self.number >= 0):
            raise PlanError("operation.number must be a non-negative integer")
        label = f"operation {self.number}"
        if not _is_integer(self.tool_id):
            raise PlanError(f"{label}: tool_id must be an integer")
        for name in ("axial_depth", "radial_depth", "travel"):
            value = getattr(self, name)
            if not (_finite(value) and value > 0.0):
                raise PlanError(f"{label}: {name} must be > 0")
        for name in ("speed_bounds", "feed_bounds"):
            bounds = getattr(self, name)
            if not (isinstance(bounds, tuple) and len(bounds) == 2):
                raise PlanError(f"{label}: {name} must be a (lower, upper) pair")
            low, high = bounds
            if not (_finite(low) and _finite(high) and 0.0 < low <= high):
                raise PlanError(f"{label}: {name} must satisfy 0 < lower <= upper")
        for name in ("surface_finish_req", "k3_override"):
            value = getattr(self, name)
            if value is not None and not (_finite(value) and value > 0.0):
                raise PlanError(f"{label}: {name} must be > 0 when given")


@dataclass(frozen=True)
class MillingPlan:
    """A complete process plan: economics, machine, tools and operations."""

    economics: EconomicConstants
    machine: MachineSpec
    tools: tuple[ToolSpec, ...]
    operations: tuple[OperationSpec, ...]

    def __post_init__(self) -> None:
        tool_ids = [tool.id for tool in self.tools]
        if len(set(tool_ids)) != len(tool_ids):
            raise PlanError("tool ids must be unique")
        numbers = [op.number for op in self.operations]
        if len(set(numbers)) != len(numbers):
            raise PlanError("operation numbers must be unique")
        known = set(tool_ids)
        for op in self.operations:
            if op.tool_id not in known:
                raise PlanError(f"operation {op.number} references unknown tool id {op.tool_id}")

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
        for name in ("k1", "k3", "c5"):
            value = getattr(self, name)
            if not (_finite(value) and value > 0.0):
                raise PlanError(f"{name} must be > 0")
        if not (self.c6 is None or self.c7 is None):
            raise PlanError("at most one finish coefficient may be present")
        for name in ("c6", "c7", "c8"):
            value = getattr(self, name)
            if value is not None and not (_finite(value) and value > 0.0):
                raise PlanError(f"{name} must be > 0 when present")


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
        # compile_context's form of the exponents, so both round them alike.
        total += (
            tool.price
            * coeffs[i].k3
            * v ** (1.0 / tool.life_exponent - 1.0)
            * f ** (feed_exponent_base / tool.life_exponent - 1.0)
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
    """Evaluate every constraint of every operation at the point x.

    The power margin takes numpy's f**0.8, as batch_evaluate does, so
    both judge every point alike."""
    _check_dimensions(plan, x, coeffs)
    for v, f in zip(x.speeds, x.feeds):
        _check_positive_pair(v, f)
    feed_powers = (np.array(x.feeds, dtype=float) ** 0.8).tolist()
    out: list[OperationMargins] = []
    for i, op in enumerate(plan.operations):
        v, f = x.speeds[i], x.feeds[i]
        power = coeffs[i].c5 * v * feed_powers[i]
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


@dataclass(frozen=True)
class EvalContext:
    """Plan constants packed into arrays for batch evaluation.

    feed_cap[i] folds operation i's finish and force limits and its upper
    feed bound into one bound: the largest double f <= f_hi whose scalar
    finish and force margins are both <= 1.  Both margins grow with f, so
    a feed satisfies them exactly when it is <= feed_cap[i].
    feasible_upper is derived, never passed: the speed half of upper
    followed by feed_cap, the box a feasible genome lies below.  So is
    corner, batch_evaluate's evaluation of lower, the corner where every
    margin is smallest: no genome is feasible unless it is.
    coefficients are the plan's DerivedCoefficients that compile_context
    packed, for the scalar functions; dataclasses.replace carries them
    over unchanged.
    change_time[i] is operation i's tool change time; the fixed terms hold their sum.
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
    coefficients: tuple[DerivedCoefficients, ...] = field(repr=False, compare=False)
    feasible_upper: np.ndarray = field(init=False, repr=False, compare=False)
    corner: BatchEval = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        feasible_upper = np.concatenate((self.upper[: self.m], self.feed_cap))
        object.__setattr__(self, "feasible_upper", feasible_upper)
        # An overflowing corner is reported by _check_box_prices, not warned of.
        with np.errstate(over="ignore", invalid="ignore"):
            object.__setattr__(self, "corner", batch_evaluate(self, self.lower))

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
        coefficients=coeffs,
    )
    _check_box_prices(ctx)
    return ctx


def _check_box_prices(ctx: EvalContext) -> None:
    """Raise DomainError unless batch_evaluate prices every genome in the
    box [lower, upper] with finite values.

    The lowest corner is checked first, as batch_evaluate priced it in
    ctx.corner.  Over the box, each machining time is largest at the lowest
    corner and smallest at the highest.  v**a, f**b and the wear term are
    products of positive monotone powers, largest at the corners the signs
    of a and b pick.  Summed, these bound every unit cost, and with the
    smallest time every profit rate, so no search in the box can overflow.
    A factor that overflows makes the bound inf or NaN.
    """
    m = ctx.m
    v_lo, v_hi = ctx.lower[:m], ctx.upper[:m]
    f_lo, f_hi = ctx.lower[m:], ctx.upper[m:]
    corner_cost = ctx.corner.unit_cost[0]
    if not math.isfinite(corner_cost):
        raise DomainError(f"unit cost {corner_cost} at the lowest speeds and feeds: the plan overflows")
    with np.errstate(over="ignore", invalid="ignore"):
        speed_factor = np.where(ctx.speed_exponent >= 0.0, v_hi, v_lo) ** ctx.speed_exponent
        feed_factor = np.where(ctx.feed_exponent >= 0.0, f_hi, f_lo) ** ctx.feed_exponent
        wear = speed_factor * ctx.tool_cost_coef * feed_factor
        cost = ctx.cost_fixed + ctx.rate * (ctx.k1 / (v_lo * f_lo)).sum() + wear.sum()
        rate = max(ctx.sale_price, cost) / (ctx.time_fixed + (ctx.k1 / (v_hi * f_hi)).sum())
    if not (math.isfinite(cost) and math.isfinite(rate)):
        raise DomainError(f"unit cost up to {cost} inside the speed and feed bounds: the plan overflows")


def _largest_accepted(
    start: np.ndarray, limit: np.ndarray, accepted: Callable[[np.ndarray], np.ndarray]
) -> np.ndarray:
    """Element by element, the largest double x <= limit that accepted
    passes, for a test that passes every x up to some point and none after
    it.  Found from start, a few doubles off, by stepping one double at a
    time: up while the next double passes, down while x fails.  start is
    stepped in place."""
    x = start
    while np.count_nonzero(grow := (x < limit) & accepted(up := np.nextafter(x, math.inf))):
        np.copyto(x, up, where=grow)
    while np.count_nonzero(shrink := ~accepted(x)):
        np.copyto(x, np.nextafter(x, 0.0), where=shrink)
    return x


def v_max(ctx: EvalContext, feeds: np.ndarray) -> np.ndarray:
    """The largest double v <= v_hi that the power test,
    (c5 * v) * f**0.8 <= 1, accepts at each feed f.  Exact against the
    rounded test as _feed_cap is against the finish and force tests.
    feeds holds one feed per operation along its last axis.  The rounded
    product grows with v, so the test accepts every speed up to v_max(f)
    and none above it; a result below v_lo means that it accepts no speed
    of the box at that feed."""
    c5, v_hi = ctx.c5, ctx.upper[: ctx.m]
    feed_powers = feeds**0.8
    return _largest_accepted(
        np.minimum(v_hi, 1.0 / (c5 * feed_powers)), v_hi, lambda v: c5 * v * feed_powers <= 1.0
    )


# Which of the five edge stationary points are feeds: those on the edges
# x = ln v_lo and x = ln v_hi and on the power edge.  The other two are the
# speeds on the edges y = ln f_lo and y = ln f_top.
_FEED_ROWS = np.array([True, True, False, False, True])[:, None]
_SPEED_ROWS = ~_FEED_ROWS


class FeasiblePolygons(NamedTuple):
    """What operation_minima needs of a context that does not depend on the
    multiplier, computed once per context by feasible_polygons.

    In x = ln v and y = ln f, the speeds and feeds batch_evaluate accepts
    for operation i lie in the box [ln v_lo, ln v_hi] x [ln f_lo, ln f_top]
    cut by the power limit x + 0.8*y <= -ln c5: a polygon of at most five
    edges.  f_top is the largest feed, at most feed_cap, that the rounded
    power test of v_max accepts at v_lo, so each feed in [f_lo, f_top] is
    accepted with the speeds from v_lo to v_max(f).

    candidates, (4, 11, m), is operation_minima's template of its
    candidates' speeds, feeds, machining times and wear costs.  Rows 5 to
    10, priced as batch_evaluate prices, are (v_lo, f) and then
    (v_max(f), f) at f = f_lo, f_top and the feed where the power limit
    meets v_hi, clipped into [f_lo, f_top]: the polygon's vertices, some
    of them coinciding where it has fewer than five, and one more point
    on its edge x = ln v_lo.  Rows 0 to 4 are the edge stationary points,
    whose free
    coordinates, (ln|W| + numerators) / denominators, (5, m), are the feeds
    on the edges x = ln v_lo and x = ln v_hi, the speeds on y = ln f_lo
    and y = ln f_top, and the feed on the power edge, with ln|W| =
    ln|rate + lam| + ln k1 and ln k1 folded into numerators.  The template holds
    their other coordinates: v_lo, v_hi, f_lo, f_top, and inf, which
    clips to v_max(f), on the power edge.
    """

    candidates: np.ndarray
    numerators: np.ndarray
    denominators: np.ndarray

    @property
    def vertices(self) -> np.ndarray:
        return self.candidates[:, 5:]

    @property
    def f_top(self) -> np.ndarray:
        return self.candidates[1, 6]


def feasible_polygons(ctx: EvalContext) -> FeasiblePolygons:
    """The polygons of ctx, whose lowest corner must be feasible.

    On each edge the objective W*e^(-x-y) + B*e^(a*x + b*y) of
    operation_minima is a sum of two exponentials of one parameter, so it
    has at most one stationary point, in closed form when W shares its sign
    with the edge's exponent of B: b on the edges x = X,
    y = (ln W - ln(b*B) - (a+1)*X)/(b+1); a on y = Y,
    x = (ln W - ln(a*B) - (b+1)*Y)/(a+1); and g = b - 0.8*a on the power
    edge, y = (ln(0.2*W) - ln(g*B) + (a+1)*ln c5)/(g + 0.2), with 0.2 the
    float 1 - 0.8.  Taken with absolute values these are defined for either
    sign; where the signs differ the point is no stationary point, only one
    more candidate.
    """
    m = ctx.m
    v_lo, v_hi = ctx.lower[:m], ctx.upper[:m]
    f_lo = ctx.lower[m:]
    a, b, wear_coef = ctx.speed_exponent, ctx.feed_exponent, ctx.tool_cost_coef
    a1, b1 = a + 1.0, b + 1.0
    corner_power = ctx.c5 * v_lo
    power_slope = 1.0 - 0.8
    g = b - 0.8 * a
    # A tiny power coefficient puts the power limit's feeds out at inf, a
    # zero tool price gives ln B = -inf and a zero exponent an infinite
    # stationary point: the clips here and in operation_minima take them.
    with np.errstate(divide="ignore", over="ignore"):
        f_top = _largest_accepted(
            np.minimum(ctx.feed_cap, corner_power**-1.25),
            ctx.feed_cap,
            lambda f: corner_power * f**0.8 <= 1.0,
        )
        feeds = np.array([f_lo, f_top, np.fmin(np.fmax((ctx.c5 * v_hi) ** -1.25, f_lo), f_top)])
        # The stationary points' template, then the vertices.
        candidates = np.zeros((4, 11, m))
        candidates[:2] = (
            [v_lo, v_hi, v_lo, v_lo, np.full(m, math.inf), v_lo, v_lo, v_lo, *v_max(ctx, feeds)],
            [f_lo, f_lo, f_lo, f_top, f_lo, *feeds, *feeds],
        )
        # Per row: the edge's exponent of B, the log of the bound it holds
        # fixed (ln c5 on the power edge) and that log's slope.  ln k1, the
        # part of ln|W| that does not depend on lam, joins ln B.
        exponents = np.array([b, b, a, a, g])
        edges = np.log([v_lo, v_hi, f_lo, f_top, ctx.c5])
        slopes = np.array([a1, a1, b1, b1, -a1])
        numerators = -np.log(abs(exponents)) - (np.log(wear_coef) - np.log(ctx.k1)) - slopes * edges
        numerators[4] += math.log(power_slope)
    speeds, feeds, machining, wear = candidates[:, 5:]
    np.divide(ctx.k1, speeds * feeds, out=machining)
    np.multiply(speeds**a * wear_coef, feeds**b, out=wear)
    return FeasiblePolygons(candidates, numerators, np.array([b1, b1, a1, a1, g + power_slope]))


class OperationMinima(NamedTuple):
    """Per operation, (m,) each: the speed and feed operation_minima
    found, and their machining time and wear cost as batch_evaluate
    computes them."""

    speeds: np.ndarray
    feeds: np.ndarray
    machining: np.ndarray
    wear: np.ndarray


def operation_minima(ctx: EvalContext, polygons: FeasiblePolygons, lam: float) -> OperationMinima:
    """For each operation, the accepted speed and feed that minimize
    (rate + lam) * machining + wear, the operation's share of
    unit cost + lam * unit time, for a multiplier lam of either sign.

    In x = ln v and y = ln f the objective is W*e^(-x-y) + B*e^(a*x + b*y)
    with W = (rate + lam)*k1 and B = tool_cost_coef.  A stationary point
    inside the polygon needs a == b (or B == 0), where the objective
    depends on x + y alone, so a minimizer lies on the boundary; on each
    edge it is a vertex or the edge's one stationary point.  So the
    minimum is the cheapest of the polygon's vertices and the edge
    stationary points (feasible_polygons), which holds without convexity,
    for either sign of W.

    Each stationary point is mapped inward before it is priced: its feed
    is clipped to [f_lo, f_top] and its speed to [v_lo, v_max(f)].  So
    every candidate is a genome that batch_evaluate accepts, and the
    minimum is exact up to the rounding of the candidates.
    """
    m = ctx.m
    v_lo, f_lo = ctx.lower[:m], ctx.lower[m:]
    weight = ctx.rate + lam
    candidates = polygons.candidates.copy()
    speeds, feeds, machining, wear = candidates[:, :5]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # NaN, from ln 0 against an infinite numerator, clips to a bound.
        log_weight = math.log(abs(weight)) if weight else -math.inf
        stationary = np.exp((log_weight + polygons.numerators) / polygons.denominators)
        np.copyto(feeds, stationary, where=_FEED_ROWS)
        np.fmin(np.fmax(feeds, f_lo, out=feeds), polygons.f_top, out=feeds)
        top = v_max(ctx, feeds)
        np.copyto(speeds, stationary, where=_SPEED_ROWS)
        np.fmin(np.fmax(speeds, v_lo, out=speeds), top, out=speeds)
    np.divide(ctx.k1, speeds * feeds, out=machining)
    np.multiply(speeds**ctx.speed_exponent * ctx.tool_cost_coef, feeds**ctx.feed_exponent, out=wear)
    values = weight * candidates[2] + candidates[3]
    # Every feed of [f_lo, f_top] is accepted at v_lo; this guards a pow
    # that is not monotone.
    np.copyto(values[:5], math.inf, where=top < v_lo)
    return OperationMinima(*candidates[:, values.argmin(axis=0), np.arange(m)])


def _relative_error(m: int) -> float:
    """delta: how far batch_evaluate's unit cost and unit time, and the
    least unit time _rate_bound computes, may lie below their exact
    values, relatively.  Each is a sum of nonnegative terms, each term
    within 18 machine epsilons (two pows of up to four ulps and three
    roundings), summed in up to m + 2 more roundings: 4*(m + 16) epsilons
    hold that with room."""
    return 4 * (m + 16) * math.ulp(1.0)


def _cost_floor(ctx: EvalContext, polygons: FeasiblePolygons, lam: float, tangent: OperationMinima) -> float:
    """A lower bound on unit_cost + lam * unit_time, as batch_evaluate
    computes them, at every genome it accepts, for a multiplier lam >= 0
    and a tangent point per operation (any, though the minimizer of
    operation_minima at lam makes the bound tight).  At lam = 0 it is a
    floor on every unit cost: once it reaches the sale price no genome is
    profitable.

    Convexity.  In x = ln v and y = ln f, operation i adds
    phi(x, y) = W*e^(-x-y) + B*e^(a*x + b*y) to the exact C + lam*T, with
    W = (rate + lam)*k1 and B = tool_cost_coef.  Both are >= 0 for
    lam >= 0, so phi is convex (Boyd, Kim, Vandenberghe & Hassibi, "A
    tutorial on geometric programming", Optim. Eng. 2007) and lies above
    its tangent plane at the tangent point.  The plane is linear, so its
    minimum over a polygon holding every accepted genome is at a vertex.
    So cost_fixed + lam*time_fixed plus, over the operations, phi at the
    tangent point plus the plane's least rise to a vertex is at most the
    exact C + lam*T of every accepted genome.

    Polygon.  An accepted genome passes (c5*v) * f**0.8 <= 1 as rounded,
    so c5*v*f**0.8 <= 1 + 4*eps exactly, for numpy's pow within two ulps.
    Each vertex of the true polygon so widened lies within
    slack = 16*eps*(1 + |ln(c5*v_hi)|) of a vertex of feasible_polygons in
    x and in y: the widening moves a vertex on the power edge by up to
    5*eps; v_max and f_top, which take numpy's pow too, stop within
    7.5*eps of the edge; and the pow with exponent -1.25 in place of
    -1/0.8 misses the vertex at v_hi by up to (3 + 0.4*|ln(c5*v_hi)|)*eps.
    So each plane's least rise is lowered by (|grad_x| + |grad_y|) * slack.

    Rounding.  Each term is computed within 10*eps of its magnitude, and
    their sum within (m + 4)*eps of the summed magnitudes, so the sum is
    lowered by 2*(m + 16)*eps times them.  batch_evaluate's unit cost and
    unit time lie within delta (_relative_error) below the exact ones and
    are >= 0, so the bound is (1 - delta) times the exact one.  A
    non-finite term makes the bound -inf or NaN.
    """
    m = ctx.m
    eps = math.ulp(1.0)
    weight = ctx.rate + lam
    a, b = ctx.speed_exponent, ctx.feed_exponent
    speeds, feeds = polygons.vertices[:2]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        time_cost = weight * tangent.machining
        wear = tangent.wear
        grad_x = a * wear - time_cost
        grad_y = b * wear - time_cost
        dx = np.log(speeds / tangent.speeds)
        dy = np.log(feeds / tangent.feeds)
        slack = 16 * eps * (1.0 + abs(np.log(ctx.c5 * ctx.upper[:m])))
        rise = (grad_x * dx + grad_y * dy).min(axis=0) - (abs(grad_x) + abs(grad_y)) * slack
        magnitude = time_cost + wear
        magnitude += (time_cost + abs(a) * wear) * (1.0 + abs(dx).max(axis=0))
        magnitude += (time_cost + abs(b) * wear) * (1.0 + abs(dy).max(axis=0))
        fixed = ctx.cost_fixed + lam * ctx.time_fixed
        exact = fixed + np.add.reduce(time_cost + wear + rise) - 2 * (m + 16) * eps * (fixed + magnitude.sum())
    return float(exact * (1.0 - _relative_error(m)))


def _rate_bound(ctx: EvalContext, polygons: FeasiblePolygons, rate: float, tangent: OperationMinima) -> float:
    """An upper bound on every fitness batch_evaluate returns in the box,
    from _cost_floor at lam = max(rate, 0) and the tangent points given,
    or the minimizers of lam = 0 when rate is negative: the floor needs
    lam >= 0, and is tight at its own minimizers.

    At an accepted genome with computed cost C and time T, C + lam*T >=
    floor, and T >= (1 - delta)**2 * T_lo, where T_lo = time_fixed +
    sum(k1 / (v_hi * feed_cap)), computed, is the least unit time of the
    box and delta, _relative_error's, covers the rounding of T and of
    T_lo.  The fitness rounds S - C and the division once each, so

        fitness <= (1 + eps)**2 * (lam + max(S - floor, 0) / ((1 - delta)**2 * T_lo)),

    widened once more by 16*eps for the rounding of this formula.  An
    infeasible genome's fitness is 0, which lam >= 0 bounds too.  A bound
    that is not finite is +inf.
    """
    m = ctx.m
    eps = math.ulp(1.0)
    lam = max(rate, 0.0)
    if rate < 0.0:
        tangent = operation_minima(ctx, polygons, lam)
    time_lo = ctx.time_fixed + np.add.reduce(ctx.k1 / (ctx.upper[:m] * ctx.feed_cap))
    excess = ctx.sale_price - _cost_floor(ctx, polygons, lam, tangent)
    bound = float((lam + max(excess, 0.0) / ((1.0 - _relative_error(m)) ** 2 * time_lo)) * (1.0 + 16 * eps))
    return bound if math.isfinite(bound) else math.inf


@dataclass(frozen=True)
class BatchEval:
    """Vectorized evaluation of n decision vectors."""

    fitness: np.ndarray
    unit_cost: np.ndarray
    unit_time: np.ndarray
    feasible: np.ndarray


class PricingBuffers:
    """batch_evaluate's working arrays for batches of n genomes of one
    context, with the views of them that it writes, made once.

    batch_evaluate works on one flat operation-major copy of the batch:
    the n speeds of operation 1, ..., of operation m, then the n feeds of
    each.  flat receives it, and by_operation views it as 2m rows of n.
    k1 to c5 hold each of the context's per-operation values n times in a
    row, and lower and feasible_upper each component's bound n times, so
    that they line up with flat element for element.  terms holds the
    machining times and then the wear costs; scratch the feed powers, the
    genome-major copy of the terms (from eight operations on) and the
    power margins; sums each genome's machining and wear totals; inside
    and check the bound tests.  result is the one BatchEval over the four
    result arrays, which every call with these buffers overwrites.
    """

    # The context's arrays that __init__ repeats n times, under their own names.
    _REPEATED = ("k1", "tool_cost_coef", "speed_exponent", "feed_exponent", "c5", "lower", "feasible_upper")
    __slots__ = (
        *_REPEATED, "ctx", "flat", "by_operation", "speeds", "feeds",
        "machining_terms", "wear_terms", "feed_powers", "genome_major", "term_columns", "term_rows",
        "sums", "machining", "wear_total", "power", "feed_powers_08",
        "inside", "inside_by_operation", "inside_speeds", "check", "check_speeds", "infeasible", "result",
    )

    def __init__(self, ctx: EvalContext, n: int) -> None:
        m = ctx.m
        mn = m * n
        self.ctx = ctx
        # One repeat of the constants laid end to end, viewed per constant.
        constants = [getattr(ctx, name) for name in self._REPEATED]
        repeated = np.concatenate(constants).repeat(n)
        start = 0
        for name, values in zip(self._REPEATED, constants):
            end = start + values.size * n
            setattr(self, name, repeated[start:end])
            start = end
        self.flat = np.empty(2 * mn)
        self.by_operation = self.flat.reshape(2 * m, n)
        self.speeds, self.feeds = self.flat[:mn], self.flat[mn:]
        terms = np.empty(2 * mn)
        self.machining_terms, self.wear_terms = terms[:mn], terms[mn:]
        scratch = np.empty(2 * mn)
        self.feed_powers = self.power = scratch[:mn]
        self.feed_powers_08 = scratch[mn:]
        # Each genome's terms summed as a contiguous row (see batch_evaluate).
        if m < 8:
            self.genome_major = self.term_columns = None
            self.term_rows = terms.reshape(2, m, n)
            self.sums = np.empty((2, n))
            self.machining, self.wear_total = self.sums
        else:
            self.genome_major = scratch.reshape(n, 2 * m)
            self.term_columns = terms.reshape(2 * m, n).T
            self.term_rows = scratch.reshape(n, 2, m)
            self.sums = np.empty((n, 2))
            self.machining, self.wear_total = self.sums.T
        self.inside = np.empty(2 * mn, dtype=bool)
        self.inside_by_operation = self.inside.reshape(2 * m, n)
        self.inside_speeds = self.inside[:mn]
        self.check = np.empty(2 * mn, dtype=bool)
        self.check_speeds = self.check[:mn]
        self.infeasible = self.check[:n]
        self.result = BatchEval(
            fitness=np.empty(n),
            unit_cost=np.empty(n),
            unit_time=np.empty(n),
            feasible=np.empty(n, dtype=bool),
        )


def batch_evaluate(ctx: EvalContext, genomes: np.ndarray, buffers: PricingBuffers | None = None) -> BatchEval:
    """Evaluate an (n, 2m) array of decision vectors in one pass.

    Matches the scalar functions exactly: same formulas, same inclusive
    margin comparisons (finish and force through feed_cap), same death
    penalty.  Works on the flat operation-major copy of the batch that
    PricingBuffers lays out, against constants repeated to match, so that
    every numpy call runs on equal-length contiguous operands, numpy's
    cheapest loop.

    Works in buffers, PricingBuffers(ctx, n), and returns their result,
    which the next call with the same buffers overwrites; without them
    every call works in fresh ones, so no two results share memory.
    """
    points = np.atleast_2d(np.asarray(genomes, dtype=float))
    n = points.shape[0]
    m = ctx.m
    if points.shape[1] != 2 * m:
        raise ContractError(f"expected genomes of length {2 * m}, got {points.shape[1]}")
    # minimum and maximum propagate NaN, so one pair of reductions rejects
    # NaN, +-inf and nonpositive entries alike; an empty batch has nothing
    # to reject.
    if points.size and not (
        np.minimum.reduce(points, axis=None) > 0.0 and np.maximum.reduce(points, axis=None) < math.inf
    ):
        raise DomainError("all speeds and feeds must be finite and > 0")
    if buffers is None:
        buffers = PricingBuffers(ctx, n)
    elif buffers.ctx is not ctx or buffers.result.fitness.size != n:
        raise ContractError(f"pricing buffers were made for another context or batch size than {n} genomes")
    np.copyto(buffers.by_operation, points.T)
    v, f = buffers.speeds, buffers.feeds

    t_machining = np.multiply(v, f, out=buffers.machining_terms)
    np.divide(buffers.k1, t_machining, out=t_machining)
    wear = np.power(v, buffers.speed_exponent, out=buffers.wear_terms)
    wear *= buffers.tool_cost_coef
    wear *= np.power(f, buffers.feed_exponent, out=buffers.feed_powers)
    # Each genome's m terms must be summed in the order numpy sums a
    # contiguous row, as a genome-major layout would.  Below eight
    # elements that is one after the other, which a reduction down the
    # operations also gives; from eight on numpy sums a row through
    # partial sums, so the terms are first copied genome-major.
    if m < 8:
        np.add.reduce(buffers.term_rows, axis=1, out=buffers.sums)
    else:
        np.copyto(buffers.genome_major, buffers.term_columns)
        np.add.reduce(buffers.term_rows, axis=2, out=buffers.sums)
    result = buffers.result
    machining = buffers.machining
    np.add(ctx.time_fixed, machining, out=result.unit_time)
    cost_total = np.multiply(ctx.rate, machining, out=result.unit_cost)
    np.add(ctx.cost_fixed, cost_total, out=cost_total)
    cost_total += buffers.wear_total

    box = np.greater_equal(buffers.flat, buffers.lower, out=buffers.inside)
    box &= np.less_equal(buffers.flat, buffers.feasible_upper, out=buffers.check)
    power = np.multiply(buffers.c5, v, out=buffers.power)
    power *= np.power(f, 0.8, out=buffers.feed_powers_08)
    buffers.inside_speeds &= np.less_equal(power, 1.0, out=buffers.check_speeds)
    feasible = np.logical_and.reduce(buffers.inside_by_operation, axis=0, out=result.feasible)

    rate_of_profit = np.subtract(ctx.sale_price, cost_total, out=result.fitness)
    rate_of_profit /= result.unit_time
    np.copyto(rate_of_profit, 0.0, where=np.logical_not(feasible, out=buffers.infeasible))
    return result
