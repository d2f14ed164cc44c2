"""Bundled five-operation case study and the plan document format.

A plan document is a JSON object with sections ``economics``, ``machine``,
``tools`` and ``operations``, plus optional ``es`` and ``oracle`` sections
that override solver settings.  Loading is strict: unknown keys are
rejected by name so typos cannot silently change a run.

The bundled case ships with nine published comparison results for the
same part; they are stored exactly as printed, two decimals each.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Any, Mapping

from .milling import (
    FEED_LIMITS,
    SPEED_LIMITS,
    EconomicConstants,
    MachineSpec,
    MillingPlan,
    OperationKind,
    OperationSpec,
    PlanError,
    ToolKind,
    ToolQuality,
    ToolSpec,
)

__all__ = [
    "ReferenceRow",
    "REFERENCE_ROWS",
    "LoadedDocument",
    "load_document",
    "load_document_file",
    "dump_plan",
    "builtin_case",
    "builtin_document_bytes",
    "consistency_gap",
    "ES_OVERRIDE_KEYS",
    "ORACLE_OVERRIDE_KEYS",
]


@dataclass(frozen=True)
class ReferenceRow:
    """One published result for the bundled part: cost, time, profit rate."""

    method: str
    unit_cost: float
    unit_time: float
    profit_rate: float


# Published comparison table for the bundled case, verbatim at the two
# decimals the sources printed.  No invented precision.  Two-decimal
# printing alone can move a row's consistency gap by up to about 0.009 on
# this table; the "Genetic algorithm" and "Hybrid immune algorithm" rows
# exceed that as printed in the sources (gaps of about +0.0109 and -0.0109)
# and are kept as printed, not corrected.
REFERENCE_ROWS: tuple[ReferenceRow, ...] = (
    ReferenceRow("Handbook", 18.36, 9.40, 0.71),
    ReferenceRow("Method of feasible direction", 11.35, 5.48, 2.49),
    ReferenceRow("Genetic algorithm", 11.11, 5.22, 2.65),
    ReferenceRow("Ant colony algorithm", 10.20, 5.43, 2.72),
    ReferenceRow("Hybrid particle swarm", 10.90, 5.05, 2.79),
    ReferenceRow("Immune algorithm", 11.08, 5.07, 2.75),
    ReferenceRow("Hybrid immune algorithm", 10.91, 5.07, 2.79),
    ReferenceRow("Hybrid differential evolution algorithm", 10.90, 5.00, 2.82),
    ReferenceRow("Evolutionary strategy", 10.91, 5.00, 2.82),
)


def consistency_gap(row: ReferenceRow, sale_price: float) -> float:
    """Signed difference between the profit rate implied by a row's cost
    and time and the profit rate the row prints.

    The printed columns are rounded to two decimals, so on this table the
    gap can differ from zero by up to about 0.009 from printing alone.  Two
    rows of ``REFERENCE_ROWS`` exceed that as printed in the sources.
    """
    return (sale_price - row.unit_cost) / row.unit_time - row.profit_rate


ECONOMICS_KEYS = ("sale_price", "material_cost", "labor_rate", "overhead_rate", "setup_time")
MACHINE_KEYS = (
    "motor_power",
    "efficiency",
    "power_constant",
    "wear_factor",
    "chip_area_exponent",
    "slenderness_exponent",
)
TOOL_REQUIRED_KEYS = (
    "id",
    "kind",
    "quality",
    "diameter",
    "teeth",
    "price",
    "lead_angle",
    "clearance_angle",
    "taylor_constant",
    "life_exponent",
    "change_time",
)
TOOL_OPTIONAL_KEYS = ("permitted_force",)
OPERATION_REQUIRED_KEYS = ("number", "kind", "tool", "axial_depth", "radial_depth", "travel")
OPERATION_OPTIONAL_KEYS = (
    "surface_finish_req",
    "radial_depth_assumed",
    "speed_bounds",
    "feed_bounds",
    "k3_override",
)
ES_OVERRIDE_KEYS = ("mu", "eta", "sigma_init", "alpha", "stall_limit", "seed")
ORACLE_OVERRIDE_KEYS = ("resolution",)

_ES_INT_KEYS = frozenset({"mu", "eta", "stall_limit", "seed"})
_ORACLE_INT_KEYS = frozenset({"resolution"})


def _expect_mapping(value: Any, where: str) -> Mapping[str, Any]:
    if not isinstance(value, Mapping):
        raise PlanError(f"{where} must be an object")
    return value


def _reject_unknown(section: Mapping[str, Any], allowed: tuple[str, ...], where: str) -> None:
    for key in section:
        if key not in allowed:
            raise PlanError(f"unknown key '{key}' in {where}")


def _number(section: Mapping[str, Any], key: str, where: str) -> float:
    if key not in section:
        raise PlanError(f"missing required key '{key}' in {where}")
    value = section[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise PlanError(f"'{key}' in {where} must be a number")
    return float(value)


def _integer(section: Mapping[str, Any], key: str, where: str) -> int:
    if key not in section:
        raise PlanError(f"missing required key '{key}' in {where}")
    value = section[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise PlanError(f"'{key}' in {where} must be an integer")
    return value


def _optional_number(section: Mapping[str, Any], key: str, where: str) -> float | None:
    if key not in section or section[key] is None:
        return None
    return _number(section, key, where)


def _enum(section: Mapping[str, Any], key: str, enum_cls: type, where: str):
    raw = section.get(key)
    if not isinstance(raw, str):
        raise PlanError(f"missing or non-string key '{key}' in {where}")
    try:
        return enum_cls(raw)
    except ValueError:
        choices = ", ".join(member.value for member in enum_cls)
        raise PlanError(f"'{key}' in {where} must be one of: {choices} (got '{raw}')") from None


def _bounds_pair(section: Mapping[str, Any], key: str, where: str) -> tuple[float, float] | None:
    if key not in section or section[key] is None:
        return None
    raw = section[key]
    if not isinstance(raw, (list, tuple)) or len(raw) != 2:
        raise PlanError(f"'{key}' in {where} must be a two-element [lower, upper] list")
    low, high = raw
    for side in (low, high):
        if isinstance(side, bool) or not isinstance(side, (int, float)):
            raise PlanError(f"'{key}' in {where} must contain numbers")
    return (float(low), float(high))


def _load_tool(section: Mapping[str, Any], where: str) -> ToolSpec:
    _reject_unknown(section, TOOL_REQUIRED_KEYS + TOOL_OPTIONAL_KEYS, where)
    return ToolSpec(
        id=_integer(section, "id", where),
        kind=_enum(section, "kind", ToolKind, where),
        quality=_enum(section, "quality", ToolQuality, where),
        diameter=_number(section, "diameter", where),
        teeth=_integer(section, "teeth", where),
        price=_number(section, "price", where),
        lead_angle=_number(section, "lead_angle", where),
        clearance_angle=_number(section, "clearance_angle", where),
        taylor_constant=_number(section, "taylor_constant", where),
        life_exponent=_number(section, "life_exponent", where),
        change_time=_number(section, "change_time", where),
        permitted_force=_optional_number(section, "permitted_force", where),
    )


def _load_operation(section: Mapping[str, Any], where: str) -> OperationSpec:
    _reject_unknown(section, OPERATION_REQUIRED_KEYS + OPERATION_OPTIONAL_KEYS, where)
    kind = _enum(section, "kind", OperationKind, where)
    assumed = section.get("radial_depth_assumed", False)
    if not isinstance(assumed, bool):
        raise PlanError(f"'radial_depth_assumed' in {where} must be true or false")
    speed_bounds = _bounds_pair(section, "speed_bounds", where) or SPEED_LIMITS[kind]
    feed_bounds = _bounds_pair(section, "feed_bounds", where) or FEED_LIMITS[kind]
    return OperationSpec(
        number=_integer(section, "number", where),
        kind=kind,
        tool_id=_integer(section, "tool", where),
        axial_depth=_number(section, "axial_depth", where),
        radial_depth=_number(section, "radial_depth", where),
        travel=_number(section, "travel", where),
        speed_bounds=speed_bounds,
        feed_bounds=feed_bounds,
        surface_finish_req=_optional_number(section, "surface_finish_req", where),
        radial_depth_assumed=assumed,
        k3_override=_optional_number(section, "k3_override", where),
    )


def _load_overrides(
    document: Mapping[str, Any], section_name: str, allowed: tuple[str, ...], int_keys: frozenset[str]
) -> dict[str, Any]:
    if section_name not in document:
        return {}
    section = _expect_mapping(document[section_name], f"section '{section_name}'")
    _reject_unknown(section, allowed, f"section '{section_name}'")
    out: dict[str, Any] = {}
    for key, value in section.items():
        where = f"section '{section_name}'"
        if value is None:
            continue
        if key in int_keys:
            out[key] = _integer(section, key, where)
        else:
            out[key] = _number(section, key, where)
    return out


@dataclass(frozen=True)
class LoadedDocument:
    """A parsed plan document: the plan plus any solver overrides."""

    plan: MillingPlan
    es_overrides: dict[str, Any]
    oracle_overrides: dict[str, Any]


def load_document(document: Mapping[str, Any]) -> LoadedDocument:
    """Parse and validate a plan document given as a mapping."""
    document = _expect_mapping(document, "plan document")
    _reject_unknown(
        document, ("economics", "machine", "tools", "operations", "es", "oracle"), "plan document"
    )
    for required in ("economics", "machine", "tools", "operations"):
        if required not in document:
            raise PlanError(f"missing required section '{required}' in plan document")

    eco_section = _expect_mapping(document["economics"], "section 'economics'")
    _reject_unknown(eco_section, ECONOMICS_KEYS, "section 'economics'")
    economics = EconomicConstants(
        **{key: _number(eco_section, key, "section 'economics'") for key in ECONOMICS_KEYS}
    )

    machine_section = _expect_mapping(document["machine"], "section 'machine'")
    _reject_unknown(machine_section, MACHINE_KEYS, "section 'machine'")
    machine = MachineSpec(
        **{key: _number(machine_section, key, "section 'machine'") for key in MACHINE_KEYS}
    )

    raw_tools = document["tools"]
    if not isinstance(raw_tools, (list, tuple)) or not raw_tools:
        raise PlanError("section 'tools' must be a non-empty list")
    tools = tuple(
        _load_tool(_expect_mapping(entry, f"tools[{idx}]"), f"tools[{idx}]")
        for idx, entry in enumerate(raw_tools)
    )

    raw_ops = document["operations"]
    if not isinstance(raw_ops, (list, tuple)) or not raw_ops:
        raise PlanError("section 'operations' must be a non-empty list")
    operations = tuple(
        _load_operation(_expect_mapping(entry, f"operations[{idx}]"), f"operations[{idx}]")
        for idx, entry in enumerate(raw_ops)
    )

    plan = MillingPlan(economics=economics, machine=machine, tools=tools, operations=operations)
    return LoadedDocument(
        plan=plan,
        es_overrides=_load_overrides(document, "es", ES_OVERRIDE_KEYS, _ES_INT_KEYS),
        oracle_overrides=_load_overrides(document, "oracle", ORACLE_OVERRIDE_KEYS, _ORACLE_INT_KEYS),
    )


def load_document_file(path: str | Path) -> LoadedDocument:
    text = Path(path).read_text(encoding="utf-8")
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PlanError(f"{path} is not valid JSON: {exc}") from exc
    return load_document(raw)


def dump_plan(plan: MillingPlan) -> dict[str, Any]:
    """Serialize a plan to a document that load_document reads back unchanged.

    Bounds are emitted explicitly (resolved, not defaulted) so the dump is
    self-contained.
    """
    tools = []
    for tool in plan.tools:
        entry: dict[str, Any] = {
            "id": tool.id,
            "kind": tool.kind.value,
            "quality": tool.quality.value,
            "diameter": tool.diameter,
            "teeth": tool.teeth,
            "price": tool.price,
            "lead_angle": tool.lead_angle,
            "clearance_angle": tool.clearance_angle,
            "taylor_constant": tool.taylor_constant,
            "life_exponent": tool.life_exponent,
            "change_time": tool.change_time,
        }
        if tool.permitted_force is not None:
            entry["permitted_force"] = tool.permitted_force
        tools.append(entry)

    operations = []
    for op in plan.operations:
        entry = {
            "number": op.number,
            "kind": op.kind.value,
            "tool": op.tool_id,
            "axial_depth": op.axial_depth,
            "radial_depth": op.radial_depth,
            "radial_depth_assumed": op.radial_depth_assumed,
            "travel": op.travel,
            "speed_bounds": list(op.speed_bounds),
            "feed_bounds": list(op.feed_bounds),
        }
        if op.surface_finish_req is not None:
            entry["surface_finish_req"] = op.surface_finish_req
        if op.k3_override is not None:
            entry["k3_override"] = op.k3_override
        operations.append(entry)

    return {
        "economics": {key: getattr(plan.economics, key) for key in ECONOMICS_KEYS},
        "machine": {key: getattr(plan.machine, key) for key in MACHINE_KEYS},
        "tools": tools,
        "operations": operations,
    }


def builtin_document_bytes() -> bytes:
    """Raw bytes of the bundled case-study document, as shipped."""
    return resources.files("millopt").joinpath("data/case_study.json").read_bytes()


def builtin_case() -> tuple[MillingPlan, tuple[ReferenceRow, ...]]:
    """The bundled five-operation part and its published comparison rows."""
    plan = load_document(json.loads(builtin_document_bytes().decode("utf-8"))).plan
    return plan, REFERENCE_ROWS
