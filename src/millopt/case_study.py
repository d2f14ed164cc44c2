"""Bundled five-operation case study and the plan document format.

A plan document is a JSON object with sections ``economics``, ``machine``,
``tools`` and ``operations``, plus optional ``es`` and ``oracle`` sections
that override solver settings.  Each section's keys are the field names
of the dataclass it fills (``EsConfig`` and ``GridSpec`` for the solver
sections), except that an operation names its tool as ``tool``, and each
key is read by the one reader of its field's annotation: ``float``, ``int``,
``float | None``, ``bool``, ``tuple[float, float]`` or an enum.  Loading
is strict: unknown keys, and in a document file a key repeated within one
object, are rejected by name so typos cannot silently change a run, and an
entry with several faults reports the first in field order.

The bundled case ships with nine published comparison results for the
same part; they are stored exactly as printed, two decimals each.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import dataclass, fields
from functools import cache, partial
from importlib import resources
from pathlib import Path
from typing import Any, Callable

from .es import EsConfig
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
    _is_integer,
)
from .oracle import GridSpec

__all__ = [
    "ReferenceRow",
    "REFERENCE_ROWS",
    "LoadedDocument",
    "load_document",
    "load_document_file",
    "builtin_case",
    "builtin_document_bytes",
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


# The one document key that differs from the dataclass field it fills.
_RENAMED = {"tool_id": "tool"}

# The sections a plan document may have.
_SECTIONS = dict.fromkeys(("economics", "machine", "tools", "operations", "es", "oracle"))

# Stands for a key the section does not have.
_ABSENT = object()


def _expect_mapping(value: Any, where: str) -> Mapping[str, Any]:
    if not isinstance(value, Mapping):
        raise PlanError(f"{where} must be an object")
    if value.__class__ is _Repeated:
        raise PlanError(f"duplicate key '{value.key}' in {where}")
    return value


def _reject_unknown(section: Mapping[str, Any], allowed: Mapping[str, Any], where: str) -> None:
    if not section.keys() <= allowed.keys():
        key = next(key for key in section if key not in allowed)
        raise PlanError(f"unknown key '{key}' in {where}")


def _number(section: Mapping[str, Any], key: str, where: str) -> float:
    value = section.get(key, _ABSENT)
    if value.__class__ is float:
        return value
    if value is _ABSENT:
        raise PlanError(f"missing required key '{key}' in {where}")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise PlanError(f"'{key}' in {where} must be a number")
    return float(value)


def _integer(section: Mapping[str, Any], key: str, where: str) -> int:
    value = section.get(key, _ABSENT)
    if value is _ABSENT:
        raise PlanError(f"missing required key '{key}' in {where}")
    if not _is_integer(value):
        raise PlanError(f"'{key}' in {where} must be an integer")
    return value


def _optional_number(section: Mapping[str, Any], key: str, where: str) -> float | None:
    if section.get(key) is None:
        return None
    return _number(section, key, where)


def _flag(section: Mapping[str, Any], key: str, where: str) -> bool:
    value = section.get(key, False)
    if not isinstance(value, bool):
        raise PlanError(f"'{key}' in {where} must be true or false")
    return value


def _enum(enum_cls: type, section: Mapping[str, Any], key: str, where: str):
    raw = section.get(key)
    if not isinstance(raw, str):
        raise PlanError(f"missing or non-string key '{key}' in {where}")
    try:
        return enum_cls(raw)
    except ValueError:
        choices = ", ".join(member.value for member in enum_cls)
        raise PlanError(f"'{key}' in {where} must be one of: {choices} (got '{raw}')") from None


def _bounds_pair(section: Mapping[str, Any], key: str, where: str) -> tuple[float, float] | None:
    raw = section.get(key)
    if raw is None:
        return None
    if not isinstance(raw, (list, tuple)) or len(raw) != 2:
        raise PlanError(f"'{key}' in {where} must be a two-element [lower, upper] list")
    low, high = raw
    for side in (low, high):
        if isinstance(side, bool) or not isinstance(side, (int, float)):
            raise PlanError(f"'{key}' in {where} must contain numbers")
    return (float(low), float(high))


Reader = Callable[[Mapping[str, Any], str, str], Any]

# The reader of each field annotation as written: the model modules defer
# their annotations, so each is a string.  A reader returns the key's value,
# or what stands for its absence where the key may be left out.
_READERS: dict[str, Reader] = {
    "float": _number,
    "int": _integer,
    "float | None": _optional_number,
    "bool": _flag,
    "tuple[float, float]": _bounds_pair,
    **{enum_cls.__name__: partial(_enum, enum_cls) for enum_cls in (ToolKind, ToolQuality, OperationKind)},
}


@cache
def _layout(cls: type) -> dict[str, tuple[str, Reader]]:
    """(field name, reader of its annotation) of each field of cls, by
    document key in field order.  Cached: a load asks once per entry, and
    building it costs more than reading the entry."""
    return {_RENAMED.get(field.name, field.name): (field.name, _READERS[field.type]) for field in fields(cls)}


def _load_fields(section: Any, cls: type, where: str) -> dict[str, Any]:
    """Each field of cls, read under its document key by the reader of its
    annotation, in field order; unknown keys are rejected first.  The
    values are in field order, so they can be passed to cls by position,
    which costs less than by keyword."""
    section = _expect_mapping(section, where)
    layout = _layout(cls)
    _reject_unknown(section, layout, where)
    return {name: read(section, key, where) for key, (name, read) in layout.items()}


def _load_operation(section: Any, where: str) -> OperationSpec:
    """An operation entry; absent bounds take the defaults of its kind."""
    values = _load_fields(section, OperationSpec, where)
    values["speed_bounds"] = values["speed_bounds"] or SPEED_LIMITS[values["kind"]]
    values["feed_bounds"] = values["feed_bounds"] or FEED_LIMITS[values["kind"]]
    return OperationSpec(*values.values())


def _load_overrides(document: Mapping[str, Any], name: str, cls: type) -> dict[str, Any]:
    """The non-null settings an optional section gives for cls's fields, in
    document order, each read by the reader of its field's annotation."""
    if name not in document:
        return {}
    where = f"section '{name}'"
    section = _expect_mapping(document[name], where)
    layout = _layout(cls)
    _reject_unknown(section, layout, where)
    return {key: layout[key][1](section, key, where) for key, value in section.items() if value is not None}


def _load_list(document: Mapping[str, Any], name: str, load: Callable[[Any, str], Any]) -> tuple:
    """Each entry of a required non-empty list section, loaded in turn."""
    entries = document[name]
    if not isinstance(entries, (list, tuple)) or not entries:
        raise PlanError(f"section '{name}' must be a non-empty list")
    return tuple(load(entry, f"{name}[{idx}]") for idx, entry in enumerate(entries))


@dataclass(frozen=True)
class LoadedDocument:
    """A parsed plan document: the plan plus any solver overrides."""

    plan: MillingPlan
    es_overrides: dict[str, Any]
    oracle_overrides: dict[str, Any]


def load_document(document: Mapping[str, Any]) -> LoadedDocument:
    """Parse and validate a plan document given as a mapping."""
    document = _expect_mapping(document, "plan document")
    _reject_unknown(document, _SECTIONS, "plan document")
    for required in ("economics", "machine", "tools", "operations"):
        if required not in document:
            raise PlanError(f"missing required section '{required}' in plan document")

    economics = EconomicConstants(
        *_load_fields(document["economics"], EconomicConstants, "section 'economics'").values()
    )
    machine = MachineSpec(*_load_fields(document["machine"], MachineSpec, "section 'machine'").values())
    tools = _load_list(
        document, "tools", lambda entry, where: ToolSpec(*_load_fields(entry, ToolSpec, where).values())
    )
    operations = _load_list(document, "operations", _load_operation)

    plan = MillingPlan(economics=economics, machine=machine, tools=tools, operations=operations)
    return LoadedDocument(
        plan=plan,
        es_overrides=_load_overrides(document, "es", EsConfig),
        oracle_overrides=_load_overrides(document, "oracle", GridSpec),
    )


class _Repeated(dict):
    """A JSON object that gives a key more than once, with the last value,
    as json keeps it; the loader rejects it where it reads it."""

    key: str


def _members(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    """One JSON object of a document file as a dict, or as a _Repeated
    naming its first repeated key."""
    members = dict(pairs)
    if len(members) < len(pairs):
        seen: set[str] = set()
        members = _Repeated(members)
        members.key = next(key for key, _ in pairs if key in seen or seen.add(key))
    return members


def load_document_file(path: str | Path) -> LoadedDocument:
    with open(path, encoding="utf-8") as file:
        text = file.read()
    try:
        raw = json.loads(text, object_pairs_hook=_members)
    except (json.JSONDecodeError, RecursionError) as exc:
        # json's decoder recurses once per nesting level.
        raise PlanError(f"{path} is not valid JSON: {exc}") from exc
    return load_document(raw)


def builtin_document_bytes() -> bytes:
    """Raw bytes of the bundled case-study document, as shipped."""
    return resources.files("millopt").joinpath("data/case_study.json").read_bytes()


def builtin_case() -> tuple[MillingPlan, tuple[ReferenceRow, ...]]:
    """The bundled five-operation part and its published comparison rows."""
    plan = load_document(json.loads(builtin_document_bytes().decode("utf-8"))).plan
    return plan, REFERENCE_ROWS
