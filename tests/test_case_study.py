"""Bundled-case and document-format tests: the stored comparison rows,
the shipped five-operation plan, strict loading with named errors, and
the dump/load round trip."""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import re

import pytest

from millopt import (
    EconomicConstants,
    EsConfig,
    GridSpec,
    MachineSpec,
    OperationKind,
    OperationSpec,
    PlanError,
    ToolKind,
    ToolQuality,
    ToolSpec,
    builtin_case,
    builtin_document_bytes,
    load_document,
    load_document_file,
)
from millopt import case_study
from millopt.case_study import REFERENCE_ROWS, ReferenceRow
from millopt.cli import build_parser

from conftest import CARBIDE_FACE_MILL, consistency_gap, dump_plan, single_face_plan, two_op_plan


def builtin_document() -> dict:
    return json.loads(builtin_document_bytes().decode("utf-8"))


def exactly(message: str) -> str:
    """A pytest.raises pattern that matches message and nothing more."""
    return f"^{re.escape(message)}$"


def every_optional_plan():
    """two_op_plan with a face operation in front that sets every optional
    field: a permitted force on its face mill, a finish requirement, an
    assumed radial depth and a wear-coefficient override.  Its end-mill
    operation keeps its finish requirement."""
    plan = two_op_plan()
    face = dataclasses.replace(
        single_face_plan().operations[0],
        number=0,
        surface_finish_req=2.0,
        radial_depth_assumed=True,
        k3_override=2.5e-6,
    )
    return dataclasses.replace(
        plan,
        tools=(dataclasses.replace(CARBIDE_FACE_MILL, permitted_force=4500.0),) + plan.tools,
        operations=(face,) + plan.operations,
    )


# Stands for a key deleted from its section.
MISSING = object()


def required(place, where, key, kind, *wrong):
    """Single faults of a required key: absent, then each wrong value."""
    yield place, key, MISSING, f"missing required key '{key}' in {where}"
    yield from optional(place, where, key, kind, *wrong)


def optional(place, where, key, kind, *wrong):
    """Single faults of a key that may be left out: each wrong value."""
    for value in wrong:
        yield place, key, value, f"'{key}' in {where} must {kind}"


def choice(place, where, key, choices):
    """Single faults of an enum key: absent, not a string, not a choice."""
    for value in (MISSING, 1):
        yield place, key, value, f"missing or non-string key '{key}' in {where}"
    yield place, key, "drill", f"'{key}' in {where} must be one of: {choices} (got 'drill')"


def numbers(place, where, *keys):
    for key in keys:
        yield from required(place, where, key, "be a number", "x", True)


def integers(place, where, *keys):
    for key in keys:
        yield from required(place, where, key, "be an integer", 1.5, True)


def overrides(place, where, *keys, kind, wrong):
    for key in keys:
        yield from optional(place, where, key, kind, *wrong)


BOUNDS = ("be a two-element [lower, upper] list", [1], 60.0)
# Every document key of economics, machine, tools[0], operations[0], es and
# oracle, each with one or more single faults and the one line it gives.
SINGLE_FAULTS = list(
    itertools.chain(
        numbers(
            "economics", "section 'economics'",
            "sale_price", "material_cost", "labor_rate", "overhead_rate", "setup_time",
        ),
        numbers(
            "machine", "section 'machine'",
            "motor_power", "efficiency", "power_constant", "wear_factor",
            "chip_area_exponent", "slenderness_exponent",
        ),
        integers("tools", "tools[0]", "id", "teeth"),
        choice("tools", "tools[0]", "kind", "face_mill, end_mill"),
        choice("tools", "tools[0]", "quality", "hss, carbide"),
        numbers(
            "tools", "tools[0]",
            "diameter", "price", "lead_angle", "clearance_angle", "taylor_constant",
            "life_exponent", "change_time",
        ),
        optional("tools", "tools[0]", "permitted_force", "be a number", "x", True),
        integers("operations", "operations[0]", "number", "tool"),
        choice("operations", "operations[0]", "kind", "face, corner, pocket, slot"),
        numbers("operations", "operations[0]", "axial_depth", "radial_depth", "travel"),
        optional("operations", "operations[0]", "speed_bounds", *BOUNDS),
        optional("operations", "operations[0]", "feed_bounds", *BOUNDS),
        optional("operations", "operations[0]", "speed_bounds", "contain numbers", [60.0, "x"]),
        optional("operations", "operations[0]", "surface_finish_req", "be a number", "x", True),
        optional("operations", "operations[0]", "radial_depth_assumed", "be true or false", "yes", 1, None),
        optional("operations", "operations[0]", "k3_override", "be a number", "x", True),
        overrides("es", "section 'es'", "mu", "eta", "stall_limit", "seed", kind="be an integer", wrong=(1.5, True)),
        overrides("es", "section 'es'", "sigma_init", "alpha", kind="be a number", wrong=("fast", True)),
        overrides("oracle", "section 'oracle'", "resolution", kind="be an integer", wrong=(2.5, True)),
    )
)


def fault_id(fault):
    place, key, value, _ = fault
    return f"{place}.{key}:{'missing' if value is MISSING else json.dumps(value)}"


class TestReferenceRows:
    def test_exact_stored_table(self):
        expected = (
            ("Handbook", 18.36, 9.40, 0.71),
            ("Method of feasible direction", 11.35, 5.48, 2.49),
            ("Genetic algorithm", 11.11, 5.22, 2.65),
            ("Ant colony algorithm", 10.20, 5.43, 2.72),
            ("Hybrid particle swarm", 10.90, 5.05, 2.79),
            ("Immune algorithm", 11.08, 5.07, 2.75),
            ("Hybrid immune algorithm", 10.91, 5.07, 2.79),
            ("Hybrid differential evolution algorithm", 10.90, 5.00, 2.82),
            ("Evolutionary strategy", 10.91, 5.00, 2.82),
        )
        assert len(REFERENCE_ROWS) == 9
        for row, (method, cost, time, rate) in zip(REFERENCE_ROWS, expected):
            assert row.method == method
            assert row.unit_cost == cost
            assert row.unit_time == time
            assert row.profit_rate == rate

    def test_strategy_row_is_internally_consistent(self):
        row = REFERENCE_ROWS[-1]
        # (25 - 10.91) / 5.00 = 2.818, printed as 2.82
        assert consistency_gap(row, 25.0) == pytest.approx(-0.002, abs=1e-12)

    def test_handbook_row_is_internally_consistent(self):
        row = REFERENCE_ROWS[0]
        implied = (25.0 - 18.36) / 9.40
        assert consistency_gap(row, 25.0) == pytest.approx(implied - 0.71, rel=1e-12)
        assert abs(consistency_gap(row, 25.0)) <= 0.01

    def test_gap_is_signed(self):
        row = ReferenceRow("synthetic", 15.0, 5.0, 1.9)
        assert consistency_gap(row, 25.0) == pytest.approx(0.1, rel=1e-12)


class TestBuiltinCase:
    def test_plan_shape(self, builtin_plan):
        assert builtin_plan.m == 5
        assert len(builtin_plan.tools) == 3
        assert builtin_plan.economics.sale_price == 25.0
        assert builtin_plan.economics.material_cost == 0.5
        assert builtin_plan.economics.setup_time == 2.0
        assert builtin_plan.machine.motor_power == 8.5
        assert builtin_plan.machine.efficiency == 0.95

    def test_first_tool(self, builtin_plan):
        tool = builtin_plan.tools[0]
        assert tool.kind is ToolKind.FACE_MILL
        assert tool.quality is ToolQuality.CARBIDE
        assert tool.diameter == 50.0
        assert tool.teeth == 6
        assert tool.price == 49.5
        assert tool.lead_angle == 45.0
        assert tool.clearance_angle == 5.0
        assert tool.taylor_constant == 100.05
        assert tool.life_exponent == 0.3
        assert tool.permitted_force is None

    def test_operation_lineup(self, builtin_plan):
        kinds = [op.kind for op in builtin_plan.operations]
        assert kinds == [
            OperationKind.FACE,
            OperationKind.CORNER,
            OperationKind.POCKET,
            OperationKind.SLOT,
            OperationKind.SLOT,
        ]
        op5 = builtin_plan.operations[4]
        assert op5.tool_id == 3
        assert op5.axial_depth == 5.0
        assert op5.travel == 84.0
        assert op5.surface_finish_req == 1.0
        # the rough slot has no finish requirement
        assert builtin_plan.operations[3].surface_finish_req is None
        assert all(op.radial_depth_assumed for op in builtin_plan.operations)

    def test_default_boxes_applied_by_kind(self, builtin_plan):
        ops = builtin_plan.operations
        assert ops[0].speed_bounds == (60.0, 120.0) and ops[0].feed_bounds == (0.05, 0.4)
        assert ops[1].speed_bounds == (40.0, 70.0) and ops[1].feed_bounds == (0.05, 0.5)
        assert ops[2].speed_bounds == (40.0, 70.0) and ops[2].feed_bounds == (0.05, 0.5)
        assert ops[3].speed_bounds == (30.0, 50.0) and ops[3].feed_bounds == (0.05, 0.5)
        assert ops[4].speed_bounds == (30.0, 50.0) and ops[4].feed_bounds == (0.05, 0.5)

    def test_builtin_case_returns_rows(self):
        plan, rows = builtin_case()
        assert rows is REFERENCE_ROWS
        assert plan.m == 5
        assert plan == load_document(builtin_document()).plan

    def test_document_bytes_stable_and_parseable(self):
        first = builtin_document_bytes()
        second = builtin_document_bytes()
        assert first == second
        loaded = load_document(json.loads(first.decode("utf-8")))
        assert loaded.plan.m == 5
        assert loaded.es_overrides == {}
        assert loaded.oracle_overrides == {}


class TestRoundTrip:
    @pytest.mark.parametrize("factory", [single_face_plan, two_op_plan, every_optional_plan])
    def test_toy_plans(self, factory):
        plan = factory()
        assert load_document(dump_plan(plan)).plan == plan

    def test_builtin_plan(self, builtin_plan):
        assert load_document(dump_plan(builtin_plan)).plan == builtin_plan

    def test_dump_is_json_serializable(self, builtin_plan):
        text = json.dumps(dump_plan(builtin_plan))
        assert load_document(json.loads(text)).plan == builtin_plan

    def test_dump_resolves_default_bounds(self, builtin_plan):
        document = dump_plan(builtin_plan)
        assert document["operations"][0]["speed_bounds"] == [60.0, 120.0]
        assert document["operations"][3]["feed_bounds"] == [0.05, 0.5]

    def test_dump_omits_absent_optionals(self, builtin_plan):
        document = dump_plan(builtin_plan)
        assert "permitted_force" not in document["tools"][0]
        assert "surface_finish_req" not in document["operations"][3]
        assert "k3_override" not in document["operations"][0]


class TestLoaderErrors:
    def test_unknown_top_level_key_named(self):
        doc = builtin_document()
        doc["extras"] = {}
        with pytest.raises(PlanError, match="unknown key 'extras'"):
            load_document(doc)

    def test_missing_section_named(self):
        doc = builtin_document()
        del doc["machine"]
        with pytest.raises(PlanError, match="missing required section 'machine'"):
            load_document(doc)

    def test_unknown_economics_key_named(self):
        doc = builtin_document()
        doc["economics"]["discount"] = 0.1
        with pytest.raises(PlanError, match=exactly("unknown key 'discount' in section 'economics'")):
            load_document(doc)

    @pytest.mark.parametrize(
        ("place", "key", "message"),
        [
            ("machine", "spindle", "unknown key 'spindle' in section 'machine'"),
            ("tools", "colour", "unknown key 'colour' in tools[0]"),
            ("operations", "coolant", "unknown key 'coolant' in operations[0]"),
            # the field behind an operation's 'tool' key is not a document key
            ("operations", "tool_id", "unknown key 'tool_id' in operations[0]"),
        ],
    )
    def test_unknown_plan_key_named(self, place, key, message):
        doc = builtin_document()
        section = doc[place][0] if isinstance(doc[place], list) else doc[place]
        section[key] = 1
        with pytest.raises(PlanError, match=exactly(message)):
            load_document(doc)

    def test_missing_tool_key_named(self):
        doc = builtin_document()
        del doc["tools"][0]["teeth"]
        with pytest.raises(PlanError, match="missing required key 'teeth' in tools\\[0\\]"):
            load_document(doc)

    def test_dangling_tool_reference(self):
        doc = builtin_document()
        doc["operations"][0]["tool"] = 9
        with pytest.raises(PlanError, match="9"):
            load_document(doc)

    def test_tools_must_be_nonempty_list(self):
        doc = builtin_document()
        doc["tools"] = []
        with pytest.raises(PlanError, match="'tools' must be a non-empty list"):
            load_document(doc)
        doc["tools"] = {"id": 1}
        with pytest.raises(PlanError, match="'tools' must be a non-empty list"):
            load_document(doc)

    def test_operations_must_be_nonempty_list(self):
        doc = builtin_document()
        doc["operations"] = []
        with pytest.raises(PlanError, match="'operations' must be a non-empty list"):
            load_document(doc)

    def test_bad_kind_lists_choices(self):
        doc = builtin_document()
        doc["operations"][0]["kind"] = "drill"
        with pytest.raises(PlanError, match="must be one of: .*slot.*got 'drill'"):
            load_document(doc)

    def test_bool_not_accepted_as_number(self):
        doc = builtin_document()
        doc["economics"]["sale_price"] = True
        with pytest.raises(PlanError, match="'sale_price' in section 'economics' must be a number"):
            load_document(doc)

    def test_radial_depth_assumed_must_be_bool(self):
        doc = builtin_document()
        doc["operations"][0]["radial_depth_assumed"] = "yes"
        with pytest.raises(PlanError, match="must be true or false"):
            load_document(doc)

    def test_bounds_must_be_pairs(self):
        doc = builtin_document()
        doc["operations"][0]["speed_bounds"] = [60.0]
        with pytest.raises(PlanError, match="two-element"):
            load_document(doc)
        doc["operations"][0]["speed_bounds"] = [60.0, "fast"]
        with pytest.raises(PlanError, match="must contain numbers"):
            load_document(doc)

    @pytest.mark.parametrize("fault", SINGLE_FAULTS, ids=fault_id)
    def test_single_fault_message(self, fault):
        place, key, value, message = fault
        doc = builtin_document()
        section = doc.setdefault(place, {})
        entry = section[0] if isinstance(section, list) else section
        if value is MISSING:
            del entry[key]
        else:
            entry[key] = value
        with pytest.raises(PlanError, match=exactly(message)):
            load_document(doc)

    def test_single_faults_cover_every_key(self):
        document = dump_plan(every_optional_plan())
        sections = {
            "economics": document["economics"],
            "machine": document["machine"],
            "tools": document["tools"][0],
            "operations": document["operations"][0],
            "es": dataclasses.asdict(EsConfig()),
            "oracle": dataclasses.asdict(GridSpec()),
        }
        expected = {(place, key) for place, section in sections.items() for key in section}
        assert {(place, key) for place, key, _, _ in SINGLE_FAULTS} == expected

    @pytest.mark.parametrize(
        "cls", [EconomicConstants, MachineSpec, ToolSpec, OperationSpec, EsConfig, GridSpec]
    )
    def test_every_field_annotation_has_a_reader(self, cls):
        for field in dataclasses.fields(cls):
            assert field.type in case_study._READERS, (cls.__name__, field.name, field.type)

    def test_first_fault_in_field_order(self):
        """An entry with two faults reports the one of the earlier field."""
        doc = builtin_document()
        del doc["operations"][0]["number"]
        doc["operations"][0]["kind"] = "drill"
        with pytest.raises(PlanError, match=exactly("missing required key 'number' in operations[0]")):
            load_document(doc)

    def test_non_mapping_document(self):
        with pytest.raises(PlanError, match="plan document must be an object"):
            load_document([1, 2, 3])

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(PlanError, match="not valid JSON"):
            load_document_file(path)

    def test_duplicate_key_in_a_file_is_named(self, tmp_path):
        # json keeps the last value of a repeated key: read as a mapping,
        # this document would sell at 2500
        text = builtin_document_bytes().decode("utf-8")
        text = text.replace('"sale_price": 25.0,', '"sale_price": 25.0, "sale_price": 2500.0,')
        assert load_document(json.loads(text)).plan.economics.sale_price == 2500.0
        path = tmp_path / "duplicate.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(PlanError, match=exactly("duplicate key 'sale_price' in section 'economics'")):
            load_document_file(path)

    def test_missing_file_raises_os_error(self, tmp_path):
        with pytest.raises(OSError):
            load_document_file(tmp_path / "absent.json")


class TestOperationOptions:
    def test_k3_override_honored(self):
        doc = builtin_document()
        doc["operations"][0]["k3_override"] = 2.5e-6
        plan = load_document(doc).plan
        assert plan.operations[0].k3_override == 2.5e-6
        from millopt import derive_coefficients

        assert derive_coefficients(plan)[0].k3 == 2.5e-6

    def test_explicit_bounds_override_defaults(self):
        doc = builtin_document()
        doc["operations"][0]["speed_bounds"] = [70.0, 110.0]
        doc["operations"][0]["feed_bounds"] = [0.1, 0.3]
        plan = load_document(doc).plan
        assert plan.operations[0].speed_bounds == (70.0, 110.0)
        assert plan.operations[0].feed_bounds == (0.1, 0.3)

    def test_permitted_force_loaded(self):
        doc = builtin_document()
        doc["tools"][0]["permitted_force"] = 4500.0
        plan = load_document(doc).plan
        assert plan.tools[0].permitted_force == 4500.0


class TestSolverOverrides:
    def test_es_overrides_parsed(self):
        doc = builtin_document()
        doc["es"] = {"mu": 10, "eta": 70, "sigma_init": 0.3, "seed": 7}
        loaded = load_document(doc)
        assert loaded.es_overrides == {"mu": 10, "eta": 70, "sigma_init": 0.3, "seed": 7}

    def test_oracle_overrides_parsed(self):
        doc = builtin_document()
        doc["oracle"] = {"resolution": 100}
        loaded = load_document(doc)
        assert loaded.oracle_overrides == {"resolution": 100}

    def test_unknown_override_key_rejected(self):
        doc = builtin_document()
        doc["es"] = {"population": 15}
        with pytest.raises(PlanError, match=exactly("unknown key 'population' in section 'es'")):
            load_document(doc)
        doc = builtin_document()
        doc["oracle"] = {"grid_resolution": 300}
        with pytest.raises(
            PlanError, match=exactly("unknown key 'grid_resolution' in section 'oracle'")
        ):
            load_document(doc)

    def test_int_keys_reject_floats(self):
        doc = builtin_document()
        doc["es"] = {"mu": 10.5}
        with pytest.raises(PlanError, match="'mu' in section 'es' must be an integer"):
            load_document(doc)

    def test_null_overrides_skipped(self):
        doc = builtin_document()
        doc["es"] = {"mu": None, "sigma_init": 0.5}
        loaded = load_document(doc)
        assert loaded.es_overrides == {"sigma_init": 0.5}

    def test_sections_and_flags_name_the_settings_fields(self):
        """The es and oracle sections take exactly the fields of EsConfig and
        GridSpec, and each field is set by exactly one flag whose dest is
        the field's name."""
        commands = next(
            action for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        dests = [action.dest for action in commands.choices["compare"]._actions]
        retired = {
            "es": ("tau_global", "tau_local", "sigma_floor", "max_generations"),
            "oracle": ("dinkelbach_tolerance", "max_dinkelbach_iterations"),
        }
        for section, settings in (("es", EsConfig), ("oracle", GridSpec)):
            values = dataclasses.asdict(settings())
            doc = builtin_document()
            doc[section] = values
            assert getattr(load_document(doc), f"{section}_overrides") == values
            for key in retired[section]:
                doc[section] = {**values, key: 1}
                with pytest.raises(
                    PlanError, match=exactly(f"unknown key '{key}' in section '{section}'")
                ):
                    load_document(doc)
            for name in values:
                assert dests.count(name) == 1, name
