"""Bundled-case and document-format tests: the stored comparison rows,
the shipped five-operation plan, strict loading with named errors, and
the dump/load round trip."""

from __future__ import annotations

import json

import pytest

from millopt import (
    OperationKind,
    PlanError,
    ToolKind,
    ToolQuality,
    builtin_case,
    builtin_document_bytes,
    load_document,
    load_document_file,
)
from millopt.case_study import (
    ES_OVERRIDE_KEYS,
    ORACLE_OVERRIDE_KEYS,
    REFERENCE_ROWS,
    ReferenceRow,
    consistency_gap,
    dump_plan,
)

from conftest import single_face_plan, two_op_plan


def builtin_document() -> dict:
    return json.loads(builtin_document_bytes().decode("utf-8"))


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

    def test_document_bytes_stable_and_parseable(self):
        first = builtin_document_bytes()
        second = builtin_document_bytes()
        assert first == second
        loaded = load_document(json.loads(first.decode("utf-8")))
        assert loaded.plan.m == 5
        assert loaded.es_overrides == {}
        assert loaded.oracle_overrides == {}


class TestRoundTrip:
    @pytest.mark.parametrize("factory", [single_face_plan, two_op_plan])
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
        with pytest.raises(PlanError, match="unknown key 'discount' in section 'economics'"):
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

    def test_non_mapping_document(self):
        with pytest.raises(PlanError, match="plan document must be an object"):
            load_document([1, 2, 3])

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(PlanError, match="not valid JSON"):
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
        with pytest.raises(PlanError, match="unknown key 'population' in section 'es'"):
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

    def test_override_key_whitelists(self):
        assert "sigma_init" in ES_OVERRIDE_KEYS
        assert "resolution" in ORACLE_OVERRIDE_KEYS
        assert "seed" in ES_OVERRIDE_KEYS
