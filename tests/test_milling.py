"""Model-layer tests: derived coefficients, cost/time/profit, constraint
margins, the death-penalty objective, and the vectorized evaluator.

Expected numbers are frozen from independent hand arithmetic over the
documented formulas, not read back from the implementation.
"""

from __future__ import annotations

import dataclasses
import math
import warnings
from decimal import Context, Decimal, localcontext

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from millopt import (
    ContractError,
    DecisionVector,
    builtin_case,
    DerivedCoefficients,
    DomainError,
    EconomicConstants,
    MillingPlan,
    OperationKind,
    OperationSpec,
    PlanError,
    ToolKind,
    ToolQuality,
    ToolSpec,
    constraint_margins,
    derive_coefficients,
    fitness,
    profit_rate,
    unit_cost,
    unit_time,
)
from millopt.es import EsConfig, initial_state, run, step
from millopt.milling import (
    FEED_LIMITS,
    SPEED_LIMITS,
    PricingBuffers,
    _cost_floor,
    _cutting_force as cutting_force,
    _relative_error,
    batch_evaluate,
    compile_context,
    feasible_polygons,
    operation_minima,
    plan_warnings,
    v_max,
)
from millopt.oracle import GridSpec, dinkelbach_solve, solve_exact

from conftest import (
    CARBIDE_FACE_MILL,
    STANDARD_ECONOMICS,
    STANDARD_MACHINE,
    accepted_power,
    batch_v_max,
    single_face_plan,
    step_up_while,
    two_op_plan,
)
from test_acceptance import random_plan

# Hand arithmetic, frozen: pi * diameter * travel / (1000 * teeth).
EXPECTED_K1 = (
    11.780972450961725,  # pi * 50 * 450 / 6000
    0.7068583470577035,  # pi * 10 * 90 / 4000
    3.5342917352885173,  # pi * 10 * 450 / 4000
    0.30159289474462014,  # pi * 12 * 32 / 4000
    0.7916813487046279,  # pi * 12 * 84 / 4000
)

# Hand arithmetic, frozen: k1 * (wear_factor / taylor_constant)**(1/life_exponent).
EXPECTED_K3 = (
    3.4815003863680857e-06,  # 11.780972 * (1.1/100.05)**(1/0.3)
    8.26281054279818e-11,  # 0.706858 * (1.1/33.98)**(1/0.15)
    4.1314052713990905e-10,
    3.52546583159389e-11,
    9.254347807933964e-11,
)

# Hand arithmetic, frozen:
# 0.78 * power_constant * wear_factor * teeth * radial * axial
#   / (60 * pi * diameter * efficiency * motor_power).
EXPECTED_C5 = (
    0.07576051225440883,
    0.01262675204240147,
    0.05050700816960588,
    0.042089173474671566,
    0.010522293368667892,
)

# Hand arithmetic, frozen: 318 / ((tan 45 + cot 5) * 2) for the face mill,
# 318 / (4 * diameter * roughness) for the end mills.
EXPECTED_C6_OP1 = 12.791579321406239
EXPECTED_C7 = {1: 1.325, 2: 1.59, 4: 6.625}  # by op index


def _load_hypothesis_case():
    plan, _ = builtin_case()
    return plan, derive_coefficients(plan)


_HYPOTHESIS_CASE = _load_hypothesis_case()


def feasible_builtin_point() -> DecisionVector:
    """A hand-picked interior point satisfying every builtin-case margin."""
    return DecisionVector(
        speeds=(80.0, 45.0, 40.0, 35.0, 32.0),
        feeds=(0.07, 0.3, 0.3, 0.4, 0.3),
    )


class TestDerivedCoefficients:
    def test_k1_values(self, builtin_coeffs):
        for got, expected in zip(builtin_coeffs, EXPECTED_K1):
            assert got.k1 == pytest.approx(expected, rel=1e-12)

    def test_k1_op1_matches_three_decimal_check(self, builtin_coeffs):
        assert builtin_coeffs[0].k1 == pytest.approx(11.781, abs=5e-4)

    def test_k3_values(self, builtin_coeffs):
        for got, expected in zip(builtin_coeffs, EXPECTED_K3):
            assert got.k3 == pytest.approx(expected, rel=1e-12)

    def test_c5_values(self, builtin_coeffs):
        for got, expected in zip(builtin_coeffs, EXPECTED_C5):
            assert got.c5 == pytest.approx(expected, rel=1e-12)

    def test_finish_coefficients(self, builtin_coeffs):
        assert builtin_coeffs[0].c6 == pytest.approx(EXPECTED_C6_OP1, rel=1e-12)
        assert builtin_coeffs[0].c7 is None
        for idx, expected in EXPECTED_C7.items():
            assert builtin_coeffs[idx].c6 is None
            assert builtin_coeffs[idx].c7 == pytest.approx(expected, rel=1e-12)
        # op 4 (index 3) has no finish requirement at all
        assert builtin_coeffs[3].c6 is None and builtin_coeffs[3].c7 is None

    def test_no_force_coefficient_without_permitted_force(self, builtin_coeffs):
        assert all(c.c8 is None for c in builtin_coeffs)

    def test_force_coefficient_is_reciprocal_of_limit(self):
        plan = single_face_plan()
        tool = plan.tools[0]
        limited = ToolSpec(
            **{**tool.__dict__, "permitted_force": 4000.0}
        )
        plan2 = MillingPlan(
            economics=plan.economics,
            machine=plan.machine,
            tools=(limited,),
            operations=plan.operations,
        )
        coeffs = derive_coefficients(plan2)
        assert coeffs[0].c8 == pytest.approx(1.0 / 4000.0, rel=1e-15)

    def test_k3_override_is_used_verbatim(self):
        plan = single_face_plan()
        op = plan.operations[0]
        overridden = OperationSpec(**{**op.__dict__, "k3_override": 1.25e-6})
        plan2 = MillingPlan(
            economics=plan.economics,
            machine=plan.machine,
            tools=plan.tools,
            operations=(overridden,),
        )
        assert derive_coefficients(plan2)[0].k3 == 1.25e-6

    def test_coefficient_positivity(self, builtin_coeffs):
        for c in builtin_coeffs:
            assert c.k1 > 0 and c.k3 > 0 and c.c5 > 0
            for extra in (c.c6, c.c7, c.c8):
                assert extra is None or extra > 0

    def test_both_finish_coefficients_rejected(self):
        with pytest.raises(PlanError):
            DerivedCoefficients(k1=1.0, k3=1.0, c5=1.0, c6=1.0, c7=1.0)


def machining_time(plan: MillingPlan, op_index: int, v: float, f: float) -> float:
    """unit_time of plan cut down to operation op_index, with no setup and
    no tool change time: that operation's machining time k1 / (v * f)."""
    op = plan.operations[op_index]
    single = MillingPlan(
        economics=dataclasses.replace(plan.economics, setup_time=0.0),
        machine=plan.machine,
        tools=(dataclasses.replace(plan.tool_for(op), change_time=0.0),),
        operations=(op,),
    )
    return unit_time(single, DecisionVector(speeds=(v,), feeds=(f,)), derive_coefficients(single))


class TestMachiningTime:
    def test_hand_values(self, builtin_plan):
        assert machining_time(builtin_plan, 0, 100.0, 0.1) == pytest.approx(1.1780972450961725, rel=1e-12)
        assert machining_time(builtin_plan, 0, 100.0, 0.1) == pytest.approx(1.178, abs=5e-4)
        assert machining_time(builtin_plan, 0, 100.0, 0.2) == pytest.approx(0.589, abs=5e-4)

    def test_doubling_speed_halves_time(self, builtin_plan):
        assert machining_time(builtin_plan, 0, 200.0, 0.1) == pytest.approx(
            machining_time(builtin_plan, 0, 100.0, 0.1) / 2.0, rel=1e-15
        )

    def test_rejects_nonpositive_inputs(self, builtin_plan, builtin_coeffs):
        for v, f in ((0.0, 0.1), (100.0, -0.1)):
            with pytest.raises(DomainError):
                machining_time(builtin_plan, 0, v, f)
            x = DecisionVector(speeds=(v, 40.0, 40.0, 30.0, 31.3), feeds=(f, 0.325, 0.325, 0.5, 0.388))
            with pytest.raises(DomainError):
                unit_cost(builtin_plan, x, builtin_coeffs)


class TestUnitTimeAndCost:
    def test_empty_plan_reduces_to_fixed_terms(self):
        plan = MillingPlan(
            economics=STANDARD_ECONOMICS,
            machine=STANDARD_MACHINE,
            tools=(CARBIDE_FACE_MILL,),
            operations=(),
        )
        x = DecisionVector(speeds=(), feeds=())
        assert unit_time(plan, x, ()) == pytest.approx(2.0, abs=1e-15)
        # material 0.50 plus (0.45 + 1.45) * 2 minutes of setup
        assert unit_cost(plan, x, ()) == pytest.approx(4.30, abs=1e-12)

    def test_single_op_time_composition(self):
        eco = EconomicConstants(
            sale_price=25.0, material_cost=0.5, labor_rate=0.45, overhead_rate=1.45, setup_time=0.0
        )
        tool = ToolSpec(**{**CARBIDE_FACE_MILL.__dict__, "change_time": 0.0})
        plan = single_face_plan()
        op = plan.operations[0]
        # arrange travel so k1 equals the five-op case's first coefficient
        op = OperationSpec(**{**op.__dict__, "travel": 450.0})
        plan2 = MillingPlan(economics=eco, machine=STANDARD_MACHINE, tools=(tool,), operations=(op,))
        coeffs = derive_coefficients(plan2)
        x = DecisionVector(speeds=(100.0,), feeds=(0.1,))
        assert unit_time(plan2, x, coeffs) == pytest.approx(1.178, abs=5e-4)

    def test_unit_time_includes_setup_and_changes(self, builtin_plan, builtin_coeffs):
        x = feasible_builtin_point()
        total = unit_time(builtin_plan, x, builtin_coeffs)
        machining = sum(builtin_coeffs[i].k1 / (x.speeds[i] * x.feeds[i]) for i in range(5))
        assert total == pytest.approx(2.0 + machining + 5 * 0.5, rel=1e-12)

    def test_doubling_tool_price_doubles_only_tool_cost(self, builtin_plan, builtin_coeffs):
        x = feasible_builtin_point()
        base_cost = unit_cost(builtin_plan, x, builtin_coeffs)
        doubled_tools = tuple(
            ToolSpec(**{**t.__dict__, "price": 2.0 * t.price}) for t in builtin_plan.tools
        )
        plan2 = MillingPlan(
            economics=builtin_plan.economics,
            machine=builtin_plan.machine,
            tools=doubled_tools,
            operations=builtin_plan.operations,
        )
        coeffs2 = derive_coefficients(plan2)
        doubled_cost = unit_cost(plan2, x, coeffs2)
        rate = builtin_plan.economics.minute_rate
        non_tool = (
            builtin_plan.economics.material_cost
            + rate * unit_time(builtin_plan, x, builtin_coeffs)
        )
        tool_part = base_cost - non_tool
        assert doubled_cost - base_cost == pytest.approx(tool_part, rel=1e-10)

    def test_dimension_mismatch_rejected(self, builtin_plan, builtin_coeffs):
        short = DecisionVector(speeds=(80.0,), feeds=(0.1,))
        with pytest.raises(ContractError):
            unit_time(builtin_plan, short, builtin_coeffs)
        with pytest.raises(ContractError):
            unit_cost(builtin_plan, short, builtin_coeffs)


class TestProfitRate:
    def test_table_style_compositions(self):
        # (25 - 10.91) / 5.00 and (25 - 18.36) / 9.40, plain arithmetic
        assert (25.0 - 10.91) / 5.00 == pytest.approx(2.818, abs=5e-4)
        assert (25.0 - 18.36) / 9.40 == pytest.approx(0.706, abs=5e-4)

    def test_zero_when_cost_equals_price(self, toy_single_plan):
        coeffs = derive_coefficients(toy_single_plan)
        x = DecisionVector(speeds=(90.0,), feeds=(0.2,))
        cost = unit_cost(toy_single_plan, x, coeffs)
        eco = toy_single_plan.economics
        adjusted = EconomicConstants(
            sale_price=cost,
            material_cost=eco.material_cost,
            labor_rate=eco.labor_rate,
            overhead_rate=eco.overhead_rate,
            setup_time=eco.setup_time,
        )
        plan2 = MillingPlan(
            economics=adjusted,
            machine=toy_single_plan.machine,
            tools=toy_single_plan.tools,
            operations=toy_single_plan.operations,
        )
        assert profit_rate(plan2, x, derive_coefficients(plan2)) == pytest.approx(0.0, abs=1e-12)

    @given(
        speeds=st.tuples(*[st.floats(60.0, 120.0) for _ in range(1)]),
        feeds=st.tuples(*[st.floats(0.05, 0.4) for _ in range(1)]),
    )
    @settings(max_examples=60, deadline=None)
    def test_identity_price_recovered(self, speeds, feeds):
        plan = single_face_plan()
        coeffs = derive_coefficients(plan)
        x = DecisionVector(speeds=speeds, feeds=feeds)
        value = profit_rate(plan, x, coeffs) * unit_time(plan, x, coeffs) + unit_cost(
            plan, x, coeffs
        )
        assert value == pytest.approx(plan.economics.sale_price, rel=1e-12)


class TestCuttingForce:
    def test_hand_value(self, builtin_plan):
        # 780 * 2.24 * 1.1 * 6 * 50 * 10 * 0.1**0.8 / (pi * 50)
        assert cutting_force(0, 0.1, builtin_plan) == pytest.approx(
            5817.503910268427, rel=1e-12
        )

    def test_power_law_scaling(self, builtin_plan):
        ratio = cutting_force(0, 0.2, builtin_plan) / cutting_force(0, 0.1, builtin_plan)
        assert ratio == pytest.approx(2.0**0.8, rel=1e-12)

    @given(
        v=st.floats(1.0, 500.0),
        f=st.floats(0.01, 1.0),
        op_index=st.integers(0, 4),
    )
    @settings(max_examples=80, deadline=None)
    def test_force_and_power_margins_agree(self, v, f, op_index):
        plan, coeffs = _HYPOTHESIS_CASE
        machine = plan.machine
        power_margin = coeffs[op_index].c5 * v * f**0.8
        power_kw = cutting_force(op_index, f, plan) * v / 60000.0
        assert power_margin == pytest.approx(
            power_kw / (machine.efficiency * machine.motor_power), rel=1e-12
        )

    def test_power_margin_of_one_means_full_motor_power(self, builtin_plan, builtin_coeffs):
        c5 = builtin_coeffs[0].c5
        v = 90.0
        f = (1.0 / (c5 * v)) ** (1.0 / 0.8)
        power_kw = cutting_force(0, f, builtin_plan) * v / 60000.0
        limit = builtin_plan.machine.efficiency * builtin_plan.machine.motor_power
        assert power_kw == pytest.approx(limit, rel=1e-12)

    def test_rejects_nonpositive_feed(self, builtin_plan):
        with pytest.raises(DomainError):
            cutting_force(0, 0.0, builtin_plan)


class TestConstraintMargins:
    def test_finish_margin_boundary_values(self, builtin_plan, builtin_coeffs):
        x = feasible_builtin_point()
        tight = DecisionVector(speeds=x.speeds, feeds=(0.0782,) + x.feeds[1:])
        margins = constraint_margins(builtin_plan, tight, builtin_coeffs)
        assert margins[0].finish == pytest.approx(1.0003, abs=5e-5)
        assert not margins[0].finish_ok

        loose = DecisionVector(speeds=x.speeds, feeds=(0.078,) + x.feeds[1:])
        margins = constraint_margins(builtin_plan, loose, builtin_coeffs)
        assert margins[0].finish == pytest.approx(0.9977, abs=5e-5)
        assert margins[0].finish_ok

    def test_speed_box_violation_flagged(self, builtin_plan, builtin_coeffs):
        x = feasible_builtin_point()
        below = DecisionVector(speeds=(59.0,) + x.speeds[1:], feeds=x.feeds)
        margins = constraint_margins(builtin_plan, below, builtin_coeffs)
        assert not margins[0].speed_ok
        assert not margins[0].satisfied

    def test_all_margins_satisfied_at_interior_point(self, toy_single_plan):
        coeffs = derive_coefficients(toy_single_plan)
        mid = DecisionVector(speeds=(90.0,), feeds=(0.225,))
        margins = constraint_margins(toy_single_plan, mid, coeffs)
        assert all(m.satisfied for m in margins)
        assert margins[0].power <= 1.0
        assert margins[0].finish is None  # satisfied by absence
        assert margins[0].force is None

    def test_finish_margin_matches_roughness_form(self, builtin_plan, builtin_coeffs):
        # face mill: margin = (318*f/(tan la + cot ca)) / roughness
        op = builtin_plan.operations[0]
        tool = builtin_plan.tool_for(op)
        f = 0.07
        direct = (
            318.0
            * f
            / (math.tan(math.radians(tool.lead_angle)) + 1.0 / math.tan(math.radians(tool.clearance_angle)))
        ) / op.surface_finish_req
        x = feasible_builtin_point()
        probed = DecisionVector(speeds=x.speeds, feeds=(f,) + x.feeds[1:])
        margins = constraint_margins(builtin_plan, probed, builtin_coeffs)
        assert margins[0].finish == pytest.approx(direct, rel=1e-12)
        # end mill: margin = (318*f^2/(4d)) / roughness
        op3 = builtin_plan.operations[2]
        tool3 = builtin_plan.tool_for(op3)
        f3 = probed.feeds[2]
        direct3 = (318.0 * f3**2 / (4.0 * tool3.diameter)) / op3.surface_finish_req
        assert margins[2].finish == pytest.approx(direct3, rel=1e-12)

    def test_force_margin_present_only_with_limit(self):
        plan = single_face_plan()
        tool = ToolSpec(**{**plan.tools[0].__dict__, "permitted_force": 3000.0})
        plan2 = MillingPlan(
            economics=plan.economics,
            machine=plan.machine,
            tools=(tool,),
            operations=plan.operations,
        )
        coeffs2 = derive_coefficients(plan2)
        x = DecisionVector(speeds=(90.0,), feeds=(0.2,))
        margin = constraint_margins(plan2, x, coeffs2)[0]
        assert margin.force == pytest.approx(cutting_force(0, 0.2, plan2) / 3000.0, rel=1e-12)

    def test_margin_names_and_order(self, toy_single_plan):
        coeffs = derive_coefficients(toy_single_plan)
        margin = constraint_margins(
            toy_single_plan, DecisionVector((90.0,), (0.2,)), coeffs
        )[0]
        names = [field.name for field in dataclasses.fields(margin)]
        assert names == ["operation", "power", "finish", "force", "speed_ok", "feed_ok"]
        limits = (margin.power_ok, margin.finish_ok, margin.force_ok, margin.speed_ok, margin.feed_ok)
        assert margin.satisfied == all(limits)


class TestFitness:
    def test_out_of_box_speed_gets_zero(self, builtin_plan, builtin_coeffs):
        x = feasible_builtin_point()
        hot = DecisionVector(speeds=(200.0,) + x.speeds[1:], feeds=x.feeds)
        assert fitness(builtin_plan, hot, builtin_coeffs) == 0.0

    def test_feasible_point_scores_its_profit_rate(self, builtin_plan, builtin_coeffs):
        x = feasible_builtin_point()
        assert all(m.satisfied for m in constraint_margins(builtin_plan, x, builtin_coeffs))
        assert fitness(builtin_plan, x, builtin_coeffs) == profit_rate(
            builtin_plan, x, builtin_coeffs
        )

    def test_boundary_margin_counts_as_feasible(self, toy_single_plan):
        coeffs = derive_coefficients(toy_single_plan)
        c5 = coeffs[0].c5
        v = 120.0
        f = (1.0 / (c5 * v)) ** (1.0 / 0.8)
        assert 0.05 <= f <= 0.4  # stays inside the feed box
        x = DecisionVector(speeds=(v,), feeds=(f,))
        margin = constraint_margins(toy_single_plan, x, coeffs)[0]
        assert margin.power == pytest.approx(1.0, rel=1e-12)
        assert margin.satisfied
        assert fitness(toy_single_plan, x, coeffs) == profit_rate(toy_single_plan, x, coeffs)
        assert fitness(toy_single_plan, x, coeffs) > 0.0


class TestValidation:
    def test_sale_price_must_exceed_material_cost(self):
        with pytest.raises(PlanError):
            EconomicConstants(
                sale_price=1.0, material_cost=2.0, labor_rate=0.1, overhead_rate=0.1, setup_time=1.0
            )

    def test_clearance_angle_zero_rejected(self):
        with pytest.raises(PlanError):
            ToolSpec(**{**CARBIDE_FACE_MILL.__dict__, "clearance_angle": 0.0})

    @pytest.mark.parametrize(
        ("spec", "name", "message"),
        [
            ("tool", "id", "tool.id must be a non-negative integer"),
            ("tool", "teeth", "tool 1: teeth must be an integer >= 1"),
            ("operation", "number", "operation.number must be a non-negative integer"),
            ("operation", "tool_id", "operation 1: tool_id must be an integer"),
        ],
        ids=["tool.id", "tool.teeth", "operation.number", "operation.tool_id"],
    )
    def test_booleans_are_not_integers(self, toy_single_plan, spec, name, message):
        base = CARBIDE_FACE_MILL if spec == "tool" else toy_single_plan.operations[0]
        with pytest.raises(PlanError, match=f"^{message}$"):
            dataclasses.replace(base, **{name: True})

    @pytest.mark.parametrize(
        ("spec", "changes", "error", "message"),
        [
            ("economics", {"material_cost": True}, PlanError, "economics.material_cost must be finite and >= 0"),
            ("machine", {"motor_power": True}, PlanError, "machine.motor_power must be > 0"),
            ("machine", {"efficiency": True}, PlanError, r"machine.efficiency must be in \(0, 1\]"),
            ("tool", {"diameter": True}, PlanError, "tool 1: diameter must be > 0"),
            (
                "operation",
                {"speed_bounds": (True, 100.0)},
                PlanError,
                "operation 1: speed_bounds must satisfy 0 < lower <= upper",
            ),
            (
                "operation",
                {"feed_bounds": (0.05, True)},
                PlanError,
                "operation 1: feed_bounds must satisfy 0 < lower <= upper",
            ),
            ("point", {"speeds": (True,)}, DomainError, "speeds and feeds must be finite numbers"),
        ],
        ids=[
            "economics.material_cost",
            "machine.motor_power",
            "machine.efficiency",
            "tool.diameter",
            "operation.speed_bounds",
            "operation.feed_bounds",
            "decision_vector",
        ],
    )
    def test_booleans_are_not_numbers(self, toy_single_plan, spec, changes, error, message):
        base = {
            "economics": STANDARD_ECONOMICS,
            "machine": STANDARD_MACHINE,
            "tool": CARBIDE_FACE_MILL,
            "operation": toy_single_plan.operations[0],
            "point": DecisionVector(speeds=(100.0,), feeds=(0.1,)),
        }[spec]
        with pytest.raises(error, match=f"^{message}$"):
            dataclasses.replace(base, **changes)

    def test_duplicate_operation_numbers_rejected(self, toy_single_plan):
        op = toy_single_plan.operations[0]
        with pytest.raises(PlanError):
            MillingPlan(
                economics=toy_single_plan.economics,
                machine=toy_single_plan.machine,
                tools=toy_single_plan.tools,
                operations=(op, op),
            )

    def test_dangling_tool_reference_rejected(self, toy_single_plan):
        op = OperationSpec(**{**toy_single_plan.operations[0].__dict__, "tool_id": 9})
        with pytest.raises(PlanError):
            MillingPlan(
                economics=toy_single_plan.economics,
                machine=toy_single_plan.machine,
                tools=toy_single_plan.tools,
                operations=(op,),
            )

    def test_decision_vector_length_mismatch(self):
        with pytest.raises(ContractError):
            DecisionVector(speeds=(1.0, 2.0), feeds=(0.1,))

    def test_decision_vector_rejects_non_finite(self):
        with pytest.raises(DomainError):
            DecisionVector(speeds=(float("nan"),), feeds=(0.1,))

    def test_genome_round_trip(self):
        x = DecisionVector(speeds=(80.0, 45.0), feeds=(0.1, 0.2))
        again = DecisionVector.from_genome(np.array(x.speeds + x.feeds))
        assert again == x
        with pytest.raises(ContractError):
            DecisionVector.from_genome(np.array([1.0, 2.0, 3.0]))

    def test_default_boxes_by_kind(self):
        assert SPEED_LIMITS[OperationKind.FACE] == (60.0, 120.0)
        assert SPEED_LIMITS[OperationKind.CORNER] == (40.0, 70.0)
        assert SPEED_LIMITS[OperationKind.POCKET] == (40.0, 70.0)
        assert SPEED_LIMITS[OperationKind.SLOT] == (30.0, 50.0)
        assert FEED_LIMITS[OperationKind.FACE] == (0.05, 0.4)
        for kind in (OperationKind.CORNER, OperationKind.POCKET, OperationKind.SLOT):
            assert FEED_LIMITS[kind] == (0.05, 0.5)
        assert set(SPEED_LIMITS) == set(FEED_LIMITS) == set(OperationKind)


class TestMonotonicity:
    @given(
        v=st.floats(61.0, 119.0),
        f=st.floats(0.06, 0.39),
        bump=st.floats(0.5, 5.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_unit_time_strictly_decreasing_in_speed_and_feed(self, v, f, bump):
        plan = single_face_plan()
        coeffs = derive_coefficients(plan)
        base = unit_time(plan, DecisionVector((v,), (f,)), coeffs)
        faster = unit_time(plan, DecisionVector((v + bump,), (f,)), coeffs)
        heavier = unit_time(plan, DecisionVector((v,), (f + bump * 0.001,)), coeffs)
        assert faster < base
        assert heavier < base

    @given(v=st.floats(61.0, 110.0), f=st.floats(0.06, 0.39), bump=st.floats(1.0, 9.0))
    @settings(max_examples=60, deadline=None)
    def test_tool_wear_cost_increases_with_speed(self, v, f, bump):
        plan = single_face_plan()
        coeffs = derive_coefficients(plan)
        tool = plan.tools[0]
        rate = plan.economics.minute_rate

        def tool_cost(speed: float) -> float:
            x = DecisionVector((speed,), (f,))
            return (
                unit_cost(plan, x, coeffs)
                - plan.economics.material_cost
                - rate * unit_time(plan, x, coeffs)
            )

        assert tool_cost(v + bump) > tool_cost(v)


def assert_batch_matches_scalar(plan, coeffs, genomes) -> np.ndarray:
    """Every row priced by batch_evaluate as by the scalar functions, with
    exactly the same feasibility verdict; returns the verdicts."""
    batch = batch_evaluate(compile_context(plan), genomes)
    for row in range(genomes.shape[0]):
        x = DecisionVector.from_genome(genomes[row])
        assert batch.unit_cost[row] == pytest.approx(unit_cost(plan, x, coeffs), rel=1e-12)
        assert batch.unit_time[row] == pytest.approx(unit_time(plan, x, coeffs), rel=1e-12)
        scalar_fit = fitness(plan, x, coeffs)
        if scalar_fit == 0.0:
            assert batch.fitness[row] == 0.0
        else:
            assert batch.fitness[row] == pytest.approx(scalar_fit, rel=1e-12)
        assert bool(batch.feasible[row]) == all(
            m.satisfied for m in constraint_margins(plan, x, coeffs)
        )
    return batch.feasible


FEED_LIMITS_NAMED = {"face_finish", "end_finish", "force"}


def broken_limits(plan, coeffs, genome, op_index) -> set[str]:
    """Names of the scalar limits that operation op_index breaks at genome,
    the finish limit named by its tool kind."""
    margin = constraint_margins(plan, DecisionVector.from_genome(genome), coeffs)[op_index]
    finish = "face_finish" if coeffs[op_index].c6 is not None else "end_finish"
    limits = {
        "power": margin.power_ok,
        finish: margin.finish_ok,
        "force": margin.force_ok,
        "speed_box": margin.speed_ok,
        "feed_box": margin.feed_ok,
    }
    return {name for name, ok in limits.items() if not ok}


class TestFeedCap:
    def test_cap_is_largest_feed_the_scalar_margins_accept(self):
        rng = np.random.default_rng(20261018)
        binding: dict[str, int] = {}
        for _ in range(2000):
            plan = random_plan(rng)
            coeffs = derive_coefficients(plan)
            ctx = compile_context(plan)
            for i, op in enumerate(plan.operations):
                cap = float(ctx.feed_cap[i])
                assert cap <= op.feed_bounds[1]
                genome = ctx.lower.copy()
                genome[plan.m + i] = cap
                assert not broken_limits(plan, coeffs, genome, i) & FEED_LIMITS_NAMED
                if cap < op.feed_bounds[1]:
                    genome[plan.m + i] = math.nextafter(cap, math.inf)
                    broken = broken_limits(plan, coeffs, genome, i) & FEED_LIMITS_NAMED
                    assert broken
                    for name in broken:
                        binding[name] = binding.get(name, 0) + 1
        # face- and end-mill finish caps and force caps all bind somewhere
        assert set(binding) == FEED_LIMITS_NAMED
        assert sum(binding.values()) >= 1000


class TestBatchEvaluate:
    def test_matches_scalar_functions(self, builtin_plan, builtin_coeffs):
        rng = np.random.default_rng(7)
        ctx = compile_context(builtin_plan)
        lower, upper = ctx.lower, ctx.upper
        # widened sampling box brings in out-of-box and infeasible points
        genomes = rng.uniform(lower * 0.8, upper * 1.15, size=(64, lower.size))
        assert_batch_matches_scalar(builtin_plan, builtin_coeffs, genomes)

        # Random plans bring force limits and face- and end-mill finish
        # limits; three hand-made ones make sure each limit binds.  Besides
        # random rows, each operation's feed is put exactly at its cap and
        # one ulp above, once from the lowest corner and once from a random
        # row, where only that limit can decide.
        face = single_face_plan()
        two_op = two_op_plan()
        plans = [
            dataclasses.replace(face, tools=(dataclasses.replace(face.tools[0], permitted_force=2500.0),)),
            dataclasses.replace(
                face, operations=(dataclasses.replace(face.operations[0], surface_finish_req=4.0),)
            ),
            dataclasses.replace(
                two_op,
                operations=(
                    dataclasses.replace(two_op.operations[0], surface_finish_req=1.0),
                    two_op.operations[1],
                ),
            ),
        ]
        plan_rng = np.random.default_rng(71)
        plans += [random_plan(plan_rng) for _ in range(300)]
        flips: dict[str, int] = {}
        for plan in plans:
            coeffs = derive_coefficients(plan)
            ctx = compile_context(plan)
            lower, upper = ctx.lower, ctx.upper
            m = plan.m
            random_rows = plan_rng.uniform(lower * 0.8, upper * 1.15, size=(8, lower.size))
            edge_rows = []
            for base in (lower, plan_rng.uniform(lower, upper)):
                for i in range(m):
                    for f in (ctx.feed_cap[i], math.nextafter(ctx.feed_cap[i], math.inf)):
                        row = base.copy()
                        row[m + i] = f
                        edge_rows.append(row)
            verdicts = assert_batch_matches_scalar(
                plan, coeffs, np.vstack([random_rows, *edge_rows])
            )
            at_cap, above = verdicts[8::2], verdicts[9::2]
            for k in np.flatnonzero(at_cap & ~above):
                for name in broken_limits(plan, coeffs, edge_rows[2 * k + 1], k % m):
                    flips[name] = flips.get(name, 0) + 1
        # the one-ulp step decides feasibility through every kind of cap
        assert set(flips) == FEED_LIMITS_NAMED | {"feed_box"}

    def test_rejects_wrong_width(self, builtin_plan):
        ctx = compile_context(builtin_plan)
        with pytest.raises(ContractError):
            batch_evaluate(ctx, np.ones((3, 7)))

    def test_rejects_nonpositive_entries(self, builtin_plan):
        ctx = compile_context(builtin_plan)
        bad = np.full((1, 10), 0.2)
        bad[0, 0] = -1.0
        with pytest.raises(DomainError):
            batch_evaluate(ctx, bad)

    @pytest.mark.parametrize("entry", [-1.0, 0.0, -0.0, math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("column", [0, 9])
    def test_rejects_nonpositive_and_nonfinite_entries(self, builtin_plan, entry, column):
        ctx = compile_context(builtin_plan)
        bad = np.full((3, 10), 0.2)
        bad[1, column] = entry
        with pytest.raises(DomainError):
            batch_evaluate(ctx, bad)

    def test_empty_batch_evaluates_to_empty_arrays(self, builtin_plan):
        ctx = compile_context(builtin_plan)
        result = batch_evaluate(ctx, np.empty((0, 10)))
        for values in (result.fitness, result.unit_cost, result.unit_time, result.feasible):
            assert values.shape == (0,)

    def test_box_test_follows_a_replaced_feed_cap(self, builtin_plan):
        # feasible_upper is derived from feed_cap, so replacing feed_cap
        # moves the feed half of the box test with it
        ctx = compile_context(builtin_plan)
        assert np.array_equal(ctx.feasible_upper, np.concatenate((ctx.upper[:5], ctx.feed_cap)))
        assert batch_evaluate(ctx, ctx.lower).feasible[0]
        capped = dataclasses.replace(ctx, feed_cap=np.where(np.arange(5) == 2, 0.0, ctx.feed_cap))
        assert np.array_equal(capped.feasible_upper[5:], capped.feed_cap)
        assert not batch_evaluate(capped, ctx.lower).feasible[0]
        # and so is corner, so the replaced context reads its corner, and
        # with it the plan, as infeasible
        assert ctx.corner.feasible[0] and not capped.corner.feasible[0]


def reference_batch_evaluate(ctx, genomes):
    """Genome-major form of batch_evaluate: v and f are column slices of
    the (n, 2m) batch and every constant broadcasts as a row.
    batch_evaluate must return exactly what this returns."""
    points = np.atleast_2d(np.asarray(genomes, dtype=float))
    m = ctx.m
    v = points[:, :m]
    f = points[:, m:]
    t_machining = v * f
    np.divide(ctx.k1, t_machining, out=t_machining)
    machining = t_machining.sum(axis=1)
    wear = v**ctx.speed_exponent
    wear *= ctx.tool_cost_coef
    wear *= f**ctx.feed_exponent
    time_total = ctx.time_fixed + machining
    cost_total = ctx.cost_fixed + ctx.rate * machining + wear.sum(axis=1)
    power = ctx.c5 * v
    power *= f**0.8
    box = points >= ctx.lower
    box &= points <= ctx.feasible_upper
    feasible = (power <= 1.0).all(axis=1) & box.all(axis=1)
    rate_of_profit = (ctx.sale_price - cost_total) / time_total
    return np.where(feasible, rate_of_profit, 0.0), cost_total, time_total, feasible


def assert_matches_reference(ctx, genomes) -> None:
    got = batch_evaluate(ctx, genomes)
    want = reference_batch_evaluate(ctx, genomes)
    for name, expected in zip(("fitness", "unit_cost", "unit_time", "feasible"), want):
        assert np.array_equal(getattr(got, name), expected), name


def repeated_plan(plan: MillingPlan, times: int) -> MillingPlan:
    """plan with its operations listed `times` times, renumbered."""
    ops = plan.operations
    return dataclasses.replace(
        plan,
        operations=tuple(
            dataclasses.replace(op, number=op.number + k * len(ops)) for k in range(times) for op in ops
        ),
    )


def first_operations(plan: MillingPlan, m: int) -> MillingPlan:
    """plan cut or, by repeated_plan, extended to its first m operations."""
    longer = repeated_plan(plan, -(-m // plan.m))
    return dataclasses.replace(longer, operations=longer.operations[:m])


def boundary_rows(ctx, rng) -> np.ndarray:
    """Rows from a random in-box base with one operation's feed exactly at
    its cap, or its speed at the largest double that batch_evaluate's
    power test accepts at that feed, and one ulp above each."""
    m = ctx.m
    base = rng.uniform(ctx.lower, ctx.upper)
    rows = []
    for i in range(m):
        for f in (ctx.feed_cap[i], math.nextafter(ctx.feed_cap[i], math.inf)):
            row = base.copy()
            row[m + i] = f
            rows.append(row)
        # f**0.8 through the array loop batch_evaluate uses
        feed_factor = float(np.power(base[m + i : m + i + 1], 0.8)[0])
        v = 1.0 / (ctx.c5[i] * feed_factor)
        while ctx.c5[i] * v * feed_factor > 1.0:
            v = math.nextafter(v, 0.0)
        while ctx.c5[i] * math.nextafter(v, math.inf) * feed_factor <= 1.0:
            v = math.nextafter(v, math.inf)
        for speed in (v, math.nextafter(v, math.inf)):
            row = base.copy()
            row[i] = speed
            rows.append(row)
    return np.array(rows)


class TestOperationMajorLayout:
    BATCH_SIZES = (0, 1, 2, 105, 333)

    def check_plan(self, plan, rng) -> None:
        ctx = compile_context(plan)
        for n in self.BATCH_SIZES:
            assert_matches_reference(ctx, rng.uniform(0.9 * ctx.lower, 1.2 * ctx.upper, size=(n, 2 * ctx.m)))
        edges = boundary_rows(ctx, rng)
        assert_matches_reference(ctx, edges)
        # one ulp above the power boundary is infeasible
        assert not batch_evaluate(ctx, edges[3::4]).feasible.any()

    def test_bit_identical_to_genome_major_on_random_plans(self):
        rng = np.random.default_rng(1405)
        for _ in range(300):
            self.check_plan(random_plan(rng), rng)

    @pytest.mark.parametrize("times", [2, 3, 4])
    def test_bit_identical_to_genome_major_with_eight_or_more_operations(self, builtin_plan, times):
        # from m = 8 numpy sums a row through partial sums
        self.check_plan(repeated_plan(builtin_plan, times), np.random.default_rng(times))

    def test_one_dimensional_genome_is_one_row(self, builtin_plan):
        ctx = compile_context(builtin_plan)
        genome = np.random.default_rng(3).uniform(ctx.lower, ctx.upper)
        assert_matches_reference(ctx, genome)
        assert batch_evaluate(ctx, genome).fitness.shape == (1,)

    @pytest.mark.parametrize("m", [7, 8])
    def test_bit_identical_to_genome_major_either_side_of_eight_operations(self, builtin_plan, m):
        # below eight terms batch_evaluate sums down the operations, from
        # eight on it sums genome-major rows
        self.check_plan(first_operations(builtin_plan, m), np.random.default_rng(m))

    @pytest.mark.parametrize("m", [5, 7, 8])
    def test_one_context_across_batch_sizes(self, builtin_plan, m):
        # every call repeats the constants of the context it is given for
        # its own batch size, so no batch size or replaced context sees
        # another's
        ctx = compile_context(first_operations(builtin_plan, m))
        rng = np.random.default_rng(m)
        for context in (ctx, dataclasses.replace(ctx, k1=2 * ctx.k1)):
            for n in (105, 1, 333, 105):
                genomes = rng.uniform(0.9 * context.lower, 1.2 * context.upper, size=(n, 2 * m))
                assert_matches_reference(context, genomes)

    def test_replace_rebuilds_batch_constants(self, builtin_plan):
        ctx = compile_context(builtin_plan)
        genomes = np.random.default_rng(4).uniform(ctx.lower, ctx.upper, size=(64, 10))
        assert_matches_reference(ctx, genomes)
        changed = dataclasses.replace(
            ctx,
            feed_cap=ctx.feed_cap * 0.5,
            k1=ctx.k1 * 2.0,
            c5=ctx.c5 * 3.0,
            tool_cost_coef=ctx.tool_cost_coef * 5.0,
            speed_exponent=ctx.speed_exponent + 0.25,
            feed_exponent=ctx.feed_exponent - 0.25,
            lower=ctx.lower * 0.5,
        )
        repeated = ("k1", "tool_cost_coef", "speed_exponent", "feed_exponent", "c5", "lower", "feasible_upper")
        for n in (64, 1):
            buffers = PricingBuffers(changed, n)
            for name in repeated:
                assert np.array_equal(getattr(buffers, name), np.repeat(getattr(changed, name), n)), (name, n)
        genomes = np.random.default_rng(4).uniform(changed.lower, changed.upper, size=(64, 10))
        assert_matches_reference(changed, genomes)
        assert not np.array_equal(batch_evaluate(changed, genomes).unit_cost, batch_evaluate(ctx, genomes).unit_cost)


RESULT_FIELDS = ("fitness", "unit_cost", "unit_time", "feasible")


class TestPricingBuffers:
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 10), n=st.sampled_from((1, 3, 105)))
    @settings(max_examples=80, deadline=None)
    def test_reused_buffers_price_as_fresh_calls_and_fresh_calls_share_nothing(self, seed, m, n):
        # from m = 8 on the sums go through the genome-major copy
        rng = np.random.default_rng(seed)
        ctx = compile_context(first_operations(random_plan(rng), m))
        buffers = PricingBuffers(ctx, n)
        batches = [rng.uniform(0.9 * ctx.lower, 1.2 * ctx.upper, size=(n, 2 * m)) for _ in range(3)]
        for genomes in batches:
            reused = batch_evaluate(ctx, genomes, buffers)
            assert reused is buffers.result
            fresh = batch_evaluate(ctx, genomes)
            for name in RESULT_FIELDS:
                assert getattr(reused, name).tobytes() == getattr(fresh, name).tobytes(), name
        first, second = (batch_evaluate(ctx, genomes) for genomes in batches[:2])
        arrays = [getattr(result, name) for result in (first, second) for name in RESULT_FIELDS]
        for i, a in enumerate(arrays):
            assert not any(np.shares_memory(a, b) for b in arrays[i + 1 :] + batches)

    def test_buffers_serve_only_their_context_and_batch_size(self, builtin_plan):
        ctx = compile_context(builtin_plan)
        genomes = np.random.default_rng(6).uniform(ctx.lower, ctx.upper, size=(3, 10))
        buffers = PricingBuffers(ctx, 3)
        with pytest.raises(ContractError):
            batch_evaluate(ctx, genomes[:2], buffers)
        with pytest.raises(ContractError):
            batch_evaluate(compile_context(builtin_plan), genomes, buffers)


def with_wear(plan: MillingPlan, life_exponent: float) -> MillingPlan:
    """plan with every tool's life exponent set and every k3 overridden to 1."""
    return dataclasses.replace(
        plan,
        tools=tuple(dataclasses.replace(t, life_exponent=life_exponent) for t in plan.tools),
        operations=tuple(dataclasses.replace(op, k3_override=1.0) for op in plan.operations),
    )


class TestBoxPriceCheck:
    def test_overflow_at_the_lowest_corner(self, builtin_plan):
        plan = with_wear(builtin_plan, 0.004)
        with pytest.raises(DomainError, match="at the lowest speeds and feeds"):
            compile_context(plan)

    def test_overflow_only_above_the_lowest_corner(self, builtin_plan):
        plan = with_wear(builtin_plan, 1 / 151)
        coeffs = derive_coefficients(plan)
        corner = DecisionVector(
            speeds=tuple(op.speed_bounds[0] for op in plan.operations),
            feeds=tuple(op.feed_bounds[0] for op in plan.operations),
        )
        # the corner prices finitely; the fastest speeds do not
        assert math.isfinite(unit_cost(plan, corner, coeffs))
        with pytest.raises(DomainError, match="inside the speed and feed bounds"):
            compile_context(plan)

    @pytest.mark.parametrize("life_exponent", [0.1, 0.5, 1.0, 1.5, 2.0])
    def test_finite_plans_compile_and_price_without_warnings(self, builtin_plan, life_exponent):
        # a = 1/n - 1 takes both signs here, so both speed corners are read
        plan = with_wear(builtin_plan, life_exponent)
        with np.errstate(all="raise"):
            ctx = compile_context(plan)
            batch = batch_evaluate(ctx, np.random.default_rng(5).uniform(ctx.lower, ctx.upper, size=(64, 10)))
        assert np.isfinite(batch.unit_cost).all()


def strict_cost_floor(ctx) -> float:
    """The floor solve_exact certifies on every unit cost (its floor at a
    multiplier of 0, the unprofitability gate's), with every warning raised
    as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        polygons = feasible_polygons(ctx)
        return _cost_floor(ctx, polygons, 0.0, operation_minima(ctx, polygons, 0.0))


def grid_cost_min(ctx, resolution: int) -> float:
    """cost_fixed plus each operation's least cost on a log-spaced grid of
    its speed box by [f_lo, feed_cap], among the points that pass the power
    test as batch_evaluate rounds it, and at the fastest speed each grid
    feed allows (batch_v_max), so that the grid reaches the power limit.
    The feeds where the power limit meets the lowest and the highest speed
    join the grid, so that it holds the region's corners."""
    m = ctx.m
    total = ctx.cost_fixed
    for i in range(m):
        f_lo, f_hi = ctx.lower[m + i], ctx.feed_cap[i]
        with np.errstate(over="ignore"):
            corners = np.clip((ctx.c5[i] * np.array([ctx.lower[i], ctx.upper[i]])) ** -1.25, f_lo, f_hi)
        f = np.unique(np.concatenate((np.geomspace(f_lo, f_hi, resolution), corners)))
        feeds = np.tile(ctx.lower[m:], (f.size, 1))
        feeds[:, i] = f
        fastest = batch_v_max(ctx, feeds)[:, i]
        speeds = np.broadcast_to(np.geomspace(ctx.lower[i], ctx.upper[i], resolution)[:, None], (resolution, f.size))
        v = np.vstack((speeds, fastest[None, :]))
        wear = ctx.tool_cost_coef[i] * v ** ctx.speed_exponent[i] * f ** ctx.feed_exponent[i]
        accepted = (ctx.c5[i] * v * f**0.8 <= 1.0) & (v >= ctx.lower[i])
        total += float(np.where(accepted, ctx.rate * ctx.k1[i] / (v * f) + wear, np.inf).min())
    return total


class TestCostFloor:
    """The certified cost floor bounds from below every unit cost
    batch_evaluate prices at a genome it accepts, and no point of a plan
    whose floor reaches the sale price has a positive profit rate: that
    plan's rate_hi is 0, so es.run skips it."""

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_floor_is_sound_on_random_plans(self, seed):
        rng = np.random.default_rng(seed)
        plan = random_plan(rng)
        ctx = compile_context(plan)
        assume(ctx.corner.feasible[0])
        floor = strict_cost_floor(ctx)
        grid = dinkelbach_solve(plan, grid=GridSpec(resolution=40))
        genomes = np.vstack(
            (
                ctx.lower,
                rng.uniform(ctx.lower, ctx.feasible_upper, size=(256, 2 * plan.m)),
                grid.best.speeds + grid.best.feeds,
            )
        )
        batch = batch_evaluate(ctx, genomes)
        assert floor <= batch.unit_cost[batch.feasible].min()
        # tight, not merely below: the minimiser is exact up to rounding
        grid_min = grid_cost_min(ctx, 200)
        assert floor <= grid_min <= floor * (1.0 + 1e-3)
        if floor >= ctx.sale_price:
            assert solve_exact(ctx).rate_hi == 0.0
            assert run(plan, EsConfig(stall_limit=25, seed=seed)).generations == 0
            assert grid.profit_rate <= 0.0
            config = EsConfig(stall_limit=25, seed=seed)
            state = initial_state(ctx, config)
            while state.record.stall_counter < config.stall_limit:
                state = step(state, ctx, config)
                assert state.record.genome is None

    @pytest.mark.parametrize(
        "variant",
        ["life_0.1", "life_0.5", "life_1.0", "life_2.0", "no_minute_rate", "free_tools", "both", "point_boxes"],
    )
    def test_floor_is_finite_and_sound_at_the_edges(self, builtin_plan, variant):
        # life exponents >= 1 make the speed exponent a <= 0, and those
        # above the feed exponent base make b <= 0; zero prices zero a term
        plan = builtin_plan
        if variant.startswith("life_"):
            plan = with_wear(plan, float(variant[5:]))
        if variant in ("no_minute_rate", "both"):
            economics = dataclasses.replace(plan.economics, labor_rate=0.0, overhead_rate=0.0)
            plan = dataclasses.replace(plan, economics=economics)
        if variant in ("free_tools", "both"):
            plan = dataclasses.replace(plan, tools=tuple(dataclasses.replace(t, price=0.0) for t in plan.tools))
        if variant == "point_boxes":
            operations = tuple(
                dataclasses.replace(op, speed_bounds=(op.speed_bounds[0],) * 2, feed_bounds=(op.feed_bounds[0],) * 2)
                for op in plan.operations
            )
            plan = dataclasses.replace(plan, operations=operations)
        ctx = compile_context(plan)
        floor = strict_cost_floor(ctx)
        assert math.isfinite(floor)
        genomes = np.vstack(
            (ctx.lower, np.random.default_rng(11).uniform(ctx.lower, ctx.feasible_upper, size=(256, 2 * plan.m)))
        )
        batch = batch_evaluate(ctx, genomes)
        assert floor <= batch.unit_cost[batch.feasible].min()
        assert floor <= grid_cost_min(ctx, 200) <= floor * (1.0 + 1e-3)


# Arithmetic on doubles taken exactly (precise) and carried to 50 digits,
# 33 past their precision, stands for exact arithmetic on them.
FIFTY_DIGITS = Context(prec=50)


def precise(x: float) -> Decimal:
    return Decimal(float(x))


def precise_prices(ctx, genome: np.ndarray) -> tuple[Decimal, Decimal]:
    """Unit cost and unit time of one genome, by batch_evaluate's formulas
    on the context's doubles, to 50 digits."""
    m = ctx.m
    with localcontext(FIFTY_DIGITS):
        v, f = [precise(x) for x in genome[:m]], [precise(x) for x in genome[m:]]
        machining = sum(precise(ctx.k1[i]) / (v[i] * f[i]) for i in range(m))
        wear = sum(
            precise(ctx.tool_cost_coef[i]) * v[i] ** precise(ctx.speed_exponent[i]) * f[i] ** precise(ctx.feed_exponent[i])
            for i in range(m)
        )
        return precise(ctx.cost_fixed) + precise(ctx.rate) * machining + wear, precise(ctx.time_fixed) + machining


def assert_prices_within_relative_error(ctx, genomes: np.ndarray) -> None:
    batch = batch_evaluate(ctx, genomes)
    delta = _relative_error(ctx.m)
    for genome, cost, time in zip(genomes, batch.unit_cost.tolist(), batch.unit_time.tolist()):
        exact_cost, exact_time = precise_prices(ctx, genome)
        with localcontext(FIFTY_DIGITS):
            assert abs(precise(cost) - exact_cost) <= precise(delta) * exact_cost
            assert abs(precise(time) - exact_time) <= precise(delta) * exact_time


class TestBoundPremises:
    """The certified bound (milling._cost_floor, milling._rate_bound) rests
    on premises about milling's own arithmetic besides convexity: numpy's
    pow and the C library's are within two ulps, batch_evaluate's prices
    are within _relative_error of the exact ones, and every genome its
    rounded power test accepts lies in the polygon widened to
    c5*v*f**0.8 <= 1 + 4*eps.  Each is checked here against 50-digit
    decimal arithmetic."""

    @pytest.mark.parametrize(
        "bases, exponents",
        [((0.01, 1.0), 0.8), ((20.0, 200.0), (-0.5, 7.5)), ((0.01, 1.0), (-0.2, 3.7))],
        ids=["f**0.8", "v**a", "f**b"],
    )
    def test_numpy_pow_is_within_two_ulps(self, bases, exponents):
        rng = np.random.default_rng(41)
        x = rng.uniform(*bases, size=1000)
        # f**0.8 as batch_evaluate and v_max raise to one scalar, v**a and
        # f**b as batch_evaluate raises to an array of exponents
        y = exponents if isinstance(exponents, float) else rng.uniform(*exponents, size=x.size)
        pows = [np.power(x, y).tolist()]
        if isinstance(exponents, float):
            # and as v_max and f_top also raise it, with the C library's
            # pow, which Python's float ** calls
            pows.append([b**exponents for b in x.tolist()])
        with localcontext(FIFTY_DIGITS):
            ulps = max(
                abs(precise(p) - precise(b) ** precise(e)) / precise(math.ulp(p))
                for powers in pows
                for b, e, p in zip(x.tolist(), np.broadcast_to(y, x.shape).tolist(), powers)
            )
        assert ulps <= 2

    def test_prices_are_within_the_relative_error_on_random_plans(self):
        rng = np.random.default_rng(43)
        sizes = set()
        for _ in range(40):
            ctx = compile_context(random_plan(rng))
            sizes.add(ctx.m)
            assert_prices_within_relative_error(ctx, rng.uniform(ctx.lower, ctx.upper, size=(8, 2 * ctx.m)))
        assert sizes == {1, 2, 3, 4, 5}

    def test_prices_are_within_the_relative_error_when_summed_genome_major(self, builtin_plan):
        # ten operations: batch_evaluate sums each genome's terms through
        # numpy's partial sums of a contiguous row
        ops = builtin_plan.operations
        twice = ops + tuple(dataclasses.replace(op, number=op.number + 1000) for op in ops)
        ctx = compile_context(dataclasses.replace(builtin_plan, operations=twice))
        assert ctx.m == 10
        genomes = np.random.default_rng(47).uniform(ctx.lower, ctx.upper, size=(32, 20))
        assert_prices_within_relative_error(ctx, genomes)

    def test_accepted_power_limit_is_within_four_eps_of_one(self, builtin_plan):
        # at the fastest speed the rounded test accepts at f, and at the
        # largest feed it accepts at v_lo, each stepped up from the edge
        # both pows accept (v_max, f_top); f**0.8 with 0.8 the double that
        # numpy raises to
        rng = np.random.default_rng(53)
        limit = 1 + 4 * precise(np.finfo(float).eps)
        binding = 0
        for plan in [builtin_plan, *(random_plan(rng) for _ in range(40))]:
            ctx = compile_context(plan)
            if not ctx.corner.feasible[0]:
                continue
            m = ctx.m
            feeds = rng.uniform(ctx.lower[m:], ctx.upper[m:], size=(12, m))
            fastest = batch_v_max(ctx, feeds)
            binding += int(np.count_nonzero(fastest < ctx.upper[:m]))
            v_lo = ctx.lower[:m]
            f_top = step_up_while(feasible_polygons(ctx).f_top, ctx.feed_cap, lambda f: accepted_power(ctx, v_lo, f))
            speeds = np.vstack((fastest, v_lo))
            feeds = np.vstack((feeds, f_top))
            c5 = np.broadcast_to(ctx.c5, speeds.shape)
            with localcontext(FIFTY_DIGITS):
                for c, v, f in zip(c5.ravel().tolist(), speeds.ravel().tolist(), feeds.ravel().tolist()):
                    assert precise(c) * precise(v) * precise(f) ** precise(0.8) <= limit
        assert binding >= 100


def both_power_tests(plan, ctx, speeds, feeds):
    """Per operation, whether batch_evaluate's power test and the power
    margin of constraint_margins, whose f**0.8 is the C library's pow, both
    accept each row of speeds and feeds."""
    scalar = [
        [margin.power_ok for margin in constraint_margins(plan, DecisionVector(v, f), ctx.coefficients)]
        for v, f in zip(map(tuple, speeds.tolist()), map(tuple, feeds.tolist()))
    ]
    return accepted_power(ctx, speeds, feeds) & np.array(scalar)


def dense_grid_min(ctx, i, weight, resolution=300):
    """Operation i's least weight * machining + wear over a log grid of
    speed by feed, and the fastest speed at each of its feeds, among the
    points batch_evaluate accepts; and the magnitude of the values."""
    m = ctx.m
    f = np.geomspace(ctx.lower[m + i], ctx.feed_cap[i], resolution)
    feeds = np.tile(ctx.lower[m:], (resolution, 1))
    feeds[:, i] = f
    grid_speeds = np.geomspace(ctx.lower[i], ctx.upper[i], resolution)[:, None]
    speeds = np.vstack((np.broadcast_to(grid_speeds, (resolution, resolution)), batch_v_max(ctx, feeds)[:, i]))
    machining = ctx.k1[i] / (speeds * f)
    wear = speeds ** ctx.speed_exponent[i] * ctx.tool_cost_coef[i] * f ** ctx.feed_exponent[i]
    ok = (ctx.c5[i] * speeds * f**0.8 <= 1.0) & (speeds >= ctx.lower[i])
    return np.where(ok, weight * machining + wear, np.inf).min(), abs(weight) * machining.max() + wear.max()


def assert_minima_match_dense_grids(ctx, lam):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        minima = operation_minima(ctx, feasible_polygons(ctx), lam)
    weight = ctx.rate + lam
    assert batch_evaluate(ctx, np.concatenate((minima.speeds, minima.feeds))).feasible[0]
    assert (minima.machining == ctx.k1 / (minima.speeds * minima.feeds)).all()
    value = weight * minima.machining + minima.wear
    for i in range(ctx.m):
        grid, scale = dense_grid_min(ctx, i, weight)
        assert value[i] <= grid + 1e-13 * scale
    return minima


class TestExactKernel:
    """v_max is the fastest speed, and f_top the largest feed at v_lo, that
    both rounded power tests accept, batch_evaluate's and the scalar
    constraint_margins'; operation_minima finds each operation's minimum
    over the genomes batch_evaluate accepts, at multipliers that make the
    machining weight rate + lam of both signs."""

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_v_max_is_the_largest_accepted_speed(self, seed):
        rng = np.random.default_rng(seed)
        plan = random_plan(rng)
        ctx = compile_context(plan)
        m = ctx.m
        feeds = rng.uniform(ctx.lower[m:], ctx.upper[m:], size=(32, m))
        fastest = v_max(ctx, feeds)
        v_hi = ctx.upper[:m]
        assert (fastest <= v_hi).all()
        assert both_power_tests(plan, ctx, fastest, feeds).all()
        above = np.nextafter(fastest, math.inf)
        assert ((fastest == v_hi) | ~both_power_tests(plan, ctx, above, feeds)).all()

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_f_top_is_the_largest_feed_accepted_at_v_lo(self, seed):
        plan = random_plan(np.random.default_rng(seed))
        ctx = compile_context(plan)
        m = ctx.m
        f_top, v_lo = feasible_polygons(ctx).f_top, ctx.lower[None, :m]
        assert (f_top <= ctx.feed_cap).all()
        assert both_power_tests(plan, ctx, v_lo, f_top[None]).all()
        above = np.nextafter(f_top, math.inf)[None]
        assert ((f_top == ctx.feed_cap) | ~both_power_tests(plan, ctx, v_lo, above)).all()

    @given(seed=st.integers(0, 2**32 - 1), lam=st.sampled_from([0.0, 0.3, 1.0, 3.0, -0.5, -5.0]))
    @settings(max_examples=60, deadline=None)
    def test_minimum_matches_a_dense_feasible_grid(self, seed, lam):
        rng = np.random.default_rng(seed)
        ctx = compile_context(random_plan(rng))
        assume(ctx.corner.feasible[0])
        assert_minima_match_dense_grids(ctx, lam)

    @pytest.mark.parametrize("lam", [0.0, 1.0])
    def test_minimum_inside_the_power_edge_matches_a_dense_grid(self, builtin_plan, lam):
        # Wear that grows three times faster with feed than with speed
        # (a = 1, b = 3) puts operation 3's minimum inside its power edge,
        # where neither bound of the box holds it.
        machine = dataclasses.replace(builtin_plan.machine, chip_area_exponent=1.2, slenderness_exponent=0.8)
        tools = tuple(dataclasses.replace(t, life_exponent=0.5) for t in builtin_plan.tools)
        ctx = compile_context(dataclasses.replace(builtin_plan, machine=machine, tools=tools))
        minima = assert_minima_match_dense_grids(ctx, lam)
        m, i = ctx.m, 2
        assert minima.speeds[i] == v_max(ctx, minima.feeds[None, :])[0, i] < ctx.upper[i]
        assert ctx.lower[m + i] < minima.feeds[i] < feasible_polygons(ctx).f_top[i]


class TestWarnings:
    def test_builtin_plan_warnings(self, builtin_plan):
        notes = plan_warnings(builtin_plan)
        assumed = [n for n in notes if "assumed" in n]
        skipped = [n for n in notes if "force constraint skipped" in n]
        assert len(assumed) == 5
        assert len(skipped) == 5

    def test_quiet_plan_has_no_warnings(self):
        plan = single_face_plan()
        tool = ToolSpec(**{**plan.tools[0].__dict__, "permitted_force": 5000.0})
        plan2 = MillingPlan(
            economics=plan.economics,
            machine=plan.machine,
            tools=(tool,),
            operations=plan.operations,
        )
        assert plan_warnings(plan2) == ()
