"""Model-layer tests: derived coefficients, cost/time/profit, constraint
margins, the death-penalty objective, and the vectorized evaluator.

Expected numbers are frozen from independent hand arithmetic over the
documented formulas, not read back from the implementation.
"""

from __future__ import annotations

import dataclasses
import math
import warnings

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
from millopt.es import EsConfig, initial_state, step
from millopt.milling import (
    FEED_LIMITS,
    SPEED_LIMITS,
    _cutting_force as cutting_force,
    batch_evaluate,
    compile_context,
    corner_rate,
    cost_floor,
    plan_warnings,
)
from millopt.oracle import GridSpec, dinkelbach_solve

from conftest import (
    CARBIDE_FACE_MILL,
    STANDARD_ECONOMICS,
    STANDARD_MACHINE,
    single_face_plan,
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
        names = [name for name, _, _ in margin.items()]
        assert names == ["power", "finish", "force", "speed_box", "feed_box"]


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
    return {finish if name == "finish" else name for name, _, ok in margin.items() if not ok}


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

    def test_replace_rebuilds_derived_columns(self, builtin_plan):
        ctx = compile_context(builtin_plan)
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
        columns = ("k1", "tool_cost_coef", "speed_exponent", "feed_exponent", "c5", "lower", "feasible_upper")
        for name in columns:
            assert np.array_equal(getattr(changed, f"{name}_col"), getattr(changed, name)[:, None]), name
        genomes = np.random.default_rng(4).uniform(changed.lower, changed.upper, size=(64, 10))
        assert_matches_reference(changed, genomes)
        assert not np.array_equal(batch_evaluate(changed, genomes).unit_cost, batch_evaluate(ctx, genomes).unit_cost)


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
    """cost_floor with every warning raised as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return cost_floor(ctx)


def grid_cost_min(ctx, resolution: int) -> float:
    """cost_fixed plus each operation's least cost on a log-spaced grid of
    its speed box by [f_lo, feed_cap], the power limit dropped."""
    m = ctx.m
    total = ctx.cost_fixed
    for i in range(m):
        v = np.geomspace(ctx.lower[i], ctx.upper[i], resolution)[:, None]
        f = np.geomspace(ctx.lower[m + i], ctx.feed_cap[i], resolution)[None, :]
        wear = ctx.tool_cost_coef[i] * v ** ctx.speed_exponent[i] * f ** ctx.feed_exponent[i]
        total += float((ctx.rate * ctx.k1[i] / (v * f) + wear).min())
    return total


class TestCostFloor:
    """cost_floor bounds from below every unit cost batch_evaluate prices at
    a genome of the box whose feeds meet their caps, and no point of a plan
    whose floor reaches the sale price has a positive profit rate."""

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_floor_is_sound_on_random_plans(self, seed):
        rng = np.random.default_rng(seed)
        plan = random_plan(rng)
        ctx = compile_context(plan)
        assume(corner_rate(ctx) is not None)
        floor = strict_cost_floor(ctx)
        grid = dinkelbach_solve(plan, grid=GridSpec(resolution=40))
        genomes = np.vstack(
            (
                ctx.lower,
                rng.uniform(ctx.lower, ctx.feasible_upper, size=(256, 2 * plan.m)),
                grid.best.speeds + grid.best.feeds,
            )
        )
        assert floor <= batch_evaluate(ctx, genomes).unit_cost.min()
        # tight, not merely below: the minimiser is exact up to rounding
        grid_min = grid_cost_min(ctx, 200)
        assert floor <= grid_min <= floor * (1.0 + 1e-3)
        if floor >= ctx.sale_price:
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
        assert floor <= batch_evaluate(ctx, genomes).unit_cost.min()
        assert floor <= grid_cost_min(ctx, 200) <= floor * (1.0 + 1e-3)


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
