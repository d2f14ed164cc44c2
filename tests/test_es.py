"""Evolution-strategy engine tests: configuration validation, the
initial population, the three variation operators on population arrays
with scripted randomness, comma selection, the generation step, and
whole-run behavior including determinism."""

from __future__ import annotations

import dataclasses
import json
import math
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import millopt
from millopt import ContractError
from millopt import es
from millopt.es import (
    SIGMA_FLOOR,
    EsConfig,
    initial_state,
    learning_rates,
    mutate,
    recombine,
    run,
    select,
    step,
)
from millopt.milling import (
    batch_evaluate,
    compile_context,
    cost_floor,
    derive_coefficients,
    plan_warnings,
)
from millopt.oracle import GridSpec, dinkelbach_solve

from test_acceptance import random_plan


class QueuedNormals:
    """Stand-in generator whose standard_normal serves scripted arrays as
    one stream, in order, whatever the shapes of the calls.

    A numpy Generator keeps no state between normal draws, so the scripted
    arrays are what draws of their shapes would return, whether they are
    drawn one by one or all at once."""

    def __init__(self, arrays):
        self._stream = np.concatenate([np.asarray(a, dtype=float).ravel() for a in arrays])
        self._used = 0

    def standard_normal(self, size):
        count = int(np.prod(size))
        if self._used + count > self._stream.size:
            raise AssertionError("more standard normals drawn than scripted")
        out = self._stream[self._used : self._used + count].reshape(size)
        self._used += count
        return out.copy()

    @property
    def exhausted(self) -> bool:
        return self._used == self._stream.size


def toy_config(**overrides) -> EsConfig:
    base = dict(mu=2, eta=6, seed=0)
    base.update(overrides)
    return EsConfig(**base)


class TestEsConfig:
    def test_defaults(self):
        cfg = EsConfig()
        assert (cfg.mu, cfg.eta) == (15, 105)
        assert cfg.sigma_init == 3.0
        assert cfg.alpha == 0.5
        assert cfg.stall_limit == 1000
        assert cfg.seed == 0
        assert es.MAX_GENERATIONS == 100_000
        assert SIGMA_FLOOR == 1e-8
        assert es.STALL_GAIN == 1e-6
        assert [f.name for f in dataclasses.fields(EsConfig)] == [
            "mu", "eta", "sigma_init", "alpha", "stall_limit", "seed",
        ]

    @pytest.mark.parametrize(
        "overrides",
        [
            {"mu": 0},
            {"mu": 1.5},
            {"eta": 15},  # must exceed mu
            {"eta": 10},
            {"sigma_init": 0.0},
            {"sigma_init": -1.0},
            {"sigma_init": float("inf")},
            {"alpha": 0.0},
            {"alpha": 1.0},
            {"alpha": -0.2},
            # explicit ids keep these cases' ids stable when the list changes
            pytest.param({"stall_limit": 0}, id="overrides12"),
            pytest.param({"seed": -1}, id="overrides14"),
            pytest.param({"seed": 2**64}, id="overrides15"),
            pytest.param({"mu": True, "eta": 2}, id="mu_bool"),
            pytest.param({"stall_limit": True}, id="stall_limit_bool"),
            pytest.param({"seed": False}, id="seed_bool"),
        ],
    )
    def test_rejects_bad_settings(self, overrides):
        with pytest.raises(ValueError):
            EsConfig(**overrides)

    def test_resolved_taus_for_length_ten(self):
        tau_g, tau_l = learning_rates(10)
        assert tau_g == pytest.approx(1.0 / math.sqrt(20.0), rel=1e-15)
        assert tau_l == pytest.approx(1.0 / math.sqrt(2.0 * math.sqrt(10.0)), rel=1e-15)
        assert tau_g == pytest.approx(0.22361, abs=5e-6)
        assert tau_l == pytest.approx(0.39764, abs=5e-6)

    def test_resolved_taus_rejects_empty_genome(self):
        with pytest.raises(ValueError):
            learning_rates(0)


def zero_draws(length: int) -> QueuedNormals:
    """Scripted mutation draws that leave step sizes and genome unchanged."""
    return QueuedNormals([np.zeros((1, 1)), np.zeros((1, length)), np.zeros((1, length))])


def clip(genome, lower, upper):
    """One mutation with zero draws, so only the box projection acts."""
    clipped, _ = mutate(
        genome[None, :], np.ones((1, lower.size)), lower, upper, zero_draws(lower.size)
    )
    return clipped[0]


def box(plan):
    """The (lower, upper) box of plan's flat decision vector."""
    ctx = compile_context(plan)
    return ctx.lower, ctx.upper


class TestClipToBox:
    """mutate projects every perturbed genome onto the box."""

    def test_projects_out_of_box_speed(self, builtin_plan):
        lower, upper = box(builtin_plan)
        genome = (lower + upper) / 2.0
        genome[0] = 130.0  # above the 120 ceiling of the first operation
        clipped = clip(genome, lower, upper)
        assert clipped[0] == 120.0
        assert np.array_equal(clipped[1:], genome[1:])

    def test_in_box_points_unchanged(self, builtin_plan):
        lower, upper = box(builtin_plan)
        genome = lower * 0.25 + upper * 0.75
        assert np.array_equal(clip(genome, lower, upper), genome)

    def test_bounds_are_attainable(self, builtin_plan):
        lower, upper = box(builtin_plan)
        assert np.array_equal(clip(lower - 1.0, lower, upper), lower)
        assert np.array_equal(clip(upper + 1.0, lower, upper), upper)

    def test_length_mismatch_rejected(self, builtin_plan):
        lower, upper = box(builtin_plan)
        with pytest.raises(ContractError):
            mutate(np.ones((1, 3)), np.ones((1, 3)), lower, upper, np.random.default_rng(0))


class TestInitPopulation:
    def test_population_shape_and_sigmas(self, toy_single_plan):
        cfg = toy_config(mu=5, eta=7, sigma_init=1.25, seed=3)
        ctx = compile_context(toy_single_plan)
        state = initial_state(ctx, cfg)
        assert state.genomes.shape == (5, 2)
        lower, upper = ctx.lower, ctx.upper
        assert np.all(state.genomes >= lower) and np.all(state.genomes <= upper)
        assert np.all(state.sigmas == 1.25)
        # nothing evaluated yet
        assert state.record.genome is None and state.record.fitness == 0.0
        assert (state.generation, state.evaluations) == (0, 0)

    def test_same_seed_same_population(self, toy_single_plan):
        cfg = toy_config(seed=11)
        ctx = compile_context(toy_single_plan)
        a = initial_state(ctx, cfg)
        b = initial_state(ctx, cfg)
        assert np.array_equal(a.genomes, b.genomes)
        # one uniform draw of the whole population opens the seed's stream
        lower, upper = ctx.lower, ctx.upper
        expected = np.random.default_rng(11).uniform(lower, upper, size=(cfg.mu, lower.size))
        assert np.array_equal(a.genomes, expected)


class TestRecombine:
    def test_identical_parents_reproduce_exactly(self):
        genome, sigmas = np.array([[80.0, 0.2]]), np.array([[2.0, 4.0]])
        child, child_sigmas = recombine(
            genome, genome.copy(), sigmas, sigmas.copy(), toy_config().alpha, np.random.default_rng(0)
        )
        assert np.array_equal(child, genome)
        assert np.array_equal(child_sigmas, sigmas)

    def test_step_sizes_blend_to_midpoint(self):
        _, sigmas = recombine(
            np.array([[1.0, 1.0]]),
            np.array([[9.0, 9.0]]),
            np.array([[2.0, 4.0]]),
            np.array([[4.0, 8.0]]),
            toy_config(alpha=0.5).alpha,
            np.random.default_rng(0),
        )
        assert np.array_equal(sigmas[0], np.array([3.0, 6.0]))

    def test_genome_components_come_from_a_parent(self):
        rng = np.random.default_rng(5)
        a = np.array([[1.0, 2.0, 3.0]])
        b = np.array([[10.0, 20.0, 30.0]])
        seen_from_both = set()
        for _ in range(50):
            child, _ = recombine(a, b, np.ones((1, 3)), np.ones((1, 3)), toy_config().alpha, rng)
            for i, value in enumerate(child[0]):
                assert value in (a[0, i], b[0, i])
                seen_from_both.add((i, value))
        # with 50 trials every parent component should appear at least once
        assert len(seen_from_both) == 6

    def test_asymmetric_alpha(self):
        _, sigmas = recombine(
            np.array([[1.0]]),
            np.array([[1.0]]),
            np.array([[10.0]]),
            np.array([[20.0]]),
            toy_config(alpha=0.25).alpha,
            np.random.default_rng(0),
        )
        assert sigmas[0, 0] == pytest.approx(0.25 * 10.0 + 0.75 * 20.0, rel=1e-15)

    def test_one_draw_gives_the_stream_of_three(self):
        # mutate draws a generation's normals in one call; on a real
        # generator that is the global, local and step draws, in turn
        n, length = 7, 4
        genomes = np.random.default_rng(1).uniform(60.0, 120.0, (n, length))
        sigmas = np.random.default_rng(2).uniform(0.5, 3.0, (n, length))
        lower, upper = np.full(length, 70.0), np.full(length, 110.0)
        tau_g, tau_l = learning_rates(length)
        rng = np.random.default_rng(5)
        global_draw = rng.standard_normal((n, 1))
        local_draws = rng.standard_normal((n, length))
        expected_sigmas = np.maximum(
            sigmas * np.exp(tau_g * global_draw + tau_l * local_draws), SIGMA_FLOOR
        )
        expected = np.clip(genomes + expected_sigmas * rng.standard_normal((n, length)), lower, upper)
        mutated = np.random.default_rng(5)
        child, child_sigmas = mutate(genomes, sigmas, lower, upper, mutated)
        assert np.array_equal(child, expected) and np.array_equal(child_sigmas, expected_sigmas)
        assert mutated.standard_normal() == rng.standard_normal()

    def test_length_mismatch_rejected(self):
        with pytest.raises(ContractError):
            recombine(
                np.ones((1, 2)),
                np.ones((1, 3)),
                np.ones((1, 2)),
                np.ones((1, 3)),
                toy_config().alpha,
                np.random.default_rng(0),
            )


class TestMutate:
    LOWER = np.array([60.0, 0.05])
    UPPER = np.array([120.0, 0.4])

    def test_zero_draws_leave_individual_unchanged(self):
        genome, sigmas = np.array([[90.0, 0.2]]), np.array([[3.0, 3.0]])
        rng = zero_draws(2)
        child, child_sigmas = mutate(genome, sigmas, self.LOWER, self.UPPER, rng)
        assert np.array_equal(child, genome)
        assert np.array_equal(child_sigmas, sigmas)
        assert rng.exhausted

    def test_unit_draws_scale_sigma_by_exp_of_tau_sum(self):
        genome, sigmas = np.array([[90.0, 0.2]]), np.array([[3.0, 3.0]])
        rng = QueuedNormals([np.ones((1, 1)), np.ones((1, 2)), np.zeros((1, 2))])
        child, child_sigmas = mutate(genome, sigmas, self.LOWER, self.UPPER, rng)
        tau_g = 1.0 / math.sqrt(2.0 * 2.0)
        tau_l = 1.0 / math.sqrt(2.0 * math.sqrt(2.0))
        expected = 3.0 * math.exp(tau_g + tau_l)
        assert child_sigmas[0] == pytest.approx([expected, expected], rel=1e-15)
        assert np.array_equal(child, genome)

    def test_length_ten_unit_draw_value(self):
        genome, sigmas = np.full((1, 10), 80.0), np.full((1, 10), 3.0)
        lower = np.full(10, 0.01)
        upper = np.full(10, 200.0)
        rng = QueuedNormals([np.ones((1, 1)), np.ones((1, 10)), np.zeros((1, 10))])
        _, child_sigmas = mutate(genome, sigmas, lower, upper, rng)
        expected = 3.0 * math.exp(1.0 / math.sqrt(20.0) + 1.0 / math.sqrt(2.0 * math.sqrt(10.0)))
        assert expected == pytest.approx(5.5837, abs=5e-5)
        assert child_sigmas[0] == pytest.approx(np.full(10, expected), rel=1e-15)

    def test_genome_step_uses_new_sigma_then_clips(self):
        genome, sigmas = np.array([[90.0, 0.2]]), np.array([[3.0, 0.01]])
        rng = QueuedNormals([np.zeros((1, 1)), np.zeros((1, 2)), np.array([[2.0, -1.0]])])
        child, _ = mutate(genome, sigmas, self.LOWER, self.UPPER, rng)
        assert child[0, 0] == pytest.approx(90.0 + 3.0 * 2.0, rel=1e-15)
        assert child[0, 1] == pytest.approx(0.2 - 0.01, rel=1e-15)

    def test_huge_step_clips_to_bounds(self):
        genome, sigmas = np.array([[90.0, 0.2]]), np.array([[3.0, 3.0]])
        rng = QueuedNormals(
            [np.zeros((1, 1)), np.zeros((1, 2)), np.array([[1000.0, -1000.0]])]
        )
        child, _ = mutate(genome, sigmas, self.LOWER, self.UPPER, rng)
        assert np.array_equal(child[0], np.array([120.0, 0.05]))

    def test_sigma_floor_applies(self):
        genome, sigmas = np.array([[90.0, 0.2]]), np.array([[3.0, 3.0]])
        rng = QueuedNormals(
            [np.full((1, 1), -100.0), np.zeros((1, 2)), np.zeros((1, 2))]
        )
        _, child_sigmas = mutate(genome, sigmas, self.LOWER, self.UPPER, rng)
        assert np.all(child_sigmas == SIGMA_FLOOR)

    def test_mutated_individual_is_new_object(self):
        genome, sigmas = np.array([[90.0, 0.2]]), np.array([[3.0, 3.0]])
        rng = zero_draws(2)
        child, child_sigmas = mutate(genome, sigmas, self.LOWER, self.UPPER, rng)
        child[0, 0] = -1.0
        child_sigmas[0, 0] = -1.0
        assert genome[0, 0] == 90.0
        assert sigmas[0, 0] == 3.0

    def test_one_draw_gives_the_stream_of_three(self):
        # mutate draws a generation's normals in one call; on a real
        # generator that is the global, local and step draws, in turn
        n, length = 7, 4
        genomes = np.random.default_rng(1).uniform(60.0, 120.0, (n, length))
        sigmas = np.random.default_rng(2).uniform(0.5, 3.0, (n, length))
        lower, upper = np.full(length, 70.0), np.full(length, 110.0)
        tau_g, tau_l = learning_rates(length)
        rng = np.random.default_rng(5)
        global_draw = rng.standard_normal((n, 1))
        local_draws = rng.standard_normal((n, length))
        expected_sigmas = np.maximum(
            sigmas * np.exp(tau_g * global_draw + tau_l * local_draws), SIGMA_FLOOR
        )
        expected = np.clip(genomes + expected_sigmas * rng.standard_normal((n, length)), lower, upper)
        mutated = np.random.default_rng(5)
        child, child_sigmas = mutate(genomes, sigmas, lower, upper, mutated)
        assert np.array_equal(child, expected) and np.array_equal(child_sigmas, expected_sigmas)
        assert mutated.standard_normal() == rng.standard_normal()

    def test_length_mismatch_rejected(self):
        with pytest.raises(ContractError):
            mutate(
                np.ones((1, 3)), np.ones((1, 3)), self.LOWER, self.UPPER, np.random.default_rng(0)
            )


class TestSelect:
    @staticmethod
    def make(fitnesses):
        return np.array(fitnesses, dtype=float)

    def test_keeps_best_two_of_three(self):
        fitnesses = self.make([3.0, 2.0, 1.0])
        survivors = select(fitnesses, toy_config(mu=2, eta=3).mu)
        assert list(fitnesses[survivors]) == [3.0, 2.0]

    def test_order_independent_of_input_order(self):
        fitnesses = self.make([1.0, 3.0, 2.0])
        survivors = select(fitnesses, toy_config(mu=2, eta=3).mu)
        assert list(fitnesses[survivors]) == [3.0, 2.0]

    def test_all_zero_fitness_keeps_first_mu_in_order(self):
        survivors = select(self.make([0.0, 0.0, 0.0, 0.0]), toy_config(mu=2, eta=4).mu)
        assert list(survivors) == [0, 1]

    def test_ties_resolve_to_earlier_children(self):
        survivors = select(self.make([2.0, 5.0, 5.0, 2.0]), toy_config(mu=3, eta=4).mu)
        assert list(survivors) == [1, 2, 0]

    def test_min_selected_at_least_max_discarded(self):
        rng = np.random.default_rng(19)
        for _ in range(25):
            fitnesses = self.make(rng.uniform(0.0, 10.0, size=9))
            survivors = select(fitnesses, toy_config(mu=4, eta=9).mu)
            discarded = np.delete(fitnesses, survivors)
            assert fitnesses[survivors].min() >= discarded.max()

    def test_too_few_children_rejected(self):
        with pytest.raises(ContractError):
            select(self.make([1.0]), toy_config(mu=2, eta=3).mu)

    def test_unevaluated_child_rejected(self):
        fitnesses = self.make([1.0, 2.0, 3.0])
        fitnesses[1] = np.nan
        with pytest.raises(ContractError):
            select(fitnesses, toy_config(mu=2, eta=3).mu)


class TestStep:
    def test_bookkeeping_per_generation(self, toy_single_plan):
        cfg = toy_config(mu=4, eta=12)
        ctx = compile_context(toy_single_plan)
        state = initial_state(ctx, cfg)
        for expected_gen in (1, 2, 3):
            state = step(state, ctx, cfg)
            assert state.generation == expected_gen
            assert state.evaluations == expected_gen * cfg.eta
            assert state.genomes.shape == (cfg.mu, 2)
            assert np.all(state.sigmas >= SIGMA_FLOOR)
            lower, upper = ctx.lower, ctx.upper
            assert np.all(state.genomes >= lower) and np.all(state.genomes <= upper)

    def test_record_is_monotone_and_covers_population(self, toy_single_plan):
        cfg = toy_config(mu=4, eta=12)
        ctx = compile_context(toy_single_plan)
        state = initial_state(ctx, cfg)
        previous = 0.0
        for _ in range(20):
            state = step(state, ctx, cfg)
            assert state.record.fitness >= previous
            pop_fitness = batch_evaluate(ctx, state.genomes).fitness
            assert state.record.fitness >= pop_fitness.max() - 1e-15
            previous = state.record.fitness

    def test_stall_counter_resets_on_strict_improvement(self, toy_single_plan, monkeypatch):
        # With no gain required, every strict rise is progress.
        monkeypatch.setattr(es, "STALL_GAIN", 0.0)
        cfg = toy_config(mu=4, eta=12)
        ctx = compile_context(toy_single_plan)
        state = initial_state(ctx, cfg)
        last_fitness = 0.0
        for _ in range(15):
            before = state.record.stall_counter
            state = step(state, ctx, cfg)
            if state.record.fitness > last_fitness:
                assert state.record.stall_counter == 0
            else:
                assert state.record.stall_counter == before + 1
            last_fitness = state.record.fitness

    def test_stall_counter_resets_only_on_a_rise_above_the_gain(
        self, toy_single_plan, monkeypatch
    ):
        cfg = toy_config(mu=2, eta=6)
        ctx = compile_context(toy_single_plan)
        state = initial_state(ctx, cfg)
        base = 2.0
        cap = base * (1.0 + es.STALL_GAIN)  # the threshold as step computes it
        # (best child of the generation, record fitness, stall counter, stall_fitness)
        script = [
            (base, base, 0, base),  # first profitable child: reset
            (math.nextafter(base, 3.0), math.nextafter(base, 3.0), 1, base),  # tiny rise
            (cap, cap, 2, base),  # a rise of exactly the gain is not progress
            (1.0, cap, 3, base),  # no rise
            (math.nextafter(cap, 3.0), math.nextafter(cap, 3.0), 0, math.nextafter(cap, 3.0)),
            (math.nextafter(cap, 3.0), math.nextafter(cap, 3.0), 1, math.nextafter(cap, 3.0)),
        ]
        served = iter(best for best, *_ in script)

        def scripted(_ctx, genomes):
            fitness = np.full(genomes.shape[0], 0.5)
            fitness[genomes.shape[0] // 2] = next(served)
            return SimpleNamespace(fitness=fitness)

        monkeypatch.setattr(es, "batch_evaluate", scripted)
        for best, fitness, counter, stall_fitness in script:
            before = state.record
            state = step(state, ctx, cfg)
            record = state.record
            assert (record.fitness, record.stall_counter, record.stall_fitness) == (
                fitness, counter, stall_fitness
            )
            if best > before.fitness:  # every strict rise takes the child
                assert record.genome is not before.genome
            else:
                assert record.genome is before.genome and record.sigmas is before.sigmas

    def test_all_infeasible_leaves_record_empty(self, toy_infeasible_plan):
        cfg = toy_config(mu=3, eta=9)
        ctx = compile_context(toy_infeasible_plan)
        state = initial_state(ctx, cfg)
        for expected in (1, 2, 3):
            state = step(state, ctx, cfg)
            assert state.record.genome is None
            assert state.record.fitness == 0.0
            assert state.record.stall_counter == expected


class TestRun:
    def test_same_seed_bit_identical(self, toy_single_plan):
        cfg = EsConfig(seed=42, stall_limit=40)
        first = run(toy_single_plan, cfg)
        second = run(toy_single_plan, cfg)
        assert first.best == second.best
        assert first.sigmas_final == second.sigmas_final
        assert first.profit_rate == second.profit_rate  # exact, not approximate
        assert first.unit_cost == second.unit_cost
        assert first.generations == second.generations
        assert first.evaluations == second.evaluations

    def test_different_seeds_usually_differ(self, toy_single_plan):
        a = run(toy_single_plan, EsConfig(seed=1, stall_limit=10))
        b = run(toy_single_plan, EsConfig(seed=2, stall_limit=10))
        assert a.best != b.best or a.generations != b.generations

    def test_evaluations_count_eta_per_generation(self, toy_single_plan):
        result = run(toy_single_plan, EsConfig(seed=3, stall_limit=25))
        assert result.evaluations == result.generations * 105

    def test_observer_sees_every_generation(self, toy_single_plan):
        generations = []
        result = run(
            toy_single_plan,
            EsConfig(seed=5, stall_limit=15),
            observer=lambda s: generations.append(s.generation),
        )
        assert generations == list(range(1, result.generations + 1))

    def test_run_reports_solution_consistent_with_model(self, toy_single_plan):
        result = run(toy_single_plan, EsConfig(seed=7, stall_limit=60))
        assert result.feasible
        coeffs = derive_coefficients(toy_single_plan)
        assert result.unit_cost == pytest.approx(
            millopt.unit_cost(toy_single_plan, result.best, coeffs), rel=1e-12
        )
        assert result.unit_time == pytest.approx(
            millopt.unit_time(toy_single_plan, result.best, coeffs), rel=1e-12
        )
        assert result.profit_rate == pytest.approx(
            (25.0 - result.unit_cost) / result.unit_time, rel=1e-12
        )
        margins = millopt.constraint_margins(toy_single_plan, result.best, coeffs)
        assert all(m.satisfied for m in margins)

    def test_infeasible_plan_stops_before_the_first_generation(self, toy_infeasible_plan):
        result = run(toy_infeasible_plan, EsConfig(stall_limit=1))
        assert not result.feasible
        assert result.best is None
        assert result.sigmas_final is None
        assert result.unit_cost is None and result.unit_time is None
        assert result.profit_rate is None
        assert result.generations == 0
        assert result.evaluations == 0
        assert any("force constraint skipped" in w for w in plan_warnings(toy_infeasible_plan))

    def test_max_generations_caps_run_length(self, toy_single_plan, monkeypatch):
        monkeypatch.setattr(es, "MAX_GENERATIONS", 4)
        result = run(toy_single_plan, EsConfig(seed=0, stall_limit=1000))
        assert result.generations == 4

    def test_single_op_matches_grid_oracle_across_seeds(self, toy_single_plan):
        coarse = dinkelbach_solve(toy_single_plan, grid=GridSpec(resolution=12))
        fine = dinkelbach_solve(toy_single_plan, grid=GridSpec(resolution=601))
        assert coarse.feasible and fine.feasible
        hits = 0
        best_seen = 0.0
        for seed in range(20):
            result = run(toy_single_plan, EsConfig(seed=seed, stall_limit=100))
            assert result.feasible
            # the continuous optimum can only sit a hair above the fine grid
            assert result.profit_rate <= fine.profit_rate * (1.0 + 1e-7)
            if result.profit_rate >= coarse.profit_rate * (1.0 - 1e-9):
                hits += 1
            best_seen = max(best_seen, result.profit_rate)
        assert hits >= 19
        # frozen continuous optimum of this instance: speed just above the
        # lower bound, feed at the box ceiling
        assert best_seen == pytest.approx(6.8389464, rel=1e-7)

    def test_learning_rates_are_computed_once_per_length(self, toy_single_plan):
        learning_rates.cache_clear()
        run(toy_single_plan, EsConfig(seed=0, stall_limit=10))
        info = learning_rates.cache_info()
        assert info.misses == 1 and info.hits >= 9

    def test_package_root_exports_engine_api(self):
        assert millopt.__all__ == [
            "__version__",
            "builtin_case",
            "builtin_document_bytes",
            "load_document",
            "load_document_file",
            "EsConfig",
            "run",
            "ContractError",
            "DecisionVector",
            "DerivedCoefficients",
            "DomainError",
            "EconomicConstants",
            "MachineSpec",
            "MillingPlan",
            "ModelError",
            "OperationKind",
            "OperationSpec",
            "PlanError",
            "ToolKind",
            "ToolQuality",
            "ToolSpec",
            "constraint_margins",
            "derive_coefficients",
            "fitness",
            "profit_rate",
            "unit_cost",
            "unit_time",
            "GridSpec",
            "OracleError",
            "OracleResult",
            "dinkelbach_solve",
        ]
        for name in millopt.__all__:
            assert hasattr(millopt, name), name
        # the operators stay in millopt.es; the other names are gone or private
        removed = ("load_plan", "mutate", "recombine", "select", "step", "machining_time", "cutting_force", "decision_bounds")
        for name in removed:
            assert not hasattr(millopt, name), name
        for name in ("mutate", "recombine", "select", "step"):
            assert callable(getattr(es, name)), name


def _reference_rates() -> dict[int, float]:
    """Profit rates of whole ES runs on the bundled case at sigma_init 0.3,
    by seed, as the benchmark's reference file records them: seed 16 found
    the stored best-known value, and the file names seed 0's value."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
    builtin = json.loads(path.read_text(encoding="utf-8"))["builtin_case"]
    seed_zero = re.search(r"seed 0 gives ([0-9.]+)", builtin["found_by"])
    assert seed_zero is not None
    return {0: float(seed_zero.group(1)), 16: builtin["profit_rate"]}


# Frozen from whole runs: (generations, evaluations, sigmas_final).
WHOLE_RUNS = {
    0: (
        1315,
        138075,
        (
            0.0028901508815203807,
            2.3167610411252838e-05,
            1.8424246263517593e-06,
            0.07277570599596814,
            0.005142106769597185,
            1.223434265625676e-08,
            0.0001217760565613689,
            4.586274192264473e-05,
            6.1148790076983e-06,
            2.0680650554787842e-08,
        ),
    ),
    16: (
        2275,
        238875,
        (
            0.003996830047013987,
            3.502409735911182e-06,
            3.0784481449945062e-06,
            2.003758306038319e-05,
            0.0010641948511149284,
            1e-08,
            4.85271932051514e-05,
            1.673843730814928e-05,
            2.2067996300664462e-07,
            2.0190774763397076e-08,
        ),
    ),
}


@pytest.mark.parametrize("seed", sorted(WHOLE_RUNS))
def test_whole_builtin_run_is_pinned_bit_for_bit(builtin_plan, seed, monkeypatch):
    # The reference file's rates come from runs whose stall counter reset on
    # every strict rise; a STALL_GAIN of 0 is exactly that rule.
    monkeypatch.setattr(es, "STALL_GAIN", 0.0)
    result = run(builtin_plan, EsConfig(sigma_init=0.3, seed=seed))
    assert result.profit_rate == _reference_rates()[seed]
    assert (result.generations, result.evaluations, result.sigmas_final) == WHOLE_RUNS[seed]


# Frozen from whole runs under the default STALL_GAIN:
# (profit_rate, generations, evaluations, sigmas_final).  Seed 0's last
# rise of more than STALL_GAIN is at generation 206 and its last rise of
# any size at 315, so it stops at 1206 with the record it ends with under a
# STALL_GAIN of 0; seed 16 stops 1,102 generations earlier and gives up
# rises worth 5.3e-9 relative.
DEFAULT_RULE_RUNS = {
    0: (
        1.3791069731852572,
        1206,
        126630,
        WHOLE_RUNS[0][2],
    ),
    16: (
        1.379106980723789,
        1173,
        123165,
        (
            0.001720625616525347,
            1.8990413214986608e-06,
            3.4150950646715646e-07,
            4.4511119365813615e-05,
            0.0015562074019933936,
            1e-08,
            1.0279069152512288e-05,
            3.577285772399347e-05,
            4.042945400693297e-07,
            1.927255880196256e-08,
        ),
    ),
}


@pytest.mark.parametrize("seed", sorted(DEFAULT_RULE_RUNS))
def test_whole_builtin_run_under_the_default_stop_rule_is_pinned(builtin_plan, seed):
    result = run(builtin_plan, EsConfig(sigma_init=0.3, seed=seed))
    assert (
        result.profit_rate, result.generations, result.evaluations, result.sigmas_final
    ) == DEFAULT_RULE_RUNS[seed]


def _replayed_stop(records: list[es.BestRecord], stall_limit: int) -> int:
    """The generation at which the default rule stops, replayed on the
    records of a run under a STALL_GAIN of 0.  A child above the last
    reset's fitness times (1 + STALL_GAIN) always raises the record, so the
    records alone decide every reset."""
    counter, stall_fitness = 0, 0.0
    for generation, record in enumerate(records, start=1):
        if record.fitness > stall_fitness * (1.0 + es.STALL_GAIN):
            counter, stall_fitness = 0, record.fitness
        else:
            counter += 1
        if counter >= stall_limit:
            return generation
    raise AssertionError("the run under a STALL_GAIN of 0 stopped first")


def test_default_run_is_a_prefix_of_the_strict_rise_run(builtin_plan, monkeypatch):
    """Under the default STALL_GAIN a run stops where the replayed counter
    first reaches stall_limit, and reports exactly what a run with a
    STALL_GAIN of 0 reported after that many generations."""
    rng = np.random.default_rng(20261019)
    builtin = [(builtin_plan, EsConfig(sigma_init=0.3, seed=seed)) for seed in (0, 1, 2, 3, 4, 16)]
    plans = [(random_plan(rng), EsConfig(stall_limit=200, seed=k)) for k in range(30)]
    cases = builtin + plans
    stopped_earlier = 0
    for plan, config in cases:
        records: list[es.BestRecord] = []
        with monkeypatch.context() as patch:
            patch.setattr(es, "STALL_GAIN", 0.0)
            strict = run(plan, config, observer=lambda s: records.append(s.record))
        assert len(records) == strict.generations
        if not records:  # infeasible at the corner: no generation runs
            assert run(plan, config) == strict
            continue
        stop = _replayed_stop(records, config.stall_limit)
        result = run(plan, config)
        assert result.generations == stop <= strict.generations
        with monkeypatch.context() as patch:
            patch.setattr(es, "STALL_GAIN", 0.0)
            patch.setattr(es, "MAX_GENERATIONS", stop)
            assert run(plan, config) == result
        stopped_earlier += stop < strict.generations
    assert stopped_earlier >= len(builtin)


# Plans 11, 52 and 59 of scripts/report_digests.py: feasible at the lowest
# corner and unprofitable everywhere, with cost floors 1.14, 2.21 and 2.15
# times the sale price.
UNPROFITABLE_DIGEST_PLANS = {11: 1.14, 52: 2.21, 59: 2.15}


def digest_plan(index: int):
    """Random plan number index of scripts/report_digests.py, which draws
    its documents from rng [7, 3] with the same draws as random_plan."""
    rng = np.random.default_rng([7, 3])
    for _ in range(index):
        random_plan(rng)
    return random_plan(rng)


@pytest.mark.parametrize("index", sorted(UNPROFITABLE_DIGEST_PLANS))
def test_plan_whose_floor_reaches_the_price_stops_before_the_first_generation(index, monkeypatch):
    plan = digest_plan(index)
    ctx = compile_context(plan)
    assert cost_floor(ctx) / ctx.sale_price == pytest.approx(UNPROFITABLE_DIGEST_PLANS[index], abs=5e-3)
    assert dinkelbach_solve(plan, grid=GridSpec(resolution=300)).profit_rate < 0.0

    config = EsConfig(stall_limit=200)
    state = initial_state(ctx, config)
    while state.record.stall_counter < config.stall_limit:
        state = step(state, ctx, config)
        assert state.record.genome is None
    stepped = es.RunResult(
        feasible=False,
        best=None,
        sigmas_final=None,
        unit_cost=None,
        unit_time=None,
        profit_rate=None,
        generations=state.generation,
        evaluations=state.evaluations,
        seed=config.seed,
    )
    assert (stepped.generations, stepped.evaluations) == (200, 200 * config.eta)

    generations = []
    result = run(plan, config, observer=lambda s: generations.append(s.generation))
    assert result == dataclasses.replace(stepped, generations=0, evaluations=0)
    assert generations == []
    # without the floor, the run is the stepped one
    monkeypatch.setattr(es, "cost_floor", lambda ctx: -math.inf)
    assert run(plan, config) == stepped
