"""Evolution-strategy engine tests: configuration validation, the
initial population, the three variation operators on population arrays
with scripted randomness, comma selection, the generation step, and
whole-run behavior including determinism."""

from __future__ import annotations

import dataclasses
import importlib
import json
import math
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import millopt
from millopt import ContractError
from millopt import es, milling
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
    BatchEval,
    _cost_floor,
    batch_evaluate,
    compile_context,
    derive_coefficients,
    feasible_polygons,
    operation_minima,
    plan_warnings,
)
from millopt.oracle import GridSpec, OracleResult, dinkelbach_solve, solve_exact

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

    def standard_normal(self, size=None, out=None):
        if out is not None:
            out[...] = self.standard_normal(out.shape)
            return out
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
            pytest.param({"sigma_init": True}, id="sigma_init_bool"),
        ],
    )
    def test_rejects_bad_settings(self, overrides):
        with pytest.raises(ValueError):
            EsConfig(**overrides)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, 0.0, -1.0])
    def test_sigma_init_message_names_both_conditions(self, value):
        with pytest.raises(ValueError, match=r"^sigma_init must be finite and > 0$"):
            EsConfig(sigma_init=value)

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


def coin_mask(rng, shape):
    """A crossover mask from numpy's integers call, as MatingDraws draws it."""
    return rng.integers(0, 2, size=shape).astype(bool)


class TestRecombine:
    def test_identical_parents_reproduce_exactly(self):
        genome, sigmas = np.array([[80.0, 0.2]]), np.array([[2.0, 4.0]])
        take_a = coin_mask(np.random.default_rng(0), (1, 2))
        child, child_sigmas = recombine(genome, genome.copy(), sigmas, sigmas.copy(), toy_config().alpha, take_a)
        assert np.array_equal(child, genome)
        assert np.array_equal(child_sigmas, sigmas)

    def test_step_sizes_blend_to_midpoint(self):
        _, sigmas = recombine(
            np.array([[1.0, 1.0]]),
            np.array([[9.0, 9.0]]),
            np.array([[2.0, 4.0]]),
            np.array([[4.0, 8.0]]),
            toy_config(alpha=0.5).alpha,
            coin_mask(np.random.default_rng(0), (1, 2)),
        )
        assert np.array_equal(sigmas[0], np.array([3.0, 6.0]))

    def test_genome_components_come_from_a_parent(self):
        rng = np.random.default_rng(5)
        a = np.array([[1.0, 2.0, 3.0]])
        b = np.array([[10.0, 20.0, 30.0]])
        seen_from_both = set()
        for _ in range(50):
            take_a = coin_mask(rng, (1, 3))
            child, _ = recombine(a, b, np.ones((1, 3)), np.ones((1, 3)), toy_config().alpha, take_a)
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
            coin_mask(np.random.default_rng(0), (1, 1)),
        )
        assert sigmas[0, 0] == pytest.approx(0.25 * 10.0 + 0.75 * 20.0, rel=1e-15)

    def test_one_draw_gives_the_stream_of_three(self):
        # breeding a generation draws the crossover mask, here in one raw
        # block, then mutate's global, local and step normals in turn, on
        # one generator
        n, length = 7, 4
        genomes_a = np.random.default_rng(1).uniform(60.0, 120.0, (n, length))
        genomes_b = np.random.default_rng(3).uniform(60.0, 120.0, (n, length))
        sigmas = np.random.default_rng(2).uniform(0.5, 3.0, (n, length))
        lower, upper = np.full(length, 70.0), np.full(length, 110.0)
        tau_g, tau_l = learning_rates(length)
        rng = np.random.default_rng(5)
        take_a = rng.integers(0, 2, size=(n, length)).astype(bool)
        global_draw = rng.standard_normal((n, 1))
        local_draws = rng.standard_normal((n, length))
        expected_sigmas = np.maximum(
            sigmas * np.exp(tau_g * global_draw + tau_l * local_draws), SIGMA_FLOOR
        )
        parents = np.where(take_a, genomes_a, genomes_b)
        expected = np.clip(parents + expected_sigmas * rng.standard_normal((n, length)), lower, upper)
        bred = np.random.default_rng(5)
        bred_mask = es.MatingDraws(1, n, length).draw(bred)[2]
        child, child_sigmas = recombine(genomes_a, genomes_b, sigmas, sigmas.copy(), 0.5, bred_mask)
        assert np.array_equal(child, parents)
        child, child_sigmas = mutate(child, child_sigmas, lower, upper, bred)
        assert np.array_equal(child, expected) and np.array_equal(child_sigmas, expected_sigmas)
        assert bred.standard_normal() == rng.standard_normal()

    def test_length_mismatch_rejected(self):
        with pytest.raises(ContractError):
            recombine(
                np.ones((1, 2)),
                np.ones((1, 3)),
                np.ones((1, 2)),
                np.ones((1, 3)),
                toy_config().alpha,
                coin_mask(np.random.default_rng(0), (1, 2)),
            )

    def test_mask_shape_mismatch_rejected(self):
        ones = np.ones((2, 3))
        with pytest.raises(ContractError, match="mask"):
            recombine(ones, ones, ones, ones, toy_config().alpha, np.ones((1, 3), dtype=bool))


def numpy_mating(rng, mu, eta, length):
    """A generation's parents and crossover mask from numpy's integers
    calls: the reference that MatingDraws.draw must equal while the halves
    fill whole words and no draw is rejected."""
    first = rng.integers(0, mu, size=eta)
    if mu > 1:
        second = rng.integers(0, mu - 1, size=eta)
        second += second >= first
    else:
        second = np.zeros(eta, dtype=int)
    return first, second, rng.integers(0, 2, size=(eta, length)).astype(bool)


def reference_mating(bits, mu, eta, length):
    """A generation's parents and crossover mask by MatingDraws' rule, one
    Python int at a time, and the number of raw blocks it took: each block
    is split into 32-bit halves, low half first, and drawn again whole
    while a parent half is rejected."""
    bounds = [k for k in (mu, mu - 1) if k > 1 for _ in range(eta)]
    halves = len(bounds) + eta * length
    blocks = 0
    while True:
        blocks += 1
        words = bits.random_raw((halves + 1) // 2).tolist()
        us = [word >> shift & 0xFFFFFFFF for word in words for shift in (0, 32)][:halves]
        products = [u * k for u, k in zip(us, bounds)]
        if all(p & 0xFFFFFFFF >= 2**32 % k for p, k in zip(products, bounds)):
            break
    drawn = [p >> 32 for p in products] + [0] * (2 * eta - len(products))
    first, second = np.array(drawn[:eta]), np.array(drawn[eta:])
    if mu > 1:
        second += second >= first
    mask = np.array([u >= 2**31 for u in us[len(bounds) :]]).reshape(eta, length)
    return (first, second, mask), blocks


class TestMatingDraws:
    @pytest.mark.parametrize(
        "mu, eta, length",
        [(15, 105, 10), (1, 7, 2), (3, 7, 20), (4, 9, 20)],
        ids=["default", "one-parent", "three", "four"],
    )
    def test_draws_are_the_stream_of_numpys_calls(self, mu, eta, length):
        mating = es.MatingDraws(mu, eta, length)
        drawn, twin, moved = (np.random.default_rng(4) for _ in range(3))
        for _ in range(60):
            got = mating.draw(drawn)
            expected = numpy_mating(twin, mu, eta, length)
            assert all(np.array_equal(a, b) for a, b in zip(got, expected))
            assert got[2].dtype == bool
            # one block of mating.words words, and no spare half held
            moved.bit_generator.random_raw(mating.words)
            assert drawn.bit_generator.state == moved.bit_generator.state
            assert not drawn.bit_generator.state["has_uint32"]
            # mutate's normals come between two generations' mating draws
            for rng in (drawn, twin, moved):
                rng.standard_normal(eta * (1 + 2 * length))
        assert drawn.standard_normal() == twin.standard_normal()
        assert drawn.integers(0, 2**32, dtype=np.uint32) == twin.integers(0, 2**32, dtype=np.uint32)

    def test_odd_halves_leave_the_last_half_unused(self):
        # mu 2 draws no second parent, so 3 + 3 * 2 halves take 5 words
        mu, eta, length = 2, 3, 2
        mating = es.MatingDraws(mu, eta, length)
        assert mating.words == 5
        drawn, twin = np.random.default_rng(4), np.random.default_rng(4)
        for _ in range(60):
            got = mating.draw(drawn)
            expected, blocks = reference_mating(twin.bit_generator, mu, eta, length)
            assert all(np.array_equal(a, b) for a, b in zip(got, expected))
            assert blocks == 1  # mu 2 rejects no half
            assert drawn.bit_generator.state == twin.bit_generator.state
            drawn.standard_normal(3)
            twin.standard_normal(3)

    def test_rejected_blocks_are_drawn_again_whole(self):
        # Lemire's method rejects about half the draws below 2**31 + 1
        mu, eta, length = 2**31 + 1, 2, 2
        mating = es.MatingDraws(mu, eta, length)
        drawn, twin = np.random.default_rng(9), np.random.default_rng(9)
        redrawn = 0
        for _ in range(300):
            got = mating.draw(drawn)
            expected, blocks = reference_mating(twin.bit_generator, mu, eta, length)
            assert all(np.array_equal(a, b) for a, b in zip(got, expected))
            assert got[0] is mating.first
            redrawn += blocks - 1
            # the generator moves by whole blocks only
            assert drawn.bit_generator.state == twin.bit_generator.state
            drawn.standard_normal(3)
            twin.standard_normal(3)
        assert redrawn >= 20
        assert drawn.integers(0, 2**32, dtype=np.uint32) == twin.integers(0, 2**32, dtype=np.uint32)

    def test_step_makes_no_integers_call_on_the_raw_path(self, builtin_plan):
        class Forbidding:
            """Passes on every attribute it is not given but the forbidden."""

            def __init__(self, wrapped, forbidden, **given):
                self.wrapped, self.forbidden = wrapped, forbidden
                vars(self).update(given)

            def __getattr__(self, name):
                if name in self.forbidden:
                    raise AssertionError(f"{name} used")
                return getattr(self.wrapped, name)

        cfg = EsConfig(sigma_init=0.3, seed=3)
        ctx = compile_context(builtin_plan)
        plain = initial_state(ctx, cfg)
        watched = initial_state(ctx, cfg)
        bits = Forbidding(watched.rng.bit_generator, {"advance", "state"})
        watched = dataclasses.replace(watched, rng=Forbidding(watched.rng, {"integers"}, bit_generator=bits))
        for _ in range(30):
            plain, watched = step(plain, ctx, cfg), step(watched, ctx, cfg)
        assert np.array_equal(watched.genomes, plain.genomes)
        assert watched.record.fitness == plain.record.fitness > 0.0


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

    def test_given_draws_hold_the_same_children(self):
        # step passes its run's draws: the same stream, and the children
        # are made in their views
        n, length = 7, 4
        genomes = np.random.default_rng(1).uniform(60.0, 120.0, (n, length))
        sigmas = np.random.default_rng(2).uniform(0.5, 3.0, (n, length))
        lower, upper = np.full(length, 70.0), np.full(length, 110.0)
        draws = es.NormalDraws.empty(n, length)
        fresh = mutate(genomes, sigmas, lower, upper, np.random.default_rng(5))
        child, child_sigmas = mutate(genomes, sigmas, lower, upper, np.random.default_rng(5), draws=draws)
        assert child is draws.perturbations and child_sigmas is draws.steps
        assert np.array_equal(child, fresh[0]) and np.array_equal(child_sigmas, fresh[1])
        with pytest.raises(ContractError):
            mutate(genomes[:1], sigmas[:1], lower, upper, np.random.default_rng(5), draws=draws)

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

        def scripted(_ctx, genomes, _buffers=None):
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

    def test_children_are_clipped_to_the_box_of_a_replaced_context(self, builtin_plan, monkeypatch):
        # the clip rows come from the context the run is given, not from
        # the one it was replaced from
        compiled = compile_context(builtin_plan)
        ctx = dataclasses.replace(compiled, upper=(compiled.lower + compiled.upper) / 2)
        cfg = toy_config(mu=4, eta=9, sigma_init=0.5)
        state = initial_state(ctx, cfg)
        lower_rows, upper_rows = state.workspace.box
        assert np.array_equal(lower_rows, np.tile(ctx.lower, (cfg.eta, 1)))
        assert np.array_equal(upper_rows, np.tile(ctx.upper, (cfg.eta, 1)))
        priced = []

        def spy(context, genomes, buffers=None):
            priced.append(genomes.copy())
            return batch_evaluate(context, genomes, buffers)

        monkeypatch.setattr(es, "batch_evaluate", spy)
        for _ in range(5):
            state = step(state, ctx, cfg)
        children = np.concatenate(priced)
        assert children.shape == (5 * cfg.eta, ctx.lower.size)
        assert np.all(children >= ctx.lower) and np.all(children <= ctx.upper)
        assert np.any(children == ctx.upper)  # the narrowed bound did clip

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

    def test_observed_states_outlive_the_generations_after_them(self, builtin_plan):
        # every generation works in the run's one workspace; what a state
        # shows an observer must not be among what the next one overwrites
        kept = []

        def observer(state):
            record = state.record
            seen = [state.genomes, state.sigmas, record.genome, record.sigmas]
            kept.append((state, [None if a is None else a.copy() for a in seen]))

        result = run(builtin_plan, EsConfig(sigma_init=0.3, seed=2, stall_limit=20), observer=observer)
        assert len(kept) == result.generations >= 20
        assert kept[-1][0].record.genome is not None
        for state, copies in kept:
            record = state.record
            for array, copy in zip([state.genomes, state.sigmas, record.genome, record.sigmas], copies):
                assert (array is None and copy is None) or np.array_equal(array, copy)

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
        result = run(toy_single_plan, EsConfig(seed=0, stall_limit=10))
        info = learning_rates.cache_info()
        # the certified stop ends this run after 5 generations
        assert result.generations == 5
        assert info.misses == 1 and info.hits == result.generations - 1

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
        # every module's star import works: a stale entry, say of a class
        # that is gone, would raise here
        for name in ("millopt.es", "millopt.milling", "millopt.oracle", "millopt.case_study", "millopt.cli"):
            exported = importlib.import_module(name).__all__
            assert len(set(exported)) == len(exported), name
            exec(f"from {name} import *", {})


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


# Frozen from whole runs under the default STALL_GAIN and the certified
# stop: (profit_rate, generations, evaluations, sigmas_final).  Seed 0's
# last rise of more than STALL_GAIN is at generation 206, and seed 16's at
# 173; at each, the reset fitness times (1 + STALL_GAIN) reaches the
# bundled case's rate_hi, so the run stops there, 1,000 generations before
# its stall counter would stop it, 6.2e-7 and 3.7e-7 below the optimum.
DEFAULT_RULE_RUNS = {
    0: (
        1.379106132891478,
        206,
        21630,
        (
            0.021239705676676306,
            0.0006004661983356961,
            0.00115488040527791,
            0.030779165030491273,
            0.016823409384616964,
            1.3895783723282444e-08,
            0.00195100495426513,
            0.00039537275443210306,
            0.00047533499054633305,
            3.614795015440634e-05,
        ),
    ),
    16: (
        1.379106485581932,
        173,
        18165,
        (
            0.00721368526272336,
            0.00018550540806556211,
            0.0006170507813290366,
            0.006848579308471965,
            0.017731764508234788,
            3.8451415761012094e-08,
            0.00030126814531556773,
            0.0001933953955743942,
            0.00051638876943917,
            3.687588866687719e-07,
        ),
    ),
}


@pytest.mark.parametrize("seed", sorted(DEFAULT_RULE_RUNS))
def test_whole_builtin_run_under_the_default_stop_rule_is_pinned(builtin_plan, seed):
    result = run(builtin_plan, EsConfig(sigma_init=0.3, seed=seed))
    assert (
        result.profit_rate, result.generations, result.evaluations, result.sigmas_final
    ) == DEFAULT_RULE_RUNS[seed]


def without_bound(ctx) -> OracleResult:
    """solve_exact with no certificate: es.run then runs by its stall counter alone."""
    return OracleResult(False, None, None, None, None, 0, (), rate_hi=math.inf)


def _replayed_stop(records: list[es.BestRecord], stall_limit: int, rate_hi: float) -> int:
    """The generation at which the default rule stops, replayed on the
    records of a run under a STALL_GAIN of 0 without the certified stop: the
    first at which the stall counter reaches stall_limit or the last
    reset's fitness times (1 + STALL_GAIN) reaches rate_hi, 0 when that
    holds before any.  A child above the last reset's fitness times
    (1 + STALL_GAIN) always raises the record, so the records alone decide
    every reset."""
    counter, stall_fitness = 0, 0.0
    for generation, record in enumerate(records):
        if counter >= stall_limit or stall_fitness * (1.0 + es.STALL_GAIN) >= rate_hi:
            return generation
        if record.fitness > stall_fitness * (1.0 + es.STALL_GAIN):
            counter, stall_fitness = 0, record.fitness
        else:
            counter += 1
    if counter >= stall_limit or stall_fitness * (1.0 + es.STALL_GAIN) >= rate_hi:
        return len(records)
    raise AssertionError("the run under a STALL_GAIN of 0 stopped first")


def test_default_run_is_a_prefix_of_the_strict_rise_run(builtin_plan, monkeypatch):
    """Under the default STALL_GAIN a run stops where the replayed counter
    first reaches stall_limit or the replayed reset fitness reaches
    rate_hi, and reports exactly what a run with a STALL_GAIN of 0 reported
    after that many generations, and what the stall counter alone reported
    then."""
    rng = np.random.default_rng(20261019)
    builtin = [(builtin_plan, EsConfig(sigma_init=0.3, seed=seed)) for seed in (0, 1, 2, 3, 4, 16)]
    plans = [(random_plan(rng), EsConfig(stall_limit=200, seed=k)) for k in range(30)]
    cases = builtin + plans
    stopped_earlier = certified = 0
    for plan, config in cases:
        rate_hi = solve_exact(compile_context(plan)).rate_hi
        records: list[es.BestRecord] = []
        with monkeypatch.context() as patch:
            patch.setattr(es, "STALL_GAIN", 0.0)
            patch.setattr(es, "solve_exact", without_bound)
            strict = run(plan, config, observer=lambda s: records.append(s.record))
        assert len(records) == strict.generations
        stop = _replayed_stop(records, config.stall_limit, rate_hi)
        result = run(plan, config)
        assert result.generations == stop <= strict.generations
        for gain in (0.0, es.STALL_GAIN):
            with monkeypatch.context() as patch:
                patch.setattr(es, "STALL_GAIN", gain)
                patch.setattr(es, "solve_exact", without_bound)
                patch.setattr(es, "MAX_GENERATIONS", stop)
                assert run(plan, config) == result
        stopped_earlier += stop < strict.generations
        with monkeypatch.context() as patch:
            patch.setattr(es, "solve_exact", without_bound)
            certified += stop < run(plan, config).generations
    assert stopped_earlier >= len(builtin)
    assert certified >= len(builtin)


def test_run_looks_up_step_and_batch_evaluate_on_the_module_every_generation(builtin_plan, monkeypatch):
    """perfbench/tracing.py times a run by wrapping es.step and
    es.batch_evaluate, and reads EsState.record, EsState.evaluations and
    BatchEval.feasible; a run that bound either function once would go
    untimed."""
    calls = {"step": 0, "batch_evaluate": 0}

    def counting(name):
        original = getattr(es, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(es, name, counted)

    counting("step")
    counting("batch_evaluate")
    seen = []
    result = run(
        builtin_plan,
        EsConfig(stall_limit=5),
        observer=lambda state: seen.append((state.generation, calls["step"], calls["batch_evaluate"])),
    )
    assert result.feasible and result.generations >= 5
    assert seen == [(g, g, g) for g in range(1, result.generations + 1)]
    # one more batch_evaluate prices the record
    assert calls == {"step": result.generations, "batch_evaluate": result.generations + 1}
    assert {"record", "evaluations"} <= {f.name for f in dataclasses.fields(es.EsState)}
    assert "feasible" in {f.name for f in dataclasses.fields(BatchEval)}


# Plans 11, 52 and 59 of scripts/report_digests.py: feasible at the lowest
# corner and unprofitable everywhere, with certified cost floors 1.14, 2.21
# and 2.15 times the sale price.
UNPROFITABLE_DIGEST_PLANS = {11: 1.14, 52: 2.21, 59: 2.15}


def digest_plan(index: int):
    """Random plan number index of scripts/report_digests.py, which draws
    its documents from rng [7, 3] as random_plan draws them."""
    rng = np.random.default_rng([7, 3])
    for _ in range(index):
        random_plan(rng)
    return random_plan(rng)


def certified_cost_floor(ctx) -> float:
    """The floor solve_exact certifies on every unit cost at lam = 0."""
    polygons = feasible_polygons(ctx)
    return _cost_floor(ctx, polygons, 0.0, operation_minima(ctx, polygons, 0.0))


@pytest.mark.parametrize("index", sorted(UNPROFITABLE_DIGEST_PLANS))
def test_plan_whose_floor_reaches_the_price_stops_before_the_first_generation(index, monkeypatch):
    plan = digest_plan(index)
    ctx = compile_context(plan)
    assert certified_cost_floor(ctx) / ctx.sale_price == pytest.approx(UNPROFITABLE_DIGEST_PLANS[index], abs=5e-3)
    # the gate: at a stall fitness of 0 the certified stop already holds
    assert solve_exact(ctx).rate_hi == 0.0
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
    # without the bound, the run is the stepped one
    monkeypatch.setattr(es, "solve_exact", without_bound)
    assert run(plan, config) == stepped


@pytest.mark.parametrize("index", [None, 11], ids=["corner_infeasible", "digest_plan_11"])
def test_skipped_run_prices_the_corner_once_and_draws_no_population(index, toy_infeasible_plan, monkeypatch):
    # The corner's evaluation is made once, by compile_context, and a run
    # with nothing to find seeds no generator and draws no genome.
    plan = toy_infeasible_plan if index is None else digest_plan(index)
    calls = []

    def counted(ctx, genomes):
        calls.append(np.atleast_2d(genomes).shape[0])
        return batch_evaluate(ctx, genomes)

    def no_population(ctx, config):
        raise AssertionError("initial_state called for a plan with nothing to find")

    monkeypatch.setattr(milling, "batch_evaluate", counted)
    monkeypatch.setattr(es, "batch_evaluate", counted)
    monkeypatch.setattr(es, "initial_state", no_population)
    result = run(plan, EsConfig(stall_limit=200))
    assert not result.feasible
    assert (result.generations, result.evaluations) == (0, 0)
    assert calls == [1]
