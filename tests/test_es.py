"""Evolution-strategy engine tests: configuration validation, the
initial population, the three variation operators on population arrays
with scripted randomness, comma selection, the generation step, and
whole-run behavior including determinism."""

from __future__ import annotations

import dataclasses
import importlib
import json
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import millopt
from millopt import ContractError
from millopt import es, milling
from millopt.es import (
    SIGMA_CAP,
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
    ModelError,
    _cost_floor,
    batch_evaluate,
    compile_context,
    derive_coefficients,
    feasible_polygons,
    operation_minima,
    plan_warnings,
)
from millopt.oracle import GridSpec, OracleResult, dinkelbach_solve, solve_exact

from test_acceptance import perfbench_workloads, random_plan


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
        assert cfg.sigma_init == SIGMA_CAP
        assert cfg.alpha == 0.5
        assert cfg.stall_limit == 1000
        assert cfg.seed == 0
        assert es.MAX_GENERATIONS == 100_000
        assert SIGMA_FLOOR == 1e-8
        assert SIGMA_CAP == 1.0
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


def reflect(genome, steps):
    """One mutation at unit step sizes that moves genome by steps, so only
    the reflection into [0, 1] acts."""
    length = genome.size
    rng = QueuedNormals([np.zeros((1, 1)), np.zeros((1, length)), np.asarray(steps, dtype=float)[None, :]])
    reflected, _ = mutate(genome[None, :], np.ones((1, length)), rng)
    return reflected[0]


class TestReflectIntoBox:
    """mutate reflects every perturbed genome into [0, 1]."""

    def test_reflects_at_either_bound(self):
        genome = np.array([0.25, 0.75, 0.5, 0.5])
        reflected = reflect(genome, [-0.5, 0.5, 2.75, -3.25])
        # -0.25 -> 0.25, 1.25 -> 0.75, 3.25 -> 0.75 (twice), -2.75 -> 0.75
        assert np.array_equal(reflected, [0.25, 0.75, 0.75, 0.75])

    def test_in_box_points_keep_their_bits(self):
        rng = np.random.default_rng(8)
        genome = np.concatenate([rng.random(200), [0.0, 1.0, 0.5, 5e-324, 1e-300, math.nextafter(1.0, 0.0)]])
        assert np.array_equal(reflect(genome, np.zeros(genome.size)), genome)

    def test_reflection_is_exact_inside_a_period(self):
        rng = np.random.default_rng(9)
        inside = rng.random(500)
        # above 1 the mirror image 2 - x, below 0 the image -x, both exact
        above, below = 1.0 + inside, -inside
        assert np.array_equal(reflect(above, np.zeros(500)), 2.0 - above)
        assert np.array_equal(reflect(below, np.zeros(500)), inside)

    def test_children_of_huge_steps_stay_in_the_box(self):
        rng = np.random.default_rng(10)
        genome = rng.random(1000)
        reflected = reflect(genome, rng.normal(0.0, 50.0, 1000))
        assert np.all(reflected >= 0.0) and np.all(reflected <= 1.0)


class TestInitPopulation:
    def test_population_shape_and_sigmas(self, toy_single_plan):
        cfg = toy_config(mu=5, eta=7, sigma_init=0.75, seed=3)
        ctx = compile_context(toy_single_plan)
        state = initial_state(ctx, cfg)
        assert state.genomes.shape == (5, 2)
        assert np.all(state.genomes >= 0.0) and np.all(state.genomes < 1.0)
        assert np.all(state.sigmas == 0.75)
        # nothing evaluated yet
        assert state.record.genome is None and state.record.fitness == 0.0
        assert (state.generation, state.evaluations) == (0, 0)

    @pytest.mark.parametrize("sigma_init", [1.25, 3.0, 1e308])
    def test_step_sizes_start_at_most_at_the_cap(self, toy_single_plan, sigma_init):
        cfg = toy_config(sigma_init=sigma_init)
        assert cfg.sigma_init == SIGMA_CAP  # the config holds the step size the run starts at
        state = initial_state(compile_context(toy_single_plan), cfg)
        assert np.all(state.sigmas == SIGMA_CAP)

    def test_same_seed_same_population(self, toy_single_plan):
        cfg = toy_config(seed=11)
        ctx = compile_context(toy_single_plan)
        a = initial_state(ctx, cfg)
        b = initial_state(ctx, cfg)
        assert np.array_equal(a.genomes, b.genomes)
        # one uniform draw of the whole population opens the seed's stream
        expected = np.random.default_rng(11).random((cfg.mu, ctx.lower.size))
        assert np.array_equal(a.genomes, expected)


def coin_mask(rng, shape):
    """A crossover mask from uniform draws, as step draws it."""
    return rng.random(shape) < 0.5


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
        # breeding a generation draws the crossover mask, then mutate's
        # global, local and step normals in turn, on one generator
        n, length = 7, 4
        genomes_a = np.random.default_rng(1).random((n, length))
        genomes_b = np.random.default_rng(3).random((n, length))
        sigmas = np.random.default_rng(2).uniform(0.05, 0.3, (n, length))
        tau_g, tau_l = learning_rates(length)
        rng = np.random.default_rng(5)
        take_a = rng.random((n, length)) < 0.5
        global_draw = rng.standard_normal((n, 1))
        local_draws = rng.standard_normal((n, length))
        expected_sigmas = np.clip(sigmas * np.exp(tau_g * global_draw + tau_l * local_draws), SIGMA_FLOOR, SIGMA_CAP)
        parents = np.where(take_a, genomes_a, genomes_b)
        moved = parents + expected_sigmas * rng.standard_normal((n, length))
        expected = np.where(moved < 0.0, -moved, np.where(moved > 1.0, 2.0 - moved, moved))
        bred = np.random.default_rng(5)
        child, child_sigmas = recombine(genomes_a, genomes_b, sigmas, sigmas.copy(), 0.5, coin_mask(bred, (n, length)))
        assert np.array_equal(child, parents)
        child, child_sigmas = mutate(child, child_sigmas, bred)
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
    """A generation's parents and crossover mask from numpy's calls, as
    step draws them: the second parent uniform over the other mu - 1."""
    first = rng.integers(0, mu, eta)
    if mu > 1:
        second = rng.integers(0, mu - 1, eta)
        second += second >= first
    else:
        second = first
    return first, second, rng.random((eta, length)) < 0.5


class TestStepDraws:
    @pytest.mark.parametrize("mu, eta", [(15, 105), (1, 7), (2, 3), (4, 9)], ids=["default", "one", "two", "four"])
    def test_step_draws_the_stream_of_numpys_calls(self, builtin_plan, mu, eta):
        # parents, masks, then mutate's normals: the children step prices
        # are the ones these calls breed
        ctx = compile_context(builtin_plan)
        cfg = toy_config(mu=mu, eta=eta, sigma_init=0.3, seed=4)
        state = initial_state(ctx, cfg)
        twin = np.random.default_rng(4)
        genomes = twin.random((mu, ctx.lower.size))
        assert np.array_equal(state.genomes, genomes)
        sigmas = state.sigmas
        for _ in range(20):
            first, second, take_a = numpy_mating(twin, mu, eta, ctx.lower.size)
            assert np.all(second != first) or mu == 1
            child, child_sigmas = recombine(
                genomes[first], genomes[second], sigmas[first], sigmas[second], cfg.alpha, take_a
            )
            child, child_sigmas = mutate(child, child_sigmas, twin)
            order = select(batch_evaluate(ctx, es.Decoder(ctx, eta).decode(child)).fitness, mu)
            genomes, sigmas = child[order], child_sigmas[order]
            state = step(state, ctx, cfg)
            assert np.array_equal(state.genomes, genomes) and np.array_equal(state.sigmas, sigmas)
        assert state.rng.standard_normal() == twin.standard_normal()

    def test_second_parent_is_uniform_over_the_others(self):
        first, second, take_a = numpy_mating(np.random.default_rng(6), 4, 60_000, 2)
        pairs = np.bincount(4 * first + second, minlength=16).reshape(4, 4)
        assert np.all(np.diag(pairs) == 0)
        off = pairs[~np.eye(4, dtype=bool)]
        # 5,000 expected per pair: six standard deviations is about 420
        assert np.all(np.abs(off - 5000) < 420)
        assert abs(take_a.mean() - 0.5) < 0.01


class TestMutate:
    def test_zero_draws_leave_individual_unchanged(self):
        genome, sigmas = np.array([[0.3, 0.7]]), np.array([[0.5, 0.5]])
        rng = zero_draws(2)
        child, child_sigmas = mutate(genome, sigmas, rng)
        assert np.array_equal(child, genome)
        assert np.array_equal(child_sigmas, sigmas)
        assert rng.exhausted

    def test_unit_draws_scale_sigma_by_exp_of_tau_sum(self):
        genome, sigmas = np.array([[0.3, 0.7]]), np.array([[0.1, 0.1]])
        rng = QueuedNormals([np.ones((1, 1)), np.ones((1, 2)), np.zeros((1, 2))])
        child, child_sigmas = mutate(genome, sigmas, rng)
        tau_g = 1.0 / math.sqrt(2.0 * 2.0)
        tau_l = 1.0 / math.sqrt(2.0 * math.sqrt(2.0))
        expected = 0.1 * math.exp(tau_g + tau_l)
        assert child_sigmas[0] == pytest.approx([expected, expected], rel=1e-15)
        assert np.array_equal(child, genome)

    def test_length_ten_unit_draw_value(self):
        genome, sigmas = np.full((1, 10), 0.4), np.full((1, 10), 0.3)
        rng = QueuedNormals([np.ones((1, 1)), np.ones((1, 10)), np.zeros((1, 10))])
        _, child_sigmas = mutate(genome, sigmas, rng)
        expected = 0.3 * math.exp(1.0 / math.sqrt(20.0) + 1.0 / math.sqrt(2.0 * math.sqrt(10.0)))
        assert expected == pytest.approx(0.55837, abs=5e-6)
        assert child_sigmas[0] == pytest.approx(np.full(10, expected), rel=1e-15)

    def test_genome_step_uses_new_sigma_then_reflects(self):
        genome, sigmas = np.array([[0.5, 0.2]]), np.array([[0.125, 0.25]])
        rng = QueuedNormals([np.zeros((1, 1)), np.zeros((1, 2)), np.array([[2.0, -1.0]])])
        child, _ = mutate(genome, sigmas, rng)
        assert child[0, 0] == 0.5 + 0.125 * 2.0
        assert child[0, 1] == pytest.approx(0.25 - 0.2, rel=1e-15)  # -0.05 reflected at 0

    def test_sigma_floor_applies(self):
        genome, sigmas = np.array([[0.5, 0.2]]), np.array([[0.5, 0.5]])
        rng = QueuedNormals(
            [np.full((1, 1), -100.0), np.zeros((1, 2)), np.zeros((1, 2))]
        )
        _, child_sigmas = mutate(genome, sigmas, rng)
        assert np.all(child_sigmas == SIGMA_FLOOR)

    def test_sigma_cap_applies(self):
        genome, sigmas = np.array([[0.5, 0.2]]), np.array([[0.5, 1.0]])
        rng = QueuedNormals([np.full((1, 1), 100.0), np.zeros((1, 2)), np.ones((1, 2))])
        child, child_sigmas = mutate(genome, sigmas, rng)
        assert np.all(child_sigmas == SIGMA_CAP)
        assert np.array_equal(child[0], [0.5, 0.8])  # 1.5 and 1.2 reflected at 1

    def test_mutated_individual_is_new_object(self):
        genome, sigmas = np.array([[0.5, 0.2]]), np.array([[0.5, 0.5]])
        rng = zero_draws(2)
        child, child_sigmas = mutate(genome, sigmas, rng)
        child[0, 0] = -1.0
        child_sigmas[0, 0] = -1.0
        assert genome[0, 0] == 0.5
        assert sigmas[0, 0] == 0.5

    def test_one_draw_gives_the_stream_of_three(self):
        # mutate draws a generation's normals in one call; on a real
        # generator that is the global, local and step draws, in turn
        n, length = 7, 4
        genomes = np.random.default_rng(1).random((n, length))
        sigmas = np.random.default_rng(2).uniform(0.05, 0.3, (n, length))
        tau_g, tau_l = learning_rates(length)
        rng = np.random.default_rng(5)
        global_draw = rng.standard_normal((n, 1))
        local_draws = rng.standard_normal((n, length))
        expected_sigmas = np.clip(sigmas * np.exp(tau_g * global_draw + tau_l * local_draws), SIGMA_FLOOR, SIGMA_CAP)
        moved = genomes + expected_sigmas * rng.standard_normal((n, length))
        mutated = np.random.default_rng(5)
        child, child_sigmas = mutate(genomes, sigmas, mutated)
        assert np.array_equal(child_sigmas, expected_sigmas)
        assert np.array_equal(child, np.where(moved < 0.0, -moved, np.where(moved > 1.0, 2.0 - moved, moved)))
        assert mutated.standard_normal() == rng.standard_normal()

    def test_given_draws_hold_the_same_children(self):
        # step passes its run's draws: the same stream, and the children
        # are made in their views
        n, length = 7, 4
        genomes = np.random.default_rng(1).random((n, length))
        sigmas = np.random.default_rng(2).uniform(0.05, 0.3, (n, length))
        draws = es.NormalDraws.empty(n, length)
        fresh = mutate(genomes, sigmas, np.random.default_rng(5))
        child, child_sigmas = mutate(genomes, sigmas, np.random.default_rng(5), draws=draws)
        assert child is draws.perturbations and child_sigmas is draws.steps
        assert np.array_equal(child, fresh[0]) and np.array_equal(child_sigmas, fresh[1])
        with pytest.raises(ContractError):
            mutate(genomes[:1], sigmas[:1], np.random.default_rng(5), draws=draws)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ContractError, match="step sizes"):
            mutate(np.full((1, 3), 0.5), np.ones((1, 2)), np.random.default_rng(0))


def encode(ctx, points):
    """The coordinates u that Decoder maps to points, by the inverse of its
    formulas, clipped into [0, 1]; a component whose range is one point
    takes 0."""
    m = ctx.m
    v_lo, v_hi, f_lo = ctx.lower[:m], ctx.upper[:m], ctx.lower[m:]
    f_top = np.maximum(feasible_polygons(ctx).f_top, f_lo)
    v, f = points[..., :m], points[..., m:]
    top = np.maximum(np.minimum(v_hi, f**-0.8 / ctx.c5), v_lo)
    with np.errstate(invalid="ignore", divide="ignore"):
        u = np.concatenate([(v - v_lo) / (top - v_lo), (f - f_lo) / (f_top - f_lo)], axis=-1)
    return np.clip(np.nan_to_num(u, nan=0.0), 0.0, 1.0)


def corner_feasible_context(seed: int):
    """The compiled random plan of seed, when its lowest corner is feasible."""
    try:
        ctx = compile_context(random_plan(np.random.default_rng(seed)))
    except ModelError:
        ctx = None
    assume(ctx is not None and ctx.corner.feasible[0])
    return ctx


class TestDecoder:
    @given(seed=st.integers(0, 2**32 - 1), coordinates=st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_every_decoded_point_lies_in_the_feasible_box(self, seed, coordinates):
        ctx = corner_feasible_context(seed)
        rng = np.random.default_rng(coordinates)
        u = rng.random((40, 2 * ctx.m))
        # the box's faces and corners too
        u[rng.random(u.shape) < 0.2] = 0.0
        u[rng.random(u.shape) < 0.2] = 1.0
        u[0], u[1] = 0.0, 1.0
        points = es.Decoder(ctx, 40).decode(u)
        assert np.all(points >= ctx.lower) and np.all(points <= ctx.feasible_upper)
        assert np.array_equal(points[0], ctx.lower)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_the_exact_optimum_encodes_and_decodes_back(self, seed):
        # the decoder reaches the optimum: it is onto the feasible points
        ctx = corner_feasible_context(seed)
        exact = solve_exact(ctx)
        point = np.array(exact.best.speeds + exact.best.feeds)
        decoded = es.Decoder(ctx, 1).decode(encode(ctx, point)[None, :])[0]
        # within 3 ulps on 15,186 corner-feasible plans of rng 1
        assert np.all(np.abs(decoded - point) <= 4 * np.spacing(point))

    def test_feeds_and_speeds_decode_in_that_order(self, builtin_plan):
        ctx = compile_context(builtin_plan)
        m = ctx.m
        f_top = feasible_polygons(ctx).f_top
        u = np.zeros((3, 2 * m))
        u[1, m:] = 1.0  # feed tops at the lowest speeds
        u[2] = 1.0  # and the fastest speeds at them
        points = es.Decoder(ctx, 3).decode(u)
        assert np.array_equal(points[1], np.concatenate([ctx.lower[:m], f_top]))
        top = np.minimum(ctx.upper[:m], f_top**-0.8 / ctx.c5)
        assert np.allclose(points[2, :m], top, rtol=4e-16, atol=0.0)
        assert np.array_equal(points[2, m:], f_top)

    def test_rng5_sample_finds_every_profitable_plan(self):
        # the first 60 plans of rng 5 at ES seed 0 and stall 200
        rng = np.random.default_rng(5)
        profitable = 0
        for _ in range(60):
            plan = random_plan(rng)
            try:
                ctx = compile_context(plan)
            except ModelError:
                continue
            exact = solve_exact(ctx)
            if exact.feasible and exact.profit_rate > 0.0:
                profitable += 1
                assert run(plan, EsConfig(stall_limit=200, seed=0)).feasible
        # the strategy once missed 3 of these 42 and exited 3 on them
        assert profitable == 42


def plan_mix_plan(workload_seed: int, index: int):
    """Plan number index of perfbench's plan_mix stream at workload_seed,
    which draws each item's document and then its ES seed."""
    workloads = perfbench_workloads()
    rng = np.random.default_rng([workload_seed, workloads.WORKLOADS["plan_mix"].stream_id])
    for _ in range(index):
        workloads.random_plan_document(rng)
        rng.integers(0, 2**31)
    return random_plan(rng)


def test_step_sizes_stay_capped_through_a_long_stall():
    # plan_mix seed-1 plan 94 is feasible at its corner and unprofitable
    # everywhere, so every child dies; its step sizes once overflowed to
    # inf at generation 4,349 of ES seed 3
    ctx = compile_context(plan_mix_plan(1, 94))
    assert solve_exact(ctx).rate_hi == 0.0 and ctx.corner.feasible[0]
    config = EsConfig(seed=3, stall_limit=5000)
    state = initial_state(ctx, config)
    for _ in range(5000):
        state = step(state, ctx, config)
        assert np.all(state.sigmas <= SIGMA_CAP) and np.all(state.sigmas >= SIGMA_FLOOR)
    assert state.record.genome is None and state.record.stall_counter == 5000


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
            assert np.all(state.sigmas >= SIGMA_FLOOR) and np.all(state.sigmas <= SIGMA_CAP)
            assert np.all(state.genomes >= 0.0) and np.all(state.genomes <= 1.0)

    def test_record_is_monotone_and_covers_population(self, toy_single_plan):
        cfg = toy_config(mu=4, eta=12)
        ctx = compile_context(toy_single_plan)
        state = initial_state(ctx, cfg)
        decoder = es.Decoder(ctx, cfg.mu)
        previous = 0.0
        for _ in range(20):
            state = step(state, ctx, cfg)
            assert state.record.fitness >= previous
            pop_fitness = batch_evaluate(ctx, decoder.decode(state.genomes)).fitness
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

    def test_children_decode_into_the_box_of_a_replaced_context(self, builtin_plan, monkeypatch):
        # the decoder's bounds come from the context the run is given, not
        # from the one it was replaced from
        compiled = compile_context(builtin_plan)
        ctx = dataclasses.replace(compiled, upper=(compiled.lower + compiled.upper) / 2)
        cfg = toy_config(mu=4, eta=9, sigma_init=0.5)
        state = initial_state(ctx, cfg)
        priced = []

        def spy(context, genomes, buffers=None):
            priced.append(genomes.copy())
            return batch_evaluate(context, genomes, buffers)

        monkeypatch.setattr(es, "batch_evaluate", spy)
        for _ in range(5):
            state = step(state, ctx, cfg)
        children = np.concatenate(priced)
        assert children.shape == (5 * cfg.eta, ctx.lower.size)
        assert np.all(children >= ctx.lower) and np.all(children <= ctx.feasible_upper)
        # u = 1 decodes to the replaced context's tops: its speeds of 90,
        # 55 and 40, not the 120, 70 and 50 it was narrowed from
        m, f_top = ctx.m, ctx.polygons.f_top
        top = state.workspace.decoder.decode(np.ones((cfg.eta, ctx.lower.size)))[0]
        assert np.array_equal(top[m:], f_top)
        assert np.allclose(top[:m], np.minimum(ctx.upper[:m], f_top**-0.8 / ctx.c5), rtol=4e-16, atol=0.0)

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
    def test_feasible_polygons_are_computed_once_per_run(self, builtin_plan, monkeypatch):
        # solve_exact and the decoder share the context's polygons
        calls = []

        def counted(ctx):
            calls.append(ctx)
            return feasible_polygons(ctx)

        monkeypatch.setattr(milling, "feasible_polygons", counted)
        result = run(builtin_plan, EsConfig(stall_limit=5))
        assert result.generations >= 1 and len(calls) == 1

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
        # the certified stop ends this run after 16 generations
        assert result.generations == 16
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


def _reference_rate() -> float:
    """The best-known profit rate of the bundled case that the benchmark's
    reference file records, found by an earlier search."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"
    return json.loads(path.read_text(encoding="utf-8"))["builtin_case"]["profit_rate"]


# Frozen from whole runs with every strict rise counted as progress:
# (profit_rate, generations, evaluations, sigmas_final).  Both end 2.5e-10
# and 2.0e-10 below the optimum, above the reference file's rate.
WHOLE_RUNS = {
    0: (
        1.3791069899596022,
        1587,
        166635,
        (
            1.0007897229417838e-07,
            1.0999196432443166e-08,
            1.304603450199701e-08,
            2.5586926099165938e-08,
            1.0808623341133864e-06,
            1e-08,
            1.5144949820595302e-06,
            9.604897426900585e-08,
            2.7838865698678857e-08,
            1e-08,
        ),
    ),
    16: (
        1.3791069900270843,
        3311,
        347655,
        (
            1e-08,
            1.315499979883612e-08,
            1.320792187647195e-08,
            2.6333598330536172e-08,
            1.615771476957531e-08,
            2.165221565257015e-08,
            1.5464303617350682e-08,
            3.052034577141082e-08,
            1e-08,
            1.5505340824141635e-08,
        ),
    ),
}


@pytest.mark.parametrize("seed", sorted(WHOLE_RUNS))
def test_whole_builtin_run_is_pinned_bit_for_bit(builtin_plan, seed, monkeypatch):
    # A STALL_GAIN of 0 resets the stall counter on every strict rise, and
    # the certified stop never holds: no record reaches rate_hi.
    monkeypatch.setattr(es, "STALL_GAIN", 0.0)
    result = run(builtin_plan, EsConfig(sigma_init=0.3, seed=seed))
    assert (result.profit_rate, result.generations, result.evaluations, result.sigmas_final) == WHOLE_RUNS[seed]
    assert result.profit_rate > _reference_rate()


# Frozen from whole runs under the default STALL_GAIN and the certified
# stop: (profit_rate, generations, evaluations, sigmas_final).  A run stops
# at the first generation whose record times (1 + STALL_GAIN) reaches the
# bundled case's rate_hi: generation 78 for seed 0, 76 for seed 16 and 88
# for seed 18, 7.6e-7, 8.6e-7 and 9.4e-7 below the optimum.  Seed 18's
# last reset of the stall counter, 9 generations earlier, falls short of
# that bound, so a stop on the reset fitness would not stop it there.
DEFAULT_RULE_RUNS = {
    0: (
        1.3791059413238278,
        78,
        8190,
        (
            0.00011841814401727714,
            7.32420530288811e-06,
            2.3603673200975544e-06,
            0.00011186335564269378,
            0.0012210947164626737,
            1.340511395548338e-06,
            0.0005286085088570667,
            9.31907386799729e-05,
            4.440129941531428e-05,
            2.088071404650206e-05,
        ),
    ),
    16: (
        1.3791058087763417,
        76,
        7980,
        (
            0.0004201567946400798,
            1.565764785388315e-06,
            5.7089495494093775e-06,
            0.0003924508482147204,
            0.00047251768806364056,
            1.5981249606025563e-06,
            0.0004940829662004445,
            0.0007834330640400716,
            0.00016341355839064143,
            2.046437053031305e-05,
        ),
    ),
    18: (
        1.3791056962585084,
        88,
        9240,
        (
            0.00018221013505864271,
            8.39172688989468e-06,
            5.237366356381653e-06,
            9.059372362312171e-05,
            0.0010223321789363602,
            6.95324018466185e-07,
            0.0004978929863492427,
            0.00035023780934441157,
            2.0616522985509558e-05,
            1.7705896094687765e-05,
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
    first at which the stall counter reaches stall_limit or the record's
    fitness times (1 + STALL_GAIN) reaches rate_hi, 0 when that holds
    before any.  A child above the last reset's fitness times
    (1 + STALL_GAIN) always raises the record, and no rule changes how the
    record rises, so the records alone decide every reset and every stop."""
    counter, stall_fitness, fitness = 0, 0.0, 0.0
    for generation, record in enumerate(records):
        if counter >= stall_limit or fitness * (1.0 + es.STALL_GAIN) >= rate_hi:
            return generation
        fitness = record.fitness
        if fitness > stall_fitness * (1.0 + es.STALL_GAIN):
            counter, stall_fitness = 0, fitness
        else:
            counter += 1
    if counter >= stall_limit or fitness * (1.0 + es.STALL_GAIN) >= rate_hi:
        return len(records)
    raise AssertionError("the run under a STALL_GAIN of 0 stopped first")


def test_default_run_is_a_prefix_of_the_strict_rise_run(builtin_plan, monkeypatch):
    """Under the default STALL_GAIN a run stops where the replayed counter
    first reaches stall_limit or the record times (1 + STALL_GAIN) first
    reaches rate_hi, and reports exactly what a run with a STALL_GAIN of 0
    reported after that many generations, and what the stall counter alone
    reported then."""
    rng = np.random.default_rng(20261019)
    builtin = [(builtin_plan, EsConfig(sigma_init=0.3, seed=seed)) for seed in (0, 1, 2, 3, 4, 16, 18)]
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


def test_every_run_the_bound_stops_is_certified_within_stall_gain(builtin_plan):
    """A run that ends with its stall counter below stall_limit was stopped
    by the certified bound: its last record times (1 + STALL_GAIN) reaches
    rate_hi, the record one generation earlier does not, and the reported
    profit rate is certified within STALL_GAIN of the optimum as well.  A
    run that sees no generation was gated by a rate_hi of 0.  Every run on
    the bundled case, at either initial step size, is stopped so."""
    rng = np.random.default_rng(20261021)
    builtin = [
        (builtin_plan, EsConfig(sigma_init=sigma, seed=seed)) for sigma in (0.3, 3.0) for seed in range(20)
    ]
    plans = [(random_plan(rng), EsConfig(stall_limit=200, seed=k)) for k in range(30)]
    generations, stopped = [], {"builtin": 0, "random": 0}
    for index, (plan, config) in enumerate(builtin + plans):
        rate_hi = solve_exact(compile_context(plan)).rate_hi
        records: list[es.BestRecord] = []
        result = run(plan, config, observer=lambda s: records.append(s.record))
        assert len(records) == result.generations
        generations.append(result.generations)
        if not records:
            assert rate_hi == 0.0 and not result.feasible
            continue
        if records[-1].stall_counter >= config.stall_limit:
            continue
        earlier = records[-2].fitness if len(records) > 1 else 0.0
        assert earlier * (1.0 + es.STALL_GAIN) < rate_hi <= records[-1].fitness * (1.0 + es.STALL_GAIN)
        assert result.profit_rate * (1.0 + es.STALL_GAIN) >= rate_hi
        stopped["builtin" if index < len(builtin) else "random"] += 1
    assert sum(generations[:20]) == 1679 and max(generations[:20]) == 96
    assert sum(generations[20:40]) == 1850 and max(generations[20:40]) == 104
    assert stopped == {"builtin": 40, "random": 30 - generations[40:].count(0)}


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
    # the record is priced by the scalar model, not by batch_evaluate
    assert calls == {"step": result.generations, "batch_evaluate": result.generations}
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
    # the gate: at a record of 0 the certified stop already holds
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
