"""Acceptance gate: one test per deliverable-level requirement, each at
its stated tolerance, so a verbose run prints one pass/fail line per
requirement (the stored-table consistency check prints one line per row).

The stored comparison rows are checked against exact two-decimal rounding:
seven reconcile and stay within 0.01, and the two that no rounding of their
printed columns can reconcile are named and pinned to their exact gaps, so
any edit to the stored table fails a case.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib.util
import json
import math
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from millopt import (
    DecisionVector,
    EsConfig,
    GridSpec,
    MillingPlan,
    constraint_margins,
    derive_coefficients,
    dinkelbach_solve,
    fitness,
    profit_rate,
    run,
    unit_cost,
    unit_time,
)
from millopt.case_study import REFERENCE_ROWS, load_document
from millopt.cli import main
from millopt import es
from millopt.es import SIGMA_CAP, SIGMA_FLOOR, learning_rates, mutate
from millopt.milling import compile_context
from millopt.oracle import solve_exact

from conftest import consistency_gap


SALE_PRICE = 25.0
PUBLISHED_STRATEGY = REFERENCE_ROWS[-1]  # cost 10.91, time 5.00, rate 2.82


# ---------------------------------------------------------------------------
# requirement 1: every stored comparison row is internally consistent as
# far as two-decimal printing allows — some rounding of its cost, time and
# profit rate (each within ±0.005 of the printed value) satisfies
# rate = (sale price − cost) / time exactly, and the printed columns then
# agree within 0.01.  Two rows are inconsistent as printed; they are named
# below and pinned to their exact gaps instead.
# ---------------------------------------------------------------------------

HALF_CENT = Fraction(5, 1000)

# No two-decimal rounding reconciles these rows at a sale price of 25:
#   Genetic algorithm: cost in [11.105, 11.115] and time in [5.215, 5.225]
#     imply a rate in [2.6574, 2.6644]; the printed 2.65 allows
#     [2.645, 2.655].  Reconciling it would need a sale price <= 24.987.
#   Hybrid immune algorithm: the implied rate lies in [2.7754, 2.7828]; the
#     printed 2.79 allows [2.785, 2.795].  Reconciling it would need a sale
#     price >= 25.011, so no single price reconciles both rows.
# Their gaps are the exact values of the printed columns; an edit or a
# "correction" of either row changes them and fails its case.
INCONSISTENT_AS_PRINTED = {
    "Genetic algorithm": (25 - Fraction("11.11")) / Fraction("5.22") - Fraction("2.65"),
    "Hybrid immune algorithm": (25 - Fraction("10.91")) / Fraction("5.07")
    - Fraction("2.79"),
}


def reconcilable_by_rounding(row) -> bool:
    """True when some cost, time and rate within half a cent of the printed
    columns satisfy rate = (sale price − cost) / time exactly."""
    cost, unit_time, rate = (
        Fraction(str(value)) for value in (row.unit_cost, row.unit_time, row.profit_rate)
    )
    sale_price = Fraction(SALE_PRICE)
    implied_low = (sale_price - cost - HALF_CENT) / (unit_time + HALF_CENT)
    implied_high = (sale_price - cost + HALF_CENT) / (unit_time - HALF_CENT)
    return implied_low <= rate + HALF_CENT and implied_high >= rate - HALF_CENT


@pytest.mark.parametrize("row", REFERENCE_ROWS, ids=[r.method for r in REFERENCE_ROWS])
def test_stored_row_cost_time_and_rate_agree(row):
    gap = consistency_gap(row, SALE_PRICE)
    implied = (SALE_PRICE - row.unit_cost) / row.unit_time
    if row.method in INCONSISTENT_AS_PRINTED:
        assert not reconcilable_by_rounding(row), (
            f"{row.method}: expected inconsistent as printed, but rounding reconciles "
            f"implied rate {implied:.6f} with printed {row.profit_rate:.2f}"
        )
        assert gap == pytest.approx(float(INCONSISTENT_AS_PRINTED[row.method]), abs=1e-12)
        return
    assert reconcilable_by_rounding(row), (
        f"{row.method}: implied rate {implied:.6f} vs printed {row.profit_rate:.2f} "
        "is beyond two-decimal rounding"
    )
    assert abs(gap) <= 0.01


# ---------------------------------------------------------------------------
# shared campaign: twenty seeded runs against two oracle resolutions.
# The default initial step size (3.0) is several times wider than the
# feed boxes and strands the search on box corners, so the reproduction
# campaign scales it to 0.3; everything else stays at defaults.
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def seed_campaign(builtin_plan):
    started = time.monotonic()
    results = [
        run(builtin_plan, EsConfig(seed=seed, sigma_init=0.3)) for seed in range(20)
    ]
    oracle_fine = dinkelbach_solve(builtin_plan, grid=GridSpec(resolution=2000))
    oracle_finer = dinkelbach_solve(builtin_plan, grid=GridSpec(resolution=4000))
    elapsed = time.monotonic() - started
    return {
        "results": results,
        "rate_hi": solve_exact(compile_context(builtin_plan)).rate_hi,
        "oracle_fine": oracle_fine,
        "oracle_finer": oracle_finer,
        "elapsed": elapsed,
    }


@pytest.fixture(scope="module")
def default_run(builtin_plan):
    return run(builtin_plan, EsConfig())


# ---------------------------------------------------------------------------
# requirement 2: a default-configuration run either reproduces the
# published strategy row within 5 percent on profit rate and unit cost,
# or the twenty-seed campaign meets requirement 3 and the compare
# command reports the shortfall explicitly.
# ---------------------------------------------------------------------------


def test_default_run_reproduces_published_row_or_reports_gap(
    capsys, default_run, seed_campaign
):
    started = time.monotonic()
    assert default_run.feasible

    rate_err = abs(default_run.profit_rate - PUBLISHED_STRATEGY.profit_rate) / (
        PUBLISHED_STRATEGY.profit_rate
    )
    cost_err = abs(default_run.unit_cost - PUBLISHED_STRATEGY.unit_cost) / (
        PUBLISHED_STRATEGY.unit_cost
    )
    if rate_err <= 0.05 and cost_err <= 0.05:
        return  # reproduced directly

    # fallback path: the tuned campaign must reach the oracle ...
    best = max(r.profit_rate for r in seed_campaign["results"])
    oracle_rate = seed_campaign["oracle_fine"].profit_rate
    assert abs(best - oracle_rate) / oracle_rate <= 0.01

    # ... and the comparison report must state the reproduction gap
    code = main(["compare", "--builtin-case", "--out", "json"])
    captured = capsys.readouterr()
    assert code == 0
    report = json.loads(captured.out)
    gap = report["reproduction_gap"]
    assert gap is not None
    assert gap["computed_profit_rate"] == pytest.approx(default_run.profit_rate, rel=1e-12)
    assert gap["published_profit_rate"] == PUBLISHED_STRATEGY.profit_rate
    assert abs(gap["profit_rate_relative_error"]) > 0.05  # the gap is declared, not hidden
    assert time.monotonic() - started < 60.0


# ---------------------------------------------------------------------------
# requirement 3: across twenty seeds the best profit rate lands within
# 1 percent of the resolution-2000 grid oracle, and no run beats the
# resolution-4000 oracle by more than 1 percent.
# ---------------------------------------------------------------------------


def test_twenty_seed_best_matches_grid_oracle_within_one_percent(seed_campaign):
    results = seed_campaign["results"]
    assert all(r.feasible for r in results)

    oracle_fine = seed_campaign["oracle_fine"]
    oracle_finer = seed_campaign["oracle_finer"]
    # frozen yardsticks for the bundled case
    assert oracle_fine.profit_rate == pytest.approx(1.3776734932538408, rel=1e-12)
    assert oracle_finer.profit_rate == pytest.approx(1.378387800122217, rel=1e-12)
    # the grid scan is exact over its feasible points, so the yardsticks
    # also hold to the last bit
    assert oracle_fine.profit_rate == 1.3776734932538408
    assert oracle_finer.profit_rate == 1.378387800122217

    best = max(r.profit_rate for r in results)
    assert abs(best - oracle_fine.profit_rate) / oracle_fine.profit_rate <= 0.01

    ceiling = oracle_finer.profit_rate * 1.01
    assert all(r.profit_rate <= ceiling for r in results)
    # and below the certified bound on every fitness, which stops each run
    assert all(r.profit_rate <= seed_campaign["rate_hi"] for r in results)

    assert seed_campaign["elapsed"] < 300.0


# ---------------------------------------------------------------------------
# requirement 4: on randomly generated valid plans, profit rate, unit
# time and unit cost satisfy rate * time + cost = sale price to 1e-12
# relative at ten thousand random points.
# ---------------------------------------------------------------------------


@functools.cache
def perfbench_workloads():
    """perfbench/workloads.py as a module, read from this checkout."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while the file runs
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def random_plan(rng: np.random.Generator) -> MillingPlan:
    """A random plan of 1-5 operations and 1-3 tools, loaded from the
    document that the benchmark's plan_mix and scripts/report_digests.py
    draw from the same generator."""
    return load_document(perfbench_workloads().random_plan_document(rng)).plan


def test_profit_identity_on_random_plans():
    started = time.monotonic()
    rng = np.random.default_rng(424242)
    checked = 0
    while checked < 10_000:
        plan = random_plan(rng)
        coeffs = derive_coefficients(plan)
        for _ in range(500):
            x = DecisionVector(
                speeds=tuple(
                    float(rng.uniform(*op.speed_bounds)) for op in plan.operations
                ),
                feeds=tuple(
                    float(rng.uniform(*op.feed_bounds)) for op in plan.operations
                ),
            )
            recovered = (
                profit_rate(plan, x, coeffs) * unit_time(plan, x, coeffs)
                + unit_cost(plan, x, coeffs)
            )
            assert recovered == pytest.approx(plan.economics.sale_price, rel=1e-12)
            checked += 1
            if checked == 10_000:
                break
    assert time.monotonic() - started < 10.0


# ---------------------------------------------------------------------------
# requirement 5: the objective is exactly zero when and only when some
# constraint margin is violated, across ten thousand sampled points.
# ---------------------------------------------------------------------------


def test_objective_is_zero_exactly_when_infeasible(builtin_plan, builtin_coeffs):
    started = time.monotonic()
    rng = np.random.default_rng(99)
    lowers = np.array(
        [op.speed_bounds[0] for op in builtin_plan.operations]
        + [op.feed_bounds[0] for op in builtin_plan.operations]
    )
    uppers = np.array(
        [op.speed_bounds[1] for op in builtin_plan.operations]
        + [op.feed_bounds[1] for op in builtin_plan.operations]
    )
    # feasible points are a sliver of the box (the finish caps bind hard),
    # so half the sample is drawn from a region biased toward feasibility:
    # in-box, first-operation feed under its finish cap, last-operation
    # feed under its finish cap
    biased_lowers = lowers.copy()
    biased_uppers = uppers.copy()
    biased_uppers[5] = 0.078
    biased_uppers[9] = 0.38

    zeros = positives = 0
    for i in range(10_000):
        if i % 2 == 0:
            # beyond the boxes, so box, power and finish violations all occur
            genome = rng.uniform(lowers * 0.6, uppers * 1.25)
        else:
            genome = rng.uniform(biased_lowers, biased_uppers)
        x = DecisionVector.from_genome(genome)
        violated = not all(
            m.satisfied for m in constraint_margins(builtin_plan, x, builtin_coeffs)
        )
        value = fitness(builtin_plan, x, builtin_coeffs)
        if violated:
            assert value == 0.0
            zeros += 1
        else:
            assert value != 0.0
            assert value == pytest.approx(
                profit_rate(builtin_plan, x, builtin_coeffs), rel=1e-12
            )
            positives += 1
    # the sample must actually exercise both sides of the boundary
    assert zeros > 1000 and positives > 500
    assert time.monotonic() - started < 10.0


# ---------------------------------------------------------------------------
# requirement 6: over one hundred thousand mutations of a fixed
# individual, the log step-size changes have mean 0 and variance
# tau_global^2 + tau_local^2, each within three standard errors.  The
# standard errors account for the shared per-individual draw, which
# correlates the ten components of each mutation.  The base step size lies
# so far inside [SIGMA_FLOOR, SIGMA_CAP] that neither bound acts.
# ---------------------------------------------------------------------------


def test_mutation_step_size_statistics(builtin_plan):
    started = time.monotonic()
    length = 2 * builtin_plan.m
    tau_g, tau_l = learning_rates(length)
    a, b = tau_g**2, tau_l**2

    base_genome, base_sigmas = np.full((1, length), 0.5), np.full((1, length), 1e-3)
    rng = np.random.default_rng(2024)

    n = 100_000
    log_ratios = np.empty((n, length))
    for i in range(n):
        _, child_sigmas = mutate(base_genome, base_sigmas, rng)
        log_ratios[i] = np.log(child_sigmas[0] / base_sigmas[0])
    assert math.log(SIGMA_FLOOR / 1e-3) < log_ratios.min() and log_ratios.max() < math.log(SIGMA_CAP / 1e-3)

    sample_mean = float(log_ratios.mean())
    sample_var = float((log_ratios**2).mean() - sample_mean**2)

    # each row is a * g^2-correlated: y_ij = tau_g*g_i + tau_l*e_ij, so
    #   Var(mean)     = (l*a + b) / (n*l)
    #   Var(variance) = (2*(a+b)^2 + 2*a^2*(l-1)) / (n*l)
    se_mean = math.sqrt((length * a + b) / (n * length))
    se_var = math.sqrt((2.0 * (a + b) ** 2 + 2.0 * a**2 * (length - 1)) / (n * length))

    true_var = a + b
    assert abs(sample_mean) <= 3.0 * se_mean, f"mean {sample_mean:+.2e} vs 3*SE {3 * se_mean:.2e}"
    assert abs(sample_var - true_var) <= 3.0 * se_var, (
        f"variance {sample_var:.6f} vs {true_var:.6f} +- {3 * se_var:.2e}"
    )
    assert time.monotonic() - started < 30.0


# ---------------------------------------------------------------------------
# requirement 7: over a two-thousand-generation run, the best-ever
# record never decreases, every genome stays inside its box, [0, 1]^(2m),
# and decodes to a point inside the plan's, and every step size stays
# within [SIGMA_FLOOR, SIGMA_CAP] — checked every generation.  The run's
# certified stop is switched off, so that it runs all two thousand.
# ---------------------------------------------------------------------------


def test_long_run_invariants_hold_every_generation(builtin_plan, monkeypatch):
    started = time.monotonic()
    ctx = compile_context(builtin_plan)
    lower, upper = ctx.lower, ctx.feasible_upper
    monkeypatch.setattr(es, "MAX_GENERATIONS", 2000)
    monkeypatch.setattr(es, "solve_exact", lambda c: dataclasses.replace(solve_exact(c), rate_hi=math.inf))
    config = EsConfig(seed=0, stall_limit=2000)
    decoder = es.Decoder(ctx, config.mu)
    best_so_far = [0.0]
    generations_seen = [0]

    def check(state):
        generations_seen[0] = state.generation
        assert state.record.fitness >= best_so_far[0]
        best_so_far[0] = state.record.fitness
        assert np.all(state.genomes >= 0.0) and np.all(state.genomes <= 1.0)
        points = decoder.decode(state.genomes)
        assert np.all(points >= lower) and np.all(points <= upper)
        assert np.all(state.record.genome >= lower) and np.all(state.record.genome <= upper)
        assert np.all(state.sigmas >= SIGMA_FLOOR) and np.all(state.sigmas <= SIGMA_CAP)

    result = run(builtin_plan, config, observer=check)
    assert generations_seen[0] == result.generations == 2000
    assert result.evaluations == 2000 * 105
    assert time.monotonic() - started < 60.0


# ---------------------------------------------------------------------------
# requirement 8: two command-line optimize runs with the same seed write
# byte-identical reports.
# ---------------------------------------------------------------------------


def test_cli_same_seed_reports_are_byte_identical(tmp_path, capsys):
    paths = [tmp_path / "first.json", tmp_path / "second.json"]
    for path in paths:
        code = main(
            [
                "optimize", "--builtin-case", "--seed", "0",
                "--out", "json", "--output", str(path),
            ]
        )
        capsys.readouterr()
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()
