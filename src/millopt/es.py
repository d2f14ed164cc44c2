"""Self-adaptive (mu, eta) evolution strategy over milling decision vectors.

The population is a pair of arrays with one row per individual: genomes
[v_1..v_m, f_1..f_m] and one mutation step size per component.  The
operators act on whole populations.  Offspring are built by discrete
recombination of the genome, intermediate recombination of the step
sizes, then log-normal step-size mutation followed by a Gaussian genome
perturbation.  Selection is comma-style: only the eta children compete,
the mu parents are discarded every generation.

All randomness flows through a single numpy Generator; for a fixed seed
the draws of a generation happen in a fixed documented order (parent
indices, recombination masks, step-size mutations, genome perturbations),
so runs are reproducible bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable

import numpy as np

from .milling import (
    ContractError,
    DecisionVector,
    EvalContext,
    MillingPlan,
    batch_evaluate,
    compile_context,
    corner_rate,
    cost_floor,
)

__all__ = [
    "SIGMA_FLOOR",
    "MAX_GENERATIONS",
    "STALL_GAIN",
    "EsConfig",
    "learning_rates",
    "BestRecord",
    "EsState",
    "RunResult",
    "initial_state",
    "recombine",
    "mutate",
    "select",
    "step",
    "run",
]


# Step sizes never fall below this floor, so they cannot collapse to zero.
SIGMA_FLOOR = 1e-8

# A run stops after this many generations even if it is still improving.
MAX_GENERATIONS = 100_000

# A generation counts as progress, and resets the stall counter, only when
# the best fitness rises above the last reset's fitness by more than this
# relative gain.  Smaller rises still update the record.
STALL_GAIN = 1e-6


def _is_integer(value: object) -> bool:
    """An int that is not a bool: True and False are not settings."""
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class EsConfig:
    """Strategy settings.

    mu parents breed eta children per generation; every step size starts
    at sigma_init, and alpha weights the first parent's step sizes in
    recombination.  The run stops after stall_limit generations in a row
    without a relative rise of the best fitness above STALL_GAIN, or at
    MAX_GENERATIONS.  seed fixes every draw.
    """

    mu: int = 15
    eta: int = 105
    sigma_init: float = 3.0
    alpha: float = 0.5
    stall_limit: int = 1000
    seed: int = 0

    def __post_init__(self) -> None:
        if not (_is_integer(self.mu) and self.mu >= 1):
            raise ValueError("mu must be an integer >= 1")
        if not (_is_integer(self.eta) and self.eta > self.mu):
            raise ValueError("eta must be an integer > mu")
        if not (math.isfinite(self.sigma_init) and self.sigma_init > 0.0):
            raise ValueError("sigma_init must be > 0")
        if not (math.isfinite(self.alpha) and 0.0 < self.alpha < 1.0):
            raise ValueError("alpha must be strictly between 0 and 1")
        if not (_is_integer(self.stall_limit) and self.stall_limit >= 1):
            raise ValueError("stall_limit must be an integer >= 1")
        if not (_is_integer(self.seed) and 0 <= self.seed < 2**64):
            raise ValueError("seed must be an integer in [0, 2**64)")


@lru_cache(maxsize=None)
def learning_rates(genome_length: int) -> tuple[float, float]:
    """(tau_global, tau_local) for genome length l: the standard schedule
    1/sqrt(2*l) for the shared draw and 1/sqrt(2*sqrt(l)) for the
    per-component draws.  Cached: a run asks for them once per generation."""
    if genome_length < 1:
        raise ValueError("genome_length must be >= 1")
    return 1.0 / math.sqrt(2.0 * genome_length), 1.0 / math.sqrt(2.0 * math.sqrt(genome_length))


@dataclass
class BestRecord:
    """Best strictly positive fitness ever observed, kept outside the
    population so comma selection cannot lose it.

    fitness starts at 0.0, the death-penalty value, so only genuinely
    profitable feasible individuals are ever recorded; genome and sigmas
    stay None until one is.  Every strict rise updates the record.
    stall_fitness is the fitness when stall_counter last reset: the
    counter resets only on a rise above stall_fitness * (1 + STALL_GAIN),
    and counts every other generation.
    """

    genome: np.ndarray | None = None
    sigmas: np.ndarray | None = None
    fitness: float = 0.0
    stall_counter: int = 0
    stall_fitness: float = 0.0


@dataclass
class EsState:
    """Parent population plus bookkeeping between generations."""

    genomes: np.ndarray
    sigmas: np.ndarray
    record: BestRecord
    generation: int
    evaluations: int
    rng: np.random.Generator


@dataclass(frozen=True)
class RunResult:
    """Outcome of one optimization run.

    When no feasible solution was ever found, feasible is False and the
    solution fields are None.
    """

    feasible: bool
    best: DecisionVector | None
    sigmas_final: tuple[float, ...] | None
    unit_cost: float | None
    unit_time: float | None
    profit_rate: float | None
    generations: int
    evaluations: int
    seed: int


def initial_state(ctx: EvalContext, config: EsConfig) -> EsState:
    """Generation 0: mu genomes uniform inside the box, all step sizes
    equal to sigma_init, nothing evaluated yet."""
    rng = np.random.default_rng(config.seed)
    genomes = rng.uniform(ctx.lower, ctx.upper, size=(config.mu, ctx.lower.size))
    return EsState(
        genomes=genomes,
        sigmas=np.full(genomes.shape, config.sigma_init, dtype=float),
        record=BestRecord(),
        generation=0,
        evaluations=0,
        rng=rng,
    )


def recombine(
    genomes_a: np.ndarray,
    genomes_b: np.ndarray,
    sigmas_a: np.ndarray,
    sigmas_b: np.ndarray,
    alpha: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Breed one unevaluated child per row from two rows of parents.

    Discrete on the genome: each component from either parent with equal
    probability.  Intermediate on the step sizes.
    """
    if genomes_a.shape != genomes_b.shape:
        raise ContractError(f"parent genome shapes differ: {genomes_a.shape} and {genomes_b.shape}")
    take_a = rng.integers(0, 2, size=genomes_a.shape).astype(bool)
    genomes = np.where(take_a, genomes_a, genomes_b)
    sigmas = sigmas_a * alpha
    sigmas += (1.0 - alpha) * sigmas_b
    return genomes, sigmas


def mutate(
    genomes: np.ndarray,
    sigmas: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Self-adapt the step sizes, perturb the genomes, clip to the box.

    Each child's step sizes are scaled by exp(tau_global * g + tau_local *
    e_j), with one draw g per child and one e_j per component, at the
    learning rates for the genome length, and kept at or above
    SIGMA_FLOOR.  Returns new arrays; the inputs are left unchanged.
    """
    n, length = genomes.shape
    if length != lower.shape[0]:
        raise ContractError(f"genome length {length} does not match bounds length {lower.shape[0]}")
    tau_g, tau_l = learning_rates(length)
    # One shared global draw per individual, one local draw per component,
    # then one perturbation per component, all from one call: the generator
    # keeps no state between normal draws, so this is the stream three
    # calls of these shapes would give.
    draws = rng.standard_normal(n * (1 + 2 * length))
    global_draw = draws[:n].reshape(n, 1)
    new_sigmas = draws[n : n * (1 + length)].reshape(n, length)
    new_genomes = draws[n * (1 + length) :].reshape(n, length)
    new_sigmas *= tau_l
    new_sigmas += tau_g * global_draw
    np.exp(new_sigmas, out=new_sigmas)
    new_sigmas *= sigmas
    np.maximum(new_sigmas, SIGMA_FLOOR, out=new_sigmas)
    new_genomes *= new_sigmas
    new_genomes += genomes
    np.maximum(new_genomes, lower, out=new_genomes)
    np.minimum(new_genomes, upper, out=new_genomes)
    return new_genomes, new_sigmas


def select(fitnesses: np.ndarray, mu: int) -> np.ndarray:
    """Indices of the mu fittest children, best first, ties in generation
    order.  A NaN fitness marks a child that was never evaluated."""
    if fitnesses.size < mu:
        raise ContractError(f"need at least mu={mu} children, got {fitnesses.size}")
    order = np.argsort(-fitnesses, kind="stable")
    if math.isnan(fitnesses[order[-1]]):  # argsort puts any NaN last
        raise ContractError("cannot select among unevaluated children")
    return order[:mu]


def step(state: EsState, ctx: EvalContext, config: EsConfig) -> EsState:
    """Advance one generation: breed eta children, evaluate, select mu.

    Draw order within the generation: parent indices, recombination
    masks, step-size mutation draws, genome perturbation draws.
    """
    rng = state.rng
    mu, eta = config.mu, config.eta
    # Two distinct parents per child, uniform over the population.
    first = rng.integers(0, mu, size=eta)
    if mu > 1:
        second = rng.integers(0, mu - 1, size=eta)
        second += second >= first
    else:
        second = np.zeros(eta, dtype=int)
    genomes, sigmas = recombine(
        state.genomes.take(first, axis=0),
        state.genomes.take(second, axis=0),
        state.sigmas.take(first, axis=0),
        state.sigmas.take(second, axis=0),
        config.alpha,
        rng,
    )
    genomes, sigmas = mutate(genomes, sigmas, ctx.lower, ctx.upper, rng)

    fitnesses = batch_evaluate(ctx, genomes).fitness
    order = select(fitnesses, mu)

    best_idx = int(order[0])
    record = state.record
    best = float(fitnesses[best_idx])
    if best > record.stall_fitness * (1.0 + STALL_GAIN):
        record = replace(record, stall_counter=0, stall_fitness=best)
    else:
        record = replace(record, stall_counter=record.stall_counter + 1)
    if best > record.fitness:
        record = replace(record, genome=genomes[best_idx].copy(), sigmas=sigmas[best_idx].copy(), fitness=best)

    return EsState(
        genomes=genomes.take(order, axis=0),
        sigmas=sigmas.take(order, axis=0),
        record=record,
        generation=state.generation + 1,
        evaluations=state.evaluations + eta,
        rng=rng,
    )


def run(
    plan: MillingPlan,
    config: EsConfig | None = None,
    observer: Callable[[EsState], None] | None = None,
) -> RunResult:
    """Optimize a plan; deterministic for a fixed (plan, config, seed).

    The run stops before the first generation, so that generations and
    evaluations are 0 and the observer sees no generation, when the lowest
    corner is infeasible, and with it every point, or when the certified
    cost floor (milling.cost_floor) reaches the sale price, so that no
    point has a positive profit rate.  Either way the result is the
    infeasible one that running every generation would report.

    Raises DomainError as compile_context does.
    """
    config = config or EsConfig()
    ctx = compile_context(plan)
    state = initial_state(ctx, config)
    # No point is feasible unless the lowest corner is, and none is
    # profitable once the cost floor reaches the price; a positive corner
    # rate already shows a profit, so only a nonpositive one asks for it.
    rate = corner_rate(ctx)
    nothing_to_find = rate is None or (rate <= 0.0 and cost_floor(ctx) >= ctx.sale_price)
    max_generations = 0 if nothing_to_find else MAX_GENERATIONS
    while state.record.stall_counter < config.stall_limit and state.generation < max_generations:
        state = step(state, ctx, config)
        if observer is not None:
            observer(state)

    record = state.record
    if record.genome is None:
        return RunResult(
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

    # Only a feasible genome has a positive fitness, so the record holds
    # one that batch_evaluate's feasibility test passed.
    evaluation = batch_evaluate(ctx, record.genome[None, :])
    cost = float(evaluation.unit_cost[0])
    time = float(evaluation.unit_time[0])
    return RunResult(
        feasible=True,
        best=DecisionVector.from_genome(record.genome),
        sigmas_final=tuple(float(s) for s in record.sigmas),
        unit_cost=cost,
        unit_time=time,
        profit_rate=(ctx.sale_price - cost) / time,
        generations=state.generation,
        evaluations=state.evaluations,
        seed=config.seed,
    )
