"""Self-adaptive (mu, eta) evolution strategy over milling decision vectors.

The population is a pair of arrays with one row per individual: genomes
[v_1..v_m, f_1..f_m] and one mutation step size per component.  The
operators act on whole populations.  Offspring are built by discrete
recombination of the genome, intermediate recombination of the step
sizes, then log-normal step-size mutation followed by a Gaussian genome
perturbation.  Selection is comma-style: only the eta children compete,
the mu parents are discarded every generation.

A generation is a few dozen numpy calls on small arrays, so per-call
overhead, not arithmetic, sets its speed, and numpy's cheapest loop is
the one over equal-shape contiguous operands.  So the children live in
contiguous (eta, L) blocks, and mutate clips them to the box as (eta, L)
rows rather than an (L,) row broadcast over every child; batch_evaluate
lays its work out the same way, in its PricingBuffers.

The arrays a generation works in, and their views, are made once per
run: initial_state gives the state a Workspace that lives for the whole
run.  It holds the box rows, the copies of each child's two parents, the
buffers in which the parents and crossover masks are drawn, the buffer
of normal draws in which mutate turns the step-size draws and
the perturbations into the children's step sizes and genomes, and
batch_evaluate's PricingBuffers for eta children, result included.
Every generation overwrites all of it.  What a state shows is copied
out of it: the mu survivors are taken into fresh arrays and a new
record's row is copied, so an observer may keep any state's genomes,
sigmas and record, but never an array of its workspace.

A run stops when its stall counter reaches stall_limit, or sooner, at
the first generation where no child can reset the counter again: the
reset fitness times (1 + STALL_GAIN) has reached rate_hi, the certified
upper bound on every fitness of the box that oracle.solve_exact computes
once per run.  The bound rests on convexity in log space, on a polygon
that holds every genome the rounded tests accept, and on a rounding
allowance (milling._cost_floor).  Before the first generation the reset
fitness is 0, so the stop is the gate that skips a plan with no
profitable point, or no feasible one, before any population is drawn.

All randomness flows through a single numpy Generator; for a fixed seed
the draws of a generation happen in a fixed documented order (parent
indices, recombination masks, step-size mutations, genome perturbations),
so runs are reproducible bit for bit.  The parent indices and masks are
the values, and take the words, that numpy's integers calls for them
give, but come from one block of raw generator output (MatingDraws).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from .milling import (
    ContractError,
    DecisionVector,
    EvalContext,
    MillingPlan,
    PricingBuffers,
    _finite,
    _is_integer,
    batch_evaluate,
    compile_context,
)
from .oracle import solve_exact

__all__ = [
    "SIGMA_FLOOR",
    "MAX_GENERATIONS",
    "STALL_GAIN",
    "EsConfig",
    "learning_rates",
    "BestRecord",
    "NormalDraws",
    "MatingDraws",
    "Workspace",
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


@dataclass(frozen=True)
class EsConfig:
    """Strategy settings.

    mu parents breed eta children per generation; every step size starts
    at sigma_init, and alpha weights the first parent's step sizes in
    recombination.  The run stops after stall_limit generations in a row
    without a relative rise of the best fitness above STALL_GAIN, at
    MAX_GENERATIONS, or at the rise after which the certified bound on
    every fitness shows that no other can come (see run).  seed fixes
    every draw.
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
        if not (_finite(self.sigma_init) and self.sigma_init > 0.0):
            raise ValueError("sigma_init must be finite and > 0")
        if not (_finite(self.alpha) and 0.0 < self.alpha < 1.0):
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


class NormalDraws(NamedTuple):
    """One generation's normal draws for n children of genome length L, in
    one buffer of n * (1 + 2L) floats in draw order, and views of it: the
    shared draw of each child, (n, 1), then the step-size draws and the
    genome perturbations, (n, L) each.  mutate turns the last two into the
    children's step sizes and genomes in place."""

    buffer: np.ndarray
    shared: np.ndarray
    steps: np.ndarray
    perturbations: np.ndarray

    @classmethod
    def empty(cls, n: int, length: int) -> NormalDraws:
        buffer = np.empty(n * (1 + 2 * length))
        return cls(
            buffer,
            buffer[:n].reshape(n, 1),
            buffer[n : n * (1 + length)].reshape(n, length),
            buffer[n * (1 + length) :].reshape(n, length),
        )


class MatingDraws:
    """One generation's mating draws for eta children of genome length L:
    each child's first and second parent index among mu, below 2**32,
    and its crossover mask, drawn in buffers made once per run.

    draw gives the values that numpy's integers(0, mu, eta),
    integers(0, mu - 1, eta) and integers(0, 2, (eta, L)).astype(bool)
    give, and leaves the generator where they leave it.  For a bound k
    below 2**32, integers takes each value from the next 32-bit half u of
    the PCG64 generator's 64-bit words, low half first, as (u * k) >> 32
    (Lemire's multiply-shift, ACM TOMACS 29(1), 2019).  It takes no half
    for k = 1, takes another when the low 32 bits of u * k fall below
    2**32 % k, and keeps an unused high half as a spare for the next
    32-bit draw.  So when no spare is held and the halves fill whole
    words, one random_raw block holds them all, a mask bit being
    u >= 2**31.  A block with a rejected draw is rewound and the
    generation drawn by numpy's own calls, as is every generation while
    a spare is held or when the halves are odd in number (for an even L,
    mu == 2 with an odd eta).  The spare is looked up only after such a
    generation, so nothing else may draw 32-bit values from the
    generator between two draws.
    """

    def __init__(self, mu: int, eta: int, length: int) -> None:
        bounds = [k for k in (mu, mu - 1) if k > 1]
        parents = eta * len(bounds)
        halves = parents + eta * length
        self.mu, self.eta, self.shape = mu, eta, (eta, length)
        self.words = halves // 2
        # Whether the raw block may be tried: while the halves fill whole
        # words and no spare is held, as none is by a fresh generator.
        self.whole = halves % 2 == 0
        self.raw = self.whole
        self.bounds = np.repeat(np.array(bounds, dtype=np.uint32), eta)
        self.thresholds = np.repeat(np.array([2**32 % k for k in bounds], dtype=np.uint32), eta)
        self.products = np.empty(parents, dtype=np.uint64)
        self.low = np.empty(parents, dtype=np.uint32)
        self.rejected = np.empty(parents, dtype=bool)
        # The first parent's draws, then the second's before it skips the
        # first; a row with no draws stays 0.  The draws are shifted in as
        # unsigned words, the same bits below 2**32.
        indices = np.zeros((2, eta), dtype=np.int64)
        self.first, self.second_drawn = indices
        self.shifted = indices.view(np.uint64).reshape(-1)[:parents]
        self.second = np.zeros(eta, dtype=np.int64)
        self.mask = np.empty(self.shape, dtype=bool)
        self.mask_bits = self.mask.reshape(-1)

    def draw(self, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(first, second, take_a): two distinct parents per child,
        uniform over the population (both 0 when mu == 1), and which
        genome components come from the first.  The arrays are this
        object's buffers or fresh, and the next draw may overwrite them."""
        bits = rng.bit_generator
        if self.raw:
            # The halves in the generator's order, whatever this machine's.
            halves = bits.random_raw(self.words).astype("<u8", copy=False).view("<u4")
            drawn = halves[: self.low.size]
            np.multiply(drawn, self.bounds, out=self.low)  # mod 2**32
            np.less(self.low, self.thresholds, out=self.rejected)
            if not np.count_nonzero(self.rejected):
                np.multiply(drawn, self.bounds, out=self.products, dtype=np.uint64)
                np.right_shift(self.products, 32, out=self.shifted)
                if self.mu > 1:
                    np.greater_equal(self.second_drawn, self.first, out=self.second)
                    self.second += self.second_drawn
                np.greater_equal(halves[drawn.size :], 2**31, out=self.mask_bits)
                return self.first, self.second, self.mask
            bits.advance(-self.words)
        first = rng.integers(0, self.mu, size=self.eta)
        if self.mu > 1:
            second = rng.integers(0, self.mu - 1, size=self.eta)
            second += second >= first
        else:
            second = np.zeros(self.eta, dtype=int)
        take_a = rng.integers(0, 2, size=self.shape).astype(bool)
        self.raw = self.whole and not bits.state["has_uint32"]
        return first, second, take_a


class Workspace(NamedTuple):
    """A run's working arrays, made once by initial_state for one context
    and config; every generation overwrites them.

    box holds the rows mutate clips the children to, lower and upper as
    (eta, L) each; parents the first and second parents' genomes and step
    sizes, alike; mating the parent indices and crossover masks; draws
    the generation's normal draws, in which mutate makes the children;
    pricing batch_evaluate's buffers for eta genomes.
    """

    box: tuple[np.ndarray, np.ndarray]
    parents: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    mating: MatingDraws
    draws: NormalDraws
    pricing: PricingBuffers


@dataclass
class EsState:
    """Parent population plus bookkeeping between generations.

    genomes, sigmas and record are fresh arrays every generation, so an
    observer may keep them; workspace is overwritten by the next one.
    """

    genomes: np.ndarray
    sigmas: np.ndarray
    record: BestRecord
    generation: int
    evaluations: int
    rng: np.random.Generator
    workspace: Workspace = field(repr=False, compare=False)


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
    equal to sigma_init, nothing evaluated yet, and the run's workspace."""
    rng = np.random.default_rng(config.seed)
    length = ctx.lower.size
    genomes = rng.uniform(ctx.lower, ctx.upper, size=(config.mu, length))
    parents = np.empty((4, config.eta, length))
    return EsState(
        genomes=genomes,
        sigmas=np.full(genomes.shape, config.sigma_init, dtype=float),
        record=BestRecord(),
        generation=0,
        evaluations=0,
        rng=rng,
        workspace=Workspace(
            box=(ctx.lower[None].repeat(config.eta, axis=0), ctx.upper[None].repeat(config.eta, axis=0)),
            parents=tuple(parents),
            mating=MatingDraws(config.mu, config.eta, length),
            draws=NormalDraws.empty(config.eta, length),
            pricing=PricingBuffers(ctx, config.eta),
        ),
    )


def recombine(
    genomes_a: np.ndarray,
    genomes_b: np.ndarray,
    sigmas_a: np.ndarray,
    sigmas_b: np.ndarray,
    alpha: float,
    take_a: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Breed one unevaluated child per row from two rows of parents.

    Discrete on the genome: each component from the first parent where
    the boolean take_a, of the genomes' shape, is true, else from the
    second; step draws it with equal odds (MatingDraws).  Intermediate
    on the step sizes.
    """
    if not genomes_a.shape == genomes_b.shape == take_a.shape:
        raise ContractError(
            f"parent genome and mask shapes differ: {genomes_a.shape}, {genomes_b.shape} and {take_a.shape}"
        )
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
    draws: NormalDraws | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Self-adapt the step sizes, perturb the genomes, clip to the box.

    Each child's step sizes are scaled by exp(tau_global * g + tau_local *
    e_j), with one draw g per child and one e_j per component, at the
    learning rates for the genome length, and kept at or above
    SIGMA_FLOOR.  lower and upper bound one genome, (length,), or each
    row, (n, length); step passes rows, so that the clipping runs on
    operands of one shape.  The inputs are left unchanged.  The normal
    draws fill draws, NormalDraws for n children of this length, or
    fresh ones, and the children are returned in its steps and
    perturbations.
    """
    n, length = genomes.shape
    if length != lower.shape[-1]:
        raise ContractError(f"genome length {length} does not match bounds length {lower.shape[-1]}")
    if draws is None:
        draws = NormalDraws.empty(n, length)
    elif draws.steps.shape != genomes.shape:
        raise ContractError(f"draws for {draws.steps.shape} children, got genomes of shape {genomes.shape}")
    tau_g, tau_l = learning_rates(length)
    # One shared global draw per individual, one local draw per component,
    # then one perturbation per component, all from one call: the generator
    # keeps no state between normal draws, so this is the stream three
    # calls of these shapes would give.
    rng.standard_normal(out=draws.buffer)
    global_draw, new_sigmas, new_genomes = draws.shared, draws.steps, draws.perturbations
    new_sigmas *= tau_l
    global_draw *= tau_g
    new_sigmas += global_draw
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
    masks, step-size mutation draws, genome perturbation draws.  The
    first two are the draws of numpy's integers calls, taken in one raw
    block (MatingDraws), so nothing but step may draw 32-bit values from
    state.rng.
    The children are bred and priced in state.workspace, which state
    must have from initial_state(ctx, config).
    """
    rng = state.rng
    work = state.workspace
    mu, eta = config.mu, config.eta
    first, second, take_a = work.mating.draw(rng)
    genomes_a, genomes_b, sigmas_a, sigmas_b = work.parents
    # In-range indices: "clip" takes them as they are, without the copy
    # that "raise" makes of out.
    state.genomes.take(first, axis=0, out=genomes_a, mode="clip")
    state.genomes.take(second, axis=0, out=genomes_b, mode="clip")
    state.sigmas.take(first, axis=0, out=sigmas_a, mode="clip")
    state.sigmas.take(second, axis=0, out=sigmas_b, mode="clip")
    genomes, sigmas = recombine(genomes_a, genomes_b, sigmas_a, sigmas_b, config.alpha, take_a)
    genomes, sigmas = mutate(genomes, sigmas, *work.box, rng, draws=work.draws)

    fitnesses = batch_evaluate(ctx, genomes, work.pricing).fitness
    order = select(fitnesses, mu)

    best_idx = int(order[0])
    last = state.record
    best = float(fitnesses[best_idx])
    if best > last.stall_fitness * (1.0 + STALL_GAIN):
        stall_counter, stall_fitness = 0, best
    else:
        stall_counter, stall_fitness = last.stall_counter + 1, last.stall_fitness
    # A new record every generation: an observer may keep the last one.
    if best > last.fitness:
        record = BestRecord(genomes[best_idx].copy(), sigmas[best_idx].copy(), best, stall_counter, stall_fitness)
    else:
        record = BestRecord(last.genome, last.sigmas, last.fitness, stall_counter, stall_fitness)

    return EsState(
        genomes=genomes.take(order, axis=0),
        sigmas=sigmas.take(order, axis=0),
        record=record,
        generation=state.generation + 1,
        evaluations=state.evaluations + eta,
        rng=rng,
        workspace=work,
    )


def run(
    plan: MillingPlan,
    config: EsConfig | None = None,
    observer: Callable[[EsState], None] | None = None,
) -> RunResult:
    """Optimize a plan; deterministic for a fixed (plan, config, seed).

    Before the first generation the run computes rate_hi, a certified
    upper bound on every fitness batch_evaluate can return in the box
    (oracle.solve_exact), without calling batch_evaluate.  step resets the
    stall counter only on a fitness above the last reset's times
    (1 + STALL_GAIN), so the run stops at the first generation where that
    product reaches rate_hi: every later generation would only count
    towards stall_limit.  The result is the one the stall counter alone
    gives with MAX_GENERATIONS set to that generation.  The bound rests on
    the premises solve_exact names (convexity in log space, a polygon
    holding every genome the rounded tests accept, a rounding allowance);
    where none is certified it is +inf and the stall counter alone stops
    the run.

    Before the first generation the reset fitness is 0, and the same test
    is the gate: when rate_hi is 0, because the lowest corner
    (ctx.corner) is infeasible, and with it every point, or because no
    point has a positive profit rate, the run sets up no population, so
    that generations and evaluations are 0 and the observer sees no
    generation.  The result is the infeasible one that running every
    generation would report.

    Raises DomainError as compile_context does.
    """
    config = config or EsConfig()
    ctx = compile_context(plan)
    rate_hi = solve_exact(ctx).rate_hi

    def settled(record: BestRecord) -> bool:
        # step resets the counter only on a fitness above this, and none
        # is above rate_hi.
        return record.stall_fitness * (1.0 + STALL_GAIN) >= rate_hi

    record, generations, evaluations = BestRecord(), 0, 0
    if not settled(record):
        state = initial_state(ctx, config)
        while (
            state.record.stall_counter < config.stall_limit
            and state.generation < MAX_GENERATIONS
            and not settled(state.record)
        ):
            state = step(state, ctx, config)
            if observer is not None:
                observer(state)
        record, generations, evaluations = state.record, state.generation, state.evaluations

    if record.genome is None:
        return RunResult(
            feasible=False,
            best=None,
            sigmas_final=None,
            unit_cost=None,
            unit_time=None,
            profit_rate=None,
            generations=generations,
            evaluations=evaluations,
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
        generations=generations,
        evaluations=evaluations,
        seed=config.seed,
    )
