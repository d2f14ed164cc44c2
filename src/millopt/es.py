"""Self-adaptive (mu, eta) evolution strategy over milling decision vectors.

The strategy searches u in [0, 1]^(2m), box-normalised coordinates
[u_v1..u_vm, u_f1..u_fm], and a Decoder maps each child to the speeds
and feeds batch_evaluate prices, inside the box the feasible points
fill.  So step sizes are in box widths whatever the plan's units.  The
population is a pair of arrays with one row per individual: coordinates
and one step size per component.  Offspring are built by discrete
recombination of the coordinates, intermediate recombination of the
step sizes, log-normal step-size mutation within [SIGMA_FLOOR,
SIGMA_CAP], and a Gaussian perturbation reflected into [0, 1].
Selection is comma-style: only the eta children compete.

A generation is a few dozen numpy calls on small arrays, so per-call
overhead sets its speed, and numpy's cheapest loop is the one over
equal-shape contiguous operands: the children live in contiguous (eta,
L) blocks, and the Decoder and batch_evaluate's PricingBuffers work
operation-major against constants repeated to that shape.  initial_state
makes these arrays once, in a Workspace that every generation
overwrites; the survivors and a new record's row are copied out of it,
so an observer may keep any state's genomes, sigmas and record.

A run stops when its stall counter reaches stall_limit, or sooner, at
the first generation whose record's fitness times (1 + STALL_GAIN)
reaches rate_hi, the certified upper bound on every fitness of the box
that oracle.solve_exact computes once per run: no child can then raise
the record by more than STALL_GAIN, the relative gain the stall counter
counts as progress.  Before the first generation the record is 0, so
the same test skips a plan with no profitable point, or no feasible one.

All randomness flows through a single numpy Generator; for a fixed seed
the draws of a generation happen in a fixed documented order (parent
indices, recombination masks, step-size mutations, genome perturbations),
so runs are reproducible bit for bit.
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
    unit_cost,
    unit_time,
)
from .oracle import solve_exact

__all__ = [
    "SIGMA_FLOOR",
    "SIGMA_CAP",
    "MAX_GENERATIONS",
    "STALL_GAIN",
    "EsConfig",
    "learning_rates",
    "BestRecord",
    "NormalDraws",
    "Decoder",
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


# Step sizes never fall below this floor, so they cannot collapse to zero,
# nor rise above this cap, one box width, so they cannot overflow.
SIGMA_FLOOR = 1e-8
SIGMA_CAP = 1.0

# A run stops after this many generations even if it is still improving.
MAX_GENERATIONS = 100_000

# A generation counts as progress, and resets the stall counter, only when
# the best fitness rises above the last reset's fitness by more than this
# relative gain.  Smaller rises still update the record.  run stops once
# the record is certified within this relative gain of the optimum.
STALL_GAIN = 1e-6


@dataclass(frozen=True)
class EsConfig:
    """Strategy settings.

    mu parents breed eta children per generation; every step size starts
    at sigma_init box widths, and a sigma_init above SIGMA_CAP is taken
    as SIGMA_CAP; alpha weights the first parent's step sizes in
    recombination.  The run stops after stall_limit generations in a row
    without a relative rise of the best fitness above STALL_GAIN, at
    MAX_GENERATIONS, or at the first generation whose record the certified
    bound on every fitness puts within STALL_GAIN of the optimum (see
    run).  seed fixes every draw.
    """

    mu: int = 15
    eta: int = 105
    sigma_init: float = SIGMA_CAP
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
        object.__setattr__(self, "sigma_init", min(self.sigma_init, SIGMA_CAP))
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
    profitable feasible individuals are ever recorded; genome, the point
    batch_evaluate priced, and sigmas, in box widths, stay None until one
    is.  Every strict rise updates the record.
    stall_fitness is the fitness when stall_counter last reset: the
    counter resets only on a rise above stall_fitness * (1 + STALL_GAIN),
    and counts every other generation.  run's certified stop tests
    fitness, not stall_fitness.
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
    children's step sizes and genomes in place, and reflects the genomes
    with the help of spare, (n, L)."""

    buffer: np.ndarray
    shared: np.ndarray
    steps: np.ndarray
    perturbations: np.ndarray
    spare: np.ndarray

    @classmethod
    def empty(cls, n: int, length: int) -> NormalDraws:
        buffer = np.empty(n * (1 + 2 * length))
        return cls(
            buffer,
            buffer[:n].reshape(n, 1),
            buffer[n : n * (1 + length)].reshape(n, length),
            buffer[n * (1 + length) :].reshape(n, length),
            np.empty((n, length)),
        )


class Decoder:
    """Maps n children u in [0, 1]^(2m) to the speeds and feeds that
    batch_evaluate prices, in buffers made once per run.

    The feed comes first, f = f_lo + u_f * (f_top - f_lo), with f_top from
    ctx.polygons: the largest feed, at most feed_cap, that the power
    test accepts at v_lo (f_lo where none is).  The speed follows, v = v_lo
    + u_v * (top - v_lo), with top = min(v_hi, f**-0.8 / c5), the closed
    form of milling.v_max, or v_lo where that lies below it.  u = 0 decodes
    to the lowest corner exactly, and every point is clipped below
    [v_hi, f_top], so it lies in [lower, feasible_upper]; a child that the
    rounded power test then rejects by an ulp dies, as any infeasible child
    does.  Where the lowest corner is feasible every accepted speed and
    feed is, up to rounding, the decoding of some u.  decode works
    operation-major on (2m, n) blocks, and returns an (n, 2m) view of one,
    which the next call overwrites.
    """

    def __init__(self, ctx: EvalContext, n: int) -> None:
        m = ctx.m
        f_lo = ctx.lower[m:]
        f_top = np.maximum(ctx.polygons.f_top, f_lo)
        with np.errstate(over="ignore"):  # an infinite limit leaves v_hi
            power_limit = 1.0 / ctx.c5
        # lower, upper, the feed widths and the power limits, each n times
        # in a row, from one repeat.
        repeated = np.concatenate((ctx.lower, ctx.upper[:m], f_top, f_top - f_lo, power_limit)).repeat(n)
        rows = repeated.reshape(-1, n)
        self.v_lo, self.f_lo = rows[:m], rows[m : 2 * m]
        self.upper, self.v_hi = rows[2 * m : 4 * m], rows[2 * m : 3 * m]
        self.feed_widths, self.power_limits = rows[4 * m : 5 * m], rows[5 * m :]
        self.coordinates = np.empty((2 * m, n))
        self.decoded = np.empty((2 * m, n))
        self.speed_widths = np.empty((m, n))

    def decode(self, genomes: np.ndarray) -> np.ndarray:
        m = self.speed_widths.shape[0]
        u = self.coordinates
        np.copyto(u, genomes.T)
        speeds, feeds = self.decoded[:m], self.decoded[m:]
        np.multiply(u[m:], self.feed_widths, out=feeds)
        feeds += self.f_lo
        widths = np.power(feeds, -0.8, out=self.speed_widths)
        widths *= self.power_limits
        np.minimum(widths, self.v_hi, out=widths)
        np.maximum(widths, self.v_lo, out=widths)
        widths -= self.v_lo
        np.multiply(u[:m], widths, out=speeds)
        speeds += self.v_lo
        np.minimum(self.decoded, self.upper, out=self.decoded)
        return self.decoded.T


class Workspace(NamedTuple):
    """A run's working arrays, made once by initial_state for one context
    and config; every generation overwrites them.

    parents holds the first and second parents' genomes and step sizes,
    (eta, L) each; coins the uniform draws of the crossover masks, and
    mask the masks; draws the generation's normal draws, in which mutate
    makes the children; decoder the points they decode to; pricing
    batch_evaluate's buffers for eta points.
    """

    parents: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    coins: np.ndarray
    mask: np.ndarray
    draws: NormalDraws
    decoder: Decoder
    pricing: PricingBuffers


@dataclass
class EsState:
    """Parent population plus bookkeeping between generations.

    genomes are the parents' coordinates in [0, 1]^(2m) and sigmas their
    step sizes, in box widths.  genomes, sigmas and record are fresh
    arrays every generation, so an observer may keep them; workspace is
    overwritten by the next one.
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
    solution fields are None.  sigmas_final are in box widths.
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
    """Generation 0: mu genomes uniform in [0, 1]^(2m), all step sizes
    equal to sigma_init, nothing evaluated yet, and the run's workspace."""
    rng = np.random.default_rng(config.seed)
    length = ctx.lower.size
    genomes = rng.random((config.mu, length))
    parents = np.empty((4, config.eta, length))
    return EsState(
        genomes=genomes,
        sigmas=np.full(genomes.shape, config.sigma_init),
        record=BestRecord(),
        generation=0,
        evaluations=0,
        rng=rng,
        workspace=Workspace(
            parents=tuple(parents),
            coins=np.empty((config.eta, length)),
            mask=np.empty((config.eta, length), dtype=bool),
            draws=NormalDraws.empty(config.eta, length),
            decoder=Decoder(ctx, config.eta),
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
    second; step draws it with equal odds.  Intermediate on the step
    sizes.
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
    rng: np.random.Generator,
    draws: NormalDraws | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Self-adapt the step sizes, perturb the genomes, reflect into [0, 1].

    Each child's step sizes are scaled by exp(tau_global * g + tau_local *
    e_j), with one draw g per child and one e_j per component, at the
    learning rates for the genome length, and kept within [SIGMA_FLOOR,
    SIGMA_CAP].  A perturbed component outside [0, 1] is reflected at
    its bounds as often as it takes; one inside is left as it is.  The
    inputs are left unchanged.  The normal draws fill draws, NormalDraws
    for n children of this length, or fresh ones, and the children are
    returned in its steps and perturbations.
    """
    n, length = genomes.shape
    if sigmas.shape != genomes.shape:
        raise ContractError(f"step sizes of shape {sigmas.shape} for genomes of shape {genomes.shape}")
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
    np.minimum(new_sigmas, SIGMA_CAP, out=new_sigmas)
    np.maximum(new_sigmas, SIGMA_FLOOR, out=new_sigmas)
    new_genomes *= new_sigmas
    new_genomes += genomes
    # u - 2*rint(u/2) folds u into [-1, 1] with period 2, and its magnitude
    # mirrors that onto [0, 1].  The difference is exact, so a component
    # inside [0, 1], where rint(u/2) is 0, keeps its bits.
    folds = np.multiply(new_genomes, 0.5, out=draws.spare)
    np.rint(folds, out=folds)
    folds *= 2.0
    new_genomes -= folds
    np.abs(new_genomes, out=new_genomes)
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
    masks, step-size mutation draws, genome perturbation draws.  Each
    child's second parent is uniform over the parents other than its
    first.  The children are bred, decoded and priced in state.workspace,
    which state must have from initial_state(ctx, config).
    """
    rng = state.rng
    work = state.workspace
    mu, eta = config.mu, config.eta
    first = second = rng.integers(0, mu, eta)
    if mu > 1:
        second = rng.integers(0, mu - 1, eta)
        second += second >= first
    take_a = np.less(rng.random(out=work.coins), 0.5, out=work.mask)
    genomes_a, genomes_b, sigmas_a, sigmas_b = work.parents
    # In-range indices: "clip" takes them as they are, without the copy
    # that "raise" makes of out.
    state.genomes.take(first, axis=0, out=genomes_a, mode="clip")
    state.genomes.take(second, axis=0, out=genomes_b, mode="clip")
    state.sigmas.take(first, axis=0, out=sigmas_a, mode="clip")
    state.sigmas.take(second, axis=0, out=sigmas_b, mode="clip")
    genomes, sigmas = recombine(genomes_a, genomes_b, sigmas_a, sigmas_b, config.alpha, take_a)
    genomes, sigmas = mutate(genomes, sigmas, rng, draws=work.draws)
    points = work.decoder.decode(genomes)

    fitnesses = batch_evaluate(ctx, points, work.pricing).fitness
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
        record = BestRecord(points[best_idx].copy(), sigmas[best_idx].copy(), best, stall_counter, stall_fitness)
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
    (oracle.solve_exact), and it stops at the first generation whose
    record's fitness times (1 + STALL_GAIN) reaches rate_hi: no later
    child could raise the record by more than STALL_GAIN, the relative
    gain that step counts as progress.  The result is the one the stall
    counter alone gives with MAX_GENERATIONS set to that generation.  The
    bound rests on the premises solve_exact names; where none is
    certified it is +inf and the stall counter alone stops the run.  When
    rate_hi is 0, because the lowest corner (ctx.corner) is infeasible or
    no point has a positive profit rate, the run sets up no population:
    generations and evaluations are 0, the observer sees no generation,
    and the result is the infeasible one every generation would give.

    The reported point is the record's, priced by the scalar unit_cost
    and unit_time, as evaluate prices it.  Raises DomainError as
    compile_context does, and OracleError as solve_exact does, when its
    iteration does not settle.
    """
    config = config or EsConfig()
    ctx = compile_context(plan)
    rate_hi = solve_exact(ctx).rate_hi

    def settled(record: BestRecord) -> bool:
        # The record is within STALL_GAIN of rate_hi, and no fitness is
        # above rate_hi.
        return record.fitness * (1.0 + STALL_GAIN) >= rate_hi

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

    # Only a feasible point has a positive fitness, so the record holds one
    # that batch_evaluate's feasibility test passed.
    best = DecisionVector.from_genome(record.genome)
    cost = unit_cost(plan, best, ctx.coefficients)
    time = unit_time(plan, best, ctx.coefficients)
    return RunResult(
        feasible=True,
        best=best,
        sigmas_final=tuple(float(s) for s in record.sigmas),
        unit_cost=cost,
        unit_time=time,
        profit_rate=(ctx.sale_price - cost) / time,
        generations=generations,
        evaluations=evaluations,
        seed=config.seed,
    )
