"""Time millopt end to end and layer by layer, and record seeded search
counts next to the times, in one JSON file.

    python3 scripts/bench.py            # writes BENCH_<short commit>.json at the repo root
    python3 scripts/bench.py --quick    # few repeats, for a smoke test
    python3 scripts/bench.py --out PATH

The script imports millopt from the checkout it lives in (``src/``), and
the random plan generator and the calibration kernels from that
checkout's ``perfbench/``.  Everything runs in this one process, and
reports are written to a string, never to a terminal.  The file has four
sections:

  * end_to_end: ``cli.main`` wall time of optimize, oracle, compare and
    evaluate on the bundled case, and of the same four commands on random
    plan 19 of the digest set (rng [7, 3]), which is infeasible at its
    lowest corner, so each call is nothing but the work every call does
    around its search.  The eight calls run in turn, forward and then
    backward, so that a slow stretch of the machine falls on all of them;
    each gets the minimum and the median of its calls, in ms.
  * per_layer: the fixed work of a call, stage by stage, and one ES
    generation's parts, on the bundled case, in µs: the minimum and the
    median over repeats of the mean of a batch of calls, the stages
    timed in turn as the end-to-end calls are.  solve_exact reuses the
    context's polygons, which feasible_polygons times alone.
  * seeded: ES generations and evaluations for the bundled case at
    sigma_init 0.3, seeds 0-19, with each run's relative gap to the
    certified bound rate_hi.  These are counts of a seeded search, not
    timings: a re-run gives the same numbers, which the tests check.
  * environment: commit, Python and numpy versions, CPU count and one
    reading of each perfbench calibration kernel, so that files written
    on different days can be put side by side.  Compare times only
    within one file, or across files whose calibration readings agree.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import timeit
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

import calibration  # noqa: E402
from millopt import case_study, cli, es, milling, oracle  # noqa: E402
from workloads import ES_SEEDS, midpoint_args, random_plan_document  # noqa: E402

# The digest set's random plans (scripts/report_digests.py) and the one of
# them whose lowest corner is infeasible.
PLAN_RNG = [7, 3]
CORNER_INFEASIBLE_PLAN = 19
SEEDED_SIGMA_INIT = 0.3


def _git(*args: str) -> str:
    done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=False)
    return done.stdout.strip() if done.returncode == 0 else ""


def environment() -> dict:
    kernels = {}
    for name, kernel in calibration.KERNELS.items():
        kernel()  # warm
        kernels[name] = {
            "min_s": min(timeit.repeat(kernel, number=1, repeat=5)),
            "reference_s": calibration.REFERENCE_S[name],
        }
    return {
        "commit": _git("rev-parse", "--short", "HEAD") or "unknown",
        "dirty": bool(_git("status", "--porcelain", "--untracked-files=no")),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "calibration": kernels,
    }


def _commands(workdir: Path) -> dict[str, list[str]]:
    """label -> argv of the eight end-to-end calls."""
    builtin = ["--builtin-case", "--out", "json"]
    operations = case_study.builtin_case()[0].operations
    point = midpoint_args([op.speed_bounds for op in operations], [op.feed_bounds for op in operations])
    rng = np.random.default_rng(PLAN_RNG)
    for _ in range(CORNER_INFEASIBLE_PLAN + 1):
        document = random_plan_document(rng)
    path = workdir / f"plan_{CORNER_INFEASIBLE_PLAN}.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    plan = ["--config", str(path), "--out", "json"]
    ops = document["operations"]
    plan_point = midpoint_args([op["speed_bounds"] for op in ops], [op["feed_bounds"] for op in ops])
    label = f"plan{CORNER_INFEASIBLE_PLAN}"
    return {
        "optimize builtin": ["optimize", *builtin],
        "oracle builtin": ["oracle", *builtin],
        "compare builtin": ["compare", *builtin],
        "evaluate builtin": ["evaluate", *builtin, *point],
        f"optimize {label}": ["optimize", *plan, "--stall", "200"],
        f"oracle {label}": ["oracle", *plan, "--grid-resolution", "300"],
        f"compare {label}": ["compare", *plan],
        f"evaluate {label}": ["evaluate", *plan, *plan_point],
    }


def _call(argv: list[str]) -> float:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        cli.main(argv)
        return perf_counter() - start


def end_to_end(repeats: int) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        commands = _commands(Path(tmp))
        labels = list(commands)
        for label in labels:
            _call(commands[label])  # warm
        times: dict[str, list[float]] = {label: [] for label in labels}
        for r in range(repeats):
            for label in labels if r % 2 == 0 else reversed(labels):
                times[label].append(_call(commands[label]))
        return {
            label: {
                "argv": [Path(arg).name if arg.startswith(tmp) else arg for arg in commands[label]],
                "calls": len(samples),
                "min_ms": 1e3 * min(samples),
                "median_ms": 1e3 * statistics.median(samples),
            }
            for label, samples in times.items()
        }


def _layers() -> dict:
    """name -> zero-argument callable of each timed stage, on the bundled case."""
    argv = ["optimize", "--builtin-case", "--out", "json"]
    path = case_study.BUILTIN_DOCUMENT
    plan = case_study.load_document_file(path).plan
    ctx = milling.compile_context(plan)
    config = es.EsConfig(sigma_init=SEEDED_SIGMA_INIT)
    state = es.initial_state(ctx, config)
    for _ in range(10):
        state = es.step(state, ctx, config)
    work = state.workspace
    children = work.draws.perturbations.copy()  # the last generation's children
    sigmas = work.draws.steps.copy()
    points = work.decoder.decode(children).copy()
    rng = np.random.default_rng(0)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(argv)
    report = json.loads(out.getvalue())
    return {
        "parse": lambda: cli._parse_args(argv),
        "load_document_file": lambda: case_study.load_document_file(path),
        "compile_context": lambda: milling.compile_context(plan),
        "corner_pricing": lambda: milling.batch_evaluate(ctx, ctx.lower),
        "feasible_polygons": lambda: milling.feasible_polygons(ctx),
        "solve_exact": lambda: oracle.solve_exact(ctx),
        "initial_state": lambda: es.initial_state(ctx, config),
        "es_step": lambda: es.step(state, ctx, config),
        "batch_evaluate": lambda: milling.batch_evaluate(ctx, points, work.pricing),
        "decode": lambda: work.decoder.decode(children),
        "mutate": lambda: es.mutate(children, sigmas, rng, draws=work.draws),
        "render_json": lambda: cli._render_keyed(report, "json"),
    }


def per_layer(repeats: int, batch_seconds: float) -> dict:
    timers = {name: timeit.Timer(call) for name, call in _layers().items()}
    numbers = {name: max(1, int(batch_seconds / max(timer.timeit(1), 1e-7))) for name, timer in timers.items()}
    names = list(timers)
    samples: dict[str, list[float]] = {name: [] for name in names}
    # Layers in turn, forward and then backward, as end_to_end runs its
    # calls, so that a slow stretch of the machine falls on all of them.
    for r in range(repeats):
        for name in names if r % 2 == 0 else reversed(names):
            samples[name].append(timers[name].timeit(numbers[name]) / numbers[name])
    return {
        name: {
            "calls_per_repeat": numbers[name],
            "repeats": repeats,
            "min_us": 1e6 * min(samples[name]),
            "median_us": 1e6 * statistics.median(samples[name]),
        }
        for name in names
    }


def seeded() -> dict:
    plan = case_study.builtin_case()[0]
    rate_hi = oracle.solve_exact(milling.compile_context(plan)).rate_hi
    runs = []
    for seed in range(ES_SEEDS):
        result = es.run(plan, es.EsConfig(sigma_init=SEEDED_SIGMA_INIT, seed=seed))
        runs.append(
            {
                "seed": seed,
                "generations": result.generations,
                "evaluations": result.evaluations,
                "profit_rate": result.profit_rate,
                "gap_to_rate_hi": (rate_hi - result.profit_rate) / rate_hi,
            }
        )
    return {
        "case": "builtin",
        "sigma_init": SEEDED_SIGMA_INIT,
        "rate_hi": rate_hi,
        "generations_total": sum(run["generations"] for run in runs),
        "runs": runs,
    }


def bench(quick: bool) -> dict:
    return {
        "environment": environment(),
        "end_to_end": end_to_end(repeats=2 if quick else 40),
        "per_layer": per_layer(repeats=3 if quick else 150, batch_seconds=0.001 if quick else 0.002),
        "seeded": seeded(),
        "quick": quick,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--quick", action="store_true", help="few repeats: checks the script, times nothing well")
    parser.add_argument("--out", metavar="PATH", help="write here instead of BENCH_<short commit>.json")
    args = parser.parse_args(argv)
    record = bench(args.quick)
    path = Path(args.out) if args.out else ROOT / f"BENCH_{record['environment']['commit']}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
