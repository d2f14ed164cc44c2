"""One benchmark run: set-up probe, timed closed loop, checks, metrics.

The loop is closed: one process, one solve at a time.  Every solve calls
``millopt.cli.main`` in process with the argv a user would type and the
report captured from stdout; nothing else of the program is called during
the timed window.  With tracing on, every item runs twice, once plain and
once under the tracer, in alternating order, so the tracer's own cost is
measured on identical work.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import millopt
from millopt import case_study, cli, es, milling, oracle

import calibration
import checks
import tracing
from workloads import BUILTIN, WORKLOADS, Call, Inputs, Item, midpoint_args

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 5  # fresh-interpreter probes before and again after the timed window
OVERRUN = 1.5  # the window ends at this many --seconds even if min_items is not reached
HIT_GAP = 1e-4
TAIL_SHARE = 0.25
MAX_PROBLEMS_SHOWN = 20

TRACE_TARGETS = [
    (es, "batch_evaluate", "milling.batch_evaluate"),
    (es, "step", "es.step"),
    (es, "run", "es.run"),
    (es, "derive_coefficients", "milling.compile"),
    (es, "compile_context", "milling.compile"),
    (oracle, "per_op_grid_min", "oracle.per_op_grid_min"),
    (oracle, "dinkelbach_solve", "oracle.dinkelbach_solve"),
    (oracle, "derive_coefficients", "milling.compile"),
    (milling, "derive_coefficients", "milling.compile"),
    (case_study, "load_document", "case_study.load_document"),
    (cli, "main", "cli.main"),
]


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < MAX_PROBLEMS_SHOWN:
                self.problems.append(f"{what}: {'; '.join(problems)}")


def invoke(argv: tuple[str, ...]) -> tuple[int | None, str, str, float]:
    """Run the CLI in process: (exit code or None if it raised, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = perf_counter()
        try:
            code = millopt.cli.main(list(argv))
        except Exception:
            code = None
            traceback.print_exc(file=err)
        seconds = perf_counter() - start
    return code, out.getvalue(), err.getvalue(), seconds


def slowest_share_gmean(values: list[float]) -> float:
    """Geometric mean of the slowest TAIL_SHARE of the solves.

    A tail that pools a quarter of the run: a single high percentile rests
    on the few largest inputs of a run and, on a shared machine, moved by
    more than the bound from one run to the next.
    """
    slowest = sorted(values)[-math.ceil(TAIL_SHARE * len(values)):]
    return statistics.geometric_mean(slowest)


def environment(root: Path) -> dict:
    info = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "threads": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
        "cpu_model": platform.processor() or "unknown",
        "l2_cache": "unknown",
        "l3_cache": "unknown",
        "commit": None,
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        lscpu = subprocess.run(
            ["lscpu"], capture_output=True, text=True, timeout=10, env={**os.environ, "LC_ALL": "C"}
        ).stdout
        for line in lscpu.splitlines():
            key, _, value = line.partition(":")
            if key.strip() in ("L2 cache", "L3 cache"):
                info[key.strip().lower().replace(" ", "_")] = value.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    if (root / ".git").exists():
        try:
            info["commit"] = subprocess.run(
                ["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    package = Path(millopt.__file__).parent
    for path in sorted(p for p in package.rglob("*") if p.suffix in (".py", ".json")):
        digest.update(path.relative_to(package).as_posix().encode() + b"\0" + path.read_bytes())
    info["source_sha256"] = digest.hexdigest()
    return info


class Run:
    def __init__(self, root: Path, workload_name: str, seed: int, seconds: int, trace: bool):
        self.root = root
        self.workload = WORKLOADS[workload_name]
        self.seconds = seconds
        self.trace = trace
        self.work = root / ".perfbench_work"
        doc_dir = self.work / "docs" / f"{workload_name}-seed{seed}"
        doc_dir.mkdir(parents=True, exist_ok=True)
        builtin = json.loads(case_study.builtin_document_bytes().decode("utf-8"))
        self.inputs = Inputs(self.workload, seed, doc_dir, builtin)
        self.plans = checks.Plans(self.inputs.documents)
        reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
        self.reference = reference["builtin_case"]["profit_rate"]
        self.tally = Tally()
        self.tracer = tracing.Tracer(TRACE_TARGETS) if trace else None
        self.report_bytes = 0
        # per-solve results
        self.times: list[float] = []
        self.traced_times: list[float] = []
        self.ratios: list[float] = []
        self.gaps: list[float] = []
        self.infeasible_plans = 0
        self.measured_times: list[float] = []  # the same solves in measured seconds
        self.scales: list[float] = []

    # -- one call / one item ------------------------------------------------

    def call(self, call: Call, traced: bool) -> tuple[str, float, float | None]:
        code, stdout, stderr, seconds = invoke(call.argv)
        plan, coeffs = self.plans.get(call.plan)
        if code is None:
            problems = [f"raised: {stderr.strip().splitlines()[-1] if stderr.strip() else '?'}"]
            rate = None
        else:
            problems, rate = checks.check_report(call.command, code, stdout, plan, coeffs)
        self.tally.record(" ".join(call.argv), problems)
        if traced:
            self.report_bytes += len(stdout.encode("utf-8"))
        return stdout, seconds, rate

    def scale_now(self) -> float:
        """Run the workload's calibration kernel once: reference seconds per
        measured second, right now."""
        kernel = self.workload.calibration
        start = perf_counter()
        calibration.KERNELS[kernel]()
        scale = calibration.REFERENCE_S[kernel] / (perf_counter() - start)
        self.scales.append(scale)
        return scale

    def run_item(self, item: Item, traced: bool) -> tuple[list[str], float, dict[str, float | None]]:
        if traced:
            self.tracer.solve_id = len(self.traced_times)
            self.tracer.install()
        try:
            outputs, total, rates = [], 0.0, {}
            for call in item.calls:
                stdout, seconds, rate = self.call(call, traced)
                outputs.append(stdout)
                total += seconds
                rates[call.command] = rate
        finally:
            if traced:
                self.tracer.uninstall()
        return outputs, total, rates

    def score(self, rates: dict[str, float | None]) -> None:
        if self.workload.name == "plan_mix":
            es_rate, grid_rate = rates["optimize"], rates["oracle"]
            if es_rate is None:
                self.infeasible_plans += 1
            if es_rate is not None and grid_rate is not None and grid_rate > 0.0:
                self.ratios.append(es_rate / grid_rate)
            return
        rate = rates.get("optimize", rates.get("oracle"))
        if rate is None:
            self.tally.record("quality", ["no feasible solution on the bundled case"])
            return
        self.ratios.append(rate / self.reference)
        self.gaps.append((self.reference - rate) / self.reference)

    # -- phases ---------------------------------------------------------------

    def probe_setup(self, count: int) -> list[float]:
        """Fresh-interpreter `millopt evaluate` of the first plan, timed as a subprocess."""
        key = self.inputs.first_plan_key()
        plan, coeffs = self.plans.get(key)
        source = ("--builtin-case",) if key == BUILTIN else ("--config", str(self.inputs.path(key)))
        midpoint = midpoint_args([op.speed_bounds for op in plan.operations], [op.feed_bounds for op in plan.operations])
        argv = [sys.executable, "-m", "millopt.cli", "evaluate", *source, *midpoint, "--out", "json"]
        src = str(Path(millopt.__file__).parent.parent)
        env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
        times = []
        for _ in range(count):
            scale = self.scale_now()
            start = perf_counter()
            try:
                done = subprocess.run(argv, capture_output=True, text=True, cwd=self.root, env=env, timeout=60)
            except subprocess.TimeoutExpired:
                self.tally.record("set-up probe", ["timed out"])
                continue
            times.append((perf_counter() - start) * scale)
            problems, _ = checks.check_report("evaluate", done.returncode, done.stdout, plan, coeffs)
            self.tally.record("set-up probe", problems)
        return times

    def check_repeat(self) -> None:
        """The stream's first item, run twice, must print identical bytes."""
        item = self.inputs.peek()
        first, _, _ = self.run_item(item, traced=False)
        second, _, _ = self.run_item(item, traced=False)
        self.tally.record("same-seed repeat", [] if first == second else ["reports differ"])

    def timed_loop(self) -> float:
        """Run items until the window is used up; returns the window's length.

        Without tracing, every item is timed between two calibration
        kernel runs and converted to reference seconds by the geometric
        mean of their scales: the kernel on both sides of a solve tracks
        the machine's speed during a long solve better than the one before
        it alone.  With tracing, each item runs plain and traced back to
        back, in alternating order, in measured seconds.
        """
        begin = perf_counter()
        count = 0
        at_boundary = True
        before = None if self.trace else self.scale_now()
        while True:
            elapsed = perf_counter() - begin
            done = elapsed >= self.seconds and count >= self.workload.min_items and at_boundary
            if done or elapsed >= OVERRUN * self.seconds:
                return elapsed
            item = self.inputs.next_item()
            count += 1
            at_boundary = item.closes_cycle
            if not self.trace:
                _, seconds, rates = self.run_item(item, traced=False)
                after = self.scale_now()
                self.times.append(seconds * math.sqrt(before * after))
                before = after
                self.measured_times.append(seconds)
                self.score(rates)
                continue
            order = (False, True) if count % 2 else (True, False)
            results = {traced: self.run_item(item, traced) for traced in order}
            plain, traced = results[False], results[True]
            self.measured_times.append(plain[1])
            self.traced_times.append(traced[1])
            self.tally.record("traced output", [] if plain[0] == traced[0] else ["tracing changed a report"])
            self.score(plain[2])

    # -- metrics --------------------------------------------------------------

    def end_to_end(self, setup: list[float]) -> tuple[dict, dict]:
        """Metrics, and the notes printed beside them (sample counts, measured seconds)."""
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "solve_s_gmean": (statistics.geometric_mean(self.times), "s"),
            "solve_s_tail": (slowest_share_gmean(self.times), "s"),
            "profit_ratio_p50": (statistics.median(self.ratios) if self.ratios else 0.0, "ratio"),
        }
        notes = {
            "setup_s": f"median of {len(setup)} fresh interpreters",
            "solve_s_gmean": f"n={len(self.times)}; {statistics.geometric_mean(self.measured_times):.6g} s measured",
            "solve_s_tail": (
                f"slowest {TAIL_SHARE:.0%} of n={len(self.times)}; {slowest_share_gmean(self.measured_times):.6g} s measured"
            ),
            "profit_ratio_p50": f"n={len(self.ratios)}",
        }
        return metrics, notes

    def extras(self, wall: float) -> dict:
        extra = {
            "wall_s": wall,
            "machine_scale_p50": statistics.median(self.scales),
            "solves": len(self.measured_times),
            "failed_share": self.tally.failed / max(self.tally.attempted, 1),
        }
        if len(self.times) > 20:
            # the median and the highest order statistic with ten solves beyond
            # it, printed beside the pooled metrics but not gated: on a shared
            # machine they moved by more than the bound from run to run
            ordered = sorted(self.times)
            extra["solve_s_p50"] = statistics.median(ordered)
            extra["solve_s_ten_beyond"] = ordered[-11]
            extra["solve_s_ten_beyond_percentile"] = 100.0 * (len(ordered) - 10) / len(ordered)
        if self.workload.name == "plan_mix":
            extra["infeasible_plan_share"] = self.infeasible_plans / max(len(self.measured_times), 1)
        if self.gaps:
            extra["gap_p50"] = statistics.median(self.gaps)
            extra["gap_max"] = max(self.gaps)
            extra[f"hit_{HIT_GAP:g}_share"] = sum(g <= HIT_GAP for g in self.gaps) / len(self.gaps)
        if self.tracer is not None and self.tracer.evals_to_threshold:
            extra[f"evals_to_{HIT_GAP:g}_p50"] = statistics.median(self.tracer.evals_to_threshold)
        return extra

    def per_layer(self) -> tuple[dict, list[str]]:
        tracer = self.tracer
        own = tracer.self_times()
        count = tracer.counts
        hit = tracer.hit_layers()
        absent = sorted(self.workload.expected_layers - hit)
        missing = tracer.missing_targets + absent
        rows = count["milling.rows"]
        generations = count["es.generations"]
        traced_wall = sum(self.traced_times)
        plain_wall = sum(self.measured_times)
        metrics = {
            "milling.batch_evaluate_s": ("milling.batch_evaluate", own.get("milling.batch_evaluate", 0.0), "s"),
            "milling.batch_evaluate_calls": ("milling.batch_evaluate", count["milling.batch_evaluate.calls"], "count"),
            "milling.rows_evaluated": ("milling.batch_evaluate", rows, "count"),
            "milling.feasible_share": ("milling.batch_evaluate", count["milling.feasible_rows"] / rows if rows else 0.0, "share"),
            "milling.compile_s": ("milling.compile", own.get("milling.compile", 0.0), "s"),
            "milling.compile_calls": ("milling.compile", count["milling.compile.calls"], "count"),
            "es.step_self_s": ("es.step", own.get("es.step", 0.0), "s"),
            "es.run_self_s": ("es.run", own.get("es.run", 0.0), "s"),
            "es.generations": ("es.run", generations, "count"),
            "es.stall_share": ("es.step", count["es.stall_generations"] / generations if generations else 0.0, "share"),
            "oracle.grid_min_s": ("oracle.per_op_grid_min", own.get("oracle.per_op_grid_min", 0.0), "s"),
            "oracle.grid_min_calls": ("oracle.per_op_grid_min", count["oracle.per_op_grid_min.calls"], "count"),
            "oracle.grid_points": ("oracle.per_op_grid_min", count["oracle.grid_points"], "count"),
            "oracle.grid_bytes_computed": (
                "oracle.per_op_grid_min", count["oracle.grid_points"] * tracing.GRID_BYTES_PER_POINT, "bytes",
            ),
            "oracle.dinkelbach_self_s": ("oracle.dinkelbach_solve", own.get("oracle.dinkelbach_solve", 0.0), "s"),
            "oracle.dinkelbach_iterations": ("oracle.dinkelbach_solve", count["oracle.dinkelbach_iterations"], "count"),
            "case_study.load_s": ("case_study.load_document", own.get("case_study.load_document", 0.0), "s"),
            "case_study.load_calls": ("case_study.load_document", count["case_study.load_document.calls"], "count"),
            "cli.self_s": ("cli.main", own.get("cli.main", 0.0), "s"),
            "cli.report_bytes": ("cli.main", self.report_bytes, "bytes"),
            "trace.wall_s": (None, traced_wall, "s"),
            "trace.coverage_share": (None, sum(own.values()) / traced_wall if traced_wall else 0.0, "share"),
            "trace.overhead_share": (None, traced_wall / plain_wall - 1.0 if plain_wall else 0.0, "share"),
            "trace.missing_layers": (None, len(missing), "count"),
        }
        # a layer that should have been hit but was not is reported as missing, not as zero
        kept = {name: (value, unit) for name, (layer, value, unit) in metrics.items() if layer not in absent}
        return kept, missing


def execute(root: Path, workload: str, seed: int, seconds: int, trace: bool) -> int:
    run = Run(root, workload, seed, seconds, trace)
    env = environment(root)
    print(f"millopt benchmark: workload {workload}, seed {seed}, {seconds} s, tracing {'on' if trace else 'off'}")
    print("environment: " + json.dumps(env, sort_keys=True))

    setup = run.probe_setup(SETUP_PROBES)
    run.check_repeat()
    if run.tracer is not None:
        run.tracer.es_threshold = run.reference * (1.0 - HIT_GAP) if workload == "es_builtin" else None
    wall = run.timed_loop()
    setup += run.probe_setup(SETUP_PROBES)

    extra = run.extras(wall)
    if trace:
        metrics, missing = run.per_layer()
        notes: dict[str, str] = {}
        run.tracer.write(run.work / f"spans-{workload}-seed{seed}.npz")
        if missing:
            print("missing layers: " + ", ".join(missing))
    else:
        if not setup:
            print("error: every set-up probe failed", file=sys.stderr)
            return 1
        metrics, notes = run.end_to_end(setup)
        if not run.ratios:
            run.tally.record("quality", ["no solve produced a profit ratio"])

    for name, (value, unit) in metrics.items():
        print(f"  {name:<30} {value:>16.6g} {unit:<6} {notes.get(name, '')}")
    for name, value in extra.items():
        print(f"  {name:<30} {value!s:>16}")
    for problem in run.tally.problems:
        print(f"  FAILED {problem}")

    result = {
        "correct": run.tally.failed == 0,
        "attempted": run.tally.attempted,
        "failed": run.tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "environment": env, "extra": extra, "solve_times": run.times, "measured_solve_times": run.measured_times, "problems": run.tally.problems, **result}
    (run.work / f"result-{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(json.dumps(result))
    return 0
