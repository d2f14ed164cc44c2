"""Command line interface and report rendering.

Four subcommands share one plan input convention (--config PATH or
--builtin-case) and one output convention (--out json|csv|text, --output
PATH):

  optimize   run the evolution strategy
  oracle     run the grid-search oracle
  evaluate   price one explicit speed/feed assignment
  compare    published rows next to a fresh strategy run and the oracle

Reports carry no timestamps, so a repeated run with the same seed writes
byte-identical output.  Exit codes: 0 success, 1 oracle iteration guard
reached, 2 usage, document, overflow or out-of-memory error or a report
that cannot be written, 3 no feasible solution.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import re
import sys
from dataclasses import fields
from pathlib import Path
from typing import Any

from . import case_study, es, milling, oracle

__all__ = ["main", "build_parser"]

_TABLE_FIELDS = ("method", "unit_cost", "unit_time", "profit_rate")

# list-valued report keys that expand to one numbered row per element
_ROW_NAMES = {
    "speeds": "speed",
    "feeds": "feed",
    "sigmas_final": "sigma_final",
    "lambda_trace": "lambda_trace",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="millopt",
        description="Profit-rate optimization of multi-tool milling parameters.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    plan_parent = argparse.ArgumentParser(add_help=False)
    source = plan_parent.add_mutually_exclusive_group(required=True)
    source.add_argument("--config", metavar="PATH", help="plan document (JSON)")
    source.add_argument(
        "--builtin-case", action="store_true", help="use the bundled five-operation case study"
    )
    plan_parent.add_argument(
        "--out", choices=("json", "csv", "text"), default="text", help="report format"
    )
    plan_parent.add_argument(
        "--output", metavar="PATH", help="write the report to PATH instead of stdout"
    )

    es_parent = argparse.ArgumentParser(add_help=False)
    es_parent.add_argument("--seed", type=int, default=None, help="random seed")
    es_parent.add_argument("--mu", type=int, default=None, help="parent population size")
    es_parent.add_argument(
        "--lambda", type=int, default=None, dest="eta", help="children per generation"
    )
    es_parent.add_argument(
        "--stall",
        type=int,
        default=None,
        dest="stall_limit",
        metavar="STALL",
        help="generations without a relative rise of the best above 1e-6 before stopping; "
        "a run stops at such a rise once a certified bound on the optimum shows no other can follow",
    )
    es_parent.add_argument(
        "--alpha", type=float, default=None, help="step-size recombination mixing weight"
    )
    es_parent.add_argument("--sigma-init", type=float, default=None, help="initial step size")
    es_parent.add_argument(
        "--verbose", action="store_true", help="log best-so-far improvements to stderr"
    )

    grid_parent = argparse.ArgumentParser(add_help=False)
    grid_parent.add_argument(
        "--grid-resolution",
        type=int,
        default=None,
        dest="resolution",
        metavar="GRID_RESOLUTION",
        help="oracle grid points per axis",
    )

    sub.add_parser(
        "optimize", parents=[plan_parent, es_parent], help="run the evolution strategy"
    )
    sub.add_parser("oracle", parents=[plan_parent, grid_parent], help="run the grid oracle")
    evaluate = sub.add_parser(
        "evaluate", parents=[plan_parent], help="price one explicit assignment"
    )
    evaluate.add_argument(
        "--speeds", required=True, help="comma-separated cutting speeds, one per operation"
    )
    evaluate.add_argument(
        "--feeds", required=True, help="comma-separated feeds, one per operation"
    )
    # A list may start with a negative value, "-5,40,...", which argparse
    # reads as an option unless it looks like a number.  evaluate has no
    # option that does, so every argument starting "-<digit>" or "-.<digit>"
    # is a value, and the model's own check rejects it.
    evaluate._negative_number_matcher = re.compile(r"^-\.?\d")
    sub.add_parser(
        "compare",
        parents=[plan_parent, es_parent, grid_parent],
        help="published rows plus a fresh run and the oracle",
    )
    return parser


@functools.cache
def _parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The parser main uses, built on first use, and its commands' parsers
    by name: parsing leaves them as they were."""
    parser = build_parser()
    commands = next(action for action in parser._actions if isinstance(action, argparse._SubParsersAction))
    return parser, commands.choices


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    """What the parser main uses returns, or the SystemExit it raises, for
    argv.  When argv starts with a command, that command's parser reads
    the rest: the main parser would hand it every argument after the name
    and reject what it leaves over, and its own pass over them costs as
    much as the command parser's."""
    parser, commands = _parser()
    argv = sys.argv[1:] if argv is None else argv
    command = commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, extra = command.parse_known_args(argv[1:])
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    args.command = argv[0]
    return args


def _load_input(args: argparse.Namespace) -> tuple[case_study.LoadedDocument, bool]:
    if args.builtin_case:
        document = json.loads(case_study.builtin_document_bytes().decode("utf-8"))
        return case_study.load_document(document), True
    return case_study.load_document_file(args.config), False


def _settings(cls: type, args: argparse.Namespace, overrides: dict[str, Any]) -> Any:
    """cls from the document's overrides, each field replaced by the flag
    whose dest is its name where that flag was given."""
    merged = dict(overrides)
    for field in fields(cls):
        if (value := getattr(args, field.name)) is not None:
            merged[field.name] = value
    return cls(**merged)


def _improvement_logger(stream) -> Any:
    """Observer that prints one line per rise of the best fitness, however
    small; the stall counter resets only on larger rises."""
    last = 0.0

    def observe(state: es.EsState) -> None:
        nonlocal last
        if state.record.fitness > last:
            last = state.record.fitness
            print(
                f"generation {state.generation}: best {state.record.fitness:.6f}",
                file=stream,
            )

    return observe


def _round4(value: float | None) -> str:
    return "" if value is None else f"{value:.4f}"


def _emit(text: str, args: argparse.Namespace) -> None:
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _solution(result: es.RunResult | oracle.OracleResult) -> dict[str, Any]:
    """The solution fields both solvers report, in report order."""
    best = result.best
    return {
        "feasible": result.feasible,
        "profit_rate": result.profit_rate,
        "unit_cost": result.unit_cost,
        "unit_time": result.unit_time,
        "speeds": None if best is None else list(best.speeds),
        "feeds": None if best is None else list(best.feeds),
    }


def _solution_report(command: str, plan: milling.MillingPlan, **fields: Any) -> dict[str, Any]:
    report: dict[str, Any] = {"command": command, "operations": [op.number for op in plan.operations]}
    report.update(fields)
    report["warnings"] = list(milling.plan_warnings(plan))
    return report


def _render_keyed(report: dict[str, Any], fmt: str) -> str:
    """Render a flat solution/evaluation report.

    text and csv print floats at 4 decimals; json keeps full precision.
    """
    if fmt == "json":
        return json.dumps(report, indent=2, sort_keys=True) + "\n"

    rows: list[tuple[str, str]] = []
    skip = {"command", "margins"}
    for key, value in report.items():
        if key in skip:
            continue
        if isinstance(value, (list, tuple)):
            if key in _ROW_NAMES:
                for i, item in enumerate(value, start=1):
                    rows.append((f"{_ROW_NAMES[key]}_{i}", _round4(item)))
            elif key == "warnings":
                for i, item in enumerate(value, start=1):
                    rows.append((f"warning_{i}", str(item)))
            else:
                rows.append((key, " ".join(str(v) for v in value)))
        elif isinstance(value, float):
            rows.append((key, _round4(value)))
        elif isinstance(value, dict):
            for sub_key, sub_value in value.items():
                rows.append(
                    (f"{key}.{sub_key}", _round4(sub_value) if isinstance(sub_value, float) else str(sub_value))
                )
        else:
            rows.append((key, "" if value is None else str(value)))
    for margin in report.get("margins", ()):  # evaluate only
        op = margin["operation"]
        for name in ("power", "finish", "force"):
            status = "ok" if margin[f"{name}_ok"] else "violated"
            value = margin[name]
            shown = "-" if value is None else f"{value:.4f}"
            rows.append((f"margin_{op}_{name}", f"{shown} {status}"))
        rows.append((f"margin_{op}_speed_box", "ok" if margin["speed_ok"] else "violated"))
        rows.append((f"margin_{op}_feed_box", "ok" if margin["feed_ok"] else "violated"))

    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["key", "value"])
        writer.writerows(rows)
        return buffer.getvalue()

    width = max(len(key) for key, _ in rows)
    lines = [f"{report['command']} report"]
    lines += [f"  {key.ljust(width)}  {value}" for key, value in rows]
    return "\n".join(lines) + "\n"


def _render_compare(report: dict[str, Any], fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, indent=2, sort_keys=True) + "\n"
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(_TABLE_FIELDS)
        for row in report["rows"]:
            writer.writerow(
                [
                    row["method"],
                    f"{row['unit_cost']:.2f}",
                    f"{row['unit_time']:.2f}",
                    f"{row['profit_rate']:.2f}",
                ]
            )
        return buffer.getvalue()

    name_width = max((len(row["method"]) for row in report["rows"]), default=len("method"))
    name_width = max(name_width, len("method"))
    lines = ["method".ljust(name_width) + "  unit_cost  unit_time  profit_rate"]
    for row in report["rows"]:
        lines.append(
            row["method"].ljust(name_width)
            + f"  {row['unit_cost']:9.2f}"
            + f"  {row['unit_time']:9.2f}"
            + f"  {row['profit_rate']:11.2f}"
        )
    gap = report.get("reproduction_gap")
    if gap is not None:
        lines.append("")
        lines.append(
            "gap to published strategy row: "
            f"profit rate {gap['computed_profit_rate']:.4f} vs {gap['published_profit_rate']:.2f} "
            f"({100.0 * gap['profit_rate_relative_error']:+.1f}%), "
            f"unit cost {gap['computed_unit_cost']:.4f} vs {gap['published_unit_cost']:.2f} "
            f"({100.0 * gap['unit_cost_relative_error']:+.1f}%)"
        )
    for i, warning in enumerate(report["warnings"], start=1):
        lines.append(f"warning_{i}: {warning}")
    return "\n".join(lines) + "\n"


def _cmd_optimize(args: argparse.Namespace) -> tuple[str, int]:
    loaded, _ = _load_input(args)
    config = _settings(es.EsConfig, args, loaded.es_overrides)
    observer = _improvement_logger(sys.stderr) if args.verbose else None
    result = es.run(loaded.plan, config, observer=observer)
    report = _solution_report(
        "optimize",
        loaded.plan,
        **_solution(result),
        sigmas_final=None if result.sigmas_final is None else list(result.sigmas_final),
        generations=result.generations,
        evaluations=result.evaluations,
        seed=result.seed,
        config={
            **{name: value for name, value in vars(config).items() if name != "seed"},
            "max_generations": es.MAX_GENERATIONS,
            "sigma_floor": es.SIGMA_FLOOR,
        },
    )
    return _render_keyed(report, args.out), 0 if result.feasible else 3


def _cmd_oracle(args: argparse.Namespace) -> tuple[str, int]:
    loaded, _ = _load_input(args)
    grid = _settings(oracle.GridSpec, args, loaded.oracle_overrides)
    result = oracle.dinkelbach_solve(loaded.plan, grid=grid)
    report = _solution_report(
        "oracle",
        loaded.plan,
        **_solution(result),
        grid_resolution=grid.resolution,
        iterations=result.iterations,
        lambda_trace=list(result.lambda_trace),
    )
    return _render_keyed(report, args.out), 0 if result.feasible else 3


def _parse_values(raw: str, name: str, expected: int) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in raw.split(","))
    except ValueError:
        raise milling.ContractError(f"--{name} must be comma-separated numbers") from None
    if len(values) != expected:
        raise milling.ContractError(
            f"--{name} has {len(values)} values but the plan has {expected} operations"
        )
    return values


def _cmd_evaluate(args: argparse.Namespace) -> tuple[str, int]:
    loaded, _ = _load_input(args)
    plan = loaded.plan
    x = milling.DecisionVector(
        speeds=_parse_values(args.speeds, "speeds", plan.m),
        feeds=_parse_values(args.feeds, "feeds", plan.m),
    )
    # Rejects, as the solvers do, a plan whose prices overflow anywhere in
    # its box, even where the point itself would price finitely.
    coeffs = milling.compile_context(plan).coefficients
    margins = milling.constraint_margins(plan, x, coeffs)
    feasible = all(m.satisfied for m in margins)
    cost, time = milling.unit_cost(plan, x, coeffs), milling.unit_time(plan, x, coeffs)
    rate = (plan.economics.sale_price - cost) / time  # milling.profit_rate, priced once
    report = _solution_report(
        "evaluate",
        plan,
        feasible=feasible,
        fitness=rate if feasible else 0.0,
        profit_rate=rate,
        unit_cost=cost,
        unit_time=time,
        speeds=list(x.speeds),
        feeds=list(x.feeds),
        margins=[
            {**vars(m), "power_ok": m.power_ok, "finish_ok": m.finish_ok, "force_ok": m.force_ok}
            for m in margins
        ],
    )
    return _render_keyed(report, args.out), 0


def _compare_row(method: str, result: Any, source: str) -> dict[str, Any]:
    """One compare row from anything with unit_cost, unit_time and profit_rate."""
    return {
        "method": method,
        **{name: getattr(result, name) for name in _TABLE_FIELDS[1:]},
        "source": source,
    }


def _cmd_compare(args: argparse.Namespace) -> tuple[str, int]:
    loaded, is_builtin = _load_input(args)
    plan = loaded.plan
    config = _settings(es.EsConfig, args, loaded.es_overrides)
    grid = _settings(oracle.GridSpec, args, loaded.oracle_overrides)
    observer = _improvement_logger(sys.stderr) if args.verbose else None

    run_result = es.run(plan, config, observer=observer)
    oracle_result = oracle.dinkelbach_solve(plan, grid=grid)

    published = case_study.REFERENCE_ROWS if is_builtin else ()
    computed = (
        ("Evolutionary strategy (this implementation)", run_result),
        ("Oracle (grid)", oracle_result),
    )
    rows = [_compare_row(ref.method, ref, "published") for ref in published]
    rows += [_compare_row(method, result, "computed") for method, result in computed if result.feasible]
    published_strategy = next(
        (ref for ref in published if ref.method == "Evolutionary strategy"), None
    )

    gap = None
    if published_strategy is not None and run_result.feasible:
        gap = {
            "published_profit_rate": published_strategy.profit_rate,
            "computed_profit_rate": run_result.profit_rate,
            "profit_rate_relative_error": (run_result.profit_rate - published_strategy.profit_rate)
            / published_strategy.profit_rate,
            "published_unit_cost": published_strategy.unit_cost,
            "computed_unit_cost": run_result.unit_cost,
            "unit_cost_relative_error": (run_result.unit_cost - published_strategy.unit_cost)
            / published_strategy.unit_cost,
        }

    report = {
        "command": "compare",
        "rows": rows,
        "reproduction_gap": gap,
        "seed": config.seed,
        "grid_resolution": grid.resolution,
        "generations": run_result.generations,
        "evaluations": run_result.evaluations,
        "warnings": list(milling.plan_warnings(plan)),
    }
    feasible = run_result.feasible and oracle_result.feasible
    return _render_compare(report, args.out), 0 if feasible else 3


_COMMANDS = {
    "optimize": _cmd_optimize,
    "oracle": _cmd_oracle,
    "evaluate": _cmd_evaluate,
    "compare": _cmd_compare,
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0

    try:
        text, code = _COMMANDS[args.command](args)
        _emit(text, args)
    except (milling.ModelError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"error: {type(exc).__name__} while pricing the plan: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # numpy's message names the array, as for a population too large.
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    except oracle.OracleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    raise SystemExit(main())
