"""Print the exit code and the sha256 of stdout and stderr of a fixed set
of CLI runs, one line per run.

Run it on two checkouts and diff the outputs to see which reports changed:

    python3 scripts/report_digests.py > digests.txt

The script imports millopt from the checkout it lives in (``src/``), and
the random plan generator from that checkout's ``perfbench/workloads.py``.
Every report but the fourteen before the last three runs is JSON, so
full precision counts; those fourteen are text and csv, which round, so
their key order, widths and rows count.  The set:

  * optimize and compare on the bundled case, seeds 0-4;
  * optimize on the bundled case with --sigma-init 0.3, seeds 0-19 (every
    run of the es_builtin benchmark workload, whose ES_SEEDS sets the
    count), and seed 0 once more with
    --verbose, so the improvement log on stderr is hashed;
  * optimize on the bundled case with --sigma-init 0.3 --stall 50 at
    --mu 1 --lambda 7, where the second parent is always row 0, and at
    --mu 4 --lambda 9, so that generations of other sizes than the
    default 105 children are compared too;
  * optimize --sigma-init 0.3 --stall 200, seeds 0-1, on the bundled
    document with its operations listed twice (m = 10) and its sale price
    doubled to 50, so that a profitable point is found and reported, where
    numpy sums a genome's ten terms through partial sums;
  * oracle on the bundled case at resolutions 2, 3 and 7, where the
    multiplier iteration's minimizer repeats early, and at 500, 833, ...,
    2500 and 4000;
  * one evaluate on the bundled case, one at a first feed of 0.3, where
    the first operation's power and finish margins are violated, and one
    at a first speed of 1e200, where the plan compiles but the scalar
    pricing of the point overflows;
  * optimize (stall 200), oracle (resolution 300) and evaluate (box
    midpoints) on the first 60 random plan documents from rng [7, 3];
  * optimize --verbose, optimize --stall 5000 and compare on random plan
    11, which is feasible at its lowest corner and unprofitable everywhere,
    and compare on random plan 19, which is infeasible at its lowest
    corner;
  * optimize, oracle, compare and evaluate on the bundled document with
    tool wear that overflows (every life_exponent 0.004, every k3_override
    1.0), and on one that overflows only above the lowest corner (every
    life_exponent 1/151, every k3_override 1.0);
  * one run per retired solver setting, on the bundled document with that
    key set to a once-valid value: optimize --stall 50 for the es keys,
    oracle for the oracle keys.  Documents with these keys are rejected
    as unknown keys;
  * --help of the program and of each subcommand, at a fixed width of 80
    columns;
  * one run per invalid entry in the bundled document: optimize with
    es.mu 10.5, es.seed true, es.sigma_init "fast", a tool_id key in the
    first operation and an unknown key in the first tool, and oracle with
    oracle.resolution 2.5; then optimize with one fault per kind of key
    reader: the first operation's kind "drill", its radial_depth_assumed
    "yes" and its speed_bounds [1], and the first tool's quality "steel",
    its permitted_force "x" and no teeth.  Each is rejected with one error
    line.
  * optimize --sigma-init 0.3 --mu 4 --lambda 9 --stall 50 on the doubled
    document above, so that the genome-major sums (m = 10) are compared at
    a batch size other than 105 and 1.
  * optimize on the bundled case with --sigma-init 0.3 --stall 50 at
    --mu 2 --lambda 3, where the second parent takes no draw and each
    generation's raw block leaves its last 32-bit half unused, and at
    --mu 3 --lambda 7, an odd number of children.
  * in --out text and then --out csv: optimize (seed 0) and oracle on the
    bundled case; evaluate on it at the box midpoints and there with a
    first feed of 0.3, where the first operation's power and finish
    margins are violated; compare on the bundled case (seed 0), whose text
    ends in the gap line, on random plan 11, which has no strategy row,
    and on random plan 19, which has no computed rows;
  * optimize on the bundled document with its sale price given twice, 25
    and then 2500, which is rejected with one error line.
  * evaluate on the bundled case at a first feed of 0.0634 and the fastest
    first speed numpy's rounded power test accepts there, where the C
    library's f**0.8 rounds the power margin over 1, so the report shows
    which pow the margin takes; and with a first feed of -0.1, which is
    rejected with one error line and no numpy warning before it.
  * optimize and evaluate on the bundled document with one entry of its
    first tool, operation or the machine set so far out that a derived
    coefficient overflows (each rejected with one error line
    naming the operation), or that no positive feed passes the force limit
    (permitted_force 1e-300; the plan is infeasible), and at 1e-254, where
    some still does.

A run whose main raises is printed as exit=raised:<ExceptionType>, next to
the digests of what it wrote before that; its traceback goes to stderr.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import sys
import tempfile
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import Iterator

ROOT = Path(__file__).resolve().parents[1]
# argparse wraps --help to the terminal's width; fix it so digests compare.
os.environ["COLUMNS"] = "80"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

from millopt.case_study import builtin_case, builtin_document_bytes  # noqa: E402
from millopt.cli import main  # noqa: E402
from workloads import ES_SEEDS, midpoint_args, random_plan_document  # noqa: E402

SEEDS = range(5)
# (mu, lambda) of the small-population runs.
SMALL_POPULATIONS = ((1, 7), (4, 9))
# (mu, lambda) of the small-population runs appended after the others.
LATE_SMALL_POPULATIONS = ((2, 3), (3, 7))
REPEATED_SEEDS = range(2)
RESOLUTIONS = (2, 3, 7, 500, 833, 1167, 1500, 1833, 2167, 2500, 4000)
RANDOM_PLANS = 60
PLAN_RNG = [7, 3]
PLAN_STALL = "200"
PLAN_RESOLUTION = "300"
UNPROFITABLE_PLAN = 11
CORNER_INFEASIBLE_PLAN = 19
RETIRED_KEYS = (
    ("es", "tau_global", 0.2),
    ("es", "tau_local", 0.4),
    ("es", "sigma_floor", 1e-6),
    ("es", "max_generations", 5000),
    ("oracle", "dinkelbach_tolerance", 1e-9),
    ("oracle", "max_dinkelbach_iterations", 100),
)
COMMANDS = ("optimize", "oracle", "evaluate", "compare")
# Report formats of the runs appended last; every report before them is JSON.
FORMATS = ("text", "csv")
# Stands for a key deleted from its section.
MISSING = object()
# (command, section, key, value): the value goes into the section, or into
# its first entry where the section is a list.
INVALID_ENTRIES = (
    ("optimize", "es", "mu", 10.5),
    ("optimize", "es", "seed", True),
    ("optimize", "es", "sigma_init", "fast"),
    ("optimize", "operations", "tool_id", 1),
    ("optimize", "tools", "colour", "red"),
    ("oracle", "oracle", "resolution", 2.5),
    ("optimize", "operations", "kind", "drill"),
    ("optimize", "tools", "quality", "steel"),
    ("optimize", "operations", "radial_depth_assumed", "yes"),
    ("optimize", "operations", "speed_bounds", [1]),
    ("optimize", "tools", "permitted_force", "x"),
    ("optimize", "tools", "teeth", MISSING),
)
# (section, key, value) set in the first entry of the bundled document: a
# force limit under which no positive feed passes, one just above it, and
# entries that overflow a derived coefficient.
EDGE_ENTRIES = (
    ("tools", "permitted_force", 1e-300),
    ("tools", "permitted_force", 1e-254),
    ("operations", "travel", 1e308),
    ("operations", "axial_depth", 1e308),
    ("machine", "motor_power", 1e-320),
    ("operations", "surface_finish_req", 1e-310),
    ("tools", "taylor_constant", 1e-300),
)


def edited_builtin(path: Path, section: str, key: str, value: object) -> Path:
    """Write the bundled document to path with value at key in its section,
    or in the section's first entry where the section is a list; MISSING
    deletes the key."""
    document = json.loads(builtin_document_bytes().decode("utf-8"))
    entry = document.setdefault(section, {})
    entry = entry[0] if isinstance(entry, list) else entry
    if value is MISSING:
        del entry[key]
    else:
        entry[key] = value
    path.write_text(json.dumps(document), encoding="utf-8")
    return path


def runs(workdir: Path) -> Iterator[tuple[str, tuple[str, ...]]]:
    """(label, argv) of every run, in a fixed order."""
    builtin = ("--builtin-case", "--out", "json")
    for seed in SEEDS:
        yield f"optimize builtin seed={seed}", ("optimize", *builtin, "--seed", str(seed))
        yield f"compare builtin seed={seed}", ("compare", *builtin, "--seed", str(seed))
    for seed in range(ES_SEEDS):
        yield (
            f"optimize builtin sigma-init=0.3 seed={seed}",
            ("optimize", "--builtin-case", "--sigma-init", "0.3", "--seed", str(seed), "--out", "json"),
        )
    yield "optimize builtin sigma-init=0.3 seed=0 verbose", (
        "optimize", "--builtin-case", "--sigma-init", "0.3", "--seed", "0", "--verbose", "--out", "json",
    )
    for mu, eta in SMALL_POPULATIONS:
        yield f"optimize builtin sigma-init=0.3 stall=50 mu={mu} lambda={eta}", (
            "optimize", "--builtin-case", "--sigma-init", "0.3", "--stall", "50",
            "--mu", str(mu), "--lambda", str(eta), "--out", "json",
        )
    document = json.loads(builtin_document_bytes().decode("utf-8"))
    operations = document["operations"]
    document["operations"] = operations + [
        {**op, "number": op["number"] + len(operations)} for op in operations
    ]
    # At the bundled price of 25 every point of the doubled plan loses money.
    document["economics"]["sale_price"] = 50.0
    path = workdir / "repeated.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    for seed in REPEATED_SEEDS:
        yield (
            f"optimize repeated sale-price=50 sigma-init=0.3 seed={seed}",
            ("optimize", "--config", str(path), "--sigma-init", "0.3", "--stall", "200",
             "--seed", str(seed), "--out", "json"),
        )
    for resolution in RESOLUTIONS:
        yield (
            f"oracle builtin resolution={resolution}",
            ("oracle", *builtin, "--grid-resolution", str(resolution)),
        )
    yield "evaluate builtin", (
        "evaluate", *builtin,
        "--speeds", "91.1,40,40,30,31.3", "--feeds", "0.078,0.325,0.325,0.5,0.388",
    )
    yield "evaluate builtin feed=0.3", (
        "evaluate", *builtin,
        "--speeds", "91.1,40,40,30,31.3", "--feeds", "0.3,0.325,0.325,0.5,0.388",
    )
    yield "evaluate builtin speed=1e200", (
        "evaluate", *builtin,
        "--speeds", "1e200,40,40,30,31.3", "--feeds", "0.078,0.325,0.325,0.5,0.388",
    )

    rng = np.random.default_rng(PLAN_RNG)
    for k in range(RANDOM_PLANS):
        document = random_plan_document(rng)
        path = workdir / f"plan_{k}.json"
        path.write_text(json.dumps(document), encoding="utf-8")
        plan = ("--config", str(path), "--out", "json")
        operations = document["operations"]
        point = midpoint_args(
            [op["speed_bounds"] for op in operations], [op["feed_bounds"] for op in operations]
        )
        yield f"optimize plan={k}", ("optimize", *plan, "--stall", PLAN_STALL)
        yield f"oracle plan={k}", ("oracle", *plan, "--grid-resolution", PLAN_RESOLUTION)
        yield f"evaluate plan={k}", ("evaluate", *plan, *point)
    plan = ("--config", str(workdir / f"plan_{UNPROFITABLE_PLAN}.json"), "--out", "json")
    yield f"optimize plan={UNPROFITABLE_PLAN} verbose", ("optimize", *plan, "--stall", PLAN_STALL, "--verbose")
    yield f"optimize plan={UNPROFITABLE_PLAN} stall=5000", ("optimize", *plan, "--stall", "5000")
    yield f"compare plan={UNPROFITABLE_PLAN}", ("compare", *plan)
    plan = ("--config", str(workdir / f"plan_{CORNER_INFEASIBLE_PLAN}.json"), "--out", "json")
    yield f"compare plan={CORNER_INFEASIBLE_PLAN}", ("compare", *plan)

    for name, life_exponent in (("overflow", 0.004), ("overflow above corner", 1 / 151)):
        document = json.loads(builtin_document_bytes().decode("utf-8"))
        for tool in document["tools"]:
            tool["life_exponent"] = life_exponent
        for operation in document["operations"]:
            operation["k3_override"] = 1.0
        path = workdir / f"{name.replace(' ', '_')}.json"
        path.write_text(json.dumps(document), encoding="utf-8")
        overflow = ("--config", str(path), "--out", "json")
        for command in ("optimize", "oracle", "compare"):
            yield f"{command} {name}", (command, *overflow)
        yield f"evaluate {name}", (
            "evaluate", *overflow,
            "--speeds", "91.1,40,40,30,31.3", "--feeds", "0.078,0.325,0.325,0.5,0.388",
        )

    for section, key, value in RETIRED_KEYS:
        document = json.loads(builtin_document_bytes().decode("utf-8"))
        document[section] = {key: value}
        path = workdir / f"retired_{key}.json"
        path.write_text(json.dumps(document), encoding="utf-8")
        retired = ("--config", str(path), "--out", "json")
        if section == "es":
            yield f"optimize {section}.{key}", ("optimize", *retired, "--stall", "50")
        else:
            yield f"oracle {section}.{key}", ("oracle", *retired)

    yield "help", ("--help",)
    for command in COMMANDS:
        yield f"{command} help", (command, "--help")

    for command, section, key, value in INVALID_ENTRIES:
        path = edited_builtin(workdir / f"invalid_{section}_{key}.json", section, key, value)
        shown = " missing" if value is MISSING else f"={json.dumps(value)}"
        yield f"{command} {section}.{key}{shown}", (
            command, "--config", str(path), "--out", "json",
        )

    # Appended last, so that the runs before it keep their lines.
    yield "optimize repeated sale-price=50 sigma-init=0.3 stall=50 mu=4 lambda=9", (
        "optimize", "--config", str(workdir / "repeated.json"), "--sigma-init", "0.3",
        "--mu", "4", "--lambda", "9", "--stall", "50", "--out", "json",
    )
    for mu, eta in LATE_SMALL_POPULATIONS:
        yield f"optimize builtin sigma-init=0.3 stall=50 mu={mu} lambda={eta}", (
            "optimize", "--builtin-case", "--sigma-init", "0.3", "--stall", "50",
            "--mu", str(mu), "--lambda", str(eta), "--out", "json",
        )

    # The text and csv renderers, appended after the JSON runs above.
    operations = builtin_case()[0].operations
    speed_bounds = [op.speed_bounds for op in operations]
    feed_bounds = [op.feed_bounds for op in operations]
    points = (
        ("midpoints", midpoint_args(speed_bounds, feed_bounds)),
        ("midpoints feed=0.3", midpoint_args(speed_bounds, [(0.3, 0.3), *feed_bounds[1:]])),
    )
    for fmt in FORMATS:
        out = ("--out", fmt)
        yield f"optimize builtin seed=0 out={fmt}", ("optimize", "--builtin-case", "--seed", "0", *out)
        yield f"oracle builtin out={fmt}", ("oracle", "--builtin-case", *out)
        for name, point in points:
            yield f"evaluate builtin {name} out={fmt}", ("evaluate", "--builtin-case", *point, *out)
        yield f"compare builtin seed=0 out={fmt}", ("compare", "--builtin-case", "--seed", "0", *out)
        for k in (UNPROFITABLE_PLAN, CORNER_INFEASIBLE_PLAN):
            yield f"compare plan={k} out={fmt}", (
                "compare", "--config", str(workdir / f"plan_{k}.json"), *out,
            )

    # Appended last, after the text and csv runs.
    text = builtin_document_bytes().decode("utf-8")
    path = workdir / "duplicate_sale_price.json"
    path.write_text(text.replace('"sale_price": 25.0,', '"sale_price": 25.0, "sale_price": 2500.0,'), encoding="utf-8")
    yield "optimize economics.sale_price twice", ("optimize", "--config", str(path), "--out", "json")
    yield "evaluate builtin power edge", (
        "evaluate", *builtin,
        "--speeds", "119.91836296192835,40,40,30,31.3", "--feeds", "0.0634,0.325,0.325,0.5,0.388",
    )
    yield "evaluate builtin feed=-0.1", (
        "evaluate", *builtin,
        "--speeds", "91.1,40,40,30,31.3", "--feeds", "-0.1,0.325,0.325,0.5,0.388",
    )

    # Appended last: documents that fail in a derived coefficient or a
    # feed cap, each edited in one entry.
    for section, key, value in EDGE_ENTRIES:
        path = edited_builtin(workdir / f"edge_{section}_{key}_{value!r}.json", section, key, value)
        edge = ("--config", str(path), "--out", "json")
        yield f"optimize {section}.{key}={value!r}", ("optimize", *edge)
        yield f"evaluate {section}.{key}={value!r}", (
            "evaluate", *edge,
            "--speeds", "91.1,40,40,30,31.3", "--feeds", "0.078,0.325,0.325,0.5,0.388",
        )


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def main_digests() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for label, argv in runs(Path(tmp)):
            out, err = io.StringIO(), io.StringIO()
            try:
                with redirect_stdout(out), redirect_stderr(err):
                    code = main(list(argv))
            except Exception as exc:
                code = f"raised:{type(exc).__name__}"
                traceback.print_exc()
            print(f"{label}\texit={code}\tstdout={digest(out.getvalue())}\tstderr={digest(err.getvalue())}")


if __name__ == "__main__":
    main_digests()
