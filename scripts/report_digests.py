"""Print the exit code and the sha256 of stdout and stderr of a fixed set
of CLI runs, one line per run.

Run it on two checkouts and diff the outputs to see which reports changed:

    python3 scripts/report_digests.py > digests.txt

The script imports millopt from the checkout it lives in (``src/``), and
the random plan generator from that checkout's ``perfbench/workloads.py``.
Every report is JSON, so full precision counts.  The set:

  * optimize and compare on the bundled case, seeds 0-4;
  * optimize on the bundled case with --sigma-init 0.3, seeds 0-4 (the
    runs of the es_builtin benchmark workload), and seed 0 once more with
    --verbose, so the improvement log on stderr is hashed;
  * optimize --sigma-init 0.3 --stall 200, seeds 0-1, on the bundled
    document with its operations listed twice (m = 10) and its sale price
    doubled to 50, so that a profitable point is found and reported, where
    numpy sums a genome's ten terms through partial sums;
  * oracle on the bundled case at resolutions 2, 3 and 7, where the
    multiplier iteration's minimizer repeats early, and at 500, 833, ...,
    2500 and 4000;
  * one evaluate on the bundled case, and one at a first speed of 1e200,
    where the plan compiles but the scalar pricing of the point overflows;
  * optimize (stall 200), oracle (resolution 300) and evaluate (box
    midpoints) on the first 60 random plan documents from rng [7, 3];
  * optimize --verbose and optimize --stall 5000 on random plan 11, which
    is feasible at its lowest corner and unprofitable everywhere;
  * optimize, oracle, compare and evaluate on the bundled document with
    tool wear that overflows (every life_exponent 0.004, every k3_override
    1.0), and on one that overflows only above the lowest corner (every
    life_exponent 1/151, every k3_override 1.0);
  * one run per retired solver setting, on the bundled document with that
    key set to a once-valid value: optimize --stall 50 for the es keys,
    oracle for the oracle keys.  Documents with these keys are rejected
    as unknown keys.

A run whose main raises is printed as exit=raised:<ExceptionType>, next to
the digests of what it wrote before that; its traceback goes to stderr.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
import tempfile
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import Iterator

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

from millopt.case_study import builtin_document_bytes  # noqa: E402
from millopt.cli import main  # noqa: E402
from workloads import midpoint_args, random_plan_document  # noqa: E402

SEEDS = range(5)
REPEATED_SEEDS = range(2)
RESOLUTIONS = (2, 3, 7, 500, 833, 1167, 1500, 1833, 2167, 2500, 4000)
RANDOM_PLANS = 60
PLAN_RNG = [7, 3]
PLAN_STALL = "200"
PLAN_RESOLUTION = "300"
UNPROFITABLE_PLAN = 11
RETIRED_KEYS = (
    ("es", "tau_global", 0.2),
    ("es", "tau_local", 0.4),
    ("es", "sigma_floor", 1e-6),
    ("es", "max_generations", 5000),
    ("oracle", "dinkelbach_tolerance", 1e-9),
    ("oracle", "max_dinkelbach_iterations", 100),
)


def runs(workdir: Path) -> Iterator[tuple[str, tuple[str, ...]]]:
    """(label, argv) of every run, in a fixed order."""
    builtin = ("--builtin-case", "--out", "json")
    for seed in SEEDS:
        yield f"optimize builtin seed={seed}", ("optimize", *builtin, "--seed", str(seed))
        yield f"compare builtin seed={seed}", ("compare", *builtin, "--seed", str(seed))
    for seed in SEEDS:
        yield (
            f"optimize builtin sigma-init=0.3 seed={seed}",
            ("optimize", "--builtin-case", "--sigma-init", "0.3", "--seed", str(seed), "--out", "json"),
        )
    yield "optimize builtin sigma-init=0.3 seed=0 verbose", (
        "optimize", "--builtin-case", "--sigma-init", "0.3", "--seed", "0", "--verbose", "--out", "json",
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
