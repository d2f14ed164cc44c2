#!/usr/bin/env python3
"""Benchmark of the millopt CLI: solve time and solution quality.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload es_builtin --seed 0 --seconds 30 --trace 0

Workloads: es_builtin, oracle_builtin, plan_mix (see perfbench/README.md).
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; with --trace 0 the metrics are the
end-to-end ones, with --trace 1 the per-layer ones from a traced run.
Documents, spans and a full result record go to .perfbench_work/.
"""

from __future__ import annotations

import os

# single-threaded numpy for the benchmark and every process it starts;
# set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("es_builtin", "oracle_builtin", "plan_mix")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True, help="length of the timed window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")

    package = ROOT / "src" / "millopt"
    if not (package / "__init__.py").is_file():
        print(f"error: {package} not found; run from a millopt source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(package.parent))
    import millopt

    if Path(millopt.__file__).resolve().parent != package.resolve():
        print(f"error: imported millopt from {millopt.__file__}, not {package}", file=sys.stderr)
        return 2

    import harness

    return harness.execute(ROOT, args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    raise SystemExit(main())
