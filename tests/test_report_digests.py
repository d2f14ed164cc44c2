"""Every report the digest script covers stays byte-identical.

tests/data/report_digests.txt holds scripts/report_digests.py's output:
one line per CLI run, its label, exit code and the sha256 of its stdout
and stderr.  A change that moves a report on purpose regenerates the file
in the same commit,

    python3 scripts/report_digests.py > tests/data/report_digests.txt

so that its diff names exactly the runs that moved.
"""

from __future__ import annotations

import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "report_digests.py"
EXPECTED = ROOT / "tests" / "data" / "report_digests.txt"


def _by_label(lines: list[str]) -> dict[str, str]:
    return {line.split("\t", 1)[0]: line for line in lines}


def _power_loop() -> str:
    """The CPU target numpy dispatches its float64 power loop to, or
    "unknown" where numpy cannot say."""
    try:
        from numpy.lib.introspect import opt_func_info
    except ImportError:
        return "unknown"
    loops = opt_func_info(func_name="^power$", signature="float64").get("power", {})
    return ", ".join(loop["current"] for loop in loops.values()) or "unknown"


def test_every_report_digest_matches_the_checked_in_file():
    done = subprocess.run([sys.executable, str(SCRIPT)], capture_output=True, text=True, check=False)
    assert done.returncode == 0, done.stderr
    actual = done.stdout.splitlines()
    expected = EXPECTED.read_text(encoding="utf-8").splitlines()
    if actual == expected:
        return
    # Float formatting and the PCG64 stream come from numpy and Python, and
    # batch prices from the CPU target of numpy's float64 power loop, so a
    # move seen under other versions or on another CPU may be the
    # environment's, not the program's.
    now, then = _by_label(actual), _by_label(expected)
    moved = [label for label in then if label in now and now[label] != then[label]]
    report = [
        f"report digests differ from {EXPECTED.relative_to(ROOT)} "
        f"(numpy {np.__version__}, Python {platform.python_version()}, "
        f"numpy float64 power loop {_power_loop()}):",
        *(f"  moved: {label}" for label in moved),
        *(f"  missing: {label}" for label in then if label not in now),
        *(f"  new: {label}" for label in now if label not in then),
    ]
    if not moved and set(now) == set(then):
        report.append("  same runs, in another order")
    raise AssertionError("\n".join(report))
