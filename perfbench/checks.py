"""Independent checks of every CLI report the benchmark receives.

A reported solution is priced again through the scalar model API
(unit_cost, unit_time, constraint_margins) and must agree to a relative
1e-12.  The names are bound when this module is imported, before any
tracing wrapper is installed, so checking never shows up in a trace.
"""

from __future__ import annotations

import json
import math
from typing import Any

from millopt.case_study import load_document
from millopt.milling import (
    DecisionVector,
    constraint_margins,
    derive_coefficients,
    unit_cost,
    unit_time,
)

REL_TOL = 1e-12


class Plans:
    """Plans parsed by the benchmark itself, with their coefficients."""

    def __init__(self, documents: dict[str, dict[str, Any]]):
        self._documents = documents
        self._cache: dict[str, tuple[Any, Any]] = {}

    def get(self, key: str):
        if key not in self._cache:
            plan = load_document(self._documents[key]).plan
            self._cache[key] = (plan, derive_coefficients(plan))
        return self._cache[key]


def _close(reported: Any, expected: float) -> bool:
    return isinstance(reported, float) and math.isclose(reported, expected, rel_tol=REL_TOL, abs_tol=0.0)


def check_report(command: str, code: int | None, stdout: str, plan, coeffs) -> tuple[list[str], float | None]:
    """Problems found in one report, and its profit rate when feasible."""
    if code not in (0, 3):
        return [f"exit code {code}"], None
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"report is not JSON: {exc}"], None
    problems: list[str] = []
    feasible = report.get("feasible")
    if not isinstance(feasible, bool):
        return [f"feasible is {feasible!r}"], None

    expected_code = 0 if (feasible or command == "evaluate") else 3
    if code != expected_code:
        problems.append(f"exit code {code} with feasible={feasible}")
    speeds, feeds = report.get("speeds"), report.get("feeds")
    if speeds is None and feeds is None and not feasible and command != "evaluate":
        return problems, None  # no solution reported, nothing to price
    if not (isinstance(speeds, list) and isinstance(feeds, list) and len(speeds) == len(feeds) == plan.m):
        return problems + ["solution has the wrong shape"], None

    x = DecisionVector(speeds=tuple(speeds), feeds=tuple(feeds))
    margins_ok = all(m.satisfied for m in constraint_margins(plan, x, coeffs))
    if margins_ok != feasible:
        problems.append(f"feasible={feasible} but the margins say {margins_ok}")
    cost = unit_cost(plan, x, coeffs)
    time = unit_time(plan, x, coeffs)
    rate = (plan.economics.sale_price - cost) / time
    for key, expected in (("unit_cost", cost), ("unit_time", time), ("profit_rate", rate)):
        if not _close(report.get(key), expected):
            problems.append(f"{key} {report.get(key)!r} != re-priced {expected!r}")
    if command == "evaluate":
        fitness = report.get("fitness")
        if not (_close(fitness, rate) if margins_ok else fitness == 0.0):
            problems.append(f"fitness {fitness!r} does not match the margins")
    return problems, (rate if feasible else None)
