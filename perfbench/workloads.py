"""Workload definitions: the inputs each workload feeds to the millopt CLI.

Every workload is an endless, seeded stream of items.  An item is one
"solve" as a user would run it: a list of CLI invocations (argv lists)
whose summed wall time is the item's solve time.  The same workload seed
always yields the same stream, and the program only ever sees the argv
and the plan documents written here.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

BUILTIN = "builtin"

# es_builtin runs ES seeds 0 .. ES_SEEDS-1 in cycles, each cycle in an order
# drawn from the workload seed.  An ES run's length depends on its seed
# (1,041-3,326 generations over these twenty), so a run measures the same
# set of solves whatever the workload seed, and its spread is the
# machine's, not the luck of the seed draw.
ES_SEEDS = 20

# Oracle resolutions come in cycles of RES_RUNGS, one near each rung of an
# evenly spaced ladder over [RES_LOW, RES_HIGH], moved by up to RES_JITTER
# from the workload seed and run in a seeded order.
RES_LOW, RES_HIGH, RES_RUNGS, RES_JITTER = 500, 2500, 7, 8

# Solver settings the plan_mix documents override.
PLAN_MIX_STALL = 200
PLAN_MIX_RESOLUTION = 300


@dataclass(frozen=True)
class Call:
    """One CLI invocation; plan is BUILTIN or the key of a generated document."""

    command: str
    argv: tuple[str, ...]
    plan: str


@dataclass(frozen=True)
class Item:
    calls: tuple[Call, ...]
    closes_cycle: bool = True  # a run may stop after this item


@dataclass(frozen=True)
class Workload:
    name: str
    stream_id: int
    min_items: int
    calibration: str  # the calibration kernel doing this workload's kind of work
    expected_layers: frozenset[str]


_BUILTIN_LAYERS = frozenset({"cli.main", "case_study.load_document", "milling.compile"})
_ES_LAYERS = frozenset({"es.run", "es.step", "milling.batch_evaluate"})
_ORACLE_LAYERS = frozenset({"oracle.dinkelbach_solve", "oracle.per_op_grid_min"})

WORKLOADS = {
    w.name: w
    for w in (
        # ES only: es.step and batch_evaluate do the work, the oracle none
        Workload("es_builtin", 1, ES_SEEDS, "es_like", _BUILTIN_LAYERS | _ES_LAYERS),
        # oracle only, three whole cycles at least
        Workload("oracle_builtin", 2, 3 * RES_RUNGS, "grid_like", _BUILTIN_LAYERS | _ORACLE_LAYERS),
        # every layer, in many short solves; ES solves take most of the time
        Workload("plan_mix", 3, 60, "es_like", _BUILTIN_LAYERS | _ES_LAYERS | _ORACLE_LAYERS),
    )
}


def _rng(workload: Workload, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, workload.stream_id])


def _close_cycle(items: list[Item]) -> list[Item]:
    """The items of one cycle; a run may stop only after the last."""
    return items[:-1] + [Item(items[-1].calls)]


def midpoint_args(speed_bounds, feed_bounds) -> tuple[str, ...]:
    """--speeds/--feeds arguments at the centre of every operation's box,
    given one (low, high) pair per operation for each axis."""
    speeds = ",".join(repr((low + high) / 2.0) for low, high in speed_bounds)
    feeds = ",".join(repr((low + high) / 2.0) for low, high in feed_bounds)
    return ("--speeds", speeds, "--feeds", feeds)


def random_plan_document(rng: np.random.Generator) -> dict[str, Any]:
    """A random plan document with 1-5 operations and 1-3 tools.

    Same draws, in the same order, as ``random_plan`` in the acceptance
    tests, written out as a plan document instead of model objects.
    """
    economics = {
        "sale_price": float(rng.uniform(20.0, 40.0)),
        "material_cost": float(rng.uniform(0.1, 2.0)),
        "labor_rate": float(rng.uniform(0.2, 1.0)),
        "overhead_rate": float(rng.uniform(0.5, 2.0)),
        "setup_time": float(rng.uniform(0.5, 4.0)),
    }
    machine = {
        "motor_power": float(rng.uniform(4.0, 12.0)),
        "efficiency": float(rng.uniform(0.7, 0.99)),
        "power_constant": float(rng.uniform(1.0, 3.0)),
        "wear_factor": float(rng.uniform(0.8, 1.3)),
        "chip_area_exponent": float(rng.uniform(0.2, 0.35)),
        "slenderness_exponent": float(rng.uniform(0.1, 0.2)),
    }
    tools = []
    for tool_id in range(1, int(rng.integers(1, 4)) + 1):
        face = bool(rng.integers(0, 2))
        tool = {
            "id": tool_id,
            "kind": "face_mill" if face else "end_mill",
            "quality": "carbide" if rng.integers(0, 2) else "hss",
            "diameter": float(rng.uniform(8.0, 60.0)),
            "teeth": int(rng.integers(2, 9)),
            "price": float(rng.uniform(5.0, 60.0)),
            "lead_angle": float(rng.uniform(15.0, 60.0)) if face else 0.0,
            "clearance_angle": float(rng.uniform(3.0, 10.0)),
            "taylor_constant": float(rng.uniform(20.0, 120.0)),
            "life_exponent": float(rng.uniform(0.12, 0.35)),
            "change_time": float(rng.uniform(0.2, 1.0)),
        }
        if rng.integers(0, 2):
            tool["permitted_force"] = float(rng.uniform(2000.0, 9000.0))
        tools.append(tool)
    operations = []
    for number in range(1, int(rng.integers(1, 6)) + 1):
        tool = tools[int(rng.integers(0, len(tools)))]
        speed_low = float(rng.uniform(30.0, 80.0))
        feed_low = float(rng.uniform(0.05, 0.1))
        op = {
            "number": number,
            "kind": ("face", "corner", "pocket", "slot")[int(rng.integers(0, 4))],
            "tool": tool["id"],
            "axial_depth": float(rng.uniform(2.0, 12.0)),
            "radial_depth": float(tool["diameter"] * rng.uniform(0.2, 1.0)),
            "travel": float(rng.uniform(20.0, 500.0)),
            "speed_bounds": [speed_low, speed_low + float(rng.uniform(10.0, 60.0))],
            "feed_bounds": [feed_low, feed_low + float(rng.uniform(0.1, 0.4))],
        }
        if rng.integers(0, 2):
            op["surface_finish_req"] = float(rng.uniform(1.0, 6.0))
        operations.append(op)
    return {"economics": economics, "machine": machine, "tools": tools, "operations": operations}


class Inputs:
    """The seeded item stream of one workload plus the documents it wrote."""

    def __init__(self, workload: Workload, seed: int, doc_dir: Path, builtin_document: dict[str, Any]):
        self.workload = workload
        self.doc_dir = doc_dir
        self.documents: dict[str, dict[str, Any]] = {BUILTIN: builtin_document}
        self._rng = _rng(workload, seed)
        self._pending: list[Item] = []

    def peek(self) -> Item:
        if not self._pending:
            self._pending = getattr(self, "_refill_" + self.workload.name)()
        return self._pending[0]

    def next_item(self) -> Item:
        item = self.peek()
        self._pending.pop(0)
        return item

    def first_plan_key(self) -> str:
        return self.peek().calls[0].plan

    def path(self, key: str) -> Path:
        return self.doc_dir / f"{key}.json"

    def _refill_es_builtin(self) -> list[Item]:
        items = []
        for es_seed in self._rng.permutation(ES_SEEDS):
            argv = ("optimize", "--builtin-case", "--sigma-init", "0.3", "--seed", str(es_seed), "--out", "json")
            items.append(Item((Call("optimize", argv, BUILTIN),), closes_cycle=False))
        return _close_cycle(items)

    def _refill_oracle_builtin(self) -> list[Item]:
        rungs = np.linspace(RES_LOW, RES_HIGH, RES_RUNGS)
        jitter = self._rng.integers(-RES_JITTER, RES_JITTER + 1, RES_RUNGS)
        resolutions = np.clip(rungs.round().astype(int) + jitter, RES_LOW, RES_HIGH)
        items = []
        for k in self._rng.permutation(RES_RUNGS):
            argv = ("oracle", "--builtin-case", "--grid-resolution", str(resolutions[k]), "--out", "json")
            items.append(Item((Call("oracle", argv, BUILTIN),), closes_cycle=False))
        return _close_cycle(items)

    def _refill_plan_mix(self) -> list[Item]:
        document = random_plan_document(self._rng)
        document["es"] = {"stall_limit": PLAN_MIX_STALL}
        document["oracle"] = {"resolution": PLAN_MIX_RESOLUTION}
        es_seed = int(self._rng.integers(0, 2**31))
        key = f"plan-{len(self.documents) - 1:05d}"
        self.documents[key] = document
        path = self.path(key)
        path.write_text(json.dumps(document, indent=1), encoding="utf-8")
        source = ("--config", str(path))
        ops = document["operations"]
        midpoint = midpoint_args([op["speed_bounds"] for op in ops], [op["feed_bounds"] for op in ops])
        calls = (
            Call("optimize", ("optimize", *source, "--seed", str(es_seed), "--out", "json"), key),
            Call("oracle", ("oracle", *source, "--out", "json"), key),
            Call("evaluate", ("evaluate", *source, *midpoint, "--out", "json"), key),
        )
        return [Item(calls)]
