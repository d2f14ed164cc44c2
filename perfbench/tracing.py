"""Span tracing of millopt from outside the package.

Tracer wraps module attributes that callers resolve at call time (for
example ``millopt.es.step``, which ``es.run`` looks up on every
generation).  Each call records a span (layer, start, end, parent span,
solve id) in memory; counts are taken from the wrapped call's arguments
and result.  ``uninstall`` puts the original functions back.  Self time,
a span's duration minus what its child spans cover, is computed from the
spans after the run.
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

import numpy as np

# Dtype-level model of what one grid point costs per_op_grid_min: six
# float64 temporaries (two products, two sums, the power-constraint
# product, the masked values) and two bool masks.  A computed figure, not a
# measured one.
GRID_BYTES_PER_POINT = 6 * 8 + 2 * 1


def _arg(args: tuple, kwargs: dict, index: int, name: str) -> Any:
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else None


class Tracer:
    """Wraps the layer boundaries of millopt and keeps spans in memory.

    targets: (module, attribute, layer) triples.  Several attributes may
    share one layer, e.g. every binding of derive_coefficients.
    """

    def __init__(self, targets: list[tuple[Any, str, str]]):
        self.targets = targets
        self.layers: list[str] = []
        self.counts: Counter[str] = Counter()
        self.missing_targets = sorted(
            f"{module.__name__}.{attr}" for module, attr, _ in targets if not callable(getattr(module, attr, None))
        )
        self.solve_id = -1
        self.es_threshold: float | None = None  # fitness that counts as "reached"
        self.evals_to_threshold: list[int] = []
        self._name: list[int] = []
        self._start: list[float] = []
        self._end: list[float] = []
        self._parent: list[int] = []
        self._solve: list[int] = []
        self._stack: list[int] = []
        self._originals: list[tuple[Any, str, Any]] = []
        self._run_stall = 0
        self._run_reached: int | None = None

    # -- wrapping -------------------------------------------------------

    def install(self) -> None:
        hooks: dict[str, Callable[[tuple, dict, Any], None]] = {
            "milling.batch_evaluate": self._after_batch_evaluate,
            "es.step": self._after_step,
            "es.run": self._after_run,
            "oracle.per_op_grid_min": self._after_grid_min,
            "oracle.dinkelbach_solve": self._after_dinkelbach,
        }
        for module, attr, layer in self.targets:
            original = getattr(module, attr, None)
            if not callable(original):
                continue
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(original, layer, hooks.get(layer)))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def _layer_id(self, layer: str) -> int:
        if layer not in self.layers:
            self.layers.append(layer)
        return self.layers.index(layer)

    def _wrap(self, fn: Callable, layer: str, after: Callable | None) -> Callable:
        layer_id = self._layer_id(layer)
        calls_key = layer + ".calls"
        names, starts, ends, parents, solves, stack = (
            self._name, self._start, self._end, self._parent, self._solve, self._stack,
        )

        def traced(*args, **kwargs):
            index = len(starts)
            names.append(layer_id)
            parents.append(stack[-1] if stack else -1)
            solves.append(self.solve_id)
            ends.append(0.0)
            stack.append(index)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                stack.pop()
            self.counts[calls_key] += 1
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- counters read from arguments and results -------------------------

    def _after_batch_evaluate(self, args: tuple, kwargs: dict, result: Any) -> None:
        feasible = getattr(result, "feasible", None)
        if feasible is not None:
            self.counts["milling.rows"] += int(feasible.size)
            self.counts["milling.feasible_rows"] += int(np.count_nonzero(feasible))

    def _after_step(self, args: tuple, kwargs: dict, result: Any) -> None:
        record = getattr(result, "record", None)
        stall = getattr(record, "stall_counter", None)
        if stall is None:
            return
        self._run_stall = stall
        fitness = getattr(record, "fitness", 0.0)
        if self.es_threshold is not None and self._run_reached is None and fitness >= self.es_threshold:
            self._run_reached = int(getattr(result, "evaluations", 0))

    def _after_run(self, args: tuple, kwargs: dict, result: Any) -> None:
        generations = getattr(result, "generations", None)
        if generations is not None:
            self.counts["es.generations"] += generations
            self.counts["es.stall_generations"] += self._run_stall
        if self.es_threshold is not None:
            # runs that never reach the threshold count as all their evaluations
            reached = self._run_reached
            self.evals_to_threshold.append(reached if reached is not None else int(getattr(result, "evaluations", 0)))
        self._run_stall = 0
        self._run_reached = None

    def _after_grid_min(self, args: tuple, kwargs: dict, result: Any) -> None:
        resolution = getattr(_arg(args, kwargs, 4, "grid"), "resolution", None)
        if resolution is not None:
            self.counts["oracle.grid_points"] += resolution * resolution

    def _after_dinkelbach(self, args: tuple, kwargs: dict, result: Any) -> None:
        iterations = getattr(result, "iterations", None)
        if iterations is not None:
            self.counts["oracle.dinkelbach_iterations"] += iterations

    # -- results -----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "layer": np.asarray(self._name, dtype=np.int16),
            "start": np.asarray(self._start, dtype=float),
            "end": np.asarray(self._end, dtype=float),
            "parent": np.asarray(self._parent, dtype=np.int64),
            "solve": np.asarray(self._solve, dtype=np.int64),
        }

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per layer, summed over all spans."""
        spans = self.arrays()
        duration = spans["end"] - spans["start"]
        has_parent = spans["parent"] >= 0
        covered = np.bincount(
            spans["parent"][has_parent], weights=duration[has_parent], minlength=duration.size
        )
        own = np.bincount(spans["layer"], weights=duration - covered, minlength=len(self.layers))
        return {layer: float(own[i]) for i, layer in enumerate(self.layers)}

    def hit_layers(self) -> set[str]:
        return {self.layers[i] for i in set(self._name)}

    def write(self, path: Path) -> None:
        np.savez(path, layers=np.asarray(self.layers), **self.arrays())
