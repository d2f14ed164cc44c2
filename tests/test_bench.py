"""scripts/bench.py writes every section it names, and its seeded section,
counts of a seeded search, repeats exactly.  Its timings are never
asserted: they are the machine's."""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "bench.py"

END_TO_END = [
    f"{command} {plan}" for plan in ("builtin", "plan19") for command in ("optimize", "oracle", "compare", "evaluate")
]
PER_LAYER = [
    "parse", "load_document_file", "compile_context", "corner_pricing", "feasible_polygons", "solve_exact",
    "initial_state", "es_step", "batch_evaluate", "decode", "mutate", "render_json",
]


def load_script():
    spec = importlib.util.spec_from_file_location("bench", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_quick_run_writes_every_field_and_its_seeded_counts_repeat(tmp_path):
    path = tmp_path / "bench.json"
    done = subprocess.run(
        [sys.executable, str(SCRIPT), "--quick", "--out", str(path)], capture_output=True, text=True, check=False
    )
    assert done.returncode == 0, done.stderr
    record = json.loads(path.read_text(encoding="utf-8"))
    assert set(record) == {"environment", "end_to_end", "per_layer", "seeded", "quick"}
    assert record["quick"] is True

    environment = record["environment"]
    assert {"commit", "dirty", "python", "numpy", "cpu_count", "machine", "calibration"} <= set(environment)
    assert set(environment["calibration"]) == {"es_like", "grid_like"}
    for reading in environment["calibration"].values():
        assert isinstance(reading["min_s"], float) and isinstance(reading["reference_s"], float)

    assert sorted(record["end_to_end"]) == sorted(END_TO_END)
    for entry in record["end_to_end"].values():
        assert entry["calls"] >= 1 and entry["min_ms"] <= entry["median_ms"]
        assert entry["argv"][0] in ("optimize", "oracle", "compare", "evaluate")
    assert sorted(record["per_layer"]) == sorted(PER_LAYER)
    for entry in record["per_layer"].values():
        assert entry["calls_per_repeat"] >= 1 and entry["min_us"] <= entry["median_us"]

    seeded = record["seeded"]
    assert [run["seed"] for run in seeded["runs"]] == list(range(20))
    assert seeded["generations_total"] == sum(run["generations"] for run in seeded["runs"])
    # every bundled seed ends certified within 1e-6 of the bound
    assert all(0.0 <= run["gap_to_rate_hi"] <= 1e-6 for run in seeded["runs"])
    # the same counts in a second process, to the last bit
    assert load_script().seeded() == seeded
