"""Command-line tests: report schemas in all three formats, flag and
document-override precedence, exit codes, determinism of written files,
and stderr logging."""

from __future__ import annotations

import collections
import contextlib
import hashlib
import io
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from millopt import EsConfig, GridSpec, PlanError, case_study, cli, es, milling, oracle
from millopt.case_study import builtin_document_bytes, load_document
from millopt.cli import main

from conftest import (
    dump_plan,
    finish_infeasible_plan,
    force_infeasible_plan,
    infeasible_plan,
    single_face_plan,
    two_op_plan,
)
from test_acceptance import random_plan
from test_es import digest_plan


@pytest.fixture()
def toy_config_path(tmp_path):
    path = tmp_path / "toy.json"
    path.write_text(json.dumps(dump_plan(single_face_plan())), encoding="utf-8")
    return str(path)


@pytest.fixture()
def infeasible_config_path(tmp_path):
    path = tmp_path / "hopeless.json"
    path.write_text(json.dumps(dump_plan(infeasible_plan())), encoding="utf-8")
    return str(path)


def plan_path(tmp_path, plan) -> str:
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(dump_plan(plan)), encoding="utf-8")
    return str(path)


# Plans whose lowest speed and feed break only the finish or only the force
# limit; infeasible_plan breaks the power limit.
CORNER_INFEASIBLE_PLANS = pytest.mark.parametrize(
    "make_plan",
    [finish_infeasible_plan, force_infeasible_plan],
    ids=["finish", "force"],
)


# Whole text and csv reports, byte for byte, so that key order, rounding,
# column widths and every row are pinned.  optimize runs on the toy plan
# at --seed 1 --stall 10; compare on the bundled case at --seed 0
# --stall 5 --grid-resolution 60.
TOY_OPTIMIZE_TEXT = """\
optimize report
  operations              1
  feasible                True
  profit_rate             6.8389
  unit_cost               6.4463
  unit_time               2.7129
  speed_1                 61.4719
  feed_1                  0.4000
  sigma_final_1           3.3781
  sigma_final_2           0.8783
  generations             2
  evaluations             210
  seed                    1
  config.mu               15
  config.eta              105
  config.sigma_init       3.0000
  config.alpha            0.5000
  config.stall_limit      10
  config.max_generations  100000
  config.sigma_floor      0.0000
  warning_1               operation 1: tool 1 has no permitted cutting force; force constraint skipped
"""

TOY_OPTIMIZE_CSV = """\
key,value
operations,1
feasible,True
profit_rate,6.8389
unit_cost,6.4463
unit_time,2.7129
speed_1,61.4719
feed_1,0.4000
sigma_final_1,3.3781
sigma_final_2,0.8783
generations,2
evaluations,210
seed,1
config.mu,15
config.eta,105
config.sigma_init,3.0000
config.alpha,0.5000
config.stall_limit,10
config.max_generations,100000
config.sigma_floor,0.0000
warning_1,operation 1: tool 1 has no permitted cutting force; force constraint skipped
"""

BUILTIN_COMPARE_CSV = """\
method,unit_cost,unit_time,profit_rate
Handbook,18.36,9.40,0.71
Method of feasible direction,11.35,5.48,2.49
Genetic algorithm,11.11,5.22,2.65
Ant colony algorithm,10.20,5.43,2.72
Hybrid particle swarm,10.90,5.05,2.79
Immune algorithm,11.08,5.07,2.75
Hybrid immune algorithm,10.91,5.07,2.79
Hybrid differential evolution algorithm,10.90,5.00,2.82
Evolutionary strategy,10.91,5.00,2.82
Evolutionary strategy (this implementation),18.78,7.21,0.86
Oracle (grid),16.14,6.62,1.34
"""

BUILTIN_COMPARE_TEXT = """\
method                                       unit_cost  unit_time  profit_rate
Handbook                                         18.36       9.40         0.71
Method of feasible direction                     11.35       5.48         2.49
Genetic algorithm                                11.11       5.22         2.65
Ant colony algorithm                             10.20       5.43         2.72
Hybrid particle swarm                            10.90       5.05         2.79
Immune algorithm                                 11.08       5.07         2.75
Hybrid immune algorithm                          10.91       5.07         2.79
Hybrid differential evolution algorithm          10.90       5.00         2.82
Evolutionary strategy                            10.91       5.00         2.82
Evolutionary strategy (this implementation)      18.78       7.21         0.86
Oracle (grid)                                    16.14       6.62         1.34

gap to published strategy row: profit rate 0.8623 vs 2.82 (-69.4%), unit cost 18.7791 vs 10.91 (+72.1%)
warning_1: operation 1: radial depth 50 mm is an assumed engagement value
warning_2: operation 1: tool 1 has no permitted cutting force; force constraint skipped
warning_3: operation 2: radial depth 5 mm is an assumed engagement value
warning_4: operation 2: tool 2 has no permitted cutting force; force constraint skipped
warning_5: operation 3: radial depth 10 mm is an assumed engagement value
warning_6: operation 3: tool 2 has no permitted cutting force; force constraint skipped
warning_7: operation 4: radial depth 10 mm is an assumed engagement value
warning_8: operation 4: tool 3 has no permitted cutting force; force constraint skipped
warning_9: operation 5: radial depth 5 mm is an assumed engagement value
warning_10: operation 5: tool 3 has no permitted cutting force; force constraint skipped
"""


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _ = run_cli(capsys, *argv, "--out", "json")
    return code, json.loads(out)


class TestOptimizeCommand:
    def test_json_schema_and_exit_code(self, capsys, toy_config_path):
        code, report = run_json(
            capsys, "optimize", "--config", toy_config_path, "--seed", "5", "--stall", "20"
        )
        assert code == 0
        assert report["command"] == "optimize"
        assert report["feasible"] is True
        assert report["operations"] == [1]
        assert len(report["speeds"]) == 1 and len(report["feeds"]) == 1
        assert len(report["sigmas_final"]) == 2
        assert report["seed"] == 5
        # the certified stop ends the run once its best is within
        # STALL_GAIN of the optimum, long before 20 generations without a
        # reset
        assert report["generations"] == 3
        assert report["evaluations"] == report["generations"] * 105
        assert report["config"] == {
            "mu": 15,
            "eta": 105,
            "sigma_init": 3.0,
            "alpha": 0.5,
            "stall_limit": 20,
            "max_generations": 100000,
            "sigma_floor": 1e-8,
        }
        # solution fields satisfy the defining identity of the profit rate
        assert report["profit_rate"] * report["unit_time"] + report["unit_cost"] == pytest.approx(
            25.0, rel=1e-9
        )

    def test_text_format(self, capsys, toy_config_path):
        code, out, _ = run_cli(
            capsys, "optimize", "--config", toy_config_path, "--seed", "1", "--stall", "10"
        )
        assert code == 0
        assert out.startswith("optimize report\n")
        assert "speed_1" in out and "feed_1" in out
        assert "profit_rate" in out
        assert out.endswith("\n")
        assert out == TOY_OPTIMIZE_TEXT

    def test_csv_format(self, capsys, toy_config_path):
        code, out, _ = run_cli(
            capsys,
            "optimize", "--config", toy_config_path, "--seed", "1", "--stall", "10",
            "--out", "csv",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "key,value"
        keys = {line.split(",", 1)[0] for line in lines[1:]}
        assert {"feasible", "profit_rate", "speed_1", "feed_1", "seed"} <= keys
        assert out == TOY_OPTIMIZE_CSV

    def test_same_seed_writes_byte_identical_files(self, capsys, toy_config_path, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            code, out, _ = run_cli(
                capsys,
                "optimize", "--config", toy_config_path, "--seed", "9", "--stall", "25",
                "--out", "json", "--output", str(path),
            )
            assert code == 0
            assert out == ""  # report went to the file, not stdout
        first, second = (p.read_bytes() for p in paths)
        assert first == second
        assert first.decode("utf-8").endswith("\n")

    def test_explicit_default_flags_match_plain_defaults(self, capsys, toy_config_path):
        _, plain = run_json(capsys, "optimize", "--config", toy_config_path)
        _, spelled = run_json(
            capsys,
            "optimize", "--config", toy_config_path,
            "--mu", "15", "--lambda", "105", "--stall", "1000", "--seed", "0",
            "--alpha", "0.5", "--sigma-init", "3.0",
        )
        assert plain == spelled

    def test_infeasible_plan_exits_three(self, capsys, infeasible_config_path):
        code, report = run_json(
            capsys, "optimize", "--config", infeasible_config_path, "--stall", "1"
        )
        assert code == 3
        assert report["feasible"] is False
        assert report["speeds"] is None and report["feeds"] is None
        assert report["profit_rate"] is None
        # decided before the first generation
        assert report["generations"] == 0 and report["evaluations"] == 0

    @CORNER_INFEASIBLE_PLANS
    def test_finish_or_force_infeasible_plan_exits_three(self, capsys, tmp_path, make_plan):
        code, report = run_json(capsys, "optimize", "--config", plan_path(tmp_path, make_plan()))
        assert code == 3
        assert report["feasible"] is False
        assert report["generations"] == 0 and report["evaluations"] == 0

    def test_plan_proven_unprofitable_exits_three_before_any_generation(self, capsys, tmp_path):
        # digest plan 11's cost floor is 1.14 times its sale price
        code, out, err = run_cli(
            capsys, "optimize", "--config", plan_path(tmp_path, digest_plan(11)), "--verbose", "--out", "json"
        )
        report = json.loads(out)
        assert code == 3
        assert err == ""
        assert report["feasible"] is False and report["profit_rate"] is None
        assert report["generations"] == 0 and report["evaluations"] == 0

    def test_unconverged_certificate_iteration_exits_one(self, capsys, monkeypatch):
        # the run's bound comes from the exact iteration, which raises at
        # the guard as the grid oracle's does
        monkeypatch.setattr(oracle, "MAX_DINKELBACH_ITERATIONS", 1)
        code, out, err = run_cli(capsys, "optimize", "--builtin-case", "--stall", "5")
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ") and "did not converge" in err

    def test_verbose_logs_improvements_to_stderr(self, capsys, toy_config_path):
        code, out, err = run_cli(
            capsys,
            "optimize", "--config", toy_config_path, "--seed", "2", "--stall", "10",
            "--verbose", "--out", "json",
        )
        assert code == 0
        assert "generation" in err
        json.loads(out)  # stdout still carries only the report

    VERBOSE_BUILTIN = (
        "optimize", "--builtin-case", "--sigma-init", "0.3", "--seed", "0",
        "--verbose", "--out", "json",
    )

    def test_verbose_log_under_a_zero_stall_gain_is_frozen(self, capsys, monkeypatch):
        # With no gain required, the logger prints the lines it printed when
        # it logged every generation that reset the stall counter.
        monkeypatch.setattr(es, "STALL_GAIN", 0.0)
        code, _, err = run_cli(capsys, *self.VERBOSE_BUILTIN)
        assert code == 0
        assert len(err.splitlines()) == 103
        assert hashlib.sha256(err.encode("utf-8")).hexdigest() == (
            "9469615c6a239c95c12ef48f382b7a3c1a8b7fc54403130bcb2d4b49d5df06b7"
        )

    def test_verbose_logs_one_line_per_rise_of_the_best(self, capsys, builtin_plan):
        rises = []
        last = [0.0]

        def observe(state):
            if state.record.fitness > last[0]:
                last[0] = state.record.fitness
                rises.append((state.generation, state.record.fitness, state.record.stall_counter))

        es.run(builtin_plan, EsConfig(sigma_init=0.3, seed=0), observer=observe)
        code, _, err = run_cli(capsys, *self.VERBOSE_BUILTIN)
        assert code == 0
        assert err.splitlines() == [f"generation {g}: best {f:.6f}" for g, f, _ in rises]
        # some rises are too small to reset the stall counter, and still logged
        assert any(counter > 0 for _, _, counter in rises)


class TestOracleCommand:
    def test_json_schema(self, capsys):
        code, report = run_json(
            capsys, "oracle", "--builtin-case", "--grid-resolution", "60"
        )
        assert code == 0
        assert report["command"] == "oracle"
        assert report["feasible"] is True
        assert report["grid_resolution"] == 60
        assert report["iterations"] >= 1
        assert len(report["lambda_trace"]) == report["iterations"] + 1
        assert len(report["speeds"]) == 5 and len(report["feeds"]) == 5
        assert report["profit_rate"] == pytest.approx(
            (25.0 - report["unit_cost"]) / report["unit_time"], rel=1e-12
        )

    def test_bad_resolution_exits_two(self, capsys):
        code, _, err = run_cli(
            capsys, "oracle", "--builtin-case", "--grid-resolution", "1"
        )
        assert code == 2
        assert "error:" in err and "resolution" in err

    def test_infeasible_plan_exits_three(self, capsys, infeasible_config_path):
        code, report = run_json(
            capsys, "oracle", "--config", infeasible_config_path, "--grid-resolution", "12"
        )
        assert code == 3
        assert report["feasible"] is False
        # decided before the first multiplier iteration
        assert report["iterations"] == 0 and report["lambda_trace"] == []

    @CORNER_INFEASIBLE_PLANS
    def test_finish_or_force_infeasible_plan_exits_three(self, capsys, tmp_path, make_plan):
        code, report = run_json(capsys, "oracle", "--config", plan_path(tmp_path, make_plan()))
        assert code == 3
        assert report["feasible"] is False
        assert report["iterations"] == 0 and report["lambda_trace"] == []

    def test_unconverged_iteration_exits_one(self, capsys, monkeypatch):
        monkeypatch.setattr(oracle, "MAX_DINKELBACH_ITERATIONS", 1)
        code, out, err = run_cli(
            capsys, "oracle", "--builtin-case", "--grid-resolution", "50"
        )
        assert code == 1
        assert out == ""
        assert "error:" in err and "did not converge" in err

    def test_text_expands_trace(self, capsys):
        code, out, _ = run_cli(
            capsys, "oracle", "--builtin-case", "--grid-resolution", "20"
        )
        assert code == 0
        assert "lambda_trace_1" in out


class TestEvaluateCommand:
    SPEEDS = "80,45,40,35,32"
    FEEDS = "0.07,0.3,0.3,0.4,0.3"

    def test_feasible_point(self, capsys):
        code, report = run_json(
            capsys,
            "evaluate", "--builtin-case", "--speeds", self.SPEEDS, "--feeds", self.FEEDS,
        )
        assert code == 0
        assert report["feasible"] is True
        assert report["fitness"] == report["profit_rate"]
        assert report["speeds"] == [80.0, 45.0, 40.0, 35.0, 32.0]
        assert report["feeds"] == [0.07, 0.3, 0.3, 0.4, 0.3]
        assert len(report["margins"]) == 5
        first = report["margins"][0]
        assert set(first) == {
            "operation", "power", "power_ok", "finish", "finish_ok",
            "force", "force_ok", "speed_ok", "feed_ok",
        }
        # no force limit on any builtin tool: entry present but empty
        assert first["force"] is None and first["force_ok"] is True
        assert report["profit_rate"] * report["unit_time"] + report["unit_cost"] == pytest.approx(
            25.0, rel=1e-12
        )

    def test_violating_point_still_exits_zero(self, capsys):
        code, report = run_json(
            capsys,
            "evaluate", "--builtin-case", "--speeds", "200,45,40,35,32", "--feeds", self.FEEDS,
        )
        assert code == 0
        assert report["feasible"] is False
        assert report["fitness"] == 0.0
        assert report["margins"][0]["speed_ok"] is False
        # the priced columns stay populated even when infeasible
        assert report["profit_rate"] is not None

    def test_text_margin_lines(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "evaluate", "--builtin-case", "--speeds", self.SPEEDS, "--feeds", self.FEEDS,
        )
        assert code == 0
        assert "margin_1_power" in out
        assert "margin_1_speed_box" in out
        assert " ok" in out
        code, out, _ = run_cli(
            capsys,
            "evaluate", "--builtin-case", "--speeds", "200,45,40,35,32", "--feeds", self.FEEDS,
        )
        assert "violated" in out

    @given(
        seed=st.integers(0, 2**32 - 1),
        region=st.sampled_from(["below the feed caps", "box", "around the box"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_report_prices_as_the_scalar_functions(self, tmp_path_factory, seed, region):
        # evaluate prices the point once; its four prices are still those
        # of the scalar reference functions, bit for bit, inside the box
        # and outside it, feasible or not.
        rng = np.random.default_rng(seed)
        plan = random_plan(rng)
        ctx = milling.compile_context(plan)
        low, high = {
            "below the feed caps": (ctx.lower, np.maximum(ctx.lower, ctx.feasible_upper)),
            "box": (ctx.lower, ctx.upper),
            "around the box": (0.5 * ctx.lower, 2.0 * ctx.upper),
        }[region]
        x = milling.DecisionVector.from_genome(rng.uniform(low, high))
        coeffs = milling.derive_coefficients(plan)
        names = ("fitness", "profit_rate", "unit_cost", "unit_time")
        expected = {name: float(getattr(milling, name)(plan, x, coeffs)).hex() for name in names}

        path = tmp_path_factory.mktemp("evaluate") / "plan.json"
        path.write_text(json.dumps(dump_plan(plan)), encoding="utf-8")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main([
                "evaluate", "--config", str(path), "--out", "json",
                "--speeds", ",".join(repr(float(v)) for v in x.speeds),
                "--feeds", ",".join(repr(float(f)) for f in x.feeds),
            ])
        assert code == 0
        report = json.loads(out.getvalue())
        assert {name: float(report[name]).hex() for name in names} == expected

    def test_wrong_value_count_exits_two(self, capsys):
        code, _, err = run_cli(
            capsys, "evaluate", "--builtin-case", "--speeds", "80,45", "--feeds", self.FEEDS
        )
        assert code == 2
        assert "--speeds has 2 values but the plan has 5 operations" in err

    def test_non_numeric_values_exit_two(self, capsys):
        code, _, err = run_cli(
            capsys, "evaluate", "--builtin-case", "--speeds", "fast,45,40,35,32",
            "--feeds", self.FEEDS,
        )
        assert code == 2
        assert "comma-separated numbers" in err

    @pytest.mark.parametrize("joined", [False, True], ids=["spaced", "equals"])
    @pytest.mark.parametrize(
        "flag, values",
        [("--speeds", "-5,40,40,30,31.3"), ("--feeds", "-0.1,0.325,0.325,0.5,0.388")],
        ids=["speeds", "feeds"],
    )
    def test_list_starting_with_a_negative_value_reaches_the_model_check(self, capsys, flag, values, joined):
        # "--speeds -5,..." must not read as an option: both spellings
        # reach the model's own check.
        point = {"--speeds": self.SPEEDS, "--feeds": self.FEEDS, flag: values}
        argv = []
        for name, value in point.items():
            argv += [f"{name}={value}"] if joined and name == flag else [name, value]
        code, out, err = run_cli(capsys, "evaluate", "--builtin-case", *argv)
        assert (code, out) == (2, "")
        # the one error line and nothing before it, such as a numpy warning
        # from a pow taken before the check
        v, f = (float(point[name].split(",")[0]) for name in ("--speeds", "--feeds"))
        assert err == f"error: cutting speed and feed must be finite and > 0, got v={v}, f={f}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("oracle", "--builtin-case", "--grid-resolution", "50"),
        ("evaluate", "--builtin-case", "--speeds", "91.1,40,40,30,31.3", "--feeds", "0.078,0.325,0.325,0.5,0.388"),
    ],
    ids=["oracle", "evaluate"],
)
def test_each_command_derives_the_coefficients_once(capsys, monkeypatch, argv):
    # compile_context derives them and keeps them in EvalContext.coefficients,
    # which the scalar pricing reads.
    calls = []
    original = milling.derive_coefficients

    def counted(plan):
        calls.append(plan)
        return original(plan)

    monkeypatch.setattr(milling, "derive_coefficients", counted)
    # a module that binds the name itself is counted as well
    monkeypatch.setattr(oracle, "derive_coefficients", counted, raising=False)
    code, _, _ = run_cli(capsys, *argv, "--out", "json")
    assert code == 0
    assert len(calls) == 1


# Digest plans (scripts/report_digests.py): profitable, feasible at the
# lowest corner but unprofitable everywhere, and infeasible at it.
CALL_COUNT_PLANS = {"profitable": 13, "unprofitable": 11, "corner-infeasible": 19}


@pytest.mark.parametrize("plan", sorted(CALL_COUNT_PLANS))
@pytest.mark.parametrize("command", ["optimize", "oracle", "evaluate"])
def test_each_command_loads_compiles_and_prices_the_corner_once(capsys, monkeypatch, tmp_path, command, plan):
    # The fixed work of a call, done once: what a second load, compile or
    # corner pricing would cost every call is what this keeps out.
    digest = digest_plan(CALL_COUNT_PLANS[plan])
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(dump_plan(digest)), encoding="utf-8")
    counts = collections.Counter()

    def counted(name, function):
        def call(*args, **kwargs):
            counts[name] += 1
            return function(*args, **kwargs)

        return call

    for module, name in (
        (case_study, "load_document_file"),
        (case_study, "load_document"),
        (milling, "compile_context"),
        (es, "compile_context"),
        (oracle, "compile_context"),
        (es, "solve_exact"),
        (oracle, "solve_exact"),
    ):
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    batch_evaluate = milling.batch_evaluate

    def pricing(ctx, genomes, buffers=None):
        if np.array_equal(np.ravel(genomes), ctx.lower):
            counts["corner"] += 1
        return batch_evaluate(ctx, genomes, buffers)

    monkeypatch.setattr(milling, "batch_evaluate", pricing)
    monkeypatch.setattr(es, "batch_evaluate", pricing)
    extra = {
        "optimize": ("--stall", "20"),
        "oracle": ("--grid-resolution", "30"),
        "evaluate": (
            "--speeds", ",".join(repr(op.speed_bounds[0]) for op in digest.operations),
            "--feeds", ",".join(repr(op.feed_bounds[0]) for op in digest.operations),
        ),
    }[command]
    code, _, err = run_cli(capsys, command, "--config", str(path), *extra, "--out", "json")
    assert err == ""
    # the grid reports a feasible point however unprofitable
    found = plan == "profitable" or plan == "unprofitable" and command == "oracle"
    assert code == (0 if found or command == "evaluate" else 3)
    assert counts == {
        "load_document_file": 1,
        "load_document": 1,
        "compile_context": 1,
        "corner": 1,
        **({"solve_exact": 1} if command == "optimize" else {}),
    }


@pytest.mark.parametrize(
    "argv",
    [
        ("optimize", "--stall", "5"),
        ("oracle", "--grid-resolution", "30"),
        ("evaluate", "--speeds", "91.1,40,40,30,31.3", "--feeds", "0.078,0.325,0.325,0.5,0.388"),
        ("compare", "--stall", "5", "--grid-resolution", "30"),
    ],
    ids=["optimize", "oracle", "evaluate", "compare"],
)
def test_builtin_case_is_read_by_the_document_file_loader(capsys, monkeypatch, argv):
    # the bundled document gets every check a document file gets, the
    # duplicate-key check included
    paths = []
    load_document_file = case_study.load_document_file

    def counted(path):
        paths.append(path)
        return load_document_file(path)

    monkeypatch.setattr(case_study, "load_document_file", counted)
    code, _, err = run_cli(capsys, argv[0], "--builtin-case", *argv[1:], "--out", "json")
    assert (code, err) == (0, "")
    assert paths == [case_study.BUILTIN_DOCUMENT]


class TestCompareCommand:
    def test_builtin_json_report(self, capsys):
        code, report = run_json(
            capsys,
            "compare", "--builtin-case", "--seed", "0", "--stall", "5",
            "--grid-resolution", "60",
        )
        assert code == 0
        methods = [row["method"] for row in report["rows"]]
        assert "Handbook" in methods
        assert "Hybrid differential evolution algorithm" in methods
        assert "Evolutionary strategy (this implementation)" in methods
        assert "Oracle (grid)" in methods
        assert len(report["rows"]) == 11
        published = [r for r in report["rows"] if r["source"] == "published"]
        assert len(published) == 9
        gap = report["reproduction_gap"]
        assert gap is not None
        assert set(gap) == {
            "published_profit_rate", "computed_profit_rate", "profit_rate_relative_error",
            "published_unit_cost", "computed_unit_cost", "unit_cost_relative_error",
        }
        assert gap["published_profit_rate"] == 2.82
        assert gap["published_unit_cost"] == 10.91
        assert report["seed"] == 0
        assert report["grid_resolution"] == 60

    def test_custom_plan_has_no_published_rows(self, capsys, toy_config_path):
        code, report = run_json(
            capsys,
            "compare", "--config", toy_config_path, "--seed", "1", "--stall", "10",
            "--grid-resolution", "30",
        )
        assert code == 0
        assert [row["source"] for row in report["rows"]] == ["computed", "computed"]
        assert report["reproduction_gap"] is None

    def test_csv_header_and_width(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "compare", "--builtin-case", "--seed", "0", "--stall", "5",
            "--grid-resolution", "60", "--out", "csv",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "method,unit_cost,unit_time,profit_rate"
        assert len(lines) == 12  # header + 9 published + 2 computed
        assert lines[1].startswith("Handbook,18.36,9.40,0.71")
        assert out == BUILTIN_COMPARE_CSV

    def test_text_mentions_reproduction_gap(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "compare", "--builtin-case", "--seed", "0", "--stall", "5",
            "--grid-resolution", "60",
        )
        assert code == 0
        assert "gap to published strategy row:" in out
        assert "Evolutionary strategy (this implementation)" in out
        assert out == BUILTIN_COMPARE_TEXT

    def test_infeasible_plan_exits_three(self, capsys, infeasible_config_path):
        code, report = run_json(
            capsys,
            "compare", "--config", infeasible_config_path, "--stall", "1",
            "--grid-resolution", "12",
        )
        assert code == 3
        assert report["rows"] == []
        assert report["generations"] == 0 and report["evaluations"] == 0


class TestDocumentOverrides:
    def write(self, tmp_path, document):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(document), encoding="utf-8")
        return str(path)

    def test_es_section_sets_defaults(self, capsys, tmp_path):
        document = dump_plan(single_face_plan())
        document["es"] = {"seed": 3, "stall_limit": 5, "sigma_init": 0.5}
        path = self.write(tmp_path, document)
        code, report = run_json(capsys, "optimize", "--config", path)
        assert code == 0
        assert report["seed"] == 3
        assert report["config"]["stall_limit"] == 5
        assert report["config"]["sigma_init"] == 0.5

    def test_cli_flags_beat_document_overrides(self, capsys, tmp_path):
        document = dump_plan(single_face_plan())
        document["es"] = {"seed": 3, "stall_limit": 5}
        path = self.write(tmp_path, document)
        code, report = run_json(capsys, "optimize", "--config", path, "--seed", "8")
        assert code == 0
        assert report["seed"] == 8
        assert report["config"]["stall_limit"] == 5  # untouched override survives

    def test_oracle_section_sets_resolution(self, capsys, tmp_path):
        document = dump_plan(single_face_plan())
        document["oracle"] = {"resolution": 25}
        path = self.write(tmp_path, document)
        code, report = run_json(capsys, "oracle", "--config", path)
        assert code == 0
        assert report["grid_resolution"] == 25
        code, report = run_json(capsys, "oracle", "--config", path, "--grid-resolution", "40")
        assert report["grid_resolution"] == 40

    def test_invalid_override_value_exits_two(self, capsys, tmp_path):
        document = dump_plan(single_face_plan())
        document["es"] = {"mu": 0}
        path = self.write(tmp_path, document)
        code, _, err = run_cli(capsys, "optimize", "--config", path)
        assert code == 2
        assert "mu" in err

    @pytest.mark.parametrize(
        ("section", "key", "value"),
        [
            ("es", "tau_global", 0.2),
            ("es", "tau_local", 0.4),
            ("es", "sigma_floor", 1e-6),
            ("es", "max_generations", 5000),
            ("oracle", "dinkelbach_tolerance", 1e-9),
            ("oracle", "max_dinkelbach_iterations", 100),
        ],
    )
    def test_retired_setting_is_an_unknown_key(self, capsys, tmp_path, section, key, value):
        document = dump_plan(single_face_plan())
        document[section] = {key: value}
        with pytest.raises(PlanError, match=f"unknown key '{key}' in section '{section}'"):
            load_document(document)
        command = "optimize" if section == "es" else "oracle"
        code, out, err = run_cli(capsys, command, "--config", self.write(tmp_path, document))
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ") and key in err
        settings = EsConfig if section == "es" else GridSpec
        with pytest.raises(TypeError):
            settings(**{key: value})


@pytest.fixture()
def overflow_config_path(tmp_path):
    """The bundled document with tool wear that overflows: life exponent
    0.004 raises speed to the 249th power.  The loader accepts it."""
    document = json.loads(builtin_document_bytes().decode("utf-8"))
    for tool in document["tools"]:
        tool["life_exponent"] = 0.004
    for operation in document["operations"]:
        operation["k3_override"] = 1.0
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    return str(path)


class TestOverflowingDocument:
    @pytest.mark.parametrize(
        "argv",
        [
            ("optimize",),
            ("oracle",),
            ("compare",),
            ("evaluate", "--speeds", "91.1,40,40,30,31.3", "--feeds", "0.078,0.325,0.325,0.5,0.388"),
        ],
        ids=["optimize", "oracle", "compare", "evaluate"],
    )
    def test_exits_two_with_one_error_line(self, capsys, overflow_config_path, argv):
        code, out, err = run_cli(capsys, *argv, "--config", overflow_config_path)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    def test_every_command_prints_the_same_error(self, capsys, overflow_config_path):
        point = ("--speeds", "91.1,40,40,30,31.3", "--feeds", "0.078,0.325,0.325,0.5,0.388")
        errors = {
            run_cli(capsys, command, *extra, "--config", overflow_config_path)[2]
            for command, extra in (("optimize", ()), ("oracle", ()), ("compare", ()), ("evaluate", point))
        }
        assert errors == {"error: unit cost inf at the lowest speeds and feeds: the plan overflows\n"}


class TestPointThatOverflows:
    def test_scalar_overflow_exits_two_with_one_error_line(self, capsys):
        # The plan compiles; only the scalar pricing of this point overflows.
        code, out, err = run_cli(
            capsys,
            "evaluate",
            "--builtin-case",
            "--speeds",
            "1e200,40,40,30,31.3",
            "--feeds",
            "0.078,0.325,0.325,0.5,0.388",
        )
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: OverflowError while pricing the plan")


@pytest.fixture()
def overflow_above_corner_config_path(tmp_path):
    """The bundled document with tool wear that stays finite at the lowest
    corner (unit cost about 1.4e186) but overflows at faster speeds: life
    exponent 1/151 raises speed to the 150th power."""
    document = json.loads(builtin_document_bytes().decode("utf-8"))
    for tool in document["tools"]:
        tool["life_exponent"] = 1 / 151
    for operation in document["operations"]:
        operation["k3_override"] = 1.0
    path = tmp_path / "overflow_above_corner.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    return str(path)


class TestOverflowAboveTheCorner:
    @pytest.mark.parametrize(
        "argv",
        [
            ("optimize",),
            ("oracle", "--grid-resolution", "100"),
            ("compare", "--grid-resolution", "100"),
            ("evaluate", "--speeds", "91.1,40,40,30,31.3", "--feeds", "0.078,0.325,0.325,0.5,0.388"),
        ],
        ids=["optimize", "oracle", "compare", "evaluate"],
    )
    def test_exits_two_with_one_error_line_and_no_warning(
        self, capsys, overflow_above_corner_config_path, argv
    ):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, *argv, "--config", overflow_above_corner_config_path)
        assert [w.message for w in caught] == []
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ") and "overflows" in err


def edited_builtin_path(tmp_path, section, key, value):
    """The bundled document with key set to value in its section, or in the
    section's first entry where the section is a list."""
    document = json.loads(builtin_document_bytes().decode("utf-8"))
    entry = document[section]
    (entry[0] if isinstance(entry, list) else entry)[key] = value
    path = tmp_path / f"{section}_{key}.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    return str(path)


BUILTIN_POINT = ("--speeds", "91.1,40,40,30,31.3", "--feeds", "0.078,0.325,0.325,0.5,0.388")


class TestForceLimitBelowEveryFeed:
    # At 1e-300 N the closed-form feed cap, (c8 * force at f = 1)**-1.25,
    # underflows to 0.0, and no positive feed passes the force test.
    @pytest.mark.parametrize("command", ["optimize", "oracle", "compare"])
    def test_plan_is_infeasible(self, capsys, tmp_path, command):
        path = edited_builtin_path(tmp_path, "tools", "permitted_force", 1e-300)
        code, report = run_json(capsys, command, "--config", path)
        assert code == 3
        if command == "compare":
            assert report["rows"] == [] and report["evaluations"] == 0
        else:
            assert report["feasible"] is False

    def test_evaluate_reports_a_violated_finite_force_margin(self, capsys, tmp_path):
        path = edited_builtin_path(tmp_path, "tools", "permitted_force", 1e-300)
        code, report = run_json(capsys, "evaluate", "--config", path, *BUILTIN_POINT)
        assert code == 0
        force = report["margins"][0]["force"]
        assert math.isfinite(force) and force > 1.0
        assert report["margins"][0]["force_ok"] is False and report["fitness"] == 0.0

    def test_feed_cap_lies_below_every_feed(self, tmp_path):
        path = edited_builtin_path(tmp_path, "tools", "permitted_force", 1e-300)
        ctx = milling.compile_context(case_study.load_document_file(path).plan)
        assert ctx.feed_cap[0] == 0.0 and not ctx.corner.feasible[0]


class TestCoefficientFaultNamesTheOperation:
    @pytest.mark.parametrize(
        "section, key, value, reason",
        [
            ("operations", "travel", 1e308, "k1 must be > 0"),
            ("operations", "axial_depth", 1e308, "c5 must be > 0"),
            ("machine", "motor_power", 1e-320, "c5 must be > 0"),
            ("operations", "surface_finish_req", 1e-310, "c6 must be > 0 when present"),
            ("tools", "taylor_constant", 1e-300, "OverflowError while deriving its coefficients"),
        ],
        ids=["travel", "axial_depth", "motor_power", "surface_finish_req", "taylor_constant"],
    )
    @pytest.mark.parametrize("command", ["optimize", "oracle", "compare", "evaluate"])
    def test_exits_two_with_one_error_line(self, capsys, tmp_path, section, key, value, reason, command):
        path = edited_builtin_path(tmp_path, section, key, value)
        extra = BUILTIN_POINT if command == "evaluate" else ()
        code, out, err = run_cli(capsys, command, "--config", path, *extra)
        assert code == 2
        assert out == ""
        assert err == f"error: operation 1: {reason}\n"

    def test_direct_construction_keeps_its_message(self):
        with pytest.raises(PlanError, match=r"^k1 must be > 0$"):
            milling.DerivedCoefficients(k1=math.inf, k3=1.0, c5=1.0)


class TestUsageAndErrors:
    @pytest.mark.parametrize(
        "error, line",
        [
            (MemoryError(), "error: out of memory"),
            (MemoryError("Unable to allocate 373. GiB"), "error: Unable to allocate 373. GiB"),
        ],
        ids=["bare", "numpy"],
    )
    def test_out_of_memory_exits_two_with_one_error_line(self, capsys, monkeypatch, error, line):
        # A population too large to allocate; the stand-in raises before
        # anything is allocated.
        def exhausted(ctx, config):
            assert (config.mu, config.eta) == (5_000_000_000, 5_000_000_001)
            raise error

        monkeypatch.setattr(es, "initial_state", exhausted)
        code, out, err = run_cli(
            capsys, "optimize", "--builtin-case", "--mu", "5000000000", "--lambda", "5000000001"
        )
        assert (code, out, err) == (2, "", line + "\n")

    def test_missing_plan_source_exits_two(self, capsys):
        assert run_cli(capsys, "optimize")[0] == 2

    def test_config_and_builtin_are_exclusive(self, capsys, toy_config_path):
        code, _, _ = run_cli(
            capsys, "optimize", "--config", toy_config_path, "--builtin-case"
        )
        assert code == 2

    def test_missing_config_file_exits_two(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "optimize", "--config", str(tmp_path / "nope.json")
        )
        assert code == 2
        assert "error:" in err

    def test_malformed_config_exits_two(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{oops", encoding="utf-8")
        code, _, err = run_cli(capsys, "optimize", "--config", str(path))
        assert code == 2
        assert "not valid JSON" in err

    def test_document_nested_past_the_recursion_limit_exits_two(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
        code, out, err = run_cli(capsys, "oracle", "--config", str(path))
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: {path} is not valid JSON: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ("optimize", "--stall", "3"),
            ("evaluate", "--speeds", "91.1,40,40,30,31.3", "--feeds", "0.078,0.325,0.325,0.5,0.388"),
        ],
        ids=["optimize", "evaluate"],
    )
    @pytest.mark.parametrize("target", ["missing-directory", "directory"])
    def test_unwritable_output_exits_two_with_one_error_line(self, capsys, tmp_path, argv, target):
        path = tmp_path / "missing" / "report.json" if target == "missing-directory" else tmp_path
        code, out, err = run_cli(capsys, *argv, "--builtin-case", "--output", str(path))
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert str(path) in err and "Traceback" not in err

    def test_unknown_document_key_exits_two(self, capsys, tmp_path):
        document = dump_plan(two_op_plan())
        document["notes"] = "hi"
        path = tmp_path / "extra.json"
        path.write_text(json.dumps(document), encoding="utf-8")
        code, _, err = run_cli(capsys, "optimize", "--config", str(path))
        assert code == 2
        assert "unknown key 'notes'" in err

    @pytest.mark.parametrize(
        ("place", "key", "where"),
        [
            ((), "economics", "plan document"),
            (("economics",), "sale_price", "section 'economics'"),
            (("machine",), "efficiency", "section 'machine'"),
            (("tools", 0), "price", "tools[0]"),
            (("operations", 1), "travel", "operations[1]"),
            (("es",), "mu", "section 'es'"),
            (("oracle",), "resolution", "section 'oracle'"),
        ],
    )
    def test_duplicate_key_exits_two_naming_it(self, capsys, tmp_path, place, key, where):
        document = json.loads(builtin_document_bytes().decode("utf-8"))
        document.update(es={"mu": 10}, oracle={"resolution": 50})
        section = document
        for step in place:
            section = section[step]
        # the key again, after the first, with the same value
        section["DUPLICATE"] = section[key]
        path = tmp_path / "duplicate.json"
        path.write_text(json.dumps(document).replace('"DUPLICATE"', json.dumps(key)), encoding="utf-8")
        command = "oracle" if place == ("oracle",) else "optimize"
        code, out, err = run_cli(capsys, command, "--config", str(path))
        assert (code, out, err) == (2, "", f"error: duplicate key '{key}' in {where}\n")

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_sigma_init_exits_two(self, capsys, value):
        code, out, err = run_cli(capsys, "optimize", "--builtin-case", "--sigma-init", value)
        assert (code, out, err) == (2, "", "error: sigma_init must be finite and > 0\n")

    @pytest.mark.parametrize(
        "argv",
        [
            ("optimize", "--builtin-case", "--seed", "3", "--out", "json"),
            ("evaluate", "--builtin-case", "--speeds", "-5,40", "--feeds", "0.1,0.2"),
            ("oracle", "--builtin-case", "--grid-resolution", "bogus"),
            ("optimize", "--builtin-case", "--foo", "bar"),
            ("optimize", "--builtin-case", "extra"),
            ("optimize", "--builtin", "--sig", "0.3"),
            ("optimize", "--builtin-case", "--", "--seed", "2"),
            ("compare", "--config", "plan.json", "--builtin-case"),
            ("optimize", "-h"),
            ("optimize",),
            ("polish",),
            ("--help",),
            (),
        ],
    )
    def test_command_parser_reads_what_the_main_parser_would(self, capsys, argv):
        # main hands a call that starts with a command to that command's
        # parser alone; the namespace, or the exit and its output, are
        # those of the main parser
        parser, _ = cli._parser()

        def outcome(parse):
            try:
                result = vars(parse(list(argv)))
            except SystemExit as exc:
                result = exc.code
            return result, capsys.readouterr()

        assert outcome(cli._parse_args) == outcome(parser.parse_args)

    def test_help_exits_zero(self, capsys):
        assert run_cli(capsys, "--help")[0] == 0

    def test_unknown_command_exits_two(self, capsys):
        assert run_cli(capsys, "polish")[0] == 2

    def test_one_parser_serves_every_run_unchanged(self, capsys, monkeypatch):
        # A parse error and --help leave the shared parser as it was: each
        # run, the valid oracle call after them among them, prints what it
        # prints from a freshly built parser, byte for byte.
        runs = (
            ("oracle", "--builtin-case", "--grid-resolution", "bogus"),
            ("--help",),
            ("oracle", "--builtin-case", "--grid-resolution", "60", "--out", "json"),
        )
        fresh = []
        for argv in runs:
            cli._parser.cache_clear()
            fresh.append(run_cli(capsys, *argv))
        cli._parser.cache_clear()
        built = []
        build_parser = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(None) or build_parser())
        shared = [run_cli(capsys, *argv) for argv in runs]
        assert shared == fresh
        assert [code for code, _, _ in shared] == [2, 0, 0]
        assert all(out or err for _, out, err in shared)
        assert len(built) == 1
