import inspect
import json
import math
import os
import subprocess
import sys
import textwrap
from types import SimpleNamespace

import numpy as np
import pytest

from pboxes.choquet import KnotOscillation, cut_event, upper_expectation
from pboxes.cli import CSV_HEADER, load_scenario, main, run_verify
from pboxes.multivariate import (
    FRECHET,
    INDEPENDENT,
    RealLinePBox,
    arith_bound,
    combine,
)
from pboxes.pbox import PBox, PiecewiseLinearCdf, lower_prob_event, upper_prob_event
from pboxes.scenarios import (
    BUILTIN_NAMES,
    builtin_scenario,
    diagonal_rectangle_interior,
    named_cdf,
    result_rows,
    run_query,
)
from pboxes.preorder import (
    EMPTY_EVENT,
    FULL_EVENT,
    UNIT_INTERVAL,
    ZInterval,
    complement_z,
    normalize,
)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_rows(out):
    lines = out.strip().splitlines()
    assert lines[0] == CSV_HEADER
    rows = {}
    for line in lines[1:]:
        qid, kind, value, err, _elapsed = line.split(",")
        rows[qid] = (kind, float(value), float(err))
    return rows


class TestBuiltinScenarios:
    def test_all_builtins_run(self):
        for name in BUILTIN_NAMES:
            queries = builtin_scenario(name).queries
            rows = [row for q in queries for row in result_rows(q, run_query(q))]
            assert rows

    def test_ordering_rows(self, capsys):
        code, out, _ = run_cli(capsys, ["paper", "example_ordering"])
        assert code == 0
        rows = csv_rows(out)
        for mask in range(32):
            members = frozenset(i for i in range(5) if mask & (1 << i))
            tag = "".join(str(i) for i in sorted(members)) or "empty"
            assert rows[f"fine_{tag}"][1] == (1.0 if 2 in members else 0.0)
            assert rows[f"coarse_{tag}"][1] == (1.0 if {2, 3, 4} <= members else 0.0)

    def test_field_nonuniqueness_rows(self, capsys):
        code, out, _ = run_cli(capsys, ["paper", "example_field_nonunique"])
        assert code == 0
        rows = csv_rows(out)
        assert rows["natural_extension"][1] == 0.0
        envelope = min(rows["precise_lower_cdf"][1], rows["precise_upper_cdf"][1])
        assert envelope == pytest.approx(0.1)

    def test_frechet_62_rows(self, capsys):
        code, out, _ = run_cli(capsys, ["paper", "example_frechet_62"])
        rows = csv_rows(out)
        assert (rows["A"][1], rows["B"][1]) == (0.4, 0.7)
        assert rows["A_union_B"][1] == pytest.approx(0.7)
        assert rows["A_intersect_B"][1] == pytest.approx(0.1)

    def test_independent_63_rows(self, capsys):
        code, out, _ = run_cli(capsys, ["paper", "example_independent_63"])
        rows = csv_rows(out)
        assert rows["A_union_B"][1] == pytest.approx(0.58)
        assert rows["A_intersect_B"][1] == pytest.approx(0.2)
        assert rows["A_intersect_B_joint_pbox"][1] <= 0.2

    def test_diagonal_rows(self, capsys):
        code, out, _ = run_cli(capsys, ["paper", "example_diagonal_46"])
        rows = csv_rows(out)
        assert rows["corner_rectangle"][1] == pytest.approx(0.25)
        assert rows["inner_rectangle"][1] == 0.0
        assert rows["upper_rectangle"][1] == pytest.approx(0.25)
        assert rows["whole_square"][1] == 1.0


def _ordering_rows():
    rows = []
    for mask in range(32):
        members = {i for i in range(5) if mask & (1 << i)}
        tag = "".join(str(i) for i in sorted(members)) or "empty"
        rows.append(f"coarse_{tag},event_lower,{int({2, 3, 4} <= members)},0")
        rows.append(f"fine_{tag},event_lower,{int(2 in members)},0")
    return rows


# the `paper` output of the finite builtins, elapsed_ms dropped
FINITE_BUILTIN_ROWS = {
    "example_ordering": _ordering_rows(),
    "example_field_nonunique": ["natural_extension,event_lower,0,0",
                                "precise_lower_cdf,event_lower,0.2,0",
                                "precise_upper_cdf,event_lower,0.1,0"],
    "example_frechet_62": ["A,event_lower,0.4,0",
                           "B,event_lower,0.7,0",
                           "A_union_B,event_lower,0.7,0",
                           "A_intersect_B,event_lower,0.1,0"],
    "example_independent_63": ["A_union_B,event_lower,0.58,0",
                               "A_intersect_B,event_lower,0.2,0",
                               "A_intersect_B_joint_pbox,event_lower,0,0"],
    "example_diagonal_46": ["corner_rectangle,event_lower,0.25,0",
                            "inner_rectangle,event_lower,0,0",
                            "upper_rectangle,event_lower,0.25,0",
                            "whole_square,event_lower,1,0"],
}


@pytest.mark.parametrize("name", sorted(FINITE_BUILTIN_ROWS))
def test_finite_builtin_output_pinned(capsys, name):
    code, out, _ = run_cli(capsys, ["paper", name])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == CSV_HEADER
    assert [line.rsplit(",", 1)[0] for line in lines[1:]] == FINITE_BUILTIN_ROWS[name]


class TestDiagonalInterior:
    def test_whole_square(self):
        assert diagonal_rectangle_interior(0, 1, 0, 1) == FULL_EVENT

    def test_generic_rectangle_has_empty_interior(self):
        assert diagonal_rectangle_interior(0.2, 0.9, 0.0, 1.0) == EMPTY_EVENT

    def test_corner_rectangle(self):
        event = diagonal_rectangle_interior(0.0, 0.4, 0.0, 0.8)
        assert event.intervals[0].hi == pytest.approx(0.2)


UNIFORM_KNOTS = {"lower": [[0.0, 0.0], [1.0, 1.0]]}

SCENARIO_DOC = {
    "name": "fixture",
    "space": {"type": "finite", "classes": ["a", "b", "c"]},
    "pbox": {"step": {"lower": [0.2, 0.5, 1.0], "upper": [0.4, 0.9, 1.0]}},
    "queries": [
        {"id": "bottom", "kind": "event_lower", "classes": [0]},
        # upper probability of {a, b}: the payload is the interior of the
        # complement, here {c}
        {"id": "top_upper", "kind": "event_upper", "classes": [2]},
        {"id": "sum", "kind": "arith_add",
         "x1": {"lower": [[0.0, 0.0], [1.0, 1.0]]},
         "x2": {"lower": [[0.0, 0.0], [1.0, 1.0]]},
         "y_grid": [0.5, 1.5]},
    ],
    "config": {"abs_tol": 1e-5},
}

CONTINUUM_DOC = {
    "pbox": {"analytic": {"lower": "square", "upper": "one"}},
    "queries": [{"id": "e", "kind": "event_lower", "intervals": [[0.2, 0.5, False, False]]}],
}


class TestInfer:
    def test_finite_scenario(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(SCENARIO_DOC))
        code, out, _ = run_cli(capsys, ["infer", str(path)])
        assert code == 0
        rows = csv_rows(out)
        assert rows["bottom"] == ("event_lower", 0.2, 0.0)
        # upper of {a, b} via complement {c}: 1 - max(0, 1 - 0.9)
        assert rows["top_upper"][1] == pytest.approx(0.9)
        assert rows["sum_0"][1] == 0.0
        assert rows["sum_1"][1] == pytest.approx(0.5)

    def test_continuum_scenario_with_oscillation(self, tmp_path, capsys):
        doc = {
            "space": {"type": "continuum"},
            "pbox": {"analytic": {"lower": "square", "upper": "one"}},
            "queries": [
                {"id": "low", "kind": "expectation_lower",
                 "oscillation": {"builtin": "oscillator_lower"}},
                {"id": "interval", "kind": "event_lower",
                 "intervals": [[0.0, 0.5, False, False]]},
            ],
        }
        path = tmp_path / "osc.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, ["infer", str(path), "--tol", "1e-3"])
        assert code == 0
        rows = csv_rows(out)
        assert rows["low"][1] == pytest.approx(0.5839, abs=2e-3)
        assert rows["interval"][1] == pytest.approx(0.25)

    def test_determinism_excluding_elapsed(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(SCENARIO_DOC))
        _, first, _ = run_cli(capsys, ["infer", str(path)])
        _, second, _ = run_cli(capsys, ["infer", str(path)])
        strip = lambda out: [line.rsplit(",", 1)[0] for line in out.splitlines()]
        assert strip(first) == strip(second)

    def test_parse_error_exit_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{ not json")
        code, _, err = run_cli(capsys, ["infer", str(path)])
        assert code == 2
        assert "line" in err and "column" in err

    def test_missing_file_exit_2(self, capsys):
        code, _, err = run_cli(capsys, ["infer", "/nonexistent/file.json"])
        assert code == 2

    def test_validation_error_exit_3(self, tmp_path, capsys):
        doc = dict(SCENARIO_DOC)
        doc["pbox"] = {"step": {"lower": [0.5, 1.0, 1.0], "upper": [0.4, 0.9, 1.0]}}
        path = tmp_path / "invalid.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, ["infer", str(path)])
        assert code == 3
        assert "validation error" in err

    def test_unknown_query_kind_exit_3(self, tmp_path, capsys):
        doc = dict(SCENARIO_DOC)
        doc["queries"] = [{"id": "x", "kind": "sorcery"}]
        path = tmp_path / "kind.json"
        path.write_text(json.dumps(doc))
        code, _, _ = run_cli(capsys, ["infer", str(path)])
        assert code == 3

    def test_missing_target_exit_2(self, tmp_path, capsys):
        doc = {"space": {"type": "continuum"},
               "pbox": {"analytic": {"lower": "square", "upper": "one"}},
               "queries": [{"id": "t", "kind": "threshold",
                            "oscillation": {"builtin": "dike_upper"}}]}
        path = tmp_path / "target.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, ["infer", str(path)])
        assert code == 2
        assert "queries[0].target" in err

    def test_missing_event_payload_exit_2(self, tmp_path, capsys):
        doc = dict(SCENARIO_DOC, queries=[{"id": "e", "kind": "event_lower"}])
        path = tmp_path / "payload.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, ["infer", str(path)])
        assert code == 2
        assert "queries[0]" in err and "'classes' or 'intervals'" in err and out == ""

    @pytest.mark.parametrize("doc, code", [
        (dict(SCENARIO_DOC, queries=[{"id": "e", "kind": "event_lower", "classes": [1.7]}]), 3),
        (dict(SCENARIO_DOC, queries=[{"id": "e", "kind": "event_lower", "classes": ["1"]}]), 2),
        (dict(SCENARIO_DOC, queries=[{"id": "e", "kind": "event_lower", "classes": [True]}]), 2),
        (dict(CONTINUUM_DOC, queries=[{"id": "e", "kind": "event_lower",
                                       "intervals": [[0.2, 0.5, "false", False]]}]), 2),
        (dict(CONTINUUM_DOC, queries=[{"id": "e", "kind": "event_lower",
                                       "intervals": [["0.2", 0.5, False, False]]}]), 2),
        (dict(CONTINUUM_DOC, pbox={"linear": {"lower": [["0", 0], [1, 1]],
                                              "upper": [[0, 0], [1, 1]]}}), 2),
        (dict(SCENARIO_DOC, space={"type": "finite", "classes": ["a", "b"]},
              pbox={"step": {"lower": [False, True], "upper": [False, True]}},
              queries=[{"id": "e", "kind": "event_lower", "classes": [0]}]), 2),
        ({"queries": [{"id": "a", "kind": "arith_op", "y": 1.0,
                       "x1": {"point": "0.5"}, "x2": {"point": 0.5}}]}, 2),
        (dict(CONTINUUM_DOC, queries=[{"id": "x", "kind": "expectation_lower",
                                       "oscillation": {"knots": [["0", 0], [1, "1"]]}}]), 2),
    ], ids=["float_class", "string_class", "boolean_class", "string_openness",
            "string_endpoint", "string_cdf_knot", "boolean_step_values",
            "string_point", "string_oscillation_knot"])
    def test_mistyped_payload_prints_nothing(self, tmp_path, capsys, doc, code):
        # a wrong JSON type is a parse error; a number that is no valid class
        # index, coordinate or finite value is a validation error
        path = tmp_path / "mistyped.json"
        path.write_text(json.dumps(doc))
        got, out, err = run_cli(capsys, ["infer", str(path)])
        assert got == code
        assert out == "" and err.startswith("parse error" if code == 2 else "validation error")

    def test_string_abs_tol_exit_2(self, tmp_path, capsys):
        doc = dict(SCENARIO_DOC, config={"abs_tol": "1e-3"})
        path = tmp_path / "tol.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, ["infer", str(path)])
        assert code == 2
        assert "config.abs_tol" in err

    def test_top_level_array_exit_2(self, tmp_path, capsys):
        path = tmp_path / "array.json"
        path.write_text(json.dumps([SCENARIO_DOC]))
        code, _, err = run_cli(capsys, ["infer", str(path)])
        assert code == 2
        assert "document" in err

    def test_nan_knot_exit_3(self, tmp_path, capsys):
        doc = {"space": {"type": "continuum"},
               "pbox": {"analytic": {"lower": "square", "upper": "one"}},
               "queries": [{"id": "e", "kind": "expectation_lower",
                            "oscillation": {"knots": [[0.0, 0.0], [0.5, float("nan")],
                                                      [1.0, 0.0]]}}]}
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(doc))
        assert "NaN" in path.read_text()
        code, out, err = run_cli(capsys, ["infer", str(path)])
        assert code == 3
        assert "validation error" in err and out == ""

    @pytest.mark.parametrize("key, value", [("cut_grid", 4096), ("tail_tol", 1e-8),
                                            ("bisect_tol", 1e-12), ("max_refinements", 12),
                                            ("abs_tl", 1e-9)],
                             ids=["cut_grid", "tail_tol", "bisect_tol", "max_refinements",
                                  "abs_tl"])
    def test_unknown_config_setting_exit_2(self, tmp_path, capsys, key, value):
        # retired settings and a misspelt one are refused, not ignored
        doc = dict(SCENARIO_DOC, config={key: value})
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, ["infer", str(path)])
        assert code == 2
        assert out == ""
        assert f"config.{key}: unknown setting" in err

    def test_nan_arithmetic_point_exit_3(self, tmp_path, capsys):
        doc = {"queries": [{"id": "a", "kind": "arith_op", "op": "add",
                            "x1": {"lower": [[0.0, 0.0], [1.0, 1.0]]},
                            "x2": {"lower": [[0.0, 0.0], [1.0, 1.0]]},
                            "y": float("nan")}]}
        path = tmp_path / "nan_y.json"
        path.write_text(json.dumps(doc))
        assert "NaN" in path.read_text()
        code, _, err = run_cli(capsys, ["infer", str(path)])
        assert code == 3
        assert "validation error" in err

    @pytest.mark.parametrize("query", [
        {"kind": "arith_op", "x1": UNIFORM_KNOTS, "x2": UNIFORM_KNOTS, "y": 10**400},
        {"kind": "arith_op", "x1": UNIFORM_KNOTS, "x2": UNIFORM_KNOTS,
         "y_grid": [0.5, 10**400]},
        {"kind": "threshold", "target": 10**400, "oscillation": {"builtin": "dike_upper"}},
        {"kind": "event_lower", "intervals": [[0.0, 10**400, False, False]]},
    ], ids=["y", "y_grid", "target", "interval_end"])
    def test_integer_beyond_float_range_exit_3(self, tmp_path, capsys, query):
        # JSON keeps a long integer literal exact, and float() of it overflows
        doc = {"pbox": {"analytic": {"lower": "square", "upper": "uniform"}},
               "queries": [query]}
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        assert "1" + "0" * 400 in path.read_text()
        code, out, err = run_cli(capsys, ["infer", str(path)])
        assert code == 3 and out == ""
        assert err.startswith("validation error: ")

    def test_infinite_interval_end_names_entry(self, tmp_path, capsys):
        path = tmp_path / "inf_interval.json"
        path.write_text('{"pbox": {"analytic": {"lower": "square", "upper": "uniform"}}, '
                        '"queries": [{"kind": "event_lower", '
                        '"intervals": [[0.0, 0.5, false, false], [0.0, 1e999, false, false]]}]}')
        code, out, err = run_cli(capsys, ["infer", str(path)])
        assert code == 3 and out == ""
        assert err.startswith(
            "validation error: queries[0].intervals[1]: expected a finite number, got inf")

    def test_nan_arithmetic_grid_point_names_entry(self, tmp_path, capsys):
        doc = {"queries": [{"id": "a", "kind": "arith_op", "op": "add",
                            "x1": {"lower": [[0.0, 0.0], [1.0, 1.0]]},
                            "x2": {"lower": [[0.0, 0.0], [1.0, 1.0]]},
                            "y_grid": [0.5, float("nan")]}]}
        path = tmp_path / "nan_y_grid.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, ["infer", str(path)])
        assert code == 3 and out == ""
        assert err.startswith(
            "validation error: queries[0].y_grid[1]: expected a finite number, got nan")

    @pytest.mark.parametrize("field, value, points", [
        pytest.param("side", "lowr", {"y": 0.5}, id="side-lowr"),
        pytest.param("op", "modulo", {"y": 0.5}, id="op-modulo"),
        # a finite grid: the error is the query's own, not a grid point's
        pytest.param("side", "lowr", {"y_grid": [0.5, 1.0]}, id="side-lowr-y_grid"),
        pytest.param("op", "modulo", {"y_grid": [0.5, 1.0]}, id="op-modulo-y_grid"),
    ])
    def test_bad_arithmetic_field_exit_3(self, tmp_path, capsys, field, value, points):
        doc = {"queries": [{"id": "ok", "kind": "event_lower", "intervals": []},
                           dict({"id": "a", "kind": "arith_op",
                                 "x1": {"lower": [[0.0, 0.0], [1.0, 1.0]]},
                                 "x2": {"lower": [[0.0, 0.0], [1.0, 1.0]]},
                                 **points}, **{field: value})],
               "pbox": {"analytic": {"lower": "uniform", "upper": "uniform"}}}
        path = tmp_path / "bad_field.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, ["infer", str(path)])
        assert code == 3
        assert f"queries[1].{field}" in err and out == ""

    def test_arith_add_with_another_op_exit_3(self, tmp_path, capsys):
        # an arith_add query adds: its op is read, and one other than add is refused
        doc = {"queries": [{"id": "a", "kind": "arith_add", "op": "multiply",
                            "x1": {"lower": [[1.0, 0.0], [2.0, 1.0]]},
                            "x2": {"lower": [[1.0, 0.0], [2.0, 1.0]]}, "y": 2.25}]}
        path = tmp_path / "add_multiply.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, ["infer", str(path)])
        assert code == 3 and out == ""
        assert err.startswith("validation error: queries[0].op: expected 'add' in an "
                              "arith_add query, got 'multiply'")

    def test_oversized_y_grid_exit_3(self, tmp_path, capsys, monkeypatch):
        import pboxes.choquet as choquet_mod

        monkeypatch.setattr(choquet_mod, "_MAX_GRID", 4)
        doc = {"queries": [{"id": "a", "kind": "arith_op", "side": "upper",
                            "x1": {"lower": [[0.0, 0.0], [1.0, 1.0]]},
                            "x2": {"lower": [[0.0, 0.0], [1.0, 1.0]]},
                            "y_grid": [0.0, 0.5, 1.0, 1.5, 2.0]}]}
        path = tmp_path / "long_grid.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, ["infer", str(path)])
        assert code == 3
        assert "queries[0].y_grid" in err and out == ""
        doc["queries"][0]["y_grid"].pop()
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, ["infer", str(path)])
        assert code == 0
        assert len(csv_rows(out)) == 4

    @pytest.mark.parametrize("query", [
        {"id": "e", "kind": "event_lower", "intervals": [[0.0, 0.5, False, False]]},
        {"id": "x", "kind": "expectation_lower", "oscillation": {"builtin": "dike_lower"}},
        {"id": "t", "kind": "threshold", "target": 0.5,
         "oscillation": {"builtin": "dike_upper"}},
    ])
    def test_missing_pbox_exit_2(self, tmp_path, capsys, query):
        doc = {"queries": [{"id": "a", "kind": "arith_add", "y": 0.5,
                            "x1": {"lower": [[0.0, 0.0], [1.0, 1.0]]},
                            "x2": {"lower": [[0.0, 0.0], [1.0, 1.0]]}}, query]}
        path = tmp_path / "no_pbox.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, ["infer", str(path)])
        assert code == 2
        assert "pbox: missing" in err and out == ""

    def test_class_index_beyond_space_exit_3(self, tmp_path, capsys):
        # the index is checked when the query is built, before the first row
        doc = dict(SCENARIO_DOC, queries=[SCENARIO_DOC["queries"][0],
                                          {"kind": "event_lower", "classes": [5]}])
        path = tmp_path / "index.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, ["infer", str(path)])
        assert code == 3
        assert err.startswith("validation error: queries[1].event: class indices") and out == ""

    @pytest.mark.parametrize("space, second, message", [
        ("finite", {"kind": "threshold", "target": 0.5, "oscillation": {"builtin": "dike_upper"}},
         "queries[1].pbox: threshold queries need a continuum p-box"),
        ("finite", {"kind": "expectation_upper", "oscillation": {"knots": [[0, 0], [1, 1]]}},
         "queries[1].pbox: expectation_upper queries need a continuum p-box"),
        ("finite", {"kind": "event_lower", "intervals": [[0.0, 0.5, False, False]]},
         "queries[1].event: z-events require a continuum p-box"),
        ("continuum", {"kind": "event_lower", "classes": [0]},
         "queries[1].event: class subsets require a finite-space p-box"),
    ])
    def test_query_model_mismatch_exit_3_before_any_row(self, tmp_path, capsys, space,
                                                        second, message):
        # a query that does not suit its p-box's space is rejected when it is built
        if space == "finite":
            doc = dict(SCENARIO_DOC, queries=[SCENARIO_DOC["queries"][0], second])
        else:
            doc = {"space": {"type": "continuum"},
                   "pbox": {"analytic": {"lower": "uniform", "upper": "uniform"}},
                   "queries": [{"id": "i", "kind": "event_lower",
                                "intervals": [[0.0, 0.5, False, False]]}, second]}
        path = tmp_path / "mismatch.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, ["infer", str(path)])
        assert code == 3
        assert err.startswith(f"validation error: {message}") and out == ""

    @pytest.mark.parametrize("second, message", [
        ({"kind": "threshold", "target": 1.5, "oscillation": {"builtin": "dike_upper"}},
         "queries[1].target: threshold target must lie in (0, 1]"),
        ({"kind": "threshold", "target": float("nan"), "oscillation": {"builtin": "dike_upper"}},
         "queries[1].target: threshold target must lie in (0, 1]"),
        ({"kind": "arith_op", "x1": {"lower": [[0.0, 0.0], [1.0, 1.0]]},
          "x2": {"lower": [[0.0, 0.0], [1.0, 1.0]]}, "y": float("nan")},
         "queries[1].y: expected a finite number"),
        ({"kind": "arith_op", "op": "multiply", "x1": {"lower": [[1.0, 0.0], [2.0, 1.0]]},
          "x2": {"lower": [[-1.0, 0.0], [1.0, 1.0]]}, "y": 1.0},
         "queries[1].x2: multiplication and division need strictly positive supports"),
        ({"kind": "expectation_lower", "oscillation": {"builtin": "dike_upper"}},
         "queries[1].oscillation: a lower oscillation of a bounded gamble is bounded"),
    ], ids=["target_above_one", "nan_target", "nan_y", "multiply_nonpositive",
            "unbounded_lower_oscillation"])
    def test_bad_query_number_exit_3_before_any_row(self, tmp_path, capsys, second, message):
        # the engine's own checks run when the query is built, before the header
        doc = {"pbox": {"analytic": {"lower": "square", "upper": "uniform"}},
               "queries": [{"id": "i", "kind": "event_lower",
                            "intervals": [[0.0, 0.5, False, False]]}, second]}
        path = tmp_path / "bad_number.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, ["infer", str(path)])
        assert code == 3
        assert err.startswith(f"validation error: {message}") and out == ""

    def test_unconverged_query_on_stderr(self, tmp_path, capsys):
        # one stderr line per unconverged query; the CSV and exit code are as
        # before.  A black box takes Darboux rounds, and on the oscillator they
        # stop on the grid cap far above an abs_tol of 1e-9
        doc = dict(CONTINUUM_DOC, queries=[
            {"id": "black_box", "kind": "expectation_lower",
             "oscillation": {"builtin": "oscillator_lower"}},
            {"id": "edge", "kind": "event_lower", "intervals": [[0.0, 0.5, False, False]]}])
        path = tmp_path / "unconverged.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, ["infer", str(path), "--tol", "1e-9"])
        assert code == 0
        bound = csv_rows(out)["black_box"][2]
        assert bound > 1e-9
        assert err == f"not converged: black_box error bound {bound:.12g} above abs_tol 1e-09\n"
        code, _, err = run_cli(capsys, ["infer", str(path)])
        assert code == 0 and err == ""

    def test_unconverged_threshold_on_stderr(self, tmp_path, capsys):
        # far in the dike's tail the levels whose cut probability lies within
        # its rounding of the target span 0.58: a row, its half-width and one
        # stderr line, as for an expectation
        doc = {"pbox": {"builtin": "dike"},
               "queries": [{"id": "far", "kind": "threshold", "target": 1e-15,
                            "oscillation": {"builtin": "dike_upper"}}]}
        path = tmp_path / "far.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, ["infer", str(path)])
        assert code == 0
        _, value, bound = csv_rows(out)["far"]
        assert math.isfinite(value) and 1e-4 < bound < 0.5
        assert err == f"not converged: far error bound {bound:.12g} above abs_tol 0.0001\n"
        code, out, err = run_cli(capsys, ["infer", str(path), "--tol", "1"])
        assert code == 0 and err == "" and csv_rows(out)["far"][1:] == (value, bound)

    def test_knot_query_on_a_polynomial_pbox_takes_no_rounds(self, tmp_path, capsys):
        # its exact pieces need no refinement, and converge at the tightest tolerance
        doc = dict(CONTINUUM_DOC, queries=[
            {"id": "tent", "kind": "expectation_lower",
             "oscillation": {"knots": [[0.0, 0.0], [0.3, 1.0], [0.6, 0.2], [1.0, 0.8]]}}])
        path = tmp_path / "exact.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, ["infer", str(path), "--tol", "1e-12"])
        assert code == 0 and err == ""
        assert csv_rows(out)["tent"][2] < 0.5e-12

    def test_finite_threshold_exit_3(self, tmp_path, capsys):
        doc = dict(SCENARIO_DOC, queries=[{"id": "t", "kind": "threshold", "target": 0.5,
                                           "oscillation": {"builtin": "dike_upper"}}])
        path = tmp_path / "finite_threshold.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, ["infer", str(path)])
        assert code == 3
        assert "use lower_expectation_finite on finite spaces" in err

    def test_empty_query_list_header_only(self, tmp_path, capsys):
        doc = {"space": {"type": "continuum"},
               "pbox": {"analytic": {"lower": "uniform", "upper": "uniform"}},
               "queries": []}
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, ["infer", str(path)])
        assert code == 0
        assert out.strip() == CSV_HEADER

    def test_empty_y_grid_exit_3(self, tmp_path, capsys):
        # an empty grid would otherwise give no row for a listed query
        doc = {"queries": [{"id": "a", "kind": "arith_op", "x1": UNIFORM_KNOTS,
                            "x2": UNIFORM_KNOTS, "y_grid": []}]}
        path = tmp_path / "empty_grid.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, ["infer", str(path)])
        assert code == 3 and out == ""
        assert err.startswith("validation error: queries[0].y_grid: expected at least one point")

    @pytest.mark.parametrize("doc, code, message", [
        ({"pbox": {"linear": {"lower": [[0.0, 0.0], [0.5, 0.2], [0.5, 0.3], [1.0, 1.0]],
                              "upper": UNIFORM_KNOTS["lower"]}}},
         3, "validation error: pbox.linear.lower: knot coordinates must be strictly increasing"),
        ({"pbox": {"marginals": [
            {"lower": {"linear": [[0.0, 0.0], [0.0, 0.5], [1.0, 1.0]]},
             "upper": {"analytic": "one"}},
            {"lower": {"analytic": "uniform"}, "upper": {"analytic": "one"}}]}},
         3, "validation error: pbox.marginals[0].lower.linear: knot coordinates must be"),
        ({"queries": [{"kind": "expectation_lower",
                       "oscillation": {"knots": [[0.5, 0.0], [0.2, 1.0], [1.0, 0.0]]}}]},
         3, "validation error: queries[0].oscillation.knots: knot coordinates must be "
            "strictly increasing"),
        ({"queries": [{"kind": "expectation_lower",
                       "oscillation": {"knots": [[0.0, 0.0, 1], [1.0, 0.0]]}}]},
         2, "parse error: queries[0].oscillation.knots[0]: expected a [z, value] pair"),
        ({"queries": [{"kind": "expectation_lower", "oscillation": {"knots": {}}}]},
         2, "parse error: queries[0].oscillation.knots: expected an array, got an object"),
        ({"queries": [{"kind": "arith_op", "y": 0.5, "x2": UNIFORM_KNOTS,
                       "x1": {"lower": [[0.0, 0.0], [0.0, 0.5], [1.0, 1.0]]}}]},
         3, "validation error: queries[0].x1.lower: knot coordinates must be strictly increasing"),
        ({"queries": [{"kind": "arith_op", "y": 0.5, "x1": UNIFORM_KNOTS,
                       "x2": {"lower": [[0.0, 0.0], [1.0]]}}]},
         2, "parse error: queries[0].x2.lower[1]: expected a [z, value] pair"),
    ], ids=["linear_pbox", "marginal", "oscillation_order", "oscillation_triple",
            "oscillation_object", "operand_order", "operand_single"])
    def test_spec_error_names_field(self, tmp_path, capsys, doc, code, message):
        doc = dict({"pbox": {"analytic": {"lower": "square", "upper": "uniform"}},
                    "queries": []}, **doc)
        path = tmp_path / "field.json"
        path.write_text(json.dumps(doc))
        got, out, err = run_cli(capsys, ["infer", str(path)])
        assert got == code and out == ""
        assert err.startswith(message)

    @pytest.mark.parametrize("query, code, message", [
        # one CSV row must stay one line of five fields
        ({"id": "a,b\n\"c"}, 3, "validation error: queries[0].id: expected no ','"),
        ({"id": "a\rb"}, 3, "validation error: queries[0].id: expected no ','"),
        ({"id": {"x": 1}}, 2, "parse error: queries[0].id: expected a string, got an object"),
        ({"id": 5}, 2, "parse error: queries[0].id: expected a string, got a number"),
    ], ids=["comma_quote_newline", "carriage_return", "object", "number"])
    def test_query_id_is_a_plain_csv_field(self, tmp_path, capsys, query, code, message):
        doc = dict(CONTINUUM_DOC, queries=[dict(CONTINUUM_DOC["queries"][0], **query)])
        path = tmp_path / "id.json"
        path.write_text(json.dumps(doc))
        got, out, err = run_cli(capsys, ["infer", str(path)])
        assert got == code and out == ""
        assert err.startswith(message)

    @pytest.mark.parametrize("doc, code, message", [
        ({"queries": [{"kind": "arith_op", "y": 0.5, "x2": UNIFORM_KNOTS,
                       "x1": {"lower": UNIFORM_KNOTS["lower"], "upper": []}}]},
         3, "validation error: queries[0].x1.upper: a piecewise-linear CDF needs at least"),
        ({"queries": [{"kind": "arith_op", "y": 0.5, "x2": UNIFORM_KNOTS,
                       "x1": {"lower": UNIFORM_KNOTS["lower"], "upper": None}}]},
         2, "parse error: queries[0].x1.upper: expected an array, got null"),
        ({"pbox": None}, 2, "parse error: pbox: expected an object, got null"),
        ({"pbox": {"linear": {"lower": [[0.0, 0.0], [0.5, 0.7], [1.0, 1.0]],
                              "upper": [[0.0, 0.0], [0.5, 0.5], [1.0, 1.0]]}}},
         3, "validation error: pbox.linear: lower CDF exceeds upper CDF"),
        ({"pbox": {"analytic": {"lower": "square", "upper": "uniform"}, "builtin": "dike"}},
         2, "parse error: pbox: expected exactly one of 'builtin' or 'step'"),
        # the knot values' difference overflows, which numpy would report with a warning
        ({"queries": [{"kind": "expectation_upper",
                       "oscillation": {"knots": [[0, -1.7e308], [1, 1.7e308]]}}]},
         3, "validation error: queries[0].oscillation.knots: knot values differ by more "
            "than the largest float"),
        # a span of inf would make every slope of the CDF 0
        ({"queries": [{"kind": "arith_op", "y": 0.5, "x2": UNIFORM_KNOTS,
                       "x1": {"lower": [[-1.7e308, 0.0], [1.7e308, 1.0]]}}]},
         3, "validation error: queries[0].x1.lower: knot coordinates differ by more than "
            "the largest float"),
    ], ids=["operand_empty_upper", "operand_null_upper", "null_pbox", "crossing_linear_pbox",
            "two_pbox_variants", "overflowing_oscillation_knots", "overflowing_operand_knots"])
    def test_refused_document_names_field(self, tmp_path, capsys, doc, code, message):
        doc = dict({"pbox": {"analytic": {"lower": "square", "upper": "uniform"}},
                    "queries": []}, **doc)
        path = tmp_path / "field.json"
        path.write_text(json.dumps(doc))
        got, out, err = run_cli(capsys, ["infer", str(path)])
        assert got == code and out == ""
        assert err.startswith(message) and err.count("\n") == 1

    def test_deeply_nested_document_exit_2(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        code, out, err = run_cli(capsys, ["infer", str(path)])
        assert code == 2 and out == ""
        assert err == "parse error: document: nested too deeply\n"

    def test_integer_beyond_the_digit_limit_exit_2(self, tmp_path, capsys):
        # Python converts at most 4,300 digits to an int by default
        path = tmp_path / "long.json"
        path.write_text('{"pbox": {"analytic": {"lower": "square", "upper": "uniform"}}, '
                        '"queries": [{"kind": "threshold", "target": 1' + "0" * 5000
                        + ', "oscillation": {"builtin": "dike_upper"}}]}')
        code, out, err = run_cli(capsys, ["infer", str(path)])
        assert code == 2 and out == ""
        assert err == "parse error: document: an integer literal of 5001 digits is too long\n"


# a linear p-box and arithmetic operands, whose checks merge the knots of two
# CDFs, with a knots oscillation as a scenario file would have
COLD_DOC = {
    "pbox": {"linear": {"lower": [[0.0, 0.0], [0.5, 0.3], [1.0, 1.0]],
                        "upper": [[0.0, 0.0], [0.5, 0.6], [1.0, 1.0]]}},
    "queries": [{"id": "tent", "kind": "expectation_lower",
                 "oscillation": {"knots": [[0.0, 0.0], [0.5, 1.0], [1.0, 0.2]]}},
                {"id": "sum", "kind": "arith_op", "x1": UNIFORM_KNOTS,
                 "x2": {"lower": [[0.0, 0.0], [0.5, 0.5], [2.0, 1.0]]},
                 "y_grid": [0.5, 1.5]}],
    "config": {"abs_tol": 1e-3},
}

_MODULES_AFTER_MAIN = """
import contextlib, io, json, sys
from pboxes.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps([code, sorted(sys.modules)]))
"""


def _pboxes_env() -> dict:
    """The environment of a child interpreter that imports this pboxes."""
    import pboxes

    src = os.path.dirname(os.path.dirname(os.path.abspath(pboxes.__file__)))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def _modules_after_main(tmp_path, argv) -> set:
    """The modules a fresh interpreter holds after ``main(argv)`` returned 0,
    ``DOC`` in ``argv`` standing for a file of :data:`COLD_DOC`."""
    path = tmp_path / "cold.json"
    path.write_text(json.dumps(COLD_DOC))
    argv = [str(path) if arg == "DOC" else arg for arg in argv]
    out = subprocess.run([sys.executable, "-c", _MODULES_AFTER_MAIN, *argv],
                         capture_output=True, text=True, env=_pboxes_env(), check=True).stdout
    code, modules = json.loads(out)
    assert code == 0
    return set(modules)


COMMANDS = pytest.mark.parametrize(
    "argv", [["infer", "DOC"], ["table", "DOC"], ["paper", "dike"], ["verify", "--trials", "2"]],
    ids=["infer", "table", "paper", "verify"])


@COMMANDS
def test_commands_leave_numpy_ma_and_scipy_unloaded(tmp_path, argv):
    # np.unique and np.union1d import numpy.ma on their first call, which
    # costs a cold process more than the whole of a small query
    modules = _modules_after_main(tmp_path, argv)
    assert sorted(name for name in modules if name.partition(".")[0] == "scipy"
                  or (name + ".").startswith("numpy.ma.")) == []


@COMMANDS
def test_only_verify_loads_the_oracle(tmp_path, argv):
    # the oracle, fractions and decimal take about 13 ms of a cold import
    loaded = {"pboxes.oracle", "fractions"} & _modules_after_main(tmp_path, argv)
    assert loaded == ({"pboxes.oracle", "fractions"} if argv[0] == "verify" else set())


def _without_elapsed(out: str) -> str:
    """CSV output with its wall-time column dropped; other output as it is."""
    lines = out.splitlines()
    if lines and lines[0] == CSV_HEADER:
        lines = [line.rsplit(",", 1)[0] for line in lines]
    return "\n".join(lines)


def test_repeated_calls_match_fresh_processes(tmp_path, capsys):
    # one parser serves every call of a process: a flag given to one call
    # must not reach the next, and a refused argv must leave it as it was
    path = tmp_path / "cold.json"
    path.write_text(json.dumps(COLD_DOC))
    argvs = [["infer", str(path), "--tol", "0.05"], ["infer", str(path)],
             ["infer", str(path), "--tol"], ["paper", "dike"]]
    codes = []
    for argv in argvs:
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses an argv with exit 2
            code = exc.code
        codes.append(code)
        out, err = capsys.readouterr()
        fresh = subprocess.run(
            [sys.executable, "-c", "import sys; from pboxes.cli import main; "
                                   "sys.exit(main(sys.argv[1:]))", *argv],
            capture_output=True, text=True, env=_pboxes_env())
        assert (code, _without_elapsed(out), err) == (
            fresh.returncode, _without_elapsed(fresh.stdout), fresh.stderr), argv
    assert codes == [0, 0, 2, 0]


TWO_MARGINALS = [
    {"lower": {"analytic": "uniform"}, "upper": {"analytic": "one"}},
    {"lower": {"linear": [[0.0, 0.0], [0.5, 0.2], [1.0, 1.0]]},
     "upper": {"linear": [[0.0, 0.3], [0.6, 0.9], [1.0, 1.0]]}},
]
MODEL_QUERIES = [
    {"id": "event", "kind": "event_lower",
     "intervals": [[0.0, 0.6, False, False], [0.7, 1.0, True, False]]},
    {"id": "upper", "kind": "expectation_upper",
     "oscillation": {"knots": [[0.0, 0.0], [0.5, 1.0], [1.0, 0.2]]}},
]


class TestInferModels:
    """Documents whose p-box is built by ``combine`` or from knots, and
    arithmetic on a point mass, row by row against the library."""

    def run_doc(self, tmp_path, capsys, doc):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, ["infer", str(path)])
        return code, (csv_rows(out) if code == 0 else err)

    def assert_model_rows(self, rows, box):
        event = normalize([ZInterval.closed(0.0, 0.6), ZInterval.left_open(0.7, 1.0)])
        expected = upper_expectation(box, KnotOscillation(
            MODEL_QUERIES[1]["oscillation"]["knots"]))
        assert rows["event"][1] == pytest.approx(lower_prob_event(box, event), abs=1e-12)
        assert rows["upper"][1] == pytest.approx(expected.value, abs=1e-12)
        assert rows["upper"][2] == pytest.approx(expected.error_bound, abs=1e-12)

    # explicit ids keep the names these cases have run under
    @pytest.mark.parametrize("rule_name, rule", [("frechet", FRECHET),
                                                 ("independence", INDEPENDENT)],
                             ids=["frechet-rule0", "independence-rule1"])
    def test_marginals(self, tmp_path, capsys, rule_name, rule):
        doc = {"pbox": {"marginals": TWO_MARGINALS, "rule": rule_name},
               "queries": MODEL_QUERIES}
        code, rows = self.run_doc(tmp_path, capsys, doc)
        assert code == 0
        joint = combine([
            PBox(named_cdf("uniform"), named_cdf("one")),
            PBox(PiecewiseLinearCdf(((0.0, 0.0), (0.5, 0.2), (1.0, 1.0))),
                 PiecewiseLinearCdf(((0.0, 0.3), (0.6, 0.9), (1.0, 1.0))))], rule)
        self.assert_model_rows(rows, joint)

    def test_linear_pbox(self, tmp_path, capsys):
        doc = {"pbox": {"linear": {"lower": [[0.0, 0.0], [0.5, 0.1], [1.0, 1.0]],
                                   "upper": [[0.0, 0.0], [0.3, 0.6], [1.0, 1.0]]}},
               "queries": MODEL_QUERIES}
        code, rows = self.run_doc(tmp_path, capsys, doc)
        assert code == 0
        box = PBox(PiecewiseLinearCdf(((0.0, 0.0), (0.5, 0.1), (1.0, 1.0))),
                   PiecewiseLinearCdf(((0.0, 0.0), (0.3, 0.6), (1.0, 1.0))), UNIT_INTERVAL)
        self.assert_model_rows(rows, box)

    def test_point_operand(self, tmp_path, capsys):
        x1 = {"lower": [[0.0, 0.0], [1.0, 1.0]], "upper": [[0.0, 0.2], [0.5, 0.9], [1.0, 1.0]]}
        ys = [0.4, 0.8, 1.1, 1.6]
        doc = {"queries": [{"id": side, "kind": "arith_op", "op": "add", "side": side,
                            "x1": x1, "x2": {"point": 0.5}, "y_grid": ys}
                           for side in ("lower", "upper")]}
        code, rows = self.run_doc(tmp_path, capsys, doc)
        assert code == 0
        box = RealLinePBox.from_knots(x1["lower"], x1["upper"])
        for k, y in enumerate(ys):
            lower, upper = (arith_bound("add", side, box, RealLinePBox.point_mass(0.5), y)
                            for side in ("lower", "upper"))
            assert rows[f"lower_{k}"][1] == pytest.approx(lower, abs=1e-12)
            assert rows[f"upper_{k}"][1] == pytest.approx(upper, abs=1e-12)

    def count_builds(self, monkeypatch):
        """The knot lists of every ``RealLinePBox.from_knots`` call from now on."""
        calls, build = [], RealLinePBox.from_knots

        def counted(lower, upper=None):
            calls.append((lower, upper))
            return build(lower, upper)

        monkeypatch.setattr(RealLinePBox, "from_knots", counted)
        return calls

    def test_repeated_operands_are_built_once(self, tmp_path, capsys, monkeypatch):
        # 8 grids, 4 operations x 2 sides, over one x1 and one x2
        x1 = {"lower": [[1.0, 0.0], [2.0, 0.4], [3.0, 1.0]],
              "upper": [[1.0, 0.2], [2.0, 0.7], [3.0, 1.0]]}
        x2 = {"lower": [[1.0, 0.0], [2.5, 0.5], [4.0, 1.0]]}
        queries = [{"id": f"{op}_{side}", "kind": "arith_op", "op": op, "side": side,
                    "x1": x1, "x2": x2, "y_grid": [-1.0, 1.5, 2.75, 4.5, 9.0]}
                   for op in ("add", "subtract", "multiply", "divide")
                   for side in ("lower", "upper")]
        # each query alone, so that nothing is shared between them
        alone = []
        for query in queries:
            (tmp_path / "one.json").write_text(json.dumps({"queries": [query]}))
            code, out, err = run_cli(capsys, ["infer", str(tmp_path / "one.json")])
            assert (code, err) == (0, "")
            alone += _without_elapsed(out).splitlines()[1:]
        calls = self.count_builds(monkeypatch)
        (tmp_path / "all.json").write_text(json.dumps({"queries": queries}))
        code, out, err = run_cli(capsys, ["infer", str(tmp_path / "all.json")])
        assert (code, err) == (0, "")
        assert len(calls) == 2
        assert _without_elapsed(out).splitlines() == [CSV_HEADER.rsplit(",", 1)[0]] + alone

    def test_operands_differing_in_a_zero_sign_are_built_apart(
            self, tmp_path, capsys, monkeypatch):
        # -0.0 == 0.0, but the two are different operands
        operands = [{"lower": [[-1.0, 0.0], [zero, 0.5], [1.0, 1.0]]}
                    for zero in (0.0, -0.0, 0.0)]
        doc = {"queries": [{"id": f"q{k}", "kind": "arith_op", "y": 0.5,
                            "x1": x1, "x2": {"point": 0.25}} for k, x1 in enumerate(operands)]}
        calls = self.count_builds(monkeypatch)
        code, rows = self.run_doc(tmp_path, capsys, doc)
        assert code == 0 and len(rows) == 3
        assert [math.copysign(1.0, lower[1][0]) for lower, _ in calls] == [1.0, -1.0]

    def test_repeated_invalid_operand_names_its_first_occurrence(self, tmp_path, capsys):
        bad = {"lower": [[0.0, 0.5], [1.0, 0.2]]}
        doc = {"queries": [{"id": "ok", "kind": "arith_op", "y": 0.5, "x1": UNIFORM_KNOTS,
                            "x2": UNIFORM_KNOTS}] +
                          [{"id": f"bad{k}", "kind": "arith_op", "y": 0.5, "x1": UNIFORM_KNOTS,
                            "x2": bad} for k in range(2)]}
        code, err = self.run_doc(tmp_path, capsys, doc)
        assert code == 3
        assert err == "validation error: queries[1].x2.lower: knot values must be non-decreasing\n"

    def test_grid_rows_share_its_wall_time(self, tmp_path, capsys):
        ys = [2.0 * k / 4999 for k in range(5000)]
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({"queries": [{"id": "g", "kind": "arith_op", "y_grid": ys,
                                                 "x1": UNIFORM_KNOTS, "x2": UNIFORM_KNOTS}]}))
        code, out, _ = run_cli(capsys, ["infer", str(path)])
        lines = out.splitlines()[1:]
        assert code == 0 and len(lines) == 5000
        assert len({line.rsplit(",", 1)[1] for line in lines}) == 1

    @pytest.mark.parametrize("pbox, code, message", [
        ({"marginals": TWO_MARGINALS, "rule": "max"}, 3, "unknown combination rule"),
        ({"marginals": TWO_MARGINALS[:1]}, 3, "at least two marginals"),
        ({"marginals": "x"}, 2, "pbox.marginals: expected an array"),
        ({"marginals": TWO_MARGINALS, "rule": ["x"]}, 2,
         "parse error: pbox.rule: expected a string, got an array"),
    ])
    def test_bad_marginals(self, tmp_path, capsys, pbox, code, message):
        got, err = self.run_doc(tmp_path, capsys, {"pbox": pbox, "queries": MODEL_QUERIES})
        assert got == code
        assert message in err


class TestFormatting:
    def test_twelve_significant_digits(self, capsys):
        code, out, _ = run_cli(capsys, ["paper", "oscillator"])
        line = out.strip().splitlines()[1]
        value_text = line.split(",")[2]
        assert value_text == f"{float(value_text):.12g}"
        assert len(value_text.replace(".", "").replace("-", "").lstrip("0")) <= 12


class TestTable:
    def test_oscillator_cdf_grid(self, capsys):
        code, out, _ = run_cli(capsys, ["table", "oscillator", "--what", "cdf",
                                        "--grid", "11"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "z,lower,upper"
        assert len(lines) == 12
        row = dict(zip(("z", "lower", "upper"),
                       (float(v) for v in lines[6].split(","))))
        assert row["z"] == pytest.approx(0.5)
        assert row["lower"] == pytest.approx(0.25)

    def test_two_point_grid_hits_endpoints(self, capsys):
        code, out, _ = run_cli(capsys, ["table", "oscillator", "--grid", "2"])
        lines = out.strip().splitlines()
        assert len(lines) == 3
        z0 = [float(v) for v in lines[1].split(",")]
        z1 = [float(v) for v in lines[2].split(",")]
        assert z0[0] == 0.0 and z1[0] == 1.0
        assert z1[1] == 1.0 and z1[2] == 1.0

    def test_dike_upper_integrand_decays_before_25(self, capsys):
        code, out, _ = run_cli(capsys, ["table", "dike", "--what", "integrand",
                                        "--grid", "200", "--query", "overflow_upper"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t,integrand"
        ts, vals = zip(*((float(a), float(b)) for a, b in
                         (line.split(",") for line in lines[1:])))
        assert vals[0] == pytest.approx(1.0)
        crossing = next(t for t, v in zip(ts, vals) if 0.0 < v < 1e-6)
        assert crossing < 25.0
        # monotone decay on the tabulated grid
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("name, query_id", [("oscillator", "damping_ratio_lower"),
                                                ("dike", "overflow_upper")])
    def test_integrand_rows_are_event_probabilities(self, capsys, name, query_id):
        code, out, _ = run_cli(capsys, ["table", name, "--what", "integrand",
                                        "--query", query_id])
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        scenario = builtin_scenario(name)
        query = next(q for q in scenario.queries if q.id == query_id)
        osc, upper = query.oscillation, query.kind != "expectation_lower"
        # the printed levels are those of an even grid up to the last one,
        # which is the tail truncation point when the oscillation is unbounded
        ts = np.linspace(osc.inf_value, float(rows[-1][0]), len(rows))
        assert [t_text for t_text, _ in rows] == [f"{t:.12g}" for t in ts]
        for t, (_, value) in zip(ts, rows):
            cut = cut_event(osc, float(t))
            if upper:
                want = upper_prob_event(scenario.pbox, complement_z(cut))
            else:
                want = lower_prob_event(scenario.pbox, cut)
            assert abs(float(value) - want) <= 1e-12, t

    def test_table_unknown_query_id(self, capsys):
        code, _, err = run_cli(capsys, ["table", "dike", "--what", "integrand",
                                        "--query", "nope"])
        assert code == 3

    def test_oversized_grid_exit_3(self, capsys):
        # rejected before the grid is allocated
        code, out, err = run_cli(capsys, ["table", "oscillator", "--grid", str(10**12)])
        assert code == 3
        assert "grid" in err and out == ""

    def test_finite_cdf_rows_per_class(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(SCENARIO_DOC))
        # the grid is for [0, 1] and plays no part on a finite space
        code, out, _ = run_cli(capsys, ["table", str(path), "--what", "cdf", "--grid", "7"])
        assert code == 0
        assert out.splitlines() == ["class,lower,upper", "0,0.2,0.4", "1,0.5,0.9", "2,1,1"]

    def test_finite_builtin_cdf(self, capsys):
        code, out, _ = run_cli(capsys, ["table", "example_ordering"])
        assert code == 0
        assert out.splitlines() == ["class,lower,upper", "0,0,0", "1,0,0", "2,1,1",
                                    "3,1,1", "4,1,1"]

    def test_independent_63_joint_is_finite(self, capsys):
        code, out, _ = run_cli(capsys, ["table", "example_independent_63"])
        assert code == 0
        assert out.splitlines() == ["class,lower,upper", "0,0.12,0.3", "1,1,1"]

    def test_finite_integrand_exit_3(self, tmp_path, capsys):
        doc = dict(SCENARIO_DOC, queries=[{"id": "x", "kind": "expectation_lower",
                                           "oscillation": {"knots": [[0.0, 0.0], [1.0, 1.0]]}}])
        path = tmp_path / "finite_expectation.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, ["table", str(path), "--what", "integrand"])
        assert code == 3
        assert "use lower_expectation_finite on finite spaces" in err and out == ""

    def test_table_needs_pbox(self, capsys):
        code, _, err = run_cli(capsys, ["table", "example_frechet_62"])
        assert code == 3


def lp_plus_1e3(monkeypatch, oracle):
    true_fn = oracle.lp_lower_expectation
    monkeypatch.setattr(oracle, "lp_lower_expectation",
                        lambda instance, gamble: true_fn(instance, gamble) + 1e-3)


def windows_at_lower_bound(monkeypatch, oracle):
    # every cumulative coordinate pinned to its lower bound: the LP of the lower CDF
    true_fn = oracle._chain_sweep

    def collapsed(instance, g):
        scale, grid, windows = instance._integer_chain
        chain = (scale, grid, tuple((a, a) for a, _ in windows))
        return true_fn(SimpleNamespace(_integer_chain=chain), g)

    monkeypatch.setattr(oracle, "_chain_sweep", collapsed)


def windows_cut_by_one(monkeypatch, oracle):
    # each window loses its top vertex unless that leaves it empty
    true_fn = oracle._chain_sweep

    def cut(instance, g):
        scale, grid, windows = instance._integer_chain
        chain = (scale, grid, tuple((a, max(a, b - 1)) for a, b in windows))
        return true_fn(SimpleNamespace(_integer_chain=chain), g)

    monkeypatch.setattr(oracle, "_chain_sweep", cut)


def _rewritten_sweep(monkeypatch, oracle, old, new):
    # the oracle's sweep with the one occurrence of ``old`` in its source replaced
    source = textwrap.dedent(inspect.getsource(oracle._chain_sweep))
    assert source.count(old) == 1
    namespace = {}
    exec(source.replace(old, new), vars(oracle), namespace)
    monkeypatch.setattr(oracle, "_chain_sweep", namespace["_chain_sweep"])


def prefix_minimum_dropped(monkeypatch, oracle):
    # each step reads the cost at its predecessor's own value, not the least below it
    _rewritten_sweep(monkeypatch, oracle, "row.append(low)", "row.append(here)")


def first_predecessor_only(monkeypatch, oracle):
    # each step reads the least cost at the window's first vertex alone
    _rewritten_sweep(monkeypatch, oracle, "prefix[(j if j < b else b) - a] + cost",
                     "prefix[0] + cost")


LP_DEFECTS = (lp_plus_1e3, windows_at_lower_bound, windows_cut_by_one,
              prefix_minimum_dropped, first_predecessor_only)


class TestVerify:
    def test_zero_trials_passes(self, capsys):
        code, out, _ = run_cli(capsys, ["verify", "--trials", "0"])
        assert code == 0
        assert "PASS" in out

    @pytest.mark.parametrize("argv", [["--n-max", "1"], ["--n-max", "0"], ["--trials", "-3"]])
    def test_out_of_range_arguments_exit_3(self, capsys, argv):
        code, out, err = run_cli(capsys, ["verify", *argv])
        assert code == 3
        assert err.startswith(f"validation error: {argv[0]} must be at least") and out == ""

    def test_small_campaign_passes(self, capsys):
        code, out, _ = run_cli(capsys, ["verify", "--trials", "5", "--seed", "7"])
        assert code == 0

    def test_large_classes_pass(self, capsys):
        code, out, _ = run_cli(capsys, ["verify", "--trials", "5", "--n-max", "50"])
        assert code == 0
        assert "RESULT: PASS" in out

    def test_corrupted_formula_flagged(self, capsys, monkeypatch):
        import pboxes.pbox as pbox_mod

        true_fn = pbox_mod.lower_prob_event

        def corrupted(box, event, _true=true_fn):
            value = _true(box, event)
            return min(1.0, value + 0.25) if value > 0 else value

        monkeypatch.setattr(pbox_mod, "lower_prob_event", corrupted)
        code = run_verify(seed=3, trials=4, n_max=4)
        out = capsys.readouterr().out
        assert code == 1
        assert "mismatch" in out
        assert "subset=" in out

    def test_corrupted_gamble_formula_flagged(self, capsys, monkeypatch):
        import pboxes.choquet as choquet_mod

        true_fn = choquet_mod.lower_expectation_finite
        monkeypatch.setattr(choquet_mod, "lower_expectation_finite",
                            lambda box, gamble: true_fn(box, gamble) + 0.25)
        code = run_verify(seed=3, trials=4, n_max=4)
        out = capsys.readouterr().out
        assert code == 1
        assert "gamble mismatch: instance #0" in out
        assert "event mismatch" not in out

    @pytest.mark.parametrize("defect", LP_DEFECTS, ids=lambda defect: defect.__name__)
    def test_lp_defect_flagged_by_the_formula_checks(self, capsys, monkeypatch, defect):
        import pboxes.oracle as oracle_mod

        defect(monkeypatch, oracle_mod)
        code = run_verify(seed=3, trials=4, n_max=4)
        out = capsys.readouterr().out
        assert code == 1
        assert "gamble mismatch" in out

    def test_non_additive_lp_flagged(self, capsys, monkeypatch):
        import pboxes.oracle as oracle_mod

        true_fn = oracle_mod.lp_event_ratio

        # one unit of 1/D more on every event of two or more runs of classes
        def corrupted(instance, mask):
            numerator, scale = true_fn(instance, mask)
            runs = [run for run in bin(mask)[2:].split("0") if run]
            return numerator + (len(runs) > 1), scale

        monkeypatch.setattr(oracle_mod, "lp_event_ratio", corrupted)
        code = run_verify(seed=3, trials=20, n_max=6)
        out = capsys.readouterr().out
        assert code == 1
        assert "additivity violation: instance #" in out
        assert "AdditivityViolation(event=frozenset(" in out

    def test_unrepresentable_structural_table_flagged(self, capsys, monkeypatch):
        import pboxes.oracle as oracle_mod

        true_fn = oracle_mod.natural_extension_numerators

        # a point mass on a class that the instance does not make certain:
        # completely monotone, but not the instance's natural extension
        def corrupted(instance):
            numerators, scale = true_fn(instance)
            point = 1 if numerators[1] < scale else 1 << instance.n - 1
            return [int(mask & point != 0) for mask in range(1 << instance.n)], 1

        monkeypatch.setattr(oracle_mod, "natural_extension_numerators", corrupted)
        code = run_verify(seed=3, trials=4, n_max=4)
        out = capsys.readouterr().out
        assert code == 1
        assert out.count("event mismatch: structural #") == 4
        assert "monotonicity violation" not in out

    def test_representable_structural_table_of_another_pbox_flagged(self, capsys,
                                                                    monkeypatch):
        import pboxes.oracle as oracle_mod
        from lower_probability_reference import (
            FiniteLowerProbability,
            pbox_representability_check,
        )

        true_fn = oracle_mod.natural_extension_numerators
        tables = []

        # the natural extension of the precise p-box at the lower CDF: a
        # p-box's table, so the float round trip accepts it, but not this one's
        def corrupted(instance):
            precise = oracle_mod.FiniteCredalInstance(instance.lower_cum, instance.lower_cum)
            table = true_fn(precise)
            tables.append(table)
            return table

        monkeypatch.setattr(oracle_mod, "natural_extension_numerators", corrupted)
        code = run_verify(seed=3, trials=4, n_max=4)
        out = capsys.readouterr().out
        assert code == 1
        assert len(tables) == 4
        assert out.count("event mismatch: structural #") == 4
        assert "monotonicity violation" not in out
        for numerators, scale in tables:
            table = FiniteLowerProbability.from_numerators(numerators, scale)
            assert pbox_representability_check(table).matches

    def test_corrupted_structural_table_flagged(self, capsys, monkeypatch):
        import pboxes.oracle as oracle_mod

        # three classes, every pair certain and no singleton: monotone under
        # inclusion, but the full set has the Möbius mass 1 - 3 = -2
        def corrupted(instance):
            return [0, 0, 0, 1, 0, 1, 1, 1], 1

        monkeypatch.setattr(oracle_mod, "natural_extension_numerators", corrupted)
        code = run_verify(seed=3, trials=4, n_max=4)
        out = capsys.readouterr().out
        assert code == 1
        assert "monotonicity violation" in out
        assert "mass=Fraction(-2, 1)" in out

    def test_structural_table_dropping_under_inclusion_flagged(self, capsys, monkeypatch):
        import pboxes.oracle as oracle_mod

        # the singleton {0} is certain and the pair {0, 1} impossible: the pair
        # has the Möbius mass 0 - 1 = -1, and no lower probability drops so
        def corrupted(instance):
            return [0, 1, 0, 0, 0, 1, 1, 1], 1

        monkeypatch.setattr(oracle_mod, "natural_extension_numerators", corrupted)
        code = run_verify(seed=3, trials=4, n_max=4)
        out = capsys.readouterr().out
        assert code == 1
        assert "monotonicity violation" in out
        assert "mass=Fraction(-1, 1)" in out
        assert "event mismatch" not in out


class TestTails:
    """An unbounded oscillation's tail: certified on the dike's own p-box,
    and otherwise not, with finite rows either way."""

    DIKE_UPPER = {"id": "up", "kind": "expectation_upper",
                  "oscillation": {"builtin": "dike_upper"}}

    def write(self, tmp_path, pbox):
        path = tmp_path / "tail.json"
        path.write_text(json.dumps({"pbox": pbox, "queries": [self.DIKE_UPPER]}))
        return str(path)

    def test_tail_tol_flag_is_gone(self, capsys):
        # so is --max-refine: refinement has no setting but abs_tol
        for flag, value in (("--tail-tol", "1e-8"), ("--max-refine", "3")):
            with pytest.raises(SystemExit) as exc:
                main(["paper", "dike", flag, value])
            assert exc.value.code == 2
            assert flag in capsys.readouterr().err

    def test_uncertified_dike_upper_has_finite_rows(self, tmp_path, capsys):
        path = self.write(tmp_path, {"analytic": {"lower": "uniform", "upper": "one"}})
        code, out, err = run_cli(capsys, ["infer", path])
        assert code == 0
        _, value, bound = csv_rows(out)["up"]
        assert math.isfinite(value) and math.isfinite(bound)
        assert err.startswith("not converged: up ")
        code, out, err = run_cli(capsys, ["table", path, "--what", "integrand", "--grid", "9"])
        assert code == 0 and err == ""
        rows = [[float(v) for v in line.split(",")] for line in out.strip().splitlines()[1:]]
        assert len(rows) == 9 and np.isfinite(rows).all()
        # without a certificate the t-range stops at the grid's top finite level
        top = float(builtin_scenario("dike").queries[1].oscillation.f(1.0 - 2.0 ** -52))
        assert rows[-1][0] == float(f"{top:.12g}")

    def test_certified_dike_upper_matches_paper(self, tmp_path, capsys):
        path = self.write(tmp_path, {"builtin": "dike"})
        code, out, err = run_cli(capsys, ["infer", path])
        assert code == 0 and err == ""
        _, paper, _ = run_cli(capsys, ["paper", "dike"])
        assert csv_rows(out)["up"][1:] == csv_rows(paper)["overflow_upper"][1:]

    @pytest.mark.parametrize("tol, top", [(None, 32.0), ("1e-5", 32.0), ("1", 16.0)])
    def test_table_stops_at_the_certified_level(self, capsys, tol, top):
        # the first inf + 2**k whose certificate is within its share of abs_tol
        argv = ["table", "dike", "--what", "integrand", "--query", "overflow_upper",
                "--grid", "9"] + (["--tol", tol] if tol else [])
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        last = float(out.strip().splitlines()[-1].split(",")[0])
        inf = builtin_scenario("dike").queries[1].oscillation.inf_value
        assert last == float(f"{inf + top:.12g}")

    def test_paper_dike_bisects_nothing(self, capsys, monkeypatch):
        import pboxes.choquet as choquet

        def refuse(*args, **kwargs):
            raise AssertionError("paper dike bisected a level")

        monkeypatch.setattr(choquet, "_bisect", refuse)
        code, out, err = run_cli(capsys, ["paper", "dike"])
        assert code == 0 and err == ""


class TestMarginalsCap:
    @staticmethod
    def doc(marginals):
        marginal = {"lower": {"linear": [[0.0, 0.0], [1.0, 1.0]]}, "upper": {"analytic": "one"}}
        return {"pbox": {"marginals": [marginal] * marginals, "rule": "independence"},
                "queries": [{"id": "e", "kind": "event_lower",
                             "intervals": [[0.0, 0.5, False, False]]}]}

    def test_knots_in_all_are_capped(self, tmp_path, capsys, monkeypatch):
        import pboxes.cli as cli

        monkeypatch.setattr(cli, "_MAX_ITEMS", 16)
        path = tmp_path / "marginals.json"
        # two knots on each side: four marginals hold 16 knots, five hold 20
        for marginals, code_wanted in ((4, 0), (5, 3)):
            path.write_text(json.dumps(self.doc(marginals)))
            code, out, err = run_cli(capsys, ["infer", str(path)])
            assert code == code_wanted, err
        assert out == ""
        assert err.startswith("validation error: pbox.marginals: more than 16 knots in all")


class TestScenarioConfig:
    def test_file_config_respected(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(SCENARIO_DOC))
        scenario, cfg = load_scenario(str(path))
        assert cfg.abs_tol == 1e-5
        assert scenario.name == "fixture"

    def test_builtin_pbox_reference(self, tmp_path):
        doc = {"space": {"type": "continuum"},
               "pbox": {"builtin": "oscillator"},
               "queries": [{"id": "q", "kind": "event_lower",
                            "intervals": [[0.0, 0.5, False, False]]}]}
        path = tmp_path / "ref.json"
        path.write_text(json.dumps(doc))
        scenario, _ = load_scenario(str(path))
        assert run_query(scenario.queries[0]).value == pytest.approx(0.25)

    def test_builtin_pbox_reference_to_finite_joint(self, tmp_path):
        doc = {"pbox": {"builtin": "example_independent_63"},
               "queries": [{"id": "bottom", "kind": "event_lower", "classes": [0]}]}
        path = tmp_path / "joint.json"
        path.write_text(json.dumps(doc))
        scenario, _ = load_scenario(str(path))
        assert run_query(scenario.queries[0]).value == pytest.approx(0.4 * 0.3)

    def test_builtin_without_pbox_exit_3(self, tmp_path, capsys):
        doc = {"pbox": {"builtin": "example_frechet_62"},
               "queries": [{"id": "bottom", "kind": "event_lower", "classes": [0]}]}
        path = tmp_path / "no_model.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, ["infer", str(path)])
        assert code == 3
        assert "carries no p-box" in err and out == ""
