import json

import numpy as np
import pytest

from pboxes.choquet import cut_event
from pboxes.cli import CSV_HEADER, load_scenario, main, run_verify
from pboxes.pbox import lower_prob_event, upper_prob_event
from pboxes.scenarios import (
    BUILTIN_NAMES,
    builtin_scenario,
    diagonal_rectangle_interior,
    run_scenario,
)
from pboxes.preorder import EMPTY_EVENT, FULL_EVENT, complement_z


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
            results = run_scenario(builtin_scenario(name))
            assert results

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


class TestDiagonalInterior:
    def test_whole_square(self):
        assert diagonal_rectangle_interior(0, 1, 0, 1) == FULL_EVENT

    def test_generic_rectangle_has_empty_interior(self):
        assert diagonal_rectangle_interior(0.2, 0.9, 0.0, 1.0) == EMPTY_EVENT

    def test_corner_rectangle(self):
        event = diagonal_rectangle_interior(0.0, 0.4, 0.0, 0.8)
        assert event.intervals[0].hi == pytest.approx(0.2)


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

    def test_oversized_cut_grid_exit_3(self, tmp_path, capsys):
        doc = dict(SCENARIO_DOC, config={"cut_grid": 10**12})
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(doc))
        code, _, err = run_cli(capsys, ["infer", str(path)])
        assert code == 3
        assert "cut_grid" in err

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

    @pytest.mark.parametrize("field, value", [("side", "lowr"), ("op", "modulo")])
    def test_bad_arithmetic_field_exit_3(self, tmp_path, capsys, field, value):
        doc = {"queries": [{"id": "ok", "kind": "event_lower", "intervals": []},
                           dict({"id": "a", "kind": "arith_op",
                                 "x1": {"lower": [[0.0, 0.0], [1.0, 1.0]]},
                                 "x2": {"lower": [[0.0, 0.0], [1.0, 1.0]]},
                                 "y": 0.5}, **{field: value})],
               "pbox": {"analytic": {"lower": "uniform", "upper": "uniform"}}}
        path = tmp_path / "bad_field.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, ["infer", str(path)])
        assert code == 3
        assert f"queries[1].{field}" in err and out == ""

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

    def test_empty_query_list_header_only(self, tmp_path, capsys):
        doc = {"space": {"type": "continuum"},
               "pbox": {"analytic": {"lower": "uniform", "upper": "uniform"}},
               "queries": []}
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, ["infer", str(path)])
        assert code == 0
        assert out.strip() == CSV_HEADER


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

    def test_table_needs_pbox(self, capsys):
        code, _, err = run_cli(capsys, ["table", "example_frechet_62"])
        assert code == 3


class TestVerify:
    def test_zero_trials_passes(self, capsys):
        code, out, _ = run_cli(capsys, ["verify", "--trials", "0"])
        assert code == 0
        assert "PASS" in out

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
        results = run_scenario(scenario)
        assert results[0].value == pytest.approx(0.25)
