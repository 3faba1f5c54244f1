"""Every field of a scenario document, broken in turn, is refused with its path.

Valid documents that together reach every kind of node of the format are
walked path by path.  Each value is replaced by every JSON type the README
does not allow there (a parse error naming that path), each array by an
empty one where the README asks for entries, and each array of variable
length by one just over its cap (a validation error).  No case may end in
an exception or in Python's own message text.
"""

import json

import pytest

import pboxes.choquet as choquet
from pboxes.cli import _MAX_ITEMS, main

KNOTS = [[0.0, 0.0], [0.5, 0.4], [1.0, 1.0]]

DOCUMENTS = {
    # a finite step p-box, with a lower and an upper event on classes
    "finite": {
        "name": "finite",
        "space": {"type": "finite", "classes": ["a", "b", "c"]},
        "pbox": {"step": {"lower": [0.2, 0.5, 1.0], "upper": [0.4, 0.9, 1.0]}},
        "queries": [{"id": "bottom", "kind": "event_lower", "classes": [0, 1]},
                    {"id": "top", "kind": "event_upper", "classes": [2]}],
        "config": {"abs_tol": 1e-3, "max_refinements": 12, "bisect_tol": 1e-6},
    },
    # marginals of knots and names, knots and builtin oscillations, a
    # threshold and an event on intervals
    "continuum": {
        "space": {"type": "continuum"},
        "pbox": {"marginals": [{"lower": {"linear": KNOTS}, "upper": {"analytic": "one"}},
                               {"lower": {"analytic": "uniform"}, "upper": {"analytic": "one"}}],
                 "rule": "independence"},
        "queries": [{"id": "tent", "kind": "expectation_lower",
                     "oscillation": {"knots": [[0.0, 0.0], [0.5, 1.0], [1.0, 0.2]]}},
                    {"id": "damping", "kind": "expectation_upper",
                     "oscillation": {"builtin": "oscillator_upper"}},
                    {"id": "design", "kind": "threshold", "target": 0.5,
                     "oscillation": {"builtin": "dike_upper"}},
                    {"id": "piece", "kind": "event_lower",
                     "intervals": [[0.0, 0.5, False, True], [0.7, 1.0, True, False]]}],
        "config": {"abs_tol": 1e-3},
    },
    # arithmetic on an operand with both CDFs and on a point, over a grid and at a point
    "arithmetic": {
        "queries": [{"id": "sum", "kind": "arith_op", "op": "add", "side": "upper",
                     "x1": {"lower": KNOTS, "upper": [[0.0, 0.2], [1.0, 1.0]]},
                     "x2": {"point": 0.5}, "y_grid": [0.6, 1.2]},
                    {"id": "plain", "kind": "arith_add", "x1": {"lower": KNOTS},
                     "x2": {"lower": KNOTS}, "y": 0.5}],
    },
    # the other p-box variants
    "linear": {"pbox": {"linear": {"lower": KNOTS, "upper": [[0.0, 0.0], [1.0, 1.0]]}}},
    "analytic": {"pbox": {"analytic": {"lower": "square", "upper": "uniform"}}},
    "builtin": {"pbox": {"builtin": "oscillator"}},
}

SAMPLES = {dict: {}, list: [], str: "x", float: 0.5, bool: True, type(None): None}
JSON_TYPE = {int: float}  # JSON has one number type
FORBIDDEN = ("malformed specification", "Traceback", "object is not", "unhashable",
             "unpack", "NoneType")


def walk(value, path="", inside_array=False):
    """``(path, value, fixed_shape)`` for the value and everything in it."""
    yield path or "document", value, inside_array
    if isinstance(value, dict):
        for key, item in value.items():
            yield from walk(item, f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        for k, item in enumerate(value):
            yield from walk(item, f"{path}[{k}]", True)


def replaced(doc, path, new):
    """A copy of ``doc`` with the value at ``path`` replaced by ``new``."""
    if path == "document":
        return new
    doc = json.loads(json.dumps(doc))
    steps = path.replace("[", ".[").split(".")
    *parents, last = [int(step[1:-1]) if step.startswith("[") else step for step in steps]
    target = doc
    for step in parents:
        target = target[step]
    target[last] = new
    return doc


def run(tmp_path, capsys, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code = main(["infer", str(path)])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def names(err, path):
    """Whether the error's path is ``path`` or an ancestor of it."""
    named = err.split(": ", 2)[1]
    return path == named or path.startswith((named + ".", named + "["))


def check(failures, case, ok):
    if not ok:
        failures.append(case)


@pytest.mark.parametrize("name", DOCUMENTS)
def test_documents_are_valid(tmp_path, capsys, name):
    code, _, err = run(tmp_path, capsys, DOCUMENTS[name])
    assert code == 0 and err == ""


@pytest.mark.parametrize("name", DOCUMENTS)
def test_wrong_json_type_is_a_parse_error_at_its_path(tmp_path, capsys, name):
    failures = []
    for path, value, _ in walk(DOCUMENTS[name]):
        allowed = JSON_TYPE.get(type(value), type(value))
        for kind, sample in SAMPLES.items():
            if kind is allowed:
                continue
            code, out, err = run(tmp_path, capsys, replaced(DOCUMENTS[name], path, sample))
            check(failures, (path, kind.__name__, code, err),
                  code == 2 and out == "" and err.count("\n") == 1
                  and err.startswith(f"parse error: {path}:")
                  and not any(text in err for text in FORBIDDEN))
    assert failures == []


@pytest.mark.parametrize("name", DOCUMENTS)
def test_empty_array_is_refused_at_its_path(tmp_path, capsys, name):
    failures = []
    for path, value, _ in walk(DOCUMENTS[name]):
        # the README allows no queries, and an event on no classes or intervals
        if not isinstance(value, list) or path == "queries" or (
                path.startswith("queries[") and path.endswith(("classes", "intervals"))):
            continue
        code, out, err = run(tmp_path, capsys, replaced(DOCUMENTS[name], path, []))
        check(failures, (path, code, err),
              code in (2, 3) and out == "" and names(err, path)
              and not any(text in err for text in FORBIDDEN))
    assert failures == []


@pytest.mark.parametrize("name", DOCUMENTS)
def test_array_over_its_cap_is_a_validation_error(tmp_path, capsys, monkeypatch, name):
    # a y_grid just over 2^21 points would take some 200 MB to read
    monkeypatch.setattr(choquet, "_MAX_GRID", 64)
    failures = []
    for path, value, fixed_shape in walk(DOCUMENTS[name]):
        # a knot pair and an interval have a fixed shape, not a cap
        if not isinstance(value, list) or fixed_shape:
            continue
        cap = choquet._MAX_GRID if path.endswith("y_grid") else _MAX_ITEMS
        # the length is refused before any entry is read, so a query or a
        # marginal is repeated as {}, which reads in far less memory
        entry = {} if isinstance(value[0], dict) else value[0]
        code, out, err = run(tmp_path, capsys,
                             replaced(DOCUMENTS[name], path, [entry] * (cap + 1)))
        check(failures, (path, code, err[:200]),
              code == 3 and out == "" and names(err, path) and "more than" in err
              and not any(text in err for text in FORBIDDEN))
    assert failures == []
