"""The README's examples run: the library ones give the values their
comments document, the command-line ones that need no file exit 0, and
the scenario document gives its rows.  Every public name is used by the
program or documented."""

import ast
import json
import pathlib
import re
import shlex

import pytest

import pboxes
from pboxes.cli import main

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
# an expression line whose comment starts with the value it evaluates to
_DOCUMENTED = re.compile(r"^(\S.*?)\s+#\s*([0-9.]+)\b", re.M)


def library_blocks() -> list:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, re.S)


def test_library_examples_give_the_documented_values():
    blocks = library_blocks()
    assert len(blocks) == 3
    namespace, values = {}, []
    # the blocks share one namespace: the later ones use the first one's imports
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
        values += [(eval(expr, namespace), float(doc)) for expr, doc in _DOCUMENTED.findall(block)]
    assert [doc for _, doc in values] == [0.25, 0.1, 0.1, 0.5]
    (event, quarter), *finite = values
    assert event == quarter
    for value, doc in finite:
        assert value == pytest.approx(doc, abs=1e-12)


def command_lines() -> list:
    """The argv of every ``pboxes`` command in the "Command line" block."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines()]


def test_command_line_examples_exit_0(capsys):
    # infer needs a scenario file of its own
    argvs = [argv for argv in command_lines() if argv[0] != "infer"]
    assert [argv[0] for argv in argvs] == ["paper", "paper", "paper", "table", "verify"]
    for argv in argvs:
        assert main(argv) == 0, argv
        out = capsys.readouterr().out
        if argv[0] == "verify":
            assert "RESULT: PASS" in out


def test_scenario_document_runs(tmp_path, capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("\n### Scenario files\n", 1)[1].split("\n## ", 1)[0]
    doc = json.loads(re.search(r"```json\n(.*?)```", section, re.S).group(1))
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    assert main(["infer", str(path)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    values = {line.split(",")[0]: float(line.split(",")[2]) for line in lines[1:]}
    assert values == {"bottom": 0.2, "sum_0": 0.0, "sum_1": 0.5}


def _top_level_names(tree) -> set:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


def _referenced_names(tree) -> set:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_every_public_name_is_used_or_documented():
    """Each name of ``pboxes.__all__`` is referenced by a module of the package
    other than the one that defines it (``__init__`` aside), or appears in the
    README's code: a fenced block or an inline code span."""
    package = pathlib.Path(pboxes.__file__).parent
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in package.glob("*.py") if path.stem != "__init__"}
    text = README.read_text(encoding="utf-8")
    fenced = re.compile(r"```\w*\n(.*?)```", re.S)
    code = "\n".join(fenced.findall(text) + re.findall(r"`([^`\n]+)`", fenced.sub("", text)))
    unused = []
    for name in pboxes.__all__:
        homes = {stem for stem, tree in trees.items() if name in _top_level_names(tree)}
        assert homes, name
        used = any(name in _referenced_names(tree)
                   for stem, tree in trees.items() if stem not in homes)
        if not used and not re.search(rf"\b{name}\b", code):
            unused.append(name)
    assert unused == []
