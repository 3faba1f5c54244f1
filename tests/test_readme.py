"""The README's library examples run and give the values their comments document."""

import pathlib
import re

import pytest

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
# an expression line whose comment starts with the value it evaluates to
_DOCUMENTED = re.compile(r"^(\S.*?)\s+#\s*([0-9.]+)\b", re.M)


def library_blocks() -> list:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, re.S)


def test_library_examples_give_the_documented_values():
    blocks = library_blocks()
    assert len(blocks) == 2
    namespace, values = {}, []
    # the blocks share one namespace: the second uses the first one's imports
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
        values += [(eval(expr, namespace), float(doc)) for expr, doc in _DOCUMENTED.findall(block)]
    assert [doc for _, doc in values] == [0.25, 0.1, 0.1]
    (event, quarter), *finite = values
    assert event == quarter
    for value, doc in finite:
        assert value == pytest.approx(doc, abs=1e-12)
