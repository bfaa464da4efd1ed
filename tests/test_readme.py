"""README's "Library" example runs as written and gives the values its
comments state, so a renamed function or a moved value fails here."""

import ast
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def library_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def stated(comment: str) -> str:
    """The value a trailing comment states: its text up to two spaces."""
    return comment.lstrip("#").strip().split("  ")[0]


def agrees(value, text: str) -> bool:
    """value matches text: a literal or arithmetic expression, compared
    exactly, or digits ending in '...', compared as a prefix of repr(value)."""
    if text.startswith("("):
        parts = text[1:-1].split(", ")
        return len(parts) == len(value) and all(map(agrees, value, parts))
    if text.endswith("..."):
        return repr(value).startswith(text[:-3])
    return value == eval(text, {})


def test_library_example_states_its_values():
    block = library_block()
    lines = block.split("\n")
    namespace = {}
    checked = []
    for node in ast.parse(block).body:
        code = ast.get_source_segment(block, node)
        if not isinstance(node, ast.Expr):
            exec(code, namespace)
            continue
        value = eval(code, namespace)
        _, _, comment = lines[node.end_lineno - 1].partition("#")
        text = stated(comment)
        checked.append(text)
        assert agrees(value, text), f"{code} gave {value!r}, README says {text}"
    assert len(checked) == 6


@pytest.mark.parametrize(
    "value, text, expected",
    [
        (0.0625, "0.0625", True),
        (67 / 1024, "67/1024", True),
        (0.066, "67/1024", False),
        ((298, 4096, 2), "(298, 4096, 2)", True),
        ((298, 4096, 3), "(298, 4096, 2)", False),
        ((0.021087, 0.02146027), "(0.021087, 0.0214602...)", True),
        ((0.021087, 0.02156027), "(0.021087, 0.0214602...)", False),
    ],
)
def test_comment_values_are_compared(value, text, expected):
    assert agrees(value, text) is expected
