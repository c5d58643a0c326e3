"""The code-line budget of ``src/imbalanceset/``.

A code line is a line that holds a token of code: blank lines, comments
and docstrings (the leading string of a module, class or function) do
not count.  ``data/code_line_budget.txt`` holds the most code lines the
package may have.  Raise it only with a CHANGES.md line that gives the
lines added and the measured gain that pays for them.  Print the count
of each module with

    python tests/test_code_lines.py
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
PACKAGE = HERE.parent / "src" / "imbalanceset"
BUDGET = HERE / "data" / "code_line_budget.txt"

_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold code."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def package_lines() -> dict[str, int]:
    return {path.name: code_lines(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def test_counts_only_code():
    source = '''"""Module docstring."""

# A comment.
def f(x):
    """Docstring
    over two lines."""
    s = """a string
    that is code"""
    return x  # a trailing comment
'''
    assert code_lines(source) == 4  # def, the two lines of s, return


@pytest.mark.parametrize(
    "source, want",
    [
        ("", 0),
        ("\n\n    \n", 0),
        ("# a comment\n#another\n", 0),
        ('"""A module docstring\nover two lines."""\n', 0),
        ('class C:\n    """Doc."""\n    x = 1\n', 2),
        ('class C:\n    def m(self):\n        """Doc."""\n        return 1\n', 3),
        ('async def f():\n    """Doc."""\n    await g()\n', 2),
        ('x = 1\n"""A string after the first statement is code."""\n', 2),
        ("x = (1 +\n     2)\n", 2),
        ("x = 1 + \\\n    2\n", 2),
        ("@decorate\ndef f():\n    pass\n", 3),
        ("def f():\n    x = 1  # trailing\n\n    # inner\n    return x\n", 3),
    ],
    ids=[
        "empty", "blank", "comments", "module-docstring", "class-docstring",
        "method-docstring", "async-docstring", "later-string", "bracketed",
        "backslash", "decorator", "comments-in-body",
    ],
)
def test_counts_each_kind_of_line(source, want):
    assert code_lines(source) == want


def test_the_package_keeps_its_code_line_budget():
    counts = package_lines()
    budget = int(BUDGET.read_text())
    assert sum(counts.values()) <= budget, counts


if __name__ == "__main__":
    counts = package_lines()
    for name, count in counts.items():
        print(f"{name:16} {count:5}")
    print(f"{'total':16} {sum(counts.values()):5}  (budget {int(BUDGET.read_text())})")
