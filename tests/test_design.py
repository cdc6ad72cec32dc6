"""Design ratchets: counts over the source, pinned exactly.

A change that moves a count, up or down, edits its pin here and says why in
CHANGES.md, so a count that went down cannot quietly grow back.
"""

import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "nanotile"

# settable values over src/nanotile: dataclass and NamedTuple init fields
# plus function parameters with a default
SETTABLE_VALUES = 191
# non-blank lines over src/nanotile outside docstrings and comments
CODE_LINES = 2305


def _name(node: ast.expr) -> str:
    node = node.func if isinstance(node, ast.Call) else node
    return getattr(node, "id", getattr(node, "attr", ""))


def _init_field(stmt: ast.stmt) -> bool:
    """An annotated class attribute that the generated __init__ takes."""
    if not isinstance(stmt, ast.AnnAssign) or not isinstance(stmt.target, ast.Name):
        return False
    if "ClassVar" in ast.unparse(stmt.annotation):
        return False
    value = stmt.value
    return not (isinstance(value, ast.Call) and _name(value) == "field"
                and any(k.arg == "init" and isinstance(k.value, ast.Constant)
                        and k.value.value is False for k in value.keywords))


def settable_values(root: Path = SRC) -> int:
    count = 0
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                if (any(_name(d) == "dataclass" for d in node.decorator_list)
                        or any(_name(b) == "NamedTuple" for b in node.bases)):
                    count += sum(map(_init_field, node.body))
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                count += len(node.args.defaults)
                count += sum(d is not None for d in node.args.kw_defaults)
    return count


_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(root: Path = SRC) -> int:
    """Lines that hold a token other than a comment or layout, less the
    lines of module, class and function docstrings."""
    count = 0
    for path in sorted(root.rglob("*.py")):
        text = path.read_text()
        lines = set()
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            if tok.type not in _LAYOUT:
                lines.update(range(tok.start[0], tok.end[0] + 1))
        for node in ast.walk(ast.parse(text)):
            if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                  ast.AsyncFunctionDef))
                    and ast.get_docstring(node, clean=False) is not None):
                doc = node.body[0]
                lines -= set(range(doc.lineno, doc.end_lineno + 1))
        count += len(lines)
    return count


def test_settable_values_do_not_grow():
    count = settable_values()
    assert count <= SETTABLE_VALUES, (
        f"{count} settable values, pinned at {SETTABLE_VALUES}: remove some, "
        "or raise the pin and say why in CHANGES.md")
    assert count == SETTABLE_VALUES, (
        f"{count} settable values, pinned at {SETTABLE_VALUES}: lower the pin")


def test_the_counter_sees_fields_and_defaults(tmp_path):
    (tmp_path / "m.py").write_text(
        "from dataclasses import dataclass, field\n"
        "from typing import ClassVar, NamedTuple\n"
        "@dataclass(frozen=True)\n"
        "class A:\n"
        "    x: int\n"
        "    y: int = 0\n"
        "    z: list = field(default_factory=list)\n"
        "    n: int = field(init=False)\n"
        "    k: ClassVar[int] = 3\n"
        "class B(NamedTuple):\n"
        "    a: int\n"
        "class C:\n"
        "    u: int\n"
        "def f(a, b=1, *, c=2, d):\n"
        "    return lambda e=3: a\n")
    # A's x, y, z; B's a; f's b and c; the lambda's e
    assert settable_values(tmp_path) == 7


def test_code_lines_do_not_grow():
    count = code_lines()
    assert count <= CODE_LINES, (
        f"{count} code lines, pinned at {CODE_LINES}: remove some, "
        "or raise the pin and say why in CHANGES.md")
    assert count == CODE_LINES, f"{count} code lines, pinned at {CODE_LINES}: lower the pin"


def test_the_line_counter_skips_docstrings_comments_and_blanks(tmp_path):
    (tmp_path / "m.py").write_text(
        '"""Module docstring,\n'
        'two lines."""\n'
        "# a comment\n"
        "\n"
        "def f(a):\n"
        '    """Docstring."""\n'
        "    s = \"\"\"a string\n"
        "\n"
        "    that is code\"\"\"  # trailing comment\n"
        "    return (a,\n"
        "            s)\n")
    # def, the three lines of s, and the two of the return
    assert code_lines(tmp_path) == 6
