"""Every function, class and method under src/timecredits is reached by
the toolkit itself, not only by the tests.

A definition counts as reached when its name is read as code anywhere in
`src/` or in `perfbench/*.py`: as a name (a call, a read, a decorator),
as an attribute (a method call, a property read) or as an imported name
(so also an import by a package `__init__.py`).  Strings, docstrings and
comments do not count.  Dunder methods are left out, since Python calls
them.  Matching is by name alone and so still loose: any other read of
the same name counts, whatever it refers to, and a recursive call inside
the definition counts too.  Oracles that only the tests need live in
`tests/oracles.py`.  perfbench is only read here.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "timecredits"


def _defined(trees) -> dict[str, list[str]]:
    """Each non-dunder name defined by a def or class, with where."""
    out: dict[str, list[str]] = {}
    for path, tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = node.name
                if not (name.startswith("__") and name.endswith("__")):
                    out.setdefault(name, []).append(f"{path.relative_to(ROOT)}:{node.lineno}")
    return out


def _read(trees) -> Counter:
    """How often each name is read as code: a loaded name or attribute, or
    an imported name."""
    reads = Counter()
    for _, tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads[node.id] += 1
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads[node.attr] += 1
            elif isinstance(node, ast.alias):
                reads.update(node.name.split("."))
    return reads


def _parse(paths):
    return [(path, ast.parse(path.read_text(), str(path))) for path in paths]


def test_every_src_definition_is_reached_outside_the_tests():
    src = _parse(sorted(PACKAGE.rglob("*.py")))
    reads = _read(src + _parse(sorted((ROOT / "perfbench").glob("*.py"))))
    unreached = {name: where for name, where in _defined(src).items() if not reads[name]}
    assert not unreached, f"defined under src/ but reached only by tests: {unreached}"


def test_a_name_in_a_string_or_comment_is_not_a_read():
    tree = ast.parse('"""helper()"""\n# helper\nx = "helper"\ny = helper\nz.method()\n')
    reads = _read([(None, tree)])
    assert reads["helper"] == 1
    assert reads["method"] == 1
    assert reads["x"] == 0
