"""Every function, class and method under src/timecredits is reached by
the toolkit itself, not only by the tests.

A definition counts as reached when its name occurs as a whole word
anywhere else in the text of `src/` or of `perfbench/*.py`: a call, a
read, an import (so also an import by a package `__init__.py`), a
string, or a comment.  Dunder methods are left out, since Python calls
them.  Matching is by name alone and so deliberately loose: any other
occurrence of the same word counts, whatever it refers to.
`BoundRegistry.load`, for one, would pass through `json.load`, and a
recursive call inside the definition counts too.  Oracles that only the
tests need live in `tests/oracles.py`.  perfbench is only read here.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "timecredits"


def _defined(paths) -> dict[str, list[str]]:
    """Each non-dunder name defined by a def or class, with where."""
    out: dict[str, list[str]] = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = node.name
                if not (name.startswith("__") and name.endswith("__")):
                    out.setdefault(name, []).append(f"{path.relative_to(ROOT)}:{node.lineno}")
    return out


def test_every_src_definition_is_reached_outside_the_tests():
    src = sorted(PACKAGE.rglob("*.py"))
    words = Counter()
    for path in src + sorted((ROOT / "perfbench").glob("*.py")):
        words.update(re.findall(r"\w+", path.read_text()))
    # each definition is one occurrence of its own name
    unreached = {
        name: where for name, where in _defined(src).items() if words[name] <= len(where)
    }
    assert not unreached, f"defined under src/ but reached only by tests: {unreached}"
