"""Exact stdout and exit code of representative CLI invocations.

The pinned outputs live in ``cli_golden.json``.  A refactor must leave every
byte unchanged; only an intended change of costs or verdicts may rewrite the
file, with ``PYTHONPATH=src python tests/test_cli_golden.py``.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from timecredits.cli import main

GOLDEN = Path(__file__).with_name("cli_golden.json")

STUDIES = (
    "merge_sort", "insertion_sort", "binary_search", "karatsuba", "select",
    "knapsack", "dynarray", "skew_heap", "splay_tree",
)

CASES = [
    *(["run", name, "--sizes", "0,5,17", "--trials", "2", "--seed", "3"] for name in STUDIES),
    *(["recurrence", "--builtin", name]
      for name in ("merge_sort", "karatsuba", "binary_search", "select")),
    ["amortized", "dynarray", "--ops", "2500"],
    ["amortized", "skew_heap", "--ops", "500", "--seed", "2"],
    ["amortized", "splay_tree", "--ops", "300", "--seed", "3"],
    ["amortized", "splay_tree", "--ops", "200", "--seed", "1", "--multiplier", "1"],
    ["report", "--trials", "1", "--seed", "5", "--format", "csv"],
]


def _invoke(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, out.getvalue()


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_cli_output_is_pinned(argv):
    pinned = json.loads(GOLDEN.read_text())[" ".join(argv)]
    code, out = _invoke(argv)
    assert (code, out) == (pinned["code"], pinned["stdout"])


if __name__ == "__main__":
    golden = {}
    for argv in CASES:
        code, out = _invoke(argv)
        golden[" ".join(argv)] = {"code": code, "stdout": out}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
