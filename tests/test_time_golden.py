"""Exact values of the runtime functions.

For merge sort, Karatsuba, binary search, select and insertion sort,
``time_golden.json`` pins the sha256 of each bound's values at n in 0..2048
and at 2^k - 1, 2^k and 2^k + 1 for k <= 20; for knapsack it pins the values
on the grid of (n, W) with n and W in 0..64 or at 2^k - 1 and 2^k + 1 for
k <= 20.  Both at the default constants and at every variant with one
constant lowered by one.  A change to how a bound is defined or
evaluated must leave every digest unchanged; only an intended change of
costs may rewrite the file, with ``PYTHONPATH=src python tests/test_time_golden.py``.
"""

import hashlib
import json
from pathlib import Path

import pytest

from timecredits.algorithms import karatsuba as kara
from timecredits.algorithms import knapsack as knap
from timecredits.algorithms import search as srch
from timecredits.algorithms import select as sel
from timecredits.algorithms import sorting as srt

GOLDEN = Path(__file__).with_name("time_golden.json")

SIZES = sorted(
    set(range(2049)) | {2 ** k + d for k in range(21) for d in (-1, 0, 1)}
)
_AXIS = sorted(set(range(65)) | {2 ** k + d for k in range(21) for d in (-1, 1)})
GRID = [(n, w) for n in _AXIS for w in _AXIS]

# name -> (default constants, constants -> bound of a size)
BOUNDS = {
    "merge_sort_time": (srt.MERGE_SORT_CONSTS, lambda c: lambda n: srt.merge_sort_time(n, c)),
    "karatsuba_time": (kara.KARATSUBA_CONSTS, lambda c: lambda n: kara.karatsuba_time(n, c)),
    "bsearch_time": (srch.BINARY_SEARCH_CONSTS, lambda c: lambda n: srch.bsearch_time(n, c)),
    "binary_search_time": (
        srch.BINARY_SEARCH_CONSTS, lambda c: lambda n: srch.binary_search_time(n, c),
    ),
    # the two select keys keep the names of the factories that once built
    # these bounds, so that time_golden.json stays byte-identical
    "make_select_time": (sel.SELECT_CONSTS, lambda c: lambda n: sel.select_time(n, c)),
    "make_select_bound": (sel.SELECT_CONSTS, lambda c: lambda n: sel.select_run_time(n, c)),
    "insertion_sort_time": (
        srt.INSERTION_SORT_CONSTS, lambda c: lambda n: srt.insertion_sort_time(n, c),
    ),
}


def _variants(consts):
    yield "defaults", consts
    for key in consts:
        yield f"{key}-1", dict(consts, **{key: consts[key] - 1})


def _digest(fn, points=SIZES) -> str:
    # json.dumps rejects a Fraction, so a value that stops being an int shows
    return hashlib.sha256(json.dumps([fn(p) for p in points]).encode()).hexdigest()


def _pinned(name) -> dict:
    if name == "select_time":
        return {"defaults": _digest(sel.select_time)}
    if name == "knapsack_time":
        return {
            label: _digest(lambda nw, c=c: knap.knapsack_time(*nw, c), GRID)
            for label, c in _variants(knap.KNAPSACK_CONSTS)
        }
    consts, bound = BOUNDS[name]
    return {label: _digest(bound(c)) for label, c in _variants(consts)}


NAMES = sorted([*BOUNDS, "select_time", "knapsack_time"])


@pytest.mark.parametrize("name", NAMES)
def test_bound_values_are_pinned(name):
    assert _pinned(name) == json.loads(GOLDEN.read_text())[name]


if __name__ == "__main__":
    golden = {name: _pinned(name) for name in NAMES}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
