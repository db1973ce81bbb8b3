"""Exact charge traces of every case study.

For each of the nine case studies, ``trace_golden.json`` pins the total cost
and the sha256 of every ``run_traced`` trace that the study's run makes on a
fixed small input, plus the same for one failing run of its program.  The CLI
golden pins only totals; this pins every charge and its order.  A refactor of
the interpreter must leave every digest unchanged; only an intended change of
costs may rewrite the file, with ``PYTHONPATH=src python tests/test_trace_golden.py``.
"""

import hashlib
import json
from pathlib import Path

import pytest

from timecredits.algorithms import bundles
from timecredits.algorithms import dynarray as dyn
from timecredits.algorithms import karatsuba as kara
from timecredits.algorithms import knapsack as knap
from timecredits.algorithms import search as srch
from timecredits.algorithms import select as sel
from timecredits.algorithms import skew_heap as skew
from timecredits.algorithms import sorting as srt
from timecredits.algorithms import splay_tree as spl
from timecredits.heap import FAILURE, Addr, array_of_list, empty_heap, run, run_traced

GOLDEN = Path(__file__).with_name("trace_golden.json")

# the modules whose `run` a study's run calls
_RUN_MODULES = (bundles, dyn, skew, spl)

INPUTS = {
    "merge_sort": [5, 3, 9, 1, 4, 8, 2, 7, 6, 0, -4],
    "insertion_sort": [4, 2, 7, 1, 3, 3, -1],
    "binary_search": ([1, 3, 5, 7, 9, 11, 13], 9),
    "karatsuba": ([1, -2, 3, 4, 5], [6, 7, -8, 9, 10]),
    "select": (list(range(37, 0, -2)) + list(range(0, 30, 3)), 13),
    "knapsack": ([(2, 3), (3, 4), (4, 5), (5, 6), (0, 2)], 7),
    "dynarray": [("push", 4), ("push", 7), ("get", 1), ("push", 1), ("len", None),
                 ("push", 9), ("push", 2), ("get", 4), ("push", 5)],
    "skew_heap": [("insert", 5), ("insert", 2), ("insert", 8), ("del_min", None),
                  ("insert", 1), ("insert", 9), ("del_min", None), ("del_min", None)],
    "splay_tree": [("insert", 5), ("insert", 2), ("insert", 8), ("lookup", 2),
                   ("insert", 6), ("splay", 8), ("lookup", 3), ("insert", 1),
                   ("insert", 7), ("lookup", 6)],
}


def _array(values, heap=None):
    out = run(array_of_list(values), heap if heap is not None else empty_heap())
    return out.value, out.heap


def _failing_merge_sort():
    # mergeinto told that b holds one more cell than it does
    a, heap = _array([1, 4, 6])
    b, heap = _array([2, 3], heap)
    x, heap = _array([0] * 6, heap)
    return srt.mergeinto(3, 3, a, b, x), heap


def _failing_insertion_sort():
    return srt.insertion_sort_impl(Addr(0, "ref")), _array([1])[1]


def _failing_binary_search():
    return srch.binary_search_impl(Addr(5, "array"), 3), _array([1, 2, 3])[1]


def _failing_karatsuba():
    p, heap = _array([1, 2, 3])
    q, heap = _array([4, 5], heap)
    return kara.karatsuba_impl(p, q), heap


def _failing_select():
    x, heap = _array(list(range(30, 0, -1)))
    return sel.select_impl(x, 30), heap


def _failing_knapsack():
    return knap.knapsack_impl([(2, 3), (-3, 4)], 4), empty_heap()


def _failing_dynarray():
    d = dyn.new_dynarray()
    for v in (3, 1, 4):
        d, _ = dyn.push(d, v)
    return dyn.agrow(2, d.data, 0), d.heap


def _failing_skew_heap():
    s = skew.new_skew_heap()
    for k in (5, 2, 8):
        s, _ = skew.skew_push(s, k)
    return skew.skew_meld_impl(s.root, Addr(0, "ref")), s.heap


def _failing_splay_tree():
    # the deepest node of an ascending chain lost its right cell
    s = spl.new_splay_tree()
    for k in range(6):
        s, _ = spl.splay_insert(s, k)
    heap = s.heap.clone()
    deepest = min(heap.arrays, key=lambda i: heap.arrays[i][0])
    heap.arrays[deepest] = heap.arrays[deepest][:2]
    return spl.splay_impl(-1, s.root), heap


FAILING = {
    "merge_sort": _failing_merge_sort,
    "insertion_sort": _failing_insertion_sort,
    "binary_search": _failing_binary_search,
    "karatsuba": _failing_karatsuba,
    "select": _failing_select,
    "knapsack": _failing_knapsack,
    "dynarray": _failing_dynarray,
    "skew_heap": _failing_skew_heap,
    "splay_tree": _failing_splay_tree,
}


def _entry(outcome, trace):
    return [None if outcome is FAILURE else outcome.cost, [list(c) for c in trace]]


def _digest(entries) -> str:
    return hashlib.sha256(json.dumps(entries).encode()).hexdigest()


def _study_traces(name):
    """Every (cost, trace) of the study's run on its fixed input, in order."""
    entries = []

    def recording_run(comp, heap):
        outcome, trace = run_traced(comp, heap)
        entries.append(_entry(outcome, trace))
        return outcome

    study = next(s for s in bundles.STUDIES if s.name == name)
    saved = [(m, m.run) for m in _RUN_MODULES]
    for module in _RUN_MODULES:
        module.run = recording_run
    try:
        result = study.run(INPUTS[name])
    finally:
        for module, original in saved:
            module.run = original
    assert result.ok
    return result.cost, entries


def _pinned(name):
    cost, entries = _study_traces(name)
    comp, heap = FAILING[name]()
    outcome, trace = run_traced(comp, heap)
    assert outcome is FAILURE
    return {
        "cost": cost,
        "runs": len(entries),
        "trace_sha256": _digest(entries),
        "failing_charges": len(trace),
        "failing_sha256": _digest(_entry(outcome, trace)),
    }


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_traces_are_pinned(name):
    assert _pinned(name) == json.loads(GOLDEN.read_text())[name]


if __name__ == "__main__":
    golden = {name: _pinned(name) for name in sorted(INPUTS)}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
