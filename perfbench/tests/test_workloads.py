"""Small-size smoke passes of every workload, traced and untraced,
plus the golden comparison on fabricated verdicts."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import worker
from workloads import Job, Verdict

BENCH = Path(__file__).resolve().parent.parent
WORKLOADS = ("interp-sweep", "ledger-growth", "claim-check")


def smoke(workload, trace):
    out = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "--workload", workload, "--seed", "5",
         "--trace", str(trace), "--scale", "0.05"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_smoke_pass_is_correct(workload):
    result = smoke(workload, 0)
    assert result["failed"] == 0, result["failures"]
    assert result["jobs"] > 10
    for key in ("setup_s", "wall_s", "units_per_s", "peak_rss_mb"):
        assert result[key] > 0, key
    assert len(result["latencies_ms"]) == result["jobs"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_smoke_pass_reports_every_layer(workload):
    result = smoke(workload, 1)
    assert result["failed"] == 0, result["failures"]
    layers = result["layers"]
    # every workload runs the controls, so every layer is exercised
    for name in ("heap.run.self_s", "assertions.check_triple.self_s", "credits.subtract_match.self_s",
                 "landau.calibrate_witness.self_s", "recurrence.akra_bazzi_class.self_s",
                 "amortized.minimal_multiplier.self_s", "algorithms.time_fn.self_s",
                 "algorithms.class_check.self_s", "algorithms.build_registry.self_s"):
        assert layers[name] > 0, name
    assert layers["heap.run.calls"] > 0 and layers["heap.units"] > 0


def test_check_flags_wrong_verdicts_and_pin_mismatches():
    jobs = [Job("a", None), Job("b", None), Job("c", None), Job("d", None)]
    verdicts = [
        Verdict(True, {"a": 10}, units=10),
        Verdict(True, {"b": 7}, units=7),
        Verdict(False, note="post refuted"),
        Verdict(True, fixed={"d.class": "n ln n"}, units=None),
    ]
    golden = {
        "seeds": {"3": {"w": {"a": 10, "b": 8}}},
        "fixed": {"d.class": "n ln n"},
        "units": {"d": 5},
    }
    failures, units, pins, fixed = worker.check("w", jobs, verdicts, 3, 1.0, golden)
    assert failures == ["b: b=7, pinned 8", "c: wrong verdict (post refuted)"]
    assert units == 10 + 7 + 5
    assert pins == {"a": 10, "b": 7} and fixed == {"d.class": "n ln n"}
    # a seed without pins is still checked against its references
    failures, *_ = worker.check("w", jobs, verdicts, 4, 1.0, golden)
    assert failures == ["c: wrong verdict (post refuted)"]
