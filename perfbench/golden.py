"""Regenerate golden.json: the pinned costs and verdicts every full-size
pass is compared with.

    python3 perfbench/golden.py

Runs one traced pass per workload for the default seed (0) and the
held-out seed (1), skipping the comparison with the current file, and
refuses to write if any verdict is wrong or if two passes disagree on a
seed-independent value.  Pinned values are:

- each interpreter run's charged cost (seeded);
- each ledger's total actual cost, final potential and minimal K (seeded);
- each claimed class's rendering, each obligation's hint count, the
  builtin recurrences' solutions and the control K (every seed);
- the charged units of jobs whose runs happen inside the library, where
  the job itself cannot see the cost (every seed).

Regenerate only for a change that is meant to alter a cost or a verdict.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SEEDS = (0, 1)
WORKLOADS = ("interp-sweep", "ledger-growth", "claim-check")


def traced_pass(workload: str, seed: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload,
         "--seed", str(seed), "--trace", "1", "--unpinned"],
        capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def merge_fixed(into: dict, new: dict, where: str) -> None:
    for key, value in new.items():
        if into.setdefault(key, value) != value:
            raise SystemExit(f"{where}: {key} = {value!r} disagrees with {into[key]!r}")


def main() -> int:
    golden = {"seeds": {}, "fixed": {}, "units": {}}
    for seed in SEEDS:
        seeded = golden["seeds"].setdefault(str(seed), {})
        for workload in WORKLOADS:
            result = traced_pass(workload, seed)
            where = f"{workload} seed {seed}"
            if result["failed"]:
                raise SystemExit(f"{where}: wrong verdicts: {result['failures']}")
            seeded[workload] = result["pins"]
            merge_fixed(golden["fixed"], result["fixed"], where)
            merge_fixed(golden["units"], result["opaque_units"], where)
            print(f"{where}: {len(result['pins'])} pins", file=sys.stderr)
    with open(HERE / "golden.json", "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
