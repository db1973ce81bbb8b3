"""Command-line front end: run case studies with cost reports, solve
recurrence specs, check amortized ledgers, and emit the consolidated table.

Exit codes: 0 all checks passed, 1 a check failed, 2 invalid input.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from functools import partial
from typing import Optional

from .amortized import K_MAX, HarnessError, NoMultiplier, minimal_multiplier, run_sequence
from .algorithms import ALGORITHM_NAMES, all_bundles, get_bundle
from .algorithms.bundles import LEDGERS, STUDIES
from .recurrence import RecurrenceError, akra_bazzi_class, empirical_ratio_check, load_spec

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2

# the case studies whose spec is an Akra-Bazzi recurrence
BUILTIN_SPECS = {s.name: partial(s.spec, s.consts) for s in STUDIES if s.case}

_MASK64 = (1 << 64) - 1
_XXPRIME_1 = 11400714785074694791
_XXPRIME_2 = 14029467366897019727
_XXPRIME_5 = 2870177450012600261
_HASH_MODULUS = (1 << 61) - 1


def trial_seed(*parts: int) -> int:
    """The seed of one `run` trial: CPython's 64-bit hash of the tuple of
    ints `parts` (the xxHash-style tuple hash of 3.8+ over ints reduced
    modulo 2^61 - 1), computed explicitly so inputs do not depend on the
    interpreter's hash."""
    acc = _XXPRIME_5
    for x in parts:
        lane = abs(x) % _HASH_MODULUS * (-1 if x < 0 else 1)
        lane = -2 if lane == -1 else lane
        acc = (acc + (lane & _MASK64) * _XXPRIME_2) & _MASK64
        acc = ((acc << 31) | (acc >> 33)) & _MASK64
        acc = acc * _XXPRIME_1 & _MASK64
    acc = (acc + (len(parts) ^ _XXPRIME_5 ^ 3527539)) & _MASK64
    if acc == _MASK64:
        return 1546275796
    return acc - (1 << 64) if acc >> 63 else acc


def positive_int(text: str) -> int:
    """argparse type for counts and multipliers: a trial or operation count
    below 1 would make every check pass vacuously, and so would a ledger
    checked at another multiplier than the one asked for."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


class OutputError(Exception):
    """An --out path that cannot be written: `main` reports it and exits 2."""


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _emit(lines: list[str], out: Optional[str]) -> None:
    text = "\n".join(lines) + "\n"
    if out:
        _write(out, text)
    else:
        sys.stdout.write(text)


def _table(header: list[str], rows: list[list], fmt: str) -> list[str]:
    cells = [[str(c) for c in row] for row in rows]
    if fmt == "csv":
        lines = ["# report v1"]
        lines.append(",".join(header))
        lines.extend(",".join(row) for row in cells)
        return lines
    widths = [max(len(h), *(len(r[i]) for r in cells)) if cells else len(h) for i, h in enumerate(header)]
    def fmt_row(row):
        return "| " + " | ".join(c.ljust(w) for c, w in zip(row, widths)) + " |"
    lines = [fmt_row(header), "|" + "|".join("-" * (w + 2) for w in widths) + "|"]
    lines.extend(fmt_row(r) for r in cells)
    return lines


def cmd_run(args) -> int:
    try:
        bundle = get_bundle(args.algo)
    except KeyError:
        print(f"error: unknown algorithm {args.algo!r}; known: {', '.join(ALGORITHM_NAMES)}",
              file=sys.stderr)
        return EXIT_BAD_INPUT
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s != ""]
        if not sizes or any(s < 0 for s in sizes):
            raise ValueError
    except ValueError:
        print(f"error: bad --sizes {args.sizes!r}", file=sys.stderr)
        return EXIT_BAD_INPUT

    rows = []
    failed = False
    for size in sizes:
        for trial in range(args.trials):
            rng = random.Random(trial_seed(args.seed, size, trial) & 0x7FFFFFFF)
            result, bound, within = bundle.check_run(bundle.gen_input(rng, size))
            failed = failed or not (within and result.ok)
            ratio = result.cost / bound if bound else 0.0
            # label the row with the size that ran (a generator may clamp
            # the request); knapsack's (items, capacity) keeps the request
            ran = result.size if isinstance(result.size, int) else size
            rows.append(
                [ran, trial, result.cost, bound, f"{ratio:.4f}",
                 "yes" if result.ok else "NO", "yes" if within else "NO"]
            )
    header = ["n", "trial", "cost", "bound", "ratio", "correct", "within_bound"]
    _emit(_table(header, rows, args.format), args.out)
    return EXIT_CHECK_FAILED if failed else EXIT_OK


def cmd_recurrence(args) -> int:
    if args.builtin:
        spec = BUILTIN_SPECS[args.builtin]()
    else:
        if not args.spec:
            print("error: provide a spec file or --builtin NAME", file=sys.stderr)
            return EXIT_BAD_INPUT
        try:
            spec = load_spec(args.spec)
        except (OSError, json.JSONDecodeError, KeyError, RecurrenceError, ValueError) as exc:
            print(f"error: cannot load spec: {exc}", file=sys.stderr)
            return EXIT_BAD_INPUT
    try:
        result = akra_bazzi_class(spec)
        if spec.g_concrete is not None:
            report = empirical_ratio_check(spec, result.result_class, 2 ** 8, 2 ** 16)
    except RecurrenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    lines = [
        f"characteristic exponent p = {result.p:.9f}",
        f"case: {result.case}",
        f"result: Theta({result.result_class.render()})",
        f"residual: {result.residual:.2e}",
    ]
    code = EXIT_OK
    if spec.g_concrete is not None:
        lines.append(f"empirical check: {report.render()}")
        if not report.passed:
            code = EXIT_CHECK_FAILED
    else:
        lines.append("empirical check: skipped (no concrete toll in spec)")
    _emit(lines, args.out)
    return code


def cmd_amortized(args) -> int:
    factory, fresh, shape, default_multiplier = LEDGERS[args.scheme]
    scheme = factory(args.multiplier or default_multiplier)
    bundle = get_bundle(args.scheme)
    rng = random.Random(args.seed)
    script = bundle.gen_input(rng, args.ops)
    report = run_sequence(scheme, script, fresh(), seed=args.seed)
    lines = []
    if args.out:
        _write(args.out, report.to_csv())
        lines.append(f"ledger written to {args.out}")
    lines.append(
        f"ops: {len(report.entries)}, total actual: {report.total_actual}, "
        f"total amortized: {report.total_amortized}"
    )
    lines.append(
        f"potential: initial {report.initial_potential}, final {report.final_potential}"
    )
    lines.append(f"per-op inequality: {'pass' if report.per_op_ok else 'FAIL'}")
    lines.append(f"telescoped inequality: {'pass' if report.telescoped_ok else 'FAIL'}")
    if not report.passed:
        lines.append(report.render_failure())
        _emit(lines, None)
        return EXIT_CHECK_FAILED
    try:
        found = minimal_multiplier(scheme, shape, report.entries[:2000])
        lines.append(f"minimal multiplier on this corpus: K = {found.multiplier}")
    except NoMultiplier as exc:
        lines.append(f"minimal multiplier: none up to {K_MAX} ({exc})")
        _emit(lines, None)
        return EXIT_CHECK_FAILED
    _emit(lines, None)
    return EXIT_OK


def cmd_report(args) -> int:
    bundles = all_bundles()
    rows = []
    failed = False
    rng = random.Random(args.seed)
    sizes = {
        "merge_sort": 512, "insertion_sort": 128, "binary_search": 1024,
        "karatsuba": 64, "select": 500, "knapsack": 24,
        "dynarray": 2000, "skew_heap": 1500, "splay_tree": 1500,
    }
    for name in ALGORITHM_NAMES:
        bundle = bundles[name]
        size = sizes[name]
        worst_ratio = 0.0
        ok = True
        for _ in range(args.trials):
            result, bound, within = bundle.check_run(bundle.gen_input(rng, size))
            worst_ratio = max(worst_ratio, result.cost / bound if bound else 0.0)
            ok = ok and result.ok and within
        class_ok = bundle.class_check()
        if not (ok and class_ok):
            failed = True
        rows.append(
            [name, size, f"{worst_ratio:.4f}", bundle.claim().render(),
             "pass" if class_ok else "FAIL", "pass" if ok else "FAIL"]
        )
    header = ["case study", "max n", "max cost/bound", "class", "class check", "runs"]
    _emit(_table(header, rows, args.format), args.out)
    return EXIT_CHECK_FAILED if failed else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="timecredits",
        description="Run cost-instrumented case studies and check their "
        "runtime bounds, recurrences, and amortized claims.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one case study across sizes")
    p_run.add_argument("algo")
    p_run.add_argument("--sizes", default="16,64,256")
    p_run.add_argument("--trials", type=positive_int, default=3)
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--format", choices=("csv", "markdown"), default="csv")
    p_run.add_argument("--out")
    p_run.set_defaults(fn=cmd_run)

    p_rec = sub.add_parser("recurrence", help="solve a recurrence spec file")
    p_rec.add_argument("spec", nargs="?")
    p_rec.add_argument("--builtin", choices=sorted(BUILTIN_SPECS))
    p_rec.add_argument("--out")
    p_rec.set_defaults(fn=cmd_recurrence)

    p_am = sub.add_parser("amortized", help="check an amortized ledger")
    p_am.add_argument("scheme", choices=sorted(LEDGERS))
    p_am.add_argument("--ops", type=positive_int, default=10000)
    p_am.add_argument("--seed", type=int, default=1)
    p_am.add_argument("--multiplier", type=positive_int,
                      help="default: the structure's own multiplier")
    p_am.add_argument("--out")
    p_am.set_defaults(fn=cmd_amortized)

    p_rep = sub.add_parser("report", help="consolidated table over all nine case studies")
    p_rep.add_argument("--trials", type=positive_int, default=2)
    p_rep.add_argument("--seed", type=int, default=0)
    p_rep.add_argument("--format", choices=("csv", "markdown"), default="markdown")
    p_rep.add_argument("--out")
    p_rep.set_defaults(fn=cmd_report)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage already; normalize other codes
        return EXIT_BAD_INPUT if exc.code not in (0,) else 0
    try:
        return args.fn(args)
    except (OutputError, HarnessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT if isinstance(exc, OutputError) else EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
