"""Potential-function accounting for amortized cost claims.

A scheme bundles a data structure sort with a natural-valued potential, a
size measure, and named operations whose actual costs come from the
interpreter.  Each application is checked against the amortized inequality
claimed_cost + potential_before >= actual_cost + potential_after, and whole
operation sequences are additionally checked in telescoped form.  The
smallest constant K making K * shape(size) an admissible claim over a corpus
of recorded ledger entries is computed in closed form, entry by entry.
"""

from __future__ import annotations

from typing import Any, Callable, NamedTuple, Optional, Sequence

from .heap import FAILURE, Outcome, Success
from .records import record


class HarnessError(Exception):
    """An instrumented operation failed, or its heap parted from its mirror."""


def succeeded(out: Outcome) -> Success:
    """The outcome of an instrumented operation, which must not fail."""
    if out is FAILURE:
        raise HarnessError("an instrumented operation failed in the interpreter")
    return out


class NoMultiplier(Exception):
    """No multiplier up to K_MAX covers the corpus."""


K_MAX = 1024


@record
class AmortizedOp:
    name: str
    # (structure, argument) -> (new structure, actual interpreter cost)
    apply: Callable[[Any, Any], tuple[Any, int]]
    # claimed amortized cost as a function of the input's size measure
    amortized_bound: Callable[[int], int]


@record
class AmortizedScheme:
    name: str
    potential: Callable[[Any], int]
    size_measure: Callable[[Any], int]
    ops: dict[str, AmortizedOp]
    precondition: Callable[[Any], bool] = lambda s: True


class OpLedgerEntry(NamedTuple):
    op: str
    size: int
    actual_cost: int
    amortized: int
    potential_before: int
    potential_after: int

    @property
    def slack(self) -> int:
        return self.amortized + self.potential_before - self.actual_cost - self.potential_after

    @property
    def passes(self) -> bool:
        return self.slack >= 0

    def csv_row(self) -> str:
        return (
            f"{self.op},{self.size},{self.actual_cost},{self.amortized},"
            f"{self.potential_before},{self.potential_after},{self.slack}"
        )


CSV_HEADER = "# ledger v1\nop,n,f_t,f_at,P_before,P_after,slack"


def check_op_inequality(
    scheme: AmortizedScheme, op_name: str, structure: Any, arg: Any = None
) -> tuple[OpLedgerEntry, Any]:
    """Run one instrumented operation and produce its ledger entry.

    Also returns the output structure so that callers can chain checks.
    """
    if not scheme.precondition(structure):
        raise HarnessError(f"{scheme.name}: structural precondition failed")
    op = scheme.ops[op_name]
    p_before = scheme.potential(structure)
    if p_before < 0:
        raise HarnessError("potential went negative")
    size = scheme.size_measure(structure)
    new_structure, cost = op.apply(structure, arg)
    p_after = scheme.potential(new_structure)
    if p_after < 0:
        raise HarnessError("potential went negative")
    entry = OpLedgerEntry(op_name, size, cost, op.amortized_bound(size), p_before, p_after)
    return entry, new_structure


@record
class SequenceReport:
    scheme: str
    entries: list[OpLedgerEntry]
    initial_potential: int
    final_potential: int
    seed: Optional[int] = None
    ops_replay: Optional[list] = None

    @property
    def total_actual(self) -> int:
        return sum(e.actual_cost for e in self.entries)

    @property
    def total_amortized(self) -> int:
        return sum(e.amortized for e in self.entries)

    @property
    def telescoped_ok(self) -> bool:
        return self.total_actual <= (
            self.total_amortized + self.initial_potential - self.final_potential
        )

    @property
    def per_op_ok(self) -> bool:
        return all(e.passes for e in self.entries)

    @property
    def passed(self) -> bool:
        return self.per_op_ok and self.telescoped_ok

    def first_failure(self) -> Optional[OpLedgerEntry]:
        for e in self.entries:
            if not e.passes:
                return e
        return None

    def render_failure(self) -> str:
        entry = self.first_failure()
        if entry is None and self.passed:
            return "no failure"
        lines = [f"scheme: {self.scheme}", f"seed: {self.seed}"]
        if entry is not None:
            lines.append(
                f"failing op: {entry.op} at size {entry.size}, slack {entry.slack}"
            )
        if self.ops_replay is not None:
            lines.append("replay: " + "; ".join(f"{op}({a!r})" for op, a in self.ops_replay))
        return "\n".join(lines)

    def to_csv(self) -> str:
        rows = [CSV_HEADER]
        rows.extend(e.csv_row() for e in self.entries)
        return "\n".join(rows) + "\n"


def run_sequence(
    scheme: AmortizedScheme,
    ops: Sequence[tuple[str, Any]],
    initial: Any,
    seed: Optional[int] = None,
) -> SequenceReport:
    """Apply the operations in order, collecting every ledger entry plus the
    telescoped total check."""
    structure = initial
    entries = []
    p0 = scheme.potential(initial)
    for op_name, arg in ops:
        entry, structure = check_op_inequality(scheme, op_name, structure, arg)
        entries.append(entry)
    return SequenceReport(
        scheme=scheme.name,
        entries=entries,
        initial_potential=p0,
        final_potential=scheme.potential(structure),
        seed=seed,
        ops_replay=list(ops),
    )


def collect_corpus(
    scheme: AmortizedScheme, ops: Sequence[tuple[str, Any]], initial: Any
) -> list[OpLedgerEntry]:
    """The ledger entries a sequence produces, for the multiplier computation."""
    return run_sequence(scheme, ops, initial).entries


@record
class MultiplierResult:
    multiplier: int
    binding: OpLedgerEntry  # tightest-slack instance at the returned K


def minimal_multiplier(
    scheme: AmortizedScheme,
    shape: Callable[[int], int],
    corpus: Sequence[OpLedgerEntry],
) -> MultiplierResult:
    """The smallest K >= 1 for which K * shape(n) passes every corpus entry.

    An entry passes at K exactly when K * shape(size) >= actual_cost +
    potential_after - potential_before, so with shape >= 1 its least passing
    K is that difference divided by shape(size), rounded up; K is the largest
    of these.  Costs and potentials do not depend on K, so the entries are
    used as recorded and the scheme is not consulted.
    """
    if not corpus:
        raise ValueError("empty corpus")
    shapes = [shape(e.size) for e in corpus]
    for e, s in zip(corpus, shapes):
        if s < 1:
            raise ValueError(f"shape({e.size}) = {s} is below 1")
    needs = [e.actual_cost + e.potential_after - e.potential_before for e in corpus]
    k = max(1, *(-(-need // s) for need, s in zip(needs, shapes)))
    if k > K_MAX:
        raise NoMultiplier(f"no multiplier up to {K_MAX} covers the corpus")
    # the binding entry is the first of least slack k * shape - need
    i = min(range(len(corpus)), key=lambda i: k * shapes[i] - needs[i])
    return MultiplierResult(k, corpus[i]._replace(amortized=k * shapes[i]))
