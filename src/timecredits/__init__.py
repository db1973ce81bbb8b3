"""Toolkit for exact-cost execution of heap programs and for checking
time-credit assertions, asymptotic bounds, and amortized cost claims
against those executions."""

from .heap import (
    FAILURE,
    Addr,
    Computation,
    Failure,
    Heap,
    Success,
    adrop,
    agrow,
    array_len,
    array_new,
    array_nth,
    array_of_list,
    array_to_list,
    array_upd,
    atake,
    bind,
    empty_heap,
    proc,
    ref_new,
    ref_read,
    ref_write,
    ret,
    run,
    run_traced,
)
from .assertions import (
    Credits,
    Emp,
    ExistsVal,
    HoareTriple,
    PartialHeap,
    PointsToArray,
    PointsToRef,
    Pure,
    SepConj,
    Top,
    check_triple,
    check_triple_sampled,
    pheap,
    sat,
)
from .credits import Hint, PolyForm, apply_hint, normalize, subtract_match
from .landau import (
    BoundRegistry,
    PolyLog,
    PolyLog2,
    ThetaWitness,
    analyze_form,
    check_theta_witness,
    compose_linear,
    o_subset,
    o_subset2,
    sum_class2,
    sum_theta,
    sum_theta2,
)
from .recurrence import (
    AkraBazziSpec,
    LinearRecSpec,
    RecTerm,
    akra_bazzi_class,
    empirical_ratio_check,
    eval_linear,
    eval_recurrence,
    linear_rec_class,
    solve_exponent,
)
from .amortized import (
    AmortizedOp,
    AmortizedScheme,
    OpLedgerEntry,
    check_op_inequality,
    minimal_multiplier,
    run_sequence,
)

__version__ = "0.1.0"
