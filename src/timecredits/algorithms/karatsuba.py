"""Polynomial multiplication by the three-product split, equal lengths only.

Coefficient arithmetic is pure and free; every heap command is charged, and
the loop structure never branches on data, so the cost of a run depends on
the input length alone.  The runtime bound is therefore exact, not just an
upper bound, which the tests assert.
"""

from __future__ import annotations

from ..credits import CeilDivE, ConstE, FloorDivE, MulE, SubE, VarE, t_call, t_expr, t_lit, t_var
from ..heap import adrop, array_len, array_new, array_nth, array_upd, atake, proc, ret
from ..recurrence import AkraBazziSpec, eval_recurrence, one_spec_per_consts, recurrence_of

N = VarE("n")

KARATSUBA_CONSTS = {
    "base": 6,        # two length reads, two coefficient reads, one-cell result
    "len_reads": 2,
    "split_pad": 4,   # the four +1s of atake/adrop on both inputs
    "sum_cell": 2,    # write plus low read per cell of the two half sums
    "sum_extra": 1,   # additional high read on the overlap
    "sum_pad": 1,     # allocation pad per half sum
    "out_pad": 1,     # allocation pad of the result array
    "add_cell": 3,    # read-read-write per accumulated product cell
    "mid_cell": 4,    # the middle band reads z1, z0, the target, then writes
    "mid_extra": 1,   # z2 read where the middle band overlaps it
}


def schoolbook(p: list, q: list) -> list:
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def karatsuba_fun(p: list, q: list) -> list:
    if len(p) != len(q):
        raise ValueError("equal lengths required")
    n = len(p)
    if n == 1:
        return [p[0] * q[0]]
    m = -(-n // 2)
    p_lo, p_hi = p[:m], p[m:]
    q_lo, q_hi = q[:m], q[m:]
    ps = [p_lo[i] + (p_hi[i] if i < n - m else 0) for i in range(m)]
    qs = [q_lo[i] + (q_hi[i] if i < n - m else 0) for i in range(m)]
    z0 = karatsuba_fun(p_lo, q_lo)
    z2 = karatsuba_fun(p_hi, q_hi)
    z1 = karatsuba_fun(ps, qs)
    out = [0] * (2 * n - 1)
    for i, v in enumerate(z0):
        out[i] += v
    for i, v in enumerate(z2):
        out[2 * m + i] += v
    for i in range(2 * m - 1):
        mid = z1[i] - z0[i] - (z2[i] if i < len(z2) else 0)
        out[m + i] += mid
    return out


@proc
def karatsuba_impl(p, q):
    n = yield array_len(p)
    nq = yield array_len(q)
    if n != nq:
        yield array_nth(p, -1)  # unequal lengths are out of contract
    if n == 1:
        a = yield array_nth(p, 0)
        b = yield array_nth(q, 0)
        return (yield array_new(1, a * b))

    m = -(-n // 2)
    p_lo = yield atake(m, p)
    p_hi = yield adrop(m, p)
    q_lo = yield atake(m, q)
    q_hi = yield adrop(m, q)

    ps = yield array_new(m, 0)
    qs = yield array_new(m, 0)
    for src_lo, src_hi, dst in ((p_lo, p_hi, ps), (q_lo, q_hi, qs)):
        for i in range(m):
            u = yield array_nth(src_lo, i)
            if i < n - m:
                v = yield array_nth(src_hi, i)
                u = u + v
            yield array_upd(dst, i, u)

    z0 = yield karatsuba_impl(p_lo, q_lo)
    z2 = yield karatsuba_impl(p_hi, q_hi)
    z1 = yield karatsuba_impl(ps, qs)

    out = yield array_new(2 * n - 1, 0)
    for i in range(2 * m - 1):
        v = yield array_nth(z0, i)
        w = yield array_nth(out, i)
        yield array_upd(out, i, w + v)
    for i in range(2 * (n - m) - 1):
        v = yield array_nth(z2, i)
        w = yield array_nth(out, 2 * m + i)
        yield array_upd(out, 2 * m + i, w + v)
    for i in range(2 * m - 1):
        a = yield array_nth(z1, i)
        b = yield array_nth(z0, i)
        mid = a - b
        if i < 2 * (n - m) - 1:
            c = yield array_nth(z2, i)
            mid = mid - c
        w = yield array_nth(out, m + i)
        yield array_upd(out, m + i, w + mid)
    return (yield ret(out))


def _toll_expr(consts):
    """The recursive-case toll, mirroring the loops of karatsuba_impl, over
    atoms of positive slope: n, the two half widths, and the two output
    band widths 2*ceil - 1 and 2*floor - 1."""
    half_up = CeilDivE(N, 2)
    half_dn = FloorDivE(N, 2)
    band_up = SubE(MulE(2, half_up), ConstE(1))
    band_dn = SubE(MulE(2, half_dn), ConstE(1))
    const = (
        consts["len_reads"]
        + consts["split_pad"]
        + 2 * consts["sum_pad"]
        + consts["out_pad"]
        + 2  # the band-overlap cell of the output plus the trailing return
    )
    return (
        t_lit(const)
        + 2 * t_var("n")
        + (2 + 2 * consts["sum_cell"]) * t_expr(half_up)
        + (2 * consts["sum_extra"]) * t_expr(half_dn)
        + (1 + consts["add_cell"] + consts["mid_cell"]) * t_expr(band_up)
        + (1 + consts["add_cell"] + consts["mid_extra"]) * t_expr(band_dn)
    )


def _karatsuba_total(consts):
    """The recursive branch's budget: the spec's right-hand side."""
    half_up = CeilDivE(N, 2)
    recursion = 2 * t_call("karatsuba_time", half_up) + t_call(
        "karatsuba_time", FloorDivE(N, 2)
    )
    return _toll_expr(consts) + recursion


@one_spec_per_consts
def karatsuba_recurrence(consts=KARATSUBA_CONSTS) -> AkraBazziSpec:
    base = {0: consts["base"], 1: consts["base"]}
    return recurrence_of(_karatsuba_total, consts, "karatsuba_time", 2, base)


def karatsuba_time(n: int, consts=KARATSUBA_CONSTS) -> int:
    return eval_recurrence(karatsuba_recurrence(consts), n)


def karatsuba_obligations(consts=KARATSUBA_CONSTS):
    return [
        ("base", t_lit(consts["base"]), t_lit(6), []),
        ("recursive", _karatsuba_total(consts), _karatsuba_total(KARATSUBA_CONSTS), []),
    ]
