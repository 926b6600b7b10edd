"""The `verify` suites in output order; the keys of SUITES are the --suite choices.

Entries look library functions up at call time (C.verify_theorem, not a bound
name), so wrappers installed on their modules see every call.
"""

import numpy as np

from . import constructions as C
from . import expsums as E
from . import kernels
from . import kloosterman as kl
from .gf2n import check_n, default_ctx

RECURSION_PAIRS = ((2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (5, 2))


def _lemma23(m: int) -> list[dict]:
    values = kl.scan(m)
    got = sorted(set(values[1:].tolist()))
    want = list(kl.lachaud_wolfmann_set(m))
    info_only = m < 3  # the value-set statement is gated for m >= 3 only
    out = [C.check_record("lemma23", m, None, "value_set", got == want, info_only,
                          f"got={got} want={want}")]
    cong = (values % 4 == 3).all()
    weil = (values[1:] ** 2 <= 4 << m).all()
    out.append(C.check_record("lemma23", m, None, "congruence", cong, info_only))
    out.append(C.check_record("lemma23", m, None, "weil_bound", weil, False))
    return out


def _lemma31(m: int) -> list[dict]:
    """Lemma 3.1 on the orbits a_k = s^k of GF(2^m)^* and of the unit circle U.

    For subfield a the circle equation is a z^2 + z + a = 0, solved by v/a and
    (v+1)/a iff v^2 + v = a^2.  They lie on U iff tr_rel(v) = 1, since
    z conj(z) = v conj(v) / a^2 and v conj(v) = v^2 + v iff conj(v) = v + 1.
    """
    ctx = default_ctx(m)
    units = (1 << m) - 1
    a = ctx.cyclic(units)
    square, conj = ctx.frobenius(1), ctx.frobenius(m)
    trace_one = ctx.chi(a, C.find_lambda(ctx)) < 0  # tr_sub(a) = tr(lam a)
    a2 = kernels.linear_map(a, square)
    v = kernels.linear_map(a2, ctx.artin_schreier_cols())
    roots_ok = np.array_equal(kernels.linear_map(v, square) ^ v, a2)
    counts_ok = np.array_equal(kernels.linear_map(v, conj) ^ v == 1, trace_one)
    u = ctx.cyclic((1 << m) + 1)[1:]  # U without 1
    hits, per_hit = np.unique(kernels.linear_map(u, conj) ^ u, return_counts=True)
    h1 = np.sort(a[trace_one[-np.arange(units) % units]])  # 1/a_k = a_-k
    two_to_one = np.array_equal(hits, h1) and (per_hit == 2).all()
    return [
        C.check_record("lemma31", m, None, "root_counts", counts_ok),
        C.check_record("lemma31", m, None, "roots_on_circle", roots_ok),
        C.check_record("lemma31", m, None, "two_to_one_onto_H1", two_to_one),
    ]


def _fkl(m: int) -> list[dict]:
    ctx = default_ctx(m)
    kmap = kl.subfield_k_map(ctx)
    bad = [mu for mu in ctx.subgroup("subfield_units")
           if kl.unit_circle_sum(ctx, mu) != -kmap[mu]]
    return [C.check_record("fkl", m, None, "circle_sum_equals_minus_k", not bad,
                           detail=f"mus={1 << m} failures={len(bad)}")]


def _recursion() -> list[dict]:
    out = []
    for m, s in RECURSION_PAIRS:
        rec = kl.kloosterman_recursive(m, s, kl.scan(m))
        ok = all(int(rec[a]) == kl.kloosterman_lifted_direct(m, s, a)
                 for a in range(1, 1 << m))
        zero_ok = kl.kloosterman_lifted_direct(m, s, 0) == -1
        out.append(C.check_record("recursion", m, None, f"recursive_eq_direct_s{s}",
                                  ok and zero_ok, detail=f"(m,s)=({m},{s})"))
    return out


def _counts(m: int) -> list[dict]:
    ctx = default_ctx(m)
    out = []
    for theorem, (which, mus, _, _) in C.THEOREMS.items():
        name = f"count_relations_{which}"
        for mu in mus(ctx):  # thm32 and thm34 have usually made these spectra already
            relations_ok, n0_ok, detail, _ = C.count_gate(
                theorem, C.walsh_summary(ctx, which, mu, True)[0], m)
            ok = relations_ok and n0_ok
            out.append(C.check_record("counts", m, mu, name, ok, detail="" if ok else detail))
    return out


# suite -> (smallest m, field degree n per unit of m, check records for one m).
# recursion is the exception: it runs its fixed RECURSION_PAIRS once, whatever
# the m range, so it has neither a smallest m nor a degree per m.
SUITES = {
    "thm32": (2, 2, lambda m: C.verify_theorem("thm32", m)),
    "thm34": (2, 2, lambda m: C.verify_theorem("thm34", m)),
    "thm35": (2, 2, lambda m: E.theorem35_check(default_ctx(m))),
    "lemma23": (1, 1, _lemma23),
    "lemma31": (2, 2, _lemma31),
    "fkl": (2, 2, _fkl),
    "recursion": (None, None, _recursion),
    "counts": (2, 2, _counts),
    "qsets": (2, 2, lambda m: E.q_identity_check(default_ctx(m))),
}


def check_cap(suites, ms: range) -> None:
    """Raise TooLarge before any of `suites` runs if one would need a field over MAX_N.

    recursion's fixed pairs need at most GF(2^10), far below the cap.
    """
    check_n(max((SUITES[suite][1] or 0) * ms[-1] for suite in suites))


def run_suite(suite: str, ms: range) -> list[dict]:
    """The check records of one suite for every m of ms, in ascending m."""
    lo, _, records = SUITES[suite]
    if lo is None:  # fixed (m, s) pairs, independent of the m range
        return records()
    return [r for m in ms if m >= lo for r in records(m)]
