"""The `verify` suites in output order; the keys of SUITES are the --suite choices.

Entries look library functions up at call time (C.verify_theorem, not a bound
name), so wrappers installed on their modules see every call.
"""

from collections import Counter

from . import constructions as C
from . import expsums as E
from . import kloosterman as kl
from .gf2n import MAX_N, TooLarge, default_ctx

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
    ctx = default_ctx(m)
    counts_ok = roots_ok = True
    for a in ctx.subgroup("subfield_units"):
        try:  # the solver checks every root it returns against the equation and the circle
            roots = C.solve_circle_equation(ctx, a)
        except ArithmeticError:
            roots_ok = False
            continue
        counts_ok &= len(roots) == (2 if ctx.tr_sub(a) == 1 else 0)
    hits = Counter(ctx.tr_rel(u) for u in ctx.subgroup("unit_circle") if u != 1)
    h1 = {x for x in ctx.subgroup("subfield_units") if ctx.tr_sub(ctx.inv(x)) == 1}
    two_to_one = set(hits) == h1 and all(v == 2 for v in hits.values())
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
    for name, which, relations, mus in (
            ("count_relations_f", "f", C.count_relations_f, ctx.subgroup("subfield_units")),
            ("count_relations_g", "g", C.count_relations_g, C.mus_with_k(ctx, -1))):
        for mu in mus:
            try:  # thm32 and thm34 have usually made these spectra already
                counts, rel = relations(C.spectrum_summary(ctx, which, mu)[0], m)
            except C.UnexpectedValue as e:  # a value outside the theorem set fails the check
                out.append(C.check_record("counts", m, mu, name, False, detail=str(e)))
                continue
            out.append(C.check_record("counts", m, mu, name,
                                      all(rel.values()) and (counts[0] > 0 or m < 3)))
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
    n = max((SUITES[suite][1] or 0) * ms[-1] for suite in suites)
    if n > MAX_N:
        raise TooLarge(f"n={n} exceeds capability cap {MAX_N}")


def run_suite(suite: str, ms: range) -> list[dict]:
    """The check records of one suite for every m of ms, in ascending m."""
    lo, _, records = SUITES[suite]
    if lo is None:  # fixed (m, s) pairs, independent of the m range
        return records()
    return [r for m in ms if m >= lo for r in records(m)]
