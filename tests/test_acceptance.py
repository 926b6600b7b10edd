"""Acceptance gates.

One test per criterion, each printing a single PASS/FAIL line (visible with
pytest -s; the -v result line carries the same verdict).  Tolerances are
exact equalities throughout; runtime budgets are asserted where the
criterion states one.
"""

import time

import numpy as np
import pytest

from walshlab import boolfun as bf
from walshlab import constructions as C
from walshlab import expsums as E
from walshlab import kloosterman as kl
from walshlab import walsh
from walshlab.gf2n import create_ctx, default_ctx, default_field


def _line(num, name, ok, extra=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({extra})" if extra else ""
    print(f"criterion {num:02d} {name}: {tag}{suffix}")
    assert ok, f"criterion {num:02d} {name} failed {suffix}"


def _dist(table):
    return walsh.distribution(walsh.wht_fast(table))


# shared heavy artifacts: distributions for criteria 3/4, reused by 10


@pytest.fixture(scope="module")
def f_family_dists():
    # (elapsed_seconds, {m: {mu: distribution}})
    t0 = time.perf_counter()
    out = {}
    for m in range(3, 9):
        ctx = default_ctx(m)
        out[m] = {mu: _dist(C.build_f(ctx, mu)) for mu in ctx.subgroup("subfield_units")}
    return time.perf_counter() - t0, out


@pytest.fixture(scope="module")
def g_family_dists():
    # (elapsed_seconds, {m: {mu: (distribution, weight)}})
    t0 = time.perf_counter()
    out = {}
    for m in range(3, 9):
        ctx = default_ctx(m)
        fam = {}
        for mu in C.mus_with_k(ctx, -1):
            table = C.build_g(ctx, mu)
            fam[mu] = (_dist(table), bf.weight(table))
        out[m] = fam
    return time.perf_counter() - t0, out


F_TABLES = {
    4: {-16: 92, 0: 80, 16: 64, 32: 16, 48: 4},
    5: {-32: 386, 0: 310, 32: 258, 64: 50, 96: 20},
    6: {-64: 1548, 0: 1344, 64: 856, 128: 288, 192: 60},
}
G_TABLES = {
    3: {-16: 4, -8: 12, 0: 24, 8: 20, 16: 4},
    5: {-64: 64, -32: 236, 0: 396, 32: 260, 64: 68},
    7: {-256: 1016, -128: 4072, 0: 6072, 128: 4216, 256: 1008},
}


def test_criterion_01_f_reference_tables():
    t0 = time.perf_counter()
    ok = True
    for m, want in F_TABLES.items():
        got = _dist(C.build_f(default_ctx(m), 1))
        ok &= got == want
        ok &= sum(got.values()) == 1 << (2 * m)
    elapsed = time.perf_counter() - t0
    _line(1, "f reference tables m=4,5,6", ok and elapsed < 1.0, f"{elapsed:.2f}s")


def test_criterion_02_g_reference_tables():
    t0 = time.perf_counter()
    ok = True
    for m, want in G_TABLES.items():
        ctx = default_ctx(m)
        hits = [mu for mu in C.mus_with_k(ctx, -1) if _dist(C.build_g(ctx, mu)) == want]
        ok &= bool(hits)
    elapsed = time.perf_counter() - t0
    _line(2, "g reference tables m=3,5,7", ok and elapsed < 10.0, f"{elapsed:.2f}s")


def test_criterion_03_f_value_set_and_nonlinearity(f_family_dists):
    build_time, families = f_family_dists
    t0 = time.perf_counter()
    ok = True
    for m in range(3, 9):
        allowed = {0, 1 << m, -(1 << m), 1 << (m + 1), 3 << m}
        bound = (1 << (2 * m - 1)) - 3 * (1 << (m - 1))
        for mu, dist in families[m].items():
            ok &= set(dist) <= allowed
            nl = (1 << (2 * m - 1)) - max(abs(v) for v in dist) // 2
            ok &= nl >= bound
    elapsed = build_time + time.perf_counter() - t0
    _line(3, "f gate m=3..8 all mu", ok and elapsed < 120.0, f"{elapsed:.2f}s incl builds")


def test_criterion_04_g_value_set_nl_balance(g_family_dists):
    build_time, families = g_family_dists
    t0 = time.perf_counter()
    ok = True
    for m in range(3, 9):
        allowed = {0, 1 << m, -(1 << m), 1 << (m + 1), -(1 << (m + 1))}
        ok &= bool(families[m])  # k = -1 attained at every m
        for mu, (dist, weight) in families[m].items():
            ok &= set(dist) <= allowed
            nl = (1 << (2 * m - 1)) - max(abs(v) for v in dist) // 2
            ok &= nl == (1 << (2 * m - 1)) - (1 << m)
            ok &= (weight == 1 << (2 * m - 1)) == bool(m % 2)
    elapsed = build_time + time.perf_counter() - t0
    _line(4, "g gate m=3..8, k=-1 mus", ok and elapsed < 60.0, f"{elapsed:.2f}s incl builds")


def test_criterion_05_ratio_sum_identity():
    t0 = time.perf_counter()
    ok = True
    for m in range(2, 9):
        ctx = default_ctx(m)
        for mu in ctx.subgroup("subfield_units"):
            ok &= E.theorem35_check(ctx, mu)["pass"]
    elapsed = time.perf_counter() - t0
    _line(5, "ratio-sum identity m=2..8 all mu", ok and elapsed < 120.0, f"{elapsed:.2f}s")


def test_criterion_06_circle_sum_equals_minus_k():
    t0 = time.perf_counter()
    ok = True
    for m in range(2, 11):
        ctx = default_ctx(m)
        kmap = kl.subfield_k_map(ctx)
        for mu in ctx.subgroup("subfield_units"):
            ok &= kl.unit_circle_sum(ctx, mu) == -kmap[mu]
    elapsed = time.perf_counter() - t0
    _line(6, "circle sum = -k_m m=2..10 all mu", ok and elapsed < 60.0, f"{elapsed:.2f}s")


def test_criterion_07_lift_recursion():
    t0 = time.perf_counter()
    ok = True
    for m, s in ((2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (5, 2)):
        sc = kl.scan(m)
        rec = kl.kloosterman_recursive(m, s, sc)
        ok &= all(int(rec[a]) == kl.kloosterman_lifted_direct(m, s, a)
                  for a in range(1, 1 << m))
        ok &= kl.kloosterman_lifted_direct(m, s, 0) == -1
    elapsed = time.perf_counter() - t0
    _line(7, "lift recursion = direct, six (m,s) pairs", ok and elapsed < 60.0,
          f"{elapsed:.2f}s")


def test_criterion_08_kloosterman_value_sets():
    t0 = time.perf_counter()
    ok = True
    for m in range(3, 13):
        ok &= tuple(sorted(set(kl.scan(m)[1:].tolist()))) == kl.lachaud_wolfmann_set(m)
    elapsed = time.perf_counter() - t0
    _line(8, "Kloosterman value sets m=3..12", ok and elapsed < 120.0, f"{elapsed:.2f}s")


def test_criterion_09_circle_equation_and_two_to_one():
    t0 = time.perf_counter()
    ok = True
    for m in range(2, 9):
        ctx = default_ctx(m)
        for a in ctx.subgroup("subfield_units"):
            roots = C.solve_circle_equation(ctx, a)
            want = 2 if ctx.tr_sub(a) == 1 else 0
            ok &= len(roots) == want
            for z in roots:
                ok &= ctx.on_unit_circle(z)
                ok &= ctx.mul(a, ctx.sq(z)) ^ z ^ a == 0
        hits = {}
        for u in ctx.subgroup("unit_circle"):
            if u != 1:
                hits[ctx.tr_rel(u)] = hits.get(ctx.tr_rel(u), 0) + 1
        h1 = {x for x in ctx.subgroup("subfield_units") if ctx.tr_sub(ctx.inv(x)) == 1}
        ok &= set(hits) == h1 and all(v == 2 for v in hits.values())
    elapsed = time.perf_counter() - t0
    _line(9, "circle roots + 2-to-1 onto H1, m=2..8", ok, f"{elapsed:.2f}s")


def test_criterion_10_counting_systems(f_family_dists, g_family_dists):
    ok = True
    def holds(counts_and_relations):
        counts, rel = counts_and_relations
        return all(rel.values()) and counts[0] > 0

    for m, want in F_TABLES.items():
        ok &= holds(C.count_relations_f(want, m))
    for m, want in G_TABLES.items():
        ok &= holds(C.count_relations_g(want, m))
    for m, fam in f_family_dists[1].items():
        for mu, d in fam.items():
            ok &= holds(C.count_relations_f(d, m))
    for m, fam in g_family_dists[1].items():
        for mu, (d, _weight) in fam.items():
            ok &= holds(C.count_relations_g(d, m))
    _line(10, "counting systems + N0 > 0 on criteria 1-4 distributions", ok)


def test_criterion_11_algebraic_degree():
    t0 = time.perf_counter()
    ok = True
    for m in range(3, 7):
        ctx = default_ctx(m)
        for mu in ctx.subgroup("subfield_units"):
            ok &= bf.algebraic_degree(C.build_f(ctx, mu)) == m + 1
            ok &= bf.algebraic_degree(C.build_g(ctx, mu)) == m + 1
    elapsed = time.perf_counter() - t0
    _line(11, "degree = m+1 for f and g, m=3..6 all mu", ok, f"{elapsed:.2f}s")


def test_criterion_12_oracle_equivalence():
    t0 = time.perf_counter()
    ok = True
    for m in (2, 3, 4, 5):
        ctx = default_ctx(m)
        kmus = C.mus_with_k(ctx, -1)
        tables = [C.build_f(ctx, 1)]
        if kmus:
            tables.append(C.build_g(ctx, kmus[0]))
        for tt in tables:
            spec = walsh.wht_fast(tt)
            for a in range(ctx.q):
                ok &= walsh.walsh_at_field_point(ctx, spec, a) == \
                    walsh.walsh_naive_at(ctx, tt, a)
    rng = np.random.default_rng(42)
    for n, count in ((6, 25), (8, 25)):
        ctx = default_field(n)
        for _ in range(count):
            tt = bf.from_bits(n, rng.integers(0, 2, size=ctx.q).astype(np.uint8))
            spec = walsh.wht_fast(tt)
            for a in range(ctx.q):
                ok &= walsh.walsh_at_field_point(ctx, spec, a) == \
                    walsh.walsh_naive_at(ctx, tt, a)
    elapsed = time.perf_counter() - t0
    _line(12, "fast WHT = naive oracle (constructions to n=10, 50 random tables)",
          ok, f"{elapsed:.2f}s")


def test_criterion_13_representation_invariance():
    ctx1 = default_ctx(4)
    ctx2 = create_ctx(4, poly_override=0x11B)
    ok = _dist(C.build_f(ctx1, 1)) == _dist(C.build_f(ctx2, 1))
    g1 = {tuple(sorted(_dist(C.build_g(ctx1, mu)).items())) for mu in C.mus_with_k(ctx1, -1)}
    g2 = {tuple(sorted(_dist(C.build_g(ctx2, mu)).items())) for mu in C.mus_with_k(ctx2, -1)}
    ok &= g1 == g2
    _line(13, "distributions invariant under a second poly", ok)


def test_criterion_14_q_subidentity_gate():
    ok = True
    diag = []
    for m in (3, 4):
        ctx = default_ctx(m)
        for mu in ctx.subgroup("subfield_units"):
            res = {r["name"]: r for r in E.q_identity_check(ctx, mu)}
            ok &= res["q_sub_identity"]["pass"]
            diag.append(res["q_closed_form_as_printed"]["pass"])
    # diagnostics, reported only
    n0_reports = []
    for m in (4, 6):
        chk = E.n0_formula_check(default_ctx(m))
        n0_reports.append(chk.match)
    extra = (f"closed-form-as-printed matches: {sum(diag)}/{len(diag)} [diagnostic]; "
             f"N0 formula matches: {sum(n0_reports)}/{len(n0_reports)} [diagnostic]")
    _line(14, "Q sub-identity m=3,4 all mu", ok, extra)


def test_criterion_15_performance_m10():
    t0 = time.perf_counter()
    ctx = create_ctx(10)
    table = C.build_f(ctx, 1)
    spec = walsh.wht_fast(table)
    dist = walsh.distribution(spec)
    elapsed = time.perf_counter() - t0
    ok = elapsed < 5.0
    ok &= sum(dist.values()) == 1 << 20
    allowed = {0, 1 << 10, -(1 << 10), 1 << 11, 3 << 10}
    ok &= set(dist) <= allowed
    # document the complexity gap with a small measured table
    n_small = 8
    ctx_s = default_field(n_small)
    tt = bf.from_bits(n_small, np.arange(1 << n_small, dtype=np.uint8) & 1)
    t_naive = time.perf_counter()
    for a in range(ctx_s.q):
        walsh.walsh_naive_at(ctx_s, tt, a)
    t_naive = time.perf_counter() - t_naive
    t_fast = time.perf_counter()
    walsh.wht_fast(tt)
    t_fast = time.perf_counter() - t_fast
    print(f"\n  complexity gap at n={n_small}: naive O(4^n) {t_naive:.4f}s "
          f"vs fast O(n 2^n) {t_fast:.6f}s "
          f"(x{t_naive / max(t_fast, 1e-9):.0f}); see perfbench/README.md")
    _line(15, "m=10 pipeline under 5 s", ok, f"{elapsed:.2f}s")
