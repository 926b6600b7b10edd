"""Field arithmetic tests; brute-force oracles are built in the tests."""

import functools
import gc
import pathlib
import random
import re
import weakref
from collections import Counter

import numpy as np
import pytest
from circle_oracle import solve_artin_schreier
from naive_oracle import on_unit_circle, unit_circle
from polar_oracle import power_classes

from walshlab import chart
from walshlab import constructions as C
from walshlab import kernels
from walshlab import kloosterman as kl
from walshlab.gf2n import (
    DivisionByZero,
    FieldCtx,
    FieldError,
    NotInSubfield,
    NotIrreducible,
    TooLarge,
    clmul,
    create_ctx,
    create_field,
    default_ctx,
    default_field,
    embedding_columns,
    is_irreducible,
    polymod,
    subfield_coords,
    xor_columns,
)
from walshlab.kernels import masked_parity


# ---------------------------------------------------------- polynomials ----


def _trial_division_irreducible(poly: int) -> bool:
    # oracle: divide by every polynomial of degree 1 .. n//2
    n = poly.bit_length() - 1
    for d in range(1, n // 2 + 1):
        for q in range(1 << d, 1 << (d + 1)):
            if polymod(poly, q) == 0:
                return False
    return True


def test_default_poly_m2_is_smallest_irreducible():
    # enumerate degree-4 candidates in integer order with the oracle
    smallest = next(c for c in range(0b10000, 0b100000)
                    if _trial_division_irreducible(c))
    assert smallest == 0b10011
    assert create_ctx(2).reduction_poly == 0b10011


def test_rabin_agrees_with_trial_division_through_degree_8():
    for poly in range(2, 1 << 9):
        if poly.bit_length() - 1 >= 1:
            assert is_irreducible(poly) == _trial_division_irreducible(poly), hex(poly)


def test_poly_override_accepted_and_rejected():
    ctx = create_ctx(2, poly_override=0b11001)  # x^4 + x^3 + 1
    assert ctx.reduction_poly == 0b11001
    with pytest.raises(NotIrreducible):
        create_ctx(2, poly_override=0b10101)  # (x^2+x+1)^2
    with pytest.raises(NotIrreducible):
        create_ctx(2, poly_override=0b10110)  # constant term 0


def test_capability_cap():
    with pytest.raises(TooLarge):
        create_ctx(20)  # 2m = 40 > 28
    with pytest.raises(TooLarge):
        create_field(29)


def test_default_ctx_is_the_default_field():
    # one cached context per field: GF(2^8) is not built twice
    assert default_ctx(4) is default_field(8)
    with pytest.raises(FieldError):
        default_ctx(0)


# ------------------------------------------------------------- mul/inv -----


def test_mul_examples_f16():
    ctx = default_ctx(2)
    assert ctx.mul(0b10, 0b1000) == 0b0011  # x * x^3 = x + 1
    for a in range(16):
        assert ctx.mul(a, 1) == a
        assert ctx.mul(a, 0) == 0


def test_inv_examples():
    ctx = default_ctx(2)
    assert ctx.inv(1) == 1
    assert ctx.inv(0b10) == 0b1001  # x * (x^3+1) = x^4 + x = 1
    with pytest.raises(DivisionByZero):
        ctx.inv(0)
    for a in range(1, 16):
        assert ctx.mul(a, ctx.inv(a)) == 1


def test_pow_conventions():
    ctx = default_ctx(3)
    g = ctx.generator
    assert ctx.pow(g, ctx.q - 1) == 1
    assert ctx.pow(0, 0) == 1  # empty product
    assert ctx.pow(0, 5) == 0
    for a in range(ctx.q):
        assert ctx.pow(a, 2) == ctx.mul(a, a)


def test_field_axioms_exhaustive_n4():
    ctx = default_ctx(2)
    for a in range(16):
        for b in range(16):
            assert ctx.mul(a, b) == ctx.mul(b, a)
            for c in range(16):
                assert ctx.mul(ctx.mul(a, b), c) == ctx.mul(a, ctx.mul(b, c))
                assert ctx.mul(a, b ^ c) == ctx.mul(a, b) ^ ctx.mul(a, c)


def test_field_axioms_exhaustive_n8_via_mul_table():
    # build the full multiplication table from raw carryless products, then
    # check associativity/distributivity by gathers over all 2^24 triples
    ctx = default_field(8)
    q = ctx.q
    table = np.zeros((q, q), dtype=np.int64)
    for a in range(q):
        row = np.zeros(q, dtype=np.int64)
        for b in range(q):
            row[b] = polymod(clmul(a, b), ctx.reduction_poly)
        table[a] = row
    aa, bb, cc = np.meshgrid(np.arange(q), np.arange(q), np.arange(64),
                             indexing="ij", sparse=True)
    left = table[table[aa, bb], cc]
    right = table[aa, table[bb, cc]]
    assert np.array_equal(left, right)
    dist_left = table[aa, bb ^ cc]
    dist_right = table[aa, bb] ^ table[aa, cc]
    assert np.array_equal(dist_left, dist_right)


def test_field_axioms_random_large():
    rng = random.Random(7)
    for n in (12, 16, 20):
        ctx = default_field(n)
        for _ in range(50):
            a, b, c = (rng.randrange(ctx.q) for _ in range(3))
            assert ctx.mul(ctx.mul(a, b), c) == ctx.mul(a, ctx.mul(b, c))
            assert ctx.mul(a, b ^ c) == ctx.mul(a, b) ^ ctx.mul(a, c)
        for _ in range(20):
            a = rng.randrange(1, ctx.q)
            assert ctx.mul(a, ctx.inv(a)) == 1


# --------------------------------------------------------------- traces ----


def test_tr_abs_basics():
    ctx = default_ctx(3)
    assert ctx.tr_abs(0) == 0
    assert ctx.tr_abs(1) == 0  # n even
    assert sum(ctx.tr_abs(x) for x in range(ctx.q)) == ctx.q // 2
    ctx5 = default_field(5)
    assert ctx5.tr_abs(1) == 1  # n odd


def test_tr_abs_matches_direct_sum():
    ctx = default_ctx(3)
    for x in range(ctx.q):
        acc = 0
        t = x
        for _ in range(ctx.n):
            acc ^= t
            t = ctx.sq(t)
        assert ctx.tr_abs(x) == acc


def test_tr_rel_and_transitivity_exhaustive_m3():
    ctx = default_ctx(3)
    for x in range(ctx.q):
        r = ctx.tr_rel(x)
        assert r == (x ^ ctx.conjugate(x))
        assert ctx.in_subfield(r)
        assert ctx.tr_sub(r) == ctx.tr_abs(x)
    for s in [0] + ctx.subgroup("subfield_units"):
        assert ctx.tr_rel(s) == 0


def test_tr_rel_onto_subfield_2m_to_1():
    ctx = default_ctx(3)
    hits = {}
    for x in range(ctx.q):
        hits[ctx.tr_rel(x)] = hits.get(ctx.tr_rel(x), 0) + 1
    assert set(hits) == set([0] + ctx.subgroup("subfield_units"))
    assert all(c == 1 << ctx.m for c in hits.values())


def test_tr_sub():
    ctx = default_ctx(3)
    assert ctx.tr_sub(1) == 1  # m odd
    assert ctx.tr_sub(0) == 0
    ones = sum(ctx.tr_sub(s) for s in [0] + ctx.subgroup("subfield_units"))
    assert ones == 4  # balanced on the 8 subfield elements
    with pytest.raises(NotInSubfield):
        nonsub = next(x for x in range(ctx.q) if not ctx.in_subfield(x))
        ctx.tr_sub(nonsub)
    ctx4 = default_ctx(2)
    assert ctx4.tr_sub(1) == 0  # m even


def test_trace_balanced_and_linear():
    ctx = default_ctx(2)
    for a in range(16):
        for b in range(16):
            assert ctx.tr_abs(a ^ b) == ctx.tr_abs(a) ^ ctx.tr_abs(b)


@pytest.mark.parametrize("n", range(1, 17))
def test_trace_table_is_the_masked_parity_of_every_element(n):
    ctx = create_field(n)  # a fresh field, so the table is built here
    table = ctx.trace_table()
    assert table.dtype == np.uint8
    assert np.array_equal(table, masked_parity(np.arange(ctx.q, dtype=np.int64), ctx.trace_mask))


# ----------------------------------------------- conjugation and sqrt ------


def test_conjugate_properties_exhaustive_m3():
    ctx = default_ctx(3)
    sub = set([0] + ctx.subgroup("subfield_units"))
    circle = set(unit_circle(ctx))
    for x in range(ctx.q):
        assert ctx.conjugate(ctx.conjugate(x)) == x
        assert (ctx.conjugate(x) == x) == (x in sub)
        if x:
            assert (ctx.conjugate(x) == ctx.inv(x)) == (x in circle)
    assert ctx.conjugate(0) == 0 and ctx.conjugate(1) == 1
    # Frobenius is multiplicative
    for a in range(ctx.q):
        for b in range(ctx.q):
            assert ctx.conjugate(ctx.mul(a, b)) == ctx.mul(ctx.conjugate(a), ctx.conjugate(b))


def test_norm_and_ratio_land_where_they_should():
    for m in (3, 4):
        ctx = default_ctx(m)
        circle = set(unit_circle(ctx))
        for x in range(1, ctx.q):
            xb = ctx.conjugate(x)
            assert ctx.in_subfield(x ^ xb)
            assert ctx.in_subfield(ctx.mul(x, xb))
            assert ctx.mul(x, ctx.inv(xb)) in circle


def test_sqrt():
    ctx = default_ctx(3)
    assert ctx.sqrt(1) == 1
    assert ctx.sqrt(0) == 0
    for a in range(ctx.q):
        assert ctx.sqrt(ctx.sq(a)) == a
        assert ctx.sq(ctx.sqrt(a)) == a


def _frobenius_by_squaring(ctx, x, k):
    # the scalar definition the column maps replace: k squarings
    for _ in range(k):
        x = ctx.sq(x)
    return x


def _assert_column_maps_are_the_squaring_definitions(ctx, xs):
    for x in xs:
        assert ctx.sqrt(x) == _frobenius_by_squaring(ctx, x, ctx.n - 1), x
        if ctx.n % 2:
            continue
        conj = _frobenius_by_squaring(ctx, x, ctx.m)
        assert ctx.conjugate(x) == conj, x
        # x^(2^m - 1) lies on the unit circle, x + conj(x) in the subfield
        for z in (x, ctx.pow(x, (1 << ctx.m) - 1)):
            assert on_unit_circle(ctx, z) == (z != 0 and ctx.pow(z, (1 << ctx.m) + 1) == 1), z
        for s in (x, x ^ conj):
            if _frobenius_by_squaring(ctx, s, ctx.m) != s:
                with pytest.raises(NotInSubfield):
                    ctx.tr_sub(s)
                continue
            want = 0
            for k in range(ctx.m):
                want ^= _frobenius_by_squaring(ctx, s, k)
            assert ctx.tr_sub(s) == want, s


@pytest.mark.parametrize("n", range(2, 13))
def test_frobenius_column_maps_on_every_element(n):
    ctx = create_field(n)
    _assert_column_maps_are_the_squaring_definitions(ctx, range(ctx.q))
    for k in range(n):
        assert all(xor_columns(ctx.frobenius(k), x) == _frobenius_by_squaring(ctx, x, k)
                   for x in range(0, ctx.q, 7))


def test_frobenius_column_maps_at_the_cap(monkeypatch):
    def refuse(self):
        raise AssertionError("the exp/log tables were built")

    monkeypatch.setattr(FieldCtx, "tables", refuse)
    ctx = create_field(28)
    rng = random.Random(28)
    _assert_column_maps_are_the_squaring_definitions(ctx, [rng.randrange(ctx.q) for _ in range(2000)])


# --------------------------------------------------- polar decomposition ---


@pytest.mark.parametrize("m", [3, 4, 5])
def test_polar_bijection_exhaustive(m):
    # (y, z) -> y*z maps subfield_units x unit_circle onto GF(2^n)^* one-to-one
    ctx = default_ctx(m)
    sub = ctx.subgroup("subfield_units")
    circle = unit_circle(ctx)
    products = {ctx.mul(y, z) for y in sub for z in circle}
    assert len(products) == len(sub) * len(circle) == ctx.q - 1
    assert 0 not in products


# ------------------------------------------------------------ subgroups ----


def test_subgroup_sizes():
    ctx = default_ctx(4)
    assert len(unit_circle(ctx)) == 17
    assert len(ctx.subgroup("subfield_units")) == 15
    ctx3 = default_ctx(3)
    e = ctx3.subgroup("affine_E")
    assert len(e) == 8
    assert all(ctx3.tr_rel(lam) == 1 for lam in e)


def test_subfield_closure_m4():
    ctx = default_ctx(4)
    sub = set([0] + ctx.subgroup("subfield_units"))
    for a in sub:
        for b in sub:
            assert (a ^ b) in sub
            assert ctx.mul(a, b) in sub


def test_subgroup_orders_are_exact():
    ctx = default_ctx(3)
    for z in unit_circle(ctx):
        assert ctx.pow(z, (1 << ctx.m) + 1) == 1
    for s in ctx.subgroup("subfield_units"):
        assert ctx.pow(s, (1 << ctx.m) - 1) == 1


@pytest.mark.parametrize("which", ["subfield_units", "unit_circle"])
def test_subgroup_orbit_that_does_not_close_at_its_order_raises(which):
    # in GF(16), m = 2: the subfield step (g^3)^5 and the circle step (g^5)^3
    # are both 1, so with g^3 or g^5 as generator the orbit closes at once
    ctx = create_ctx(2)
    g = ctx.generator
    ctx.generator = ctx.pow(g, 3) if which == "subfield_units" else ctx.pow(g, 5)
    with pytest.raises(FieldError, match="wrong order"):
        ctx.subgroup(which) if which == "subfield_units" else unit_circle(ctx)


# -------------------------------------------------------- Artin-Schreier ---


def test_artin_schreier_examples():
    ctx = default_ctx(3)
    assert solve_artin_schreier(ctx, 0) == {0, 1}
    for d in range(ctx.q):
        roots = solve_artin_schreier(ctx, d)
        if ctx.tr_abs(d):
            assert roots == set()
        else:
            assert len(roots) == 2
            for y in roots:
                assert ctx.sq(y) ^ y == d
            a, b = sorted(roots)
            assert a ^ b == 1


# ------------------------------------------------------------ dual basis ---


@pytest.mark.parametrize("m", [2, 3, 4])
def test_dual_basis_property(m):
    ctx = default_ctx(m)
    for i in range(ctx.n):
        xi = ctx.pow(2, i) if i else 1
        for j in range(ctx.n):
            assert ctx.tr_abs(ctx.mul(xi, ctx.dual_basis[j])) == (i == j)


def test_dual_mask_matches_traces():
    ctx = default_ctx(3)
    for a in range(ctx.q):
        mask = ctx.dual_mask(a)
        for j in range(ctx.n):
            xj = ctx.xpow(j)
            assert (mask >> j) & 1 == ctx.tr_abs(ctx.mul(a, xj))


def test_generator_has_full_order():
    for n in (4, 6, 8, 10):
        ctx = default_field(n)
        g = ctx.generator
        seen = set()
        cur = 1
        for _ in range(ctx.q - 1):
            seen.add(cur)
            cur = ctx.mul(cur, g)
        assert len(seen) == ctx.q - 1


# ------------------------------------------------------------ embeddings ---


def test_subfield_embedding_consistency():
    small = default_field(3)
    big = default_ctx(3)
    emb = functools.partial(xor_columns, embedding_columns(small, big))
    image = {emb(a) for a in range(small.q)}
    assert image == set([0] + big.subgroup("subfield_units"))
    for a in range(small.q):
        for b in range(small.q):
            assert emb(a ^ b) == emb(a) ^ emb(b)
            assert emb(small.mul(a, b)) == big.mul(emb(a), emb(b))
    # trace compatibility: [GF(2^6):GF(2^3)] = 2, so big traces vanish on the image
    for a in range(small.q):
        assert big.tr_abs(emb(a)) == 0
        assert big.tr_sub(emb(a)) == small.tr_abs(a)


def test_subfield_embedding_odd_cofactor_trace():
    small = default_field(2)
    big = default_field(6)
    emb = functools.partial(xor_columns, embedding_columns(small, big))
    for a in range(small.q):
        # cofactor s = 3 is odd: absolute traces must agree
        assert big.tr_abs(emb(a)) == small.tr_abs(a)


@pytest.mark.parametrize("m, poly", [(2, None), (3, None), (3, 0x49), (4, None)])
def test_subfield_coords_invert_the_embedding(m, poly):
    ctx = create_ctx(m, poly)
    image, coords = subfield_coords(ctx)
    cols = embedding_columns(default_field(m), ctx)
    assert image.tolist() == [xor_columns(cols, a) for a in range(1 << m)]
    assert sorted(image.tolist()) == [0] + ctx.subgroup("subfield_units")
    assert coords(image).tolist() == list(range(1 << m))
    assert coords(int(image[-1])) == (1 << m) - 1
    outside = next(x for x in range(ctx.q) if not ctx.in_subfield(x))
    with pytest.raises(NotInSubfield):
        coords([1, outside])


@pytest.mark.parametrize("k, n", [(1, 4), (2, 6), (3, 6), (4, 8), (3, 12)])
def test_embedding_columns_use_the_smallest_root(k, n):
    # scalar oracle: Horner on small's reduction polynomial at every nonzero element
    small, big = default_field(k), default_field(n)

    def poly_at(x):
        acc = 0
        for bit in range(k, -1, -1):
            acc = big.mul(acc, x) ^ ((small.reduction_poly >> bit) & 1)
        return acc

    root = min(x for x in range(1, big.q) if poly_at(x) == 0)
    assert embedding_columns(small, big) == [big.pow(root, i) for i in range(k)]


def test_exp_log_tables_match_scalar_pow():
    ctx = default_field(10)
    exp, log = ctx.tables()
    for k in range(0, ctx.q - 1, 97):
        assert int(exp[k]) == ctx.pow(ctx.generator, k)
    for x in range(1, ctx.q, 131):
        assert ctx.pow(ctx.generator, int(log[x])) == x
    assert int(log[0]) == -1


def _check_power_classes(ctx, d):
    # cyclic(d) is the order-d subgroup in orbit order: h^k at k, h = g^((q-1)/d)
    group = ctx.cyclic(d)
    h = ctx.pow(ctx.generator, (ctx.q - 1) // d)
    assert group.dtype == np.int64 and len(np.unique(group)) == d
    assert all(int(group[k]) == ctx.pow(h, k) for k in range(0, d, max(1, d // 64)))
    values, index = power_classes(ctx, d)
    assert index.dtype == np.min_scalar_type(d) and index[0] == d and values[d] == 0
    assert np.array_equal(values[:d], group)
    assert np.array_equal(values[index], ctx.power_table((ctx.q - 1) // d))


@pytest.mark.parametrize("m", range(1, 8))
def test_power_classes_give_the_norm_and_the_circle_power(m):
    ctx = create_ctx(m)
    for d in ((1 << m) - 1, (1 << m) + 1):  # N(x) = x^(2^m+1), and x^(2^m-1)
        _check_power_classes(ctx, d)


@pytest.mark.parametrize("k", [5, 9, 15])
def test_power_classes_of_every_divisor_on_odd_degree_fields(k):
    ctx = create_field(k)
    for d in range(1, ctx.q):
        if (ctx.q - 1) % d == 0:
            _check_power_classes(ctx, d)
    for d in (0, -1, 2, ctx.q):  # q - 1 is odd here, so 2 does not divide it
        for enumerate_subgroup in (ctx.cyclic, functools.partial(power_classes, ctx)):
            with pytest.raises(ValueError):
                enumerate_subgroup(d)


def test_cyclic_orbit_that_closes_early_raises():
    # GF(2^6): q - 1 = 63 = 3^2 * 7.  With g^3 as generator the order-9 step
    # g^21 has order 3, while the order-7 step g^27 still has order 7
    ctx = create_field(6)
    ctx.generator = ctx.pow(ctx.generator, 3)
    assert len(ctx.cyclic(7)) == 7
    with pytest.raises(FieldError, match="wrong order"):
        ctx.cyclic(9)


def test_each_subgroup_orbit_runs_once_per_field(monkeypatch):
    # cyclic is the one enumeration of a subgroup: subgroup, the power-class
    # oracle, the circle lines and the circle sum all read its memo.  The
    # other orbit is the exp table, built once for the oracle's index
    calls = Counter()
    orbit = kernels.orbit

    def counted(start, s, length, poly):
        calls[s, length] += 1
        return orbit(start, s, length, poly)

    monkeypatch.setattr(kernels, "orbit", counted)
    for m in (2, 3, 5):
        ctx = create_ctx(m)  # a fresh field, so no memo was filled before
        calls.clear()
        units, circle = (1 << m) - 1, (1 << m) + 1
        for _ in range(2):
            ctx.subgroup("subfield_units")
            unit_circle(ctx)
            power_classes(ctx, units)
            power_classes(ctx, circle)
            C._circle_lines(ctx)
            kl.unit_circle_sum(ctx, 1)
        want = {(ctx.pow(ctx.generator, (ctx.q - 1) // d), d + 1): 1 for d in (units, circle)}
        want[ctx.generator, ctx.q - 1] = 1
        assert calls == want, m


def test_only_gf2n_reads_the_exp_log_tables():
    # array code elsewhere goes through FieldCtx.quotient and chi, so a change
    # to the table layout stays inside gf2n
    paths = sorted((pathlib.Path(__file__).parent.parent / "src" / "walshlab").glob("*.py"))
    assert "gf2n.py" in [p.name for p in paths]
    for path in paths:
        if path.name != "gf2n.py":
            source = path.read_text()
            assert not re.search(r"\.tables\(|\b(exp|log)\[", source), path.name


# ------------------------------------------------------- per-field memo ----

# every per_field function, with arguments it is called with
_MEMOISED = [(FieldCtx.tables, ()), (FieldCtx.power_table, (3,)), (FieldCtx.trace_table, ()),
             (FieldCtx.dual_masks, ()), (FieldCtx.artin_schreier_cols, ()), (FieldCtx.frobenius, (3,)),
             (FieldCtx.cyclic, (7,)), (C._circle_lines, ()), (C.f_distributions, ()),
             *((FieldCtx.subgroup, (w,)) for w in ("subfield_units", "affine_E")),
             (C._polar_terms, ()), (chart.g_distributions, ()), (C._f_butterfly, (1,)),
             (kl.subfield_k_map, ()),
             (subfield_coords, ())]


def test_per_field_memo_keeps_no_field_alive():
    ctx = create_ctx(3, 0x49)  # a fresh field, not the cached default_ctx(3)
    for fn, args in _MEMOISED:
        assert fn(ctx, *args) is fn(ctx, *args), fn.__name__  # the same object every call
    field = weakref.ref(ctx)
    del ctx
    gc.collect()
    assert field() is None  # the memo goes with the field


def test_per_field_body_runs_once_per_field_and_args(monkeypatch):
    # f below LINE_COUNT_FROM_M is the one summary that builds a table: once
    # per field and mu, whether one mu or every mu is asked for
    builds = Counter()

    def counted(ctx, mu, _fn=C.build_f):
        builds[id(ctx), mu] += 1
        return _fn(ctx, mu)

    monkeypatch.setattr(C, "build_f", counted)
    fields = [create_ctx(3), create_ctx(3, 0x49)]
    assert 3 < C.LINE_COUNT_FROM_M
    for all_mu in (True, False):
        for ctx in fields:
            for mu in ctx.subgroup("subfield_units"):
                C.walsh_summary(ctx, "f", mu, all_mu)
    assert len(builds) == 2 * 7 and set(builds.values()) == {1}

    exp_tables = []

    def exp_table(*args, _fn=kernels.exp_table):
        exp_tables.append(args)
        return _fn(*args)

    monkeypatch.setattr(kernels, "exp_table", exp_table)
    ctx = create_ctx(3)
    cubes = ctx.power_table(3)
    assert ctx.power_table(5) is not cubes and ctx.power_table(3) is cubes
    assert ctx.tables() is ctx.tables() and len(exp_tables) == 1


def test_per_field_memoises_no_exception():
    ctx = create_ctx(2)
    for _ in range(3):
        with pytest.raises(ValueError):
            ctx.power_table(0)
        with pytest.raises(ValueError):
            ctx.subgroup("x")
