"""Truth tables, ANF, weights, degrees."""

import numpy as np
import pytest

from walshlab import boolfun as bf
from walshlab import kernels
from walshlab import walsh
from walshlab.gf2n import default_ctx, default_field


def test_build_constant_zero():
    ctx = default_ctx(2)
    tt = bf.build(ctx, lambda x: 0)
    assert bf.weight(tt) == 0
    assert not bf.is_balanced(tt)


def test_build_trace_is_balanced():
    ctx = default_ctx(3)
    tt = bf.build(ctx, ctx.tr_abs)
    assert bf.weight(tt) == ctx.q // 2
    assert bf.is_balanced(tt)


def test_build_bent_norm_trace_weight():
    # tr_sub(x * conj(x)) at m=2: exhaustive evaluation gives weight 10
    # (W(0) = -2^m, so weight = 2^(n-1) + 2^(m-1))
    ctx = default_ctx(2)
    tt = bf.build(ctx, lambda x: 0 if x == 0 else ctx.tr_sub(ctx.mul(x, ctx.conjugate(x))))
    brute = sum(
        0 if x == 0 else ctx.tr_sub(ctx.mul(x, ctx.conjugate(x))) for x in range(16))
    assert brute == 10
    assert bf.weight(tt) == 10


def test_anf_zero_and_point_mass():
    n = 4
    zero = np.zeros(1 << n, dtype=np.uint8)
    assert not bf.anf(zero).any()
    point = np.zeros(1 << n, dtype=np.uint8)
    point[0] = 1  # f = prod (x_i + 1): every ANF coefficient set
    assert bf.anf(point).all()


def test_anf_roundtrip_random():
    rng = np.random.default_rng(11)
    for _ in range(100):
        bits = rng.integers(0, 2, size=1 << 10).astype(np.uint8)
        assert np.array_equal(bf.anf(bf.anf(bits)), bits)


def test_algebraic_degree_basics():
    ctx = default_ctx(3)
    assert bf.algebraic_degree(bf.build(ctx, ctx.tr_abs)) == 1
    norm = bf.build(ctx, lambda x: 0 if x == 0 else ctx.tr_sub(ctx.mul(x, ctx.conjugate(x))))
    assert bf.algebraic_degree(norm) == 2  # exponent 2^m + 1 has weight 2
    zero = np.zeros(ctx.q, dtype=np.uint8)
    assert bf.algebraic_degree(zero) == -1


@pytest.mark.parametrize("func", [walsh.wht_fast, bf.anf, bf.algebraic_degree],
                         ids=["wht_fast", "anf", "algebraic_degree"])
@pytest.mark.parametrize("table", [
    np.zeros(16, dtype=np.int64),
    np.zeros(12, dtype=np.uint8),
    np.zeros((4, 4), dtype=np.uint8),
], ids=["int64", "length_12", "2d"])
def test_table_functions_reject_a_non_table(func, table):
    # a truth table is a 1-D uint8 array of length 2^n, nothing else
    with pytest.raises(ValueError):
        func(table)


def mobius_bytewise(bits):
    # the byte-per-coefficient butterfly the packed kernel replaced: the oracle
    out = bits.copy()
    h = 1
    while h < out.size:
        pairs = out.reshape(-1, 2, h)
        pairs[:, 1, :] ^= pairs[:, 0, :]
        h *= 2
    return out


def degree_bytewise(bits):
    masks = np.flatnonzero(mobius_bytewise(bits))
    return int(np.bitwise_count(masks).max()) if masks.size else -1


def _tables(n):
    # random tables, then the zero and all-ones functions and single monomials
    # (whose truth table is 1 exactly on the supersets of the mask u)
    rng = np.random.default_rng(100 + n)
    size = 1 << n
    yield from rng.integers(0, 2, size=(3, size), dtype=np.uint8)
    yield np.zeros(size, dtype=np.uint8)
    yield np.ones(size, dtype=np.uint8)
    xs = np.arange(size)
    for u in sorted({0, size - 1, *rng.integers(0, size, size=3).tolist()}):
        yield ((xs & u) == u).astype(np.uint8)


@pytest.mark.parametrize("n", range(17))
def test_packed_mobius_anf_and_degree_match_the_bytewise_oracle(n):
    # n < 6 leaves a part-filled word; n > 6 crosses words
    for bits in _tables(n):
        want = mobius_bytewise(bits)
        words = np.frombuffer(np.packbits(bits, bitorder="little").tobytes().ljust(8, b"\0"),
                              dtype="<u8").copy()
        kernels.mobius_inplace(words, n)
        got = np.unpackbits(words.view(np.uint8), bitorder="little")
        assert np.array_equal(got[:1 << n], want) and not got[1 << n:].any()
        anf = bf.anf(bits)
        assert anf.dtype == np.uint8 and np.array_equal(anf, want)
        assert bf.algebraic_degree(bits) == degree_bytewise(bits)


@pytest.mark.parametrize("n", [0, 3, 6, 7, 12])
def test_degree_of_a_single_monomial_is_its_weight(n):
    xs = np.arange(1 << n)
    for u in range(0, 1 << n, max(1, (1 << n) // 50)):
        table = ((xs & u) == u).astype(np.uint8)
        assert bf.algebraic_degree(table) == u.bit_count()
        assert np.flatnonzero(bf.anf(table)).tolist() == [u]


def test_degree_of_affine_shift_is_stable():
    ctx = default_ctx(3)
    norm = bf.build(ctx, lambda x: 0 if x == 0 else ctx.tr_sub(ctx.mul(x, ctx.conjugate(x))))
    shifted = norm ^ bf.build(ctx, ctx.tr_abs)
    assert bf.algebraic_degree(shifted) == bf.algebraic_degree(norm) == 2


def test_trace_monomial_degrees_n6():
    # degree of tr(a x^e) equals popcount(e) once a is chosen so the
    # induced trace coefficient does not vanish
    ctx = default_field(6)
    n = ctx.n
    q1 = ctx.q - 1
    seen = set()
    for e in range(1, q1):
        coset = set()
        cur = e
        while cur not in coset:
            coset.add(cur)
            cur = cur * 2 % q1
        leader = min(coset)
        if leader in seen:
            continue
        seen.add(leader)
        d = len(coset)
        # a must have a nonzero trace into GF(2^d)
        a = next(x for x in range(1, ctx.q)
                 if _tr_to_subfield(ctx, x, d) != 0)
        tt = bf.build(ctx, lambda x, a=a, e=leader: ctx.tr_abs(ctx.mul(a, ctx.pow(x, e))))
        assert bf.algebraic_degree(tt) == bin(leader).count("1"), leader


def _tr_to_subfield(ctx, x, d):
    acc = 0
    t = x
    for _ in range(ctx.n // d):
        acc ^= t
        for _ in range(d):
            t = ctx.sq(t)
    return acc


def test_weight_complement():
    rng = np.random.default_rng(13)
    bits = rng.integers(0, 2, size=256).astype(np.uint8)
    assert bf.weight(bits) + bf.weight(1 - bits) == 256


# ----------------------------------------------------------------- io ------


def test_table_bytes_roundtrip():
    rng = np.random.default_rng(17)
    bits = rng.integers(0, 2, size=1 << 9).astype(np.uint8)
    data = bf.table_to_bytes(bits)
    assert len(data) == (1 << 9) // 8
    back = np.unpackbits(np.frombuffer(data, dtype=np.uint8), bitorder="little")
    assert np.array_equal(back, bits)
    # hex encodes the same little-endian integer
    assert bf.table_to_hex(bits) == format(int.from_bytes(data, "little"), "#x")


def test_anf_monomials_hex_ascending():
    n = 3
    bits = np.zeros(1 << n, dtype=np.uint8)
    bits[[1, 3, 7]] = 1
    monos = bf.anf_monomials_hex(bf.anf(bits))
    assert monos == sorted(monos, key=lambda s: int(s, 16))
    assert all(s.startswith("0x") for s in monos)
