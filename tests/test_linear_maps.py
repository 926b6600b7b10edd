"""Property tests for the GF(2)-linear maps, the closed-form field structure
(dual basis, the lambda coset E, the Artin-Schreier inverse), the orbit
kernel and the array primitives quotient and chi over random fields
GF(2^n), n <= 16 (n = 1, that is q = 2, included for the primitives)."""

import functools
import tracemalloc

import numpy as np
import pytest
from circle_oracle import solve_artin_schreier
from hypothesis import example, given, settings
from hypothesis import strategies as st

from walshlab import kernels
from walshlab.constructions import find_lambda
from walshlab.gf2n import MAX_N, FieldCtx, create_field, is_irreducible, xor_columns

settings.register_profile("walshlab", max_examples=60, deadline=None)
settings.load_profile("walshlab")


@functools.lru_cache(maxsize=None)
def _field(n: int, poly: int) -> FieldCtx:
    return FieldCtx(n, poly)


@st.composite
def fields(draw, degrees=st.integers(2, 16)):
    # a random degree-n polynomial, moved up to the next irreducible one
    n = draw(degrees)
    poly = draw(st.integers(1 << n, (2 << n) - 1)) | 1
    while not is_irreducible(poly):
        poly = poly + 2 if poly + 2 < 2 << n else (1 << n) | 1
    return _field(n, poly)


@st.composite
def field_and_elements(draw):
    ctx = draw(fields())
    return ctx, draw(st.lists(st.integers(0, ctx.q - 1), min_size=1, max_size=32))


@given(field_and_elements())
def test_scalar_and_array_linear_maps_agree(case):
    ctx, xs = case
    arr = np.array(xs, dtype=np.int64)
    for cols in (ctx.gram_rows, ctx.artin_schreier_cols()):
        assert kernels.linear_map(arr, cols).tolist() == [xor_columns(cols, x) for x in xs]


@given(st.lists(st.integers(0, (1 << 62) - 1), max_size=12))
def test_linear_table_is_linear_map_of_every_input(cols):
    got = kernels.linear_table(cols, np.int64)
    assert got.dtype == np.int64
    assert np.array_equal(got, kernels.linear_map(np.arange(1 << len(cols), dtype=np.int64), cols))


@pytest.mark.parametrize("width", [1, 11, 12, 13, 24, 28])
def test_linear_map_windows_match_xor_columns(width):
    # kernels.WINDOW = 12 input bits per gather: one window, exactly one, a
    # window and a bit, two full windows, and three at the n cap
    assert kernels.WINDOW == 12
    rng = np.random.default_rng(width)
    cols = [int(c) for c in rng.integers(0, 1 << 62, size=width)]
    xs = rng.integers(0, 1 << width, size=2000).tolist()
    xs += [0, (1 << width) - 1, 1 << (width - 1)]
    got = kernels.linear_map(np.array(xs, dtype=np.int64), cols)
    assert got.dtype == np.int64
    assert got.tolist() == [xor_columns(cols, x) for x in xs]


@pytest.mark.parametrize("n", range(1, 21))
def test_exp_and_log_tables_match_scalar_pow(n):
    ctx = create_field(n)
    exp, log = ctx.tables()
    assert exp.dtype == np.int64 and exp.shape == (ctx.q - 1,)
    assert log.dtype == np.int32 and log.shape == (ctx.q,)
    ks = range(0, ctx.q - 1, max(1, (ctx.q - 1) // 300))
    assert [int(exp[k]) for k in ks] == [ctx.pow(ctx.generator, k) for k in ks]
    assert np.array_equal(exp, kernels.exp_table(n, ctx.reduction_poly, ctx.generator))
    assert np.array_equal(log[exp], np.arange(ctx.q - 1))
    assert int(log[0]) == -1


def test_quotient_holds_one_buffer_beside_its_result():
    # the logs accumulate in one int64 buffer, which the exp gather and the
    # zero mask then overwrite: 1/x over GF(2^16) peaks at that buffer and
    # one int32 log gather
    ctx = create_field(16)
    ctx.tables()  # the memo is not the quotient's
    xs = np.arange(ctx.q, dtype=np.int64)
    tracemalloc.start()
    try:
        inverses = ctx.quotient([1], [xs])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert inverses[0] == 0 and inverses[1] == 1
    assert peak < 1.75 * inverses.nbytes, peak / inverses.nbytes


def test_quotient_sums_logs_past_the_int32_range():
    # the gamma sum's G2 multiplies up to nine factors (c * z^8); nine logs near
    # 2^MAX_N overflow int32, so quotient adds them in int64.  40,000 logs
    # near 2^16 pass 2^31 the same way on a field cheap enough to test.
    ctx = create_field(16)
    g_inv = ctx.inv(ctx.generator)  # log q - 2, the largest
    assert 40_000 * (ctx.q - 2) > 2**31
    z = np.array([g_inv, 1, 0], dtype=np.int64)
    assert ctx.quotient([g_inv] * 40_000).tolist() == ctx.pow(g_inv, 40_000)
    assert ctx.quotient([1], [g_inv] * 40_000).tolist() == ctx.pow(ctx.generator, 40_000)
    assert ctx.quotient([z] * 9).tolist() == [ctx.pow(g_inv, 9), 1, 0]
    assert 9 * (2**MAX_N - 2) > 2**31


@given(fields(st.integers(1, 10)))
def test_dual_masks_are_the_dual_mask_of_every_element(ctx):
    masks = ctx.dual_masks()
    assert masks.dtype == np.int64 and masks is ctx.dual_masks()  # built once
    assert masks.tolist() == [ctx.dual_mask(x) for x in range(ctx.q)]


@given(field_and_elements())
def test_linear_map_of_gram_rows_is_dual_mask(case):
    ctx, xs = case
    masks = kernels.linear_map(np.array(xs, dtype=np.int64), ctx.gram_rows).tolist()
    assert masks == [ctx.dual_mask(x) for x in xs]
    # bit j of the mask is tr(x * x^j)
    x, mask = xs[0], masks[0]
    assert all((mask >> j) & 1 == ctx.tr_abs(ctx.mul(x, ctx.xpow(j))) for j in range(ctx.n))


@given(field_and_elements())
def test_artin_schreier_roots(case):
    ctx, xs = case
    for d in xs:
        roots = solve_artin_schreier(ctx, d)
        if ctx.tr_abs(d):
            assert roots == set()
        else:
            assert len(roots) == 2 and min(roots) ^ max(roots) == 1
            assert all(ctx.sq(y) ^ y == d for y in roots)
    # every trace-zero element is y^2 + y for some y
    y = xs[-1]
    assert y in solve_artin_schreier(ctx, ctx.sq(y) ^ y)


@given(fields())
def test_dual_basis_is_trace_dual(ctx):
    for i in range(ctx.n):
        xi = ctx.xpow(i)
        assert [ctx.tr_abs(ctx.mul(xi, g)) for g in ctx.dual_basis] == [
            int(i == j) for j in range(ctx.n)]


@given(fields())
def test_artin_schreier_columns_solve_the_shifted_equation(ctx):
    # column i is a root of y^2 + y = x^i + tr(x^i) * delta, with delta the
    # first basis power of trace one
    delta = next(ctx.xpow(i) for i in range(ctx.n) if ctx.tr_abs(ctx.xpow(i)))
    for i, y in enumerate(ctx.artin_schreier_cols()):
        xi = ctx.xpow(i)
        assert ctx.sq(y) ^ y == xi ^ (delta if ctx.tr_abs(xi) else 0)


@given(fields(st.integers(1, 8).map(lambda m: 2 * m)))
def test_affine_E_is_the_trace_one_coset(ctx):
    e = ctx.subgroup("affine_E")
    assert len(set(e)) == len(e) == 1 << ctx.m
    assert all(ctx.tr_rel(lam) == 1 for lam in e)
    assert find_lambda(ctx) == min(e)


@given(fields(), st.data())
def test_orbit_is_start_times_powers(ctx, data):
    start = data.draw(st.integers(0, ctx.q - 1))
    s = data.draw(st.integers(0, ctx.q - 1))
    length = data.draw(st.integers(0, 300))
    orbit = kernels.orbit(start, s, length, ctx.reduction_poly)
    assert orbit.dtype == np.int64
    assert orbit.tolist() == [ctx.mul(start, ctx.pow(s, k)) for k in range(length)]


def test_bits_beyond_the_columns_are_rejected():
    cols = [0b11, 0b10]
    with pytest.raises(IndexError):
        xor_columns(cols, 0b100)
    with pytest.raises(ValueError):
        kernels.linear_map(np.array([1, 0b100], dtype=np.int64), cols)
    with pytest.raises(ValueError):
        kernels.linear_map(np.array([-1], dtype=np.int64), cols)


@st.composite
def quotient_cases(draw):
    # nums and dens mix scalars and equal-length arrays, with zeros on both sides
    ctx = draw(fields(st.integers(1, 16)))
    size = draw(st.integers(1, 8))
    element = st.just(0) | st.integers(0, ctx.q - 1)
    factor = element | st.lists(element, min_size=size, max_size=size)
    return ctx, size, draw(st.lists(factor, max_size=3)), draw(st.lists(factor, max_size=3))


@given(quotient_cases())
@example((_field(4, 0b10011), 3, [0b0110, [0, 0b0111, 0b1001]], [[0b0010, 0b0101, 0], 0b1111]))
@example((_field(1, 0b11), 2, [[1, 0]], [1, [1, 1]]))
def test_quotient_is_scalar_mul_and_inv(case):
    ctx, size, nums, dens = case

    def arg(factors):  # scalars stay ints
        return [np.array(f, dtype=np.int64) if isinstance(f, list) else f for f in factors]

    got = ctx.quotient(arg(nums), arg(dens))
    assert got.dtype == np.int64
    for i, value in enumerate(np.broadcast_to(got, (size,)).tolist()):
        num = [f[i] if isinstance(f, list) else f for f in nums]
        den = [f[i] if isinstance(f, list) else f for f in dens]
        want = 0
        if 0 not in num + den:
            want = 1
            for x in num:
                want = ctx.mul(want, x)
            for x in den:
                want = ctx.mul(want, ctx.inv(x))
        assert value == want


@given(fields(st.integers(1, 16)), st.data())
def test_chi_is_the_trace_character(ctx, data):
    a = data.draw(st.integers(0, ctx.q - 1))
    xs = data.draw(st.lists(st.integers(0, ctx.q - 1), min_size=1, max_size=32))
    got = ctx.chi(np.array(xs, dtype=np.int64), a)
    assert got.dtype == np.int64
    assert got.tolist() == [1 - 2 * ctx.tr_abs(ctx.mul(a, x)) for x in xs]


@st.composite
def weighted_fields(draw):
    # random int64 weights on a random support of up to 32 points; the
    # scalar oracle below sums over that support only
    ctx = draw(fields(st.integers(1, 10)))
    support = draw(st.dictionaries(st.integers(0, ctx.q - 1),
                                   st.integers(-(1 << 40), 1 << 40), max_size=32))
    return ctx, support


@given(weighted_fields())
@example((_field(1, 0b11), {0: 5, 1: -3}))
@example((_field(4, 0b10011), {y: y - 7 for y in range(16)}))
def test_char_sums_is_the_weighted_character_sum(case):
    ctx, support = case
    weights = np.zeros(ctx.q, dtype=np.int64)
    weights[list(support)] = list(support.values())
    got = ctx.char_sums(weights)
    assert got.dtype == np.int64 and got.shape == (ctx.q,)
    assert got.tolist() == [sum(w * (1 - 2 * ctx.tr_abs(ctx.mul(a, y))) for y, w in support.items())
                            for a in range(ctx.q)]


@pytest.mark.parametrize("shape", [(7,), (9,), (2, 4)])
def test_char_sums_rejects_a_wrong_shape(shape):
    with pytest.raises(ValueError):
        _field(3, 0b1011).char_sums(np.zeros(shape, dtype=np.int64))


def test_char_sums_rejects_float_weights_and_leaves_its_input_alone():
    ctx = _field(3, 0b1011)
    with pytest.raises(TypeError):
        ctx.char_sums(np.full(8, 0.5))
    weights = np.arange(8, dtype=np.int64)
    ctx.char_sums(weights)
    assert weights.tolist() == list(range(8))
