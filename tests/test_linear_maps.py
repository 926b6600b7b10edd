"""Property tests for the GF(2)-linear maps, the closed-form field structure
(dual basis, the lambda coset E, the Artin-Schreier inverse) and the orbit
kernel over random fields GF(2^n), n = 2..16."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from walshlab import kernels
from walshlab.constructions import find_lambda
from walshlab.gf2n import FieldCtx, is_irreducible, xor_columns

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
        roots = ctx.solve_artin_schreier(d)
        if ctx.tr_abs(d):
            assert roots == set()
        else:
            assert len(roots) == 2 and min(roots) ^ max(roots) == 1
            assert all(ctx.sq(y) ^ y == d for y in roots)
    # every trace-zero element is y^2 + y for some y
    y = xs[-1]
    assert y in ctx.solve_artin_schreier(ctx.sq(y) ^ y)


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
