"""Walsh spectra: fast vs naive oracle, distributions, classification."""

import numpy as np
import pytest
from naive_oracle import build, walsh_at_field_point, walsh_naive_at

from walshlab import walsh
from walshlab.gf2n import MAX_N, TooLarge, create_ctx, default_ctx


def test_naive_on_zero_function():
    ctx = default_ctx(2)
    tt = build(ctx, lambda x: 0)
    assert walsh_naive_at(ctx, tt, 0) == 16
    for a in range(1, 16):
        assert walsh_naive_at(ctx, tt, a) == 0


def test_naive_cancels_matching_linear_form():
    ctx = default_ctx(2)
    tt = build(ctx, ctx.tr_abs)
    assert walsh_naive_at(ctx, tt, 1) == 16


def test_fast_spectrum_of_zero_function():
    tt = np.zeros(16, dtype=np.uint8)
    spec = walsh.wht_fast(tt)
    assert spec[0] == 16
    assert not spec[1:].any()
    assert walsh.distribution(spec) == {0: 15, 16: 1}


def test_point_mass_spectrum_matches_naive():
    ctx = default_ctx(2)
    tt = build(ctx, lambda x: int(x == 0))
    spec = walsh.wht_fast(tt)
    for a in range(16):
        assert walsh_at_field_point(ctx, spec, a) == walsh_naive_at(ctx, tt, a)


def test_field_point_lookup_rejects_a_spectrum_of_another_length():
    spec = walsh.wht_fast(np.zeros(16, dtype=np.uint8))
    with pytest.raises(ValueError, match="disagree"):
        walsh_at_field_point(default_ctx(3), spec, 0)


def test_fast_equals_naive_exhaustive_n6():
    ctx = default_ctx(3)
    rng = np.random.default_rng(23)
    for _ in range(5):
        tt = np.asarray(rng.integers(0, 2, size=64), dtype=np.uint8)
        spec = walsh.wht_fast(tt)
        for a in range(64):
            assert walsh_at_field_point(ctx, spec, a) == walsh_naive_at(ctx, tt, a)


def test_mask_map_is_linear_bijection_n8():
    ctx = default_ctx(4)
    masks = [ctx.dual_mask(a) for a in range(ctx.q)]
    assert len(set(masks)) == ctx.q
    for a in (3, 17, 200):
        for b in (5, 99, 254):
            assert ctx.dual_mask(a ^ b) == ctx.dual_mask(a) ^ ctx.dual_mask(b)


def test_parseval_and_first_moment():
    rng = np.random.default_rng(29)
    for n in (4, 8, 10):
        bits = rng.integers(0, 2, size=1 << n).astype(np.uint8)
        spec = walsh.wht_fast(bits)
        assert int((spec.astype(object) ** 2).sum()) == 4 ** n
        assert int(spec.sum()) == (1 << n) * (1 - 2 * int(bits[0]))


def test_inverse_transform_recovers_signs():
    from walshlab import kernels

    rng = np.random.default_rng(31)
    bits = rng.integers(0, 2, size=1 << 8).astype(np.uint8)
    signs = 1 - 2 * bits.astype(np.int64)
    v = signs.copy()
    kernels.wht_inplace(v)
    kernels.wht_inplace(v)
    assert np.array_equal(v // (1 << 8), signs)


def test_wht_capability_cap():
    # a zero-copy view of 2^29 entries: the cap is checked before any allocation
    tt = np.broadcast_to(np.uint8(0), (1 << (MAX_N + 1),))
    with pytest.raises(TooLarge):
        walsh.wht_fast(tt)


def test_nonlinearity_of_bent_function():
    for m in (2, 3):
        ctx = default_ctx(m)
        tt = build(ctx, lambda x: 0 if x == 0 else ctx.tr_sub(ctx.mul(x, ctx.conjugate(x))))
        dist = walsh.distribution(walsh.wht_fast(tt))
        assert walsh.nonlinearity(dist) == (1 << (2 * m - 1)) - (1 << (m - 1))
        assert walsh.classify(dist, m) == "bent"


def test_classify_bent_from_lambda_trace_m3():
    # h(x) = tr(lam * x^(2^m+1)) with tr_rel(lam) = 1 is bent
    from walshlab.constructions import find_lambda

    ctx = default_ctx(3)
    lam = find_lambda(ctx)
    e = (1 << ctx.m) + 1
    tt = build(ctx, lambda x: ctx.tr_abs(ctx.mul(lam, ctx.pow(x, e))))
    assert walsh.classify(walsh.distribution(walsh.wht_fast(tt)), 3) == "bent"


def test_classify_semibent_and_plateaued():
    values = np.zeros(16, dtype=np.int64)
    values[0] = 8
    values[1] = -8
    values[2:4] = 8
    # a {0, +-8} profile on n=4 (m=2): 8 = 2^(m+1) -> semibent
    spec = values
    assert walsh.classify(walsh.distribution(spec), 2) == "semi-bent"
    # {0, +-4} on n=4 is plateaued with amplitude 4 (bent needs all +-4)
    values2 = np.zeros(16, dtype=np.int64)
    values2[:4] = 4
    values2[4] = -4
    spec2 = values2
    assert walsh.classify(walsh.distribution(spec2), 2) == "plateaued(4)"


def test_classify_five_valued_and_other():
    spec = np.array([0, 4, -4, 8, 12] + [0] * 11, dtype=np.int64)
    assert walsh.classify(walsh.distribution(spec), 2) == "five-valued{-4,0,4,8,12}"
    spec6 = np.array([0, 4, -4, 8, 12, -16] + [0] * 10, dtype=np.int64)
    assert walsh.classify(walsh.distribution(spec6), 2) == "other{-16,-4,0,4,8,12}"


def test_fast_vs_naive_spot_checks_large_n():
    # beyond the exhaustive range, randomized field points
    rng = np.random.default_rng(41)
    for n in (12, 14):
        ctx = create_ctx(n // 2)
        tt = np.asarray(rng.integers(0, 2, size=1 << n), dtype=np.uint8)
        spec = walsh.wht_fast(tt)
        for a in rng.integers(0, 1 << n, size=12):
            a = int(a)
            assert walsh_at_field_point(ctx, spec, a) == walsh_naive_at(ctx, tt, a)


def test_classify_constructions_five_valued():
    from walshlab.constructions import build_f, build_g, mus_with_k

    ctx4 = default_ctx(4)
    got = walsh.classify(walsh.distribution(walsh.wht_fast(build_f(ctx4, 1))), 4)
    assert got == "five-valued{-16,0,16,32,48}"
    ctx5 = default_ctx(5)
    mu = next(mu for mu in mus_with_k(ctx5, -1))
    got_g = walsh.classify(walsh.distribution(walsh.wht_fast(build_g(ctx5, mu))), 5)
    assert got_g == "five-valued{-64,-32,0,32,64}"


def test_distribution_counts_sum():
    rng = np.random.default_rng(37)
    bits = rng.integers(0, 2, size=1 << 8).astype(np.uint8)
    dist = walsh.distribution(walsh.wht_fast(bits))
    assert sum(dist.values()) == 1 << 8
    assert list(dist) == sorted(dist)


def test_distribution_poly_invariance_m4():
    from walshlab.constructions import build_f

    ctx1 = default_ctx(4)
    ctx2 = create_ctx(4, poly_override=0x1F9)  # the largest irreducible of degree 8
    assert ctx2.reduction_poly != ctx1.reduction_poly
    d1 = walsh.distribution(walsh.wht_fast(build_f(ctx1, 1)))
    d2 = walsh.distribution(walsh.wht_fast(build_f(ctx2, 1)))
    assert list(d1.items()) == list(d2.items())


def _counted(values):
    return {v: values.count(v) for v in sorted(set(values))}


@pytest.mark.parametrize("values", [
    [2**31, -2**31, 2**31 - 1, -2**31 - 1, 0, 2**31, -2**31],
    [2**40, -2**40, 2**40 + 1, -2**40, 7],
    [127, 128, -128, -129, 255, 256, 32767, 32768, -32768, -32769, 0],
    [-2**63, 2**63 - 1, 0, -2**63],
    [5, 5, 5, -5],
    [-1, 2**31, 0],
    [0, 1, 300, 70000, 2**33],
], ids=["2^31", "2^40", "int8_int16_edges", "int64_edges", "few_values", "small_lo_big_hi",
        "nonnegative"])
def test_distribution_never_narrows_a_value_that_does_not_fit(values):
    # the sorted copy is narrowed to the extremes' dtype; every value must survive
    rng = np.random.default_rng(len(values))
    spectrum = np.array(rng.permutation(values * 3), dtype=np.int64)
    dist = walsh.distribution(spectrum)
    assert dist == _counted(values * 3)
    assert list(dist) == sorted(dist)
    assert all(type(v) is int and type(c) is int for v, c in dist.items())


@pytest.mark.parametrize("value", [0, -1, 2**40, -2**31])
def test_distribution_of_one_element(value):
    assert walsh.distribution(np.array([value], dtype=np.int64)) == {value: 1}


def test_distribution_rejects_a_float_spectrum():
    with pytest.raises(ValueError):
        walsh.distribution(np.zeros(4))
