"""Each numpy kernel against its definition."""

import tracemalloc

import numpy as np
import pytest

from walshlab import kernels
from walshlab.gf2n import default_field


def test_at_least_numpy_available():
    assert kernels.backend() == "numpy"


@pytest.mark.parametrize("n", [1, 4, 8, 12])
def test_wht_backends_agree(n):
    rng = np.random.default_rng(3)
    base = rng.integers(-5, 6, size=1 << n).astype(np.int64)
    v = base.copy()
    kernels.wht_inplace(v)
    if n <= 8:
        h = np.array([[(-1) ** bin(u & x).count("1") for x in range(1 << n)]
                      for u in range(1 << n)], dtype=np.int64)
        assert np.array_equal(v, h @ base)
    # H @ H = 2^n I: applying the butterfly twice scales the input by 2^n
    kernels.wht_inplace(v)
    assert np.array_equal(v, base << n)


def _wht_unblocked(v):
    # the butterfly before cache blocking: one pass over the array per level
    size = v.size
    h = 1
    while h < size:
        m = v.reshape(-1, 2, h)
        a = m[:, 0, :]
        b = m[:, 1, :]
        t = a - b
        a += b
        b[:] = t
        h *= 2


@pytest.mark.parametrize("n", range(19))
def test_blocked_wht_matches_the_unblocked_butterfly(n):
    # 2^0 .. 2^18 straddles the block length 2^16 on both sides
    assert kernels.WHT_BLOCK == 1 << 16
    rng = np.random.default_rng(n)
    base = rng.integers(-(1 << 40), 1 << 40, size=1 << n).astype(np.int64)
    want = base.copy()
    _wht_unblocked(want)
    got = base.copy()
    kernels.wht_inplace(got)
    assert np.array_equal(got, want)


def _pack(bits):
    # 64 bits per little-endian word, the tail of a part-filled word zero
    data = np.packbits(bits, bitorder="little").tobytes().ljust(8, b"\0")
    return np.frombuffer(data, dtype="<u8").copy()


@pytest.mark.parametrize("n", [2, 6, 10])
def test_mobius_backends_agree_and_invert(n):
    rng = np.random.default_rng(5)
    base = rng.integers(0, 2, size=1 << n).astype(np.uint8)
    words = _pack(base)
    kernels.mobius_inplace(words, n)
    v = np.unpackbits(words.view(np.uint8), bitorder="little")
    assert not v[1 << n:].any()
    # definition: anf[u] = XOR of f[x] over x contained in u
    for u in range(0, 1 << n, max(1, (1 << n) // 64)):
        want = 0
        for x in range(1 << n):
            if x & u == x:
                want ^= int(base[x])
        assert v[u] == want
    kernels.mobius_inplace(words, n)
    assert np.array_equal(words, _pack(base))


@pytest.mark.parametrize("n", [3, 8, 12])
def test_exp_table_backends_agree(n):
    ctx = default_field(n)
    table = kernels.exp_table(n, ctx.reduction_poly, ctx.generator)
    assert table.dtype == np.int64 and table.shape == ((1 << n) - 1,)
    for k in (0, 1, 2, (1 << n) // 3, (1 << n) - 2):
        assert int(table[k]) == ctx.pow(ctx.generator, k)
    # the generator has full order, so the table is a permutation of the units
    assert np.array_equal(np.sort(table), np.arange(1, 1 << n))


def test_orbit_writes_each_doubling_step_into_the_table():
    # each step goes straight into the table through linear_map's out=;
    # only linear_map's index buffer, half the table at the last step, is extra
    n = 20
    ctx = default_field(n)
    tracemalloc.start()
    try:
        table = kernels.exp_table(n, ctx.reduction_poly, ctx.generator)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.6 * table.nbytes, peak / table.nbytes


def test_masked_parity_backends_agree():
    rng = np.random.default_rng(9)
    arr = rng.integers(0, 1 << 24, size=4096).astype(np.int64)
    mask = 0b1011001110001111
    want = np.array([bin(int(a) & mask).count("1") & 1 for a in arr], dtype=np.uint8)
    assert np.array_equal(kernels.masked_parity(arr, mask), want)


@pytest.mark.parametrize("n", [1, 8, 9, 20])
def test_linear_map_matches_definition(n):
    rng = np.random.default_rng(11)
    cols = [int(c) for c in rng.integers(0, 1 << 28, size=n)]
    arr = rng.integers(0, 1 << n, size=512).astype(np.int64)
    # definition: the XOR of cols[i] over the set bits i of each element
    want = []
    for x in arr.tolist():
        acc = 0
        for i in range(n):
            if (x >> i) & 1:
                acc ^= cols[i]
        want.append(acc)
    got = kernels.linear_map(arr, cols)
    assert got.dtype == np.int64 and got.tolist() == want
    out = np.full(arr.shape, -1, dtype=np.int64)  # stale values are overwritten
    assert kernels.linear_map(arr, cols, out=out) is out and np.array_equal(out, got)
    # linear: the image of a XOR is the XOR of the images
    assert np.array_equal(kernels.linear_map(arr ^ arr[::-1], cols), got ^ got[::-1])


def test_kernels_reject_wrong_dtype():
    with pytest.raises(ValueError):
        kernels.wht_inplace(np.zeros(8, dtype=np.int32))
    with pytest.raises(ValueError):
        kernels.mobius_inplace(np.zeros(8, dtype=np.int64), 9)
    with pytest.raises(ValueError):
        kernels.linear_map(np.zeros(8, dtype=np.int32), [1])


@pytest.mark.parametrize("words, n", [
    (np.ones(4, dtype="<u8"), 9),
    (np.ones(2, dtype="<u8"), -1),
    (np.ones(8, dtype=">u8"), 9),
    (np.ones(8, dtype=np.int64), 9),
    (np.ones(16, dtype="<u8")[::2], 9),
    (np.ones((2, 4), dtype="<u8"), 9),
], ids=["too_few_words", "negative_n", "big_endian", "int64", "strided", "2d"])
def test_mobius_rejects_bad_words_before_writing(words, n):
    before = words.copy()
    with pytest.raises(ValueError):
        kernels.mobius_inplace(words, n)
    assert np.array_equal(words, before)


@pytest.mark.parametrize("make", [
    lambda: np.arange(16, dtype=np.int64).reshape(4, 4),
    lambda: np.arange(12, dtype=np.int64),
    lambda: np.arange(8, dtype=np.int32),
    lambda: np.arange(16, dtype=np.int64)[::2],
], ids=["2d", "length12", "int32", "strided"])
def test_wht_rejects_a_bad_shape_before_writing(make):
    # a (4, 4) array once got a silent row-wise partial transform, and a
    # length-12 one two butterfly levels before numpy raised; a wrong dtype
    # or a strided view must be refused before the first block is written
    v = make()
    before = v.copy()
    with pytest.raises(ValueError):
        kernels.wht_inplace(v)
    assert np.array_equal(v, before)
