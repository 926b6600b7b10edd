"""Hot numeric kernels in numpy: the Walsh-Hadamard butterfly, the Moebius
transform on bit-packed words, masked-parity sweeps, GF(2)-linear maps (of
an array, or tabulated over every input) and the orbit start * s^k of a
field element, which gives the exp table of a generator and the cyclic
subgroups.

tests/test_kernels.py checks each kernel against its definition.
"""

from __future__ import annotations

import numpy as np


def backend() -> str:
    """Name of the kernel implementation (recorded by the benchmark)."""
    return "numpy"


def log2_length(arr: np.ndarray) -> int:
    """k for a 1-D array of length 2^k; ValueError for any other shape."""
    if arr.ndim != 1 or arr.size & (arr.size - 1) or not arr.size:
        raise ValueError(f"need a 1-D array of length 2^k, got shape {arr.shape}")
    return arr.size.bit_length() - 1


# int64 elements per cache block of the butterfly: 512 KB, well inside a 4 MiB L2
WHT_BLOCK = 1 << 16


def wht_inplace(v: np.ndarray) -> None:
    """In-place Walsh-Hadamard butterfly on a length-2^k int64 array.

    Cache-blocked (Johnson & Pueschel, ICASSP 2000): the levels below
    WHT_BLOCK run block by block while the block is in cache, the levels
    above it in contiguous block-length pieces.  Every level subtracts into
    one preallocated block-sized buffer, so no level allocates.
    """
    if v.dtype != np.int64 or not v.flags.c_contiguous:
        raise ValueError("wht_inplace needs a C-contiguous int64 array")
    size = 1 << log2_length(v)
    block = min(size, WHT_BLOCK)
    buf = np.empty(block, dtype=np.int64)
    for lo in range(0, size, block):
        _block_levels(v[lo:lo + block], buf)
    h = block
    while h < size:
        for start in range(0, size, 2 * h):
            for lo in range(start, start + h, block):
                _butterfly(v[lo:lo + block], v[lo + h:lo + h + block], buf)
        h *= 2


def _block_levels(blk: np.ndarray, buf: np.ndarray) -> None:
    # every level of one contiguous block; a plain helper, since a recursive
    # call to the public wht_inplace would be timed and counted twice
    h = 1
    while h < blk.size:
        pairs = blk.reshape(-1, 2, h)
        # numpy walks a 2-D operand with an inner axis of 2..8 elements
        # slowly; h one-dimensional strided passes are faster
        for j in (range(h) if 1 < h <= 8 else [slice(None)]):
            _butterfly(pairs[:, 0, j], pairs[:, 1, j], buf)
        h *= 2


def _butterfly(a: np.ndarray, b: np.ndarray, buf: np.ndarray) -> None:
    # (a, b) <- (a + b, a - b) through the scratch buffer
    t = buf[:a.size].reshape(a.shape)
    np.subtract(a, b, out=t)
    a += b
    b[...] = t


# bit-packed ANF words: 64 coefficients per little-endian uint64, bit i of
# word k the coefficient of mask 64k + i
WORD = np.dtype("<u8")

# in-word Moebius levels h = 1..32: the positions with bit h set
_LEVEL_MASKS = (0xAAAAAAAAAAAAAAAA, 0xCCCCCCCCCCCCCCCC, 0xF0F0F0F0F0F0F0F0,
                0xFF00FF00FF00FF00, 0xFFFF0000FFFF0000, 0xFFFFFFFF00000000)


def mobius_inplace(words: np.ndarray, n: int) -> None:
    """In-place binary Moebius (Reed-Muller) transform of 2^n bit-packed coefficients.

    words holds max(1, 2^n / 64) WORD values.  The six levels inside a word
    are shift-and-mask steps (only those with h < 2^n when n < 6, so a
    part-filled word keeps its zero tail); the levels above are XOR
    butterflies on whole words.
    """
    if words.dtype != WORD or words.ndim != 1 or not words.flags.c_contiguous:
        raise ValueError("mobius_inplace needs a C-contiguous 1-D <u8 word array")
    if n < 0 or words.size != max(1, (1 << n) >> 6):
        raise ValueError(f"mobius_inplace: {words.size} words do not hold 2^{n} bits")
    tmp = np.empty_like(words)
    for level, mask in enumerate(_LEVEL_MASKS[:n]):
        np.left_shift(words, 1 << level, out=tmp)
        tmp &= np.uint64(mask)
        words ^= tmp
    h = 1
    while h < words.size:
        pairs = words.reshape(-1, 2, h)
        pairs[:, 1, :] ^= pairs[:, 0, :]
        h *= 2


def orbit(start: int, s: int, length: int, poly: int) -> np.ndarray:
    """start * s^k reduced mod poly for k < length, as int64.

    Multiplying by a constant is GF(2)-linear, so the filled prefix is doubled
    with linear_map, written straight into the next block: step holds the
    columns x^i * s^filled, and applying step to itself squares it for the
    next round.
    """
    n = poly.bit_length() - 1
    step = [s]
    for _ in range(n - 1):
        col = step[-1] << 1
        step.append(col ^ poly if col >> n else col)
    step = np.array(step, dtype=np.int64)
    out = np.zeros(length, dtype=np.int64)
    out[:1] = start
    filled = 1
    while filled < length:
        block = min(filled, length - filled)
        linear_map(out[:block], step, out=out[filled : filled + block])
        step = linear_map(step, step)
        filled += block
    return out


def exp_table(n: int, poly: int, gen: int) -> np.ndarray:
    """Powers gen^0 .. gen^(2^n-2) reduced mod poly, as int64: the orbit of 1."""
    return orbit(1, gen, (1 << n) - 1, poly)


def masked_parity(arr: np.ndarray, mask: int) -> np.ndarray:
    """parity(popcount(arr & mask)) per element, as uint8 0/1."""
    return (np.bitwise_count(arr & np.int64(mask)) & 1).astype(np.uint8)


# input bits per linear_map window: a 2^12-entry int64 table (32 KB) stays in
# L1/L2, and n = 24 needs two gathers
WINDOW = 12


def linear_map(arr: np.ndarray, cols, out: np.ndarray | None = None) -> np.ndarray:
    """XOR of cols[i] over the set bits i of each element, as int64.

    Applies the GF(2)-linear map with columns cols WINDOW bits of the input at
    a time: each window indexes a table of its columns' XORs.  Every window's
    shift and mask go into one reused index buffer.  Elements with a bit at
    or beyond len(cols) are rejected.  out, when given, is an int64 array of
    arr's shape that does not overlap arr; the result is written there.
    """
    if arr.dtype != np.int64:
        raise ValueError("linear_map needs an int64 array")
    if arr.size and (int(arr.min()) < 0 or int(arr.max()) >> len(cols)):
        raise ValueError(f"linear_map: an element has a bit beyond the {len(cols)} columns")
    if out is None:
        out = np.zeros(arr.shape, dtype=np.int64)
    else:
        out[...] = 0
    idx = np.empty(arr.shape, dtype=np.int64)
    for lo in range(0, len(cols), WINDOW):
        window = cols[lo:lo + WINDOW]
        np.right_shift(arr, lo, out=idx)
        idx &= (1 << len(window)) - 1
        # an elementwise gather may overwrite its own indices; "clip" skips
        # the copy numpy makes of out under the default "raise"
        np.take(linear_table(window, np.int64), idx, out=idx, mode="clip")
        out ^= idx
    return out


def linear_table(cols, dtype) -> np.ndarray:
    """linear_map of every x < 2^len(cols), in order, as dtype, with no index array.

    The table doubles: the x with top bit i are the x < 2^i with cols[i]
    XORed in, so it costs one write per entry and no temporaries.
    """
    out = np.zeros(1 << len(cols), dtype=dtype)
    for i, col in enumerate(cols):
        np.bitwise_xor(out[:1 << i], col, out=out[1 << i:2 << i])
    return out
