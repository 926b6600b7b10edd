"""Truth tables of Boolean functions on GF(2^n), as plain numpy arrays.

A truth table is a 1-D uint8 array of 0/1 values of length 2^n, indexed by
the coordinate integer of the field element, so entry i is f(element i).  An
ANF is the same kind of array: entry u is the coefficient of the monomial
with mask u.  ANF (the binary Moebius transform, which is its own inverse)
and algebraic degree operate on these arrays; both pack the table 64 bits to
a word for kernels.mobius_inplace.
"""

from __future__ import annotations

import numpy as np

from . import kernels


def _packed_anf(f: np.ndarray) -> np.ndarray:
    """The ANF of a truth table as bit-packed kernels.WORD words."""
    if f.dtype != np.uint8:
        raise ValueError(f"need a uint8 truth table, got {f.dtype}")
    n = kernels.log2_length(f)
    words = np.zeros(max(1, f.size >> 6), dtype=kernels.WORD)
    words.view(np.uint8)[:(f.size + 7) >> 3] = np.packbits(f, bitorder="little")
    kernels.mobius_inplace(words, n)
    return words


def anf(f: np.ndarray) -> np.ndarray:
    """ANF coefficients of a truth table; anf(anf(f)) is f again."""
    return np.unpackbits(_packed_anf(f).view(np.uint8), bitorder="little")[:f.size]


# in-word positions i of popcount c, for c = 0..6
_WEIGHT_MASKS = tuple(
    sum(1 << i for i in range(64) if i.bit_count() == c) for c in range(7))


def algebraic_degree(f: np.ndarray) -> int:
    """Max popcount over set ANF monomial masks; -1 for the zero function.

    Read off the packed ANF words: mask 64k + i has popcount
    popcount(k) + popcount(i), so the degree is the max over c of
    popcount(k) + c over the words k with a set bit at a position of popcount c.
    """
    words = _packed_anf(f)
    word_weights = np.bitwise_count(np.arange(words.size, dtype=np.int64)).astype(np.int8)
    degree = -1
    for c, mask in enumerate(_WEIGHT_MASKS):
        hit = (words & np.uint64(mask)) != 0
        top = int(np.max(word_weights, where=hit, initial=-1))
        if top >= 0:
            degree = max(degree, top + c)
    return degree


# ----------------------------------------------------------------- io ------


def table_to_bytes(f: np.ndarray) -> bytes:
    """Bit-packed little-endian bytes: bit i of the stream is f(i)."""
    return np.packbits(f, bitorder="little").tobytes()


def table_to_hex(f: np.ndarray) -> str:
    return format(int.from_bytes(table_to_bytes(f), "little"), "#x")


def anf_monomials_hex(a: np.ndarray) -> list[str]:
    """Set monomial masks as lowercase hex, ascending."""
    return [format(int(u), "#x") for u in np.nonzero(a)[0]]
