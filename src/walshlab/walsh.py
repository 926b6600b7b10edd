"""Walsh-Hadamard spectra.

wht_fast produces the full spectrum indexed by the GF(2)-linear functional
mask u (value at u = sum over x of (-1)^(f(x) + parity(u & x))); read at
FieldCtx.dual_masks() it is indexed by field point a, the character sum of
(-1)^(f(x) + tr(a*x)).
"""

from __future__ import annotations

import numpy as np

from . import kernels
from .gf2n import check_n


def wht_fast(f: np.ndarray) -> np.ndarray:
    """Full spectrum of a uint8 truth table by the in-place butterfly,
    O(n * 2^n): int64, indexed by mask."""
    if f.dtype != np.uint8:
        raise ValueError(f"wht_fast needs a uint8 truth table, got {f.dtype}")
    n = kernels.log2_length(f)
    check_n(n)
    v = f.astype(np.int64)
    v *= -2
    v += 1  # 1 - 2f on the one int64 array
    kernels.wht_inplace(v)
    return v


def distribution(spectrum: np.ndarray) -> dict[int, int]:
    """Value -> frequency of a spectrum, ascending by value.

    This is the one summary of a spectrum: nonlinearity, classify and every
    report read it instead of the 2^n values.
    """
    if spectrum.dtype.kind not in "iu":
        raise ValueError(f"distribution needs an integer spectrum, got {spectrum.dtype}")
    # sort a copy in the narrowest signed dtype that holds lo and -hi - 1,
    # so every value from lo to hi; few distinct values make few runs
    lo, hi = int(spectrum.min()), int(spectrum.max())
    runs = spectrum.astype(np.min_scalar_type(min(lo, -hi - 1))).ravel()
    runs.sort()
    starts = np.concatenate(([0], np.flatnonzero(runs[1:] != runs[:-1]) + 1))
    counts = np.diff(starts, append=runs.size)
    return dict(zip(runs[starts].tolist(), counts.tolist()))


def nonlinearity(dist: dict[int, int]) -> int:
    """2^(n-1) - max|W|/2, with 2^n the total count of the distribution."""
    n = sum(dist.values()).bit_length() - 1
    return (1 << (n - 1)) - max(abs(v) for v in dist) // 2


def classify(dist: dict[int, int], m: int) -> str:
    """Spectral shape label for n = 2m: bent, semi-bent, plateaued(A),
    five-valued{...} or other{...}.

    Semi-bent on even n is read as values in {0, +-2^(m+1)}.
    """
    vset = set(dist)
    bent_val = 1 << m
    if vset <= {bent_val, -bent_val}:
        return "bent"
    sb = 1 << (m + 1)
    if vset <= {0, sb, -sb}:
        return "semi-bent"
    nonzero = {abs(v) for v in vset if v != 0}
    if len(nonzero) == 1:
        return f"plateaued({nonzero.pop()})"
    body = ",".join(str(v) for v in sorted(vset))
    return f"{'five-valued' if len(vset) <= 5 else 'other'}{{{body}}}"
