"""Binary field arithmetic for GF(2^n) on plain-int coordinate vectors.

Elements are ints: bit i is the coefficient of x^i in the polynomial basis.
A FieldCtx fixes the representation (reduction polynomial, generator, dual
basis) and provides all arithmetic as methods; contexts are immutable after
construction apart from the per_field memo, so they can be shared freely.

The field structure the checks need comes from closed forms, with no GF(2)
linear solver: the dual basis from the derivative of the reduction
polynomial, the coset {lam : tr_rel(lam) = 1} from the generator, and the
roots of y^2 + y = d from a fixed linear combination of d's conjugates.

Array code multiplies and divides through FieldCtx.quotient and reads the
additive character through FieldCtx.chi, so the layout of the exp/log tables
behind them is known to this module alone.

For the constructions on GF(2^{2m}) build contexts with create_ctx(m); the
Kloosterman machinery also needs stand-alone fields of any degree, built with
create_field(k).
"""

from __future__ import annotations

import functools
import operator

import numpy as np

from . import kernels

MAX_N = 28

# exponents per piece of the log-table scatter
LOG_CHUNK = 1 << 16


class FieldError(Exception):
    """Base class for field construction/arithmetic errors."""


class NotIrreducible(FieldError):
    pass


class TooLarge(FieldError):
    pass


class DivisionByZero(FieldError):
    pass


class NotInSubfield(FieldError):
    pass


class ZeroMu(FieldError):
    pass


def check_n(n: int, cap: int = MAX_N) -> None:
    """Raise TooLarge when a field of degree n would exceed the capability cap."""
    if n > cap:
        raise TooLarge(f"n={n} exceeds capability cap {cap}")


# ----------------------------------------------------- GF(2)[x] on ints ----


def clmul(a: int, b: int) -> int:
    """Carryless product of two GF(2) polynomials."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        b >>= 1
    return r


def polydeg(p: int) -> int:
    return p.bit_length() - 1


def polymod(a: int, m: int) -> int:
    dm = polydeg(m)
    da = polydeg(a)
    while da >= dm and a:
        a ^= m << (da - dm)
        da = polydeg(a)
    return a


def polymulmod(a: int, b: int, m: int) -> int:
    return polymod(clmul(a, b), m)


def poly_gcd(a: int, b: int) -> int:
    while b:
        a, b = b, polymod(a, b)
    return a


def _poly_pow_x(e: int, m: int) -> int:
    # x^(2^e) mod m by repeated squaring of x.
    r = 2
    for _ in range(e):
        r = polymulmod(r, r, m)
    return r


def _prime_factors(v: int) -> list[int]:
    out = []
    d = 2
    while d * d <= v:
        if v % d == 0:
            out.append(d)
            while v % d == 0:
                v //= d
        d += 1 if d == 2 else 2
    if v > 1:
        out.append(v)
    return out


def is_irreducible(poly: int) -> bool:
    """Rabin test: x^(2^n) = x mod poly and gcd(x^(2^(n/p)) - x, poly) = 1."""
    n = polydeg(poly)
    if n <= 0:
        return False
    if n == 1:
        return True
    if not poly & 1:  # divisible by x
        return False
    if _poly_pow_x(n, poly) != 2:
        return False
    for p in _prime_factors(n):
        if poly_gcd(_poly_pow_x(n // p, poly) ^ 2, poly) != 1:
            return False
    return True


def smallest_irreducible(n: int) -> int:
    """Monic irreducible of degree n with the smallest integer encoding."""
    for cand in range((1 << n) | 1, 1 << (n + 1), 2):
        if is_irreducible(cand):
            return cand
    raise NotIrreducible(f"no irreducible of degree {n}")  # pragma: no cover


# ---------------------------------------------------------- linear maps ----


def xor_columns(cols: list[int], x: int) -> int:
    """XOR of cols[i] over the set bits i of x: one GF(2)-linear map, scalar.

    The array form is kernels.linear_map.  A bit of x at or beyond len(cols)
    raises IndexError.
    """
    r = 0
    i = 0
    while x >> i:
        if (x >> i) & 1:
            r ^= cols[i]
        i += 1
    return r


# -------------------------------------------------------------- context ----


def per_field(fn):
    """Memoise fn(ctx, *args) in the field's one memo, keyed by (fn, args) with
    args positional and hashable.  An exception is not memoised.  Every call
    returns the same object, so callers must not mutate it.
    """
    @functools.wraps(fn)
    def memoised(ctx, *args):
        key = (fn, args)
        if key not in ctx._memo:
            ctx._memo[key] = fn(ctx, *args)
        return ctx._memo[key]

    return memoised


class FieldCtx:
    """Immutable description of one GF(2^n) representation."""

    def __init__(self, n: int, reduction_poly: int):
        check_n(n)
        if n < 1:
            raise FieldError("n must be >= 1")
        if polydeg(reduction_poly) != n or not reduction_poly & 1:
            raise NotIrreducible(
                f"override 0x{reduction_poly:x} is not monic of degree {n} with constant term 1")
        if not is_irreducible(reduction_poly):
            raise NotIrreducible(f"0x{reduction_poly:x} is reducible")
        self.n = n
        self.q = 1 << n
        self.reduction_poly = reduction_poly
        self._memo: dict = {}  # per_field's
        self.generator = self._find_generator()

        # tr = sum over k < n of y^(2^k), one linearized polynomial; bit i of
        # the mask is tr(x^i), and traces of x^k for k < 2n-1 give the Gram rows
        self.trace_mask = sum(t << i for i, t in enumerate(self.linearized([1] * n)))
        self._basis_traces = [self.tr_abs(self.xpow(k)) for k in range(2 * n - 1)]
        self.gram_rows = []
        for i in range(n):
            row = 0
            for j in range(n):
                row |= self._basis_traces[i + j] << j
            self.gram_rows.append(row)
        self.dual_basis = self._compute_dual_basis()
        for i in range(n):
            for j in range(n):
                if self.tr_abs(self.mul(self.xpow(i), self.dual_basis[j])) != (i == j):
                    raise FieldError("dual basis verification failed")  # pragma: no cover

    # -- construction helpers

    def xpow(self, k: int) -> int:
        """The basis power x^k as an element (k need not be < n)."""
        r = 1
        for _ in range(k):
            r = polymod(r << 1, self.reduction_poly)
        return r

    def _order_is_full(self, g: int) -> bool:
        if g == 0:
            return False
        order = self.q - 1
        if order == 1:
            return g == 1
        for p in _prime_factors(order):
            if self.pow(g, order // p) == 1:
                return False
        return True

    def _find_generator(self) -> int:
        if self.q == 2:
            return 1
        for g in range(2, self.q):
            if self._order_is_full(g):
                return g
        raise FieldError("no generator found")  # pragma: no cover

    def _compute_dual_basis(self) -> list[int]:
        # f(X) = (X - x) * sum_j beta_j X^j and gamma_j = beta_j / f'(x)
        # (Lidl & Niederreiter, Finite Fields, ch. 2); beta by synthetic division
        f, x = self.reduction_poly, self.xpow(1)
        beta = [1]
        for j in range(self.n - 1, 0, -1):
            beta.append(((f >> j) & 1) ^ self.mul(x, beta[-1]))
        beta.reverse()
        deriv = 0  # f'(x): the odd-degree terms of f, each lowered by one
        for i in range(1, self.n + 1, 2):
            if (f >> i) & 1:
                deriv ^= self.xpow(i - 1)
        scale = self.inv(deriv)
        return [self.mul(b, scale) for b in beta]

    # -- subfield bookkeeping

    @property
    def m(self) -> int:
        if self.n % 2:
            raise FieldError("n is odd: no index-2 subfield structure")
        return self.n // 2

    # -- scalar arithmetic

    def mul(self, a: int, b: int) -> int:
        return polymulmod(a, b, self.reduction_poly)

    def sq(self, a: int) -> int:
        return polymulmod(a, a, self.reduction_poly)

    def pow(self, a: int, e: int) -> int:
        # pow(0, 0) = 1 by the empty-product convention
        if e < 0:
            raise ValueError("exponent must be >= 0")
        r = 1
        base = a
        while e:
            if e & 1:
                r = self.mul(r, base)
            base = self.sq(base)
            e >>= 1
        return r

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("0 has no inverse")
        return self.pow(a, self.q - 2)

    @per_field
    def frobenius(self, k: int) -> list[int]:
        """Columns (x^i)^(2^k), i < n, of the GF(2)-linear map y -> y^(2^k).

        Every Frobenius power in the package is xor_columns of these (or
        kernels.linear_map for an array); k squares the columns of k - 1.
        """
        if k == 0:
            return [self.xpow(i) for i in range(self.n)]
        return [self.sq(c) for c in self.frobenius(k - 1)]

    def linearized(self, coeffs) -> list[int]:
        """Columns of the GF(2)-linear map y -> sum over k of coeffs[k] * y^(2^k),
        a linearized polynomial (Lidl & Niederreiter, Finite Fields, ch. 3)."""
        return [functools.reduce(operator.xor, map(self.mul, coeffs, col))
                for col in zip(*map(self.frobenius, range(len(coeffs))))]

    def conjugate(self, x: int) -> int:
        return xor_columns(self.frobenius(self.m), x)

    def sqrt(self, x: int) -> int:
        return xor_columns(self.frobenius(self.n - 1), x)

    # -- traces

    def tr_abs(self, x: int) -> int:
        return (x & self.trace_mask).bit_count() & 1

    def tr_rel(self, x: int) -> int:
        return x ^ self.conjugate(x)

    def tr_sub(self, x: int) -> int:
        if not self.in_subfield(x):
            raise NotInSubfield(f"0x{x:x} is not in GF(2^{self.m})")
        # tr_sub(x) = tr_sub(tr_rel(lam) * x) = tr(lam * x) when tr_rel(lam) = 1
        return self.tr_abs(self.mul(self.subgroup("affine_E")[0], x))

    def in_subfield(self, x: int) -> bool:
        return self.conjugate(x) == x

    def check_mu(self, mu: int) -> None:
        """Raise unless mu is a nonzero element of the subfield GF(2^m)."""
        if mu == 0:
            raise ZeroMu("mu must be nonzero")
        if not (0 < mu < self.q and self.in_subfield(mu)):
            raise NotInSubfield(f"{mu:#x} is not in GF(2^{self.m})")

    # -- subgroups

    @per_field
    def cyclic(self, d: int) -> np.ndarray:
        """The order-d subgroup as int64 in orbit order: h^k at k < d, h = g^((q-1)/d).

        The one enumeration of a cyclic subgroup; ValueError unless d divides
        q - 1, FieldError if the orbit does not close exactly at d.
        """
        if d < 1 or (self.q - 1) % d:
            raise ValueError(f"{d} does not divide q - 1 = {self.q - 1}")
        h = self.pow(self.generator, (self.q - 1) // d)
        orbit = kernels.orbit(1, h, d + 1, self.reduction_poly)
        if orbit[d] != 1 or (orbit[1:d] == 1).any():
            raise FieldError("subgroup enumeration has wrong order")
        return orbit[:d]

    @per_field
    def subgroup(self, which: str) -> list[int]:
        """Deterministic ascending enumeration of a named subset.

        'subfield_units'  - GF(2^m)^* inside this field (order 2^m - 1)
        'affine_E'        - solutions of y + conjugate(y) = 1 (size 2^m)
        """
        if which == "subfield_units":
            return sorted(self.cyclic((1 << self.m) - 1).tolist())
        if which == "affine_E":
            # g is not in the subfield and tr_rel is GF(2^m)-linear, so
            # tr_rel(g / tr_rel(g)) = 1 and E is that point plus the subfield
            g = self.generator
            lam0 = self.mul(g, self.inv(self.tr_rel(g)))
            return sorted(lam0 ^ y for y in [0, *self.subgroup("subfield_units")])
        raise ValueError(f"unknown subgroup {which!r}")

    # -- Artin-Schreier

    @per_field
    def artin_schreier_cols(self) -> list[int]:
        """Columns of one fixed inverse of y -> y^2 + y on the trace-zero elements.

        With delta the first basis power of trace one and
        c_k = sum_{k<j<n} delta^(2^j), P(d) = sum_k c_k d^(2^k) solves
        y^2 + y = d + tr(d) * delta (Berlekamp, Rumsey & Solomon, Inform.
        Control 1967).  Column i is P(x^i), so for a trace-zero d the XOR of
        d's columns is a root of y^2 + y = d.
        """
        delta = next(self.xpow(i) for i in range(self.n) if self._basis_traces[i])
        c = [1 ^ delta]  # c_0 = tr(delta) + delta, c_(k+1) = c_k^2 + delta
        for _ in range(self.n - 1):
            c.append(self.sq(c[-1]) ^ delta)
        cols = self.linearized(c)
        for i, y in enumerate(cols):
            if self.sq(y) ^ y != self.xpow(i) ^ (delta if self._basis_traces[i] else 0):
                raise FieldError("Artin-Schreier verification failed")  # pragma: no cover
        return cols

    # -- dual-basis functional masks

    def dual_mask(self, a: int) -> int:
        """Coordinates of a in the dual basis, packed into an int.

        Bit j equals tr_abs(a * x^j), so parity(dual_mask(a) & x) = tr_abs(a*x)
        for every element x.  kernels.linear_map(xs, ctx.gram_rows) gives the
        masks of a whole array, and dual_masks() those of every element.
        """
        return xor_columns(self.gram_rows, a)

    @per_field
    def dual_masks(self) -> np.ndarray:
        """dual_mask(x) for every x in coordinate order, int64, built once per field.

        A spectrum indexed by mask, read at dual_masks(), is indexed by field point.
        """
        return kernels.linear_table(self.gram_rows, np.int64)

    # -- bulk tables (O(2^n), built on first use only)

    @per_field
    def tables(self) -> tuple[np.ndarray, np.ndarray]:
        """(exp, log): exp[k] = g^k for k < 2^n - 1, int64; log[exp[k]] = k and
        log[0] = -1, int32 (k < 2^MAX_N).

        log is filled by a scatter in LOG_CHUNK pieces, so no 2^n index array
        is allocated.
        """
        exp = kernels.exp_table(self.n, self.reduction_poly, self.generator)
        log = np.full(self.q, -1, dtype=np.int32)
        ks = np.arange(min(LOG_CHUNK, self.q - 1), dtype=np.int32)
        for lo in range(0, self.q - 1, LOG_CHUNK):
            chunk = exp[lo:lo + LOG_CHUNK]
            log[chunk] = ks[:chunk.size]
            ks += LOG_CHUNK
        return exp, log

    @per_field
    def power_table(self, e: int) -> np.ndarray:
        """x^e for every x in coordinate order; x = 0 maps to 0 (e > 0).

        No library code calls it; it stays while the benchmark's tracer names it.
        """
        if e <= 0:
            raise ValueError("power_table needs e >= 1")
        exp, log = self.tables()
        out = np.zeros(self.q, dtype=np.int64)
        out[1:] = exp[np.multiply(log[1:], e, dtype=np.int64) % (self.q - 1)]
        return out

    def quotient(self, nums, dens=()) -> np.ndarray:
        """prod(nums) / prod(dens) elementwise, as int64, in one exp-table gather.

        Factors are ints or int64 arrays and broadcast together.  The result
        is 0 wherever any factor is 0, so a zero denominator acts like x^(q-2).
        """
        exp, log = self.tables()
        nums = [np.asarray(f, dtype=np.int64) for f in nums]
        dens = [np.asarray(f, dtype=np.int64) for f in dens]
        # one int64 buffer: any number of int32 logs, each below 2^MAX_N
        logs = np.zeros(np.broadcast_shapes(*(f.shape for f in nums + dens)), dtype=np.int64)
        for f in nums:
            logs += log[f]
        for f in dens:
            logs -= log[f]
        np.remainder(logs, self.q - 1, out=logs)
        # out[i] reads only logs[i], so the gather lands in the buffer it reads;
        # the logs are in range, and clip (unlike raise) leaves out unbuffered
        np.take(exp, logs, out=logs, mode="clip")
        for f in nums + dens:
            if not f.all():
                np.copyto(logs, 0, where=f == 0)
        return logs

    def chi(self, xs, a: int = 1) -> np.ndarray:
        """(-1)^tr(a*x) for every x of xs, as int64."""
        return 1 - 2 * kernels.masked_parity(np.asarray(xs), self.dual_mask(a)).astype(np.int64)

    def char_sums(self, weights) -> np.ndarray:
        """sum over y of weights[y] * chi(a*y) for every element a, int64, indexed by a.

        One butterfly gives the sum at every dual mask; with the histogram of
        y(x) as weights it is the sum over x of chi(a * y(x)), for every a.
        """
        w = np.asarray(weights).astype(np.int64, casting="safe")  # a copy; no float weights
        if w.shape != (self.q,):
            raise ValueError(f"char_sums needs {self.q} weights, got shape {w.shape}")
        kernels.wht_inplace(w)
        return w[self.dual_masks()]

    @per_field
    def trace_table(self) -> np.ndarray:
        """tr_abs(x) for every x in coordinate order, uint8.

        tr is linear with columns tr(x^i), so the table is built by doubling,
        with no index array.
        """
        return kernels.linear_table(self._basis_traces[:self.n], np.uint8)


# --------------------------------------------------------- constructors ----


def create_ctx(m: int, poly_override: int | None = None) -> FieldCtx:
    """GF(2^n) with n = 2m, the home of the f/g constructions."""
    if m < 1:
        raise FieldError("m must be >= 1")
    return create_field(2 * m, poly_override)


def create_field(n: int, poly_override: int | None = None) -> FieldCtx:
    """Stand-alone GF(2^n) of any degree (subfield structure needs even n)."""
    check_n(n)
    poly = smallest_irreducible(n) if poly_override is None else poly_override
    return FieldCtx(n, poly)


def default_ctx(m: int) -> FieldCtx:
    """Cached default-representation GF(2^{2m}): the same object as default_field(2m)."""
    if m < 1:
        raise FieldError("m must be >= 1")
    return default_field(2 * m)


@functools.lru_cache(maxsize=None)
def default_field(n: int) -> FieldCtx:
    """Cached default-representation GF(2^n)."""
    return create_field(n)


# ----------------------------------------------------------- embeddings ----


def embedding_columns(small: FieldCtx, big: FieldCtx) -> list[int]:
    """Columns r^i, i < k, of the embedding GF(2^k) -> GF(2^n) for k | n.

    r is the smallest root in big of small's reduction polynomial.  The image
    of a is xor_columns(cols, a); kernels.linear_map(xs, cols) maps an array.
    No table of big is built.
    """
    if big.n % small.n:
        raise FieldError(f"GF(2^{small.n}) does not embed in GF(2^{big.n})")

    # the roots lie in the order-(2^k - 1) subgroup; at its orbit point h^j
    # small's reduction polynomial is the XOR of h^(ij) over its terms x^i
    units = small.q - 1
    orbit = big.cyclic(units)
    j = np.arange(units)
    value = np.zeros(units, dtype=np.int64)
    for i in range(small.n + 1):
        if (small.reduction_poly >> i) & 1:
            value ^= orbit[i * j % units]
    root = int(orbit[value == 0].min())
    cols = [1]
    for _ in range(1, small.n):
        cols.append(big.mul(cols[-1], root))
    return cols


@per_field
def subfield_coords(ctx: FieldCtx):
    """(image, coords) of the default GF(2^m) in ctx, n = 2m: image[a] is the
    element a of GF(2^m) in ctx, int64, and coords(xs) its inverse, GF(2^m)'s
    element of each of ctx's subfield elements xs (ints or an int64 array).

    The one subfield coordinate map: embedding_columns runs once per field.
    coords raises NotInSubfield on an element outside ctx's subfield.
    """
    m = ctx.m
    image = kernels.linear_table(embedding_columns(default_field(m), ctx), np.int64)
    order = np.argsort(image)

    def coords(xs):
        a = order[np.searchsorted(image, xs, sorter=order).clip(max=image.size - 1)]
        if (image[a] != xs).any():
            raise NotInSubfield(f"not every element of {xs} is in GF(2^{m})")
        return a

    return image, coords


@functools.lru_cache(maxsize=None)
def default_embedding(k: int, n: int) -> tuple[int, ...]:
    """embedding_columns of the default GF(2^k) in the default GF(2^n); cached, so a tuple."""
    return tuple(embedding_columns(default_field(k), default_field(n)))
