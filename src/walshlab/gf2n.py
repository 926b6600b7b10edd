"""Binary field arithmetic for GF(2^n) on plain-int coordinate vectors.

Elements are ints: bit i is the coefficient of x^i in the polynomial basis.
A FieldCtx fixes the representation (reduction polynomial, generator, dual
basis) and provides all arithmetic as methods; contexts are immutable after
construction apart from idempotent lazy caches, so they can be shared freely.

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

import numpy as np

from . import kernels

DEFAULT_MAX_N = 28


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


class InSubfield(FieldError):
    pass


class ZeroMu(FieldError):
    pass


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


class FieldCtx:
    """Immutable description of one GF(2^n) representation."""

    def __init__(self, n: int, reduction_poly: int, max_n: int = DEFAULT_MAX_N):
        if n > max_n:
            raise TooLarge(f"n={n} exceeds capability cap {max_n}")
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
        self.generator = self._find_generator()

        # traces of x^k for k < 2n-1 drive the trace mask and the Gram rows
        self._basis_traces = [self._trace_direct(self.xpow(k)) for k in range(2 * n - 1)]
        self.trace_mask = 0
        for i in range(n):
            self.trace_mask |= self._basis_traces[i] << i
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

        # lazy caches (idempotent; safe to race)
        self._tables: tuple[np.ndarray, np.ndarray] | None = None
        self._subgroups: dict[str, list[int]] = {}
        self._as_cols: list[int] | None = None
        self._pow_tables: dict[int, np.ndarray] = {}
        self._tr_table: np.ndarray | None = None

    # -- construction helpers

    def xpow(self, k: int) -> int:
        """The basis power x^k as an element (k need not be < n)."""
        r = 1
        for _ in range(k):
            r = polymod(r << 1, self.reduction_poly)
        return r

    def _trace_direct(self, x: int) -> int:
        acc = 0
        t = x
        for _ in range(self.n):
            acc ^= t
            t = polymulmod(t, t, self.reduction_poly)
        if acc not in (0, 1):  # pragma: no cover
            raise FieldError("trace left the prime field")
        return acc

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

    def conjugate(self, x: int) -> int:
        r = x
        for _ in range(self.m):
            r = self.sq(r)
        return r

    def sqrt(self, x: int) -> int:
        r = x
        for _ in range(self.n - 1):
            r = self.sq(r)
        return r

    # -- traces

    def tr_abs(self, x: int) -> int:
        return (x & self.trace_mask).bit_count() & 1

    def tr_rel(self, x: int) -> int:
        return x ^ self.conjugate(x)

    def tr_sub(self, x: int) -> int:
        if self.conjugate(x) != x:
            raise NotInSubfield(f"0x{x:x} is not in GF(2^{self.m})")
        acc = 0
        t = x
        for _ in range(self.m):
            acc ^= t
            t = self.sq(t)
        if acc not in (0, 1):  # pragma: no cover
            raise FieldError("subfield trace left the prime field")
        return acc

    def in_subfield(self, x: int) -> bool:
        return self.conjugate(x) == x

    def check_mu(self, mu: int) -> None:
        """Raise unless mu is a nonzero element of the subfield GF(2^m)."""
        if mu == 0:
            raise ZeroMu("mu must be nonzero")
        if not (0 < mu < self.q and self.in_subfield(mu)):
            raise NotInSubfield(f"{mu:#x} is not in GF(2^{self.m})")

    def on_unit_circle(self, z: int) -> bool:
        return z != 0 and self.pow(z, (1 << self.m) + 1) == 1

    # -- subgroups

    def subgroup(self, which: str) -> list[int]:
        """Deterministic ascending enumeration of a named subset.

        'subfield_units'  - GF(2^m)^* inside this field (order 2^m - 1)
        'unit_circle'     - {z : z^(2^m+1) = 1} (order 2^m + 1)
        'affine_E'        - solutions of y + conjugate(y) = 1 (size 2^m)
        """
        got = self._subgroups.get(which)
        if got is not None:
            return got
        if which in ("subfield_units", "unit_circle"):
            # the subgroup of order 2^m - sign is the orbit of g^(2^m + sign)
            sign = 1 if which == "subfield_units" else -1
            order = (1 << self.m) - sign
            h = self.pow(self.generator, (1 << self.m) + sign)
            orbit = kernels.orbit(1, h, order + 1, self.reduction_poly)
            if orbit[order] != 1 or (orbit[1:order] == 1).any():
                raise FieldError("subgroup enumeration has wrong order")
            out = sorted(orbit[:order].tolist())
        elif which == "affine_E":
            # g is not in the subfield and tr_rel is GF(2^m)-linear, so
            # tr_rel(g / tr_rel(g)) = 1 and E is that point plus the subfield
            g = self.generator
            lam0 = self.mul(g, self.inv(self.tr_rel(g)))
            out = sorted(lam0 ^ y for y in [0, *self.subgroup("subfield_units")])
        else:
            raise ValueError(f"unknown subgroup {which!r}")
        self._subgroups[which] = out
        return out

    # -- Artin-Schreier

    def artin_schreier_cols(self) -> list[int]:
        """Columns of one fixed inverse of y -> y^2 + y on the trace-zero elements.

        With delta the first basis power of trace one and
        c_k = sum_{k<j<n} delta^(2^j), P(d) = sum_k c_k d^(2^k) solves
        y^2 + y = d + tr(d) * delta (Berlekamp, Rumsey & Solomon, Inform.
        Control 1967).  Column i is P(x^i), so for a trace-zero d the XOR of
        d's columns is a root of y^2 + y = d.
        """
        if self._as_cols is None:
            delta = next(self.xpow(i) for i in range(self.n) if self._basis_traces[i])
            c = [1 ^ delta]  # c_0 = tr(delta) + delta, c_(k+1) = c_k^2 + delta
            for _ in range(self.n - 1):
                c.append(self.sq(c[-1]) ^ delta)
            cols = []
            for i in range(self.n):
                xi = self.xpow(i)
                y, t = 0, xi
                for ck in c:
                    y ^= self.mul(ck, t)
                    t = self.sq(t)
                if self.sq(y) ^ y != xi ^ (delta if self._basis_traces[i] else 0):
                    raise FieldError("Artin-Schreier verification failed")  # pragma: no cover
                cols.append(y)
            self._as_cols = cols
        return self._as_cols

    def solve_artin_schreier(self, d: int) -> set[int]:
        """Roots of y^2 + y = d: a 2-element coset, or empty when tr(d)=1."""
        if self.tr_abs(d):
            return set()
        y = xor_columns(self.artin_schreier_cols(), d)
        return {y, y ^ 1}

    # -- dual-basis functional masks

    def dual_mask(self, a: int) -> int:
        """Coordinates of a in the dual basis, packed into an int.

        Bit j equals tr_abs(a * x^j), so parity(dual_mask(a) & x) = tr_abs(a*x)
        for every element x.  kernels.linear_map(xs, ctx.gram_rows) gives the
        masks of a whole array.
        """
        return xor_columns(self.gram_rows, a)

    # -- bulk tables (O(2^n), built on first use only)

    def tables(self) -> tuple[np.ndarray, np.ndarray]:
        """(exp, log): exp[k] = g^k for k < 2^n - 1; log[exp[k]] = k, log[0] = -1."""
        if self._tables is None:
            exp = kernels.exp_table(self.n, self.reduction_poly, self.generator)
            log = np.full(self.q, -1, dtype=np.int64)
            log[exp] = np.arange(self.q - 1, dtype=np.int64)
            self._tables = (exp, log)
        return self._tables

    def power_table(self, e: int) -> np.ndarray:
        """x^e for every x in coordinate order; x = 0 maps to 0 (e > 0)."""
        got = self._pow_tables.get(e)
        if got is not None:
            return got
        if e <= 0:
            raise ValueError("power_table needs e >= 1")
        exp, log = self.tables()
        out = np.zeros(self.q, dtype=np.int64)
        out[1:] = exp[(log[1:] * e) % (self.q - 1)]
        self._pow_tables[e] = out
        return out

    def quotient(self, nums, dens=()) -> np.ndarray:
        """prod(nums) / prod(dens) elementwise, as int64, in one exp-table gather.

        Factors are ints or int64 arrays and broadcast together.  The result
        is 0 wherever any factor is 0, so a zero denominator acts like x^(q-2).
        """
        exp, log = self.tables()
        nums = [np.asarray(f, dtype=np.int64) for f in nums]
        dens = [np.asarray(f, dtype=np.int64) for f in dens]
        out = exp[(sum(log[f] for f in nums) - sum(log[f] for f in dens)) % (self.q - 1)]
        zeros = [f == 0 for f in nums + dens if not f.all()]
        if zeros:
            out = np.where(functools.reduce(np.logical_or, zeros), 0, out)
        return out

    def chi(self, xs, a: int = 1) -> np.ndarray:
        """(-1)^tr(a*x) for every x of xs, as int64."""
        return 1 - 2 * kernels.masked_parity(np.asarray(xs), self.dual_mask(a)).astype(np.int64)

    def trace_table(self) -> np.ndarray:
        """tr_abs(x) for every x in coordinate order, uint8."""
        if self._tr_table is None:
            xs = np.arange(self.q, dtype=np.int64)
            self._tr_table = kernels.masked_parity(xs, self.trace_mask)
        return self._tr_table


# --------------------------------------------------------- constructors ----


def create_ctx(m: int, poly_override: int | None = None,
               max_n: int = DEFAULT_MAX_N) -> FieldCtx:
    """GF(2^n) with n = 2m, the home of the f/g constructions."""
    if m < 1:
        raise FieldError("m must be >= 1")
    return create_field(2 * m, poly_override, max_n)


def create_field(n: int, poly_override: int | None = None,
                 max_n: int = DEFAULT_MAX_N) -> FieldCtx:
    """Stand-alone GF(2^n) of any degree (subfield structure needs even n)."""
    if n > max_n:
        raise TooLarge(f"n={n} exceeds capability cap {max_n}")
    poly = smallest_irreducible(n) if poly_override is None else poly_override
    return FieldCtx(n, poly, max_n=max_n)


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
    """
    if big.n % small.n:
        raise FieldError(f"GF(2^{small.n}) does not embed in GF(2^{big.n})")
    # the roots lie in the order-(2^k - 1) subgroup, the orbit of g^step
    g = big.pow(big.generator, (big.q - 1) // (small.q - 1))
    xs = kernels.orbit(1, g, small.q - 1, big.reduction_poly)
    acc = np.zeros_like(xs)
    for bit in range(small.n, -1, -1):  # Horner on small's reduction polynomial
        acc = big.quotient([acc, xs]) ^ ((small.reduction_poly >> bit) & 1)
    root = int(xs[acc == 0].min())
    cols = [1]
    for _ in range(1, small.n):
        cols.append(big.mul(cols[-1], root))
    return cols


@functools.lru_cache(maxsize=None)
def default_embedding(k: int, n: int) -> tuple[int, ...]:
    """embedding_columns of the default GF(2^k) in the default GF(2^n); cached, so a tuple."""
    return tuple(embedding_columns(default_field(k), default_field(n)))
