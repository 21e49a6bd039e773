"""Arithmetic over F_{p^2} and dense univariate polynomials on top of it.

Elements of F_{p^2} = F_p[t]/(t^2 - r) are plain tuples (c0, c1) of ints in
[0, p), with r the smallest quadratic non-residue mod p.  Tuples keep elements
hashable and cheap to sort; all operations live on the FieldCtx.  Polynomials
hold their coefficients as a pair of int64 numpy arrays (one per component) so
that products run through exact integer convolution.

poly_roots_in_fq finds the roots in F_{p^2} of polynomials of small degree;
the package's only ones are the seed of the supersingular lambda walk (the
D = -15 Hilbert quadratic and the cubic in u = lambda^2 - lambda + 1).  The tests also use it
as the oracle for the lambda set and the 2-torsion roots.
"""

from __future__ import annotations

import random
from typing import Iterator, Optional, Sequence

import numpy as np

FqElem = tuple  # (c0, c1) with 0 <= c0, c1 < p

# The one int64 bound.  Every polynomial product goes through _conv_fq, always
# on coefficients already reduced to [0, p).  There, (a0 + a1) * (b0 + b1) sums
# at most len products below 4p^2 each, len being the shorter operand, and the
# real part m0 + r*m2 stays below (1 + r) p^2 len; both are below
# 4p^2 len + r p^2 len < 2^63.  For p <= MAX_P the least non-residue r is at
# most 29, so any len below 3 * 10^8 is exact, far beyond the longest operand
# used (length 3m + 1 < 3p/2, m = (p-1)/2, in strategy a's _cubic_power).  The
# schoolbook division accumulates at most (1 + r) p^2 per coefficient before
# reducing.  The elementwise products of _mul_arrays, behind mobius_eval_array
# and the batched Igusa key (genus2.igusa_key), take operands in [0, p) and
# reduce each product before the next, so no intermediate exceeds
# (1 + r) p^2 < 2^35; the key's sums stay below 10 p: each S_k of I6 adds six
# reduced pairings (< 6 p) and is reduced before its product; I4 and I6 add
# ten products each.
# Strategy a's evaluation search (strategies.howe_type_points) builds its
# power table and scale rows by _mul_stacked, and its entry tables T V by
# matmul_fq, whose four real products run in float64: each sums at most
# 3m + 1 <= 3p/2 integer products below p^2, so every partial sum, in any
# order and with FMA, is an integer below 1.5 p^3 < 2^53, and exact.  Back in
# int64, x1 y1 is reduced mod p before r multiplies it.  Entry 0 spans p
# columns of the scale rows S, and its zeros on a block of scales come from
# one float64 product [S0 | S1] @ [[T0, T1], [r T1 mod p, T0]]
# (strategies._zero_mask): 2p products below p^2 per output, so every partial
# sum is an integer below 2 p^3 < 2^53, and exact.  The zero test stays in
# float64 as rint(z / p) * p == z.  Where p divides z, the quotient is an
# integer below 2^53, which IEEE division returns exactly; elsewhere
# rint(z / p) * p is a multiple of p below 2^53, exact too, so not z.  The
# values of entries 1-3 at those zeros sum at most 3m + 1 reduced products
# below p, in int64.
# The baby-step giant-step Hasse test (ellcurve.deuring_vanishes) takes its
# powers by _mul_arrays, reduced.  Its inner sums, one int64 matrix product
# of the powers lambda^0..lambda^(B-1) with the table of binom(m, k)^2 mod p,
# add B products below p^2 each, so stay below B p^2 < 2^37 (B = isqrt(m) +
# 1 <= 123); its giant steps multiply reduced sums by reduced powers of
# lambda^B and add J reduced products, below J p < 2^22.  The
# Cartier-Manin recurrence (genus2.cartier_manin_rows) builds each sextic
# one root at a time and multiplies f_i / f_0 by g_(k-i), all in [0, p),
# so every product of its loop on arrays stays below (1 + r) p^2 until it
# is reduced; each step's weighted sum of six reduced products, with
# weights below p, stays below 6 p^2 < 2^33.  Its loop on Python ints, for
# one sextic, needs no bound.  The
# array inverses and square roots (_inv_stacked, _sqrt_stacked) form norms
# x0^2 - r (x1^2 mod p) < (1 + r) p^2 and index tables of length p; the
# batched Richelot step (genus2.richelot_codomains) and Howe key
# (howe.howe_key) reduce every product before the next, and the key packs
# two point codes below p^2 into one int64 below p^4 < 2^60.
MAX_P = 30000

# Row count of one block of genus2.igusa_key's sextics and of howe.howe_key's
# fits; the Richelot closure expands ROW_BLOCK // 15 classes (15 splittings
# each) per pass and strategy b fits ROW_BLOCK // 10 curves (10 splits each);
# strategy a's blocks of scales mu hold ROW_BLOCK**2 // (2 p^2) scales, at
# least one, so about ROW_BLOCK**2 real outputs of entry 0's float64 product.
# Each way it bounds the temporaries at any batch size.
ROW_BLOCK = 128


def _restore_inf():
    return INF


class _Infinity:
    """Unique marker for the point at infinity on the projective line.

    Identity comparisons (pt is INF) are used throughout, so unpickling must
    hand back the module singleton rather than a fresh instance.
    """

    __slots__ = ()

    def __repr__(self) -> str:
        return "INF"

    def __reduce__(self):
        return (_restore_inf, ())


INF = _Infinity()

ProjPoint = object  # FqElem or INF


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all 64-bit inputs."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class FieldCtx:
    """Carrier for a prime p > 3 and the extension F_{p^2} = F_p(t), t^2 = r."""

    __slots__ = ("p", "r", "zero", "one", "_cache")

    def __init__(self, p: int):
        if not is_prime(p) or p <= 3:
            raise ValueError("p must be a prime greater than 3, got %r" % (p,))
        if p > MAX_P:
            raise ValueError("p=%d exceeds the exact-int64 polynomial limit %d" % (p, MAX_P))
        self.p = p
        self.r = _least_nonresidue(p)
        self.zero = (0, 0)
        self.one = (1, 0)
        self._cache: dict = {}

    def __eq__(self, other) -> bool:
        return isinstance(other, FieldCtx) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("FieldCtx", self.p))

    def __repr__(self) -> str:
        return "FieldCtx(p=%d, t^2=%d)" % (self.p, self.r)

    # -- element construction ------------------------------------------------

    def elem(self, c0: int, c1: int = 0) -> FqElem:
        return (c0 % self.p, c1 % self.p)

    def elements(self) -> Iterator[FqElem]:
        """All of F_{p^2} in canonical (c0, c1) lexicographic order."""
        for c0 in range(self.p):
            for c1 in range(self.p):
                yield (c0, c1)

    # -- ring operations -----------------------------------------------------

    def add(self, x: FqElem, y: FqElem) -> FqElem:
        p = self.p
        return ((x[0] + y[0]) % p, (x[1] + y[1]) % p)

    def sub(self, x: FqElem, y: FqElem) -> FqElem:
        p = self.p
        return ((x[0] - y[0]) % p, (x[1] - y[1]) % p)

    def neg(self, x: FqElem) -> FqElem:
        p = self.p
        return (-x[0] % p, -x[1] % p)

    def mul(self, x: FqElem, y: FqElem) -> FqElem:
        p = self.p
        return (
            (x[0] * y[0] + self.r * x[1] * y[1]) % p,
            (x[0] * y[1] + x[1] * y[0]) % p,
        )

    def sqr(self, x: FqElem) -> FqElem:
        return self.mul(x, x)

    def conj(self, x: FqElem) -> FqElem:
        """Frobenius x -> x^p."""
        return (x[0], -x[1] % self.p)

    def norm(self, x: FqElem) -> int:
        """Norm to F_p: x * x^p = c0^2 - r*c1^2."""
        return (x[0] * x[0] - self.r * x[1] * x[1]) % self.p

    def inv(self, x: FqElem) -> FqElem:
        n = self.norm(x)
        if n == 0:
            raise ZeroDivisionError("inverse of zero in F_{p^2}")
        ninv = self.inv_table().item(n)
        return (x[0] * ninv % self.p, -x[1] * ninv % self.p)

    def div(self, x: FqElem, y: FqElem) -> FqElem:
        return self.mul(x, self.inv(y))

    def cached(self, compute):
        """compute(self), computed on first use and kept with this field.

        The one home of per-prime data: the F_p tables here and the
        supersingular lambda set and classes of ellcurve.  Values live as
        long as the field; a new FieldCtx for the same p starts empty, and a
        pickled field carries what it has computed, keyed by compute, which
        must then be a module-level function.  Every caller shares the value,
        so an array is stored read-only.
        """
        try:
            return self._cache[compute]
        except KeyError:
            value = self._cache[compute] = compute(self)
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
            return value

    def inv_table(self) -> np.ndarray:
        """Inverses of 0, 1, ..., p-1 in F_p (0 for 0), built on first use."""
        return self.cached(_inv_table)

    def sqrt_table(self) -> np.ndarray:
        """A square root of each of 0, 1, ..., p-1 in F_p, -1 for the non-residues."""
        return self.cached(_sqrt_table)

    def pow(self, x: FqElem, e: int) -> FqElem:
        if e < 0:
            return self.pow(self.inv(x), -e)
        acc = self.one
        base = x
        while e:
            if e & 1:
                acc = self.mul(acc, base)
            base = self.mul(base, base)
            e >>= 1
        return acc

    # -- quadratic structure ---------------------------------------------------

    def is_square(self, x: FqElem) -> bool:
        """x is a square of F_{p^2} exactly when its norm is a square of F_p."""
        return self.sqrt_table().item(self.norm(x)) >= 0

    def sqrt(self, x: FqElem) -> Optional[FqElem]:
        """Canonical square root in F_{p^2} (lexicographic min of the pair), or None.

        The formula of _sqrt_stacked on one element, with its F_p roots from
        the same sqrt_table().
        """
        p = self.p
        root_of = self.sqrt_table().item
        c0, c1 = x
        if c1 == 0:
            s = root_of(c0)
            # a non-residue c0 has c0/r a residue, and a purely imaginary root
            root = (s, 0) if s >= 0 else (0, root_of(c0 * self.inv_table().item(self.r) % p))
        else:
            # (a + bt)^2 = a^2 + r b^2 + 2ab t: a^2 is a root of
            # z^2 - c0 z + r c1^2/4, the other root being r b^2 (a non-square)
            n = root_of(self.norm(x))
            if n < 0:
                return None
            half = (p + 1) // 2
            h = (c0 + n) * half % p
            if root_of(h) < 0:
                h = (c0 - n) * half % p
            a = root_of(h)
            root = (a, c1 * self.inv_table().item(2 * a % p) % p)
        return min(root, (-root[0] % p, -root[1] % p))

    def nonsquare(self) -> FqElem:
        """First non-square of F_{p^2} in canonical order (cached)."""
        return self.cached(_first_nonsquare)


def _inv_table(ctx: FieldCtx) -> np.ndarray:
    p = ctx.p
    t = [0, 1] + [0] * (p - 2)
    for i in range(2, p):
        t[i] = -(p // i) * t[p % i] % p
    return np.array(t, dtype=np.int64)


def _sqrt_table(ctx: FieldCtx) -> np.ndarray:
    p = ctx.p
    t = np.full(p, -1, dtype=np.int64)
    roots = np.arange(p, dtype=np.int64)
    t[roots * roots % p] = roots
    return t


def _first_nonsquare(ctx: FieldCtx) -> FqElem:
    return next(x for x in ctx.elements() if x != ctx.zero and not ctx.is_square(x))


def _least_nonresidue(p: int) -> int:
    for r in range(2, p):
        if pow(r, (p - 1) // 2, p) == p - 1:
            return r
    raise ValueError("no quadratic non-residue found; p=%d is not an odd prime" % p)


def sort_key(pt: ProjPoint):
    """Total order on P^1(F_{p^2}): finite points lexicographically, INF last."""
    if pt is INF:
        return (1, 0, 0)
    return (0, pt[0], pt[1])


# ---------------------------------------------------------------------------
# dense univariate polynomials over F_{p^2}
# ---------------------------------------------------------------------------


def _trim(c0: np.ndarray, c1: np.ndarray) -> tuple:
    """Pad the shorter array with zeros, then drop the zero leading terms.

    c0 | c1 is zero exactly where both components are.
    """
    if len(c0) != len(c1):
        n = max(len(c0), len(c1))
        c0 = np.concatenate([c0, np.zeros(n - len(c0), dtype=np.int64)])
        c1 = np.concatenate([c1, np.zeros(n - len(c1), dtype=np.int64)])
    nonzero = np.flatnonzero(c0 | c1)
    n = int(nonzero[-1]) + 1 if len(nonzero) else 0
    return c0[:n], c1[:n]


class UniPoly:
    """Univariate polynomial over F_{p^2}, dense, ascending coefficients."""

    __slots__ = ("ctx", "c0", "c1")

    def __init__(self, ctx: FieldCtx, c0: np.ndarray, c1: np.ndarray):
        self.ctx = ctx
        self.c0, self.c1 = _trim(np.asarray(c0, dtype=np.int64) % ctx.p,
                                 np.asarray(c1, dtype=np.int64) % ctx.p)

    # -- constructors ----------------------------------------------------------

    @classmethod
    def zero(cls, ctx: FieldCtx) -> "UniPoly":
        return cls(ctx, np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))

    @classmethod
    def from_coeffs(cls, ctx: FieldCtx, coeffs: Sequence[FqElem]) -> "UniPoly":
        c0 = np.array([c[0] for c in coeffs], dtype=np.int64)
        c1 = np.array([c[1] for c in coeffs], dtype=np.int64)
        return cls(ctx, c0, c1)

    @classmethod
    def from_int_coeffs(cls, ctx: FieldCtx, coeffs: Sequence[int]) -> "UniPoly":
        c0 = np.array(coeffs, dtype=np.int64)
        return cls(ctx, c0, np.zeros(len(coeffs), dtype=np.int64))

    @classmethod
    def x_power(cls, ctx: FieldCtx, k: int) -> "UniPoly":
        c0 = np.zeros(k + 1, dtype=np.int64)
        c0[k] = 1
        return cls(ctx, c0, np.zeros(k + 1, dtype=np.int64))

    @classmethod
    def from_roots(cls, ctx: FieldCtx, roots: Sequence[FqElem]) -> "UniPoly":
        out = cls.from_int_coeffs(ctx, [1])
        for rt in roots:
            out = out * cls.from_coeffs(ctx, [ctx.neg(rt), ctx.one])
        return out

    # -- basic queries ---------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.c0) - 1

    def is_zero(self) -> bool:
        return len(self.c0) == 0

    def coeff(self, i: int) -> FqElem:
        if i < 0 or i >= len(self.c0):
            return self.ctx.zero
        return (int(self.c0[i]), int(self.c1[i]))

    def coeffs(self) -> list:
        return [(int(a), int(b)) for a, b in zip(self.c0, self.c1)]

    def leading(self) -> FqElem:
        if self.is_zero():
            raise ValueError("zero polynomial has no leading coefficient")
        return (int(self.c0[-1]), int(self.c1[-1]))

    def __eq__(self, other) -> bool:
        return (isinstance(other, UniPoly) and self.ctx == other.ctx
                and np.array_equal(self.c0, other.c0) and np.array_equal(self.c1, other.c1))

    def __repr__(self) -> str:
        return "UniPoly(p=%d, deg=%d)" % (self.ctx.p, self.degree)

    # -- arithmetic --------------------------------------------------------------

    def __add__(self, other: "UniPoly") -> "UniPoly":
        n = max(len(self.c0), len(other.c0))
        a0 = np.zeros(n, dtype=np.int64)
        a1 = np.zeros(n, dtype=np.int64)
        a0[: len(self.c0)] += self.c0
        a1[: len(self.c1)] += self.c1
        a0[: len(other.c0)] += other.c0
        a1[: len(other.c1)] += other.c1
        return UniPoly(self.ctx, a0, a1)

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        n = max(len(self.c0), len(other.c0))
        a0 = np.zeros(n, dtype=np.int64)
        a1 = np.zeros(n, dtype=np.int64)
        a0[: len(self.c0)] += self.c0
        a1[: len(self.c1)] += self.c1
        a0[: len(other.c0)] -= other.c0
        a1[: len(other.c1)] -= other.c1
        return UniPoly(self.ctx, a0, a1)

    def __neg__(self) -> "UniPoly":
        return UniPoly(self.ctx, -self.c0, -self.c1)

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        if self.is_zero() or other.is_zero():
            return UniPoly.zero(self.ctx)
        m0, m1 = _conv_fq(self.ctx, self.c0, self.c1, other.c0, other.c1)
        return UniPoly(self.ctx, m0, m1)

    def scale(self, s: FqElem) -> "UniPoly":
        p = self.ctx.p
        r = self.ctx.r
        a0 = (self.c0 * s[0] + self.c1 * (r * s[1])) % p
        a1 = (self.c0 * s[1] + self.c1 * s[0]) % p
        return UniPoly(self.ctx, a0, a1)

    def monic(self) -> "UniPoly":
        if self.is_zero():
            raise ValueError("cannot normalize the zero polynomial")
        lead = self.leading()
        if lead == self.ctx.one:
            return self
        return self.scale(self.ctx.inv(lead))

    def __divmod__(self, other: "UniPoly") -> tuple:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        ctx = self.ctx
        if self.degree < other.degree:
            return UniPoly.zero(ctx), self
        dmon = other.monic()
        lead_inv = ctx.inv(other.leading())
        q0, q1, r0, r1 = _divmod_monic(ctx, self.c0, self.c1, dmon.c0, dmon.c1)
        quo = UniPoly(ctx, q0, q1).scale(lead_inv)
        return quo, UniPoly(ctx, r0, r1)

    def __mod__(self, other: "UniPoly") -> "UniPoly":
        return divmod(self, other)[1]

    def pow_truncated(self, e: int, degcap: int) -> "UniPoly":
        """self^e with every intermediate truncated past degree degcap.

        The square-and-multiply runs on bare coefficient arrays; only the
        result is trimmed into a UniPoly.
        """
        if e < 0:
            raise ValueError("exponent must be nonnegative")
        ctx = self.ctx
        if self.is_zero() or degcap < 0:
            return UniPoly.from_int_coeffs(ctx, [1 if e == 0 else 0])
        n = degcap + 1
        a0, a1 = np.ones(1, dtype=np.int64), np.zeros(1, dtype=np.int64)
        b0, b1 = self.c0[:n], self.c1[:n]
        while e:
            if e & 1:
                a0, a1 = (c[:n] for c in _conv_fq(ctx, a0, a1, b0, b1))
            e >>= 1
            if e:
                b0, b1 = (c[:n] for c in _conv_fq(ctx, b0, b1, b0, b1))
        return UniPoly(ctx, a0, a1)

    def pow_mod(self, e: int, modulus: "UniPoly") -> "UniPoly":
        """self^e mod modulus, by square-and-multiply.

        The square-and-multiply runs on bare coefficient arrays: the modulus
        is made monic once and every product is reduced by the schoolbook
        _divmod_monic.  The package's moduli have degree at most 3 (the
        lambda walk's seed quadratic and cubic and their factors), where
        this beats a reduction by a precomputed inverse.
        """
        if e < 0:
            raise ValueError("exponent must be nonnegative")
        ctx = self.ctx
        base = self % modulus
        if modulus.degree == 0:
            return UniPoly.zero(ctx)
        if base.is_zero():
            return UniPoly.from_int_coeffs(ctx, [1 if e == 0 else 0])
        f = modulus.monic()
        f0, f1 = f.c0, f.c1
        a0, a1 = np.ones(1, dtype=np.int64), np.zeros(1, dtype=np.int64)
        b0, b1 = base.c0, base.c1
        while e:
            if e & 1:
                a0, a1 = _divmod_monic(ctx, *_conv_fq(ctx, a0, a1, b0, b1), f0, f1)[2:]
            e >>= 1
            if e:
                b0, b1 = _divmod_monic(ctx, *_conv_fq(ctx, b0, b1, b0, b1), f0, f1)[2:]
        return UniPoly(ctx, a0, a1)

    def eval(self, x: FqElem) -> FqElem:
        ctx = self.ctx
        acc = ctx.zero
        for i in range(len(self.c0) - 1, -1, -1):
            acc = ctx.mul(acc, x)
            acc = ctx.add(acc, (int(self.c0[i]), int(self.c1[i])))
        return acc


def _conv_fq(ctx: FieldCtx, a0, a1, b0, b1) -> tuple:
    """One F_{p^2} polynomial product via three integer convolutions."""
    p = ctx.p
    m0 = np.convolve(a0, b0)
    m2 = np.convolve(a1, b1)
    m1 = np.convolve(a0 + a1, b0 + b1) - m0 - m2
    return (m0 + ctx.r * m2) % p, m1 % p


def _divmod_monic(ctx: FieldCtx, n0, n1, d0, d1) -> tuple:
    """Schoolbook division by a monic divisor; mod p deferred to the end.

    A numerator shorter than the divisor is its own remainder.
    """
    p = ctx.p
    r = ctx.r
    rem0 = n0.copy()
    rem1 = n1.copy()
    dn = len(d0)
    qlen = max(len(n0) - dn + 1, 0)
    q0 = np.zeros(qlen, dtype=np.int64)
    q1 = np.zeros(qlen, dtype=np.int64)
    # divisor head excluded; values stay < p so the axpy accumulation fits int64
    h0 = d0[:-1] % p
    h1 = d1[:-1] % p
    for k in range(len(n0) - 1, dn - 2, -1):
        c0 = int(rem0[k]) % p
        c1 = int(rem1[k]) % p
        j = k - dn + 1
        q0[j] = c0
        q1[j] = c1
        if c0 or c1:
            rem0[j : k] -= c0 * h0 + (r * c1) * h1
            rem1[j : k] -= c0 * h1 + c1 * h0
            rem0[j : k] %= p
            rem1[j : k] %= p
        rem0[k] = 0
        rem1[k] = 0
    return q0, q1, rem0[: dn - 1] % p, rem1[: dn - 1] % p


def poly_gcd(f: UniPoly, g: UniPoly) -> UniPoly:
    """Monic gcd by Euclid's algorithm; gcd(f, 0) = monic(f)."""
    if f.is_zero() and g.is_zero():
        raise ValueError("gcd(0, 0) is undefined")
    a, b = f, g
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def poly_roots_in_fq(f: UniPoly, rng: Optional[random.Random] = None) -> list:
    """Distinct roots of f in F_{p^2}, sorted canonically.

    Strips to the product of distinct linear factors with gcd(f, x^q - x),
    then splits by the usual randomized (x + delta)^((q-1)/2) probes; factors
    of degree <= 2 are finished with the explicit linear/quadratic formulas,
    so the returned set never depends on the random choices.
    """
    if f.is_zero():
        raise ValueError("the zero polynomial has every element as a root")
    ctx = f.ctx
    if f.degree == 0:
        return []
    if rng is None:
        rng = random.Random(0xC0FFEE)
    q = ctx.p * ctx.p
    x = UniPoly.x_power(ctx, 1)
    xq = x.pow_mod(q, f)
    lin = poly_gcd(xq - x, f)
    roots = []
    stack = [lin]
    while stack:
        g = stack.pop()
        if g.degree <= 0:
            continue
        if g.degree == 1:
            # x + c -> root -c (g monic)
            roots.append(ctx.neg(g.coeff(0)))
            continue
        if g.degree == 2:
            roots.extend(_quadratic_roots(ctx, g))
            continue
        while True:
            delta = (rng.randrange(ctx.p), rng.randrange(ctx.p))
            probe = UniPoly.from_coeffs(ctx, [delta, ctx.one])
            h = probe.pow_mod((q - 1) // 2, g) - UniPoly.from_int_coeffs(ctx, [1])
            d = poly_gcd(h, g) if not h.is_zero() else g
            if 0 < d.degree < g.degree:
                stack.append(d)
                stack.append(divmod(g, d)[0])
                break
    roots.sort()
    return roots


def _quadratic_roots(ctx: FieldCtx, g: UniPoly) -> list:
    """Roots of a monic quadratic known to split over F_{p^2}."""
    g = g.monic()
    b = g.coeff(1)
    c = g.coeff(0)
    disc = ctx.sub(ctx.sqr(b), ctx.mul((4, 0), c))
    s = ctx.sqrt(disc)
    if s is None:
        raise ArithmeticError("quadratic expected to split has non-square discriminant")
    half = ((ctx.p + 1) // 2, 0)
    r1 = ctx.mul(ctx.sub(s, b), half)
    r2 = ctx.mul(ctx.sub(ctx.neg(s), b), half)
    return [r1] if r1 == r2 else [r1, r2]


# ---------------------------------------------------------------------------
# the projective line: cross-ratios and Mobius transformations
# ---------------------------------------------------------------------------


class MobiusMap:
    """Invertible map x -> (a*x + b)/(c*x + d) on P^1(F_{p^2})."""

    __slots__ = ("ctx", "a", "b", "c", "d")

    def __init__(self, ctx: FieldCtx, a: FqElem, b: FqElem, c: FqElem, d: FqElem):
        det = ctx.sub(ctx.mul(a, d), ctx.mul(b, c))
        if det == ctx.zero:
            raise ValueError("singular matrix does not define a Mobius map")
        self.ctx = ctx
        self.a, self.b, self.c, self.d = a, b, c, d

    def __call__(self, pt: ProjPoint) -> ProjPoint:
        ctx = self.ctx
        if pt is INF:
            num, den = self.a, self.c
        else:
            num = ctx.add(ctx.mul(self.a, pt), self.b)
            den = ctx.add(ctx.mul(self.c, pt), self.d)
        if den == ctx.zero:
            return INF
        return ctx.div(num, den)

    def compose(self, other: "MobiusMap") -> "MobiusMap":
        """self after other."""
        ctx = self.ctx
        m = ctx.mul
        a = ctx.add(m(self.a, other.a), m(self.b, other.c))
        b = ctx.add(m(self.a, other.b), m(self.b, other.d))
        c = ctx.add(m(self.c, other.a), m(self.d, other.c))
        d = ctx.add(m(self.c, other.b), m(self.d, other.d))
        return MobiusMap(ctx, a, b, c, d)

    def inverse(self) -> "MobiusMap":
        return MobiusMap(self.ctx, self.d, self.ctx.neg(self.b), self.ctx.neg(self.c), self.a)

    def key(self) -> tuple:
        """Canonical projective normalization, usable as a dict key."""
        ctx = self.ctx
        for lead in (self.a, self.b, self.c, self.d):
            if lead != ctx.zero:
                s = ctx.inv(lead)
                return tuple(ctx.mul(s, v) for v in (self.a, self.b, self.c, self.d))
        raise AssertionError("zero matrix cannot occur")

    def __eq__(self, other) -> bool:
        return isinstance(other, MobiusMap) and self.ctx == other.ctx and self.key() == other.key()

    def __hash__(self) -> int:
        return hash((self.ctx.p,) + self.key())

    def __repr__(self) -> str:
        return "MobiusMap(%r, %r, %r, %r)" % (self.a, self.b, self.c, self.d)


def _mul_arrays(ctx: FieldCtx, x0, x1, y0, y1) -> tuple:
    """Elementwise F_{p^2} product of (c0, c1) int64 arrays with entries in [0, p)."""
    p = ctx.p
    return (x0 * y0 + ctx.r * x1 * y1) % p, (x0 * y1 + x1 * y0) % p


def _mul_stacked(ctx: FieldCtx, x, y):
    """_mul_arrays on arrays whose last axis holds (c0, c1); shapes broadcast."""
    return np.stack(_mul_arrays(ctx, x[..., 0], x[..., 1], y[..., 0], y[..., 1]), axis=-1)


def matmul_fq(ctx: FieldCtx, x, y):
    """F_{p^2} product of (k, n, 2) and (n, l, 2) arrays with entries in [0, p).

    Runs as four float64 BLAS products, exact while n p^2 < 2^53 (see MAX_P).
    """
    p = ctx.p
    x0, x1, y0, y1 = (z[..., i].astype(np.float64) for z in (x, y) for i in (0, 1))
    a, b, c, d = ((u @ v).astype(np.int64) for u, v in ((x0, y0), (x1, y1), (x0, y1), (x1, y0)))
    return np.stack([(a + ctx.r * (b % p)) % p, (c + d) % p], axis=-1)


def _inv_stacked(ctx: FieldCtx, x):
    """Elementwise inverse of a stacked array, conj(x) / norm(x); 0 where x = 0."""
    p = ctx.p
    x0, x1 = x[..., 0], x[..., 1]
    ninv = ctx.inv_table()[(x0 * x0 - ctx.r * (x1 * x1 % p)) % p]
    return np.stack([x0 * ninv % p, -x1 * ninv % p], axis=-1)


def _sqrt_stacked(ctx: FieldCtx, x) -> tuple:
    """A square root of each element of a stacked array, and where one exists.

    x = x0 + x1 t is a square exactly when its norm n = x0^2 - r x1^2 is a
    square in F_p.  Then for x1 != 0 one of (x0 +- sqrt(n)) / 2 is a nonzero
    square h in F_p (their product r x1^2 / 4 is not), and a + b t with
    a = sqrt(h), b = x1 / (2a) squares to x; for x1 = 0 the root is sqrt(x0)
    or, for a non-residue x0, t sqrt(x0 / r).  Square roots in F_p come from
    ctx.sqrt_table(), so the sign of a root is whatever the table holds.
    Where x is not a square the root is meaningless.
    """
    p = ctx.p
    table = ctx.sqrt_table()
    x0, x1 = x[..., 0], x[..., 1]
    n = table[(x0 * x0 - ctx.r * (x1 * x1 % p)) % p]
    half = (p + 1) // 2
    h = (x0 + n) * half % p
    h = np.where(table[h] >= 0, h, (x0 - n) * half % p)
    a = table[h] % p
    b = x1 * ctx.inv_table()[2 * a % p] % p
    real = table[x0]
    imag = table[x0 * ctx.inv_table()[ctx.r] % p]
    flat = x1 == 0
    root = np.stack([np.where(flat, np.maximum(real, 0), a),
                     np.where(flat, np.where(real >= 0, 0, imag), b)], axis=-1)
    return root, n >= 0


def mobius_eval_array(ctx: FieldCtx, coef, x0, x1) -> tuple:
    """Maps at finite points, broadcast elementwise, in one array pass.

    coef[..., k, :] holds coefficient k of (a, b, c, d) of x -> (a x + b) /
    (c x + d) as a (c0, c1) pair; its leading axes broadcast against those
    of x0 and x1, so coef[:, None] against a line of points evaluates every
    map at every point.  Returns (y0, y1, finite) of the broadcast shape.
    Where a denominator vanishes the image is INF: finite is False and
    y0 = y1 = 0.
    """
    p = ctx.p
    coef = coef.reshape(coef.shape[:-2] + (8,))
    a0, a1, b0, b1, c0, c1, d0, d1 = np.moveaxis(coef, -1, 0)
    n0, n1 = _mul_arrays(ctx, a0, a1, x0, x1)
    e0, e1 = _mul_arrays(ctx, c0, c1, x0, x1)
    num = np.stack([(n0 + b0) % p, (n1 + b1) % p], axis=-1)
    den = np.stack([(e0 + d0) % p, (e1 + d1) % p], axis=-1)
    y = _mul_stacked(ctx, num, _inv_stacked(ctx, den))
    return y[..., 0], y[..., 1], den.any(axis=-1)


def cross_ratio_map(ctx: FieldCtx, r: ProjPoint, s: ProjPoint, t: ProjPoint) -> MobiusMap:
    """The map q -> (q, r; s, t) for distinct r, s, t: s -> 0, r -> 1, t -> INF."""
    if s is INF:
        d = ctx.sub(r, t)
        return MobiusMap(ctx, ctx.zero, d, ctx.one, ctx.neg(t))
    if r is INF:
        return MobiusMap(ctx, ctx.one, ctx.neg(s), ctx.one, ctx.neg(t))
    if t is INF:
        d = ctx.sub(r, s)
        return MobiusMap(ctx, ctx.one, ctx.neg(s), ctx.zero, d)
    u = ctx.sub(r, t)
    v = ctx.sub(r, s)
    return MobiusMap(ctx, u, ctx.neg(ctx.mul(s, u)), v, ctx.neg(ctx.mul(t, v)))


def mobius_from_triples(ctx: FieldCtx, src: Sequence[ProjPoint], dst: Sequence[ProjPoint]) -> MobiusMap:
    """The unique Mobius map sending the ordered triple src onto dst."""
    if len(src) != 3 or len(dst) != 3:
        raise ValueError("need ordered triples of three distinct points each")
    for tri in (src, dst):
        keys = {sort_key(x) for x in tri}
        if len(keys) != 3:
            raise ValueError("triple contains a repeated point")
    t_src = cross_ratio_map(ctx, src[1], src[0], src[2])
    t_dst = cross_ratio_map(ctx, dst[1], dst[0], dst[2])
    return t_dst.inverse().compose(t_src)
