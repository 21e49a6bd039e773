"""Slow reference implementations that the package's fast paths are tested against.

Each oracle here is the straightforward form of a computation the package
does another way: the scalar Igusa-Clebsch invariants behind the batched
Igusa key, the per-mu entry polynomials and scalar gcd fold behind strategy
a's evaluation search, the reduced entry values (pair_values) behind
its float64 zero test, the whole-plane scan behind strategy a, a direct
model for each j-invariant behind the supersingular class list, the j of
one lambda (j_of_lambda) behind the class list's array pass, a
translated Weierstrass model (EllipticCurve) whose cubic is root-found
(two_torsion_roots) behind the closed-form 2-torsion triples, the scalar
Hasse test of one curve (is_supersingular, quartic_is_supersingular,
is_superspecial_howe_scalar) and the Horner pass of the Deuring
polynomial (deuring_vanishes_horner) behind its baby-step giant-step
evaluation, the truncated power of one sextic (cartier_manin,
is_superspecial, with sextic and CartierManinEntries) behind the
recurrence of cartier_manin_rows, root-found cubics (howe_from_cubics)
behind the closed-form special family, the point w of a glue as the image
of INF under the Mobius map of two triples (glue_by_mobius, through
mobius_from_triples) behind glue_elliptic_pair's closed form, and a closure
from one scanned Rosenhain curve behind the glued-seed closure.  The
Richelot step one splitting at a time (richelot_codomains_scalar, with
quadratic_splittings and splitting_delta) stands behind the batched
richelot_codomains, the Howe key one datum at a time (howe_key_scalar)
behind the batched howe_key, the b-value map loop
(b_values_scalar) behind supersingular_b_values, and the cross-ratio of one
quartic (lambda_of_quartic, through cross_ratio) behind quartic_lambdas.
The tests compare the two.  isomorphic, automorphisms, j_invariant and the
genus-1 covers of a Howe datum as QuarticModel objects (quartics), which
only the tests read, live here too.
"""

import functools
import itertools
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from howecurves import (
    INF,
    EnumReport,
    FieldCtx,
    Genus2Curve,
    HoweData,
    RationalityError,
    UniPoly,
    enumerate_supersingular_classes,
    howe_isomorphic,
    is_superspecial_howe,
    normalize_split,
    poly_gcd,
    poly_roots_in_fq,
    sort_key,
)
from howecurves.arith import MobiusMap, ProjPoint, cross_ratio_map, fq_plane, matmul_fq
from howecurves.genus2 import (
    _PAIR_PARTITIONS,
    _PAIRS,
    _TRIPLE_PARTITIONS,
    mobius_matches,
)
from howecurves.strategies import _cubic_power, _shifted_power_rows


@dataclass(frozen=True)
class EllipticCurve:
    """Short Weierstrass model y^2 = x^3 + A x + B over F_{p^2}."""

    ctx: FieldCtx
    A: tuple
    B: tuple

    def __post_init__(self):
        if self.discriminant() == self.ctx.zero:
            raise ValueError("singular cubic: 4A^3 + 27B^2 = 0")

    def discriminant(self):
        ctx = self.ctx
        a3 = ctx.mul((4, 0), ctx.pow(self.A, 3))
        b2 = ctx.mul((27, 0), ctx.sqr(self.B))
        return ctx.add(a3, b2)


@dataclass(frozen=True)
class QuarticModel:
    """Double cover of P^1 branched at b and the three roots a1, a2, a3.

    With b = INF this is the cubic model y^2 = (x-a1)(x-a2)(x-a3); otherwise
    the quartic y^2 = (x-b)(x-a1)(x-a2)(x-a3).
    """

    ctx: FieldCtx
    b: ProjPoint
    roots: tuple  # three distinct finite points, sorted

    def __post_init__(self):
        if len(self.roots) != 3 or len(set(self.roots)) != 3:
            raise ValueError("need three distinct finite branch roots")
        if any(rt is INF for rt in self.roots):
            raise ValueError("branch roots must be finite; put INF in b")
        if self.b is not INF and self.b in self.roots:
            raise ValueError("fourth branch point collides with a root")
        object.__setattr__(self, "roots", tuple(sorted(self.roots)))


def quartics(H):
    """The two genus-1 covers of a Howe datum, branched at b and each split part."""
    return tuple(QuarticModel(H.curve.ctx, H.b, part) for part in H.split)


def cross_ratio(ctx, q, r, s, t):
    """Cross-ratio (q, r; s, t) of four distinct points of P^1(F_{p^2})."""
    pts = [q, r, s, t]
    for i in range(4):
        for j in range(i + 1, 4):
            if pts[i] is pts[j] or pts[i] == pts[j]:
                raise ValueError("cross-ratio requires four distinct points")
    return cross_ratio_map(ctx, r, s, t)(q)


def mobius_from_triples(ctx, src, dst) -> MobiusMap:
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


def glue_by_mobius(ctx, s, t):
    """The sorted roots of glue_elliptic_pair's curve, its w found as m(INF).

    m is the Mobius map sending each s_i to t_i, built from two cross-ratio
    maps; None where m fixes INF.  The roots are +-sqrt(t_i - w), each
    t_i - w divided by the first non-square where it is not a square.
    """
    w = mobius_from_triples(ctx, s, t)(INF)
    if w is INF:
        return None
    beta = [ctx.sub(ti, w) for ti in t]
    if not ctx.is_square(beta[0]):
        beta = [ctx.div(b, ctx.nonsquare()) for b in beta]
    roots = [ctx.sqrt(b) for b in beta]
    return tuple(sorted(roots + [ctx.neg(x) for x in roots]))


def lambda_of_quartic(Q):
    """Legendre invariant of the cover: the cross-ratio (b, a1; a2, a3)."""
    a1, a2, a3 = Q.roots
    return cross_ratio(Q.ctx, Q.b, a1, a2, a3)


def is_supersingular(E):
    """Hasse invariant test: x^(p-1) coefficient of (x^3+Ax+B)^((p-1)/2)."""
    ctx = E.ctx
    m = (ctx.p - 1) // 2
    f = UniPoly.from_coeffs(ctx, [E.B, E.A, ctx.zero, ctx.one])
    g = f.pow_truncated(m, ctx.p - 1)
    return g.coeff(ctx.p - 1) == ctx.zero


def j_of_lambda(ctx, lam):
    """j = 256 (lambda^2 - lambda + 1)^3 / (lambda^2 (lambda - 1)^2), one lambda."""
    l2 = ctx.sqr(lam)
    num = ctx.add(ctx.sub(l2, lam), ctx.one)
    num = ctx.mul(ctx.elem(256), ctx.pow(num, 3))
    den = ctx.mul(l2, ctx.sqr(ctx.sub(lam, ctx.one)))
    return ctx.div(num, den)


def deuring_vanishes_horner(ctx, lams):
    """H_p(lambda) == 0 for each lambda, by one Horner pass over int64 arrays.

    m + 1 array steps, m = (p-1)/2, whatever the number of lambdas: the
    reference for the baby-step giant-step ellcurve.deuring_vanishes.
    binom(m, k) = binom(m, m - k), so the coefficients are produced in the
    order Horner reads them; an accumulator in [0, p) times a lambda in
    [0, p) plus a coefficient below p stays below (1 + r) p^2 + p < 2^35.
    """
    p, r = ctx.p, ctx.r
    m = (p - 1) // 2
    x0 = np.array([lam[0] for lam in lams], dtype=np.int64)
    x1 = np.array([lam[1] for lam in lams], dtype=np.int64)
    v0 = np.zeros_like(x0)
    v1 = np.zeros_like(x1)
    inv = ctx.inv_table().tolist()
    c = 1  # binom(m, k) mod p
    for k in range(m + 1):
        v0, v1 = (v0 * x0 + r * v1 * x1 + c * c % p) % p, (v0 * x1 + v1 * x0) % p
        c = c * (m - k) % p * inv[k + 1] % p
    return (v0 == 0) & (v1 == 0)


def two_torsion_roots(E):
    """Sorted roots of x^3 + Ax + B over F_{p^2}, by the root finder."""
    ctx = E.ctx
    f = UniPoly.from_coeffs(ctx, [E.B, E.A, ctx.zero, ctx.one])
    roots = poly_roots_in_fq(f)
    if len(roots) != 3:
        raise ArithmeticError("2-torsion cubic does not split over F_{p^2}")
    return tuple(roots)


def cubic_curve(ctx, roots):
    """The Weierstrass model whose cubic has these roots, which sum to 0."""
    f = UniPoly.from_roots(ctx, list(roots))
    assert f.coeff(2) == ctx.zero
    return EllipticCurve(ctx, f.coeff(1), f.coeff(0))


def class_j(ctx, roots):
    """The j-invariant of a supersingular class given by its 2-torsion triple."""
    return j_invariant(cubic_curve(ctx, roots))


def quartic_is_supersingular(Q):
    """The Hasse test of one genus-1 cover, on the model of its Legendre invariant."""
    return is_supersingular(legendre_curve_by_translation(Q.ctx, lambda_of_quartic(Q)))


def sextic(C):
    """The monic sextic prod (x - root) of a genus-2 curve, as a polynomial."""
    return UniPoly.from_roots(C.ctx, C.roots)


class CartierManinEntries(NamedTuple):
    a: tuple
    b: tuple
    c: tuple
    d: tuple


def cartier_manin(C):
    """The Cartier-Manin entries of one curve by a truncated power.

    With g = f^((p-1)/2) for the sextic f, the entries are the coefficients
    of x^(p-1), x^(2p-1), x^(p-2), x^(2p-2) in g, as in cartier_manin_rows;
    g is squared and multiplied up to degree 2p - 1.
    """
    p = C.ctx.p
    g = sextic(C).pow_truncated((p - 1) // 2, 2 * p - 1)
    return CartierManinEntries(
        g.coeff(p - 1), g.coeff(2 * p - 1), g.coeff(p - 2), g.coeff(2 * p - 2)
    )


def is_superspecial(C):
    z = C.ctx.zero
    return cartier_manin(C) == (z, z, z, z)


def is_superspecial_howe_scalar(H):
    """Both quartics by the scalar Hasse test, then the genus-2 quotient."""
    q1, q2 = quartics(H)
    return (quartic_is_supersingular(q1) and quartic_is_supersingular(q2)
            and is_superspecial(H.curve))


def howe_from_cubics(ctx, f1, f2):
    """The curve with covers y^2 = f1 and y^2 = f2 joined at b = infinity.

    Both cubics must split over F_{p^2} with six distinct roots in total,
    found by the root finder; a shared root would make the base curve
    singular.
    """
    if f1.degree != 3 or f2.degree != 3:
        raise ValueError("both factors must be cubic")
    r1 = poly_roots_in_fq(f1)
    r2 = poly_roots_in_fq(f2)
    if len(r1) != 3 or len(r2) != 3:
        raise ValueError("cubic factor has a repeated or irrational root")
    if set(r1) & set(r2):
        raise ValueError("the two cubics share a root")
    curve = Genus2Curve(ctx, tuple(r1 + r2))
    return HoweData(curve, normalize_split(r1, r2), INF)


def igusa_clebsch(ctx, roots):
    """Classical invariants (I2, I4, I6, I10) of weights (2, 4, 6, 10).

    Built as the symmetrized sums of products of squared root differences:
    I2 over the 15 pair partitions, I4 over the 10 triple partitions, I6 over
    the 60 (triple partition, cross-matching) terms, I10 the discriminant,
    one F_{p^2} scalar operation at a time.
    """
    mul = ctx.mul
    add = ctx.add
    d2 = {}
    for (i, j) in _PAIRS:
        d = ctx.sub(roots[i], roots[j])
        d2[(i, j)] = mul(d, d)

    i2 = ctx.zero
    for part in _PAIR_PARTITIONS:
        term = ctx.one
        for pr in part:
            term = mul(term, d2[pr])
        i2 = add(i2, term)

    def triple_prod(tri):
        a, b, c = sorted(tri)
        return mul(d2[(a, b)], mul(d2[(a, c)], d2[(b, c)]))

    i4 = ctx.zero
    tp = {}
    for tri, co in _TRIPLE_PARTITIONS:
        tp[tri] = triple_prod(tri)
        tp[co] = triple_prod(co)
        i4 = add(i4, mul(tp[tri], tp[co]))

    i6 = ctx.zero
    for tri, co in _TRIPLE_PARTITIONS:
        base = mul(tp[tri], tp[co])
        for sigma in itertools.permutations(range(3)):
            cross = ctx.one
            for k in range(3):
                i, j = tri[k], co[sigma[k]]
                cross = mul(cross, d2[(i, j) if i < j else (j, i)])
            i6 = add(i6, mul(base, cross))

    i10 = ctx.one
    for pr in _PAIRS:
        i10 = mul(i10, d2[pr])
    return (i2, i4, i6, i10)


def igusa_key_scalar(ctx, roots):
    """The Igusa key of one sextic from igusa_clebsch, by scalar field operations."""
    i2, i4, i6, i10 = igusa_clebsch(ctx, roots)
    mul = ctx.mul
    if i2 != ctx.zero:
        s = ctx.inv(i2)
        s2 = mul(s, s)
        s3 = mul(s2, s)
        s5 = mul(s2, s3)
        return (0, mul(i4, s2), mul(i6, s3), mul(i10, s5))
    if i4 != ctx.zero:
        inv4 = ctx.inv(i4)
        w3 = ctx.pow(inv4, 3)
        w4 = mul(w3, inv4)
        w5 = mul(w4, inv4)
        return (1, mul(ctx.sqr(i6), w3), mul(mul(i6, i10), w4), mul(ctx.sqr(i10), w5))
    if i6 != ctx.zero:
        return (2, ctx.div(ctx.pow(i10, 3), ctx.pow(i6, 5)))
    return (3,)


def isomorphic(C, D):
    """A Mobius map carrying the root set of C onto that of D, if one exists.

    The first of mobius_matches: the map sending C's first three roots to
    the earliest ordered triple of D's roots that works.
    """
    return next(mobius_matches(C, D), None)


def automorphisms(C):
    """All Mobius maps preserving the root set of C (the reduced automorphisms)."""
    return sorted(mobius_matches(C, C), key=lambda m: m.key())


def enumerate_a_bruteforce(ctx):
    """Reference scan of the whole (lam, mu) plane; small p only.

    Tests the superspeciality of every fiber directly instead of evaluating
    entry polynomials, so it shares no search logic with enumerate_a.
    """
    t0 = time.perf_counter()
    torsion = enumerate_supersingular_classes(ctx)
    raw = 0
    buckets = {}
    reps = []
    for i in range(len(torsion)):
        for j in range(i, len(torsion)):
            for mu in ctx.elements():
                if mu == ctx.zero:
                    continue
                for lam in ctx.elements():
                    w1 = tuple(ctx.mul(mu, t) for t in torsion[i])
                    w2 = tuple(ctx.add(lam, t) for t in torsion[j])
                    if set(w1) & set(w2):
                        continue
                    H = HoweData(Genus2Curve(ctx, w1 + w2),
                                 normalize_split(w1, w2), INF)
                    if not is_superspecial_howe(H):
                        continue
                    raw += 1
                    key = igusa_key_scalar(ctx, H.curve.roots)
                    bucket = buckets.setdefault(key, [])
                    if any(howe_isomorphic(H, seen) is not None for seen in bucket):
                        continue
                    bucket.append(H)
                    reps.append(H)
    reps.sort(key=lambda H: H.sort_value())
    return EnumReport(ctx.p, "a-brute", raw, None, time.perf_counter() - t0, reps)


def legendre_curve_by_translation(ctx, lam):
    """Short Weierstrass model of y^2 = x(x-1)(x-lambda), built as polynomials.

    The cubic comes from its roots and is moved by the mean root through a
    Horner translation, with no closed form in lambda.
    """
    f = UniPoly.from_roots(ctx, [ctx.zero, ctx.one, lam])
    c = ctx.mul(ctx.inv(ctx.elem(3)), f.coeff(2))
    g = UniPoly.zero(ctx)
    xc = UniPoly.from_coeffs(ctx, [ctx.neg(c), ctx.one])
    for i in range(f.degree, -1, -1):
        g = g * xc + UniPoly.from_coeffs(ctx, [f.coeff(i)])
    assert g.coeff(2) == ctx.zero
    return EllipticCurve(ctx, g.coeff(1), g.coeff(0))


def j_invariant(E):
    """j = 1728 * 4A^3 / (4A^3 + 27B^2)."""
    ctx = E.ctx
    a3 = ctx.mul((4, 0), ctx.pow(E.A, 3))
    return ctx.div(ctx.mul(ctx.elem(1728), a3), E.discriminant())


def curve_from_j(ctx, j):
    """One short Weierstrass model with the requested j-invariant."""
    if j == ctx.zero:
        return EllipticCurve(ctx, ctx.zero, ctx.one)
    if j == ctx.elem(1728):
        return EllipticCurve(ctx, ctx.one, ctx.zero)
    k = ctx.sub(ctx.elem(1728), j)
    A = ctx.mul(ctx.elem(3), ctx.mul(j, k))
    B = ctx.mul(ctx.elem(2), ctx.mul(j, ctx.sqr(k)))
    return EllipticCurve(ctx, A, B)


class _ScalarPairEntries:
    """The entry polynomials of one class pair, one scale mu at a time.

    The shifted-power rows of the second cubic and the power of the first
    are built once; each mu then costs 3m scalar products for its powers and
    one array accumulation per nonzero coefficient of f1^m.
    """

    def __init__(self, ctx, roots1, roots2):
        self.ctx = ctx
        p = ctx.p
        self.m = (p - 1) // 2
        self.targets = (p - 1, 2 * p - 1, p - 2, 2 * p - 2)
        self.rows = _shifted_power_rows(ctx, roots2)
        self.hm = _cubic_power(ctx, roots1).tolist()

    def entries(self, mu):
        ctx = self.ctx
        p = ctx.p
        r = ctx.r
        m = self.m
        mu_pow = [ctx.one]
        for _ in range(3 * m):
            mu_pow.append(ctx.mul(mu_pow[-1], mu))
        out = []
        for j in self.targets:
            acc0 = np.zeros(3 * m + 1, dtype=np.int64)
            acc1 = np.zeros(3 * m + 1, dtype=np.int64)
            for i in range(max(0, j - 3 * m), min(3 * m, j) + 1):
                # x^i coefficient of f1^m is hm[i] * mu^(3m - i)
                s0, s1 = ctx.mul(tuple(self.hm[i]), mu_pow[3 * m - i])
                if s0 == 0 and s1 == 0:
                    continue
                a0, a1 = self.rows[j - i].T
                acc0 += (s0 * a0 + r * s1 * a1) % p
                acc1 += (s0 * a1 + s1 * a0) % p
            out.append(UniPoly(ctx, acc0 % p, acc1 % p))
        return out


@functools.lru_cache(maxsize=16)
def _scalar_pair(ctx, roots1, roots2):
    return _ScalarPairEntries(ctx, roots1, roots2)


def cm_entry_polynomials(ctx, roots1, roots2, mu):
    """The four superspeciality entries of y^2 = f1*f2, as polynomials in lam.

    f1 = x^3 + A1 mu^2 x + B1 mu^3 and f2 = (x-lam)^3 + A2 (x-lam) + B2,
    for the cubics x^3 + Ai x + Bi with the 2-torsion triples rootsi.
    Specializing the four at lam = lam0 (any value keeping the sextic
    squarefree) reproduces the Cartier-Manin entries of that curve, and each
    polynomial has degree at most 3(p-1)/2.  The rows of a recent pair are
    kept, so a loop over mu builds them once.
    """
    if mu == ctx.zero:
        raise ValueError("the scale mu must be nonzero")
    return _scalar_pair(ctx, roots1, roots2).entries(mu)


def howe_type_points_scalar(ctx, roots1, roots2):
    """howe_type_points one mu at a time, folding the entries by poly_gcd.

    The fold skips zero entries and stops once the gcd is a unit.
    """
    pair = _ScalarPairEntries(ctx, roots1, roots2)
    for mu in ctx.elements():
        if mu == ctx.zero:
            continue
        g = None
        for e in pair.entries(mu):
            if e.is_zero():
                continue
            g = e if g is None else poly_gcd(g, e)
            if g.degree == 0:
                break
        if g is None:
            raise ArithmeticError("all four entry polynomials vanished identically")
        if g.degree == 0:
            continue
        for lam in poly_roots_in_fq(g):
            yield lam, mu


def pair_values(pair, scales, k):
    """Entry k of every row of a _PairEntries scale matrix at every lam, (rows, p^2, 2).

    The reduced product matmul_fq, whose unreduced float64 output the zero
    test of entry 0 (strategies._zero_mask) reads instead.
    """
    lo, hi, table = pair.tables[k]
    return matmul_fq(pair.ctx, scales[:, lo:hi], fq_plane(pair.ctx, table))


def rosenhain_seed(ctx):
    """Deterministic scan for one superspecial curve y^2 = x(x-1)(x-l)(x-m)(x-n).

    The quintic branches at infinity as well, so each candidate is moved to a
    six-finite-roots model before the Cartier-Manin test.
    """
    pool = [x for x in ctx.elements() if x not in ((0, 0), (1, 0))]
    for lam, mu, nu in itertools.combinations(pool, 3):
        pts = [ctx.zero, ctx.one, lam, mu, nu, INF]
        C = Genus2Curve(ctx, renormalize_infinite(ctx, pts))
        if is_superspecial(C):
            return C
    raise ArithmeticError("no superspecial genus-2 curve found at p=%d" % ctx.p)


def rosenhain_closure(ctx):
    """The classes reached from rosenhain_seed by Richelot steps, breadth first.

    One curve per igusa_key_scalar, in the order the walk finds them.
    """
    seed = rosenhain_seed(ctx)
    seen = {igusa_key_scalar(ctx, seed.roots)}
    classes = [seed]
    for C in classes:
        for _, D in richelot_codomains_scalar(C):
            key = igusa_key_scalar(ctx, D.roots)
            if key not in seen:
                seen.add(key)
                classes.append(D)
    return classes


def quadratic_splittings(C):
    """All 15 groupings of the six roots into three unordered pairs."""
    return [tuple(tuple(C.roots[i] for i in pr) for pr in part) for part in _PAIR_PARTITIONS]


def splitting_delta(ctx, splitting):
    """det of the 3x3 coefficient matrix of the three monic quadratics."""
    rows = []
    for (u, v) in splitting:
        rows.append((ctx.one, ctx.neg(ctx.add(u, v)), ctx.mul(u, v)))
    m = ctx.mul
    s = ctx.sub
    det = ctx.zero
    for sign, (i, j, k) in (((1), (0, 1, 2)), ((-1), (1, 0, 2)), ((1), (2, 0, 1))):
        minor = s(m(rows[j][1], rows[k][2]), m(rows[j][2], rows[k][1]))
        term = m(rows[i][0], minor)
        det = ctx.add(det, term if sign > 0 else ctx.neg(term))
    return det


def h_quadratic(ctx, gj, gk):
    """Coefficients (c2, c1, c0) of g_j' g_k - g_j g_k' for monic quadratics."""
    _, j1, j0 = gj
    _, k1, k0 = gk
    c2 = ctx.sub(k1, j1)
    c1 = ctx.mul((2, 0), ctx.sub(k0, j0))
    c0 = ctx.sub(ctx.mul(j1, k0), ctx.mul(j0, k1))
    return (c2, c1, c0)


def quadratic_point_roots(ctx, coeffs):
    """Roots in P^1 of c2 x^2 + c1 x + c0, counted without multiplicity."""
    c2, c1, c0 = coeffs
    if c2 == ctx.zero:
        if c1 == ctx.zero:
            raise RationalityError("degenerate correspondence factor")
        return [ctx.neg(ctx.div(c0, c1)), INF]
    disc = ctx.sub(ctx.sqr(c1), ctx.mul((4, 0), ctx.mul(c2, c0)))
    s = ctx.sqrt(disc)
    if s is None:
        raise RationalityError("rationality invariant violated: non-square discriminant")
    half = ctx.inv(ctx.mul((2, 0), c2))
    r1 = ctx.mul(ctx.sub(s, c1), half)
    r2 = ctx.mul(ctx.sub(ctx.neg(s), c1), half)
    return [r1] if r1 == r2 else [r1, r2]


def renormalize_infinite(ctx, pts):
    """Pull a six-point set off infinity with x -> 1/(x - c), canonical c."""
    taken = {q for q in pts if q is not INF}
    c = next(cand for cand in ctx.elements() if cand not in taken)
    return tuple(sorted(ctx.zero if q is INF else ctx.inv(ctx.sub(q, c)) for q in pts))


def richelot_codomains_scalar(C):
    """The Richelot neighbours of one curve, one splitting and one F_{p^2} operation at a time.

    For each splitting with delta != 0, the roots of h_i = g_j' g_k - g_j g_k'
    by the quadratic formula with ctx.sqrt, pulled off INF by
    renormalize_infinite; (splitting, neighbour) pairs in _PAIR_PARTITIONS order.
    """
    ctx = C.ctx
    out = []
    for splitting in quadratic_splittings(C):
        if splitting_delta(ctx, splitting) == ctx.zero:
            continue
        quads = [(ctx.one, ctx.neg(ctx.add(u, v)), ctx.mul(u, v)) for u, v in splitting]
        pts = []
        for (j, k) in ((1, 2), (2, 0), (0, 1)):
            pts.extend(quadratic_point_roots(ctx, h_quadratic(ctx, quads[j], quads[k])))
        if len(pts) != 6:
            raise RationalityError("correspondence produced a singular model")
        if any(q is INF for q in pts):
            roots = renormalize_infinite(ctx, pts)
        else:
            roots = tuple(sorted(pts))
        if len(set(roots)) != 6:
            raise RationalityError("correspondence produced a singular model")
        out.append((splitting, Genus2Curve(ctx, roots)))
    return out


def howe_key_scalar(H):
    """The Howe key of one datum: its 12 affine normalizations by scalar operations."""
    ctx = H.curve.ctx
    parts = H.split
    if H.b is not INF:
        parts = [[ctx.inv(ctx.sub(rt, H.b)) for rt in part] for part in parts]
    keys = []
    for (t1, t2, t3), other in ((parts[0], parts[1]), (parts[1], parts[0])):
        for u, v, w in ((t1, t2, t3), (t1, t3, t2), (t2, t3, t1)):
            s = ctx.inv(ctx.sub(v, u))
            img = [ctx.mul(ctx.sub(x, u), s) for x in (w, *other)]
            for im in (img, [ctx.sub(ctx.one, y) for y in img]):  # (v, u): 1 - image
                keys.append((im[0], tuple(sorted(im[1:]))))
    return min(keys)


def lambda_values(ctx, lset):
    """The supersingular lambda, decoded from the set's codes c0 p + c1."""
    return [divmod(code, ctx.p) for code in lset.tolist()]


def in_lambda_set(ctx, lset, lam):
    """lam is in the lambda set held as its sorted codes; INF never is."""
    return lam is not INF and lam[0] * ctx.p + lam[1] in lset


def b_values_scalar(ctx, lset, split):
    """The b of one split by scalar Mobius maps: N = M2 M1^-1 at each lambda."""
    T1, T2 = split
    back = cross_ratio_map(ctx, *T1).inverse()
    N = cross_ratio_map(ctx, *T2).compose(back)
    return sorted((back(lam) for lam in lambda_values(ctx, lset)
                   if in_lambda_set(ctx, lset, N(lam))), key=sort_key)
