"""Slow reference implementations that the package's fast paths are tested against.

Each oracle here is the straightforward form of a computation the package
does another way: the scalar Igusa-Clebsch invariants behind the batched
Igusa key, the whole-plane scan behind strategy a, and a direct model for
each j-invariant behind the supersingular class list.  The tests compare
the two.
"""

import time

from howecurves import (
    DEFAULT_SEED,
    INF,
    EllipticCurve,
    EnumReport,
    Genus2Curve,
    HoweData,
    enumerate_supersingular_classes,
    howe_isomorphic,
    is_superspecial_howe,
    normalize_split,
    two_torsion_roots,
)
from howecurves.genus2 import _BIJECTIONS, _PAIR_PARTITIONS, _PAIRS, _TRIPLE_PARTITIONS
from howecurves.strategies import _ratio


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
        for sigma in _BIJECTIONS:
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


def enumerate_a_bruteforce(ctx):
    """Reference scan of the whole (lam, mu) plane; small p only.

    Tests the superspeciality of every fiber directly instead of factoring
    entry gcds, so it shares no search logic with enumerate_a.
    """
    t0 = time.perf_counter()
    classes = enumerate_supersingular_classes(ctx)
    torsion = [two_torsion_roots(E) for E in classes]
    raw = 0
    buckets = {}
    reps = []
    for i in range(len(classes)):
        for j in range(i, len(classes)):
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
    return EnumReport(ctx.p, "a-brute", len(reps), _ratio(ctx.p, len(reps)), raw,
                      None, DEFAULT_SEED, time.perf_counter() - t0, reps)


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
