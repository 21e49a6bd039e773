"""Genus-4 curves built from two genus-1 covers sharing one branch point.

Such a curve is determined, up to isomorphism, by a genus-2 curve C, an
unordered split of its six Weierstrass roots into two triples {W1, W2}, and a
seventh point b on the line distinct from the roots: the two covers branch at
W1 + {b} and W2 + {b}, and the induced Klein-four diagram desingularizes to a
curve of genus 4.  Two such triples give isomorphic genus-4 curves exactly
when a Mobius map carries roots to roots, split to split, and b to b, that
is, exactly when their howe_key values are equal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .arith import INF, FieldCtx, FqElem, MobiusMap, ProjPoint, sort_key
from .ellcurve import QuarticModel, deuring_vanishes, lambda_of_quartic
from .genus2 import Genus2Curve, is_superspecial, mobius_matches

WeierstrassSplit = tuple  # pair of sorted root triples, lexicographically ordered


def normalize_split(w1, w2) -> WeierstrassSplit:
    """Canonical form of an unordered {triple, triple} split."""
    a = tuple(sorted(w1))
    b = tuple(sorted(w2))
    if len(a) != 3 or len(b) != 3:
        raise ValueError("a split consists of two triples")
    return (a, b) if a <= b else (b, a)


@dataclass(frozen=True)
class HoweData:
    """A genus-4 curve presented as (genus-2 curve, root split, branch point b)."""

    curve: Genus2Curve
    split: WeierstrassSplit
    b: ProjPoint

    def __post_init__(self):
        w1, w2 = self.split
        if set(w1) | set(w2) != set(self.curve.roots) or set(w1) & set(w2):
            raise ValueError("split must partition the six Weierstrass roots")
        object.__setattr__(self, "split", normalize_split(w1, w2))
        if self.b is not INF and self.b in self.curve.roots:
            raise ValueError("branch point b collides with a Weierstrass root")

    def quartics(self) -> tuple:
        ctx = self.curve.ctx
        return (
            QuarticModel(ctx, self.b, self.split[0]),
            QuarticModel(ctx, self.b, self.split[1]),
        )

    def sort_value(self):
        return (self.curve.roots, self.split, sort_key(self.b))


def is_superspecial_howe(H: HoweData) -> bool:
    """Superspeciality of the genus-4 curve.

    Equivalent to: both genus-1 covers supersingular and the genus-2 quotient
    superspecial (the Jacobian splits accordingly up to isogeny of degree
    prime to p).  The covers' Legendre invariants are tested in one
    deuring_vanishes pass.
    """
    lams = [lambda_of_quartic(Q) for Q in H.quartics()]
    if not deuring_vanishes(H.curve.ctx, lams).all():
        return False
    return is_superspecial(H.curve)


def howe_isomorphic(H1: HoweData, H2: HoweData) -> Optional[MobiusMap]:
    """A Mobius map matching roots, split, and b between the two data sets.

    The first map of mobius_matches between the two genus-2 curves that
    carries a part of H1's split onto a part of H2's split (the other part
    then follows) and sends H1's b to H2's b.
    """
    parts = (set(H2.split[0]), set(H2.split[1]))
    for m in mobius_matches(H1.curve, H2.curve):
        if m(H1.b) == H2.b and {m(rt) for rt in H1.split[0]} in parts:
            return m
    return None


def howe_key(H: HoweData) -> tuple:
    """Canonical form of (split, b) under Mobius maps: the Howe-class identity.

    b goes to INF by x -> 1/(x - b), leaving the affine maps; for each of the
    12 ordered pairs (u, v) in one triple, x -> (x - u)/(v - u) sends that
    triple to {0, 1, w}.  The key is the least (w, sorted image of the other
    triple), so equal keys mean isomorphic data, roots going to roots.
    """
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


def special_family(ctx: FieldCtx, a: FqElem) -> HoweData:
    """The curve y^2 = (x^3 + 1)(x^3 + a), split by the cubics, b = infinity.

    Defined for p = 5 mod 6 and a in {-1, 1/4}, where it is always
    superspecial.  The roots are in closed form: -{1, w, w^2} and
    -c {1, w, w^2}, with w = (-1 + sqrt(-3))/2 a primitive cube root of
    unity in F_{p^2} and c = a^((2p-1)/3) the cube root of a in F_p, which
    is unique because p = 2 mod 3 makes cubing a bijection on F_p.
    """
    p = ctx.p
    if p % 6 != 5:
        raise ValueError("the special family needs p = 5 mod 6")
    allowed = (ctx.elem(-1), ctx.inv(ctx.elem(4)))
    if a not in allowed:
        raise ValueError("a must be -1 or 1/4")
    s = ctx.sqrt(ctx.elem(-3))
    if s is None:
        raise ArithmeticError("-3 has no square root in F_{p^2} at p=%d" % p)
    w = ctx.div(ctx.sub(s, ctx.one), ctx.elem(2))
    units = (ctx.one, w, ctx.sqr(w))
    c = ctx.pow(a, (2 * p - 1) // 3)
    r1 = tuple(ctx.neg(u) for u in units)
    r2 = tuple(ctx.neg(ctx.mul(c, u)) for u in units)
    return HoweData(Genus2Curve(ctx, r1 + r2), normalize_split(r1, r2), INF)
