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

import functools
import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .arith import (
    INF,
    ROW_BLOCK,
    FieldCtx,
    FqElem,
    MobiusMap,
    ProjPoint,
    _inv_stacked,
    _mul_stacked,
    sort_key,
)
from .ellcurve import deuring_vanishes
from .genus2 import Genus2Curve, cartier_manin_rows, mobius_matches

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

    def sort_value(self):
        return (self.curve.roots, self.split, sort_key(self.b))


def quartic_lambdas(ctx: FieldCtx, data: Sequence[HoweData]) -> list:
    """The Legendre invariants of both genus-1 covers of each datum, in one array pass.

    The cover branched at b and the sorted triple (a1, a2, a3) has the
    invariant (b, a1; a2, a3) = (b - a2)(a1 - a3) / ((b - a3)(a1 - a2)),
    which is (a1 - a3) / (a1 - a2) for b = INF.  One (lambda1, lambda2)
    pair per datum, for its two split parts in order.
    """
    p = ctx.p
    mul = functools.partial(_mul_stacked, ctx)
    a = np.array([H.split[0] + H.split[1] for H in data], dtype=np.int64).reshape(-1, 2, 3, 2)
    finite = np.array([H.b is not INF for H in data], dtype=bool).reshape(-1, 1, 1)
    b = np.array([(0, 0) if H.b is INF else H.b for H in data], dtype=np.int64).reshape(-1, 1, 2)
    one = np.array([1, 0])
    a1, a2, a3 = a[:, :, 0], a[:, :, 1], a[:, :, 2]
    num = mul(np.where(finite, (b - a2) % p, one), (a1 - a3) % p)
    den = mul(np.where(finite, (b - a3) % p, one), (a1 - a2) % p)
    return [tuple(map(tuple, pair)) for pair in mul(num, _inv_stacked(ctx, den)).tolist()]


def superspecial_howe_flags(ctx: FieldCtx, data: Sequence[HoweData]) -> list:
    """Superspeciality of the genus-4 curve of each datum, one bool each.

    Equivalent to: both genus-1 covers supersingular and the genus-2 quotient
    superspecial (the Jacobian splits accordingly up to isogeny of degree
    prime to p).  The distinct Legendre invariants of all covers are tested
    in one deuring_vanishes pass, then the distinct curves of the data whose
    covers pass in one cartier_manin_rows pass, each in first-seen order.
    """
    lams = quartic_lambdas(ctx, data)
    distinct = list(dict.fromkeys(lam for pair in lams for lam in pair))
    lam_ok = dict(zip(distinct, deuring_vanishes(ctx, distinct).tolist()))
    covers_ok = [lam_ok[lam1] and lam_ok[lam2] for lam1, lam2 in lams]
    curves = list(dict.fromkeys(H.curve.roots for H, ok in zip(data, covers_ok) if ok))
    curve_ok = dict(zip(curves, (~cartier_manin_rows(ctx, curves).any(axis=(1, 2))).tolist()))
    return [ok and curve_ok[H.curve.roots] for H, ok in zip(data, covers_ok)]


def is_superspecial_howe(H: HoweData) -> bool:
    """Superspeciality of one genus-4 curve: superspecial_howe_flags of one datum."""
    return superspecial_howe_flags(H.curve.ctx, [H])[0]


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


def howe_key(ctx: FieldCtx, fits: Sequence[tuple]) -> list:
    """Canonical form of (split, b) under Mobius maps: the Howe-class identity.

    One key per (split, b) of fits, split being two root triples in any
    order.  b goes to INF by x -> 1/(x - b), leaving the affine maps; for
    each of the 12 ordered pairs (u, v) in one triple, x -> (x - u)/(v - u)
    sends that triple to {0, 1, w}.  The key is the least (w, sorted image
    of the other triple), so equal keys mean isomorphic data, roots going
    to roots.  The 12 normalizations of up to ROW_BLOCK fits run in one
    array pass; points are compared by their codes c0 p + c1, two codes to
    an int64 (the bound is argued at arith.MAX_P).
    """
    return [key for start in range(0, len(fits), ROW_BLOCK)
            for key in _howe_key_block(ctx, fits[start:start + ROW_BLOCK])]


def _howe_key_block(ctx: FieldCtx, fits: Sequence[tuple]) -> list:
    p = ctx.p
    q = p * p
    x = np.array([w1 + w2 for (w1, w2), _ in fits], dtype=np.int64).reshape(-1, 6, 2)
    finite = np.array([b is not INF for _, b in fits], dtype=bool).reshape(-1, 1, 1)
    b = np.array([(0, 0) if b is INF else b for _, b in fits], dtype=np.int64).reshape(-1, 1, 2)
    x = np.where(finite, _inv_stacked(ctx, (x - b) % p), x)
    # each ordered pair (u, v) of a triple, then its third point w and the
    # other triple
    pos = np.array([(u, v, sum(tri) - u - v) + other
                    for tri, other in (((0, 1, 2), (3, 4, 5)), ((3, 4, 5), (0, 1, 2)))
                    for u, v in itertools.permutations(tri, 2)])
    base = x[:, pos[:, :1]]
    scale = _inv_stacked(ctx, (x[:, pos[:, 1:2]] - base) % p)
    img = _mul_stacked(ctx, (x[:, pos[:, 2:]] - base) % p, scale)
    codes = img[..., 0] * p + img[..., 1]
    # the other triple's codes in order by min and max, with no numpy sort,
    # then the least (hi, lo) of the 12
    other = codes[..., 1:]
    low, high = other.min(axis=-1), other.max(axis=-1)
    codes = np.stack([codes[..., 0], low, other.sum(axis=-1) - low - high, high], axis=-1)
    hi, lo = codes[..., 0] * q + codes[..., 1], codes[..., 2] * q + codes[..., 3]
    lo = np.where(hi == hi.min(axis=-1, keepdims=True), lo, q * q)
    least = np.stack(np.divmod(codes[np.arange(len(codes)), lo.argmin(axis=-1)], p), axis=-1)
    least = least.tolist()
    return [(tuple(w), (tuple(o1), tuple(o2), tuple(o3))) for w, o1, o2, o3 in least]


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
    return HoweData(Genus2Curve(ctx, r1 + r2), (r1, r2), INF)
