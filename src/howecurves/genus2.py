"""Superspecial genus-2 curves over F_{p^2}: tests, walks, and the full list.

Curves are carried as the sorted 6-tuple of Weierstrass x-coordinates of a
monic sextic model y^2 = prod (x - root); every construction in this package
keeps those roots inside F_{p^2}.  The module provides the Cartier-Manin
matrix entries of a batch of curves by the recurrence f g' = m f' g,
Kbar-isomorphism machinery (the canonical Igusa key, which
identifies a class for p > 5, and mobius_matches, the one Mobius matcher
behind howe.howe_isomorphic, which tests the 120 candidate maps on
tabulated cross-ratios and builds only the maps that pass), the
(2,2)-correspondence walk and its inverse gluing of elliptic
pairs, and superspecial_genus2_list, the one Richelot walk, producing every
superspecial curve up to isomorphism, one class per key, which fails as
soon as its class count passes the mass-formula window.  That window is
checked here alone: by the walk, and by load_list on a cached list.  The
batched kernels (igusa_key, cartier_manin_rows, richelot_codomains) take
sorted root sextuples, and the walk carries sextuples from end to end: a
Genus2Curve is built for each glued seed and each new class only.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence

import numpy as np

from .arith import (
    ROW_BLOCK,
    FieldCtx,
    FqElem,
    MobiusMap,
    _inv_stacked,
    _mul_arrays,
    _mul_stacked,
    _sqrt_stacked,
    cross_ratio_map,
)
from .ellcurve import enumerate_supersingular_classes


class RationalityError(ArithmeticError):
    """A Weierstrass point expected to live in F_{p^2} does not."""


@dataclass(frozen=True)
class Genus2Curve:
    """Monic sextic model y^2 = prod_(i=1..6) (x - roots[i]) with distinct roots."""

    ctx: FieldCtx
    roots: tuple

    def __post_init__(self):
        if len(self.roots) != 6 or len(set(self.roots)) != 6:
            raise ValueError("need six distinct finite Weierstrass roots")
        object.__setattr__(self, "roots", tuple(sorted(self.roots)))


def _sextic_planes(ctx: FieldCtx, r0, r1) -> tuple:
    """The coefficients f_0..f_6 of prod (x - root), one row per row of roots.

    r0 and r1 are the (rows, 6) planes of the roots; the two (rows, 7)
    planes returned ascend in degree, entries in [0, p).
    """
    p = ctx.p
    c0 = np.zeros((len(r0), 7), dtype=np.int64)
    c1 = np.zeros_like(c0)
    c0[:, 0] = 1
    for k in range(6):
        # (x - a) c has coefficient c_(j-1) - a c_j at x^j; c_6 = 0 until
        # the last factor, so the roll brings a zero round to x^0
        m0, m1 = _mul_arrays(ctx, c0, c1, r0[:, k:k + 1], r1[:, k:k + 1])
        c0, c1 = (np.roll(c0, 1, axis=1) - m0) % p, (np.roll(c1, 1, axis=1) - m1) % p
    return c0, c1


def _pow_arrays(ctx: FieldCtx, x0, x1, e: int) -> tuple:
    """x^e elementwise for the F_{p^2} planes (x0, x1), by square-and-multiply."""
    a0, a1 = np.ones_like(x0), np.zeros_like(x1)
    for bit in bin(e)[2:]:
        a0, a1 = _mul_arrays(ctx, a0, a1, a0, a1)
        if bit == "1":
            a0, a1 = _mul_arrays(ctx, a0, a1, x0, x1)
    return a0, a1


def cartier_manin_rows(ctx: FieldCtx, batch: Sequence[tuple]) -> np.ndarray:
    """The Cartier-Manin entries of every root sextuple of the batch at once.

    Row i of the (len(batch), 4, 2) int64 result holds, as (c0, c1) pairs,
    the coefficients a, b, c, d of x^(p-1), x^(2p-1), x^(p-2), x^(2p-2) in
    g = f^m, m = (p-1)/2, for the sextic f with roots batch[i]: the
    Cartier-Manin matrix up to p-th powers, never taken, so the curve is
    superspecial exactly when its row is zero.

    g satisfies f g' = m f' g, that is
    k f_0 g_k = sum_(i=1..6) (m i - k + i) f_i g_(k-i) with g_0 = f_0^m
    (Bostan, Gaudry and Schost, SIAM J. Comput. 36, 2007); k < p is a unit
    up to k = p - 1, where the recurrence stops.  Run forward it reaches
    x^(p-2) and x^(p-1).  The reversed sextic x^6 f(1/x) has constant term 1
    and power x^(6m) g(1/x), so its coefficients p - 2 and p - 1 are those
    of x^(2p-1) and x^(2p-2) in g.  A root at 0 makes f_0 = 0; then f = x h
    with h(0) != 0, g = x^m h^m, and the forward entries are coefficients
    m and m - 1 of h^m.  One sextuple runs the steps k on Python ints, and
    a larger batch on arrays.
    """
    p, r = ctx.p, ctx.r
    m = (p - 1) // 2
    n = len(batch)
    roots = np.array(batch, dtype=np.int64).reshape(n, 6, 2)
    f0, f1 = _sextic_planes(ctx, roots[..., 0], roots[..., 1])
    zero = ((f0[:, 0] == 0) & (f1[:, 0] == 0))[:, None]
    # the forward rows, with x factored out where f_0 = 0, then the reversed
    # rows; column j of F holds the x^j coefficients of all rows
    F0 = np.concatenate([np.where(zero, np.roll(f0, -1, axis=1), f0), f0[:, ::-1]]).T
    F1 = np.concatenate([np.where(zero, np.roll(f1, -1, axis=1), f1), f1[:, ::-1]]).T
    inv = ctx.inv_table()[(F0[0] * F0[0] - r * F1[0] * F1[0]) % p]
    # f_i / f_0 for i = 6..1, to meet g_(k-6)..g_(k-1) in the window
    h0, h1 = _mul_arrays(ctx, F0[:0:-1], F1[:0:-1], F0[0] * inv % p, -F1[0] * inv % p)
    g0, g1 = _pow_arrays(ctx, F0[0], F1[0], m)
    kept = (_recurrence_ints if n <= 1 else _recurrence_arrays)(ctx, h0, h1, g0, g1)
    top, below = kept[p - 1], kept[p - 2]
    return np.stack([np.where(zero, kept[m][:n], top[:n]), below[n:],
                     np.where(zero, kept[m - 1][:n], below[:n]), top[n:]], axis=1)


def _recurrence_arrays(ctx: FieldCtx, h0, h1, g0, g1) -> dict:
    """g_k, k in (m - 1, m, p - 2, p - 1), from f_i / f_0 (i = 6..1) and g_0.

    Each step k runs over all rows on (6, rows) planes of the last six g_j
    (the int64 bound is argued at arith.MAX_P).
    """
    p, r = ctx.p, ctx.r
    m = (p - 1) // 2
    w0 = np.zeros(h0.shape, dtype=np.int64)
    w1 = np.zeros_like(w0)
    w0[-1], w1[-1] = g0, g1
    # row k - 1 holds (m i - k + i) / k for i = 6..1, entries below p
    ks = np.arange(1, p)[:, None]
    weights = ((m + 1) * np.arange(6, 0, -1) - ks) % p * ctx.inv_table()[ks] % p
    kept = {}
    for k in range(1, p):
        # each product is reduced before it is weighted
        s0 = weights[k - 1] @ ((h0 * w0 + r * (h1 * w1)) % p) % p
        s1 = weights[k - 1] @ ((h0 * w1 + h1 * w0) % p) % p
        w0[:-1], w1[:-1] = w0[1:], w1[1:]
        w0[-1], w1[-1] = s0, s1
        if k in (m - 1, m, p - 2, p - 1):
            kept[k] = np.stack([s0, s1], axis=-1)
    return kept


def _recurrence_ints(ctx: FieldCtx, h0, h1, g0, g1) -> dict:
    """_recurrence_arrays one row at a time, on Python ints.

    A step is g_k = s_k sum_i i h_i g_(k-i) - sum_i h_i g_(k-i) with
    h_i = f_i / f_0 and s_k = (m + 1) / k.  a_i, b_i are the (c0, c1) parts
    of h_i and c_i = r b_i; y_i, z_i those of g_(k-i), and t_i, v_i those of
    h_i g_(k-i).
    """
    p, r = ctx.p, ctx.r
    m = (p - 1) // 2
    scale = ((m + 1) * ctx.inv_table()[1:] % p).tolist()
    rows = []
    for (a6, a5, a4, a3, a2, a1), (b6, b5, b4, b3, b2, b1), y1, z1 in zip(
            h0.T.tolist(), h1.T.tolist(), g0.tolist(), g1.tolist()):
        c6, c5, c4, c3, c2, c1 = (r * b for b in (b6, b5, b4, b3, b2, b1))
        y6 = y5 = y4 = y3 = y2 = z6 = z5 = z4 = z3 = z2 = 0
        u0, u1 = [y1], [z1]
        for s in scale:
            t1, t2, t3 = a1 * y1 + c1 * z1, a2 * y2 + c2 * z2, a3 * y3 + c3 * z3
            t4, t5, t6 = a4 * y4 + c4 * z4, a5 * y5 + c5 * z5, a6 * y6 + c6 * z6
            v1, v2, v3 = a1 * z1 + b1 * y1, a2 * z2 + b2 * y2, a3 * z3 + b3 * y3
            v4, v5, v6 = a4 * z4 + b4 * y4, a5 * z5 + b5 * y5, a6 * z6 + b6 * y6
            y6, y5, y4, y3, y2 = y5, y4, y3, y2, y1
            z6, z5, z4, z3, z2 = z5, z4, z3, z2, z1
            y1 = (s * (t1 + 2 * t2 + 3 * t3 + 4 * t4 + 5 * t5 + 6 * t6)
                  - (t1 + t2 + t3 + t4 + t5 + t6)) % p
            z1 = (s * (v1 + 2 * v2 + 3 * v3 + 4 * v4 + 5 * v5 + 6 * v6)
                  - (v1 + v2 + v3 + v4 + v5 + v6)) % p
            u0.append(y1)
            u1.append(z1)
        rows.append((u0, u1))
    return {k: np.array([(u0[k], u1[k]) for u0, u1 in rows], dtype=np.int64).reshape(-1, 2)
            for k in (m - 1, m, p - 2, p - 1)}


# ---------------------------------------------------------------------------
# isomorphism testing: invariant key and Mobius matcher
# ---------------------------------------------------------------------------

# index tables over the 15 unordered pairs from {0..5}
_PAIRS = [(i, j) for i in range(6) for j in range(i + 1, 6)]


# The 15 ways to split {0..5} into three unordered pairs: 0 pairs with a,
# the least remaining root b with c, and the last two pair up.  So each pair
# and each partition is sorted, and the list ascends.
_PAIR_PARTITIONS = [
    ((0, a), (b, c), tuple(x for x in range(1, 6) if x not in (a, b, c)))
    for a in range(1, 6)
    for b in [min({1, 2, 3, 4, 5} - {a})]
    for c in range(b + 1, 6) if c != a
]
_TRIPLE_PARTITIONS = [
    (tri, tuple(x for x in range(6) if x not in tri))
    for tri in itertools.combinations(range(6), 3)
    if 0 in tri
]


def _pair(i: int, j: int) -> int:
    return _PAIRS.index((min(i, j), max(i, j)))


_TRIPLES = list(itertools.combinations(range(6), 3))
# Every Igusa-Clebsch term is built from products of three squared root
# differences, gathered by one index table into the 15 pairs: the I2 terms
# (pair partitions), the products over the pairs inside each root triple (an
# I4 term multiplies those of a triple and its complement) and five groups of
# three pairs (I10 is the product of all 15).  An I6 term is an I4 term times
# a cross-matching, which pairs each root of the triple with one of the
# complement: a pair partition, gathered already.  _CROSS lists six per triple.
_GATHER = np.array(
    [[_pair(*pr) for pr in part] for part in _PAIR_PARTITIONS]
    + [[_pair(a, b) for a, b in itertools.combinations(tri, 2)] for tri in _TRIPLES]
    + [list(range(k, k + 3)) for k in range(0, 15, 3)]
)
_SECTIONS = np.cumsum([len(_PAIR_PARTITIONS), len(_TRIPLES)])
_HALVES = np.array([[_TRIPLES.index(tri), _TRIPLES.index(co)] for tri, co in _TRIPLE_PARTITIONS]).T
_CROSS = np.array([[_PAIR_PARTITIONS.index(tuple(sorted(tuple(sorted(pr)) for pr in zip(tri, m))))
                    for m in itertools.permutations(co)] for tri, co in _TRIPLE_PARTITIONS])
_FIRST, _SECOND = np.array(_PAIRS).T

IgusaKey = tuple


def igusa_key(ctx: FieldCtx, batch: Sequence[tuple]) -> list:
    """Canonical form of (I2:I4:I6:I10) under the weighted scaling action.

    One key per root sextuple of the batch.  Two sextics have equal keys iff
    their Igusa-Clebsch invariants agree up to the scaling (s^2, s^4, s^6,
    s^10) over the algebraic closure, i.e. iff the curves are Kbar-isomorphic.
    The invariants are sums of 40 products of three squared root differences
    (see _GATHER and _CROSS), computed in one pass per block of ROW_BLOCK
    rows over int64 arrays whose last axis holds (c0, c1): a fixed number of
    numpy calls per block, and about 3 KB of temporaries per row (the int64
    bound is argued next to arith.MAX_P).  Only weight-zero ratios are
    formed, with a case split on the first nonvanishing invariant; the rare
    rows with I2 = 0 are finished one at a time.
    """
    return [key for start in range(0, len(batch), ROW_BLOCK)
            for key in _igusa_key_block(ctx, batch[start:start + ROW_BLOCK])]


def _igusa_key_block(ctx: FieldCtx, batch: Sequence[tuple]) -> list:
    p = ctx.p
    mul = functools.partial(_mul_stacked, ctx)
    flat = itertools.chain.from_iterable(itertools.chain.from_iterable(batch))
    r = np.fromiter(flat, dtype=np.int64).reshape(-1, 6, 2)
    d = (r[:, _FIRST] - r[:, _SECOND]) % p
    dd = mul(d, d)
    pairings, insides, groups = np.split(mul(mul(dd[:, _GATHER[:, 0]], dd[:, _GATHER[:, 1]]),
                                             dd[:, _GATHER[:, 2]]), _SECTIONS, axis=1)
    i4_terms = mul(insides[:, _HALVES[0]], insides[:, _HALVES[1]])
    cross_sums = pairings[:, _CROSS].sum(axis=2) % p
    quads = mul(groups[:, 0:2], groups[:, 2:4])
    invariants = np.stack([i4_terms.sum(axis=1), mul(i4_terms, cross_sums).sum(axis=1),
                           mul(mul(quads[:, 0], quads[:, 1]), groups[:, 4])], axis=1) % p
    i2 = pairings.sum(axis=1) % p
    s = _inv_stacked(ctx, i2)  # 0 where I2 = 0
    s2 = mul(s, s)
    s3 = mul(s2, s)
    scaled = mul(invariants, np.stack([s2, s3, mul(s2, s3)], axis=1))
    keys = [(0, (x0, x1), (y0, y1), (z0, z1))
            for x0, x1, y0, y1, z0, z1 in scaled.reshape(-1, 6).tolist()]
    for i in np.flatnonzero(~i2.any(axis=1)).tolist():
        keys[i] = _key_without_i2(ctx, *map(tuple, invariants[i].tolist()))
    return keys


def _key_without_i2(ctx: FieldCtx, i4: FqElem, i6: FqElem, i10: FqElem) -> IgusaKey:
    mul = ctx.mul
    if i4 != ctx.zero:
        inv4 = ctx.inv(i4)
        w3 = ctx.pow(inv4, 3)
        w4 = mul(w3, inv4)
        w5 = mul(w4, inv4)
        return (
            1,
            mul(ctx.sqr(i6), w3),       # I6^2 / I4^3
            mul(mul(i6, i10), w4),      # I6*I10 / I4^4
            mul(ctx.sqr(i10), w5),      # I10^2 / I4^5
        )
    if i6 != ctx.zero:
        return (2, ctx.div(ctx.pow(i10, 3), ctx.pow(i6, 5)))
    return (3,)


# Each ordered triple (a, b, c) of root positions, in itertools.permutations
# order, with the three positions it leaves out.
_TRIPLES_WITH_REST = [
    (a, b, c, tuple(d for d in range(6) if d not in (a, b, c)))
    for a, b, c in itertools.permutations(range(6), 3)
]


def mobius_matches(C: Genus2Curve, D: Genus2Curve) -> Iterator[MobiusMap]:
    """Every Mobius map carrying the root set of C onto that of D.

    A map is pinned by the images (a, b, c) of C's first three roots
    (s0, s1, s2).  Writing T_xyz for the map x -> 0, y -> 1, z -> INF, the
    map T_abc^-1 T_(s0 s1 s2) carries C's other three roots onto D's roots
    exactly when T_abc sends D's other three roots into the set of images of
    C's tail under T_(s0 s1 s2).  That set is computed once, and D's root
    differences and their inverses are tabulated once, so each of the 120
    candidate triples costs a few multiplications and stops at the first
    miss; a MobiusMap is built only for a triple that passes.  Candidates
    come in itertools.permutations(D.roots, 3) order.
    """
    ctx = C.ctx
    mul, sub = ctx.mul, ctx.sub
    s0, s1, s2 = C.roots[:3]
    t_src = cross_ratio_map(ctx, s1, s0, s2)
    tail = {t_src(t) for t in C.roots[3:]}
    roots = D.roots
    diff = [[sub(x, y) for y in roots] for x in roots]
    inv = [[None] * 6 for _ in range(6)]
    for i, j in _PAIRS:
        w = ctx.inv(diff[i][j])
        inv[i][j], inv[j][i] = w, ctx.neg(w)
    for a, b, c, rest in _TRIPLES_WITH_REST:
        # T_abc(x) = (x - a)(b - c) / ((x - c)(b - a))
        scale = mul(diff[b][c], inv[b][a])
        for d in rest:
            if mul(scale, mul(diff[d][a], inv[d][c])) not in tail:
                break
        else:
            t_dst = cross_ratio_map(ctx, roots[b], roots[a], roots[c])
            yield t_dst.inverse().compose(t_src)


# ---------------------------------------------------------------------------
# Richelot correspondences
# ---------------------------------------------------------------------------


def richelot_codomains(ctx: FieldCtx, batch: Sequence[tuple]) -> list:
    """The (2,2)-correspondence neighbours of each sorted root sextuple of the batch.

    For each grouping {g1, g2, g3} of a curve's roots into monic quadratics
    (in _PAIR_PARTITIONS order) with delta = det of their coefficient matrix
    nonzero, the neighbour is delta * y^2 = h1 h2 h3 with
    h_i = g_j' g_k - g_j g_k'; its six branch points are returned as a monic
    rational-roots model.  If some h_i drops to degree one, its second root
    is INF, and the points are moved by x -> 1/(x - c), c the first element
    of F_{p^2} in canonical order that is not one of them: one of
    (0, 0)..(0, 5), since p > 5.  Splittings with delta = 0 present
    elliptic products, not curves, and are omitted.  Returns one list per
    sextuple, holding the sorted root sextuples of its neighbours.

    All splittings of all curves run in one pass over int64 arrays of shape
    (curves, 15, ...): the quadratic formula takes its square roots through
    the norm (arith._sqrt_stacked), and a point is carried as its code
    c0 p + c1, INF as p^2.  No numpy sort runs; its kernels would add a few
    hundred KB of resident code to a cold run.  RationalityError is raised
    for the first curve, and its first splitting, where an h_i vanishes to
    degree zero, has a non-square discriminant or a double root, or the six
    points repeat; so every sextuple returned has six distinct roots.
    """
    p = ctx.p
    q = p * p
    mul = functools.partial(_mul_stacked, ctx)
    pos = np.array(_PAIR_PARTITIONS)
    r = np.array(batch, dtype=np.int64).reshape(-1, 6, 2)
    u, v = r[:, pos[..., 0]], r[:, pos[..., 1]]
    # g_i = x^2 + e_i x + f_i; h for (j, k) = (1, 2), (2, 0), (0, 1) has
    # coefficients (e_k - e_j, 2 (f_k - f_j), e_j f_k - f_j e_k), and delta
    # is the sum of the last
    e, f = -(u + v) % p, mul(u, v)
    j, k = [1, 2, 0], [2, 0, 1]
    c2 = (e[:, :, k] - e[:, :, j]) % p
    c1 = 2 * (f[:, :, k] - f[:, :, j]) % p
    c0 = (mul(e[:, :, j], f[:, :, k]) - mul(f[:, :, j], e[:, :, k])) % p
    kept = (c0.sum(axis=2) % p).any(axis=-1)
    linear = ~c2.any(axis=-1)
    root, square = _sqrt_stacked(ctx, (mul(c1, c1) - 4 * mul(c2, c0)) % p)
    half = _inv_stacked(ctx, 2 * c2 % p)
    # where c2 = 0 the roots are -c0/c1 and INF
    first = np.where(linear[..., None], mul(-c0 % p, _inv_stacked(ctx, c1)),
                     mul((root - c1) % p, half))
    second = mul((-root - c1) % p, half)
    pts = np.concatenate([first[..., 0] * p + first[..., 1],
                          np.where(linear, q, second[..., 0] * p + second[..., 1])], axis=-1)
    # x -> 1/(x - (0, c)) on the rows holding INF, which goes to 0
    shifted = np.stack(np.divmod(pts, p), axis=-1)
    shifted[..., 1] -= np.argmin((pts[..., None] == np.arange(6)).any(axis=2), axis=-1)[..., None]
    moved = _inv_stacked(ctx, shifted % p)
    moved = np.where(pts == q, 0, moved[..., 0] * p + moved[..., 1])
    pts = np.where((pts == q).any(axis=-1, keepdims=True), moved, pts)
    # the first failing factor h of each splitting, else a singular model: a
    # double root of some h, or a point repeated across them
    factor = np.where(linear & ~c1.any(axis=-1), 1, np.where(~linear & ~square, 2, 0))
    failed = np.where(factor[..., 0] > 0, factor[..., 0],
                      np.where(factor[..., 1] > 0, factor[..., 1], factor[..., 2]))
    singular = (pts[..., _FIRST] == pts[..., _SECOND]).any(axis=-1)
    errors = np.where(kept, np.where(failed > 0, failed, 3 * singular), 0).ravel()
    if errors.any():
        raise RationalityError((
            "degenerate correspondence factor",
            "rationality invariant violated: non-square discriminant",
            "correspondence produced a singular model",
        )[errors[np.flatnonzero(errors)[0]] - 1])
    # codes sort as the (c0, c1) pairs they encode
    six_p = (p,) * 6
    return [[tuple(map(divmod, sorted(row), six_p)) for keep, row in zip(kept_row, rows) if keep]
            for kept_row, rows in zip(kept.tolist(), pts.tolist())]


# ---------------------------------------------------------------------------
# gluing two elliptic curves along their 2-torsion
# ---------------------------------------------------------------------------


def glue_elliptic_pair(ctx: FieldCtx, s: tuple, t: tuple) -> Optional[Genus2Curve]:
    """Glue y^2 = prod(x - s_i) and y^2 = prod(x - t_i) along s_i <-> t_i.

    The unique Mobius map m with m(s_i) = t_i either fixes infinity, in which
    case the matching is induced by an isomorphism of the two curves and no
    genus-2 curve exists (returns None), or sends it to a finite point w.  In
    the latter case the two covers share the three branch points t_i, with
    leftover branch points w and infinity, and the glued curve is
    y^2 = prod (x^2 - (t_i - w)) on the double cover ramified over {w, inf},
    twisted so that all six roots are F_{p^2}-rational.  As (w, t1; t0, t2)
    = (INF, s1; s0, s2) = (s1 - s2)/(s1 - s0), w = (t0 u - t2 v)/(u - v) with
    u = (s1 - s0)(t1 - t2) and v = (s1 - s2)(t1 - t0), and INF where u = v.
    """
    if len(s) != 3 or len(t) != 3:
        raise ValueError("gluing expects two root triples")
    sub = ctx.sub
    u = ctx.mul(sub(s[1], s[0]), sub(t[1], t[2]))
    v = ctx.mul(sub(s[1], s[2]), sub(t[1], t[0]))
    if u == v:
        return None
    w = ctx.div(sub(ctx.mul(t[0], u), ctx.mul(t[2], v)), sub(u, v))
    beta = [ctx.sub(ti, w) for ti in t]
    chars = {ctx.is_square(b) for b in beta}
    if len(chars) != 1:
        raise RationalityError("rationality invariant violated: mixed quadratic characters")
    if not chars.pop():
        n = ctx.nonsquare()
        beta = [ctx.div(b, n) for b in beta]
    roots = []
    for b in beta:
        sq = ctx.sqrt(b)
        if sq is None:
            raise RationalityError("rationality invariant violated: non-square branch value")
        roots.append(sq)
        roots.append(ctx.neg(sq))
    if len(set(roots)) != 6:
        raise RationalityError("gluing produced a singular model")
    return Genus2Curve(ctx, tuple(sorted(roots)))


# ---------------------------------------------------------------------------
# the full superspecial list
# ---------------------------------------------------------------------------


class SuperspecialList:
    """Superspecial genus-2 curves up to Kbar-isomorphism, with lookups.

    A class is identified by its canonical invariant key alone: for p > 5
    the Igusa-Clebsch invariants classify genus-2 curves over the algebraic
    closure, so equal keys mean isomorphic curves and distinct keys distinct
    classes.  Models arrive as batches of sorted root sextuples, each keyed
    in one array pass, and a Genus2Curve is built only for a new class.
    """

    __slots__ = ("ctx", "curves", "keys", "_index")

    def __init__(self, ctx: FieldCtx):
        if ctx.p <= 5:
            raise ValueError("Igusa keys classify genus-2 curves only for p > 5")
        self.ctx = ctx
        self.curves: list = []
        self.keys: list = []
        self._index: dict = {}    # key -> class index

    def __len__(self) -> int:
        return len(self.curves)

    def __iter__(self) -> Iterator[Genus2Curve]:
        return iter(self.curves)

    def add(self, batch: Sequence[tuple]) -> list:
        """Insert a batch of sorted root sextuples; return the indices of the new classes.

        The distinct models, in first-seen order, are keyed in one
        igusa_key call: an equal key joins its class, and any other key
        starts a new class with that model, in the order one model at a
        time would give.
        """
        fresh = list(dict.fromkeys(batch))
        new = []
        for roots, key in zip(fresh, igusa_key(self.ctx, fresh)):
            if key not in self._index:
                new.append(self._insert(Genus2Curve(self.ctx, roots), key))
        return new

    def _insert(self, C: Genus2Curve, key: IgusaKey) -> int:
        """Start a new class with model C and its key; return its index."""
        idx = len(self.curves)
        self.curves.append(C)
        self.keys.append(key)
        self._index[key] = idx
        return idx


def _glue_seeds(ctx: FieldCtx, classes: Sequence) -> Iterator[list]:
    """Glued curves over all unordered pairs of supersingular classes and matchings.

    classes holds one 2-torsion root triple per class.  One list per pair
    of classes, holding the sorted root sextuples of its glued curves in
    matching order, so that an existence search can stop after a pair.
    """
    for i in range(len(classes)):
        for j in range(i, len(classes)):
            s, u = classes[i], classes[j]
            glued = (glue_elliptic_pair(ctx, s, tuple(u[k] for k in perm))
                     for perm in itertools.permutations(range(3)))
            yield [C.roots for C in glued if C is not None]


def iko_window(p: int) -> tuple:
    """Inclusive integer range the superspecial class count must land in.

    The mass of the genus-2 superspecial locus gives a main term of
    (p-1)(p^2+25p+166)/2880 with a bounded correction; the window below is
    tight enough to pin the exact count at many primes.
    """
    base = Fraction((p - 1) * (p * p + 25 * p + 166), 2880)
    lo = base - Fraction(1, 16)
    hi = base + Fraction(209, 180)
    return (math.ceil(lo), math.floor(hi))


def _count_error(p: int, count: int) -> ArithmeticError:
    lo, hi = iko_window(p)
    return ArithmeticError(
        "superspecial count %d at p=%d escapes [%d, %d]; list incomplete or wrong"
        % (count, p, lo, hi))


def superspecial_genus2_list(ctx: FieldCtx) -> SuperspecialList:
    """Every superspecial genus-2 curve over F_bar_p, one model per class.

    Seeds the list with the curves glued from every pair of supersingular
    elliptic curves and closes under Richelot neighbours; connectivity of
    the superspecial (2,2)-graph makes the closure exhaustive.  All the
    seeds go in as one batch, and so do the neighbours of each block of up
    to ROW_BLOCK // 15 classes not yet expanded, in class then splitting
    order; add keys a batch in one pass and inserts it in first-seen order,
    so the classes come in the order that one model at a time would give.
    A batch that takes the count past the upper end of iko_window raises
    ArithmeticError at once, so a key that splits one class into several
    cannot make the walk run on; the final count must lie in the window.
    """
    L = SuperspecialList(ctx)
    lo, hi = iko_window(ctx.p)
    batch = [roots for seeds in _glue_seeds(ctx, enumerate_supersingular_classes(ctx))
             for roots in seeds]
    cursor = 0
    while True:
        L.add(batch)
        if len(L) > hi:
            raise _count_error(ctx.p, hi + 1)
        if cursor == len(L):
            break
        block = L.curves[cursor:cursor + ROW_BLOCK // len(_PAIR_PARTITIONS)]
        cursor += len(block)
        batch = [D for neighbours in richelot_codomains(ctx, [C.roots for C in block])
                 for D in neighbours]
    if len(L) < lo:
        raise _count_error(ctx.p, len(L))
    return L


# ---------------------------------------------------------------------------
# cache file round trip
# ---------------------------------------------------------------------------


def save_list(L: SuperspecialList, path: str) -> None:
    """One record per line: p, the 12 root coordinates, the invariant key.

    The file is written beside path under a temporary name and then renamed
    over it, so an interrupted write never leaves a truncated cache behind.
    """
    lines = []
    for C, key in zip(L.curves, L.keys):
        coords = " ".join("%d,%d" % rt for rt in C.roots)
        keystr = "%d " % key[0] + " ".join("%d,%d" % v for v in key[1:])
        lines.append("%d %s | %s" % (L.ctx.p, coords, keystr.strip()))
    tmp = "%s.%d.tmp" % (path, os.getpid())
    try:
        with open(tmp, "w") as fh:
            fh.write("\n".join(lines) + ("\n" if lines else ""))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _parse_record(ctx: FieldCtx, path: str, lineno: int, line: str) -> tuple:
    """The curve and the stored key of one cache line."""
    try:
        left, right = line.split("|")
        fields = left.split()
        p = int(fields[0])
        coords = [tuple(int(c) for c in f.split(",")) for f in fields[1:]]
        keyfields = right.split()
        key = (int(keyfields[0]),) + tuple(
            tuple(int(c) for c in f.split(",")) for f in keyfields[1:]
        )
    except (ValueError, IndexError) as exc:
        raise ValueError("cache record %d of %s is malformed: %s" % (lineno, path, exc))
    if p != ctx.p:
        raise ValueError("cache record %d of %s is for p=%d, expected %d"
                         % (lineno, path, p, ctx.p))
    if len(coords) != 6 or any(len(v) != 2 for v in coords):
        raise ValueError("cache record %d of %s: want 6 roots as c0,c1 pairs"
                         % (lineno, path))
    if any(not (0 <= c < ctx.p) for v in coords for c in v):
        raise ValueError("cache record %d of %s: coordinate out of range" % (lineno, path))
    try:
        return Genus2Curve(ctx, tuple(coords)), key
    except ValueError as exc:
        raise ValueError("cache record %d of %s: %s" % (lineno, path, exc))


def load_list(ctx: FieldCtx, path: str) -> SuperspecialList:
    """Reload a cached list, re-verifying keys and superspeciality per record and the count.

    The records up to the first unreadable one are keyed in one igusa_key
    pass and tested in one cartier_manin_rows pass; the error names the
    first faulty record in file order, checked for its key, then its
    Cartier-Manin entries, then a repeated class.  A file whose records all
    pass must hold a class count inside iko_window.  Every fault raises
    ValueError.
    """
    records = []
    unreadable = None
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if line:
                try:
                    records.append((lineno,) + _parse_record(ctx, path, lineno, line))
                except ValueError as exc:
                    unreadable = exc
                    break
    acc = SuperspecialList(ctx)
    batch = [C.roots for _, C, _ in records]
    keys = igusa_key(ctx, batch)
    not_superspecial = cartier_manin_rows(ctx, batch).any(axis=(1, 2))
    for (lineno, C, key), computed, bad in zip(records, keys, not_superspecial):
        if computed != key:
            raise ValueError("cache record %d of %s: invariant key mismatch"
                             % (lineno, path))
        if bad:
            raise ValueError("cache record %d of %s: curve is not superspecial"
                             % (lineno, path))
        if key in acc._index:
            raise ValueError("cache record %d of %s duplicates an earlier class"
                             % (lineno, path))
        acc._insert(C, key)
    if unreadable is not None:
        raise unreadable
    lo, hi = iko_window(ctx.p)
    if not lo <= len(acc) <= hi:
        raise ValueError("cache %s holds %d classes, outside [%d, %d]" % (path, len(acc), lo, hi))
    return acc
