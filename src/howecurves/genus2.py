"""Superspecial genus-2 curves over F_{p^2}: tests, walks, and the full list.

Curves are carried as the sorted 6-tuple of Weierstrass x-coordinates of a
monic sextic model y^2 = prod (x - root); every construction in this package
keeps those roots inside F_{p^2}.  The module provides the Cartier-Manin
matrix entries, Kbar-isomorphism machinery (the canonical Igusa key, which
identifies a class for p > 5, and mobius_matches, the one Mobius matcher
behind isomorphic, automorphisms and howe.howe_isomorphic, which tests the
120 candidate maps on tabulated cross-ratios and builds only the maps that
pass), the (2,2)-correspondence walk and its inverse gluing of elliptic
pairs, and the closure routine producing every superspecial curve up to
isomorphism, one class per key, which fails as soon as its class count
passes the mass-formula window.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, NamedTuple, Optional

from .arith import (
    INF,
    FieldCtx,
    FqElem,
    MobiusMap,
    UniPoly,
    cross_ratio_map,
    mobius_from_triples,
)
from .ellcurve import enumerate_supersingular_classes, two_torsion_roots


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

    def sextic(self) -> UniPoly:
        return UniPoly.from_roots(self.ctx, self.roots)


class CartierManinEntries(NamedTuple):
    a: FqElem
    b: FqElem
    c: FqElem
    d: FqElem


def cartier_manin(C: Genus2Curve) -> CartierManinEntries:
    """Entries (up to p-th powers) of the Cartier-Manin matrix of C.

    With g = f^((p-1)/2) for the sextic f, the matrix is built from the
    coefficients of x^(p-1), x^(2p-1), x^(p-2), x^(2p-2) in g; the curve is
    superspecial exactly when all four vanish, so the p-th powers that enter
    the literal matrix are irrelevant here and never taken.
    """
    ctx = C.ctx
    p = ctx.p
    g = C.sextic().pow_truncated((p - 1) // 2, 2 * p - 1)
    return CartierManinEntries(
        g.coeff(p - 1), g.coeff(2 * p - 1), g.coeff(p - 2), g.coeff(2 * p - 2)
    )


def is_superspecial(C: Genus2Curve) -> bool:
    z = C.ctx.zero
    return cartier_manin(C) == (z, z, z, z)


# ---------------------------------------------------------------------------
# isomorphism testing: invariant key and Mobius matcher
# ---------------------------------------------------------------------------

# index tables over the 15 unordered pairs from {0..5}
_PAIRS = [(i, j) for i in range(6) for j in range(i + 1, 6)]


def _pair_partitions():
    """The 15 ways to split {0..5} into three unordered pairs."""
    out = []

    def rec(rem, acc):
        if not rem:
            out.append(tuple(acc))
            return
        first = rem[0]
        for other in rem[1:]:
            rest = [x for x in rem[1:] if x != other]
            rec(rest, acc + [(first, other)])

    rec(list(range(6)), [])
    return out


_PAIR_PARTITIONS = _pair_partitions()
_TRIPLE_PARTITIONS = [
    (tri, tuple(x for x in range(6) if x not in tri))
    for tri in itertools.combinations(range(6), 3)
    if 0 in tri
]
_BIJECTIONS = list(itertools.permutations(range(3)))


def igusa_clebsch(ctx: FieldCtx, roots: tuple) -> tuple:
    """Classical invariants (I2, I4, I6, I10) of weights (2, 4, 6, 10).

    Built as the symmetrized sums of products of squared root differences:
    I2 over the 15 pair partitions, I4 over the 10 triple partitions, I6 over
    the 60 (triple partition, cross-matching) terms, I10 the discriminant.
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


IgusaKey = tuple


def igusa_key(ctx: FieldCtx, roots: tuple) -> IgusaKey:
    """Canonical form of (I2:I4:I6:I10) under the weighted scaling action.

    Two sextics have equal keys iff their invariant tuples agree up to the
    scaling (s^2, s^4, s^6, s^10) over the algebraic closure, i.e. iff the
    curves are Kbar-isomorphic.  Only weight-zero ratios are formed (no root
    extraction), with a case split on the first nonvanishing invariant.
    """
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


def isomorphic(C: Genus2Curve, D: Genus2Curve) -> Optional[MobiusMap]:
    """A Mobius map carrying the root set of C onto that of D, if one exists.

    The first of mobius_matches: the map sending C's first three roots to
    the earliest ordered triple of D's roots that works.
    """
    return next(mobius_matches(C, D), None)


def automorphisms(C: Genus2Curve) -> list:
    """All Mobius maps preserving the root set of C (the reduced automorphisms)."""
    return sorted(mobius_matches(C, C), key=lambda m: m.key())


# ---------------------------------------------------------------------------
# Richelot correspondences
# ---------------------------------------------------------------------------

QuadraticSplitting = tuple  # three pairs of roots, canonically ordered

_SPLITTINGS = [
    tuple(sorted((tuple(sorted(pr)) for pr in part)))
    for part in _PAIR_PARTITIONS
]


def quadratic_splittings(C: Genus2Curve) -> list:
    """All 15 groupings of the six roots into three unordered pairs."""
    out = []
    for part in _SPLITTINGS:
        out.append(tuple(tuple(C.roots[i] for i in pr) for pr in part))
    return out


def splitting_delta(ctx: FieldCtx, splitting: QuadraticSplitting) -> FqElem:
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


def _h_quadratic(ctx: FieldCtx, gj: tuple, gk: tuple) -> tuple:
    """Coefficients (c2, c1, c0) of g_j' g_k - g_j g_k' for monic quadratics."""
    _, j1, j0 = gj
    _, k1, k0 = gk
    c2 = ctx.sub(k1, j1)
    c1 = ctx.mul((2, 0), ctx.sub(k0, j0))
    c0 = ctx.sub(ctx.mul(j1, k0), ctx.mul(j0, k1))
    return (c2, c1, c0)


def _quadratic_point_roots(ctx: FieldCtx, coeffs: tuple) -> list:
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


def _renormalize_infinite(ctx: FieldCtx, pts: list) -> tuple:
    """Pull a six-point set off infinity with x -> 1/(x - c), canonical c."""
    finite = [q for q in pts if q is not INF]
    taken = set(finite)
    c = None
    for cand in ctx.elements():
        if cand not in taken:
            c = cand
            break
    out = []
    for q in pts:
        out.append(ctx.zero if q is INF else ctx.inv(ctx.sub(q, c)))
    return tuple(sorted(out))


def richelot_codomains(C: Genus2Curve) -> list:
    """The (2,2)-correspondence neighbours of C, one per nonsplit splitting.

    For each quadratic splitting {g1, g2, g3} with delta != 0, the neighbour
    is the curve delta * y^2 = h1 h2 h3 with h_i = g_j' g_k - g_j g_k'; its
    six branch points are returned as a monic rational-roots model (after a
    canonical change of coordinate if some h_i drops to degree one).
    Splittings with delta = 0 present elliptic products, not curves, and are
    omitted.  Returns (splitting, neighbour) pairs in canonical order.
    """
    ctx = C.ctx
    out = []
    for splitting in quadratic_splittings(C):
        delta = splitting_delta(ctx, splitting)
        if delta == ctx.zero:
            continue
        quads = []
        for (u, v) in splitting:
            quads.append((ctx.one, ctx.neg(ctx.add(u, v)), ctx.mul(u, v)))
        pts = []
        for (j, k) in ((1, 2), (2, 0), (0, 1)):
            pts.extend(_quadratic_point_roots(ctx, _h_quadratic(ctx, quads[j], quads[k])))
        if len(pts) != 6:
            raise RationalityError("correspondence produced a singular model")
        if any(q is INF for q in pts):
            roots = _renormalize_infinite(ctx, pts)
        else:
            roots = tuple(sorted(pts))
        if len(set(roots)) != 6:
            raise RationalityError("correspondence produced a singular model")
        out.append((splitting, Genus2Curve(ctx, roots)))
    return out


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
    twisted so that all six roots are F_{p^2}-rational.
    """
    if len(s) != 3 or len(t) != 3:
        raise ValueError("gluing expects two root triples")
    m = mobius_from_triples(ctx, tuple(s), tuple(t))
    w = m(INF)
    if w is INF:
        return None
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
    classes.  Models already seen are remembered, so a repeated model skips
    the key.
    """

    __slots__ = ("ctx", "curves", "keys", "_index", "_models")

    def __init__(self, ctx: FieldCtx):
        if ctx.p <= 5:
            raise ValueError("Igusa keys classify genus-2 curves only for p > 5")
        self.ctx = ctx
        self.curves: list = []
        self.keys: list = []
        self._index: dict = {}    # key -> class index
        self._models: dict = {}   # roots -> class index

    def __len__(self) -> int:
        return len(self.curves)

    def __iter__(self) -> Iterator[Genus2Curve]:
        return iter(self.curves)

    def add(self, C: Genus2Curve) -> Optional[int]:
        """Insert C if its class is new; return the new index, else None."""
        if C.roots in self._models:
            return None
        return self._add_keyed(C, igusa_key(self.ctx, C.roots))

    def _add_keyed(self, C: Genus2Curve, key: IgusaKey) -> Optional[int]:
        idx = self._index.get(key)
        if idx is not None:
            self._models[C.roots] = idx
            return None
        idx = len(self.curves)
        self.curves.append(C)
        self.keys.append(key)
        self._index[key] = idx
        self._models[C.roots] = idx
        return idx


def _glue_seeds(ctx: FieldCtx, classes: list) -> Iterator[Genus2Curve]:
    """Glued curves over all unordered pairs of supersingular classes and matchings.

    Each class's 2-torsion roots are found when a pair first needs them, so
    a consumer that stops after a few seeds roots only a few classes.
    """
    triples = {}

    def roots(i: int) -> tuple:
        if i not in triples:
            triples[i] = two_torsion_roots(classes[i])
        return triples[i]

    for i in range(len(classes)):
        for j in range(i, len(classes)):
            s, u = roots(i), roots(j)
            for perm in itertools.permutations(range(3)):
                t = tuple(u[k] for k in perm)
                C = glue_elliptic_pair(ctx, s, t)
                if C is not None:
                    yield C


def _rosenhain_seed(ctx: FieldCtx) -> Genus2Curve:
    """Deterministic scan for one superspecial curve y^2 = x(x-1)(x-l)(x-m)(x-n).

    The quintic branches at infinity as well, so each candidate is moved to a
    six-finite-roots model before the Cartier-Manin test.
    """
    pool = [x for x in ctx.elements() if x not in ((0, 0), (1, 0))]
    for lam, mu, nu in itertools.combinations(pool, 3):
        pts = [ctx.zero, ctx.one, lam, mu, nu, INF]
        C = Genus2Curve(ctx, _renormalize_infinite(ctx, pts))
        if is_superspecial(C):
            return C
    raise ArithmeticError("no superspecial genus-2 curve found at p=%d" % ctx.p)


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


def closure_stream(
    ctx: FieldCtx,
    seed_mode: str = "glue",
    acc: Optional[SuperspecialList] = None,
) -> Iterator[Genus2Curve]:
    """Yield superspecial genus-2 classes as the Richelot closure discovers them.

    Lazy form of superspecial_genus2_list: callers that only need the first
    few classes (existence searches) can stop consuming early.  The accumulator
    may be supplied to observe the growing list alongside the stream.  A class
    found beyond the upper end of iko_window raises ArithmeticError at once,
    so a key that splits one class into several cannot make the walk run on.
    """
    if acc is None:
        acc = SuperspecialList(ctx)
    if seed_mode == "glue":
        seeds = _glue_seeds(ctx, enumerate_supersingular_classes(ctx))
    elif seed_mode == "rosenhain":
        seeds = [_rosenhain_seed(ctx)]
    else:
        raise ValueError("unknown seed mode %r" % (seed_mode,))

    def candidates():
        yield from seeds
        cursor = 0
        while cursor < len(acc.curves):
            for _, D in richelot_codomains(acc.curves[cursor]):
                yield D
            cursor += 1

    hi = iko_window(ctx.p)[1]
    for C in candidates():
        if acc.add(C) is not None:
            if len(acc) > hi:
                raise _count_error(ctx.p, len(acc))
            yield C


def superspecial_genus2_list(ctx: FieldCtx, seed_mode: str = "glue") -> SuperspecialList:
    """Every superspecial genus-2 curve over F_bar_p, one model per class.

    Seeds the list with curves (2,2)-isogenous to products of supersingular
    elliptic curves (or, with seed_mode="rosenhain", with a single scanned
    curve) and closes under Richelot neighbours; connectivity of the
    superspecial (2,2)-graph makes the closure exhaustive.  The count is
    checked against the exact interval around (p-1)(p^2+25p+166)/2880.
    """
    acc = SuperspecialList(ctx)
    for _ in closure_stream(ctx, seed_mode, acc):
        pass
    lo, hi = iko_window(ctx.p)
    if not lo <= len(acc) <= hi:
        raise _count_error(ctx.p, len(acc))
    return acc


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


def load_list(ctx: FieldCtx, path: str) -> SuperspecialList:
    """Reload a cached list, re-verifying superspeciality and keys per record."""
    acc = SuperspecialList(ctx)
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
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
                C = Genus2Curve(ctx, tuple(coords))
            except ValueError as exc:
                raise ValueError("cache record %d of %s: %s" % (lineno, path, exc))
            if igusa_key(ctx, C.roots) != key:
                raise ValueError("cache record %d of %s: invariant key mismatch"
                                 % (lineno, path))
            if not is_superspecial(C):
                raise ValueError("cache record %d of %s: curve is not superspecial"
                                 % (lineno, path))
            if acc._add_keyed(C, key) is None:
                raise ValueError("cache record %d of %s duplicates an earlier class"
                                 % (lineno, path))
    return acc
