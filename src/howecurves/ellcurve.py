"""Supersingular elliptic curves over F_{p^2} seen through their branch data.

A curve appears in one of two shapes: a short Weierstrass model y^2 = x^3 +
Ax + B, or a branch configuration (b; a1, a2, a3) describing the double cover
of the line ramified at those four points.  Supersingularity is decided by the
vanishing of the x^(p-1) coefficient of f^((p-1)/2), and the full supply of
supersingular classes comes from the roots of the degree-(p-1)/2 polynomial
sum_i binom((p-1)/2, i)^2 * z^i whose roots are exactly the supersingular
lambda-invariants of Legendre curves y^2 = x(x-1)(x-lambda).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arith import (
    INF,
    FieldCtx,
    FqElem,
    ProjPoint,
    UniPoly,
    cross_ratio,
    fp_poly_roots,
    poly_roots_in_fq,
)


@dataclass(frozen=True)
class EllipticCurve:
    """Short Weierstrass model y^2 = x^3 + A x + B over F_{p^2}."""

    ctx: FieldCtx
    A: FqElem
    B: FqElem

    def __post_init__(self):
        if self.discriminant() == self.ctx.zero:
            raise ValueError("singular cubic: 4A^3 + 27B^2 = 0")

    def discriminant(self) -> FqElem:
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


def j_invariant(E: EllipticCurve) -> FqElem:
    """j = 1728 * 4A^3 / (4A^3 + 27B^2)."""
    ctx = E.ctx
    a3 = ctx.mul((4, 0), ctx.pow(E.A, 3))
    return ctx.div(ctx.mul(ctx.elem(1728), a3), E.discriminant())


def is_supersingular(E: EllipticCurve) -> bool:
    """Hasse invariant test: x^(p-1) coefficient of (x^3+Ax+B)^((p-1)/2)."""
    ctx = E.ctx
    m = (ctx.p - 1) // 2
    f = UniPoly.from_coeffs(ctx, [E.B, E.A, ctx.zero, ctx.one])
    g = f.pow_truncated(m, ctx.p - 1)
    return g.coeff(ctx.p - 1) == ctx.zero


def _legendre_curve(ctx: FieldCtx, lam: FqElem) -> EllipticCurve:
    """Short Weierstrass model of y^2 = x(x-1)(x-lambda) (shift by the mean)."""
    roots = [ctx.zero, ctx.one, lam]
    f = UniPoly.from_roots(ctx, roots)
    third = ctx.inv(ctx.elem(3))
    shift = ctx.mul(third, f.coeff(2))  # x -> x - e2/3 kills the square term
    g = _translate_poly(f, ctx.neg(shift))
    assert g.coeff(2) == ctx.zero
    return EllipticCurve(ctx, g.coeff(1), g.coeff(0))


def _translate_poly(f: UniPoly, c: FqElem) -> UniPoly:
    """f(x + c), by Horner on the coefficient list."""
    ctx = f.ctx
    out = UniPoly.zero(ctx)
    xc = UniPoly.from_coeffs(ctx, [c, ctx.one])
    for i in range(f.degree, -1, -1):
        out = out * xc + UniPoly.from_coeffs(ctx, [f.coeff(i)])
    return out


class SupersingularLambdaSet:
    """The supersingular lambda-invariants of characteristic p, as a set.

    codes holds c0 * p + c1 for each value, an int64 array in the order of
    values (both sort ascending), for array membership tests.
    """

    __slots__ = ("ctx", "values", "codes", "_set")

    def __init__(self, ctx: FieldCtx, values: list):
        self.ctx = ctx
        self.values = tuple(sorted(values))
        self.codes = np.array([c0 * ctx.p + c1 for c0, c1 in self.values], dtype=np.int64)
        self._set = frozenset(values)

    def __contains__(self, lam: FqElem) -> bool:
        return lam in self._set

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)


# Recently computed lambda sets and supersingular classes by p.  find_one,
# both strategies, their pool workers and the closure's elliptic seeds all
# need them for the same p; the entries are immutable.
_LAMBDA_SETS: dict = {}
_CLASSES: dict = {}
_KEPT = 4


def _memo(table: dict, ctx: FieldCtx, compute):
    """table[p], computed on first use and kept for the last few primes."""
    value = table.get(ctx.p)
    if value is None:
        value = compute(ctx)
        if len(table) >= _KEPT:
            del table[next(iter(table))]
        table[ctx.p] = value
    return value


def supersingular_lambda_set(ctx: FieldCtx) -> SupersingularLambdaSet:
    """All lambda with y^2 = x(x-1)(x-lambda) supersingular; always (p-1)/2 values.

    These are the roots of the Deuring polynomial (see _compute_lambda_set).
    Computed once per p and kept for the last few primes asked for.
    """
    return _memo(_LAMBDA_SETS, ctx, _compute_lambda_set)


def _compute_lambda_set(ctx: FieldCtx) -> SupersingularLambdaSet:
    """Roots of H_p = sum_i binom(m, i)^2 lambda^i, m = (p-1)/2, in F_{p^2}.

    H_p has F_p coefficients and splits into distinct factors of degree <= 2
    over F_p, so fp_poly_roots finds its roots in F_p arithmetic.  The root
    count and the absence of 0 and 1 are checked here.
    """
    p = ctx.p
    m = (p - 1) // 2
    coeffs = []
    c = 1
    for i in range(m + 1):
        coeffs.append(c * c % p)
        c = c * (m - i) % p * pow(i + 1, p - 2, p) % p
    values = fp_poly_roots(ctx, coeffs)
    if len(values) != m:
        raise ArithmeticError("supersingular polynomial failed to split: %d of %d roots"
                              % (len(values), m))
    bad = {ctx.zero, ctx.one}
    if bad & set(values):
        raise ArithmeticError("degenerate lambda among supersingular values")
    return SupersingularLambdaSet(ctx, values)


def lambda_of_quartic(Q: QuarticModel) -> FqElem:
    """Legendre invariant of the cover: the cross-ratio (b, a1; a2, a3)."""
    a1, a2, a3 = Q.roots
    return cross_ratio(Q.ctx, Q.b, a1, a2, a3)


def quartic_is_supersingular(Q: QuarticModel) -> bool:
    """Supersingularity of the genus-1 cover, by the Hasse test on its Legendre form."""
    return is_supersingular(_legendre_curve(Q.ctx, lambda_of_quartic(Q)))


def j_of_lambda(ctx: FieldCtx, lam: FqElem) -> FqElem:
    """j = 256 (lambda^2 - lambda + 1)^3 / (lambda^2 (lambda - 1)^2)."""
    l2 = ctx.sqr(lam)
    num = ctx.add(ctx.sub(l2, lam), ctx.one)
    num = ctx.mul(ctx.elem(256), ctx.pow(num, 3))
    den = ctx.mul(l2, ctx.sqr(ctx.sub(lam, ctx.one)))
    return ctx.div(num, den)


def enumerate_supersingular_classes(ctx: FieldCtx) -> tuple:
    """One Weierstrass model per supersingular j-invariant, sorted by j.

    Distills the (p-1)/2 supersingular lambda values down to their j-orbit
    representatives; the count always lands in [p/12, p/12 + 2].  Each model
    is derived from a Legendre curve, so its 2-torsion cubic splits over
    F_{p^2}; a bare j-lift does not guarantee that.  Computed, with its
    Hasse re-check, once per p and kept like the lambda set.
    """
    return _memo(_CLASSES, ctx, _compute_classes)


def _compute_classes(ctx: FieldCtx) -> tuple:
    lam_set = supersingular_lambda_set(ctx)
    by_j = {}
    for lam in lam_set.values:
        j = j_of_lambda(ctx, lam)
        by_j.setdefault(j, lam)
    floor = ctx.p // 12
    if not floor <= len(by_j) <= floor + 2:
        raise ArithmeticError("supersingular class count %d outside [%d, %d]"
                              % (len(by_j), floor, floor + 2))
    curves = tuple(_legendre_curve(ctx, by_j[j]) for j in sorted(by_j))
    for E in curves:
        if not is_supersingular(E):
            raise ArithmeticError("lifted class with j=%r fails the Hasse test" % (j_invariant(E),))
    return curves


def two_torsion_roots(E: EllipticCurve) -> tuple:
    """Sorted roots of x^3 + Ax + B over F_{p^2} (supersingular => all rational)."""
    ctx = E.ctx
    f = UniPoly.from_coeffs(ctx, [E.B, E.A, ctx.zero, ctx.one])
    roots = poly_roots_in_fq(f)
    if len(roots) != 3:
        raise ArithmeticError("2-torsion cubic does not split over F_{p^2}")
    return tuple(roots)
