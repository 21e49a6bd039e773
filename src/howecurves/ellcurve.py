"""Supersingular elliptic curves over F_{p^2} seen through their branch data.

A curve is a branch configuration: the three roots of its 2-torsion cubic
for a supersingular class, or (b; a1, a2, a3) for the double cover of the
line ramified at those four points.  Both reduce to a Legendre invariant
lambda, and the curve is supersingular exactly when lambda is a root of the
Deuring polynomial H_p = sum_i binom((p-1)/2, i)^2 z^i.  The supersingular
lambda are found by a 2-isogeny walk from one CM seed, and H_p is only
evaluated, to certify the seed, the class representatives and the quartics
of a Howe curve.
"""

from __future__ import annotations

import numpy as np

from .arith import (
    FieldCtx,
    FqElem,
    UniPoly,
    poly_roots_in_fq,
)


class SupersingularLambdaSet:
    """The supersingular lambda-invariants of characteristic p, as a set.

    codes holds c0 * p + c1 for each value, an int64 array in the order of
    values (both sort ascending), for array membership tests.  The set keeps
    no reference to its field, so a field and its cache form no cycle.
    """

    __slots__ = ("values", "codes", "_set")

    def __init__(self, ctx: FieldCtx, values: list):
        self.values = tuple(sorted(values))
        self.codes = np.array([c0 * ctx.p + c1 for c0, c1 in self.values], dtype=np.int64)
        self._set = frozenset(values)

    def __contains__(self, lam: FqElem) -> bool:
        return lam in self._set

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)


def supersingular_lambda_set(ctx: FieldCtx) -> SupersingularLambdaSet:
    """All lambda with y^2 = x(x-1)(x-lambda) supersingular; always (p-1)/2 values.

    These are the roots of the Deuring polynomial (see _compute_lambda_set).
    Computed on first use and kept with the field (FieldCtx.cached).
    """
    return ctx.cached(_compute_lambda_set)


def _compute_lambda_set(ctx: FieldCtx) -> SupersingularLambdaSet:
    """The roots of H_p in F_{p^2}, by a breadth-first 2-isogeny walk.

    The walk starts at one certified supersingular lambda (_seed_lambda) and
    takes lambda to 1 - lambda and 1/lambda, which relabel the 2-torsion, and
    to ((1 + s)/(1 - s))^2 with s^2 = lambda.  That is the Legendre invariant
    of the quotient by the 2-torsion point (0, 0): y^2 = x(x^2 + ax + b) goes
    to y^2 = x(x^2 - 2ax + a^2 - 4b) (Silverman, The Arithmetic of Elliptic
    Curves, III.4.5), here with roots 0, -(1 - s)^2 and -(1 + s)^2 (Landen).

    The certificate: a curve isogenous to a supersingular one is
    supersingular, so the walk stays among the roots of H_p, and every
    supersingular lambda is a square in F_{p^2} (Auer and Top, J. Number
    Theory 95, 2002), so a missing square root is an error, never skipped.
    The supersingular 2-isogeny graph is connected (Mestre, La methode des
    graphes, 1986; Pizer, Bull. AMS 23, 1990), and with the two relabelings
    each j reached brings all its lambda, so the walk reaches every root.
    H_p has exactly (p-1)/2 distinct roots, none of them 0 or 1 (Silverman,
    V.4.1(b)); any other count, or 0 or 1 among the values, raises.
    """
    m = (ctx.p - 1) // 2
    seen = {_seed_lambda(ctx)}
    frontier = list(seen)
    while frontier:
        step = []
        for lam in frontier:
            s = ctx.sqrt(lam)
            if s is None:
                raise ArithmeticError("supersingular walk met a non-square lambda %r" % (lam,))
            landen = ctx.sqr(ctx.div(ctx.add(ctx.one, s), ctx.sub(ctx.one, s)))
            for mu in (ctx.sub(ctx.one, lam), ctx.inv(lam), landen):
                if mu not in seen:
                    seen.add(mu)
                    step.append(mu)
        frontier = step
    if len(seen) != m:
        raise ArithmeticError("supersingular walk reached %d of %d lambda values"
                              % (len(seen), m))
    if {ctx.zero, ctx.one} & seen:
        raise ArithmeticError("degenerate lambda among supersingular values")
    return SupersingularLambdaSet(ctx, list(seen))


# j-invariants of the imaginary quadratic orders of class number 1, by
# discriminant D.  A curve with CM by such an order is supersingular at every
# prime inert in Q(sqrt(D)), that is with (D/p) = -1 (Deuring).
_CM_J = ((-3, 0), (-4, 1728), (-7, -3375), (-8, 8000), (-11, -32768), (-19, -884736),
         (-43, -884736000), (-67, -147197952000), (-163, -262537412640768000))
# The Hilbert class polynomial of discriminant -15 (class number 2),
# ascending.  Below MAX_P, 15073 and 18313 are inert in none of the fields
# above, and both are inert in Q(sqrt(-15)).
_HILBERT_MINUS_15 = (-121287375, 191025, 1)


def _seed_lambda(ctx: FieldCtx) -> FqElem:
    """One supersingular lambda: a Legendre invariant of a CM j, checked on H_p.

    The j comes from the first D of _CM_J inert at p, else from a root of
    the Hilbert polynomial of -15 when p is inert there; lambda is the least
    root of 256 (l^2 - l + 1)^3 - j l^2 (l - 1)^2, which is 256 at l = 0
    and 1.  Raises ArithmeticError if there is no seed or if H_p does not
    vanish at it.
    """
    root_of = ctx.sqrt_table().item
    js = [ctx.elem(j) for D, j in _CM_J if root_of(D % ctx.p) < 0]
    if not js and root_of(-15 % ctx.p) < 0:
        js = poly_roots_in_fq(UniPoly.from_int_coeffs(ctx, _HILBERT_MINUS_15))
    if not js:
        raise ArithmeticError("no CM seed for the supersingular walk at p=%d" % ctx.p)
    q = UniPoly.from_int_coeffs(ctx, [1, -1, 1])
    sextic = (q * q * q).scale(ctx.elem(256)) - UniPoly.from_int_coeffs(
        ctx, [0, 0, 1, -2, 1]).scale(js[0])
    lams = poly_roots_in_fq(sextic)
    if not lams or not deuring_vanishes(ctx, lams[:1])[0]:
        raise ArithmeticError("CM seed j=%r is not supersingular at p=%d" % (js[0], ctx.p))
    return lams[0]


def deuring_vanishes(ctx: FieldCtx, lams: list) -> np.ndarray:
    """H_p(lambda) == 0 for each lambda, as a bool array.

    This is the Hasse test of y^2 = x(x-1)(x-lambda), whose Hasse invariant
    is (-1)^m H_p(lambda) with m = (p-1)/2 (Silverman, V.4.1(b)), run as one
    Horner pass over int64 arrays (the bound is argued at arith.MAX_P):
    O(p) array steps, whatever the number of lambdas.  binom(m, k) =
    binom(m, m - k), so the coefficients are produced in the order Horner
    reads them.
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


def j_of_lambda(ctx: FieldCtx, lam: FqElem) -> FqElem:
    """j = 256 (lambda^2 - lambda + 1)^3 / (lambda^2 (lambda - 1)^2)."""
    l2 = ctx.sqr(lam)
    num = ctx.add(ctx.sub(l2, lam), ctx.one)
    num = ctx.mul(ctx.elem(256), ctx.pow(num, 3))
    den = ctx.mul(l2, ctx.sqr(ctx.sub(lam, ctx.one)))
    return ctx.div(num, den)


def enumerate_supersingular_classes(ctx: FieldCtx) -> tuple:
    """One sorted 2-torsion root triple per supersingular j-invariant, sorted by j.

    Distills the (p-1)/2 supersingular lambda values down to their j-orbit
    representatives; the count always lands in [p/12, p/12 + 2].  Each
    triple holds the roots of the class's cubic x^3 + Ax + B, the Legendre
    curve y^2 = x(x-1)(x-lambda) moved by its mean root (_legendre_roots),
    so it is read off lambda with no root finding.  Computed, with its
    Hasse re-check, on first use and kept with the field like the lambda set.
    """
    return ctx.cached(_compute_classes)


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
    lams = [by_j[j] for j in sorted(by_j)]
    ok = deuring_vanishes(ctx, lams)
    if not ok.all():
        raise ArithmeticError("class with lambda=%r fails the Hasse test"
                              % (lams[int(np.argmin(ok))],))
    return tuple(_legendre_roots(ctx, lam) for lam in lams)


def _legendre_roots(ctx: FieldCtx, lam: FqElem) -> tuple:
    """Sorted roots {0, 1, lambda} - (1 + lambda)/3 of the translated Legendre cubic.

    x -> x + (1 + lambda)/3 takes x(x-1)(x-lambda) to x^3 + Ax + B, whose
    roots sum to 0.
    """
    mean = ctx.div(ctx.add(ctx.one, lam), ctx.elem(3))
    return tuple(sorted(ctx.sub(x, mean) for x in (ctx.zero, ctx.one, lam)))
