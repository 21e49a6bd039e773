"""Supersingular elliptic curves over F_{p^2} seen through their branch data.

A curve is a branch configuration: the three roots of its 2-torsion cubic
for a supersingular class, or (b; a1, a2, a3) for the double cover of the
line ramified at those four points.  Both reduce to a Legendre invariant
lambda, and the curve is supersingular exactly when lambda is a root of the
Deuring polynomial H_p = sum_i binom((p-1)/2, i)^2 z^i.  The supersingular
lambda are found by a 2-isogeny walk from one CM seed, a root of a cubic in
u = lambda^2 - lambda + 1, and H_p is only evaluated, to certify the seed,
the class representatives and the quartics of a Howe curve, by baby steps
and giant steps: for a whole batch of lambdas, about 2 log2(p) array
passes and one int64 matrix product.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .arith import (
    FieldCtx,
    FqElem,
    UniPoly,
    _inv_stacked,
    _mul_arrays,
    _mul_stacked,
    poly_roots_in_fq,
)


def supersingular_lambda_set(ctx: FieldCtx) -> np.ndarray:
    """All lambda with y^2 = x(x-1)(x-lambda) supersingular; always (p-1)/2 values.

    These are the roots of the Deuring polynomial (see _compute_lambda_set),
    held as the sorted int64 codes c0 p + c1 of the values, so a membership
    test is a search in the array.  Computed on first use and kept, read-only,
    with the field (FieldCtx.cached).
    """
    return ctx.cached(_compute_lambda_set)


def _compute_lambda_set(ctx: FieldCtx) -> np.ndarray:
    """The sorted codes of the roots of H_p in F_{p^2}, by a breadth-first 2-isogeny walk.

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
    return np.array(sorted(c0 * ctx.p + c1 for c0, c1 in seen), dtype=np.int64)


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
    the Hilbert polynomial of -15 when p is inert there.  Its lambda solve
    256 (l^2 - l + 1)^3 = j l^2 (l - 1)^2.  With u = l^2 - l + 1 the right
    side is j (u - 1)^2, since l^2 (l - 1)^2 = (l^2 - l)^2, so u is a root
    of the cubic 256 u^3 - j (u - 1)^2, and lambda = (1 + sqrt(4u - 3)) / 2
    is a root of l^2 - l + 1 - u.  The seed is that lambda for a root u of
    the cubic.  The lambda of a supersingular j lie in F_{p^2}, so a
    missing square root, like a nonzero H_p(lambda), shows j ordinary.
    Raises ArithmeticError if there is no seed or if it is not
    supersingular.
    """
    root_of = ctx.sqrt_table().item
    js = [ctx.elem(j) for D, j in _CM_J if root_of(D % ctx.p) < 0]
    if not js and root_of(-15 % ctx.p) < 0:
        js = poly_roots_in_fq(UniPoly.from_int_coeffs(ctx, _HILBERT_MINUS_15))
    if not js:
        raise ArithmeticError("no CM seed for the supersingular walk at p=%d" % ctx.p)
    cubic = UniPoly.from_int_coeffs(ctx, [0, 0, 0, 256]) - UniPoly.from_int_coeffs(
        ctx, [1, -2, 1]).scale(js[0])
    us = poly_roots_in_fq(cubic)
    s = ctx.sqrt(ctx.sub(ctx.mul(ctx.elem(4), us[0]), ctx.elem(3))) if us else None
    lam = None if s is None else ctx.div(ctx.add(ctx.one, s), ctx.elem(2))
    if lam is None or not deuring_vanishes(ctx, [lam])[0]:
        raise ArithmeticError("CM seed j=%r is not supersingular at p=%d" % (js[0], ctx.p))
    return lam


def deuring_vanishes(ctx: FieldCtx, lams: list) -> np.ndarray:
    """H_p(lambda) == 0 for each lambda, as a bool array.

    This is the Hasse test of y^2 = x(x-1)(x-lambda), whose Hasse invariant
    is (-1)^m H_p(lambda) with m = (p-1)/2 (Silverman, V.4.1(b)).  With the
    coefficients c_k = binom(m, k)^2 cut into J blocks of B (_deuring_table),
    H_p(lambda) = sum_j S_j(lambda) (lambda^B)^j, S_j being block j's
    polynomial of degree below B: baby steps and giant steps (Paterson and
    Stockmeyer, SIAM J. Comput. 2, 1973).  The powers lambda^0..lambda^B
    and (lambda^B)^0..(lambda^B)^(J-1) come by doubling (_powers), every
    S_j of the batch from one int64 matrix product, and the sum from one
    more array product: about 2 log2(B) + 2 log2(J) array passes, whatever
    the number of lambdas (the bounds are argued at arith.MAX_P).
    """
    p = ctx.p
    table = ctx.cached(_deuring_table)
    B, J = table.shape
    x = np.array(lams, dtype=np.int64).reshape(-1, 2)
    b0, b1 = _powers(ctx, x[:, 0], x[:, 1], B)
    s0, s1 = b0[:, :B] @ table % p, b1[:, :B] @ table % p
    v0, v1 = _mul_arrays(ctx, s0, s1, *_powers(ctx, b0[:, B], b1[:, B], J - 1))
    return (v0.sum(axis=1) % p == 0) & (v1.sum(axis=1) % p == 0)


def _deuring_table(ctx: FieldCtx) -> np.ndarray:
    """The (B, J) int64 table whose column j holds c_(jB)..c_(jB + B - 1).

    c_k = binom(m, k)^2 mod p, m = (p-1)/2, and c_k = 0 past m.
    B = isqrt(m) + 1 and J = ceil((m + 1) / B), both about sqrt(m).
    """
    p = ctx.p
    m = (p - 1) // 2
    B = math.isqrt(m) + 1
    J = -(-(m + 1) // B)
    inv = ctx.inv_table().tolist()
    coeffs = [0] * (B * J)
    c = 1  # binom(m, k) mod p
    for k in range(m + 1):
        coeffs[k] = c * c % p
        c = c * (m - k) % p * inv[k + 1] % p
    return np.array(coeffs, dtype=np.int64).reshape(J, B).T.copy()


def _powers(ctx: FieldCtx, x0, x1, k: int) -> tuple:
    """x^0..x^k for an array of n elements of F_{p^2}, as two (n, k + 1) planes.

    By doubling: columns w..2w-1 are columns 0..w-1 times x^w, and x^w is
    then squared, so 2 ceil(log2(k + 1)) - 1 array products for k >= 1.
    """
    y0 = np.empty((len(x0), k + 1), dtype=np.int64)
    y1 = np.empty_like(y0)
    y0[:, 0], y1[:, 0] = 1, 0
    w, w0, w1 = 1, x0[:, None], x1[:, None]  # w0 + w1 t = x^w
    while w <= k:
        h = min(w, k + 1 - w)
        y0[:, w:w + h], y1[:, w:w + h] = _mul_arrays(ctx, y0[:, :h], y1[:, :h], w0, w1)
        w *= 2
        if w <= k:
            w0, w1 = _mul_arrays(ctx, w0, w1, w0, w1)
    return y0, y1


def _j_codes(ctx: FieldCtx, lams) -> list:
    """The code j0 p + j1 of j = 256 (l^2 - l + 1)^3 / (l^2 (l - 1)^2) for each lambda l.

    One array pass over the batch; the codes order as the j do.
    """
    p = ctx.p
    mul = functools.partial(_mul_stacked, ctx)
    x = np.array(lams, dtype=np.int64).reshape(-1, 2)
    one = np.array([1, 0])
    x2 = mul(x, x)
    u = (x2 - x + one) % p
    d = (x - one) % p
    j = mul(256 * mul(mul(u, u), u) % p, _inv_stacked(ctx, mul(x2, mul(d, d))))
    return (j[:, 0] * p + j[:, 1]).tolist()


def enumerate_supersingular_classes(ctx: FieldCtx) -> tuple:
    """One sorted 2-torsion root triple per supersingular j-invariant, sorted by j.

    Distills the (p-1)/2 supersingular lambda values down to their j-orbit
    representatives, floor(p/12) + (0, 1, 1, 2) of them for p = 1, 5, 7, 11
    mod 12 (Silverman V.4.1(c)).  Each triple holds the roots of the class's
    cubic x^3 + Ax + B, the Legendre curve y^2 = x(x-1)(x-lambda) moved by
    its mean root (_legendre_roots), so it is read off lambda with no root
    finding.  Computed, with its Hasse and count checks, on first use and
    kept with the field like the lambda set.
    """
    return ctx.cached(_compute_classes)


def _compute_classes(ctx: FieldCtx) -> tuple:
    values = [divmod(code, ctx.p) for code in supersingular_lambda_set(ctx).tolist()]
    by_j = {}
    for j, lam in zip(_j_codes(ctx, values), values):
        by_j.setdefault(j, lam)
    lams = [by_j[j] for j in sorted(by_j)]
    ok = deuring_vanishes(ctx, lams)
    if not ok.all():
        raise ArithmeticError("class with lambda=%r fails the Hasse test"
                              % (lams[int(np.argmin(ok))],))
    want = ctx.p // 12 + {1: 0, 5: 1, 7: 1, 11: 2}[ctx.p % 12]
    if len(by_j) != want:
        raise ArithmeticError("supersingular class count %d, not %d" % (len(by_j), want))
    return tuple(_legendre_roots(ctx, lam) for lam in lams)


def _legendre_roots(ctx: FieldCtx, lam: FqElem) -> tuple:
    """Sorted roots {0, 1, lambda} - (1 + lambda)/3 of the translated Legendre cubic.

    x -> x + (1 + lambda)/3 takes x(x-1)(x-lambda) to x^3 + Ax + B, whose
    roots sum to 0.
    """
    mean = ctx.div(ctx.add(ctx.one, lam), ctx.elem(3))
    return tuple(sorted(ctx.sub(x, mean) for x in (ctx.zero, ctx.one, lam)))
