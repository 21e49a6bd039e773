"""Elliptic curve invariants and the supersingular locus in char p.

The class enumeration is cross-checked by the only oracle that needs no
shared machinery: scanning every j in F_{p^2} and testing its standard
model directly via the Hasse-invariant coefficient.
"""

import math
import random

import pytest

from howecurves import (
    INF,
    EllipticCurve,
    FieldCtx,
    MobiusMap,
    QuarticModel,
    cross_ratio,
    enumerate_supersingular_classes,
    is_supersingular,
    j_invariant,
    lambda_of_quartic,
    quartic_is_supersingular,
    supersingular_lambda_set,
    two_torsion_roots,
)
from howecurves import ellcurve
from howecurves.arith import UniPoly, fp_poly_roots, is_prime, poly_roots_in_fq
from oracles import curve_from_j


def test_j_invariant_pinned_values():
    ctx = FieldCtx(11)
    assert j_invariant(EllipticCurve(ctx, ctx.zero, ctx.one)) == ctx.zero
    assert j_invariant(EllipticCurve(ctx, ctx.one, ctx.zero)) == ctx.elem(1728)
    assert j_invariant(EllipticCurve(ctx, ctx.one, ctx.one)) == ctx.elem(9)


def test_singular_model_rejected():
    ctx = FieldCtx(11)
    with pytest.raises(ValueError):
        EllipticCurve(ctx, ctx.zero, ctx.zero)
    # 4*(-3)^3 + 27*2^2 = 0
    with pytest.raises(ValueError):
        EllipticCurve(ctx, ctx.elem(-3), ctx.elem(2))


def test_curve_from_j_round_trip():
    ctx = FieldCtx(13)
    rng = random.Random(11)
    for _ in range(40):
        j = ctx.elem(rng.randrange(13), rng.randrange(13))
        assert j_invariant(curve_from_j(ctx, j)) == j


def test_is_supersingular_pinned_values():
    assert is_supersingular(EllipticCurve(FieldCtx(5), (0, 0), (1, 0)))
    assert is_supersingular(EllipticCurve(FieldCtx(7), (1, 0), (0, 0)))
    assert not is_supersingular(EllipticCurve(FieldCtx(5), (1, 0), (0, 0)))


def test_supersingularity_depends_only_on_j():
    ctx = FieldCtx(11)
    rng = random.Random(12)
    for _ in range(30):
        A = ctx.elem(rng.randrange(11), rng.randrange(11))
        B = ctx.elem(rng.randrange(11), rng.randrange(11))
        try:
            E = EllipticCurve(ctx, A, B)
        except ValueError:
            continue
        assert is_supersingular(E) == is_supersingular(curve_from_j(ctx, j_invariant(E)))


def test_lambda_set_size_and_exclusions():
    for p in (5, 7, 11, 13, 17, 19):
        ctx = FieldCtx(p)
        lset = supersingular_lambda_set(ctx)
        assert len(lset) == (p - 1) // 2
        assert ctx.zero not in lset and ctx.one not in lset
        for lam in lset:
            # the six-element orbit of lambda stays inside the set
            assert ctx.inv(lam) in lset
            assert ctx.sub(ctx.one, lam) in lset
    assert FieldCtx(7).elem(6) in supersingular_lambda_set(FieldCtx(7))


@pytest.mark.parametrize("p", [q for q in range(5, 212) if is_prime(q)] + [409, 997])
def test_lambda_set_matches_the_generic_root_finder(monkeypatch, p):
    # the F_p root finder on the Deuring polynomial against the F_{p^2} one
    ctx = FieldCtx(p)
    m = (p - 1) // 2
    deuring = [math.comb(m, i) ** 2 % p for i in range(m + 1)]
    want = poly_roots_in_fq(UniPoly.from_int_coeffs(ctx, deuring))
    assert fp_poly_roots(ctx, deuring) == want
    monkeypatch.setattr(ellcurve, "_LAMBDA_SETS", {})  # cold memo
    lset = supersingular_lambda_set(ctx)
    assert lset.values == tuple(want)
    assert lset.codes.tolist() == [c0 * p + c1 for c0, c1 in want]


def test_lambda_set_matches_legendre_models():
    # membership must agree with testing y^2 = x(x-1)(x-lam) directly
    ctx = FieldCtx(11)
    lset = supersingular_lambda_set(ctx)
    for x in ctx.elements():
        if x == ctx.zero or x == ctx.one:
            continue
        Q = QuarticModel(ctx, INF, (ctx.zero, ctx.one, x))
        assert (x in lset) == quartic_is_supersingular(Q)


def test_lambda_of_quartic_legendre_frame():
    ctx = FieldCtx(13)
    lam = ctx.elem(6, 2)
    Q = QuarticModel(ctx, INF, (ctx.zero, ctx.one, lam))
    assert lambda_of_quartic(Q) == cross_ratio(ctx, INF, ctx.zero, ctx.one, lam)


def test_quartic_supersingularity_is_orbit_invariant():
    ctx = FieldCtx(11)
    lset = supersingular_lambda_set(ctx)
    rng = random.Random(13)
    for _ in range(50):
        pts = []
        while len(pts) < 4:
            cand = rng.choice([INF] + [ctx.elem(i, j) for i in range(11) for j in range(11)])
            if cand not in pts:
                pts.append(cand)
        if INF in pts[1:]:
            pts = [INF] + [q for q in pts if q is not INF][:3]
        Q = QuarticModel(ctx, pts[0], tuple(pts[1:]))
        direct = quartic_is_supersingular(Q)
        assert direct == (lambda_of_quartic(Q) in lset)
        # apply a random Mobius map and retest
        while True:
            a, b, c, d = (ctx.elem(rng.randrange(11), rng.randrange(11)) for _ in range(4))
            if ctx.sub(ctx.mul(a, d), ctx.mul(b, c)) != ctx.zero:
                break
        m = MobiusMap(ctx, a, b, c, d)
        img = [m(q) for q in [Q.b] + list(Q.roots)]
        inf_imgs = [q for q in img if q is INF]
        if inf_imgs:
            finite = [q for q in img if q is not INF]
            Q2 = QuarticModel(ctx, INF, tuple(finite))
        else:
            Q2 = QuarticModel(ctx, img[0], tuple(img[1:]))
        assert quartic_is_supersingular(Q2) == direct


def test_class_enumeration_pinned_counts():
    ctx11 = FieldCtx(11)
    classes = enumerate_supersingular_classes(ctx11)
    assert sorted(j_invariant(E) for E in classes) == [ctx11.zero, ctx11.elem(1)]

    ctx13 = FieldCtx(13)
    classes13 = enumerate_supersingular_classes(ctx13)
    assert [j_invariant(E) for E in classes13] == [ctx13.elem(5)]


def test_class_enumeration_matches_j_scan():
    for p in (5, 7, 11, 13, 17, 19, 23, 31):
        ctx = FieldCtx(p)
        got = sorted(j_invariant(E) for E in enumerate_supersingular_classes(ctx))
        want = sorted(j for j in ctx.elements() if is_supersingular(curve_from_j(ctx, j)))
        assert got == want
        assert p // 12 <= len(got) <= p // 12 + 2


def test_classes_are_computed_once_per_prime(monkeypatch):
    # the Hasse re-check runs on the first call at a prime only, and the
    # memo keeps as many primes as the lambda-set memo
    calls = []
    real = ellcurve.is_supersingular
    monkeypatch.setattr(ellcurve, "is_supersingular", lambda E: calls.append(E) or real(E))
    monkeypatch.setattr(ellcurve, "_CLASSES", {})  # cold memo
    first = enumerate_supersingular_classes(FieldCtx(41))
    assert isinstance(first, tuple) and calls == list(first)
    calls.clear()
    assert enumerate_supersingular_classes(FieldCtx(41)) is first
    assert calls == []
    later = [43, 47, 53, 59, 61, 67, 71, 73][:ellcurve._KEPT]
    for q in later:
        enumerate_supersingular_classes(FieldCtx(q))
    assert sorted(ellcurve._CLASSES) == later


def test_class_models_are_supersingular_with_split_two_torsion():
    for p in (11, 13, 37, 101):
        ctx = FieldCtx(p)
        for E in enumerate_supersingular_classes(ctx):
            assert is_supersingular(E)
            roots = two_torsion_roots(E)
            assert len(set(roots)) == 3
            assert list(roots) == sorted(roots)


def test_two_torsion_failure_raises():
    # x^3 - x + 2 has no roots mod 5, so it is irreducible over F_5 and its
    # roots generate a cubic extension disjoint from F_25.
    ctx = FieldCtx(5)
    E = EllipticCurve(ctx, ctx.elem(-1), ctx.elem(2))
    with pytest.raises(ArithmeticError):
        two_torsion_roots(E)


def test_quartic_model_validation():
    ctx = FieldCtx(11)
    with pytest.raises(ValueError):
        QuarticModel(ctx, INF, (ctx.zero, ctx.zero, ctx.one))
    with pytest.raises(ValueError):
        QuarticModel(ctx, ctx.zero, (ctx.zero, ctx.one, ctx.elem(2)))
    with pytest.raises(ValueError):
        QuarticModel(ctx, ctx.one, (ctx.zero, INF, ctx.elem(2)))
