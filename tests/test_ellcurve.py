"""Elliptic curve invariants and the supersingular locus in char p.

The class enumeration is cross-checked by the only oracle that needs no
shared machinery: scanning every j in F_{p^2} and testing its standard
model directly via the Hasse-invariant coefficient.  The closed-form
2-torsion triples are checked against the root finder on the translated
Weierstrass models of tests/oracles.py.
"""

import functools
import math
import random
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from howecurves import (
    INF,
    FieldCtx,
    enumerate_supersingular_classes,
    supersingular_lambda_set,
)
from howecurves import ellcurve
from howecurves.arith import MAX_P, UniPoly, is_prime, poly_roots_in_fq
from oracles import (
    EllipticCurve,
    MobiusMap,
    QuarticModel,
    class_j,
    cross_ratio,
    cubic_curve,
    curve_from_j,
    deuring_vanishes_horner,
    is_supersingular,
    j_invariant,
    in_lambda_set,
    j_of_lambda,
    lambda_of_quartic,
    lambda_values,
    legendre_curve_by_translation,
    quartic_is_supersingular,
    two_torsion_roots,
)


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
        assert not in_lambda_set(ctx, lset, ctx.zero) and not in_lambda_set(ctx, lset, ctx.one)
        for lam in lambda_values(ctx, lset):
            # the six-element orbit of lambda stays inside the set
            assert in_lambda_set(ctx, lset, ctx.inv(lam))
            assert in_lambda_set(ctx, lset, ctx.sub(ctx.one, lam))
    assert 6 * 7 in supersingular_lambda_set(FieldCtx(7))


def _deuring_roots(ctx):
    """The oracle: roots of H_p = sum_i binom(m, i)^2 z^i, m = (p-1)/2, by poly_roots_in_fq."""
    m = (ctx.p - 1) // 2
    deuring = [math.comb(m, i) ** 2 % ctx.p for i in range(m + 1)]
    return poly_roots_in_fq(UniPoly.from_int_coeffs(ctx, deuring))


@pytest.mark.parametrize("p", [q for q in range(5, 212) if is_prime(q)] + [409, 997])
def test_lambda_set_matches_the_generic_root_finder(p):
    # the 2-isogeny walk, on a fresh field, against the F_{p^2} root finder
    # on the Deuring polynomial
    ctx = FieldCtx(p)
    want = _deuring_roots(ctx)
    lset = supersingular_lambda_set(ctx)
    assert lambda_values(ctx, lset) == want
    assert lset.dtype == np.int64 and lset.tolist() == [c0 * p + c1 for c0, c1 in want]


# ---------------------------------------------------------------------------
# the 2-isogeny walk: its CM seed, the Hasse certificate and the failure paths
# ---------------------------------------------------------------------------


def _inert(D, p):
    return pow(D % p, (p - 1) // 2, p) == p - 1


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_deuring_horner_vanishes_exactly_where_the_hasse_test_holds(p):
    ctx = FieldCtx(p)
    lams = [x for x in ctx.elements() if x not in (ctx.zero, ctx.one)]
    want = [is_supersingular(legendre_curve_by_translation(ctx, lam)) for lam in lams]
    assert ellcurve.deuring_vanishes(ctx, lams).tolist() == want
    assert sum(want) == (p - 1) // 2


@functools.lru_cache(maxsize=None)
def _field(p):
    return FieldCtx(p)


@st.composite
def _lambdas(draw):
    """A prime up to 29989 and a lambda other than 0 and 1, supersingular or not."""
    ctx = _field(draw(st.sampled_from([17, 409, 4003, 29989])))
    if draw(st.booleans()):
        values = lambda_values(ctx, supersingular_lambda_set(ctx))
        return ctx, values[draw(st.integers(0, len(values) - 1))]
    lam = (draw(st.integers(0, ctx.p - 1)), draw(st.integers(0, ctx.p - 1)))
    return ctx, lam if lam not in (ctx.zero, ctx.one) else ctx.elem(2)


@settings(max_examples=12, deadline=None)
@given(_lambdas())
def test_deuring_horner_agrees_with_the_hasse_test_on_drawn_lambdas(case):
    # up to the largest prime, where the int64 bound of the pass is tightest
    ctx, lam = case
    want = is_supersingular(legendre_curve_by_translation(ctx, lam))
    assert ellcurve.deuring_vanishes(ctx, [lam]).tolist() == [want]


def _mixed_batch(ctx, size, seed):
    """size lambdas, about half supersingular, the rest drawn from all of F_{p^2}."""
    rng = random.Random(seed)
    values = lambda_values(ctx, supersingular_lambda_set(ctx))
    return [rng.choice(values) if rng.random() < 0.5
            else (rng.randrange(ctx.p), rng.randrange(ctx.p)) for _ in range(size)]


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([5, 7, 11, 13, 17, 409, 4003, 29989]),
       st.sampled_from(["empty", "one", "two", "p/12"]), st.integers(0, 2 ** 32 - 1))
@example(5, "p/12", 0)
@example(7, "p/12", 0)
@example(11, "p/12", 0)
@example(13, "p/12", 0)
@example(29989, "p/12", 0)
def test_baby_step_giant_step_matches_the_horner_pass(p, size, seed):
    # B J > m + 1 at 5 and 13, so the table's last block is padded with
    # zeros; at 29989 the inner sums come nearest their int64 bound
    ctx = _field(p)
    n = {"empty": 0, "one": 1, "two": 2, "p/12": max(1, p // 12)}[size]
    lams = _mixed_batch(ctx, n, seed)
    got = ellcurve.deuring_vanishes(ctx, lams)
    assert got.dtype == bool and got.shape == (n,)
    assert got.tolist() == deuring_vanishes_horner(ctx, lams).tolist()


def test_the_deuring_table_is_padded_only_past_m():
    for p in (5, 7, 11, 13, 409, 29989):
        m = (p - 1) // 2
        table = _field(p).cached(ellcurve._deuring_table)
        B, J = table.shape
        assert B == math.isqrt(m) + 1 and (J - 1) * B < m + 1 <= J * B
        flat = table.T.ravel().tolist()
        assert flat[m + 1:] == [0] * (B * J - m - 1)
        if p < 1000:
            assert flat[:m + 1] == [math.comb(m, k) ** 2 % p for k in range(m + 1)]
    assert [_field(p).cached(ellcurve._deuring_table).size > (p + 1) // 2
            for p in (5, 7, 11, 13)] == [True, False, False, True]


@pytest.mark.parametrize("n", [1, 2500])
def test_the_hasse_test_makes_at_most_2_sqrt_m_sequential_products(monkeypatch, n):
    # every sequential F_{p^2} product of the baby and giant steps goes
    # through _mul_arrays; the Horner pass took m + 1 = 14995 steps here
    ctx = _field(29989)
    m = (ctx.p - 1) // 2
    lams = _mixed_batch(ctx, n, 24)
    calls = []
    real = ellcurve._mul_arrays
    monkeypatch.setattr(ellcurve, "_mul_arrays",
                        lambda *args: calls.append(args) or real(*args))
    got = ellcurve.deuring_vanishes(ctx, lams).tolist()
    assert len(calls) <= 2 * math.isqrt(m) + 2 == 246
    # the doubling of _powers: 13 products for lambda^0..lambda^123, 13
    # for (lambda^123)^0..(lambda^123)^121 and one for the sum
    assert len(calls) == 27
    assert got == [in_lambda_set(ctx, supersingular_lambda_set(ctx), lam) for lam in lams]


@pytest.mark.parametrize("p", [q for q in range(5, 212) if is_prime(q)] + [4003, 29989])
def test_array_j_codes_match_the_scalar_j(p):
    ctx = _field(p)
    lams = [x for x in (ctx.elements() if p < 50 else _mixed_batch(ctx, 300, p))
            if x not in (ctx.zero, ctx.one)]
    want = [c0 * p + c1 for c0, c1 in (j_of_lambda(ctx, lam) for lam in lams)]
    assert ellcurve._j_codes(ctx, lams) == want


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_legendre_model_matches_the_translated_cubic(p):
    # the closed-form roots against the root finder on the translated cubic
    ctx = FieldCtx(p)
    for lam in ctx.elements():
        if lam in (ctx.zero, ctx.one):
            continue
        want = two_torsion_roots(legendre_curve_by_translation(ctx, lam))
        assert ellcurve._legendre_roots(ctx, lam) == want


@settings(max_examples=25, deadline=None)
@given(_lambdas())
def test_legendre_model_matches_the_translated_cubic_on_drawn_lambdas(case):
    ctx, lam = case
    want = two_torsion_roots(legendre_curve_by_translation(ctx, lam))
    assert ellcurve._legendre_roots(ctx, lam) == want


def test_every_prime_up_to_max_p_has_a_cm_seed():
    # Legendre symbols only, no walk: some D of the table is inert at p, and
    # at the two primes where none is, -15 is
    no_table = []
    for p in range(5, MAX_P + 1):
        if is_prime(p) and not any(_inert(D, p) for D, _ in ellcurve._CM_J):
            no_table.append(p)
            assert _inert(-15, p), p
    assert no_table == [15073, 18313]


_MINUS_15_INERT = [q for q in range(7, 200) if is_prime(q) and _inert(-15, q)]


@pytest.mark.parametrize("p", _MINUS_15_INERT[:8])
def test_the_minus_15_seed_gives_the_same_set(monkeypatch, p):
    monkeypatch.setattr(ellcurve, "_CM_J", ())
    ctx = FieldCtx(p)
    assert lambda_values(ctx, ellcurve._compute_lambda_set(ctx)) == _deuring_roots(ctx)


def test_every_seed_up_to_997_passes_the_hasse_test(monkeypatch):
    primes = [q for q in range(5, 998) if is_prime(q)]
    for p in primes:
        ctx = FieldCtx(p)
        lam = ellcurve._seed_lambda(ctx)
        assert is_supersingular(legendre_curve_by_translation(ctx, lam)), p
    # and the D = -15 seed at every prime inert in Q(sqrt(-15))
    monkeypatch.setattr(ellcurve, "_CM_J", ())
    for p in (q for q in primes if _inert(-15, q)):
        ctx = FieldCtx(p)
        lam = ellcurve._seed_lambda(ctx)
        assert is_supersingular(legendre_curve_by_translation(ctx, lam)), p


@pytest.mark.parametrize("p", [11, 13, 409, 997])
def test_an_ordinary_seed_raises(monkeypatch, p):
    ctx = FieldCtx(p)
    lset = ellcurve._compute_lambda_set(ctx)
    lam = next(ctx.elem(c) for c in range(2, p) if c * p not in lset)
    # an ordinary j for an inert D: the Hasse certificate rejects it
    D = next(D for D, _ in ellcurve._CM_J if _inert(D, p))
    monkeypatch.setattr(ellcurve, "_CM_J", ((D, j_of_lambda(ctx, lam)[0]),))
    with pytest.raises(ArithmeticError, match="not supersingular"):
        ellcurve._compute_lambda_set(ctx)
    # an ordinary lambda past the certificate: the walk itself raises
    monkeypatch.setattr(ellcurve, "_seed_lambda", lambda ctx: lam)
    with pytest.raises(ArithmeticError):
        ellcurve._compute_lambda_set(ctx)


def test_a_j_without_a_lambda_in_the_field_raises(monkeypatch):
    ctx = FieldCtx(11)
    D = next(D for D, _ in ellcurve._CM_J if _inert(D, 11))
    # 256 u^3 - 4 (u - 1)^2 has no root in F_121: no lambda at all
    monkeypatch.setattr(ellcurve, "_CM_J", ((D, 4),))
    with pytest.raises(ArithmeticError, match="not supersingular"):
        ellcurve._seed_lambda(ctx)
    # j = t, a root of the patched "Hilbert polynomial" z^2 - r: the cubic
    # has a root u, but 4u - 3 is not a square in F_121
    assert _inert(-15, 11)
    monkeypatch.setattr(ellcurve, "_CM_J", ())
    monkeypatch.setattr(ellcurve, "_HILBERT_MINUS_15", (-ctx.r, 0, 1))
    with pytest.raises(ArithmeticError, match=r"j=\(0, 1\) is not supersingular"):
        ellcurve._seed_lambda(ctx)


def test_no_seed_raises(monkeypatch):
    monkeypatch.setattr(ellcurve, "_CM_J", ())
    # 17 splits in Q(sqrt(-15)): the -15 path is not taken
    assert not _inert(-15, 17)
    with pytest.raises(ArithmeticError, match="no CM seed"):
        ellcurve._compute_lambda_set(FieldCtx(17))
    # 7 is inert, but a Hilbert polynomial without roots gives no j
    monkeypatch.setattr(ellcurve, "_HILBERT_MINUS_15", (1,))
    with pytest.raises(ArithmeticError, match="no CM seed"):
        ellcurve._compute_lambda_set(FieldCtx(7))


def test_walk_reaches_the_whole_set_at_large_primes():
    # 15073 and 18313 take the D = -15 seed, and 29989 is the largest prime
    # allowed.  Measured at about 1 s in total on a 2-vCPU x86-64 host; the
    # budget leaves room for a slower machine.
    t0 = time.perf_counter()
    for p in (15073, 18313, 29989):
        ctx = FieldCtx(p)
        lset = ellcurve._compute_lambda_set(ctx)
        assert len(lset) == (p - 1) // 2
        assert not in_lambda_set(ctx, lset, ctx.zero) and not in_lambda_set(ctx, lset, ctx.one)
    assert time.perf_counter() - t0 < 10.0


def test_lambda_set_matches_legendre_models():
    # membership must agree with testing y^2 = x(x-1)(x-lam) directly
    ctx = FieldCtx(11)
    lset = supersingular_lambda_set(ctx)
    for x in ctx.elements():
        if x == ctx.zero or x == ctx.one:
            continue
        Q = QuarticModel(ctx, INF, (ctx.zero, ctx.one, x))
        assert in_lambda_set(ctx, lset, x) == quartic_is_supersingular(Q)


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
        assert direct == in_lambda_set(ctx, lset, lambda_of_quartic(Q))
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
    assert sorted(class_j(ctx11, roots) for roots in classes) == [ctx11.zero, ctx11.elem(1)]

    ctx13 = FieldCtx(13)
    classes13 = enumerate_supersingular_classes(ctx13)
    assert [class_j(ctx13, roots) for roots in classes13] == [ctx13.elem(5)]


def test_class_enumeration_matches_j_scan():
    for p in (5, 7, 11, 13, 17, 19, 23, 31):
        ctx = FieldCtx(p)
        got = sorted(class_j(ctx, roots) for roots in enumerate_supersingular_classes(ctx))
        want = sorted(j for j in ctx.elements() if is_supersingular(curve_from_j(ctx, j)))
        assert got == want
        assert p // 12 <= len(got) <= p // 12 + 2


def test_classes_are_computed_once_per_prime(monkeypatch):
    # the Hasse re-check (one deuring_vanishes call over the class lambdas)
    # runs on the first call on a field only; a new field for the same
    # prime starts cold
    ctx = FieldCtx(41)
    supersingular_lambda_set(ctx)  # the walk's seed check is not counted here
    calls = []
    real = ellcurve.deuring_vanishes
    monkeypatch.setattr(ellcurve, "deuring_vanishes",
                        lambda ctx, lams: calls.append(lams) or real(ctx, lams))
    first = enumerate_supersingular_classes(ctx)
    assert isinstance(first, tuple) and len(calls) == 1
    assert [ellcurve._legendre_roots(ctx, lam) for lam in calls[0]] == list(first)
    calls.clear()
    assert enumerate_supersingular_classes(ctx) is first
    assert calls == []
    other = FieldCtx(41)
    supersingular_lambda_set(other)
    calls.clear()
    again = enumerate_supersingular_classes(other)
    assert again == first and again is not first and len(calls) == 1


def test_class_recheck_rejects_an_ordinary_lambda(monkeypatch):
    # one ordinary lambda slipped into the set adds a class at p = 13; the
    # Hasse re-check must refuse it
    codes = supersingular_lambda_set(FieldCtx(13)).tolist()
    ctx = FieldCtx(13)
    ordinary = 2 * 13  # the code of 2
    assert ordinary not in codes
    monkeypatch.setattr(ellcurve, "_compute_lambda_set",
                        lambda ctx: np.array(sorted(codes + [ordinary])))
    with pytest.raises(ArithmeticError, match="fails the Hasse test"):
        enumerate_supersingular_classes(ctx)


def test_class_count_must_be_exact(monkeypatch):
    # p = 11 has two supersingular j, 0 and 1728 (floor(11/12) + 2); with
    # the lambdas of j = 1728, -1, 2 and 1/2, dropped, the one class left
    # passes the Hasse re-check and the window [0, 2], but not the count
    codes = supersingular_lambda_set(FieldCtx(11)).tolist()
    j1728 = [10 * 11, 2 * 11, 6 * 11]  # the codes of -1, 2 and 1/2
    assert set(j1728) <= set(codes)
    monkeypatch.setattr(ellcurve, "_compute_lambda_set",
                        lambda ctx: np.array(sorted(set(codes) - set(j1728))))
    with pytest.raises(ArithmeticError, match="class count 1, not 2"):
        enumerate_supersingular_classes(FieldCtx(11))


def _class_lambdas(ctx):
    """The first lambda of each j, in the order of j: the classes' invariants."""
    by_j = {}
    for lam in lambda_values(ctx, supersingular_lambda_set(ctx)):
        by_j.setdefault(j_of_lambda(ctx, lam), lam)
    return [by_j[j] for j in sorted(by_j)]


def _check_class(ctx, lam, roots, hasse=True):
    # the oracle roots the translated Weierstrass model of lam
    assert roots == two_torsion_roots(legendre_curve_by_translation(ctx, lam))
    assert not hasse or is_supersingular(cubic_curve(ctx, roots))
    assert len(set(roots)) == 3
    assert list(roots) == sorted(roots)


def test_class_models_are_supersingular_with_split_two_torsion():
    # every class at every prime up to 211
    for p in (q for q in range(5, 212) if is_prime(q)):
        ctx = FieldCtx(p)
        classes = enumerate_supersingular_classes(ctx)
        lams = _class_lambdas(ctx)
        assert len(lams) == len(classes)
        for lam, roots in zip(lams, classes):
            _check_class(ctx, lam, roots)


def test_class_triples_match_the_root_finder_at_large_primes():
    # a seeded sample of the classes; the scalar Hasse test only up to 4003,
    # where its degree-(p-1) power is still cheap
    rng = random.Random(15)
    for p in (997, 4003, 15073, 19993):
        ctx = FieldCtx(p)
        classes = enumerate_supersingular_classes(ctx)
        lams = _class_lambdas(ctx)
        assert len(lams) == len(classes)
        for k in sorted(rng.sample(range(len(classes)), 12)):
            _check_class(ctx, lams[k], classes[k], hasse=p <= 4003)


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
