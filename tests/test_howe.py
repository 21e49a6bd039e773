"""Genus-4 double-cover data: construction, isomorphism, the special family.

The isomorphism test and the Howe key have two oracles.  On a single base
curve, two choices of branch point give isomorphic data exactly when an
automorphism of the curve preserving the split carries one choice to the
other.  Across curves, an explicit search builds the 12 maps sending H1's
first split part onto an ordered part of H2's split and checks the full
incidence; equal keys must mean exactly that the search finds a map.
The closed-form special family is checked against root-found cubics, and
the one-pass superspeciality test against the scalar Hasse tests of
tests/oracles.py.  The batched Howe key and Legendre invariants are checked
against their one-datum oracles there.
"""

import itertools
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from howecurves import (
    INF,
    FieldCtx,
    Genus2Curve,
    HoweData,
    MobiusMap,
    UniPoly,
    enumerate_b,
    find_one,
    howe_isomorphic,
    howe_key,
    is_prime,
    is_superspecial_howe,
    mobius_from_triples,
    normalize_split,
    special_family,
    supersingular_b_values,
    supersingular_lambda_set,
)
from howecurves.arith import cross_ratio_map
from howecurves.howe import quartic_lambdas
from howecurves.strategies import _curve_splits
from oracles import (
    QuarticModel,
    automorphisms,
    howe_from_cubics,
    howe_key_scalar,
    in_lambda_set,
    is_superspecial,
    is_superspecial_howe_scalar,
    lambda_of_quartic,
    lambda_values,
    quartic_is_supersingular,
    quartics,
)


def _key(H):
    return howe_key(H.curve.ctx, [(H.split, H.b)])[0]


def _sextic_split(ctx, ints1, ints2):
    w1 = tuple(ctx.elem(v) for v in ints1)
    w2 = tuple(ctx.elem(v) for v in ints2)
    C = Genus2Curve(ctx, w1 + w2)
    return C, normalize_split(w1, w2)


def _cube_root_data(p):
    """x^6 - 1 split into the cube roots of 1 and of -1, b at infinity."""
    ctx = FieldCtx(p)
    f1 = UniPoly.from_int_coeffs(ctx, [-1, 0, 0, 1])
    f2 = UniPoly.from_int_coeffs(ctx, [1, 0, 0, 1])
    return ctx, howe_from_cubics(ctx, f1, f2)


def test_normalize_split_is_order_free():
    ctx = FieldCtx(11)
    w1 = (ctx.elem(3), ctx.elem(1), ctx.elem(2))
    w2 = (ctx.elem(0, 1), ctx.elem(5), ctx.elem(4))
    assert normalize_split(w1, w2) == normalize_split(w2, w1)
    got = normalize_split(w1, w2)
    assert got == tuple(sorted([tuple(sorted(w1)), tuple(sorted(w2))]))
    with pytest.raises(ValueError):
        normalize_split(w1[:2], w2)


def test_howe_from_cubics_validation():
    ctx = FieldCtx(11)
    x3_minus_x = UniPoly.from_int_coeffs(ctx, [0, -1, 0, 1])
    x3_minus_1 = UniPoly.from_int_coeffs(ctx, [-1, 0, 0, 1])
    with pytest.raises(ValueError, match="share a root"):
        howe_from_cubics(ctx, x3_minus_x, x3_minus_1)
    with pytest.raises(ValueError):
        howe_from_cubics(ctx, UniPoly.from_int_coeffs(ctx, [1, 1]), x3_minus_1)

    H = howe_from_cubics(ctx, UniPoly.from_roots(ctx, [ctx.zero, ctx.one, ctx.elem(2)]),
                         UniPoly.from_roots(ctx, [ctx.elem(3), ctx.elem(4), ctx.elem(5)]))
    assert H.b is INF
    assert H.split == ((ctx.zero, ctx.one, ctx.elem(2)),
                       (ctx.elem(3), ctx.elem(4), ctx.elem(5)))


def test_howe_data_validation():
    ctx = FieldCtx(11)
    C, split = _sextic_split(ctx, (0, 1, 2), (3, 4, 5))
    with pytest.raises(ValueError, match="partition"):
        HoweData(C, ((ctx.zero, ctx.one, ctx.elem(2)), (ctx.zero, ctx.elem(4), ctx.elem(5))), INF)
    with pytest.raises(ValueError, match="collides"):
        HoweData(C, split, ctx.elem(3))
    H = HoweData(C, split, ctx.elem(7))
    q1, q2 = quartics(H)
    assert q1.roots == split[0] and q2.roots == split[1]
    assert q1.b == ctx.elem(7)


def test_superspeciality_pinned_cube_root_curves():
    ctx11, H11 = _cube_root_data(11)
    assert is_superspecial_howe(H11)
    ctx13, H13 = _cube_root_data(13)
    assert not is_superspecial_howe(H13)


def test_superspeciality_with_finite_b_matches_direct_checks():
    ctx = FieldCtx(11)
    rng = random.Random(31)
    _, H0 = _cube_root_data(11)
    C = H0.curve
    for b0 in list(range(11)) + [None]:
        b = INF if b0 is None else ctx.elem(b0)
        if b is not INF and b in C.roots:
            continue
        H = HoweData(C, H0.split, b)
        q1, q2 = quartics(H)
        direct = (
            quartic_is_supersingular(q1)
            and quartic_is_supersingular(q2)
            and is_superspecial(C)
        )
        assert is_superspecial_howe(H) == direct


def _oracle_howe_isomorphic(H1, H2):
    """The explicit search: 12 candidate maps, each checked on b and the split."""
    ctx = H1.curve.ctx
    sets2 = (set(H2.split[0]), set(H2.split[1]))
    for part in (0, 1):
        for dst in itertools.permutations(H2.split[part]):
            m = mobius_from_triples(ctx, H1.split[0], dst)
            if m(H1.b) == H2.b and {m(rt) for rt in H1.split[1]} == sets2[1 - part]:
                return m
    return None


def _assert_howe_isomorphic_matches_oracle(H1, H2):
    m = howe_isomorphic(H1, H2)
    want = _oracle_howe_isomorphic(H1, H2) is not None
    assert (m is not None) == want
    assert (_key(H1) == _key(H2)) == want
    if m is not None:
        assert m(H1.b) == H2.b
        img = normalize_split([m(rt) for rt in H1.split[0]], [m(rt) for rt in H1.split[1]])
        assert img == H2.split
    return m


def test_howe_isomorphic_is_reflexive_and_symmetric():
    ctx, H = _cube_root_data(11)
    assert howe_isomorphic(H, H) is not None
    rng = random.Random(32)
    for _ in range(10):
        while True:
            a, b, c, d = (ctx.elem(rng.randrange(11), rng.randrange(11)) for _ in range(4))
            if ctx.sub(ctx.mul(a, d), ctx.mul(b, c)) != ctx.zero:
                break
        m = MobiusMap(ctx, a, b, c, d)
        img_roots = [m(rt) for rt in H.curve.roots]
        img_b = m(H.b)
        if any(q is INF for q in img_roots) or img_b in img_roots:
            continue
        C2 = Genus2Curve(ctx, tuple(img_roots))
        split2 = normalize_split(
            tuple(m(rt) for rt in H.split[0]), tuple(m(rt) for rt in H.split[1])
        )
        H2 = HoweData(C2, split2, img_b)
        assert _key(H2) == _key(H)
        fwd = _assert_howe_isomorphic_matches_oracle(H, H2)
        bwd = _assert_howe_isomorphic_matches_oracle(H2, H)
        assert fwd is not None and bwd is not None
        assert is_superspecial_howe(H2) == is_superspecial_howe(H)


def test_howe_isomorphic_matches_automorphism_orbit_of_b():
    # same curve, same split: data are isomorphic iff an automorphism
    # preserving the split moves one b to the other
    ctx, H0 = _cube_root_data(11)
    C = H0.curve
    split_sets = (set(H0.split[0]), set(H0.split[1]))
    fixers = []
    for m in automorphisms(C):
        img0 = {m(rt) for rt in H0.split[0]}
        if img0 == split_sets[0] or img0 == split_sets[1]:
            fixers.append(m)
    assert fixers

    candidates = [INF] + [ctx.elem(v) for v in range(11)]
    candidates = [b for b in candidates if b is INF or b not in C.roots]
    for b1 in candidates:
        orbit = set()
        for m in fixers:
            q = m(b1)
            orbit.add("INF" if q is INF else q)
        H1 = HoweData(C, H0.split, b1)
        for b2 in candidates:
            H2 = HoweData(C, H0.split, b2)
            got = howe_isomorphic(H1, H2) is not None
            want = ("INF" if b2 is INF else b2) in orbit
            assert got == want, (b1, b2)


@pytest.mark.parametrize("p", [13, 17])
def test_howe_isomorphic_agrees_with_the_explicit_search(p, genus2_lists):
    # each raw fit on a curve against every (split, b) on that curve with b
    # one of the fits' branch points: all pairs of fits, and pairs whose b
    # match while the splits need not
    ctx = FieldCtx(p)
    lset = supersingular_lambda_set(ctx)
    hits = 0
    for C in genus2_lists(p).curves:
        tens = _curve_splits(C)
        fits = [HoweData(C, normalize_split(*split), b)
                for split, bs in zip(tens, supersingular_b_values(ctx, lset, tens)) for b in bs]
        splits = [(T1, tuple(rt for rt in C.roots if rt not in T1))
                  for T1 in itertools.combinations(C.roots, 3)]
        others = dict.fromkeys(HoweData(C, split, H.b) for H in fits for split in splits)
        for H1, H2 in itertools.product(fits, others):
            m = _assert_howe_isomorphic_matches_oracle(H1, H2)
            hits += m is not None and H1 != H2
    assert hits > 0


@st.composite
def _howe_data_and_mobius(draw):
    """Howe data with b finite or INF, and a Mobius map keeping its roots finite.

    Four primes, so the small fields make collisions likely and p = 409
    exercises generic data.
    """
    ctx = FieldCtx(draw(st.sampled_from([7, 11, 13, 409])))
    elem = st.builds(ctx.elem, st.integers(0, ctx.p - 1), st.integers(0, ctx.p - 1))
    pts = draw(st.lists(elem, min_size=7, max_size=7, unique=True))
    branch = draw(st.sampled_from([INF, pts[6]]))
    H = HoweData(Genus2Curve(ctx, tuple(pts[:6])), (tuple(pts[:3]), tuple(pts[3:6])), branch)
    a, b, c, d = (draw(elem) for _ in range(4))
    assume(ctx.sub(ctx.mul(a, d), ctx.mul(b, c)) != ctx.zero)
    g = MobiusMap(ctx, a, b, c, d)
    assume(all(g(rt) is not INF for rt in H.curve.roots))
    return H, g


@settings(max_examples=150, deadline=None)
@given(_howe_data_and_mobius())
def test_howe_key_is_mobius_invariant(case):
    H, g = case
    image = HoweData(Genus2Curve(H.curve.ctx, tuple(g(rt) for rt in H.curve.roots)),
                     tuple(tuple(g(rt) for rt in part) for part in H.split), g(H.b))
    assert _key(image) == _key(H)
    # one batch against the oracle, the split given in either order
    batch = [(H.split, H.b), (image.split[::-1], image.b), (image.split, image.b)]
    got = howe_key(H.curve.ctx, batch)
    assert got == [howe_key_scalar(H)] * 3 == [howe_key_scalar(image)] * 3


@pytest.mark.parametrize("p", [q for q in range(7, 62) if is_prime(q)])
def test_batched_howe_key_matches_the_scalar_oracle_on_every_fit(p, genus2_lists):
    # every raw fit of every class in one batch, which spans several blocks
    # of ROW_BLOCK fits from p = 47 on
    ctx = FieldCtx(p)
    lset = supersingular_lambda_set(ctx)
    data = []
    for C in genus2_lists(p).curves:
        splits = _curve_splits(C)
        data += [HoweData(C, split, b)
                 for split, bs in zip(splits, supersingular_b_values(ctx, lset, splits)) for b in bs]
    assert howe_key(ctx, [(H.split, H.b) for H in data]) == [howe_key_scalar(H) for H in data]
    assert howe_key(ctx, []) == []


def test_quartic_lambdas_match_the_cross_ratio_oracle(genus2_lists):
    # both quartics of every representative for p <= 61, and of data with
    # b = INF, against lambda_of_quartic one quartic at a time
    for p in (q for q in range(11, 62) if is_prime(q)):
        ctx = FieldCtx(p)
        reps = enumerate_b(ctx, genus2=genus2_lists(p)).representatives
        reps += [HoweData(H.curve, H.split, INF) for H in reps[:5]]
        assert any(H.b is INF for H in reps)
        want = [tuple(lambda_of_quartic(Q) for Q in quartics(H)) for H in reps]
        assert quartic_lambdas(ctx, reps) == want, p
    assert quartic_lambdas(FieldCtx(11), []) == []


def test_special_family_membership_and_errors():
    ctx11 = FieldCtx(11)
    assert is_superspecial_howe(special_family(ctx11, ctx11.elem(-1)))
    ctx17 = FieldCtx(17)
    quarter = ctx17.inv(ctx17.elem(4))
    assert quarter == ctx17.elem(13)
    assert is_superspecial_howe(special_family(ctx17, quarter))
    with pytest.raises(ValueError):
        special_family(FieldCtx(13), FieldCtx(13).elem(-1))
    with pytest.raises(ValueError):
        special_family(ctx11, ctx11.elem(2))


def test_special_family_matches_the_root_found_cubics():
    # the closed-form roots against the root finder on x^3 + 1 and x^3 + a
    for p in (q for q in range(5, 1000, 6) if is_prime(q)):
        ctx = FieldCtx(p)
        f1 = UniPoly.from_int_coeffs(ctx, [1, 0, 0, 1])
        for a in (ctx.elem(-1), ctx.inv(ctx.elem(4))):
            f2 = UniPoly.from_coeffs(ctx, [a, ctx.zero, ctx.zero, ctx.one])
            assert special_family(ctx, a) == howe_from_cubics(ctx, f1, f2), (p, a)


def test_superspeciality_matches_the_scalar_oracle():
    # every existence witness for 7 < p < 200, and controls with b moved and
    # with one root moved, against two scalar Hasse tests and is_superspecial;
    # where there is one, a moved b keeps one quartic supersingular and not
    # the other, for each of the two
    failed = halves = 0
    for p in (q for q in range(8, 200) if is_prime(q)):
        ctx = FieldCtx(p)
        lset = supersingular_lambda_set(ctx)
        H = find_one(ctx)
        assert is_superspecial_howe(H) and is_superspecial_howe_scalar(H), p
        free = [x for x in ctx.elements() if x not in H.curve.roots and x != H.b][:3]
        w1, w2 = H.split
        for part, other in ((w1, w2), (w2, w1)):
            back = cross_ratio_map(ctx, *part).inverse()
            half = [b for b in map(back, lambda_values(ctx, lset)) if b not in H.curve.roots
                    and not in_lambda_set(ctx, lset, lambda_of_quartic(QuarticModel(ctx, b, other)))]
            free += half[:1]
            halves += bool(half)
        controls = [HoweData(H.curve, H.split, b) for b in free]
        moved = (free[0],) + w1[1:]
        controls.append(HoweData(Genus2Curve(ctx, moved + w2), (moved, w2), H.b))
        for K in controls:
            want = is_superspecial_howe_scalar(K)
            assert is_superspecial_howe(K) == want, (p, K)
            failed += not want
    assert failed > 0 and halves > 40
