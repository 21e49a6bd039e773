"""Genus-2 layer: Cartier-Manin entries, invariants, Richelot moves, gluing.

The Cartier-Manin oracle recomputes f^((p-1)/2) by naive repeated
multiplication with no degree cap and reads the same four coefficients;
the Mobius matcher, read through isomorphic and automorphisms of
tests/oracles.py, is checked against the explicit 120-map search it
replaced; the closure construction is
checked against the count window and against its own seeds, and the Mobius
search is the oracle for its key-only class identity.  The batched Igusa
key is checked against the scalar igusa_clebsch oracle of tests/oracles.py,
and cartier_manin_rows, on one sextuple (its loop on Python ints) and on a
batch (its loop on arrays), against the truncated power cartier_manin of
tests/oracles.py, against each other up to the largest prime, and there
against the recurrence in big integers.  The batched Richelot step is
checked against the scalar one of tests/oracles.py, on every class, on
Mobius-moved models of the classes and on drawn sextics that are not
superspecial, where both must raise alike.
"""

import collections
import functools
import itertools
import random
import tracemalloc

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from howecurves import (
    INF,
    FieldCtx,
    Genus2Curve,
    MobiusMap,
    RationalityError,
    SuperspecialList,
    UniPoly,
    find_one,
    glue_elliptic_pair,
    igusa_key,
    iko_window,
    is_prime,
    load_list,
    poly_roots_in_fq,
    richelot_codomains,
    save_list,
    superspecial_genus2_list,
)
from howecurves import genus2
from howecurves.arith import ROW_BLOCK
from howecurves.ellcurve import enumerate_supersingular_classes
from oracles import (
    automorphisms,
    cartier_manin,
    glue_by_mobius,
    igusa_clebsch,
    igusa_key_scalar,
    is_superspecial,
    isomorphic,
    mobius_from_triples,
    quadratic_splittings,
    richelot_codomains_scalar,
    rosenhain_closure,
    splitting_delta,
)


def _curve(ctx, ints):
    return Genus2Curve(ctx, tuple(ctx.elem(v) for v in ints))


def _naive_entries(ctx, roots):
    """Independent recomputation: full expansion of f^((p-1)/2)."""
    p = ctx.p
    f = UniPoly.from_roots(ctx, list(roots))
    g = UniPoly.from_coeffs(ctx, [ctx.one])
    for _ in range((p - 1) // 2):
        g = g * f
    return (g.coeff(p - 1), g.coeff(2 * p - 1), g.coeff(p - 2), g.coeff(2 * p - 2))


def _key(ctx, roots):
    return igusa_key(ctx, [roots])[0]


def _random_sextic_roots(ctx, rng):
    roots = set()
    while len(roots) < 6:
        roots.add(ctx.elem(rng.randrange(ctx.p), rng.randrange(ctx.p)))
    return tuple(sorted(roots))


def test_cartier_manin_pinned_product_of_cubics():
    # (x^3 + 1)(x^3 + 2) over F_5: entries of its square at
    # x^4, x^9, x^3, x^8 are 0, 1, 2, 0.
    ctx = FieldCtx(5)
    f1 = UniPoly.from_int_coeffs(ctx, [1, 0, 0, 1])
    f2 = UniPoly.from_int_coeffs(ctx, [2, 0, 0, 1])
    roots = [r for f in (f1, f2) for r in poly_roots_in_fq(f)]
    C = Genus2Curve(ctx, tuple(roots))
    got = cartier_manin(C)
    assert got == (ctx.zero, ctx.one, ctx.elem(2), ctx.zero)
    assert not is_superspecial(C)
    assert _rows(ctx, [C.roots]) == [got]


def test_cartier_manin_x6_minus_1():
    ctx = FieldCtx(11)
    roots = poly_roots_in_fq(UniPoly.from_int_coeffs(ctx, [-1, 0, 0, 0, 0, 0, 1]))
    C = Genus2Curve(ctx, tuple(roots))
    z = ctx.zero
    assert cartier_manin(C) == (z, z, z, z)
    assert is_superspecial(C)
    assert _rows(ctx, [C.roots]) == [(z, z, z, z)]


def test_cartier_manin_matches_naive_expansion():
    rng = random.Random(21)
    for p in (5, 7, 11):
        ctx = FieldCtx(p)
        for _ in range(7):
            roots = _random_sextic_roots(ctx, rng)
            C = Genus2Curve(ctx, roots)
            assert cartier_manin(C) == _naive_entries(ctx, roots)


def test_superspeciality_is_isomorphism_invariant():
    ctx = FieldCtx(11)
    roots = poly_roots_in_fq(UniPoly.from_int_coeffs(ctx, [-1, 0, 0, 0, 0, 0, 1]))
    C = Genus2Curve(ctx, tuple(roots))
    for c in (1, 2, 7):
        shifted = tuple(ctx.add(rt, ctx.elem(c)) for rt in roots)
        assert is_superspecial(Genus2Curve(ctx, shifted))
        assert isomorphic(C, Genus2Curve(ctx, shifted)) is not None


_PRIMES_TO_MAX = [q for q in range(7, 30000) if is_prime(q)]


@functools.lru_cache(maxsize=None)
def _field(p):
    return FieldCtx(p)


def _rows(ctx, batch):
    return [tuple(map(tuple, row)) for row in genus2.cartier_manin_rows(ctx, batch).tolist()]


def _lone_rows(ctx, batch):
    """The rows of each sextuple alone: cartier_manin_rows's loop on Python ints."""
    return [_rows(ctx, [roots])[0] for roots in batch]


def _scalar_rows(ctx, batch):
    return [tuple(cartier_manin(Genus2Curve(ctx, roots))) for roots in batch]


def _translate(ctx, roots, c):
    return tuple(ctx.sub(x, c) for x in roots)


@pytest.mark.parametrize("p", [q for q in range(7, 62) if is_prime(q)])
def test_batched_entries_match_cartier_manin_at_every_class(p, genus2_lists):
    # every class, each class moved to put a root at 0, and perturbed controls:
    # one root of a class moved, then half of them moved to put a root at 0
    ctx = FieldCtx(p)
    rng = random.Random(p)
    classes = [C.roots for C in genus2_lists(p).curves]
    at_zero = [_translate(ctx, roots, roots[rng.randrange(6)]) for roots in classes]
    controls = []
    for k in range(10):
        moved = list(classes[k % len(classes)])
        while len(set(moved)) < 6 or moved == list(classes[k % len(classes)]):
            moved[rng.randrange(6)] = _random_sextic_roots(ctx, rng)[0]
        controls.append(_translate(ctx, moved, moved[0]) if k % 2 else tuple(moved))
    batch = classes + at_zero + controls
    rows = _rows(ctx, batch)
    assert rows == _scalar_rows(ctx, batch)
    assert _lone_rows(ctx, batch) == rows
    zero = (ctx.zero,) * 4
    assert rows[:2 * len(classes)] == [zero] * (2 * len(classes))
    assert any(row != zero for row in rows[2 * len(classes):])


def test_batched_entries_of_an_empty_batch():
    assert genus2.cartier_manin_rows(FieldCtx(13), []).shape == (0, 4, 2)


@st.composite
def _cartier_manin_batches(draw):
    """A prime up to 4003 and one to four sextics, some with a root at 0."""
    ctx = _field(draw(st.sampled_from([5, 7, 11, 13, 61, 409, 4003])))
    elem = st.tuples(st.integers(0, ctx.p - 1), st.integers(0, ctx.p - 1))
    sextic = st.lists(elem, min_size=6, max_size=6, unique=True)
    batch = draw(st.lists(sextic, min_size=1, max_size=4))
    return ctx, [_translate(ctx, roots, roots[0]) if draw(st.booleans()) else tuple(roots)
                 for roots in batch]


_TOP = (29988, 29988)


# the largest prime costs the scalar oracle about 8 s a sextic, so it is one
# explicit example, with every coordinate at its largest
@settings(max_examples=40, deadline=None)
@given(_cartier_manin_batches())
@example((FieldCtx(29989), [((0, 0), _TOP, (29988, 0), (0, 29988), (1, 29988), (29988, 1))]))
def test_batched_entries_match_cartier_manin_on_drawn_sextics(case):
    ctx, batch = case
    assert _rows(ctx, batch) == _scalar_rows(ctx, batch)


def _bigint_entries(p, r, roots):
    """The four entries by the recurrence in unbounded integers, each g_k reduced once."""
    m = (p - 1) // 2

    def mul(x, y):
        return (x[0] * y[0] + r * x[1] * y[1], x[0] * y[1] + x[1] * y[0])

    def power(x, e):
        acc = (1, 0)
        for bit in bin(e)[2:]:
            acc = tuple(c % p for c in mul(acc, acc))
            if bit == "1":
                acc = tuple(c % p for c in mul(acc, x))
        return acc

    f = [(1, 0)]
    for a in roots:
        f = [tuple((lo - hi) % p for lo, hi in zip(low, mul(a, high)))
             for low, high in zip([(0, 0)] + f, f + [(0, 0)])]

    def coeffs(f, top):
        # k f_0 g_k = sum_i (m i - k + i) f_i g_(k-i), g_0 = f_0^m
        g = [power(f[0], m)]
        inv = power(f[0], p * p - 2)
        for k in range(1, top + 1):
            s0 = s1 = 0
            for i in range(1, min(k, len(f) - 1) + 1):
                t = mul(f[i], g[k - i])
                s0 += (m * i - k + i) * t[0]
                s1 += (m * i - k + i) * t[1]
            g.append(tuple(c * pow(k, p - 2, p) % p for c in mul((s0, s1), inv)))
        return g

    if f[0] == (0, 0):
        fwd = coeffs(f[1:], m)
        a, c = fwd[m], fwd[m - 1]
    else:
        fwd = coeffs(f, p - 1)
        a, c = fwd[p - 1], fwd[p - 2]
    rev = coeffs(f[::-1], p - 1)
    return (a, rev[p - 2], c, rev[p - 1])


@st.composite
def _sextic_and_control(draw):
    """A prime up to 29989, a sextic and the sextic with one root moved.

    Half the time both are translated to put the sextic's first root at 0.
    """
    ctx = _field(draw(st.sampled_from(_PRIMES_TO_MAX)))
    elem = st.tuples(st.integers(0, ctx.p - 1), st.integers(0, ctx.p - 1))
    roots = draw(st.lists(elem, min_size=7, max_size=7, unique=True))
    moved = draw(st.integers(0, 5))
    pair = [roots[:6], roots[:moved] + roots[6:] + roots[moved + 1:6]]
    if draw(st.booleans()):
        pair = [_translate(ctx, sextic, roots[0]) for sextic in pair]
    return ctx, [tuple(sextic) for sextic in pair]


_SMALL = ((1, 1), (2, 3), (5, 7), (11, 13), (17, 19), (23, 29))


@settings(max_examples=12, deadline=None)
@given(_sextic_and_control())
@example((_field(409), [((0, 0),) + _SMALL[1:], ((0, 0),) + _SMALL[1:5] + ((31, 37),)]))
@example((_field(997), [_SMALL, ((31, 37),) + _SMALL[1:]]))
def test_lone_sextic_matches_its_row_in_a_batch(case):
    # the loop on Python ints against the loop on arrays, and for p <= 1000
    # against the truncated power too
    ctx, batch = case
    rows = _rows(ctx, batch)
    assert _lone_rows(ctx, batch) == rows
    if ctx.p <= 1000:
        assert rows == _scalar_rows(ctx, batch)


@pytest.mark.parametrize("p", [10009, 19993, 29989])
def test_lone_witness_matches_its_row_in_a_batch(p):
    # find_one's witness, which is superspecial, and the witness with one
    # root moved, which is not
    ctx = _field(p)
    roots = find_one(ctx).curve.roots
    moved = (ctx.add(roots[0], ctx.one),) + roots[1:]
    rows = _rows(ctx, [roots, moved])
    assert _lone_rows(ctx, [roots, moved]) == rows
    assert rows[0] == (ctx.zero,) * 4 and rows[1] != rows[0]


def test_batched_entries_at_the_largest_prime_against_big_integers():
    p = 29989
    ctx = FieldCtx(p)
    rng = random.Random(p)
    batch = [
        ((0, 0), _TOP, (29988, 0), (0, 29988), (1, 29988), (29988, 1)),
        (_TOP, (29987, 29988), (29988, 29987), (29986, 29988), (29988, 29986), (29987, 29987)),
        _random_sextic_roots(ctx, rng),
    ]
    assert _rows(ctx, batch) == [_bigint_entries(p, ctx.r, roots) for roots in batch]


def test_genus2_constructor_validation():
    ctx = FieldCtx(11)
    with pytest.raises(ValueError):
        Genus2Curve(ctx, tuple(ctx.elem(v) for v in (0, 1, 2, 3, 4, 4)))
    with pytest.raises(ValueError):
        Genus2Curve(ctx, tuple(ctx.elem(v) for v in (0, 1, 2, 3, 4)))
    C = _curve(ctx, (5, 1, 0, 3, 2, 4))
    assert list(C.roots) == sorted(C.roots)


def test_isomorphic_and_igusa_keys_agree():
    ctx = FieldCtx(11)
    rng = random.Random(22)
    C = _curve(ctx, (0, 1, 2, 3, 4, 5))
    D = _curve(ctx, (0, 1, 2, 3, 4, 6))
    assert isomorphic(C, C) is not None
    assert _key(ctx, C.roots) != _key(ctx, D.roots) or isomorphic(C, D) is not None

    for _ in range(12):
        while True:
            a, b, c, d = (ctx.elem(rng.randrange(11), rng.randrange(11)) for _ in range(4))
            if ctx.sub(ctx.mul(a, d), ctx.mul(b, c)) != ctx.zero:
                break
        m = MobiusMap(ctx, a, b, c, d)
        img = [m(rt) for rt in C.roots]
        if any(q is INF for q in img):
            continue
        C2 = Genus2Curve(ctx, tuple(img))
        assert _key(ctx, C2.roots) == _key(ctx, C.roots)
        mm = isomorphic(C, C2)
        assert mm is not None
        assert {mm(rt) for rt in C.roots} == set(C2.roots)


def test_distinct_keys_mean_no_isomorphism():
    ctx = FieldCtx(13)
    rng = random.Random(23)
    curves = [Genus2Curve(ctx, _random_sextic_roots(ctx, rng)) for _ in range(8)]
    keys = igusa_key(ctx, [C.roots for C in curves])
    for i in range(len(curves)):
        for j in range(i + 1, len(curves)):
            same_key = keys[i] == keys[j]
            assert same_key == (isomorphic(curves[i], curves[j]) is not None)


def test_automorphisms_generic_and_symmetric_cases():
    ctx = FieldCtx(11)
    gens = automorphisms(_curve(ctx, (0, 1, 3, 4, 5, 9)))
    assert len(gens) >= 1  # identity at minimum

    roots = poly_roots_in_fq(UniPoly.from_int_coeffs(ctx, [-1, 0, 0, 0, 0, 0, 1]))
    C = Genus2Curve(ctx, tuple(roots))
    auts = automorphisms(C)
    keys = {m.key() for m in auts}
    assert MobiusMap(ctx, ctx.elem(-1), ctx.zero, ctx.zero, ctx.one).key() in keys
    assert MobiusMap(ctx, ctx.zero, ctx.one, ctx.one, ctx.zero).key() in keys
    assert len(auts) >= 4
    # closure under composition and inverse
    for m1 in auts:
        assert m1.inverse().key() in keys
        for m2 in auts:
            assert m1.compose(m2).key() in keys


def _oracle_matches(C, D):
    """The explicit search: build each of the 120 maps and apply it to C's tail."""
    ctx = C.ctx
    out = []
    dset = set(D.roots)
    for dst in itertools.permutations(D.roots, 3):
        m = mobius_from_triples(ctx, C.roots[:3], dst)
        if all(m(rt) is not INF and m(rt) in dset for rt in C.roots[3:]):
            out.append(m)
    return out


def _assert_isomorphic_matches_oracle(C, D):
    got = isomorphic(C, D)
    want = _oracle_matches(C, D)
    if not want:
        assert got is None
    else:
        assert got is not None and got.key() == want[0].key()


@pytest.mark.parametrize("p", [11, 13, 29, 53])
def test_matcher_agrees_with_the_explicit_search(p, genus2_lists):
    L = genus2_lists(p)
    for C, neighbours in zip(L.curves, richelot_codomains(L.ctx, [C.roots for C in L.curves])):
        assert [m.key() for m in automorphisms(C)] == sorted(
            m.key() for m in _oracle_matches(C, C))
        for roots, key in zip(neighbours, igusa_key(C.ctx, neighbours)):
            D = Genus2Curve(C.ctx, roots)
            _assert_isomorphic_matches_oracle(C, D)
            _assert_isomorphic_matches_oracle(L.curves[L.keys.index(key)], D)
    rng = random.Random(p)
    pairs = list(itertools.combinations(L.curves, 2))
    for C, D in rng.sample(pairs, min(len(pairs), 300)):
        _assert_isomorphic_matches_oracle(C, D)


_SMALL_FIELDS = st.sampled_from([FieldCtx(p) for p in (7, 11, 13)])


@st.composite
def _sextic_and_mobius(draw):
    """A curve with six distinct roots and a Mobius map keeping them finite."""
    ctx = draw(_SMALL_FIELDS)
    elem = st.builds(ctx.elem, st.integers(0, ctx.p - 1), st.integers(0, ctx.p - 1))
    roots = draw(st.lists(elem, min_size=6, max_size=6, unique=True))
    a, b, c, d = (draw(elem) for _ in range(4))
    assume(ctx.sub(ctx.mul(a, d), ctx.mul(b, c)) != ctx.zero)
    g = MobiusMap(ctx, a, b, c, d)
    assume(all(g(rt) is not INF for rt in roots))
    return Genus2Curve(ctx, tuple(roots)), g


@settings(max_examples=150, deadline=None)
@given(_sextic_and_mobius())
def test_isomorphic_finds_a_map_onto_a_mobius_image(case):
    C, g = case
    D = Genus2Curve(C.ctx, tuple(g(rt) for rt in C.roots))
    m = isomorphic(C, D)
    assert m is not None
    assert sorted(m(rt) for rt in C.roots) == list(D.roots)


@settings(max_examples=150, deadline=None)
@given(_sextic_and_mobius(), st.randoms(use_true_random=False))
def test_isomorphic_agrees_with_the_explicit_search_on_random_pairs(case, rng):
    C, _ = case
    D = Genus2Curve(C.ctx, _random_sextic_roots(C.ctx, rng))
    _assert_isomorphic_matches_oracle(C, D)


def test_quadratic_splittings_shape():
    ctx = FieldCtx(11)
    C = _curve(ctx, (0, 1, 2, 3, 4, 5))
    splits = quadratic_splittings(C)
    assert len(splits) == 15
    seen = set()
    for sp in splits:
        flat = sorted(rt for pair in sp for rt in pair)
        assert flat == list(C.roots)
        norm = tuple(sorted(tuple(sorted(pair)) for pair in sp))
        seen.add(norm)
    assert len(seen) == 15


def test_splitting_delta_detects_degenerate_splittings():
    # {0, c} {1, c+1} {2, c+2} is three translates of one quadratic pattern;
    # its coefficient matrix has two equal columns minus a shift only when
    # the pairs are genuinely dependent, so just pin one zero case:
    # pairs sharing the same sum make the middle column constant.
    ctx = FieldCtx(11)
    sp = ((ctx.elem(0), ctx.elem(5)), (ctx.elem(1), ctx.elem(4)), (ctx.elem(2), ctx.elem(3)))
    assert splitting_delta(ctx, sp) == ctx.zero
    sp2 = ((ctx.elem(0), ctx.elem(1)), (ctx.elem(2), ctx.elem(4)), (ctx.elem(3), ctx.elem(8)))
    assert splitting_delta(ctx, sp2) != ctx.zero


def test_richelot_codomains_over_small_lists(genus2_lists):
    for p in (11, 13):
        L = genus2_lists(p)
        ctx = L.ctx
        for C, neigh in zip(L.curves, richelot_codomains(ctx, [C.roots for C in L.curves])):
            assert 0 < len(neigh) <= 15
            # the splitting behind each neighbour, from the scalar oracle
            splittings = [sp for sp, _ in richelot_codomains_scalar(C)]
            assert len(splittings) == len(neigh)
            back = richelot_codomains(ctx, neigh)
            for sp, roots, pairs in zip(splittings, neigh, back):
                assert splitting_delta(ctx, sp) != ctx.zero
                assert len(set(roots)) == 6 and list(roots) == sorted(roots)
                assert is_superspecial(Genus2Curve(ctx, roots))
                # duality: some neighbour of the neighbour is isomorphic to C
                assert any(isomorphic(Genus2Curve(ctx, E), C) is not None for E in pairs)


def _scalar_neighbours(C):
    """The root sextuples of richelot_codomains_scalar's neighbours of C."""
    return [D.roots for _, D in richelot_codomains_scalar(C)]


def _scalar_or_error(C):
    try:
        return _scalar_neighbours(C)
    except RationalityError as exc:
        return str(exc)


def _batched_or_error(ctx, batch):
    try:
        return richelot_codomains(ctx, batch)
    except RationalityError as exc:
        return str(exc)


@pytest.mark.parametrize("p", [q for q in range(11, 62) if is_prime(q)])
def test_batched_richelot_matches_the_scalar_oracle_at_every_class(p, genus2_lists):
    # every class in one batch, and the classes one at a time; the INF
    # renormalization is reached at 23, 31, 47, 53, 59 and 61
    L = genus2_lists(p)
    want = [_scalar_neighbours(C) for C in L.curves]
    batch = [C.roots for C in L.curves]
    assert richelot_codomains(L.ctx, batch) == want
    assert [richelot_codomains(L.ctx, [roots])[0] for roots in batch] == want


@pytest.mark.parametrize("p", [101, 199])
def test_batched_richelot_matches_the_scalar_oracle_on_a_sample(p, genus2_lists):
    L = genus2_lists(p)
    sample = random.Random(p).sample(L.curves, 60)
    assert richelot_codomains(L.ctx, [C.roots for C in sample]) == [
        _scalar_neighbours(C) for C in sample]


@st.composite
def _moved_classes(draw):
    """A superspecial class at p <= 31 moved by a Mobius map keeping its roots finite.

    Every Richelot step of such a model is rational; two of its root pairs
    often share a sum, which puts a neighbour's point at INF.
    """
    p = draw(st.sampled_from([q for q in range(11, 32) if is_prime(q)]))
    ctx = _field(p)
    C = draw(st.sampled_from(_small_classes(p)))
    elem = st.builds(ctx.elem, st.integers(0, p - 1), st.integers(0, p - 1))
    a, b, c, d = (draw(elem) for _ in range(4))
    assume(ctx.sub(ctx.mul(a, d), ctx.mul(b, c)) != ctx.zero)
    g = MobiusMap(ctx, a, b, c, d)
    assume(all(g(rt) is not INF for rt in C.roots))
    return Genus2Curve(ctx, tuple(g(rt) for rt in C.roots))


@functools.lru_cache(maxsize=None)
def _small_classes(p):
    return superspecial_genus2_list(_field(p)).curves


@settings(max_examples=150, deadline=None)
@given(st.lists(_moved_classes(), min_size=1, max_size=3))
def test_batched_richelot_matches_the_scalar_oracle_on_moved_classes(curves):
    ctx = curves[0].ctx
    curves = [C for C in curves if C.ctx == ctx]
    assert richelot_codomains(ctx, [C.roots for C in curves]) == [
        _scalar_neighbours(C) for C in curves]


@st.composite
def _drawn_sextics(draw):
    """Sextics over a prime up to 409, some with two root pairs of equal sum.

    Such a pair makes one h_i linear, so its roots are -c0/c1 and INF; most
    drawn sextics are not superspecial, and the first failing splitting
    raises.
    """
    ctx = _field(draw(st.sampled_from([7, 11, 13, 101, 409])))
    elem = st.tuples(st.integers(0, ctx.p - 1), st.integers(0, ctx.p - 1))
    roots = draw(st.lists(elem, min_size=6, max_size=6, unique=True))
    if draw(st.booleans()):
        # roots[3] = roots[0] + roots[1] - roots[2]
        roots[3] = ctx.sub(ctx.add(roots[0], roots[1]), roots[2])
        assume(len(set(roots)) == 6)
    return Genus2Curve(ctx, tuple(roots))


@settings(max_examples=200, deadline=None)
@given(st.lists(_drawn_sextics(), min_size=1, max_size=3))
def test_batched_richelot_raises_where_the_scalar_oracle_raises(curves):
    # one batch raises with the message of the first curve the oracle
    # rejects, and otherwise returns the oracle's neighbours
    ctx = curves[0].ctx
    curves = [C for C in curves if C.ctx == ctx]
    want = [_scalar_or_error(C) for C in curves]
    first_error = next((w for w in want if isinstance(w, str)), None)
    assert _batched_or_error(ctx, [C.roots for C in curves]) == (
        want if first_error is None else first_error)
    for C, w in zip(curves, want):
        assert _batched_or_error(ctx, [C.roots]) == (w if isinstance(w, str) else [w])


_RootTuple = collections.namedtuple("_RootTuple", "ctx roots")


@pytest.mark.parametrize("p", [7, 11])
def test_batched_richelot_raises_alike_on_repeated_roots(p):
    # six roots drawn with repeats from five points: a shared root of two
    # quadratics reaches the singular-model error, which sextics with
    # distinct roots never do; both forms must agree on every tuple
    ctx = FieldCtx(p)
    rng = random.Random(p)
    pool = [ctx.elem(rng.randrange(p), rng.randrange(p)) for _ in range(5)]
    outcomes = set()
    for _ in range(600):
        C = _RootTuple(ctx, tuple(sorted(rng.choice(pool) for _ in range(6))))
        want = _scalar_or_error(C)
        assert _batched_or_error(ctx, [C.roots]) == (want if isinstance(want, str) else [want])
        outcomes.add(want if isinstance(want, str) else "ok")
    assert outcomes == {"ok", "correspondence produced a singular model",
                        "rationality invariant violated: non-square discriminant"}


def test_closure_expands_blocks_of_classes_in_order(monkeypatch):
    # blocks of ROW_BLOCK // 15 = 8 unexpanded classes, and the same classes
    # and keys, in order, as a closure expanding one class per call
    ctx = FieldCtx(53)
    sizes = []
    real = genus2.richelot_codomains

    def spy(ctx, curves):
        sizes.append(len(curves))
        return real(ctx, curves)

    # one key pass per batch: the seeds of all 15 pairs of elliptic classes,
    # then the neighbours of each block of classes
    key_calls = []
    real_key = genus2.igusa_key

    def key_spy(ctx, batch):
        key_calls.append(len(batch))
        return real_key(ctx, batch)

    monkeypatch.setattr(genus2, "richelot_codomains", spy)
    monkeypatch.setattr(genus2, "igusa_key", key_spy)
    blocked = superspecial_genus2_list(ctx)
    assert max(sizes) == ROW_BLOCK // 15 == 8 and sum(sizes) == len(blocked) == 78
    assert len(key_calls) == 1 + len(sizes) == 11
    sizes.clear()
    key_calls.clear()
    monkeypatch.setattr(genus2, "ROW_BLOCK", 15)
    single = superspecial_genus2_list(ctx)
    assert set(sizes) == {1} and len(sizes) == 78
    assert len(key_calls) == 1 + 78
    assert [C.roots for C in single] == [C.roots for C in blocked]
    assert single.keys == blocked.keys



def test_closure_builds_one_curve_per_seed_and_class(monkeypatch):
    # the Richelot neighbours travel as root sextuples: a Genus2Curve is
    # built for each glued seed and each new class, and for nothing else
    ctx = FieldCtx(53)
    built = []
    real = genus2.Genus2Curve

    def spy(ctx, roots):
        built.append(roots)
        return real(ctx, roots)

    monkeypatch.setattr(genus2, "Genus2Curve", spy)
    seeds = sum(map(len, genus2._glue_seeds(ctx, enumerate_supersingular_classes(ctx))))
    assert len(built) == seeds == 83
    built.clear()
    L = superspecial_genus2_list(ctx)
    assert len(built) == seeds + len(L) == 83 + 78
    built.clear()
    assert sum(map(len, richelot_codomains(ctx, [C.roots for C in L.curves]))) > 0
    assert built == []

def test_glue_produces_superspecial_curves_with_split_jacobian():
    ctx = FieldCtx(11)
    classes = enumerate_supersingular_classes(ctx)
    produced = 0
    for s in classes:
        for t in classes:
            for perm in itertools.permutations(t):
                C = glue_elliptic_pair(ctx, s, perm)
                if C is None:
                    continue
                produced += 1
                assert is_superspecial(C)
                assert any(
                    splitting_delta(ctx, sp) == ctx.zero for sp in quadratic_splittings(C)
                )
    assert produced > 0


def test_glue_seeds_come_one_batch_per_pair_in_order():
    # every unordered pair (i <= j) of class triples and every matching of
    # the second triple, with one batch per pair
    ctx = FieldCtx(61)
    triples = enumerate_supersingular_classes(ctx)
    want = [[C.roots for perm in itertools.permutations(range(3))
             for C in [glue_elliptic_pair(ctx, triples[i], tuple(triples[j][k] for k in perm))]
             if C is not None]
            for i, j in itertools.combinations_with_replacement(range(len(triples)), 2)]
    assert list(genus2._glue_seeds(ctx, triples)) == want


def test_glue_identity_matching_returns_none():
    ctx = FieldCtx(11)
    s = enumerate_supersingular_classes(ctx)[0]
    assert glue_elliptic_pair(ctx, s, s) is None


@pytest.mark.parametrize("p", [q for q in range(8, 62) if is_prime(q)] + [199])
def test_closed_form_glue_matches_the_mobius_map(p):
    # every matching of every ordered pair of classes: the closed-form w
    # gives the sextuple, or None, that the composed cross-ratio maps give
    ctx = FieldCtx(p)
    classes = enumerate_supersingular_classes(ctx)
    glued = 0
    for s, t in itertools.product(classes, repeat=2):
        for perm in itertools.permutations(t):
            C = glue_elliptic_pair(ctx, s, perm)
            want = glue_by_mobius(ctx, s, perm)
            assert (C if C is None else C.roots) == want, (s, perm)
            glued += C is not None
    assert glued > 0


def test_superspecial_list_small_primes(genus2_lists):
    lo, hi = iko_window(11)
    assert (lo, hi) == (2, 3)
    L11 = genus2_lists(11)
    assert lo <= len(L11.curves) <= hi
    for p in (11, 13, 17):
        L = genus2_lists(p)
        lo, hi = iko_window(p)
        assert lo <= len(L.curves) <= hi
        for C in L.curves:
            assert is_superspecial(C)
        for i in range(len(L.curves)):
            for j in range(i + 1, len(L.curves)):
                assert isomorphic(L.curves[i], L.curves[j]) is None


def _closure_candidates(L):
    """The root sextuples the closure keys: its glued seeds and each class's neighbours."""
    ctx = L.ctx
    seeds = [roots for batch in genus2._glue_seeds(ctx, enumerate_supersingular_classes(ctx))
             for roots in batch]
    return seeds + [D for neighbours in richelot_codomains(ctx, [C.roots for C in L.curves])
                    for D in neighbours]


_PRIMES_TO_61 = [q for q in range(7, 62) if is_prime(q)]


@pytest.mark.parametrize("p", _PRIMES_TO_61)
def test_key_names_an_isomorphic_class_for_every_candidate(p, genus2_lists):
    # the Mobius search is the oracle for key-only membership: every model
    # the closure tests is isomorphic to the class its key names
    L = genus2_lists(p)
    ctx = L.ctx
    index = {key: idx for idx, key in enumerate(L.keys)}
    assert len(index) == len(L)
    candidates = _closure_candidates(L)
    for roots, key in zip(candidates, igusa_key(ctx, candidates)):
        C = L.curves[index[key]]
        assert isomorphic(C, Genus2Curve(ctx, roots)) is not None


@pytest.mark.parametrize("p", _PRIMES_TO_61)
def test_array_key_matches_the_scalar_oracle_for_every_candidate(p, genus2_lists):
    L = genus2_lists(p)
    ctx = L.ctx
    batch = _closure_candidates(L)
    keys = igusa_key(ctx, batch)
    assert keys == [igusa_key_scalar(ctx, roots) for roots in batch]
    assert all(type(v) is int for key in keys for part in key[1:] for v in part)


def test_batches_longer_than_one_block_key_like_single_rows(genus2_lists, monkeypatch):
    L = genus2_lists(61)
    batch = _closure_candidates(L)[: 2 * ROW_BLOCK + 1]
    assert len(batch) == 2 * ROW_BLOCK + 1
    singles = [_key(L.ctx, roots) for roots in batch]
    sizes = []
    real = genus2._igusa_key_block
    monkeypatch.setattr(genus2, "_igusa_key_block",
                        lambda ctx, rows: sizes.append(len(rows)) or real(ctx, rows))
    assert igusa_key(L.ctx, batch) == singles
    assert sizes == [ROW_BLOCK, ROW_BLOCK, 1]


def test_cross_matchings_are_the_pair_partitions_across_each_triple_partition():
    # the 60 I6 cross terms: each entry is a pair partition whose pairs all
    # join the triple to its complement, six distinct ones per triple
    # partition, and each of the 15 pair partitions serves four triple
    # partitions (the triples that take one root from each of its pairs)
    assert genus2._CROSS.shape == (10, 6)
    for (tri, co), row in zip(genus2._TRIPLE_PARTITIONS, genus2._CROSS.tolist()):
        assert len(set(row)) == 6
        for idx in row:
            for pr in genus2._PAIR_PARTITIONS[idx]:
                assert len(set(pr) & set(tri)) == 1 and len(set(pr) & set(co)) == 1
    assert collections.Counter(genus2._CROSS.ravel().tolist()) == {k: 4 for k in range(15)}


def test_key_temporaries_stay_below_4_kb_per_row(genus2_lists):
    # the block's temporaries bound how many rows one key pass may take;
    # the 100-row gather with 60 cross products held about 10 KB per row
    L = genus2_lists(199)
    batch = [D for neighbours in richelot_codomains(
        L.ctx, [C.roots for C in L.curves[:ROW_BLOCK // 15 + 2]]) for D in neighbours][:ROW_BLOCK]
    assert len(batch) == ROW_BLOCK
    igusa_key(L.ctx, batch)  # the field's tables, built once
    tracemalloc.start()
    try:
        igusa_key(L.ctx, batch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4096 * ROW_BLOCK


@st.composite
def _sextic_batches(draw):
    """A prime up to 29989 and one to four sextics with distinct roots over it."""
    ctx = _field(draw(st.sampled_from(_PRIMES_TO_MAX)))
    elem = st.tuples(st.integers(0, ctx.p - 1), st.integers(0, ctx.p - 1))
    sextic = st.lists(elem, min_size=6, max_size=6, unique=True).map(lambda r: tuple(sorted(r)))
    return ctx, draw(st.lists(sextic, min_size=1, max_size=4))


@settings(max_examples=150, deadline=None)
@given(_sextic_batches())
def test_array_key_matches_the_scalar_oracle_on_random_sextics(case):
    ctx, batch = case
    assert igusa_key(ctx, batch) == [igusa_key_scalar(ctx, roots) for roots in batch]


def _scan_for_branch(p, branch):
    """First sextic of a seeded scan over F_{p^2} whose key takes the branch."""
    ctx = FieldCtx(p)
    rng = random.Random(p)
    for _ in range(50):
        batch = [_random_sextic_roots(ctx, rng) for _ in range(1000)]
        for key, roots in zip(igusa_key(ctx, batch), batch):
            if key[0] == branch:
                return ctx, roots
    raise AssertionError("no sextic with key branch %d at p=%d" % (branch, p))


@pytest.mark.parametrize("p, branch", [(7, 1), (13, 2), (11, 3)])
def test_array_key_matches_the_scalar_oracle_on_each_branch(p, branch):
    # branch k: the first k of I2, I4, I6 vanish (I10 never does)
    ctx, roots = _scan_for_branch(p, branch)
    invariants = igusa_clebsch(ctx, roots)
    assert [v == ctx.zero for v in invariants] == [k < branch for k in range(4)]
    generic = _random_sextic_roots(ctx, random.Random(0))
    batch = [generic, roots, generic]
    assert igusa_key(ctx, batch) == [igusa_key_scalar(ctx, r) for r in batch]
    # the key is constant on the class: x -> c x + 1 changes the invariants
    # by the weights of c
    c = ctx.elem(2, 1)
    image = tuple(sorted(ctx.add(ctx.mul(c, rt), ctx.one) for rt in roots))
    assert _key(ctx, image) == _key(ctx, roots)


def test_superspecial_list_needs_p_over_5():
    with pytest.raises(ValueError, match="p > 5"):
        SuperspecialList(FieldCtx(5))


def test_closure_stops_once_the_count_passes_the_window(monkeypatch):
    # a key that tells every model apart turns each into a "class"; the
    # closure must fail at the first one past the window (hi = 3 at p = 11)
    # instead of walking on through every model
    monkeypatch.setattr(genus2, "igusa_key", lambda ctx, batch: list(batch))
    with pytest.raises(ArithmeticError, match="count 4 at p=11 escapes"):
        superspecial_genus2_list(FieldCtx(11))


def test_seed_modes_agree():
    # the glued-seed closure and a closure from one scanned Rosenhain curve
    for p in (7, 11):
        ctx = FieldCtx(p)
        a = superspecial_genus2_list(ctx)
        b = rosenhain_closure(ctx)
        assert len(a.curves) == len(b)
        for C in a.curves:
            assert any(isomorphic(C, D) is not None for D in b)


def test_save_load_round_trip(tmp_path, genus2_lists):
    L = genus2_lists(13)
    path = str(tmp_path / "g2.cache")
    save_list(L, path)
    back = load_list(FieldCtx(13), path)
    assert len(back.curves) == len(L.curves)
    for C, D in zip(L.curves, back.curves):
        assert C.roots == D.roots


def test_interrupted_save_keeps_the_previous_cache(tmp_path, monkeypatch, genus2_lists):
    path = tmp_path / "g2.cache"
    save_list(genus2_lists(11), str(path))
    before = path.read_bytes()

    class HalfWritten:
        """A file whose write stores half its text, then fails."""

        def __init__(self, fh):
            self._fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self._fh.close()

        def write(self, text):
            self._fh.write(text[: len(text) // 2])
            self._fh.flush()
            raise OSError(28, "No space left on device")

    def failing_open(name, *args, **kwargs):
        return HalfWritten(open(name, *args, **kwargs))

    monkeypatch.setattr(genus2, "open", failing_open, raising=False)
    with pytest.raises(OSError):
        save_list(genus2_lists(13), str(path))
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert sorted(tmp_path.iterdir()) == [path]


def test_load_rejects_a_list_short_one_class(tmp_path, genus2_lists):
    # every record passes its own checks, but two classes are not the three
    # at p = 13
    path = tmp_path / "g2.cache"
    save_list(genus2_lists(13), str(path))
    path.write_text("".join(path.read_text().splitlines(keepends=True)[1:]))
    with pytest.raises(ValueError) as err:
        load_list(FieldCtx(13), str(path))
    assert str(err.value) == "cache %s holds 2 classes, outside [3, 3]" % path


def test_load_rejects_tampered_records(tmp_path, genus2_lists):
    L = genus2_lists(13)
    path = str(tmp_path / "g2.cache")
    save_list(L, path)
    lines = open(path).read().splitlines()

    # duplicate a root coordinate -> constructor complaint naming the record
    parts = lines[0].split("|")
    head = parts[0].split()
    head[2] = head[1]
    bad = " ".join(head) + " |" + parts[1]
    (tmp_path / "bad1.cache").write_text("\n".join([bad] + lines[1:]) + "\n")
    with pytest.raises(ValueError, match="record 1"):
        load_list(FieldCtx(13), str(tmp_path / "bad1.cache"))

    # wrong characteristic
    swapped = lines[0].replace("13 ", "11 ", 1)
    (tmp_path / "bad2.cache").write_text("\n".join([swapped] + lines[1:]) + "\n")
    with pytest.raises(ValueError):
        load_list(FieldCtx(13), str(tmp_path / "bad2.cache"))


def _cache_lines(tmp_path, ctx, curves):
    """The lines save_list writes for pairwise non-isomorphic curves, keys recomputed."""
    L = SuperspecialList(ctx)
    L.add([C.roots for C in curves])
    assert len(L) == len(curves)
    path = tmp_path / "lines.cache"
    save_list(L, str(path))
    return path.read_text().splitlines()


def _not_superspecial(ctx, roots, rng):
    """roots with one root moved so that the curve is not superspecial."""
    while True:
        moved = list(roots)
        moved[rng.randrange(6)] = _random_sextic_roots(ctx, rng)[0]
        if len(set(moved)) == 6 and not is_superspecial(Genus2Curve(ctx, tuple(moved))):
            return Genus2Curve(ctx, tuple(moved))


@pytest.mark.parametrize("where", [0, 1, 2], ids=["first", "middle", "last"])
@pytest.mark.parametrize("fault", ["key", "cartier-manin", "duplicate"])
def test_load_names_each_rejected_record(tmp_path, genus2_lists, fault, where):
    # one bad record among the three classes at p = 13; the load stops at it
    ctx = FieldCtx(13)
    L = genus2_lists(13)
    lines = _cache_lines(tmp_path, ctx, L.curves)
    if fault == "key":
        # a stored key that belongs to another class
        other = lines[(where + 1) % 3].split("|")[1]
        lines[where] = lines[where].split("|")[0] + "|" + other
        number, reason = where + 1, "invariant key mismatch"
    elif fault == "cartier-manin":
        # a curve that is not superspecial, stored with its own key: only the
        # Cartier-Manin test can reject it
        C = _not_superspecial(ctx, L.curves[where].roots, random.Random(where))
        assert _key(ctx, C.roots) not in L.keys
        lines[where] = _cache_lines(tmp_path, ctx, [C])[0]
        number, reason = where + 1, "curve is not superspecial"
    else:
        # a translated model of the first class, after it: the second of two
        # records of one class is rejected
        image = Genus2Curve(ctx, _translate(ctx, L.curves[0].roots, ctx.one))
        lines.insert(where + 1, _cache_lines(tmp_path, ctx, [image])[0])
        number, reason = where + 2, "duplicates an earlier class"
    path = tmp_path / "g2.cache"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as err:
        load_list(ctx, str(path))
    sep = " " if fault == "duplicate" else ": "
    assert str(err.value) == "cache record %d of %s%s%s" % (number, path, sep, reason)


def test_iko_window_values():
    # window endpoints for a few primes, computed from the mass formula
    assert iko_window(11) == (2, 3)
    lo, hi = iko_window(199)
    base = 198 * (199 ** 2 + 25 * 199 + 166) / 2880
    assert lo <= base <= hi
    assert hi - lo <= 2
