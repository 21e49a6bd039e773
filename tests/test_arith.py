"""Field, polynomial, and projective-line primitives.

Each operation is checked against a slower independent computation where
one exists (naive polynomial powering, exhaustive root evaluation), plus
the handful of pinned small-field values that double as regression anchors.
"""

import functools
import pickle
import random
import types

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from howecurves import (
    INF,
    FieldCtx,
    UniPoly,
    is_prime,
    poly_gcd,
    poly_roots_in_fq,
    sort_key,
    supersingular_lambda_set,
)
import numpy as np

from howecurves import arith, ellcurve
from howecurves.arith import (
    MAX_P,
    _conv_fq,
    _divmod_monic,
    _mul_arrays,
    _sqrt_stacked,
    cross_ratio_maps,
    fq_plane,
    matmul_fq,
    mobius_compose,
    mobius_eval_array,
    mobius_eval_codes,
    mobius_inverse,
)
from howecurves.strategies import _power_plane, _power_table
from oracles import MobiusMap, cross_ratio, cross_ratio_map, mobius_from_triples


def _coefs(maps):
    """The (len(maps), 4, 2) coefficient array of mobius_eval_array."""
    return np.array([(m.a, m.b, m.c, m.d) for m in maps], dtype=np.int64)


def _random_elem(ctx, rng):
    return ctx.elem(rng.randrange(ctx.p), rng.randrange(ctx.p))


def _random_poly(ctx, rng, deg):
    coeffs = [_random_elem(ctx, rng) for _ in range(deg)]
    coeffs.append(ctx.one)
    return UniPoly.from_coeffs(ctx, coeffs)


# ---------------------------------------------------------------------------
# field context
# ---------------------------------------------------------------------------


def test_ctx_rejects_composites():
    with pytest.raises(ValueError):
        FieldCtx(9)
    with pytest.raises(ValueError):
        FieldCtx(1)


def test_nonresidue_is_a_nonsquare():
    for p in (5, 7, 11, 13, 199):
        ctx = FieldCtx(p)
        assert pow(ctx.r, (p - 1) // 2, p) == p - 1


def test_elements_enumerates_the_whole_field():
    ctx = FieldCtx(5)
    elems = list(ctx.elements())
    assert len(elems) == 25
    assert len(set(elems)) == 25


def test_field_axioms_on_samples():
    ctx = FieldCtx(13)
    rng = random.Random(1)
    for _ in range(200):
        a = _random_elem(ctx, rng)
        b = _random_elem(ctx, rng)
        assert ctx.mul(a, b) == ctx.mul(b, a)
        assert ctx.add(ctx.sub(a, b), b) == a
        if a != ctx.zero:
            assert ctx.mul(a, ctx.inv(a)) == ctx.one
        assert ctx.mul(a, ctx.conj(a)) == (ctx.norm(a) % ctx.p, 0)


_FIELD_PRIMES = [5, 7, 11, 13, 409, 4003, 10009, 19993, 29989]


def _big_mul(r, p, x, y):
    """(x0 + x1 t)(y0 + y1 t) with t^2 = r in unbounded integers, reduced once."""
    return ((x[0] * y[0] + r * x[1] * y[1]) % p, (x[0] * y[1] + x[1] * y[0]) % p)


def _big_pow(r, p, x, e):
    acc = (1, 0)
    for bit in bin(e)[2:]:
        acc = _big_mul(r, p, acc, acc)
        if bit == "1":
            acc = _big_mul(r, p, acc, x)
    return acc


@st.composite
def _field_elements(draw):
    """A prime up to 29989 and three drawn elements of its F_{p^2}."""
    ctx = _field(draw(st.sampled_from(_FIELD_PRIMES)))
    elem = st.tuples(st.integers(0, ctx.p - 1), st.integers(0, ctx.p - 1))
    return ctx, draw(elem), draw(elem), draw(elem)


@settings(max_examples=100, deadline=None)
@given(_field_elements())
def test_field_laws_against_big_integers(case):
    ctx, a, b, c = case
    p, r = ctx.p, ctx.r
    mul, add = ctx.mul, ctx.add
    assert mul(a, b) == _big_mul(r, p, a, b) == mul(b, a)
    assert mul(mul(a, b), c) == mul(a, mul(b, c)) == _big_mul(r, p, _big_mul(r, p, a, b), c)
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
    assert mul(a, ctx.one) == a and add(a, ctx.neg(a)) == ctx.zero
    assert _big_mul(r, p, a, ctx.conj(a)) == (ctx.norm(a), 0)
    if a == ctx.zero:
        with pytest.raises(ZeroDivisionError):
            ctx.inv(a)
    else:
        # Lagrange in the multiplicative group of order p^2 - 1
        assert ctx.inv(a) == _big_pow(r, p, a, p * p - 2)
        assert _big_mul(r, p, a, ctx.inv(a)) == ctx.one


@settings(max_examples=60, deadline=None)
@given(_field_elements(), st.integers(1, 4))
def test_array_inverse_makes_rows_monic(case, width):
    # conj(lc) * inv_table[norm(lc)], the array inverse of mobius_eval_array
    # (here the map x -> 1/x at each leading coefficient), INF at zero
    ctx, a, b, c = case
    p, r = ctx.p, ctx.r
    rows = [row[:width] for row in ([a, b, c, a], [b, c, a, b]) if row[0] != ctx.zero]
    rows.append([ctx.zero] * width)
    x0 = np.array([[e[0] for e in row] for row in rows], dtype=np.int64)
    x1 = np.array([[e[1] for e in row] for row in rows], dtype=np.int64)
    flip = MobiusMap(ctx, ctx.zero, ctx.one, ctx.one, ctx.zero)
    i0, i1, finite = mobius_eval_array(ctx, _coefs([flip])[:, None], x0[:, 0], x1[:, 0])
    assert finite[0].tolist() == [True] * (len(rows) - 1) + [False]
    x0, x1 = _mul_arrays(ctx, x0, x1, i0[0][:, None], i1[0][:, None])
    got = [list(zip(y0, y1)) for y0, y1 in zip(x0.tolist(), x1.tolist())]
    assert got[-1] == rows[-1]
    for row, monic in zip(rows[:-1], got):
        inv = _big_pow(r, p, row[0], p * p - 2)
        assert monic == [_big_mul(r, p, e, inv) for e in row]
        assert monic[0] == ctx.one


def test_sqrt_inverts_squaring():
    ctx = FieldCtx(11)
    rng = random.Random(2)
    for _ in range(50):
        a = _random_elem(ctx, rng)
        s = ctx.sqr(a)
        assert ctx.is_square(s)
        r = ctx.sqrt(s)
        assert ctx.sqr(r) == s


@settings(max_examples=150, deadline=None)
@given(_field_elements())
def test_sqrt_against_the_norm_criterion(case):
    # x != 0 is a square of F_{p^2} exactly when its norm is a square of F_p;
    # squares are checked against big-integer products
    ctx, a, x, _ = case
    p, r = ctx.p, ctx.r
    square = _big_mul(r, p, a, a)
    root = ctx.sqrt(square)
    assert root is not None and _big_mul(r, p, root, root) == square
    residue = pow((x[0] * x[0] - r * x[1] * x[1]) % p, (p - 1) // 2, p) != p - 1
    got = ctx.sqrt(x)
    assert (got is None) == (not residue)
    if got is not None:
        assert _big_mul(r, p, got, got) == x


def _check_array_sqrt(ctx, xs):
    """_sqrt_stacked at the elements xs against ctx.sqrt and big-integer squares.

    Both read their F_p roots from ctx.sqrt_table(), and ctx.sqrt returns
    the smaller of the pair of roots, as Python ints.
    """
    x = np.array(xs, dtype=np.int64).reshape(-1, 2)
    root, square = _sqrt_stacked(ctx, x)
    assert root.shape == x.shape and square.shape == (len(xs),)
    for elem, got, flag in zip(xs, root.tolist(), square.tolist()):
        want = ctx.sqrt(elem)
        assert flag == (want is not None), elem
        if flag:
            # either sign: the square round-trips, and ctx.sqrt is the smaller of +-got
            assert _big_mul(ctx.r, ctx.p, tuple(got), tuple(got)) == tuple(elem)
            assert want == min(tuple(got), ctx.neg(tuple(got)))
            assert all(type(c) is int for c in want)


@pytest.mark.parametrize("p", [q for q in range(5, 32) if is_prime(q)])
def test_array_sqrt_on_the_whole_field(p):
    ctx = FieldCtx(p)
    _check_array_sqrt(ctx, list(ctx.elements()))


@settings(max_examples=100, deadline=None)
@given(_field_elements())
def test_array_sqrt_on_drawn_elements(case):
    # a drawn element, its square, and both on the real and imaginary axes
    ctx, a, x, y = case
    p, r = ctx.p, ctx.r
    xs = [x, _big_mul(r, p, a, a), (y[0], 0), (0, y[1]), _big_mul(r, p, (0, y[1]), (0, y[1]))]
    _check_array_sqrt(ctx, xs)
    table = ctx.sqrt_table()
    assert table is ctx.sqrt_table() and len(table) == p


def test_array_sqrt_at_the_largest_prime():
    ctx = FieldCtx(MAX_P - 11)
    assert ctx.p == 29989
    top = ctx.p - 1
    xs = [(0, 0), (1, 0), (top, 0), (0, top), (top, top), (ctx.r, 0), (0, 1)]
    _check_array_sqrt(ctx, xs + [_big_mul(ctx.r, ctx.p, x, x) for x in xs])


def _is_square_by_euler(ctx, x):
    """Euler's criterion in F_{p^2}: x^((p^2 - 1)/2) is 0 or 1, in big integers."""
    p = ctx.p
    return _big_pow(ctx.r, p, x, (p * p - 1) // 2) in ((0, 0), (1, 0))


@pytest.mark.parametrize("p", [q for q in range(5, 32) if is_prime(q)])
def test_is_square_against_eulers_criterion_on_the_whole_field(p):
    ctx = FieldCtx(p)
    for x in ctx.elements():
        assert ctx.is_square(x) is _is_square_by_euler(ctx, x), x


@settings(max_examples=100, deadline=None)
@given(_field_elements())
def test_is_square_against_eulers_criterion_on_drawn_elements(case):
    # a drawn element, a square, and elements on the real and imaginary axes
    ctx, a, x, y = case
    for elem in (x, _big_mul(ctx.r, ctx.p, a, a), (y[0], 0), (0, y[1])):
        assert ctx.is_square(elem) is _is_square_by_euler(ctx, elem), elem


@st.composite
def _division_cases(draw):
    """A prime up to 29989, a dividend and a nonzero divisor of degree at most 8."""
    ctx = _field(draw(st.sampled_from(_FIELD_PRIMES)))
    elem = st.tuples(st.integers(0, ctx.p - 1), st.integers(0, ctx.p - 1))
    a = draw(st.lists(elem, max_size=16))
    b = draw(st.lists(elem, min_size=1, max_size=9).filter(lambda cs: any(map(any, cs))))
    return ctx, UniPoly.from_coeffs(ctx, a), UniPoly.from_coeffs(ctx, b)


@settings(max_examples=150, deadline=None)
@given(_division_cases())
def test_divmod_identity(case):
    # a = q b + r with deg r < deg b, the product q b rebuilt in big integers
    ctx, a, b = case
    p = ctx.p
    q, rem = divmod(a, b)
    assert rem.degree < b.degree
    qb = _ref_poly_mul(ctx.r, q.coeffs(), b.coeffs())
    width = max(len(qb), a.degree + 1)
    qb += [(0, 0)] * (width - len(qb))
    total = [((x + rem.coeff(i)[0]) % p, (y + rem.coeff(i)[1]) % p)
             for i, (x, y) in enumerate(qb)]
    assert total == [a.coeff(i) for i in range(width)]


def test_fq_pow_pinned_values():
    ctx = FieldCtx(11)
    assert ctx.pow(ctx.one, 10 ** 9) == ctx.one
    assert ctx.pow(ctx.zero, 5) == ctx.zero
    t = ctx.elem(0, 1)
    # Frobenius squared is the identity on F_{p^2}.
    assert ctx.pow(t, 11 ** 2) == t


def test_fq_pow_lagrange():
    ctx = FieldCtx(11)
    q = 11 ** 2
    for x in ctx.elements():
        if x == ctx.zero:
            continue
        assert ctx.pow(x, q - 1) == ctx.one


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------


def test_unipoly_pads_and_trims_its_coefficients():
    ctx = FieldCtx(13)
    cases = [
        ([], [], []),
        ([0, 0, 0], [0], []),
        ([0, 13, -26], [26, 0], []),
        ([1, 2], [0, 0, 3], [(1, 0), (2, 0), (0, 3)]),
        ([5], [0, 7, 0, 0], [(5, 0), (0, 7)]),
        ([4, 0, 14, 0], [-1], [(4, 12), (0, 0), (1, 0)]),
    ]
    for c0, c1, want in cases:
        f = UniPoly(ctx, c0, c1)
        assert f.coeffs() == want
        assert f.degree == len(want) - 1
        assert len(f.c0) == len(f.c1)
    assert UniPoly(ctx, [0, 0], [0, 0]) == UniPoly.zero(ctx)


def test_powmod_truncated_pinned():
    ctx = FieldCtx(7)
    f = UniPoly.from_int_coeffs(ctx, [1, 1])  # x + 1
    g = f.pow_truncated(2, 1)
    assert g.coeff(0) == ctx.one and g.coeff(1) == ctx.elem(2)
    assert g.degree <= 1


def test_powmod_truncated_squared_sextic():
    # (x^6 + 3x^3 + 2)^2 = x^12 + x^9 + 3x^6 + 2x^3 + 4 over F_5.
    ctx = FieldCtx(5)
    f = UniPoly.from_int_coeffs(ctx, [2, 0, 0, 3, 0, 0, 1])
    g = f.pow_truncated(2, 12)
    want = {0: 4, 3: 2, 6: 3, 9: 1, 12: 1}
    for k in range(13):
        assert g.coeff(k) == ctx.elem(want.get(k, 0))


def test_powmod_truncated_zero_exponent():
    ctx = FieldCtx(5)
    f = UniPoly.from_int_coeffs(ctx, [3, 1, 4])
    g = f.pow_truncated(0, 10)
    assert g.degree == 0 and g.coeff(0) == ctx.one


def test_powmod_truncated_matches_repeated_multiplication():
    ctx = FieldCtx(7)
    rng = random.Random(3)
    for _ in range(15):
        f = _random_poly(ctx, rng, rng.randrange(1, 7))
        e = rng.randrange(1, 9)
        cap = rng.randrange(0, f.degree * e + 3)
        full = UniPoly.from_coeffs(ctx, [ctx.one])
        for _ in range(e):
            full = full * f
        assert f.pow_truncated(e, cap) == UniPoly(ctx, full.c0[: cap + 1], full.c1[: cap + 1])


def test_powmod_truncated_edge_cases_and_a_larger_prime():
    ctx = FieldCtx(7)
    zero = UniPoly.zero(ctx)
    one = UniPoly.from_int_coeffs(ctx, [1])
    assert zero.pow_truncated(0, 5) == one and zero.pow_truncated(3, 5) == zero
    x3 = UniPoly.x_power(ctx, 3)
    assert x3.pow_truncated(2, 5) == zero  # every term truncated away
    assert x3.pow_truncated(2, 6) == UniPoly.x_power(ctx, 6)
    assert x3.pow_truncated(0, -1) == one and x3.pow_truncated(1, -1) == zero
    ctx = FieldCtx(409)
    rng = random.Random(409)
    for _ in range(10):
        f = _random_poly(ctx, rng, rng.randrange(0, 7)).scale(_random_elem(ctx, rng))
        e = rng.randrange(0, 12)
        cap = rng.randrange(0, 40)
        full = UniPoly.from_coeffs(ctx, [ctx.one])
        for _ in range(e):
            full = full * f
        assert f.pow_truncated(e, cap) == UniPoly(ctx, full.c0[: cap + 1], full.c1[: cap + 1])


def _pow_mod_by_division(f, e, m):
    """Reference: square-and-multiply with a schoolbook division per step."""
    acc = UniPoly.from_int_coeffs(f.ctx, [1]) % m
    base = f % m
    while e:
        if e & 1:
            acc = (acc * base) % m
        e >>= 1
        base = (base * base) % m
    return acc


def _nonmonic_poly(ctx, rng, deg):
    lead = ctx.zero
    while lead == ctx.zero or lead == ctx.one:
        lead = _random_elem(ctx, rng)
    return UniPoly.from_coeffs(ctx, [_random_elem(ctx, rng) for _ in range(deg)] + [lead])


@pytest.mark.parametrize("p", [5, 13, 409, 29989])
def test_pow_mod_matches_division_reference(p):
    ctx = FieldCtx(p)
    rng = random.Random(p)
    top = 3 * (p - 1) // 2 if p < 1000 else 24
    exponents = [0, 1, p * p, (p * p - 1) // 2]
    for deg in (0, 1, 2, rng.randrange(3, top), top):
        m = _nonmonic_poly(ctx, rng, deg)
        bases = [UniPoly.zero(ctx), _random_poly(ctx, rng, deg + rng.randrange(0, 4)),
                 _random_poly(ctx, rng, max(0, deg - 1))]
        for f in bases:
            for e in exponents:
                got = f.pow_mod(e, m)
                assert got == _pow_mod_by_division(f, e, m), (deg, f.degree, e)
                assert got.degree < max(m.degree, 1)


def test_pow_mod_of_a_multiple_of_the_modulus():
    ctx = FieldCtx(13)
    m = UniPoly.from_int_coeffs(ctx, [2, 0, 5])
    f = m * UniPoly.from_int_coeffs(ctx, [1, 1])
    assert f.pow_mod(0, m) == UniPoly.from_int_coeffs(ctx, [1])
    assert f.pow_mod(7, m).is_zero()
    with pytest.raises(ZeroDivisionError):
        f.pow_mod(3, UniPoly.zero(ctx))
    with pytest.raises(ValueError):
        f.pow_mod(-1, m)


# Pure-Python big-int reference arithmetic for the int64 limit test: no
# numpy, no fixed-width integers, reduction only at the very end.

def _ref_mul(r, x, y):
    return (x[0] * y[0] + r * x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _ref_poly_mul(r, a, b):
    out = [(0, 0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            z = _ref_mul(r, x, y)
            out[i + j] = (out[i + j][0] + z[0], out[i + j][1] + z[1])
    return out


def _ref_poly_rem(r, p, a, f):
    """a mod f for monic f, schoolbook, on Python ints."""
    rem = [(x % p, y % p) for x, y in a]
    n = len(f) - 1
    for k in range(len(rem) - 1, n - 1, -1):
        c = rem[k]
        for i in range(n + 1):
            z = _ref_mul(r, c, f[i])
            j = k - n + i
            rem[j] = ((rem[j][0] - z[0]) % p, (rem[j][1] - z[1]) % p)
    return rem[:n]


def test_int64_limit_at_the_largest_prime():
    p = 29989
    assert is_prime(p) and not any(is_prime(q) for q in range(p + 1, MAX_P + 1))
    with pytest.raises(ValueError):
        FieldCtx(30011)
    ctx = FieldCtx(p)
    r = ctx.r
    top = (p - 1, p - 1)
    n = 160
    a = UniPoly.from_coeffs(ctx, [top] * n)
    b = UniPoly.from_coeffs(ctx, [top] * (n - 1))
    got0, got1 = _conv_fq(ctx, a.c0, a.c1, b.c0, b.c1)
    want = [(x % p, y % p) for x, y in _ref_poly_mul(r, a.coeffs(), b.coeffs())]
    assert list(zip(got0.tolist(), got1.tolist())) == want

    # one reduction step: the product of two maximal residues modulo a monic
    # f whose other coefficients are all p - 1
    f = [top] * n + [(1, 0)]
    fp = UniPoly.from_coeffs(ctx, f)
    prod = [top] * (2 * n - 1)
    pp = UniPoly.from_coeffs(ctx, prod)
    rem0, rem1 = _divmod_monic(ctx, pp.c0, pp.c1, fp.c0, fp.c1)[2:]
    assert list(zip(rem0.tolist(), rem1.tolist())) == _ref_poly_rem(r, p, prod, f)


def _bigint_poly_mul(a, b):
    """Exact product of nonnegative integer coefficient lists, by one Python
    big-int product: Kronecker substitution into 64-bit slots, valid while
    every coefficient of the product is below 2^64."""
    def pack(coeffs):
        return int.from_bytes(b"".join(int(c).to_bytes(8, "little") for c in coeffs), "little")

    n = len(a) + len(b) - 1
    prod = (pack(a) * pack(b)).to_bytes(8 * n, "little")
    return [int.from_bytes(prod[8 * i: 8 * i + 8], "little") for i in range(n)]


def test_bigint_reference_product():
    rng = random.Random(7)
    for la, lb in ((1, 1), (3, 5), (40, 17)):
        a = [rng.randrange(2 ** 30) for _ in range(la)]
        b = [rng.randrange(2 ** 30) for _ in range(lb)]
        want = [sum(a[i] * b[k - i] for i in range(la) if 0 <= k - i < lb)
                for k in range(la + lb - 1)]
        assert _bigint_poly_mul(a, b) == want


def test_conv_fq_long_product_at_the_largest_prime():
    # operands of length (p-1)/2 with every coefficient (p - 1, p - 1),
    # against the three component products in big integers
    p = 29989
    n = (p - 1) // 2
    ctx = FieldCtx(p)
    top = np.full(n, p - 1, dtype=np.int64)
    got0, got1 = _conv_fq(ctx, top, top, top, top)
    m0 = _bigint_poly_mul([p - 1] * n, [p - 1] * n)
    m1 = _bigint_poly_mul([2 * p - 2] * n, [2 * p - 2] * n)
    assert got0.tolist() == [(1 + ctx.r) * c % p for c in m0]
    assert got1.tolist() == [(c - 2 * c0) % p for c, c0 in zip(m1, m0)]


@pytest.mark.parametrize("p", [5, 7, 13, 29989])
def test_inverse_table_inverts_every_residue(p):
    ctx = FieldCtx(p)
    table = ctx.inv_table()
    assert table is ctx.inv_table() and table.dtype == np.int64 and len(table) == p
    assert table[0] == 0
    assert np.all(table[1:] * np.arange(1, p) % p == 1)


_BUILDS = []


def _tripled(ctx):
    # a module-level builder, so a field that has cached it still pickles
    _BUILDS.append(ctx.p)
    return 3 * ctx.p


def test_field_cache_is_per_instance_and_survives_a_pickle():
    # cached builds once per field; a second field for the same p starts
    # empty, and a pickled field carries what it has built
    _BUILDS.clear()
    ctx = FieldCtx(13)
    assert ctx.cached(_tripled) == 39 and ctx.cached(_tripled) == 39 and _BUILDS == [13]
    assert FieldCtx(13).cached(_tripled) == 39 and _BUILDS == [13, 13]
    inv, sqrt, nonsquare = ctx.inv_table(), ctx.sqrt_table(), ctx.nonsquare()
    copy = pickle.loads(pickle.dumps(ctx))
    assert copy == ctx and copy.r == ctx.r
    assert copy.cached(_tripled) == 39 and _BUILDS == [13, 13]
    assert np.array_equal(copy.inv_table(), inv) and np.array_equal(copy.sqrt_table(), sqrt)
    assert copy.nonsquare() == nonsquare
    assert copy.inv_table() is copy.inv_table()


def test_cached_arrays_stay_read_only_through_a_pickle():
    # a pool's worker gets its field by pickle, which restores arrays
    # writeable; the field makes its cached arrays read-only again
    ctx = FieldCtx(13)
    ctx.inv_table(), ctx.sqrt_table(), supersingular_lambda_set(ctx)
    ctx.cached(ellcurve._deuring_table), ctx.cached(_power_plane)
    arrays = {key: value for key, value in ctx._cache.items() if isinstance(value, np.ndarray)}
    copy = pickle.loads(pickle.dumps(ctx))
    assert len(arrays) == 5 and copy._cache.keys() == ctx._cache.keys()
    for key, value in arrays.items():
        got = copy._cache[key]
        assert np.array_equal(got, value) and not got.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            got[0] = 1


def test_cached_arrays_are_read_only():
    # every caller of a field shares its cached arrays, so none may write
    ctx = FieldCtx(13)
    for table in (ctx.inv_table(), ctx.sqrt_table(), ctx.cached(ellcurve._deuring_table),
                  ctx.cached(_power_table), supersingular_lambda_set(ctx)):
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 1


def test_array_arithmetic_at_the_largest_prime():
    # the array layer against ctx.mul / ctx.div, with every coordinate p - 1
    # among the points and the map coefficients, and with zero denominators
    p = 29989
    ctx = FieldCtx(p)
    rng = random.Random(29989)
    top = (p - 1, p - 1)
    xs = [top, (p - 1, 0), (0, p - 1), ctx.zero, ctx.one, (1, p - 1)]
    xs += [_random_elem(ctx, rng) for _ in range(40)]
    x0 = np.array([x[0] for x in xs], dtype=np.int64)
    x1 = np.array([x[1] for x in xs], dtype=np.int64)
    y0, y1 = _mul_arrays(ctx, x0, x1, x0[::-1], x1[::-1])
    assert list(zip(y0.tolist(), y1.tolist())) == [ctx.mul(x, y) for x, y in zip(xs, xs[::-1])]

    maps = [MobiusMap(ctx, top, top, ctx.one, top),          # pole at x = 1
            MobiusMap(ctx, ctx.zero, top, ctx.one, ctx.zero),  # top / x, pole at 0
            MobiusMap(ctx, top, ctx.zero, ctx.zero, top),      # the identity
            MobiusMap(ctx, top, ctx.one, (p - 1, 0), top)]
    maps += [MobiusMap(ctx, *(_random_elem(ctx, rng) for _ in range(4))) for _ in range(4)]
    y0, y1, finite = mobius_eval_array(ctx, _coefs(maps)[:, None], x0, x1)
    assert y0.shape == y1.shape == finite.shape == (len(maps), len(xs))
    # elementwise: map k at point k
    d0, d1, dfinite = mobius_eval_array(ctx, _coefs(maps), x0[:len(maps)], x1[:len(maps)])
    k = np.arange(len(maps))
    assert np.array_equal(d0, y0[k, k]) and np.array_equal(d1, y1[k, k])
    assert np.array_equal(dfinite, finite[k, k])
    poles = 0
    for k, m in enumerate(maps):
        for j, x in enumerate(xs):
            num = ctx.add(ctx.mul(m.a, x), m.b)
            den = ctx.add(ctx.mul(m.c, x), m.d)
            if den == ctx.zero:
                poles += 1
                assert not finite[k, j] and y0[k, j] == y1[k, j] == 0
            else:
                assert finite[k, j]
                assert (int(y0[k, j]), int(y1[k, j])) == ctx.div(num, den) == m(x)
    assert poles >= 2


def test_roots_pinned_small_cases():
    ctx = FieldCtx(11)
    f = UniPoly.from_roots(ctx, [ctx.zero, ctx.one])
    assert poly_roots_in_fq(f) == [ctx.zero, ctx.one]

    # x^2 + 1 has no roots in F_11 but two in F_121.
    g = UniPoly.from_int_coeffs(ctx, [1, 0, 1])
    roots = poly_roots_in_fq(g)
    assert len(roots) == 2
    for r in roots:
        assert r[1] != 0
        assert ctx.sqr(r) == ctx.elem(10)

    ctx13 = FieldCtx(13)
    h = UniPoly.from_int_coeffs(ctx13, [1, 0, 1])
    assert poly_roots_in_fq(h) == [ctx13.elem(5), ctx13.elem(8)]


def test_roots_of_zero_polynomial_rejected():
    ctx = FieldCtx(5)
    with pytest.raises(ValueError):
        poly_roots_in_fq(UniPoly.zero(ctx))


def test_roots_match_exhaustive_evaluation():
    rng = random.Random(4)
    for p in (5, 7, 13):
        ctx = FieldCtx(p)
        for _ in range(8):
            f = _random_poly(ctx, rng, rng.randrange(1, 6))
            want = sorted(x for x in ctx.elements() if f.eval(x) == ctx.zero)
            assert poly_roots_in_fq(f) == want


def test_roots_are_rng_independent(monkeypatch):
    # the probes come from a generator with a fixed seed inside
    # poly_roots_in_fq; reseeding it must not change the roots
    ctx = FieldCtx(13)
    f = UniPoly.from_roots(ctx, [ctx.elem(2), ctx.elem(5), ctx.elem(0, 1), ctx.elem(7, 3)])
    roots = []
    for seed in (1, 999):
        monkeypatch.setattr(arith, "random", types.SimpleNamespace(
            Random=lambda _fixed, seed=seed: random.Random(seed)))
        roots.append(poly_roots_in_fq(f))
    want = sorted([ctx.elem(2), ctx.elem(5), ctx.elem(0, 1), ctx.elem(7, 3)])
    assert roots[0] == roots[1] == want


def test_gcd_pinned_cases():
    ctx = FieldCtx(11)
    f = UniPoly.from_int_coeffs(ctx, [-1, 0, 1])  # x^2 - 1
    g = UniPoly.from_int_coeffs(ctx, [-1, 1])  # x - 1
    assert poly_gcd(f, g) == g.monic()

    h = UniPoly.from_roots(ctx, [ctx.elem(2), ctx.elem(3)])
    k = UniPoly.from_roots(ctx, [ctx.elem(3), ctx.elem(4)])
    assert poly_gcd(h, k) == UniPoly.from_roots(ctx, [ctx.elem(3)])

    s = h.scale(ctx.elem(7))
    assert poly_gcd(s, s) == h.monic()
    assert poly_gcd(s, UniPoly.zero(ctx)) == h.monic()


def test_gcd_of_two_zeros_rejected():
    ctx = FieldCtx(5)
    with pytest.raises(ValueError):
        poly_gcd(UniPoly.zero(ctx), UniPoly.zero(ctx))


def test_gcd_divides_both_operands():
    ctx = FieldCtx(7)
    rng = random.Random(5)
    for _ in range(20):
        common = _random_poly(ctx, rng, rng.randrange(0, 3))
        f = common * _random_poly(ctx, rng, rng.randrange(1, 4))
        g = common * _random_poly(ctx, rng, rng.randrange(1, 4))
        d = poly_gcd(f, g)
        assert (f % d).is_zero() and (g % d).is_zero()
        assert (d % common.monic()).is_zero()


def test_matmul_fq_at_the_largest_prime():
    # strategy a's longest inner product, 3m + 1 terms, every entry p - 1
    p = 29989
    ctx = FieldCtx(p)
    n = 3 * ((p - 1) // 2) + 1
    x = np.full((2, n, 2), p - 1, dtype=np.int64)
    x[1, :, 1] = 0
    y = np.full((n, 3, 2), p - 1, dtype=np.int64)
    y[:, 1, 0] = 1
    got = matmul_fq(ctx, x, fq_plane(ctx, y))
    for i in range(2):
        for j in range(3):
            a0, a1 = x[i, 0].tolist()
            b0, b1 = y[0, j].tolist()
            want = (n * (a0 * b0 + ctx.r * a1 * b1) % p, n * (a0 * b1 + a1 * b0) % p)
            assert tuple(got[i, j].tolist()) == want


_PRIMES_UP_TO_MAX_P = [q for q in range(5, MAX_P + 1) if is_prime(q)]


# at the largest prime: strategy a's longest inner product, and a product
# above the 10^6 multiply-adds where OpenBLAS splits it over threads
@settings(max_examples=40, deadline=None)
@given(st.sampled_from(_PRIMES_UP_TO_MAX_P), st.integers(1, 6), st.integers(1, 45000),
       st.integers(1, 6), st.booleans(), st.integers(0, 2 ** 32 - 1))
@example(29989, 5, 44983, 5, True, 0)
@example(29989, 24, 2000, 24, True, 1)
def test_matmul_fq_matches_python_ints(p, k, n, l, top, seed):
    # n is capped at strategy a's 3m + 1 terms; top sets about nine entries
    # in ten to p - 1, where the partial sums are largest
    ctx = _field(p)
    n = min(n, 3 * ((p - 1) // 2) + 1)
    rng = np.random.default_rng(seed)
    x, y = rng.integers(0, p, (k, n, 2)), rng.integers(0, p, (n, l, 2))
    if top:
        x[rng.random(x.shape) < 0.9] = p - 1
        y[rng.random(y.shape) < 0.9] = p - 1
    x0, x1, y0, y1 = (z[..., i].astype(object) for z in (x, y) for i in (0, 1))
    want = [(x0 @ y0 + ctx.r * (x1 @ y1)) % p, (x0 @ y1 + x1 @ y0) % p]
    got = matmul_fq(ctx, x, fq_plane(ctx, y))
    assert got.dtype == np.int64
    assert got[..., 0].tolist() == want[0].tolist() and got[..., 1].tolist() == want[1].tolist()


@functools.lru_cache(maxsize=None)
def _field(p):
    return FieldCtx(p)


# ---------------------------------------------------------------------------
# projective line
# ---------------------------------------------------------------------------


def test_sort_key_places_inf_last():
    ctx = FieldCtx(11)
    pts = [INF, ctx.elem(3), ctx.zero, ctx.elem(0, 1)]
    assert sorted(pts, key=sort_key)[-1] is INF


def test_inf_pickles_to_the_same_sentinel():
    assert pickle.loads(pickle.dumps(INF)) is INF


def test_cross_ratio_pinned_value():
    ctx = FieldCtx(11)
    got = cross_ratio(ctx, INF, ctx.one, ctx.zero, ctx.elem(2))
    assert got == ctx.elem(10)


def test_cross_ratio_of_standard_frame():
    # (0, 1; INF, t) lands in the six-element orbit of t; with this
    # bracket convention the representative is (t - 1)/t.
    ctx = FieldCtx(13)
    for t0 in range(2, 13):
        t = ctx.elem(t0)
        got = cross_ratio(ctx, ctx.zero, ctx.one, INF, t)
        assert got == ctx.div(ctx.sub(t, ctx.one), t)
        inv = ctx.inv(t)
        one_minus = ctx.sub(ctx.one, t)
        orbit = {
            t,
            inv,
            one_minus,
            ctx.inv(one_minus),
            ctx.div(t, ctx.sub(t, ctx.one)),
            ctx.div(ctx.sub(t, ctx.one), t),
        }
        assert got in orbit


def test_cross_ratio_is_mobius_invariant():
    ctx = FieldCtx(11)
    rng = random.Random(6)
    pts = [INF, ctx.zero, ctx.one, ctx.elem(4, 2)]
    base = cross_ratio(ctx, *pts)
    seen = 0
    while seen < 100:
        a, b, c, d = (_random_elem(ctx, rng) for _ in range(4))
        if ctx.sub(ctx.mul(a, d), ctx.mul(b, c)) == ctx.zero:
            continue
        m = MobiusMap(ctx, a, b, c, d)
        assert cross_ratio(ctx, *(m(x) for x in pts)) == base
        seen += 1


def _bracket_cross_ratio(ctx, q, r, s, t):
    """(q, r; s, t) from 2x2 determinants of homogeneous coordinates."""

    def proj(pt):
        return (ctx.one, ctx.zero) if pt is INF else (pt, ctx.one)

    def bracket(u, v):
        return ctx.sub(ctx.mul(u[0], v[1]), ctx.mul(v[0], u[1]))

    pq, pr, ps, pt = (proj(v) for v in (q, r, s, t))
    num = ctx.mul(bracket(pq, ps), bracket(pr, pt))
    den = ctx.mul(bracket(pr, ps), bracket(pq, pt))
    return ctx.div(num, den)


@pytest.mark.parametrize("p", [7, 11])
def test_cross_ratio_matches_the_bracket_formula(p):
    ctx = FieldCtx(p)
    rng = random.Random(p)
    line = [INF] + list(ctx.elements())
    with_inf = 0
    for _ in range(400):
        pts = rng.sample(line, 4)
        with_inf += INF in pts
        assert cross_ratio(ctx, *pts) == _bracket_cross_ratio(ctx, *pts)
    assert with_inf > 0
    # INF in each of the four positions
    for k in range(4):
        pts = rng.sample(line[1:], 3)
        pts.insert(k, INF)
        assert cross_ratio(ctx, *pts) == _bracket_cross_ratio(ctx, *pts)


def test_cross_ratio_requires_distinct_points():
    ctx = FieldCtx(11)
    with pytest.raises(ValueError):
        cross_ratio(ctx, ctx.zero, ctx.zero, ctx.one, INF)
    with pytest.raises(ValueError):
        cross_ratio(ctx, INF, ctx.one, ctx.elem(2), INF)


def test_mobius_from_triples_identity():
    ctx = FieldCtx(11)
    tri = (ctx.zero, ctx.one, INF)
    m = mobius_from_triples(ctx, tri, tri)
    for x in list(ctx.elements())[:20] + [INF]:
        assert m(x) == x or (x is INF and m(x) is INF)


def test_mobius_from_triples_translation():
    ctx = FieldCtx(11)
    m = mobius_from_triples(ctx, (ctx.zero, ctx.one, INF), (ctx.one, ctx.elem(2), INF))
    for x0 in range(11):
        x = ctx.elem(x0)
        assert m(x) == ctx.add(x, ctx.one)
    assert m(INF) is INF


def test_mobius_from_triples_round_trip():
    ctx = FieldCtx(13)
    rng = random.Random(7)
    for _ in range(25):
        pts = []
        while len(pts) < 6:
            cand = rng.choice([INF] + [ctx.elem(i, j) for i in range(13) for j in range(2)])
            if cand not in pts:
                pts.append(cand)
        src, dst = tuple(pts[:3]), tuple(pts[3:])
        m = mobius_from_triples(ctx, src, dst)
        for s, d in zip(src, dst):
            assert m(s) == d or (d is INF and m(s) is INF)
        back = m.inverse()
        ident = back.compose(m)
        for x in [INF, ctx.zero, ctx.one, ctx.elem(5, 9)]:
            assert ident(x) == x or (x is INF and ident(x) is INF)


def test_mobius_from_triples_rejects_repeats():
    ctx = FieldCtx(11)
    with pytest.raises(ValueError):
        mobius_from_triples(ctx, (ctx.zero, ctx.zero, INF), (ctx.zero, ctx.one, INF))


def test_mobius_rejects_singular_matrix():
    ctx = FieldCtx(11)
    with pytest.raises(ValueError):
        MobiusMap(ctx, ctx.one, ctx.one, ctx.one, ctx.one)


def test_compose_and_inverse_keep_the_determinant_nonzero():
    # compose and inverse build through the checked constructor, whose
    # determinant test cannot fire there: det(AB) = det A det B, and the
    # adjugate has the same determinant
    ctx = FieldCtx(11)
    m = MobiusMap(ctx, ctx.elem(2), ctx.one, ctx.elem(3, 1), ctx.elem(5))
    k = MobiusMap(ctx, ctx.zero, ctx.elem(4, 7), ctx.one, ctx.elem(1, 1))

    def det(f):
        return ctx.sub(ctx.mul(f.a, f.d), ctx.mul(f.b, f.c))

    back, both = m.inverse(), m.compose(k)
    assert det(back) == det(m) and det(both) == ctx.mul(det(m), det(k)) != ctx.zero
    for x in [INF, ctx.zero, ctx.one, ctx.elem(5, 9), ctx.elem(0, 3)]:
        assert back(m(x)) == x
        assert both(x) == m(k(x))


def _random_map(ctx, rng):
    while True:
        a, b, c, d = (_random_elem(ctx, rng) for _ in range(4))
        if ctx.sub(ctx.mul(a, d), ctx.mul(b, c)) != ctx.zero:
            return MobiusMap(ctx, a, b, c, d)


@pytest.mark.parametrize("p", [11, 13, 29989])
def test_mobius_kernel_matches_the_scalar_maps(p):
    # the coefficient arrays of cross_ratio_maps, mobius_inverse and
    # mobius_compose equal those of the scalar cross_ratio_map, inverse and
    # compose, on one batch with extra leading axes
    ctx = FieldCtx(p)
    rng = random.Random(p)
    triples = [tuple(rng.sample([(i, j) for i in range(5) for j in range(5)], 3))
               for _ in range(12)]
    scalar = [cross_ratio_map(ctx, *tri) for tri in triples]
    maps = cross_ratio_maps(ctx, np.array(triples, dtype=np.int64).reshape(3, 4, 3, 2))
    assert maps.shape == (3, 4, 4, 2)
    assert maps.reshape(-1, 4, 2).tolist() == _coefs(scalar).tolist()
    inner = [_random_map(ctx, rng) for _ in scalar]
    assert mobius_inverse(ctx, maps).reshape(-1, 4, 2).tolist() == _coefs(
        [m.inverse() for m in scalar]).tolist()
    both = mobius_compose(ctx, maps, _coefs(inner).reshape(3, 4, 4, 2))
    assert both.reshape(-1, 4, 2).tolist() == _coefs(
        [m.compose(k) for m, k in zip(scalar, inner)]).tolist()
    # broadcast: every map after one
    assert mobius_compose(ctx, maps, _coefs(inner[:1])).reshape(-1, 4, 2).tolist() == _coefs(
        [m.compose(inner[0]) for m in scalar]).tolist()


@pytest.mark.parametrize("p", [11, 29989])
def test_code_evaluation_matches_the_scalar_map(p):
    # mobius_eval_codes against MobiusMap.__call__, INF = p^2 as input and
    # as output: maps with a pole, with INF fixed (c = 0) and the flip 1/x
    ctx = FieldCtx(p)
    q = p * p
    rng = random.Random(p)
    top = (p - 1, p - 1)
    maps = [MobiusMap(ctx, top, top, ctx.one, top),
            MobiusMap(ctx, top, ctx.one, ctx.zero, top),
            MobiusMap(ctx, ctx.zero, ctx.one, ctx.one, ctx.zero)]
    maps += [_random_map(ctx, rng) for _ in range(5)]
    line = [INF] + (list(ctx.elements()) if p < 20 else [top, ctx.neg(top), ctx.zero, ctx.one]
                    + [_random_elem(ctx, rng) for _ in range(40)])

    def code(pt):
        return q if pt is INF else pt[0] * p + pt[1]

    got = mobius_eval_codes(ctx, _coefs(maps)[:, None], np.array([code(x) for x in line]))
    assert got.tolist() == [[code(m(x)) for x in line] for m in maps]
    assert (got == q).sum() >= 3 and (got[:, 0] != q).sum() >= 3
    # one point per map, elementwise
    diag = mobius_eval_codes(ctx, _coefs(maps), got[:, 0])
    assert diag.tolist() == [code(m(m(INF))) for m in maps]


def test_is_prime_small_table():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1)
    assert is_prime(10 ** 9 + 7)
