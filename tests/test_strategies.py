"""Both enumeration engines, their oracles, and the existence search.

Strategy (a)'s evaluation search is checked against the per-mu scalar
entries and gcd fold of the oracles, and against an oracle that expands
every fiber's sextic power with no shared search code; strategy (b)'s
branch-point solver is checked against a scan of the whole projective line
using the Hasse-coefficient supersingularity test instead of the preimage
formula, and against the per-split scalar solver that its array pass
replaced; its Howe-key dedup is checked against the automorphism-orbit
expansion it replaced, on blocks of curves of any length.
"""

import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from howecurves import (
    INF,
    FieldCtx,
    Genus2Curve,
    HoweData,
    UniPoly,
    enumerate_a,
    enumerate_b,
    find_one,
    howe_isomorphic,
    howe_jsonable,
    howe_type_points,
    is_prime,
    is_superspecial_howe,
    match_representatives,
    normalize_split,
    sort_key,
    supersingular_b_values,
    supersingular_lambda_set,
)
from howecurves import ellcurve, genus2, howe, strategies
from howecurves.arith import MAX_P, ROW_BLOCK, fq_plane, matmul_fq
from howecurves.cli import TABLE1
from howecurves.ellcurve import enumerate_supersingular_classes
from howecurves.strategies import (
    VerificationError,
    _curve_splits,
    _fit_orbits,
    _PairEntries,
    _verify_representatives,
)
from oracles import (
    QuarticModel,
    automorphisms,
    b_values_scalar,
    cm_entry_polynomials,
    cubic_curve,
    enumerate_a_bruteforce,
    howe_from_cubics,
    howe_type_points_scalar,
    in_lambda_set,
    lambda_of_quartic,
    pair_values,
    quartic_is_supersingular,
    quartics,
)


def _pair_sextic(ctx, roots1, roots2, lam, mu):
    """f1 * f2 for the scaled/shifted torsion cubics of the pair."""
    E1, E2 = cubic_curve(ctx, roots1), cubic_curve(ctx, roots2)
    m2, m3 = ctx.sqr(mu), ctx.mul(mu, ctx.sqr(mu))
    f1 = UniPoly.from_coeffs(ctx, [ctx.mul(E1.B, m3), ctx.mul(E1.A, m2), ctx.zero, ctx.one])
    shifted = UniPoly.from_coeffs(ctx, [ctx.neg(lam), ctx.one])
    f2 = shifted * shifted * shifted \
        + UniPoly.from_coeffs(ctx, [ctx.mul(E2.A, ctx.neg(lam)), E2.A]) \
        + UniPoly.from_coeffs(ctx, [E2.B])
    return f1 * f2


def _formal_entries(ctx, f):
    p = ctx.p
    g = f.pow_truncated((p - 1) // 2, 2 * p - 1)
    return (g.coeff(p - 1), g.coeff(2 * p - 1), g.coeff(p - 2), g.coeff(2 * p - 2))


def test_entry_polynomials_specialize_to_cartier_manin():
    rng = random.Random(41)
    for p in (5, 7, 11):
        ctx = FieldCtx(p)
        classes = enumerate_supersingular_classes(ctx)
        bound = 3 * (p - 1) // 2
        for _ in range(7):
            roots1 = rng.choice(classes)
            roots2 = rng.choice(classes)
            mu = ctx.elem(rng.randrange(1, p), rng.randrange(p))
            polys = cm_entry_polynomials(ctx, roots1, roots2, mu)
            assert all(g.degree <= bound for g in polys)
            lam = ctx.elem(rng.randrange(p), rng.randrange(p))
            sextic = _pair_sextic(ctx, roots1, roots2, lam, mu)
            want = _formal_entries(ctx, sextic)
            got = tuple(g.eval(lam) for g in polys)
            assert got == want


def test_entry_polynomials_reject_zero_scale():
    ctx = FieldCtx(7)
    roots = enumerate_supersingular_classes(ctx)[0]
    with pytest.raises(ValueError):
        cm_entry_polynomials(ctx, roots, roots, ctx.zero)


def test_pair_hit_search_matches_plane_scan():
    # every (lam, mu) with mu != 0 whose formal entries vanish, found by
    # direct expansion fiber by fiber
    for p in (5, 7):
        ctx = FieldCtx(p)
        classes = enumerate_supersingular_classes(ctx)
        for i in range(len(classes)):
            for j in range(i, len(classes)):
                want = set()
                for mu in ctx.elements():
                    if mu == ctx.zero:
                        continue
                    for lam in ctx.elements():
                        sextic = _pair_sextic(ctx, classes[i], classes[j], lam, mu)
                        if all(v == ctx.zero for v in _formal_entries(ctx, sextic)):
                            want.add((lam, mu))
                got = set(howe_type_points(ctx, classes[i], classes[j]))
                assert got == want


@pytest.mark.parametrize("p", [5, 7, 11, 13, 17, 19])
def test_batched_hits_match_the_scalar_oracle(p):
    # the same (lam, mu) list, in order, for every pair of classes
    ctx = FieldCtx(p)
    classes = enumerate_supersingular_classes(ctx)
    for i in range(len(classes)):
        for j in range(i, len(classes)):
            got = list(howe_type_points(ctx, classes[i], classes[j]))
            assert got == list(howe_type_points_scalar(ctx, classes[i], classes[j])), (i, j)


def test_block_boundaries_leave_the_hits_unchanged(monkeypatch):
    # at p = 19 a block holds 128**2 // 722 = 22 scales, so ROW_BLOCK**2
    # real outputs of entry 0's product, sixteen full blocks and one of 8 per
    # pair; a smaller ROW_BLOCK splits them further, down to one scale per
    # block once ROW_BLOCK**2 < 2 p^2, and the hits stay the same, in order
    ctx = FieldCtx(19)
    classes = enumerate_supersingular_classes(ctx)
    pairs = [(s, t) for i, s in enumerate(classes) for t in classes[i:]]
    sizes = []
    zeros = _PairEntries.zeros

    def spy(self, scales):
        sizes.append(len(scales))
        return zeros(self, scales)

    monkeypatch.setattr(_PairEntries, "zeros", spy)
    whole = [list(howe_type_points(ctx, s, t)) for s, t in pairs]
    assert sizes == ([22] * 16 + [8]) * len(pairs)
    for block, want in ((64, [5] * 72), (16, [1] * 360)):
        sizes.clear()
        monkeypatch.setattr(strategies, "ROW_BLOCK", block)
        split = [list(howe_type_points(ctx, s, t)) for s, t in pairs]
        assert sizes == want * len(pairs)
        assert split == whole and any(whole)


_PRIMES_UP_TO_MAX_P = [q for q in range(5, MAX_P + 1) if is_prime(q)]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(_PRIMES_UP_TO_MAX_P), st.integers(2, 6), st.integers(6, 9),
       st.integers(0, 2 ** 32 - 1))
@example(29989, 4, 6, 0)
def test_float64_zero_mask_matches_the_int64_product(p, k, l, seed):
    # entry 0's inner length p: row 0 and column 0 of all p - 1 give the
    # largest sums, about 2 p^3; column 1 is zero, and the last entries of
    # columns 2-5 are solved so that rows 0 and 1 take the values 0, 0, t
    # and 1 there: nonzero multiples of p, and two products only one of
    # whose parts vanishes
    ctx = FieldCtx(p)
    rng = np.random.default_rng(seed)
    scales, table = rng.integers(0, p, (k, p, 2)), rng.integers(0, p, (p, l, 2))
    scales[0], table[:, 0], table[:, 1] = p - 1, p - 1, 0
    scales[1, -1] = (1, 0)
    for row, col, value in ((0, 2, (0, 0)), (1, 3, (0, 0)), (0, 4, (0, 1)), (1, 5, (1, 0))):
        head = matmul_fq(ctx, scales[row:row + 1, :-1], fq_plane(ctx, table[:-1, col:col + 1]))
        table[-1, col] = ctx.div(ctx.sub(value, tuple(head[0, 0].tolist())),
                                 tuple(scales[row, -1].tolist()))
    plane = fq_plane(ctx, table)
    want = ~matmul_fq(ctx, scales, plane).any(axis=-1)
    got = strategies._zero_mask(ctx, scales, plane)
    assert got.shape == (k, l) and np.array_equal(got, want)
    assert got[0, 2] and got[1, 3] and got[:, 1].all() and not (got[0, 4] or got[1, 5])


def _horner(ctx, f, codes):
    """The UniPoly f at the elements of codes c0 p + c1, by Horner's rule."""
    p, r = ctx.p, ctx.r
    x0, x1 = np.divmod(np.asarray(codes, dtype=np.int64), p)
    v0 = np.zeros(len(x0), dtype=np.int64)
    v1 = np.zeros_like(v0)
    for c0, c1 in reversed(f.coeffs()):
        v0, v1 = (v0 * x0 + r * v1 * x1 + c0) % p, (v0 * x1 + v1 * x0 + c1) % p
    return np.stack([v0, v1], axis=-1)


def _check_entry_values(ctx, roots1, roots2, mus, lams):
    """The entries at every (mu, lam), mu and lam given by code, both from
    the whole-row evaluation and at the points, against the scalar entry
    polynomials of each mu evaluated by Horner's rule; and entry 0's float64
    zeros on the whole rows against its exact values."""
    pair = _PairEntries(ctx, roots1, roots2)
    scales = pair.scales(mus)
    rows, cols = np.repeat(np.arange(len(mus)), len(lams)), np.tile(lams, len(mus))
    got = np.stack([pair_values(pair, scales, k)[:, lams] for k in range(4)], axis=1)
    at = np.stack([pair.values_at(scales, k, rows, cols).reshape(len(mus), len(lams), 2)
                   for k in range(4)], axis=1)
    assert got.shape == (len(mus), 4, len(lams), 2) and np.array_equal(got, at)
    zero = np.zeros((len(mus), ctx.p ** 2), dtype=bool)
    zero[pair.zeros(scales)] = True
    assert np.array_equal(zero, ~pair_values(pair, scales, 0).any(axis=-1))
    for mu, values in zip(mus.tolist(), got):
        polys = cm_entry_polynomials(ctx, roots1, roots2, divmod(mu, ctx.p))
        want = np.stack([_horner(ctx, f, lams) for f in polys])
        assert np.array_equal(values, want), mu


def test_batched_entry_rows_match_the_scalar_oracle():
    # every (mu, lam) for p <= 13; for p up to 61 a seeded sample of mu and
    # lam, with the first and last codes of each
    rng = random.Random(61)
    for p in (q for q in range(5, 62) if is_prime(q)):
        ctx = FieldCtx(p)
        q = p * p
        classes = enumerate_supersingular_classes(ctx)
        if p <= 13:
            for roots1, roots2 in itertools.product(classes, repeat=2):
                _check_entry_values(ctx, roots1, roots2, np.arange(1, q), np.arange(q))
        else:
            mus = np.array([1, q - 1] + rng.sample(range(2, q - 1), 30))
            lams = np.array([0, q - 1] + rng.sample(range(1, q - 1), 60))
            _check_entry_values(ctx, rng.choice(classes), rng.choice(classes), mus, lams)


@pytest.mark.parametrize("p", [5, 7, 11, 13, 29])
def test_shifted_power_rows_match_exact_binomials(p):
    # row j, column k is c_(j+k) C(j+k, j) (-1)^k mod p, with the binomial
    # taken exactly: the Lucas mask and the factorial tables must agree
    ctx = FieldCtx(p)
    roots = enumerate_supersingular_classes(ctx)[0]
    c = strategies._cubic_power(ctx, roots).tolist()
    n = len(c)
    want = [[[(x * math.comb(j + k, j) * (-1) ** k) % p for x in c[j + k]] if j + k < n
             else [0, 0] for k in range(n)] for j in range(n)]
    assert strategies._shifted_power_rows(ctx, roots).tolist() == want


def test_evaluation_search_rejects_vanishing_entries(monkeypatch):
    # zero shifted-power rows make all four entries of every mu vanish
    ctx = FieldCtx(5)
    roots = enumerate_supersingular_classes(ctx)[0]
    monkeypatch.setattr(strategies, "_shifted_power_rows",
                        lambda ctx, roots: np.zeros((7, 7, 2), dtype=np.int64))
    with pytest.raises(ArithmeticError, match="vanished identically"):
        list(howe_type_points(ctx, roots, roots))
    monkeypatch.undo()
    # one vanishing mu, code 60 at p = 11, in a later block of one scale
    # each: the blocks before it have hits, and the search still raises
    ctx = FieldCtx(11)
    roots = enumerate_supersingular_classes(ctx)[0]
    whole = list(howe_type_points(ctx, roots, roots))
    scales = _PairEntries.scales

    def vanish(self, codes):
        return np.where((codes == 60)[:, None, None], 0, scales(self, codes))

    monkeypatch.setattr(_PairEntries, "scales", vanish)
    monkeypatch.setattr(strategies, "ROW_BLOCK", 10)
    before = [(lam, mu) for lam, mu in whole if mu[0] * 11 + mu[1] < 60]
    assert before
    with pytest.raises(ArithmeticError, match="vanished identically"):
        howe_type_points(ctx, roots, roots)


def test_strategy_a_agrees_with_its_bruteforce():
    for p in (5, 7, 11):
        fast = enumerate_a(FieldCtx(p))
        slow = enumerate_a_bruteforce(FieldCtx(p))
        assert fast.count == slow.count
        assert match_representatives(fast.representatives, slow.representatives) is not None


def test_no_howe_curve_at_p7():
    assert enumerate_a(FieldCtx(7)).count == 0
    assert enumerate_b(FieldCtx(7)).count == 0
    assert find_one(FieldCtx(7)) is None


def _all_orientations(C):
    """(T1, T2) for each of the 20 triples T1 of C's roots."""
    return [(T1, tuple(rt for rt in C.roots if rt not in T1))
            for T1 in itertools.combinations(C.roots, 3)]


def test_b_value_solver_matches_projective_scan(genus2_lists):
    for p in (11, 13):
        ctx = FieldCtx(p)
        lset = supersingular_lambda_set(ctx)
        for C in genus2_lists(p).curves:
            splits = _all_orientations(C)
            got = supersingular_b_values(ctx, lset, splits)
            assert len(got) == len(splits)
            for (T1, T2), bs in zip(splits, got):
                want = []
                for b in sorted(ctx.elements()) + [INF]:
                    if b in C.roots:
                        continue
                    q1 = QuarticModel(ctx, b, T1)
                    q2 = QuarticModel(ctx, b, T2)
                    if quartic_is_supersingular(q1) and quartic_is_supersingular(q2):
                        want.append(b)
                assert bs == want


@pytest.mark.parametrize("p", [q for q in range(7, 62) if is_prime(q)])
def test_batched_solver_matches_the_scalar_oracle(p, genus2_lists):
    ctx = FieldCtx(p)
    lset = supersingular_lambda_set(ctx)
    for C in genus2_lists(p).curves:
        splits = _all_orientations(C)
        want = [b_values_scalar(ctx, lset, split) for split in splits]
        assert supersingular_b_values(ctx, lset, splits) == want


@st.composite
def _random_curve_splits(draw):
    """A prime below 1000, six distinct roots in random order, and splits of them.

    Four primes, so the lambda-set memo computes each set once.
    """
    p = draw(st.sampled_from([7, 37, 409, 997]))
    ctx = FieldCtx(p)
    elem = st.builds(ctx.elem, st.integers(0, p - 1), st.integers(0, p - 1))
    roots = draw(st.lists(elem, min_size=6, max_size=6, unique=True))
    C = Genus2Curve(ctx, tuple(roots))
    return ctx, C, [(tuple(roots[:3]), tuple(roots[3:]))] + _all_orientations(C)


@settings(max_examples=60, deadline=None)
@given(_random_curve_splits())
def test_batched_solver_matches_the_scalar_oracle_on_random_curves(case):
    ctx, C, splits = case
    lset = supersingular_lambda_set(ctx)
    got = supersingular_b_values(ctx, lset, splits)
    assert got == [b_values_scalar(ctx, lset, split) for split in splits]
    assert all(b not in C.roots for bs in got for b in bs)


@pytest.mark.parametrize("p", [13, 17])
def test_fits_visit_each_split_once(p, genus2_lists):
    ctx = FieldCtx(p)
    lset = supersingular_lambda_set(ctx)
    for C in genus2_lists(p).curves:
        splits = _curve_splits(C)
        fits = [(T1, T2, b) for (T1, T2), bs in zip(splits, supersingular_b_values(ctx, lset, splits))
                for b in bs]
        assert all(T1[0] == C.roots[0] for T1, _, _ in fits)
        got = [(normalize_split(T1, T2), b) for T1, T2, b in fits]
        assert len(set(got)) == len(got)
        # no split is lost: both orientations of all 20 triples give the same fits
        splits = _all_orientations(C)
        want = set()
        for (T1, T2), bs in zip(splits, supersingular_b_values(ctx, lset, splits)):
            want.update((normalize_split(T1, T2), b) for b in bs)
        assert set(got) == want


def test_b_value_solver_is_symmetric_in_the_split(genus2_lists):
    ctx = FieldCtx(13)
    lset = supersingular_lambda_set(ctx)
    rng = random.Random(42)
    C = genus2_lists(13).curves[0]
    T1 = tuple(C.roots[:3])
    T2 = tuple(C.roots[3:])
    [base] = supersingular_b_values(ctx, lset, [(T1, T2)])
    orders = [(tuple(rng.sample(T1, 3)), tuple(rng.sample(T2, 3))) for _ in range(6)]
    orders.append((T2, T1))
    assert supersingular_b_values(ctx, lset, orders) == [base] * len(orders)


def test_curve_splits_are_the_triple_partitions(genus2_lists):
    # the 10 splits of each class at 13, in the order of the pairs that join
    # the first root
    for C in genus2_lists(13).curves:
        roots = C.roots
        want = [((roots[0],) + pair, tuple(rt for rt in roots[1:] if rt not in pair))
                for pair in itertools.combinations(roots[1:], 2)]
        assert _curve_splits(C) == want


def _orbit_oracle(ctx, lset, C):
    """The first fit of each orbit under the reduced automorphisms of C."""
    auts = automorphisms(C)
    seen = set()
    reps = []
    raw = 0
    splits = _curve_splits(C)
    for (T1, T2), bs in zip(splits, supersingular_b_values(ctx, lset, splits)):
        for b in bs:
            raw += 1
            key = (normalize_split(T1, T2), sort_key(b))
            if key in seen:
                continue
            for g in auts:
                gsplit = normalize_split([g(t) for t in T1], [g(t) for t in T2])
                seen.add((gsplit, sort_key(g(b))))
            reps.append((normalize_split(T1, T2), b))
    return raw, reps


def test_orbit_dedup_matches_naive_isomorphism_dedup(genus2_lists):
    # the Howe-key dedup keeps exactly the orbit oracle's fits, in order, on
    # every class at every prime up to 61: the whole list as one block, and
    # in blocks of 12 curves, as enumerate_b takes them, and of 5
    for p in (q for q in range(7, 62) if is_prime(q)):
        ctx = FieldCtx(p)
        lset = supersingular_lambda_set(ctx)
        curves = genus2_lists(p).curves
        want = [_orbit_oracle(ctx, lset, C) for C in curves]
        assert _fit_orbits(ctx, lset, curves) == want, p
        for step in (ROW_BLOCK // 10, 5):
            blocks = [curves[i:i + step] for i in range(0, len(curves), step)]
            assert [fit for block in blocks for fit in _fit_orbits(ctx, lset, block)] == want
    assert _fit_orbits(FieldCtx(13), supersingular_lambda_set(FieldCtx(13)), []) == []
    # and as many as a pairwise howe_isomorphic dedup at p = 13
    ctx = FieldCtx(13)
    lset = supersingular_lambda_set(ctx)
    for C in genus2_lists(13).curves:
        splits = _curve_splits(C)
        all_data = [HoweData(C, normalize_split(*split), b)
                    for split, bs in zip(splits, supersingular_b_values(ctx, lset, splits))
                    for b in bs]
        naive = []
        for H in all_data:
            if all(m is None for m in howe_isomorphic(ctx, [(H, K) for K in naive])):
                naive.append(H)
        [(raw, reps)] = _fit_orbits(ctx, lset, [C])
        assert raw == len(all_data)
        assert len(reps) == len(naive)


def test_fits_run_in_blocks_of_twelve_curves(monkeypatch, genus2_lists):
    # 78 classes at p = 53: six blocks of 12 and one of 6
    sizes = []
    real = strategies._fit_orbits

    def spy(ctx, lset, curves):
        sizes.append(len(curves))
        return real(ctx, lset, curves)

    monkeypatch.setattr(strategies, "_fit_orbits", spy)
    enumerate_b(FieldCtx(53), genus2=genus2_lists(53))
    assert sizes == [12] * 6 + [6]


def test_strategies_agree_on_counts_and_classes():
    for p in (11, 13):
        ra = enumerate_a(FieldCtx(p))
        rb = enumerate_b(FieldCtx(p))
        assert ra.count == rb.count
        assert match_representatives(ra.representatives, rb.representatives) is not None


def test_reports_are_deterministic():
    a1 = enumerate_a(FieldCtx(11)).to_jsonable()
    a2 = enumerate_a(FieldCtx(11)).to_jsonable()
    assert a1 == a2
    b1 = enumerate_b(FieldCtx(13)).to_jsonable()
    b2 = enumerate_b(FieldCtx(13)).to_jsonable()
    assert b1 == b2


def test_worker_pools_match_serial():
    sa = enumerate_a(FieldCtx(11)).to_jsonable()
    pa = enumerate_a(FieldCtx(11), workers=2).to_jsonable()
    assert sa == pa
    sb = enumerate_b(FieldCtx(13)).to_jsonable()
    pb = enumerate_b(FieldCtx(13), workers=2).to_jsonable()
    assert sb == pb


def test_strategy_a_worker_pool_matches_serial_at_29():
    # the table products at p = 29 (43 x 43 x 841) run BLAS threads inside
    # the forked pool workers
    serial = enumerate_a(FieldCtx(29)).to_jsonable()
    assert enumerate_a(FieldCtx(29), workers=2).to_jsonable() == serial


def test_worker_pool_maps_the_same_blocks(genus2_lists):
    # seven blocks of curves at p = 53 over at most pool_size(2, 7) = 2
    # processes give the serial report
    L = genus2_lists(53)
    assert strategies.pool_size(2, 7) <= 2
    serial = enumerate_b(FieldCtx(53), verify=True, genus2=L).to_jsonable()
    pooled = enumerate_b(FieldCtx(53), verify=True, workers=2, genus2=L).to_jsonable()
    assert pooled == serial and serial["count"] == 167


def test_representatives_are_superspecial_and_distinct():
    rb = enumerate_b(FieldCtx(13), verify=True)
    reps = rb.representatives
    for H in reps:
        assert is_superspecial_howe(H)
    pairs = list(itertools.combinations(reps, 2))
    assert pairs and howe_isomorphic(FieldCtx(13), pairs) == [None] * len(pairs)


def test_find_one_returns_verified_witnesses():
    H11 = find_one(FieldCtx(11))
    assert H11 is not None and is_superspecial_howe(H11)
    # p = 17 = 5 mod 6 takes the family shortcut
    H17 = find_one(FieldCtx(17))
    assert H17 is not None and is_superspecial_howe(H17)
    # p = 13 = 1 mod 6 goes through the glued seeds
    H13 = find_one(FieldCtx(13))
    assert H13 is not None and is_superspecial_howe(H13)


@pytest.mark.parametrize("p", [q for q, _, _ in TABLE1 if q % 6 == 1])
def test_find_one_is_the_first_fit_of_the_list(p, genus2_lists):
    # the glued seeds are tried unkeyed, yet the witness is the one a scan
    # of the class list in order gives: its first class with a split that
    # has a b, that split and its first b, here by the scalar solver
    L = genus2_lists(p)
    lset = supersingular_lambda_set(L.ctx)
    want = next(HoweData(C, split, bs[0]) for C in L for split in _curve_splits(C)
                for bs in [b_values_scalar(L.ctx, lset, split)] if bs)
    assert howe_jsonable(find_one(L.ctx)) == howe_jsonable(want)


def test_find_one_stops_after_the_first_pair_of_classes(monkeypatch):
    # at 409 and 10009 the seeds glued from the first of 34 * 35 / 2 and of
    # 834 * 835 / 2 pairs of elliptic classes hold a fit: nothing is keyed
    # and the genus-2 list is never walked
    pairs = []
    real = strategies._glue_seeds

    def counting(ctx, classes):
        for seeds in real(ctx, classes):
            pairs.append(seeds)
            yield seeds

    def refuse(*args):
        raise AssertionError("find_one went past the glued seeds")

    monkeypatch.setattr(strategies, "_glue_seeds", counting)
    monkeypatch.setattr(strategies, "superspecial_genus2_list", refuse)
    monkeypatch.setattr(genus2, "igusa_key", refuse)
    for p in (409, 10009):
        pairs.clear()
        assert find_one(FieldCtx(p)) is not None
        assert len(pairs) == 1


def test_lambda_set_is_computed_once_per_prime(monkeypatch):
    p = 37
    calls = []
    real = ellcurve._compute_lambda_set

    def counting(ctx):
        calls.append(ctx.p)
        return real(ctx)

    monkeypatch.setattr(ellcurve, "_compute_lambda_set", counting)
    for run in (find_one, enumerate_b):
        calls.clear()
        ctx = FieldCtx(p)
        assert run(ctx) is not None
        assert len(calls) == 1, run.__name__
        assert run(ctx) is not None and len(calls) == 1, run.__name__
    ctx = FieldCtx(p)
    lset = supersingular_lambda_set(ctx)
    assert lset is supersingular_lambda_set(ctx) and len(calls) == 2
    assert lset.dtype == np.int64 and not lset.flags.writeable


def test_fit_tasks_carry_the_parents_lambda_set(monkeypatch, genus2_lists):
    # enumerate_b computes the lambda set once, here, and hands it to every
    # block's task; the workers build none
    tasks = []
    real = strategies.pool_map

    def spy(fn, batch, workers):
        tasks.extend(batch)
        return real(fn, batch, workers)

    monkeypatch.setattr(strategies, "pool_map", spy)
    ctx = FieldCtx(53)
    enumerate_b(ctx, genus2=genus2_lists(53))
    lset = supersingular_lambda_set(ctx)
    assert len(tasks) == 7
    assert all(task[0] is ctx and task[1] is lset for task in tasks)


def test_match_representatives_edge_cases(monkeypatch):
    ra = enumerate_b(FieldCtx(11))
    reps = ra.representatives
    assert match_representatives([], []) == []
    assert match_representatives(reps, list(reversed(reps))) is not None
    assert match_representatives(reps, reps[:-1]) is None
    assert match_representatives(reps[:-1], reps) is None
    # a genuinely different list of the right length cannot match
    swapped = reps[:-1] + [reps[0]]
    assert match_representatives(reps, swapped) is None
    assert match_representatives(swapped, reps) is None
    # every key pairing is confirmed by an explicit map, all in one call
    calls = []

    def spy(ctx, pairs):
        calls.append(len(pairs))
        return howe.howe_isomorphic(ctx, pairs)

    monkeypatch.setattr(strategies, "howe_isomorphic", spy)
    assert match_representatives(reps, list(reversed(reps))) is not None
    assert calls == [len(reps)]
    monkeypatch.setattr(strategies, "howe_isomorphic", lambda ctx, pairs: [None] * len(pairs))
    assert match_representatives(reps, list(reversed(reps))) is None


def test_verification_rejects_bad_representative():
    ctx = FieldCtx(13)
    f1 = UniPoly.from_int_coeffs(ctx, [-1, 0, 0, 1])
    f2 = UniPoly.from_int_coeffs(ctx, [1, 0, 0, 1])
    bad = howe_from_cubics(ctx, f1, f2)  # not superspecial at p = 13
    with pytest.raises(VerificationError):
        _verify_representatives(ctx, [bad])


def test_verification_checks_each_genus2_curve_once(monkeypatch):
    ctx = FieldCtx(17)
    reps = enumerate_b(ctx).representatives
    curves = {H.curve.roots for H in reps}
    assert len(curves) < len(reps)
    assert len(curves) == 5
    calls = []
    real = howe.cartier_manin_rows

    def counting(ctx, batch):
        calls.append(list(batch))
        return real(ctx, batch)

    # one batch, one row per distinct curve in first-seen order
    monkeypatch.setattr(howe, "cartier_manin_rows", counting)
    _verify_representatives(ctx, reps)
    assert len(calls) == 1
    assert sorted(calls[0]) == sorted(curves)
    assert calls[0] == list(dict.fromkeys(H.curve.roots for H in reps))
    monkeypatch.undo()

    # a bad branch point on a curve that already passed is still caught
    H = reps[0]
    b = next(b for b in ctx.elements() if b not in H.curve.roots
             and not is_superspecial_howe(HoweData(H.curve, H.split, b)))
    bad = HoweData(H.curve, H.split, b)
    with pytest.raises(VerificationError, match="fails the superspeciality re-check"):
        _verify_representatives(ctx, reps + [bad])


def test_verification_runs_one_hasse_test_per_lambda(monkeypatch, genus2_lists):
    ctx = FieldCtx(53)
    reps = enumerate_b(ctx, genus2=genus2_lists(53)).representatives
    covers = [Q for H in reps for Q in quartics(H)]
    lams = {lambda_of_quartic(Q) for Q in covers}
    assert len(covers) == 334 and len(lams) == 26
    calls = []
    real = howe.deuring_vanishes

    def counting(ctx, values):
        calls.append(list(values))
        return real(ctx, values)

    # one Hasse test over the distinct lambdas in first-seen order
    monkeypatch.setattr(howe, "deuring_vanishes", counting)
    _verify_representatives(ctx, reps)
    assert len(calls) == 1
    assert len(calls[0]) == len(lams) and set(calls[0]) == lams
    assert calls[0] == list(dict.fromkeys(lambda_of_quartic(Q) for Q in covers))

    # a representative whose lambda is not supersingular, after good ones,
    # is the first failure reported, with the same message as before
    lset = supersingular_lambda_set(ctx)

    def bad_after(H):
        b = next(b for b in ctx.elements() if b not in H.curve.roots
                 and not in_lambda_set(ctx, lset, lambda_of_quartic(QuarticModel(ctx, b, H.split[0]))))
        return HoweData(H.curve, H.split, b)

    first, second = bad_after(reps[3]), bad_after(reps[-1])
    want = ("representative %r at p=53 fails the superspeciality re-check"
            % (howe_jsonable(first),))
    with pytest.raises(VerificationError) as err:
        _verify_representatives(ctx, reps[:10] + [first] + reps[10:] + [second])
    assert str(err.value) == want


def test_report_jsonable_shape():
    rb = enumerate_b(FieldCtx(11))
    doc = rb.to_jsonable()
    assert doc["p"] == 11 and doc["strategy"] == "b" and doc["count"] == 4
    assert doc["ratio"] == pytest.approx(3.462, abs=5e-4)
    assert len(doc["representatives"]) == 4
    for rep in doc["representatives"]:
        assert set(rep) == {"roots", "split", "b"}
        assert len(rep["roots"]) == 6
        assert sorted(rep["split"][0] + rep["split"][1]) == list(range(6))
    assert "elapsed" not in doc
