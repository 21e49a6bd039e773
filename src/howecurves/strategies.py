"""The two enumeration engines for superspecial Howe curves.

Strategy "a" walks pairs of supersingular elliptic curves.  The branch data
of the fiber product is pinned down by two field parameters: a scale mu
applied to the first cubic and a translation lam applied to the second, the
third projective parameter being normalized to 1.  For each mu the four
Cartier-Manin entries of y^2 = f1*f2 become polynomials in lam of degree
below p^2, and their common zeros in F_{p^2} are exactly the superspecial
fibers.  They are found by evaluation at every lam: one float64 matrix
product per block of scales gives the first entry's zeros, and the other
three are evaluated exactly only there.

Strategy "b" walks the complete list of superspecial genus-2 curves instead,
and for each of the 10 splits of a curve's Weierstrass points into two
triples looks for a fourth branch point b that makes both cubic halves
supersingular.  The b values are the supersingular lambda set pulled back
through the first half's cross-ratio map and tested through one composed
Mobius map for the second half, so each split costs O(p) instead of a p^2
scan.  The curves go in blocks of 12, whose 120 splits share one array pass
for their b values and one for the Howe keys of their fits.

Both engines keep the first hit of each howe_key, return the same report
shape and must agree; the second is far faster and is the one behind the
table and CLI defaults.
"""

from __future__ import annotations

import itertools
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .arith import (
    INF,
    ROW_BLOCK,
    FieldCtx,
    FqElem,
    ProjPoint,
    UniPoly,
    _mul_stacked,
    cross_ratio_maps,
    fq_plane,
    matmul_fq,
    mobius_compose,
    mobius_eval_array,
    mobius_eval_codes,
    mobius_inverse,
    plane_product,
)
from .ellcurve import _powers, enumerate_supersingular_classes, supersingular_lambda_set
from .genus2 import (
    _TRIPLE_PARTITIONS,
    Genus2Curve,
    SuperspecialList,
    _glue_seeds,
    superspecial_genus2_list,
)
from .howe import (
    HoweData,
    howe_isomorphic,
    howe_key,
    special_family,
    superspecial_howe_flags,
)

DEFAULT_SEED = 0xC0FFEE  # the --seed cli echoes in each report; no result reads it


class VerificationError(Exception):
    """An enumerated representative failed its independent re-check."""


@dataclass
class EnumReport:
    """Outcome of one enumeration run."""

    p: int
    strategy: str
    # hits before isomorphism dedup: (lam, mu) points for strategy a, and
    # (split, b) fits for strategy b, one orientation per split
    raw_count: int
    genus2_classes: Optional[int]     # size of the superspecial list (strategy b)
    elapsed: float
    representatives: List[HoweData] = field(default_factory=list)

    @property
    def count(self) -> int:
        return len(self.representatives)

    @property
    def ratio(self) -> float:  # count / (p^3 / 1152)
        return float(Fraction(1152 * self.count, self.p ** 3))

    def to_jsonable(self) -> dict:
        # elapsed is deliberately not serialized: reports with equal inputs
        # must serialize byte-identically across runs
        return {
            "p": self.p,
            "strategy": self.strategy,
            "count": self.count,
            "ratio": round(self.ratio, 6),
            "raw_count": self.raw_count,
            "genus2_classes": self.genus2_classes,
            "representatives": [howe_jsonable(H) for H in self.representatives],
        }


def _point_jsonable(pt: ProjPoint):
    return "inf" if pt is INF else [pt[0], pt[1]]


def howe_jsonable(H: HoweData) -> dict:
    # split parts are encoded as index triples into the sorted root list
    roots = list(H.curve.roots)
    return {
        "roots": [[rt[0], rt[1]] for rt in roots],
        "split": [sorted(roots.index(rt) for rt in part) for part in H.split],
        "b": _point_jsonable(H.b),
    }


# ---------------------------------------------------------------------------
# strategy (a): elliptic pair scan
# ---------------------------------------------------------------------------


def _cubic_power(ctx: FieldCtx, roots: tuple):
    """Coefficients of g^m, m = (p-1)/2, as a (3m+1, 2) array.

    g = x^3 + Ax + B is the cubic with these roots, which sum to 0.
    """
    m = (ctx.p - 1) // 2
    g = UniPoly.from_roots(ctx, roots).pow_truncated(m, 3 * m)
    out = np.zeros((3 * m + 1, 2), dtype=np.int64)
    out[: g.c0.size, 0] = g.c0
    out[: g.c1.size, 1] = g.c1
    return out


def _shifted_power_rows(ctx: FieldCtx, roots: tuple):
    """Coefficient rows of g(x - lam)^m in lam, for the cubic g with these roots.

    Row j of the (3m+1, 3m+1, 2) result holds the x^j coefficient of
    g(x-lam)^m as a polynomial in lam, zero-padded to degree 3m:
    sum_k c_{j+k} * C(j+k, j) * (-1)^k * lam^k, with c the coefficients of
    g^m.  As j + k <= 3m < 2p, Lucas's theorem makes C(j+k, j) the binomial
    of the residues mod p, and zero where j mod p exceeds (j+k) mod p; the
    factorials of the residues come from the inverse table.
    """
    p = ctx.p
    c = _cubic_power(ctx, roots)
    n = len(c)
    fact = np.array(list(itertools.accumulate(range(1, p), lambda a, b: a * b % p, initial=1)))
    inv_fact = np.array(list(itertools.accumulate(ctx.inv_table().tolist()[1:],
                                                  lambda a, b: a * b % p, initial=1)))
    j, k = np.ogrid[:n, :n]
    s0, j0 = (j + k) % p, j % p
    binom = fact[s0] * inv_fact[j0] % p * inv_fact[(s0 - j0) % p] % p
    coef = np.where((j + k < n) & (j0 <= s0), binom * (1 - 2 * (k % 2)) % p, 0)
    return c[np.minimum(j + k, n - 1)] * coef[..., None] % p


def _power_table(ctx: FieldCtx):
    """V[k, x] = x^k for k <= 3m, m = (p-1)/2, over every x in F_{p^2} by code c0 p + c1.

    A (3m+1, p^2, 2) array; the field keeps only its plane (_power_plane).
    """
    p = ctx.p
    y0, y1 = _powers(ctx, *np.divmod(np.arange(p * p), p), 3 * ((p - 1) // 2))
    return np.stack([y0.T, y1.T], axis=-1)


def _power_plane(ctx: FieldCtx):
    """The fq_plane of the power table, its top rows [V0 | V1]; take it through ctx.cached."""
    return fq_plane(ctx, _power_table(ctx))


def _zero_mask(ctx: FieldCtx, scales, plane):
    """Where the F_{p^2} product of scales, (k, n, 2), and plane's table vanishes.

    Returns a (k, l) bool array, plane being the (2n, 2l) fq_plane of an
    (n, l, 2) table.  The test reads the unreduced plane_product and stays
    in float64: every output is an integer z < 2 n p^2, exact while that is
    below 2^53 (see MAX_P), and rint(z / p) * p == z holds exactly when p
    divides z.
    """
    z = plane_product(scales, plane)
    w = np.rint(z / ctx.p)
    w *= ctx.p
    zero = w == z
    half = plane.shape[1] // 2
    return zero[:, :half] & zero[:, half:]


class _PairEntries:
    """The four entry polynomials of one class pair, ready to evaluate at every lam.

    With f1 = x^3 + A1 mu^2 x + B1 mu^3, the first cubic with its roots
    scaled by mu, the x^i coefficient of f1^m is
    hm[i] mu^(3m-i), hm that of the unscaled cubic's power.  So the x^j
    coefficient of (f1 f2)^m is sum_i hm[i] mu^(3m-i) rows[j-i], rows from
    _shifted_power_rows of the second cubic: the scale matrix
    S[mu, i] = hm[i] mu^(3m-i) times a Toeplitz table T, the rows j-i taken
    down the diagonal.  The entries are the coefficients of x^(p-1),
    x^(2p-1), x^(p-2) and x^(2p-2).  The float64 plane (_power_plane) of
    the field's table of powers V[k, x] = x^k gives the powers of mu in S
    and, by one matmul_fq, the values of every row of rows at every lam,
    from which each entry's T V is a reversed window, so a block's values
    are S (T V).  Entry 0's T V, over columns i < p, is also kept as its
    fq_plane, so its zeros on a block of scales take one real product
    (_zero_mask).
    """

    def __init__(self, ctx: FieldCtx, roots1: tuple, roots2: tuple):
        self.ctx = ctx
        p = ctx.p
        top = 3 * ((p - 1) // 2)
        self.hm = _cubic_power(ctx, roots1)
        self.powers = ctx.cached(_power_plane)
        values = matmul_fq(ctx, _shifted_power_rows(ctx, roots2), self.powers)
        self.tables = []
        for j in (p - 1, 2 * p - 1, p - 2, 2 * p - 2):
            lo, hi = max(0, j - top), min(top, j)
            self.tables.append((lo, hi + 1, values[j - hi: j - lo + 1][::-1]))
        self.plane = fq_plane(ctx, self.tables[0][2])

    def scales(self, codes):
        """The (len(codes), 3m+1, 2) scale matrix S of the mu with these codes."""
        v = self.powers[len(self.hm) - 1::-1]  # [V0 | V1], rows 3m down to 0
        mu = np.stack([v[:, codes], v[:, codes + self.ctx.p ** 2]], axis=-1).astype(np.int64)
        return _mul_stacked(self.ctx, self.hm, mu.swapaxes(0, 1))

    def zeros(self, scales):
        """The rows and lam codes of the zeros of entry 0 on the scale matrix."""
        lo, hi, _ = self.tables[0]
        return np.nonzero(_zero_mask(self.ctx, scales[:, lo:hi], self.plane))

    def values_at(self, scales, k: int, rows, lams):
        """Entry k at the points (scale row rows[t], lam of code lams[t])."""
        lo, hi, table = self.tables[k]
        terms = _mul_stacked(self.ctx, scales[rows, lo:hi], table[:, lams].swapaxes(0, 1))
        return terms.sum(axis=1) % self.ctx.p


def howe_type_points(ctx: FieldCtx, roots1: tuple, roots2: tuple
                     ) -> List[Tuple[FqElem, FqElem]]:
    """All (lam, mu) in F_{p^2} x F_{p^2}* making y^2 = f1*f2 superspecial.

    roots1 and roots2 are the 2-torsion triples of two classes, each the
    roots of a cubic x^3 + Ax + B; f1 = x^3 + A1 mu^2 x + B1 mu^3 has roots
    mu * roots1 and f2 = (x-lam)^3 + A2 (x-lam) + B2 has roots lam + roots2.  For
    fixed mu the four Cartier-Manin entries of the sextic are polynomials in
    lam of degree at most 3(p-1)/2 < p^2, so the hits are their common zeros
    in F_{p^2}, found by evaluation at every lam (_PairEntries), whose
    tables take O(p^3) words.  Entry 0's zeros come from one float64
    product per block of ROW_BLOCK**2 // (2 p^2) nonzero mu, at least one,
    so about ROW_BLOCK**2 real outputs; entries 1-3 are evaluated exactly
    only at those zeros.  A mu whose entries vanish at all p^2 points has four zero
    entry polynomials, and raises.  Hits come in ctx.elements() order of
    mu, each mu's lam ascending.  The third projective parameter of the
    branch data is normalized to 1 throughout.
    """
    p = ctx.p
    q = p * p
    pair = _PairEntries(ctx, roots1, roots2)
    size = max(1, ROW_BLOCK ** 2 // (2 * q))
    hits = []
    for start in range(1, q, size):
        codes = np.arange(start, min(start + size, q))
        scales = pair.scales(codes)
        rows, lams = pair.zeros(scales)
        for k in (1, 2, 3):
            if not len(rows):
                break
            keep = ~pair.values_at(scales, k, rows, lams).any(axis=-1)
            rows, lams = rows[keep], lams[keep]
        if len(rows) and np.bincount(rows).max() == q:
            raise ArithmeticError("all four entry polynomials vanished identically")
        hits.extend((divmod(lam, p), divmod(mu, p))
                    for mu, lam in zip(codes[rows].tolist(), lams.tolist()))
    return hits


def _howe_from_pair_hit(ctx: FieldCtx, rho1: tuple, rho2: tuple,
                        lam: FqElem, mu: FqElem) -> HoweData:
    w1 = tuple(ctx.mul(mu, t) for t in rho1)
    w2 = tuple(ctx.add(lam, t) for t in rho2)
    if set(w1) & set(w2):
        raise ArithmeticError("cubic halves share a root at a claimed hit")
    C = Genus2Curve(ctx, w1 + w2)
    return HoweData(C, (w1, w2), INF)


def enumerate_a(ctx: FieldCtx, verify: bool = False, workers: int = 1) -> EnumReport:
    """Enumerate superspecial Howe curves by scanning elliptic pairs."""
    t0 = time.perf_counter()
    classes = enumerate_supersingular_classes(ctx)
    pairs = [(s, t) for i, s in enumerate(classes) for t in classes[i:]]
    seen = set()
    reps: List[HoweData] = []
    hit_lists = pool_map(howe_type_points, [(ctx, s, t) for s, t in pairs], workers)
    data = [_howe_from_pair_hit(ctx, s, t, lam, mu)
            for (s, t), hits in zip(pairs, hit_lists) for lam, mu in hits]
    for H, key in zip(data, howe_key(ctx, [(H.split, H.b) for H in data])):
        if key not in seen:
            seen.add(key)
            reps.append(H)
    reps.sort(key=lambda H: H.sort_value())
    if verify:
        _verify_representatives(ctx, reps)
    return EnumReport(ctx.p, "a", len(data), None, time.perf_counter() - t0, reps)


# ---------------------------------------------------------------------------
# strategy (b): genus-2 first
# ---------------------------------------------------------------------------


def supersingular_b_values(ctx: FieldCtx, codes: np.ndarray, splits: Sequence[tuple]) -> list:
    """For each split (T1, T2), the b making both quartic halves supersingular.

    The half on T = (t1, t2, t3) is y^2 = (x-b)(x-t1)(x-t2)(x-t3).  Its
    Legendre invariant is the cross-ratio (b, t1; t2, t3), a Mobius function
    M_T of b, so the good b for the first half are the preimages under
    M1 = M_T1 of the lambda set, given as its sorted codes
    (supersingular_lambda_set); one composed map N = M2 M1^-1 tests the
    second half on each of them.  Which of the six cross-ratio orderings is
    used does not matter: the lambda set is stable under all of them.  The
    matrices of M1^-1 (the adjugate) and N of all splits are built as
    arrays, every N runs over the whole lambda array in one pass,
    membership is a search in the codes, and only the hits are pulled back
    through M1^-1, to INF where its denominator vanishes.  No lambda is 0,
    1 or INF, so no b is a root.  Each list is sorted by the projective sort
    key, INF last.
    """
    p = ctx.p
    q = p * p
    triples = np.array([T1 + T2 for T1, T2 in splits], dtype=np.int64).reshape(-1, 2, 3, 2)
    m1, m2 = np.moveaxis(cross_ratio_maps(ctx, triples), 1, 0)
    back = mobius_inverse(ctx, m1)
    maps = mobius_compose(ctx, m2, back)
    y0, y1, _ = mobius_eval_array(ctx, maps[:, None], *np.divmod(codes, p))
    # an INF image reads as the code 0 of the point 0, which is no lambda
    images = y0 * p + y1
    pos = np.minimum(np.searchsorted(codes, images), len(codes) - 1)
    rows, cols = np.nonzero(codes[pos] == images)
    found = mobius_eval_codes(ctx, back[rows], codes[cols])
    out = [[] for _ in splits]
    for row, code in sorted(zip(rows.tolist(), found.tolist())):
        out[row].append(INF if code == q else divmod(code, p))
    return out


def _curve_splits(C: Genus2Curve) -> list:
    """The 10 splits (T1, T2) of C's roots, T1 holding the first root.

    The roots are sorted, so each split is already in normalize_split's form.
    """
    return [(tuple(C.roots[i] for i in T1), tuple(C.roots[i] for i in T2))
            for T1, T2 in _TRIPLE_PARTITIONS]


def _fit_orbits(ctx: FieldCtx, lset: np.ndarray, curves: Sequence[Genus2Curve]) -> list:
    """The raw fit count and the first (split, b) fit of each Howe key, per curve.

    On one curve, equal keys mean one orbit under its reduced automorphisms.
    The b values of all splits of the block come from one
    supersingular_b_values call and the keys of all its fits from one
    howe_key call.
    """
    splits = [split for C in curves for split in _curve_splits(C)]
    fits, owners = [], []
    for idx, (split, bs) in enumerate(zip(splits, supersingular_b_values(ctx, lset, splits))):
        fits.extend((split, b) for b in bs)
        owners.extend([idx // 10] * len(bs))
    raw = [0] * len(curves)
    reps = [[] for _ in curves]
    seen = set()
    for i, (split, b), key in zip(owners, fits, howe_key(ctx, fits)):
        raw[i] += 1
        if (i, key) not in seen:
            seen.add((i, key))
            reps[i].append((split, b))
    return list(zip(raw, reps))


def enumerate_b(ctx: FieldCtx, verify: bool = False, workers: int = 1,
                genus2: Optional[SuperspecialList] = None) -> EnumReport:
    """Enumerate superspecial Howe curves from the superspecial genus-2 list.

    Distinct list entries can never carry isomorphic Howe data (the genus-2
    quotient is an isomorphism invariant), so deduplication is local to each
    curve: the first (split, b) fit of each Howe key.  The curves go to
    _fit_orbits in blocks of up to ROW_BLOCK split rows, 10 per curve, in
    this process or in a pool.
    """
    t0 = time.perf_counter()
    L = genus2 if genus2 is not None else superspecial_genus2_list(ctx)
    step = ROW_BLOCK // 10
    blocks = [L.curves[start:start + step] for start in range(0, len(L), step)]
    lset = supersingular_lambda_set(ctx)
    results = pool_map(_fit_orbits, [(ctx, lset, block) for block in blocks], workers)
    raw = 0
    reps: List[HoweData] = []
    for block, orbits in zip(blocks, results):
        for C, (raw_c, fits) in zip(block, orbits):
            raw += raw_c
            reps.extend(HoweData(C, split, b) for split, b in fits)
    reps.sort(key=lambda H: H.sort_value())
    if verify:
        _verify_representatives(ctx, reps)
    return EnumReport(ctx.p, "b", raw, len(L), time.perf_counter() - t0, reps)


def _first_fit(ctx: FieldCtx, lset: np.ndarray, curves) -> Optional[HoweData]:
    """The first b of the first split that has one, on the first curve with such a split."""
    for C in curves:
        splits = _curve_splits(C)
        for (T1, T2), bs in zip(splits, supersingular_b_values(ctx, lset, splits)):
            if bs:
                return HoweData(C, (T1, T2), bs[0])
    return None


def find_one(ctx: FieldCtx) -> Optional[HoweData]:
    """One superspecial Howe curve in characteristic p, or None.

    For p = 5 mod 6 the cubic-split family member with a = -1 is returned
    untested: the family is superspecial at every such p, and `exists
    --verify` re-checks it like any other witness.  Otherwise the glued
    seed curves are tried unkeyed, gluing one pair of elliptic classes at a
    time, and the first b of the first split admitting one wins.  A Mobius map
    between isomorphic models carries fits to fits, so the first seed that
    fits is the first model of its class, the curve the list would hold.
    Only if no seed fits is superspecial_genus2_list scanned in its order;
    exhausting it without a fit proves nonexistence (that settles p = 7).
    """
    if ctx.p % 6 == 5:
        return special_family(ctx, ctx.elem(-1))
    lset = supersingular_lambda_set(ctx)
    seeds = (Genus2Curve(ctx, roots)
             for batch in _glue_seeds(ctx, enumerate_supersingular_classes(ctx)) for roots in batch)
    return _first_fit(ctx, lset, seeds) or _first_fit(ctx, lset, superspecial_genus2_list(ctx))


def match_representatives(reps1: List[HoweData], reps2: List[HoweData]
                          ) -> Optional[list]:
    """Pair the two representative lists class by class, or None if impossible.

    Entries are paired by Howe key, and each pair is confirmed by an explicit
    howe_isomorphic map.  The return value maps each entry of the first list
    to the index of its partner in the second.
    """
    if len(reps1) != len(reps2):
        return None
    if not reps1:
        return []
    ctx = reps1[0].curve.ctx
    index = {key: idx for idx, key in enumerate(howe_key(ctx, [(K.split, K.b) for K in reps2]))}
    pairing = [index.get(key) for key in howe_key(ctx, [(H.split, H.b) for H in reps1])]
    if None in pairing or len(set(pairing)) != len(pairing):
        return None
    maps = howe_isomorphic(ctx, [(H, reps2[idx]) for H, idx in zip(reps1, pairing)])
    return None if any(m is None for m in maps) else pairing


def _verify_representatives(ctx: FieldCtx, reps: List[HoweData]) -> None:
    """Independent re-check: superspeciality of every representative.

    Uses the direct criterion of superspecial_howe_flags (quartic Legendre
    invariants, computed here afresh, through the Hasse polynomial, and
    Cartier-Manin entries of the sextic), not the search path that produced
    the representative; the error names the first representative that
    fails, in list order.
    """
    for H, ok in zip(reps, superspecial_howe_flags(ctx, reps)):
        if not ok:
            raise VerificationError(
                "representative %r at p=%d fails the superspeciality re-check"
                % (howe_jsonable(H), ctx.p))


# ---------------------------------------------------------------------------
# the worker map and its tasks
# ---------------------------------------------------------------------------

def pool_size(workers: int, tasks: int) -> int:
    """Processes for a pool of tasks: at most workers, the tasks and the CPUs.

    Results never depend on the count.  A pool under the fork start method
    starts all its processes at the first submit, so an unbounded count
    would fork that many.
    """
    return max(1, min(workers, tasks, os.cpu_count() or 1))


def pool_map(fn, tasks: list, workers: int) -> list:
    """[fn(*task) for task in tasks], in this process when workers == 1.

    Otherwise the tasks run in a pool of pool_size(workers, len(tasks))
    processes, in chunks of about an eighth of each process's share.  fn
    and the tasks must pickle, and each task carries all it needs: its
    field, with whatever the field has cached, and any per-prime data the
    parent computed once, or only the prime when each task builds its own
    field.
    """
    if workers == 1:
        return [fn(*task) for task in tasks]
    workers = pool_size(workers, len(tasks))
    chunk = max(1, len(tasks) // (8 * workers))
    with ProcessPoolExecutor(max_workers=workers) as ex:
        return list(ex.map(fn, *zip(*tasks), chunksize=chunk))
