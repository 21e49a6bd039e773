"""End-to-end acceptance gate.

Twelve criteria, one test and one summary line each.  Every test computes its
own pass flag first, records it (so the terminal summary always carries a
line, even on a crash), and only then asserts.  Time budgets are wall-clock
on the machine running the suite.
"""

import hashlib
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

from howecurves import (
    DEFAULT_SEED,
    INF,
    FieldCtx,
    Genus2Curve,
    HoweData,
    MobiusMap,
    UniPoly,
    enumerate_a,
    enumerate_b,
    find_one,
    glue_elliptic_pair,
    howe_isomorphic,
    howe_type_points,
    is_prime,
    is_superspecial_howe,
    match_representatives,
    normalize_split,
    richelot_codomains,
    special_family,
    supersingular_b_values,
    supersingular_lambda_set,
)
from howecurves.cli import TABLE1, main
from howecurves.ellcurve import enumerate_supersingular_classes
from howecurves.genus2 import cartier_manin_rows, iko_window
from oracles import (
    QuarticModel,
    cubic_curve,
    is_superspecial,
    is_superspecial_howe_scalar,
    isomorphic,
    quadratic_splittings,
    quartic_is_supersingular,
    splitting_delta,
)

# class counts n(p) for the small-prime table check
SMALL_COUNTS = {
    11: 4, 13: 3, 17: 10, 19: 4, 23: 33, 29: 45, 31: 59,
    37: 41, 41: 105, 43: 79, 47: 235, 53: 167, 59: 259, 61: 243,
}


# sha256 of json.dumps(enumerate_b(FieldCtx(199), verify=True).to_jsonable()
# with "seed": DEFAULT_SEED added, as `enumerate` writes it, sort_keys=True),
# pinned before the fit phase was batched
PINNED_REPORT_199 = "1e8c7dc74bcf83d56c5154b0129c29e205c74b8dfcb2bf64521ae009b602abc0"


def _primes(lo, hi):
    return [q for q in range(lo, hi + 1) if is_prime(q)]


def test_criterion_1_table_counts_11_to_61(criterion, capsys):
    ok = False
    detail = "did not complete"
    try:
        t0 = time.time()
        code = main(["table", "--pmin", "11", "--pmax", "61",
                     "--strategy", "B", "--verify", "--format", "json"])
        elapsed = time.time() - t0
        doc = json.loads(capsys.readouterr().out)
        got = {row["p"]: row["n"] for row in doc["rows"]}
        ok = (code == 0 and got == SMALL_COUNTS
              and doc["verified"]["mismatches"] == [] and elapsed < 300.0)
        detail = "14 primes, %.1fs (budget 300s), exit %d" % (elapsed, code)
        if got != SMALL_COUNTS:
            detail += "; counts off: %r" % {
                q: (got.get(q), SMALL_COUNTS[q])
                for q in SMALL_COUNTS if got.get(q) != SMALL_COUNTS[q]
            }
    finally:
        criterion(1, "table of class counts, 11 <= p <= 61, strategy b verified", ok, detail)
    assert ok, detail


def test_criterion_2_count_at_199(criterion, genus2_lists):
    ok = False
    detail = "did not complete"
    try:
        t0 = time.time()
        L = genus2_lists(199)
        rep = enumerate_b(FieldCtx(199), verify=True, genus2=L)
        elapsed = time.time() - t0
        # the report's JSON, representatives included, pinned by its sha256
        doc = dict(rep.to_jsonable(), seed=DEFAULT_SEED)
        digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode())
        pinned = digest.hexdigest() == PINNED_REPORT_199
        ok = rep.count == 8351 and pinned and elapsed < 900.0
        detail = "n(199) = %d (want 8351), %.1fs (budget 900s)" % (rep.count, elapsed)
        if not pinned:
            detail += "; report differs from its pinned digest"
    finally:
        criterion(2, "exact class count at p = 199", ok, detail)
    assert ok, detail


def test_criterion_3_strategies_agree(criterion, genus2_lists):
    ok = False
    detail = "did not complete"
    try:
        agreed = []
        for p in _primes(11, 43):
            ra = enumerate_a(FieldCtx(p))
            rb = enumerate_b(FieldCtx(p), genus2=genus2_lists(p))
            same = (ra.count == rb.count and
                    match_representatives(ra.representatives, rb.representatives) is not None)
            agreed.append((p, same))
        ok = all(same for _, same in agreed)
        detail = "counts and classes match at every prime p in 11..43" if ok else \
            "failures at %s" % [p for p, same in agreed if not same]
    finally:
        criterion(3, "strategy a and strategy b produce the same classes", ok, detail)
    assert ok, detail


def test_criterion_4_nonexistence_at_7(criterion, capsys):
    ok = False
    detail = "did not complete"
    try:
        code = main(["enumerate", "--p", "7", "--strategy", "both", "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        counts = {s: r["count"] for s, r in doc["reports"].items()}
        ok = code == 0 and counts == {"a": 0, "b": 0} and doc["agree"] is True
        detail = "both strategies report n(7) = 0, exit %d" % code
        if not ok:
            detail = "counts %r, agree %r, exit %d" % (counts, doc["agree"], code)
    finally:
        criterion(4, "nonexistence at p = 7", ok, detail)
    assert ok, detail


def test_criterion_5_existence_sweep(criterion):
    ok = False
    detail = "did not complete"
    try:
        t0 = time.time()
        misses = []
        bad = []
        primes = _primes(11, 997)
        for q in primes:
            H = find_one(FieldCtx(q))
            if H is None:
                misses.append(q)
            elif not is_superspecial_howe(H):
                bad.append(q)
        elapsed = time.time() - t0
        ok = not misses and not bad and elapsed < 600.0
        detail = "%d primes, %.1fs (budget 600s)" % (len(primes), elapsed)
        if misses or bad:
            detail += "; no witness at %s, failed re-check at %s" % (misses, bad)
    finally:
        criterion(5, "a verified witness for every prime 7 < p < 1000", ok, detail)
    assert ok, detail


def test_criterion_6_split_cubic_family(criterion):
    ok = False
    detail = "did not complete"
    try:
        failures = []
        primes = [q for q in _primes(5, 997) if q % 6 == 5]
        for q in primes:
            ctx = FieldCtx(q)
            for a in (ctx.elem(-1), ctx.inv(ctx.elem(4))):
                if not is_superspecial_howe(special_family(ctx, a)):
                    failures.append((q, a))
        ok = not failures
        detail = "%d primes = 5 mod 6, both parameter values" % len(primes)
        if failures:
            detail += "; failures %s" % failures
    finally:
        criterion(6, "split-cubic family is superspecial for p = 5 mod 6", ok, detail)
    assert ok, detail


def test_criterion_7_genus2_count_window(criterion, genus2_lists):
    ok = False
    detail = "did not complete"
    try:
        lo_c, hi_c = Fraction(-1, 16), Fraction(209, 180)
        rows = []
        bad = []
        for p, _, _ in TABLE1:
            n = len(genus2_lists(p).curves)
            corr = Fraction(n) - Fraction((p - 1) * (p * p + 25 * p + 166), 2880)
            lo, hi = iko_window(p)
            rows.append((p, n))
            if not (lo_c <= corr <= hi_c) or not (lo <= n <= hi):
                bad.append((p, n, float(corr)))
        ok = not bad
        detail = "correction in [-1/16, 209/180] at all %d published p; " \
                 "|L| from %d (p=11) to %d (p=199)" % (len(rows), rows[0][1], rows[-1][1])
        if bad:
            detail = "window violated at %s" % bad
    finally:
        criterion(7, "genus-2 class count stays in the mass-formula window", ok, detail)
    assert ok, detail


# --- criterion 8: the six oracle suites -----------------------------------


def _pair_sextic(ctx, roots1, roots2, lam, mu):
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


def _suite_cartier_manin():
    import random

    # each sextic alone and the ten of a prime as one batch, against the
    # full expansion of f^((p-1)/2)
    rng = random.Random(81)
    for p in (5, 7, 11):
        ctx = FieldCtx(p)
        batch, wants = [], []
        for _ in range(10):
            roots = set()
            while len(roots) < 6:
                roots.add(ctx.elem(rng.randrange(p), rng.randrange(p)))
            C = Genus2Curve(ctx, tuple(sorted(roots)))
            f = UniPoly.from_roots(ctx, list(C.roots))
            full = UniPoly.from_coeffs(ctx, [ctx.one])
            for _ in range((p - 1) // 2):
                full = full * f
            batch.append(C.roots)
            wants.append([full.coeff(p - 1), full.coeff(2 * p - 1),
                          full.coeff(p - 2), full.coeff(2 * p - 2)])
        alone = [cartier_manin_rows(ctx, [roots])[0] for roots in batch]
        rows = list(cartier_manin_rows(ctx, batch)) + alone
        if [list(map(tuple, row.tolist())) for row in rows] != wants + wants:
            return False
    return True


def _suite_pair_hits():
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
                if set(howe_type_points(ctx, classes[i], classes[j])) != want:
                    return False
    return True


def _suite_b_values(genus2_lists):
    import itertools

    ctx = FieldCtx(11)
    lset = supersingular_lambda_set(ctx)
    for C in genus2_lists(11).curves:
        splits = [(T1, tuple(rt for rt in C.roots if rt not in T1))
                  for T1 in itertools.combinations(C.roots, 3)]
        for (T1, T2), got in zip(splits, supersingular_b_values(ctx, lset, splits)):
            want = []
            for b in sorted(ctx.elements()) + [INF]:
                if b in C.roots:
                    continue
                if quartic_is_supersingular(QuarticModel(ctx, b, T1)) and \
                        quartic_is_supersingular(QuarticModel(ctx, b, T2)):
                    want.append(b)
            if got != want:
                return False
    return True


def _suite_richelot(genus2_lists):
    for p in (11, 13):
        L = genus2_lists(p)
        ctx = L.ctx
        for C, neigh in zip(L.curves, richelot_codomains(ctx, [C.roots for C in L.curves])):
            if not neigh:
                return False
            back = richelot_codomains(ctx, neigh)
            for roots, pairs in zip(neigh, back):
                if not is_superspecial(Genus2Curve(ctx, roots)):
                    return False
                if not any(isomorphic(Genus2Curve(ctx, E), C) is not None for E in pairs):
                    return False
    return True


def _suite_glue():
    import itertools

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
                if not is_superspecial(C):
                    return False
                if not any(splitting_delta(ctx, sp) == ctx.zero
                           for sp in quadratic_splittings(C)):
                    return False
    return produced > 0


def _suite_howe_isomorphism():
    import random

    from howecurves import Genus2Curve

    rng = random.Random(89)
    ctx = FieldCtx(11)
    reps = enumerate_b(ctx).representatives
    for H in reps:
        moved = 0
        while moved < 8:
            a, b, c, d = (ctx.elem(rng.randrange(11), rng.randrange(11)) for _ in range(4))
            if ctx.sub(ctx.mul(a, d), ctx.mul(b, c)) == ctx.zero:
                continue
            m = MobiusMap(ctx, a, b, c, d)
            img_roots = [m(rt) for rt in H.curve.roots]
            img_b = m(H.b)
            if any(q is INF for q in img_roots) or (img_b is not INF and img_b in img_roots):
                continue
            H2 = HoweData(
                Genus2Curve(ctx, tuple(img_roots)),
                normalize_split(tuple(m(rt) for rt in H.split[0]),
                                tuple(m(rt) for rt in H.split[1])),
                img_b,
            )
            if howe_isomorphic(H, H2) is None:
                return False
            moved += 1
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            if howe_isomorphic(reps[i], reps[j]) is not None:
                return False
    return True


def test_criterion_8_oracle_suites(criterion, genus2_lists):
    ok = False
    detail = "did not complete"
    try:
        results = {
            "cartier-manin": _suite_cartier_manin(),
            "pair-hits": _suite_pair_hits(),
            "b-values": _suite_b_values(genus2_lists),
            "richelot": _suite_richelot(genus2_lists),
            "glue": _suite_glue(),
            "howe-isomorphism": _suite_howe_isomorphism(),
        }
        ok = all(results.values())
        detail = "%d/6 oracle suites" % sum(results.values())
        if not ok:
            detail += "; failed: %s" % [k for k, v in results.items() if not v]
    finally:
        criterion(8, "independent oracles for every computational core", ok, detail)
    assert ok, detail


def test_criterion_9_byte_identical_reruns(criterion):
    ok = False
    detail = "did not complete"
    try:
        outputs = []
        for argv in (
            ["enumerate", "--p", "13", "--strategy", "both", "--seed", "7", "--format", "json"],
            ["table", "--pmin", "11", "--pmax", "17", "--seed", "7", "--format", "json"],
        ):
            cmd = [sys.executable, "-m", "howecurves"] + argv
            r1 = subprocess.run(cmd, capture_output=True, timeout=600)
            r2 = subprocess.run(cmd, capture_output=True, timeout=600)
            outputs.append(r1.returncode == 0 and r2.returncode == 0
                           and r1.stdout == r2.stdout and len(r1.stdout) > 0)
        ok = all(outputs)
        detail = "two fresh processes per command, byte-compared stdout"
        if not ok:
            detail += "; differing commands: %s" % [i for i, v in enumerate(outputs) if not v]
    finally:
        criterion(9, "same seed gives byte-identical JSON", ok, detail)
    assert ok, detail


def test_criterion_10_every_published_row(criterion, genus2_lists):
    # every row of the published table, 11 <= p <= 199, count and ratio as
    # `table --verify` compares them, by strategy b with its re-check.  The
    # genus-2 lists come from the session fixture (criterion 7 builds them
    # first in a full run).  Measured at about 15 s given the lists, and 27 s
    # building them too, on a 2-vCPU x86-64 host; the budget leaves room for
    # a slower machine.
    ok = False
    detail = "did not complete"
    try:
        t0 = time.time()
        off = []
        for p, n, ratio in TABLE1:
            rep = enumerate_b(FieldCtx(p), verify=True, genus2=genus2_lists(p))
            if rep.count != n or abs(round(rep.ratio, 3) - ratio) > 5e-4:
                off.append((p, rep.count, n))
        elapsed = time.time() - t0
        ok = not off and len(TABLE1) == 42 and elapsed < 300.0
        detail = "%d rows, %.1fs (budget 300s)" % (len(TABLE1), elapsed)
        if off:
            detail += "; (p, computed, published) off at %s" % off
    finally:
        criterion(10, "every published row, 11 <= p <= 199, strategy b verified", ok, detail)
    assert ok, detail


def test_criterion_11_large_prime_witnesses(criterion, capsys):
    # `exists --verify` in-process near the top of the paper's range, one
    # prime = 5 mod 6 (the closed-form family) and two = 1 mod 6 (the
    # search).  Measured at 0.15-0.22 s, 0.07-0.08 s and 0.28-0.44 s on a
    # 2-vCPU x86-64 host, against 0.50-0.53 s, 0.14-0.20 s and 0.97-1.09 s
    # with a Horner pass for the Hasse test, and 1.2 s, 3.6 s and 4.3 s with
    # a truncated-power re-check.
    ok = False
    detail = "did not complete"
    try:
        times = {}
        bad = []
        for q in (10009, 19991, 19993):
            t0 = time.time()
            code = main(["exists", "--verify", "--format", "json", "--p", str(q)])
            times[q] = time.time() - t0
            doc = json.loads(capsys.readouterr().out)
            if (code != 0 or doc["missing"] != [] or doc["reverify_failures"] != []
                    or times[q] >= 3.0):
                bad.append(q)
        ok = not bad
        detail = "%s (budget 3s each)" % ", ".join("p=%d %.2fs" % qt for qt in times.items())
        if bad:
            detail += "; no verified witness in budget at %s" % bad
    finally:
        criterion(11, "a verified witness at 10009, 19991 and 19993", ok, detail)
    assert ok, detail


WITNESSES_8_20000 = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                                 "results", "exists_8_20000.json")


def _witness(row):
    """The HoweData of one row [p, r, roots (12 ints), first split part, b]."""
    p, _, flat, part, b = row
    ctx = FieldCtx(p)
    roots = [ctx.elem(flat[i], flat[i + 1]) for i in range(0, 12, 2)]
    split = ([roots[i] for i in part], [roots[i] for i in range(6) if i not in part])
    return HoweData(Genus2Curve(ctx, tuple(roots)), split, INF if b == "inf" else tuple(b))


def test_criterion_12_committed_witnesses_for_the_paper_range(criterion):
    # the committed output of `exists --pmin 8 --pmax 20000 --verify`: no
    # sweep here, only its primes, a seeded sample re-checked by the package
    # and three primes re-checked by the scalar oracle (15073 and 18313,
    # which take the D = -15 seed, and 19997, the largest)
    ok = False
    detail = "did not complete"
    try:
        t0 = time.time()
        with open(WITNESSES_8_20000) as fh:
            doc = json.load(fh)
        rows = {row[0]: row for row in doc["witnesses"]}
        primes = _primes(8, 19999)
        complete = (sorted(rows) == primes == [row[0] for row in doc["witnesses"]]
                    and doc["missing"] == [] and doc["reverify_failures"] == []
                    and all(row[1] == FieldCtx(q).r for q, row in rows.items()))
        sample = sorted(random.Random(12).sample(primes, 24))
        bad = [q for q in sample if not is_superspecial_howe(_witness(rows[q]))]
        bad += [q for q in (15073, 18313, 19997)
                if not is_superspecial_howe_scalar(_witness(rows[q]))]
        ok = complete and len(primes) == 2258 and not bad
        detail = "%d primes, %d re-checked, %.1fs" % (len(rows), len(sample) + 3,
                                                       time.time() - t0)
        if not complete:
            detail += "; the file's primes or lists are not those of 7 < p < 20000"
        if bad:
            detail += "; failed re-check at %s" % bad
    finally:
        criterion(12, "committed witnesses for every prime 7 < p < 20000", ok, detail)
    assert ok, detail
