"""Command-line front end: enumerate, table, exists, and cache commands.

Exit codes: 0 success, 1 usage error (including a cache directory or file
that cannot be used), 2 verification mismatch (table rows off the published
counts, strategies disagreeing, failed re-checks, corrupt caches), 3 internal
invariant violation or a worker process that died.

All output is assembled in memory and written once from the coordinating
process; worker processes never touch files or stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures.process import BrokenProcessPool
from typing import List, Optional

from .arith import MAX_P, FieldCtx, is_prime
from .genus2 import load_list, save_list, superspecial_genus2_list
from .howe import is_superspecial_howe
from .strategies import (
    DEFAULT_SEED,
    VerificationError,
    enumerate_a,
    enumerate_b,
    find_one,
    howe_jsonable,
    match_representatives,
    pool_map,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MISMATCH = 2
EXIT_INTERNAL = 3

# Published class counts and ratios for 11 <= p <= 199; `table --verify`
# checks computed rows against these.
TABLE1 = (
    (11, 4, 3.462), (13, 3, 1.573), (17, 10, 2.345), (19, 4, 0.672),
    (23, 33, 3.125), (29, 45, 2.126), (31, 59, 2.281), (37, 41, 0.932),
    (41, 105, 1.755), (43, 79, 1.145), (47, 235, 2.608), (53, 167, 1.292),
    (59, 259, 1.453), (61, 243, 1.233), (67, 260, 0.996), (71, 742, 2.388),
    (73, 316, 0.936), (79, 595, 1.390), (83, 655, 1.320), (89, 863, 1.410),
    (97, 802, 1.012), (101, 1207, 1.350), (103, 1151, 1.213), (107, 1237, 1.163),
    (109, 1193, 1.061), (113, 1323, 1.056), (127, 2013, 1.132), (131, 2606, 1.335),
    (137, 2430, 1.089), (139, 2447, 1.050), (149, 3082, 1.073), (151, 3553, 1.189),
    (157, 3427, 1.020), (163, 3518, 0.936), (167, 6268, 1.550), (173, 4780, 1.064),
    (179, 5771, 1.159), (181, 5419, 1.053), (191, 9610, 1.589), (193, 6298, 1.009),
    (197, 6839, 1.030), (199, 8351, 1.221),
)
TABLE1_ROWS = {p: (n, ratio) for p, n, ratio in TABLE1}


class UsageError(Exception):
    """Bad arguments detected after parsing (non-prime p and friends)."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on its own errors; the contract here
    # reserves 2 for verification mismatches, so remap to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, "%s: error: %s\n" % (self.prog, message))


def _checked_primes(what: str, primes: List[int], min_p: int) -> List[int]:
    """The primes a command runs on, or a usage error before any work.

    Each must be a prime in [min_p, MAX_P]; FieldCtx refuses larger ones.
    """
    for q in primes:
        if not is_prime(q):
            raise UsageError("p = %d is not prime" % q)
    for bad, bound in (([q for q in primes if q < min_p], ">= %d" % min_p),
                       ([q for q in primes if q > MAX_P], "<= %d" % MAX_P)):
        if bad:
            raise UsageError("%s needs primes %s; drop %s"
                             % (what, bound, ", ".join(map(str, bad))))
    return primes


def _primes_in(what: str, pmin: int, pmax: int) -> List[int]:
    """The primes in [pmin, pmax]; a pmax above MAX_P is refused before the scan."""
    if pmax > MAX_P:
        raise UsageError("%s needs primes <= %d; lower --pmax %d" % (what, MAX_P, pmax))
    return [q for q in range(max(pmin, 2), pmax + 1) if is_prime(q)]


def _cache_dir(args) -> Optional[str]:
    return args.cache or os.environ.get("HOWE_CACHE") or None


def _cache_path(cdir: str, p: int) -> str:
    return os.path.join(cdir, "genus2_p%d.cache" % p)


def _cached_genus2_list(ctx: FieldCtx, cdir: str) -> tuple:
    """The genus-2 list through the cache directory, and "loaded" or "written".

    A present cache file is loaded with every record and the class count
    re-verified (load_list); anything off raises a verification error
    instead of being trusted.  A missing file is computed and written.  A
    cache directory or file that cannot be created, read or written is a
    usage error.
    """
    path = _cache_path(cdir, ctx.p)
    try:
        if os.path.exists(path):
            try:
                return load_list(ctx, path), "loaded"
            except ValueError as exc:
                raise VerificationError(str(exc))
        os.makedirs(cdir, exist_ok=True)
        L = superspecial_genus2_list(ctx)
        save_list(L, path)
    except OSError as exc:
        raise UsageError("cannot use the cache at %s: %s" % (path, exc))
    return L, "written"


def _dump_json(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _fmt_rep(rep: dict) -> str:
    roots = " ".join("(%d,%d)" % tuple(rt) for rt in rep["roots"])
    split = "{%s}|{%s}" % (",".join(map(str, rep["split"][0])),
                           ",".join(map(str, rep["split"][1])))
    b = rep["b"] if rep["b"] == "inf" else "(%d,%d)" % tuple(rep["b"])
    return "roots %s  split %s  b %s" % (roots, split, b)


def _field_header(ctx: FieldCtx) -> str:
    return ("p = %d, field F_{p^2} = F_p[t]/(t^2 - %d); "
            "elements are printed as (c0,c1) meaning c0 + c1*t"
            % (ctx.p, ctx.r))


def _run_strategies(ctx: FieldCtx, args) -> tuple:
    """The reports of args.strategy at one prime by name, and whether they agree.

    Strategy a runs before b.  The genus-2 list goes through the cache
    directory, before any enumeration, only when strategy b runs.  agree is
    None unless both strategies ran.
    """
    names = ("a", "b") if args.strategy == "both" else (args.strategy,)
    cdir = _cache_dir(args)
    genus2 = _cached_genus2_list(ctx, cdir)[0] if cdir and "b" in names else None
    common = {"verify": args.verify, "workers": args.workers}
    reports = {s: enumerate_a(ctx, **common) if s == "a"
               else enumerate_b(ctx, genus2=genus2, **common) for s in names}
    agree = None
    if len(reports) == 2:
        agree = match_representatives(reports["a"].representatives,
                                      reports["b"].representatives) is not None
    return reports, agree


# ---------------------------------------------------------------------------
# enumerate
# ---------------------------------------------------------------------------


def cmd_enumerate(args) -> int:
    ctx = FieldCtx(_checked_primes("enumerate", [args.p], 5)[0])
    if args.strategy != "a" and ctx.p == 5:
        raise UsageError("strategy b needs p > 5; use --strategy a for p = 5")
    reports, agree = _run_strategies(ctx, args)

    if args.format == "json":
        doc = {
            "command": "enumerate",
            "field": {"p": ctx.p, "nonresidue": ctx.r},
            "reports": {s: dict(r.to_jsonable(), seed=args.seed) for s, r in reports.items()},
            "agree": agree,
        }
        out = _dump_json(doc)
    elif args.format == "csv":
        lines = ["p,n,ratio"]
        lines.extend("%d,%d,%.6f" % (r.p, r.count, r.ratio) for r in reports.values())
        out = "\n".join(lines) + "\n"
    else:
        lines = [_field_header(ctx)]
        for s, r in reports.items():
            extra = "" if r.genus2_classes is None else ", genus-2 classes %d" % r.genus2_classes
            lines.append("strategy %s: n = %d, ratio = %.6f (raw fits %d%s, %.1fs)"
                         % (s, r.count, r.ratio, r.raw_count, extra, r.elapsed))
            for rep in (howe_jsonable(H) for H in r.representatives):
                lines.append("  " + _fmt_rep(rep))
        if agree is not None:
            lines.append("strategies agree" if agree else "STRATEGIES DISAGREE")
        out = "\n".join(lines) + "\n"

    sys.stdout.write(out)
    if agree is False:
        sys.stderr.write("strategy a and strategy b disagree at p = %d\n" % ctx.p)
        return EXIT_MISMATCH
    return EXIT_OK


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------


def cmd_table(args) -> int:
    primes = _checked_primes("table", _primes_in("table", args.pmin, args.pmax), 7)
    rows = []
    disagreements = []
    for q in primes:
        reports, agree = _run_strategies(FieldCtx(q), args)
        if agree is False:
            disagreements.append(q)
        rep = reports["a" if args.strategy == "a" else "b"]
        # the ratio is always recomputed from (p, n), never copied
        rows.append({"p": q, "n": rep.count, "ratio": round(rep.ratio, 3)})

    mismatches = []
    checked = []
    if args.verify:
        for row in rows:
            fixture = TABLE1_ROWS.get(row["p"])
            if fixture is None:
                continue
            checked.append(row["p"])
            n_want, ratio_want = fixture
            if row["n"] != n_want or abs(row["ratio"] - ratio_want) > 5e-4:
                mismatches.append({"p": row["p"], "n": row["n"], "expected": n_want})

    if args.format == "json":
        doc = {"command": "table", "strategy": args.strategy, "rows": rows}
        if args.verify:
            doc["verified"] = {"checked": checked, "mismatches": mismatches}
        if args.strategy == "both":
            doc["disagreements"] = disagreements
        out = _dump_json(doc)
    elif args.format == "csv":
        lines = ["p,n,ratio"] if rows else []
        lines.extend("%d,%d,%.3f" % (r["p"], r["n"], r["ratio"]) for r in rows)
        out = "\n".join(lines) + ("\n" if lines else "")
    else:
        lines = ["%5d %8d  %.3f" % (r["p"], r["n"], r["ratio"]) for r in rows]
        if args.verify:
            lines.append("verified %d row(s) against the published counts: %s"
                         % (len(checked), "MISMATCH" if mismatches else "ok"))
            for m in mismatches:
                lines.append("  p = %d: computed %d, published %d"
                             % (m["p"], m["n"], m["expected"]))
        out = ("\n".join(lines) + "\n") if lines else ""

    sys.stdout.write(out)
    if mismatches or disagreements:
        for m in mismatches:
            sys.stderr.write("table mismatch at p = %d: computed %d, published %d\n"
                             % (m["p"], m["n"], m["expected"]))
        for q in disagreements:
            sys.stderr.write("strategy a and strategy b disagree at p = %d\n" % q)
        return EXIT_MISMATCH
    return EXIT_OK


# ---------------------------------------------------------------------------
# exists
# ---------------------------------------------------------------------------


def _exists_task(q: int, verify: bool) -> tuple:
    """One prime's existence check, a pool_map task; returns plain data.

    The task builds its own field, so the field and its tables are freed
    when the task returns, not kept until the sweep ends.
    """
    ctx = FieldCtx(q)
    H = find_one(ctx)
    if H is None:
        return (ctx.p, ctx.r, None, True)
    ok = is_superspecial_howe(H) if verify else True
    return (ctx.p, ctx.r, howe_jsonable(H), ok)


def cmd_exists(args) -> int:
    primes = _checked_primes("exists", [args.p] if args.p is not None
                             else _primes_in("exists", args.pmin, args.pmax), 5)

    results = pool_map(_exists_task, [(q, args.verify) for q in primes], args.workers)

    missing = [q for q, _, wit, _ in results if wit is None]
    failed = [q for q, _, wit, ok in results if wit is not None and not ok]

    if args.format == "json":
        doc = {
            "command": "exists",
            "results": [
                {"p": q, "nonresidue": r, "witness": wit}
                for q, r, wit, _ in results
            ],
            "missing": missing,
        }
        if args.verify:
            doc["reverify_failures"] = failed
        out = _dump_json(doc)
    elif args.format == "csv":
        lines = ["p,found"] if results else []
        lines.extend("%d,%s" % (q, "yes" if wit is not None else "no")
                     for q, _, wit, _ in results)
        out = "\n".join(lines) + ("\n" if lines else "")
    else:
        lines = []
        for q, r, wit, _ in results:
            if wit is None:
                lines.append("p = %d: none" % q)
            else:
                lines.append("p = %d (t^2 - %d): %s" % (q, r, _fmt_rep(wit)))
        if results:
            lines.append("missing: %s" % (", ".join(map(str, missing)) if missing else "none"))
        out = ("\n".join(lines) + "\n") if lines else ""

    sys.stdout.write(out)
    if failed:
        for q in failed:
            sys.stderr.write("witness at p = %d failed its re-check\n" % q)
        return EXIT_MISMATCH
    return EXIT_OK


# ---------------------------------------------------------------------------
# cache
# ---------------------------------------------------------------------------


def cmd_cache(args) -> int:
    ctx = FieldCtx(_checked_primes("cache", [args.p], 7)[0])
    cdir = _cache_dir(args)
    if not cdir:
        raise UsageError("cache needs --cache DIR or the HOWE_CACHE environment variable")
    L, action = _cached_genus2_list(ctx, cdir)
    path = _cache_path(cdir, ctx.p)

    if args.format == "json":
        out = _dump_json({"command": "cache", "p": ctx.p, "path": path,
                          "classes": len(L), "action": action})
    elif args.format == "csv":
        out = "p,classes,action,path\n%d,%d,%s,%s\n" % (ctx.p, len(L), action, path)
    else:
        out = "%s %d superspecial genus-2 classes for p = %d (%s)\n" % (
            action, len(L), ctx.p, path)
    sys.stdout.write(out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser and entry point
# ---------------------------------------------------------------------------


def _add_common(sp, *optional: str) -> None:
    """--seed and --format, then each of --cache, --workers and --verify named in optional."""
    sp.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help="run seed recorded in reports (default %(default)s)")
    sp.add_argument("--format", choices=("json", "csv", "text"), default="text",
                    help="output format (default %(default)s)")
    if "cache" in optional:
        sp.add_argument("--cache", metavar="DIR", default=None,
                        help="genus-2 list cache directory (default $HOWE_CACHE)")
    if "workers" in optional:
        sp.add_argument("--workers", type=int, default=1,
                        help="worker process count (default 1)")
    if "verify" in optional:
        sp.add_argument("--verify", action="store_true",
                        help="independently re-check every result")


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="howecurves",
                  description="find and enumerate superspecial Howe curves "
                              "of genus 4 in characteristic p")
    sub = top.add_subparsers(dest="command", required=True, parser_class=_Parser)

    sp = sub.add_parser("enumerate", help="all classes for one prime")
    sp.add_argument("--p", type=int, required=True, help="the characteristic")
    sp.add_argument("--strategy", type=str.lower, choices=("a", "b", "both"),
                    default="b", help="enumeration strategy (default %(default)s)")
    _add_common(sp, "cache", "workers", "verify")
    sp.set_defaults(func=cmd_enumerate)

    sp = sub.add_parser("table", help="class counts over a prime range")
    sp.add_argument("--pmin", type=int, required=True)
    sp.add_argument("--pmax", type=int, required=True)
    sp.add_argument("--strategy", type=str.lower, choices=("a", "b", "both"),
                    default="b", help="enumeration strategy (default %(default)s)")
    _add_common(sp, "cache", "workers", "verify")
    sp.set_defaults(func=cmd_table)

    sp = sub.add_parser("exists", help="one witness per prime, or none")
    sp.add_argument("--p", type=int, default=None, help="a single prime")
    sp.add_argument("--pmin", type=int, default=None)
    sp.add_argument("--pmax", type=int, default=None)
    _add_common(sp, "workers", "verify")
    sp.set_defaults(func=cmd_exists, parser=sp)

    sp = sub.add_parser("cache", help="materialize the genus-2 list cache")
    sp.add_argument("--p", type=int, required=True, help="the characteristic")
    _add_common(sp, "cache")
    sp.set_defaults(func=cmd_cache)

    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "workers", 1) < 1:
        parser.error("--workers must be at least 1")
    if args.command == "exists":
        if args.p is None and (args.pmin is None or args.pmax is None):
            args.parser.error("exists needs --p or both --pmin and --pmax")
        if args.p is not None and (args.pmin is not None or args.pmax is not None):
            args.parser.error("exists takes --p or --pmin and --pmax, not both")
    try:
        return args.func(args)
    except UsageError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return EXIT_USAGE
    except VerificationError as exc:
        sys.stderr.write("verification failed: %s\n" % exc)
        return EXIT_MISMATCH
    except ArithmeticError as exc:
        sys.stderr.write("internal invariant violated: %s\n" % exc)
        return EXIT_INTERNAL
    except BrokenProcessPool as exc:
        sys.stderr.write("worker process died: %s\n" % exc)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
