"""Benchmark for howecurves: seeded CLI workloads, checked outputs, layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
`src/`.  Every workload is a list of `howecurves` CLI commands, each run
in-process (`howecurves.cli.main`) by a fresh interpreter (perfbench/child.py)
with stdout captured and checked here.  One *pass* runs the workload's set-up
commands, then its timed commands.  The seed draws the primes (and the CLI
`--seed`), so one seed always gives the same commands.

`--trace 0` repeats passes until `--seconds` have gone by and reports, each
as the median over passes: `wall_s`, the time in `cli.main` over the timed
commands; `setup_s`, the fresh-process import of howecurves (the median over
the pass's interpreters) plus the set-up commands; and `peak_rss_mb`, the
largest peak resident set of a command.  A fixed reference kernel is timed
before and after each pass and recorded, to show how fast the machine ran
during the run (README.md says why it is not divided out).

`--trace 1` alternates untraced and traced passes for `--seconds` and
reports the per-layer counters and self times of the traced passes (see
perfbench/layertrace.py) and the tracing overhead against the untraced ones.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  A record with the machine, the inputs and every pass is written to
.perfbench_out/, and the spans of the first traced pass next to it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time

from reference import reference_s

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(ROOT, "perfbench", "child.py")
WORK = os.path.join(ROOT, ".perfbench_work")
OUT = os.path.join(ROOT, ".perfbench_out")

# A run must exit within 180 s; stop starting passes and kill children well before.
DEADLINE_S = 165.0


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def _terciles(values: list) -> list:
    n = len(values)
    return [values[i * n // 3:(i + 1) * n // 3] for i in range(3)]


# The seed draws one prime from each bin, and the CLI --seed.  A bin holds
# one prime where the cost of a command depends on the prime: costs jump
# between neighbouring primes, and a seed that moved the cost would move the
# figures more than a change to the program does.  So the enumerations keep
# one prime each (cold enumerate at 41/43/47/53/59/61 has relative costs
# 14/17/25/33/43/48, and strategy a grows about as p^5), and so do the
# searching primes of exists-sweep (409 takes about 10% less than 433).
BINS = {
    "enum-cold": [[53]],
    "enum-warm": [[61]],
    # p = 1 mod 6 (find_one searches) taking about 0.6, 1.4 and 2.2 s; p = 5
    # mod 6 (closed-form family, a few ms each) from each third of 7 < p < 1000;
    # so half the primes are 1 mod 6, as in the natural mix
    "exists-sweep": [[157], [283], [409]]
    + _terciles([q for q in range(8, 1000) if q % 6 == 5 and _is_prime(q)]),
    "cross-check": [[17], [19]],
}

WHY = {
    "enum-cold": "empty cache, so the genus-2 Richelot closure does most of the work",
    "enum-warm": "cache filled in set-up, so the closure is skipped and the fit phase and --verify dominate",
    "exists-sweep": "one witness per prime: supersingular_lambda_set and pow_mod/divmod on big polynomials",
    "cross-check": "strategy a and the a/b matcher: many small-degree gcd and root-finding calls",
}


def cache_file(cdir: str, p: int) -> str:
    return os.path.join(cdir, "genus2_p%d.cache" % p)


def plan_pass(workload: str, primes: list, cli_seed: int, cdir: str) -> tuple:
    """(set-up commands, timed commands) for one pass."""
    seed = ["--seed", str(cli_seed)]
    if workload == "exists-sweep":
        return [], [["exists", "--verify", "--format", "json", "--p", str(q)] + seed
                    for q in primes]
    if workload == "cross-check":
        return [], [["enumerate", "--p", str(q), "--strategy", "both", "--format", "json"] + seed
                    for q in primes]
    enum = [["enumerate", "--p", str(q), "--strategy", "b", "--verify", "--format", "json",
             "--cache", cdir] + seed for q in primes]
    if workload == "enum-warm":
        return [["cache", "--p", str(q), "--format", "json", "--cache", cdir] + seed
                for q in primes], enum
    return [], enum


# ---------------------------------------------------------------------------
# children
# ---------------------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    # a caller's HOWE_CACHE would turn a cold run warm behind our back
    env.pop("HOWE_CACHE", None)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(commands: list, trace: bool, deadline: float) -> dict:
    """Run commands in one fresh interpreter; always returns a result doc."""
    spec = json.dumps({"commands": commands, "trace": trace})
    t0 = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, CHILD], input=spec, capture_output=True,
                              text=True, env=child_env(), cwd=ROOT,
                              timeout=max(1.0, deadline - time.perf_counter()))
        doc = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.returncode == 0 else None
        problem = None if doc else "child exited %d: %s" % (proc.returncode, proc.stderr[-2000:])
    except subprocess.TimeoutExpired:
        doc, problem = None, "child timed out"
    except (ValueError, IndexError) as exc:
        doc, problem = None, "child printed no result: %s" % exc
    if doc is None:
        # every command of a broken child is failed; its time still counts
        elapsed = time.perf_counter() - t0
        doc = {"import_s": 0.0, "maxrss_kb": 0, "numpy": None, "module_file": None,
               "trace": None,
               "commands": [{"argv": argv, "exit": None, "run_s": elapsed / max(1, len(commands)),
                             "stdout": "", "error": problem} for argv in commands]}
    return doc


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


class Checker:
    """Checks one command's output against ground truth; returns problems."""

    def __init__(self):
        sys.path.insert(0, SRC)
        from howecurves import arith, cli, genus2, howe

        self.arith, self.cli, self.genus2, self.howe = arith, cli, genus2, howe

    def check(self, argv: list, res: dict, cli_seed: int) -> list:
        if res["error"] or res["exit"] != 0:
            return ["exit %r %s" % (res["exit"], res["error"] or "")]
        try:
            doc = json.loads(res["stdout"])
        except ValueError as exc:
            return ["stdout is not JSON: %s" % exc]
        p = int(argv[argv.index("--p") + 1])
        return getattr(self, "_" + argv[0])(argv, doc, p, cli_seed)

    def _enumerate(self, argv, doc, p, cli_seed):
        problems = []
        want = self.cli.TABLE1_ROWS[p][0]
        strategies = ("a", "b") if argv[argv.index("--strategy") + 1] == "both" else ("b",)
        if doc.get("field", {}).get("p") != p or sorted(doc.get("reports", {})) != list(strategies):
            return ["wrong field or reports: %r" % {k: doc.get(k) for k in ("field", "agree")}]
        for s in strategies:
            rep = doc["reports"][s]
            if rep["count"] != want or len(rep["representatives"]) != want:
                problems.append("p=%d strategy %s: %d classes, published %d"
                                % (p, s, rep["count"], want))
            if rep["seed"] != cli_seed:
                problems.append("p=%d strategy %s echoes seed %r" % (p, s, rep["seed"]))
        if len(strategies) == 2 and doc["agree"] is not True:
            problems.append("p=%d: strategies do not agree (%r)" % (p, doc["agree"]))
        return problems

    def _cache(self, argv, doc, p, cli_seed):
        lo, hi = self.genus2.iko_window(p)
        if doc.get("action") != "written" or not lo <= doc.get("classes", -1) <= hi:
            return ["cache p=%d: %r, window [%d, %d]" % (p, doc, lo, hi)]
        return []

    def _exists(self, argv, doc, p, cli_seed):
        rows = doc.get("results", [])
        if len(rows) != 1 or rows[0]["p"] != p or doc.get("missing") or doc.get("reverify_failures"):
            return ["exists p=%d: %r" % (p, {k: doc.get(k) for k in ("missing", "reverify_failures")})]
        if not self._witness_ok(p, rows[0]["nonresidue"], rows[0]["witness"]):
            return ["exists p=%d: witness fails the superspeciality re-check" % p]
        return []

    def _witness_ok(self, p: int, r: int, wit) -> bool:
        if wit is None:
            return False
        arith, genus2, howe = self.arith, self.genus2, self.howe
        ctx = arith.FieldCtx(p)
        try:
            roots = [tuple(rt) for rt in wit["roots"]]
            C = genus2.Genus2Curve(ctx, tuple(roots))
            split = [tuple(roots[i] for i in part) for part in wit["split"]]
            b = arith.INF if wit["b"] == "inf" else tuple(wit["b"])
            H = howe.HoweData(C, split, b)
        except (ValueError, IndexError, KeyError, TypeError):
            return False
        return ctx.r == r and howe.is_superspecial_howe(H)


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------


def run_pass(workload, primes, cli_seed, trace, index, checker, deadline) -> dict:
    """Each command in its own fresh interpreter, as a user would run it; the
    reference kernel is timed here before the first command and after the last."""
    cdir = os.path.join(WORK, "pass%d" % index)
    shutil.rmtree(cdir, ignore_errors=True)
    os.makedirs(cdir)
    setup_cmds, timed_cmds = plan_pass(workload, primes, cli_seed, cdir)
    children = []
    tasks = []
    reference = [reference_s()]

    def run_and_check(argv, problems):
        child = run_child([argv], trace, deadline)
        children.append(child)
        res = child["commands"][0]
        tasks.append({"argv": argv, "run_s": res["run_s"],
                      "problems": checker.check(argv, res, cli_seed) + problems})
        return child

    setup = [run_and_check(argv, []) for argv in setup_cmds]
    # the cache file must be absent before a cold run and present before a warm one
    isolation = []
    for argv in timed_cmds:
        if "--cache" in argv:
            present = os.path.exists(cache_file(cdir, int(argv[argv.index("--p") + 1])))
            isolation.append([] if present == (workload == "enum-warm") else
                             ["cache file %s before the run" % ("present" if present else "missing")])
        else:
            isolation.append([])
    timed = [run_and_check(argv, problems) for argv, problems in zip(timed_cmds, isolation)]
    reference.append(reference_s())
    shutil.rmtree(cdir, ignore_errors=True)

    return {
        "traced": trace,
        "wall_s": sum(c["commands"][0]["run_s"] for c in timed),
        "reference_s": reference,
        # every command's interpreter imports howecurves: the median of those
        # imports is steadier than any one of them
        "setup_s": statistics.median(c["import_s"] for c in children)
        + sum(c["commands"][0]["run_s"] for c in setup),
        "peak_rss_mb": max(c["maxrss_kb"] for c in children) / 1024.0,
        "stdout_bytes": sum(len(c["commands"][0]["stdout"].encode()) for c in children),
        "tasks": tasks,
        "children": children,
    }


# ---------------------------------------------------------------------------
# per-layer metrics from a traced pass
# ---------------------------------------------------------------------------

LIBRARY_LAYERS = ("arith", "ellcurve", "genus2", "howe", "strategies")

# (name, unit); how each is read off the trace is in layer_metrics
PER_LAYER = [
    ("arith.pow_mod.calls", "count"), ("arith.pow_mod.self_s", "s"),
    ("arith.divmod.calls", "count"), ("arith.divmod.quotient_terms", "count"),
    ("arith.divmod.self_s", "s"),
    ("arith.poly_gcd.calls", "count"), ("arith.poly_gcd.self_s", "s"),
    ("arith.poly_roots_in_fq.calls", "count"), ("arith.poly_roots_in_fq.self_s", "s"),
    ("arith.pow_truncated.calls", "count"), ("arith.pow_truncated.self_s", "s"),
    ("arith.cross_ratio.calls", "count"), ("arith.cross_ratio.self_s", "s"),
    ("arith.inv.calls", "count"), ("arith.mobius_from_triples.calls", "count"),
    ("ellcurve.supersingular_lambda_set.calls", "count"),
    ("ellcurve.supersingular_lambda_set.self_s", "s"),
    ("ellcurve.enumerate_supersingular_classes.calls", "count"),
    ("ellcurve.enumerate_supersingular_classes.self_s", "s"),
    ("genus2.superspecial_genus2_list.self_s", "s"), ("genus2.classes", "count"),
    ("genus2.richelot_codomains.calls", "count"), ("genus2.richelot_codomains.self_s", "s"),
    ("genus2.add.calls", "count"), ("genus2.add.new_frac", "ratio"),
    ("genus2.isomorphic.calls", "count"), ("genus2.isomorphic.hit_frac", "ratio"),
    ("genus2.isomorphic.self_s", "s"),
    ("genus2.igusa_key.calls", "count"), ("genus2.igusa_key.self_s", "s"),
    ("genus2.automorphisms.calls", "count"), ("genus2.automorphisms.self_s", "s"),
    ("genus2.cartier_manin.calls", "count"), ("genus2.cartier_manin.self_s", "s"),
    ("genus2.save_list.self_s", "s"), ("genus2.load_list.self_s", "s"),
    ("howe.is_superspecial_howe.calls", "count"), ("howe.is_superspecial_howe.self_s", "s"),
    ("howe.howe_isomorphic.calls", "count"), ("howe.howe_isomorphic.hit_frac", "ratio"),
    ("howe.howe_isomorphic.self_s", "s"),
    ("strategies.supersingular_b_values.calls", "count"),
    ("strategies.supersingular_b_values.self_s", "s"),
    ("strategies.fits.raw", "count"), ("strategies.fits.orbit_frac", "ratio"),
    ("strategies.howe_type_points.calls", "count"), ("strategies.howe_type_points.self_s", "s"),
    ("strategies.match_representatives.self_s", "s"),
    ("strategies.enumerate_a.self_s", "s"), ("strategies.enumerate_b.self_s", "s"),
    ("strategies.find_one.self_s", "s"),
    ("cli.main.self_s", "s"), ("cli.stdout_bytes", "B"),
] + [("%s.self_s" % layer, "s") for layer in LIBRARY_LAYERS] + [
    ("phase.closure_s", "s"), ("phase.fits_s", "s"), ("phase.verify_s", "s"),
    ("trace.wall_s", "s"), ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"), ("trace.overhead_frac", "ratio"), ("reference_s", "s"),
]
PER_LAYER_UNITS = dict(PER_LAYER)

def merged_stats(pass_result: dict) -> dict:
    out = {}
    for child in pass_result["children"]:
        for name, st in (child["trace"] or {"stats": {}})["stats"].items():
            acc = out.setdefault(name, dict.fromkeys(st, 0))
            for k, v in st.items():
                acc[k] += v
    return out


def phase_split(pass_result: dict) -> dict:
    """Closure, fit and verify time from the span trees of a traced pass."""
    closure = fits = verify = 0.0
    for child in pass_result["children"]:
        spans = (child["trace"] or {"spans": []})["spans"]
        by_id = {s["id"]: s for s in spans}

        def inside_enumerate_b(s):
            while s["parent"] is not None:
                s = by_id[s["parent"]]
                if s["name"] == "strategies.enumerate_b":
                    return True
            return False

        for s in spans:
            dur = s["end_s"] - s["start_s"]
            if s["name"] == "genus2.superspecial_genus2_list":
                closure += dur
            elif s["name"] == "strategies.verify":
                verify += dur
            elif s["name"] == "strategies.enumerate_b":
                fits += dur
            if s["name"] in ("genus2.superspecial_genus2_list", "strategies.verify") \
                    and inside_enumerate_b(s):
                fits -= dur
    return {"phase.closure_s": closure, "phase.fits_s": fits, "phase.verify_s": verify}


def fit_counts(pass_result: dict) -> tuple:
    raw = count = 0
    for child in pass_result["children"]:
        for c in child["commands"]:
            if c["argv"][0] != "enumerate" or c["exit"] != 0:
                continue
            rep = json.loads(c["stdout"])["reports"].get("b")
            if rep:
                raw += rep["raw_count"]
                count += rep["count"]
    return raw, count


def layer_metrics(traced: dict, untraced_wall: float, traced_wall: float) -> dict:
    stats = merged_stats(traced)
    empty = {"calls": 0, "self_s": 0.0, "hits": 0, "work": 0}

    def st(name):
        return stats.get(name, empty)

    values = {}
    for name, _ in PER_LAYER:
        base, _, field = name.rpartition(".")
        if field == "calls":
            values[name] = st(base)["calls"]
        elif field == "self_s" and base in stats:
            values[name] = st(base)["self_s"]
        elif field in ("hit_frac", "new_frac"):
            values[name] = st(base)["hits"] / st(base)["calls"] if st(base)["calls"] else 0.0
    values["arith.divmod.quotient_terms"] = st("arith.divmod")["work"]
    values["genus2.classes"] = st("genus2.superspecial_genus2_list")["work"]
    for layer in LIBRARY_LAYERS:
        values["%s.self_s" % layer] = sum(v["self_s"] for k, v in stats.items()
                                          if k.startswith(layer + "."))
    # the cli layer's own time: parsing, cache handling, table check, JSON
    values["cli.main.self_s"] = sum(v["self_s"] for k, v in stats.items() if k.startswith("cli."))
    values["cli.stdout_bytes"] = traced["stdout_bytes"]
    raw, count = fit_counts(traced)
    values["strategies.fits.raw"] = raw
    values["strategies.fits.orbit_frac"] = count / raw if raw else 0.0
    values.update(phase_split(traced))
    values["trace.wall_s"] = traced_wall
    values["trace.untraced_wall_s"] = untraced_wall
    values["trace.overhead_s"] = traced_wall - untraced_wall
    values["trace.overhead_frac"] = (traced_wall - untraced_wall) / untraced_wall
    for name, _ in PER_LAYER:
        values.setdefault(name, 0.0)  # a wrapped function this workload never calls
    return values


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------


def machine_info() -> dict:
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
            "cpu_model": model, "python": platform.python_version(),
            "platform": platform.platform()}


def draw_inputs(workload: str, seed: int) -> tuple:
    rng = random.Random("%s:%d" % (workload, seed))
    primes = [rng.choice(b) for b in BINS[workload]]
    return primes, rng.randrange(1, 2 ** 31)


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; returns the result line's fields plus the run record."""
    t_start = time.perf_counter()
    deadline = t_start + DEADLINE_S
    load_start = os.getloadavg()
    primes, cli_seed = draw_inputs(workload, seed)
    checker = Checker()
    # untimed: writes bytecode caches and warms the file cache for the imports
    warm = run_child([], False, deadline)
    reference_s()

    passes = []
    longest = 0.0
    while True:
        for traced in ((False, True) if trace else (False,)):
            t = time.perf_counter()
            passes.append(run_pass(workload, primes, cli_seed, traced, len(passes),
                                   checker, deadline))
            longest = max(longest, time.perf_counter() - t)
        now = time.perf_counter()
        if now - t_start >= seconds or now + longest * (2 if trace else 1) > deadline:
            break
    shutil.rmtree(WORK, ignore_errors=True)

    tasks = [t for p in passes for t in p["tasks"]]
    failed = sum(1 for t in tasks if t["problems"])
    untraced = [p for p in passes if not p["traced"]]
    # how fast the machine ran during this run, for the record
    reference = statistics.mean(r for p in untraced for r in p["reference_s"])
    wall = statistics.median(p["wall_s"] for p in untraced)
    if trace:
        traced = [p for p in passes if p["traced"]]
        traced_wall = statistics.median(p["wall_s"] for p in traced)
        values = layer_metrics(traced[0], wall, traced_wall)
        for name in PER_LAYER_UNITS:
            if name.endswith("self_s") and len(traced) > 1:
                values[name] = statistics.median(
                    layer_metrics(p, wall, traced_wall)[name] for p in traced)
        values["reference_s"] = reference
        metrics = {name: {"value": values[name], "unit": PER_LAYER_UNITS[name]}
                   for name, _ in PER_LAYER}
    else:
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "setup_s": {"value": statistics.median(p["setup_s"] for p in passes), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(p["peak_rss_mb"] for p in passes),
                            "unit": "MB"},
        }

    record = {
        "workload": workload, "why": WHY[workload], "seed": seed, "trace": trace,
        "seconds": seconds, "primes": primes, "cli_seed": cli_seed,
        "reference_s": reference,
        "machine": dict(machine_info(), numpy=warm["numpy"], loadavg_start=load_start,
                        loadavg_end=os.getloadavg()),
        "package": warm["module_file"],
        "failed_frac": failed / len(tasks),
        "passes": [{"traced": p["traced"], "wall_s": p["wall_s"], "setup_s": p["setup_s"],
                    "reference_s": p["reference_s"],
                    "peak_rss_mb": p["peak_rss_mb"],
                    "tasks": [{"argv": t["argv"], "run_s": t["run_s"], "problems": t["problems"]}
                              for t in p["tasks"]]} for p in passes],
        # spans of one command share its index in the pass
        "spans": ([dict(s, command=i)
                   for i, ch in enumerate(next(p for p in passes if p["traced"])["children"])
                   for s in (ch["trace"] or {"spans": []})["spans"]] if trace else None),
    }
    return {"correct": failed == 0, "attempted": len(tasks), "failed": failed,
            "metrics": metrics, "record": record}


def write_record(result: dict) -> str:
    rec = result["record"]
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, "%s-seed%d-trace%d" % (rec["workload"], rec["seed"], rec["trace"]))
    spans = rec.pop("spans")
    if spans is not None:
        with open(stem + "-spans.json", "w") as fh:
            json.dump(spans, fh)
    with open(stem + ".json", "w") as fh:
        json.dump(rec, fh, indent=1)
    return stem + ".json"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(BINS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "howecurves", "cli.py")):
        sys.stderr.write("perfbench: no howecurves source under %s; run from a checkout\n" % SRC)
        return 2

    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    rec = result["record"]
    print("machine: %s" % json.dumps(rec["machine"], sort_keys=True))
    print("workload %s (%s); seed %d: primes %s, cli --seed %d; %d passes, failed_frac %g"
          % (rec["workload"], rec["why"], rec["seed"], rec["primes"], rec["cli_seed"],
             len(rec["passes"]), rec["failed_frac"]))
    print("reference kernel %.6f s (mean over the run)" % rec["reference_s"])
    for t in (t for p in rec["passes"] for t in p["tasks"] if t["problems"]):
        print("FAILED %s: %s" % (" ".join(t["argv"]), "; ".join(t["problems"])))
    for name, m in result["metrics"].items():
        print("  %-48s %14.6f %s" % (name, m["value"], m["unit"]))
    print("record: %s" % os.path.relpath(write_record(result), ROOT))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
