"""Layer tracing for the benchmark, installed from outside the package.

`install()` wraps the public functions of the six howecurves modules, plus a
few methods that carry the hot arithmetic, and rebinds every name that refers
to an original in each module that imported it, so calls made through
`from .arith import ...` bindings are seen too.  Nothing under `src/` changes.

Every wrapped callable gets aggregated counters: calls and self time (its own
duration minus the time spent in wrapped callees).  A few very hot, very
cheap callables are counted only; their time stays in their caller's self
time.  Coarse boundaries (commands, whole enumerations, the genus-2 closure,
cache load and save, verification) also record spans with a parent span, so
a run can be read as a tree.  Everything stays in memory until `snapshot()`.
"""

from __future__ import annotations

import functools
import inspect
import time

# Counted but not timed: called so often, for so little work each, that a
# timer would cost more than the call.
COUNT_ONLY = {"arith.sort_key", "arith.is_prime", "arith.inv", "howe.normalize_split"}

# Boundaries that also record a span with its parent.
SPANS = {
    "cli.main", "cli.cmd_enumerate", "cli.cmd_table", "cli.cmd_exists", "cli.cmd_cache",
    "strategies.enumerate_a", "strategies.enumerate_b", "strategies.find_one",
    "strategies.match_representatives", "strategies.verify",
    "genus2.superspecial_genus2_list", "genus2.load_list", "genus2.save_list",
    "ellcurve.supersingular_lambda_set", "ellcurve.enumerate_supersingular_classes",
}


class Stat:
    __slots__ = ("calls", "self_s", "hits", "work")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.hits = 0   # calls that returned something other than None (see _HITS)
        self.work = 0   # extra per-call work measure (see _WORK)


# Isomorphism searches that found a map, list inserts that added a new class.
_HITS = {"genus2.isomorphic", "howe.howe_isomorphic", "genus2.add"}


def _quotient_terms(args) -> int:
    # iterations of the schoolbook loop: deg(n) - deg(d) + 1, or 0
    n, d = args[0], args[1]
    if d.is_zero():
        return 0
    return max(0, n.degree - d.degree + 1)


_WORK = {"arith.divmod": _quotient_terms}
_SIZE = {"genus2.superspecial_genus2_list"}  # work += len(result)


class Tracer:
    """Counters, timers and spans for one traced process."""

    def __init__(self):
        self.stats = {}
        self.spans = []
        self._frames = []       # child-time accumulators, innermost last
        self._span_stack = []   # ids of open spans
        self._t0 = time.perf_counter()

    def stat(self, name: str) -> Stat:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = Stat()
        return st

    # -- wrappers -----------------------------------------------------------

    def wrap(self, name: str, fn):
        st = self.stat(name)
        if name in COUNT_ONLY:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                st.calls += 1
                return fn(*args, **kwargs)
            return counted
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(st, fn)
        return self._wrap_call(name, st, fn)

    def _wrap_call(self, name, st, fn):
        frames = self._frames
        perf = time.perf_counter
        hit = name in _HITS
        work = _WORK.get(name)
        sized = name in _SIZE
        span = name in SPANS
        spans = self.spans
        span_stack = self._span_stack

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            st.calls += 1
            if work is not None:
                st.work += work(args)
            if span:
                sid = len(spans)
                rec = [sid, name, span_stack[-1] if span_stack else None,
                       perf() - self._t0, None]
                spans.append(rec)
                span_stack.append(sid)
            frame = [0.0]
            frames.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                frames.pop()
                st.self_s += dt - frame[0]
                if frames:
                    frames[-1][0] += dt
                if span:
                    span_stack.pop()
                    rec[4] = rec[3] + dt
            if hit and result is not None:
                st.hits += 1
            if sized:
                st.work += len(result)
            return result

        return timed

    def _wrap_generator(self, st, fn):
        frames = self._frames
        perf = time.perf_counter

        @functools.wraps(fn)
        def timed_gen(*args, **kwargs):
            st.calls += 1
            it = fn(*args, **kwargs)
            try:
                while True:
                    # each resume is timed as one frame on the caller's stack
                    frame = [0.0]
                    frames.append(frame)
                    t0 = perf()
                    try:
                        item = next(it)
                    except StopIteration as stop:
                        return stop.value
                    finally:
                        dt = perf() - t0
                        frames.pop()
                        st.self_s += dt - frame[0]
                        if frames:
                            frames[-1][0] += dt
                    yield item
            finally:
                it.close()

        return timed_gen

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Wrap and rebind; call once, after howecurves is imported."""
        import howecurves
        from howecurves import arith, cli, ellcurve, genus2, howe, strategies

        modules = {"arith": arith, "ellcurve": ellcurve, "genus2": genus2,
                   "howe": howe, "strategies": strategies, "cli": cli}
        replace = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    replace[obj] = self.wrap("%s.%s" % (layer, attr), obj)
        # verification is private but is the third phase of an enumeration
        replace[strategies._verify_representatives] = self.wrap(
            "strategies.verify", strategies._verify_representatives)
        for mod in (howecurves,) + tuple(modules.values()):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in replace:
                    setattr(mod, attr, replace[obj])

        methods = (
            (arith.UniPoly, "__divmod__", "arith.divmod"),
            (arith.UniPoly, "pow_mod", "arith.pow_mod"),
            (arith.UniPoly, "pow_truncated", "arith.pow_truncated"),
            (arith.FieldCtx, "inv", "arith.inv"),
            (genus2.SuperspecialList, "add", "genus2.add"),
        )
        for cls, attr, name in methods:
            setattr(cls, attr, self.wrap(name, getattr(cls, attr)))

    # -- results --------------------------------------------------------------

    def snapshot(self) -> dict:
        return {
            "stats": {name: {"calls": st.calls, "self_s": st.self_s,
                             "hits": st.hits, "work": st.work}
                      for name, st in self.stats.items()},
            "spans": [{"id": s[0], "name": s[1], "parent": s[2],
                       "start_s": s[3], "end_s": s[4]} for s in self.spans],
        }
