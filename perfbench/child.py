"""One fresh interpreter running howecurves CLI commands in-process.

Reads a JSON spec on stdin: {"commands": [[arg, ...], ...], "trace": bool}.
Times the import of howecurves, then runs `howecurves.cli.main(argv)` for
each command with stdout captured, and prints one JSON line with the import
time, each command's exit code, duration and stdout, the peak resident set
size of this process, and (when traced) the layer counters and spans.

The package is imported from PYTHONPATH, which the benchmark points at the
checkout's `src/`.
"""

import contextlib
import io
import json
import sys
import time
import traceback


def peak_rss_kb() -> int:
    """This process's own peak resident set size, in kB.

    `ru_maxrss` is no good here: across fork and exec it keeps the parent's
    high-water mark, so every command would report at least the benchmark's
    own peak.  VmHWM belongs to the address space exec created.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    spec = json.load(sys.stdin)
    t0 = time.perf_counter()
    import howecurves.cli
    import_s = time.perf_counter() - t0

    tracer = None
    if spec["trace"]:
        from layertrace import Tracer  # found beside this script

        tracer = Tracer()
        tracer.install()

    results = []
    for argv in spec["commands"]:
        out = io.StringIO()
        error = None
        t = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                code = howecurves.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code = None
            error = traceback.format_exc()
        run_s = time.perf_counter() - t
        results.append({"argv": argv, "exit": code, "run_s": run_s,
                        "stdout": out.getvalue(), "error": error})
    maxrss_kb = peak_rss_kb()

    import numpy

    doc = {
        "import_s": import_s,
        "module_file": howecurves.cli.__file__,
        "numpy": numpy.__version__,
        "maxrss_kb": maxrss_kb,
        "commands": results,
        "trace": tracer.snapshot() if tracer is not None else None,
    }
    sys.stdout.write(json.dumps(doc) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
