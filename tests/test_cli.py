"""Command-line behavior: formats, exit codes, caching, determinism.

Most cases drive main() in process and read captured stdout/stderr; one
subprocess test exercises the installed module entry point end to end.
"""

import collections
import hashlib
import json
import os
import random
import subprocess
import sys
import time
import weakref

import pytest

from concurrent.futures.process import BrokenProcessPool

from howecurves import cli, strategies
from howecurves.cli import EXIT_INTERNAL, EXIT_MISMATCH, EXIT_OK, EXIT_USAGE, main


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# sha256 digests of outputs pinned before the Richelot step and the fit phase
# were batched: the 14 cache files of `table --pmin 11 --pmax 61 --strategy b`,
# each hashed as its file name then its bytes in order of p, and the stdout of
# `enumerate --p q --strategy b --verify --format json --seed 1`
PINNED_CACHES = "ae838b8ccfce9708d9163639265e1022bccec5f03ca4752c25a89460c9e3500b"
PINNED_ENUMERATE = {
    53: "bd2f59561eae98c4b03ed7087238cd323cafa8b79ae68fac9699441df2d9164e",
    61: "3bf0560ae70dbc5ba4a6f67a94deae6ed3ee5d31b5af4963c7d0b12a6bf8ef88",
}


# sha256 digests of the stdout of `enumerate --p q --strategy both --format
# json --seed 1`, pinned before strategy a's entry-0 zeros came from one
# float64 product per block
PINNED_BOTH = {
    17: "1a9a407364965068a390cbebfeb08c802475a6e1864101ec8271b223be8e5059",
    19: "364a3ae4bbf7b60b94c190750a630bcbc8f8da4f0521e45d1ea0ff4af99e28a3",
    23: "5197031270f595286da3ebb50242fa4d4b279bcdfc672717073f82974ec06122",
    29: "3551887add8dace94c0511c41a9b70bf7334328ba263dbcc548990491c03448a",
}


@pytest.mark.parametrize("q", sorted(PINNED_BOTH))
def test_both_strategies_match_their_pinned_digests(capsys, q):
    code, out, err = _run(capsys, ["enumerate", "--p", str(q), "--strategy", "both",
                                   "--format", "json", "--seed", "1"])
    assert code == EXIT_OK and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_BOTH[q]


def test_outputs_match_their_pinned_digests(capsys, tmp_path):
    code, _, _ = _run(capsys, ["table", "--pmin", "11", "--pmax", "61", "--strategy", "b",
                               "--cache", str(tmp_path)])
    assert code == EXIT_OK
    digest = hashlib.sha256()
    for q in (11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61):
        name = "genus2_p%d.cache" % q
        digest.update(name.encode())
        digest.update((tmp_path / name).read_bytes())
    assert sorted(os.listdir(tmp_path)) == sorted(
        "genus2_p%d.cache" % q for q in (11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61))
    assert digest.hexdigest() == PINNED_CACHES
    for q, want in PINNED_ENUMERATE.items():
        code, out, err = _run(capsys, ["enumerate", "--p", str(q), "--strategy", "b", "--verify",
                                       "--format", "json", "--seed", "1"])
        assert code == EXIT_OK and err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == want, q


def test_enumerate_counts_p11(capsys):
    code, out, err = _run(capsys, ["enumerate", "--p", "11", "--format", "json"])
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["command"] == "enumerate"
    assert doc["field"]["p"] == 11
    assert doc["reports"]["b"]["count"] == 4
    assert doc["agree"] is None


def test_enumerate_both_strategies_agree(capsys):
    code, out, err = _run(capsys, ["enumerate", "--p", "13", "--strategy", "both",
                                   "--format", "json", "--verify"])
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["agree"] is True
    assert doc["reports"]["a"]["count"] == doc["reports"]["b"]["count"] == 3


def test_enumerate_accepts_uppercase_strategy(capsys):
    code, out, err = _run(capsys, ["enumerate", "--p", "11", "--strategy", "B",
                                   "--format", "csv"])
    assert code == EXIT_OK
    assert out.splitlines()[0] == "p,n,ratio"
    assert out.splitlines()[1].startswith("11,4,")


def test_enumerate_rejects_composite_p(capsys):
    code, out, err = _run(capsys, ["enumerate", "--p", "9"])
    assert code == EXIT_USAGE
    assert "not prime" in err


def test_enumerate_strategy_b_needs_p_over_5(capsys):
    code, out, err = _run(capsys, ["enumerate", "--p", "5"])
    assert code == EXIT_USAGE
    assert "strategy a" in err
    code, out, err = _run(capsys, ["enumerate", "--p", "5", "--strategy", "a",
                                   "--format", "json"])
    assert code == EXIT_OK
    assert json.loads(out)["reports"]["a"]["count"] >= 1


def test_enumerate_json_is_deterministic(capsys):
    argv = ["enumerate", "--p", "13", "--strategy", "both", "--seed", "7",
            "--format", "json"]
    _, out1, _ = _run(capsys, argv)
    _, out2, _ = _run(capsys, argv)
    assert out1 == out2


def test_seed_changes_nothing_but_its_echo(capsys):
    docs = []
    for seed in (7, 8):
        code, out, _ = _run(capsys, ["enumerate", "--p", "13", "--strategy", "both",
                                     "--seed", str(seed), "--format", "json"])
        assert code == EXIT_OK
        doc = json.loads(out)
        assert [rep.pop("seed") for rep in doc["reports"].values()] == [seed, seed]
        docs.append(doc)
    assert docs[0] == docs[1]


def test_enumerate_workers_match_serial(capsys):
    base = ["enumerate", "--p", "13", "--format", "json"]
    _, serial, _ = _run(capsys, base)
    _, pooled, _ = _run(capsys, base + ["--workers", "2"])
    assert serial == pooled


def test_table_small_range(capsys):
    code, out, err = _run(capsys, ["table", "--pmin", "11", "--pmax", "13",
                                   "--format", "csv", "--verify"])
    assert code == EXIT_OK
    assert out.splitlines() == ["p,n,ratio", "11,4,3.462", "13,3,1.573"]


def test_table_strategy_a_leaves_the_cache_untouched(tmp_path, capsys, monkeypatch):
    # strategy a reads no genus-2 list, so neither --cache nor HOWE_CACHE
    # makes one, and the rows are those of a run without a cache
    argv = ["table", "--pmin", "11", "--pmax", "13", "--strategy", "a", "--format", "csv"]
    monkeypatch.delenv("HOWE_CACHE", raising=False)
    _, plain, _ = _run(capsys, argv)
    assert plain.splitlines() == ["p,n,ratio", "11,4,3.462", "13,3,1.573"]
    cdir = tmp_path / "cache"
    cdir.mkdir()
    assert _run(capsys, argv + ["--cache", str(cdir)])[:2] == (EXIT_OK, plain)
    monkeypatch.setenv("HOWE_CACHE", str(cdir))
    assert _run(capsys, argv)[:2] == (EXIT_OK, plain)
    assert list(cdir.iterdir()) == []


def test_table_empty_range(capsys):
    code, out, err = _run(capsys, ["table", "--pmin", "20", "--pmax", "10",
                                   "--format", "csv"])
    assert code == EXIT_OK
    assert out == ""


def test_table_rejects_tiny_primes(capsys):
    code, out, err = _run(capsys, ["table", "--pmin", "5", "--pmax", "13"])
    assert code == EXIT_USAGE
    assert "primes >= 7" in err


@pytest.mark.parametrize("argv", [
    "enumerate --p 30011",
    "cache --p 30011",
    "exists --p 30011",
    "table --pmin 30000 --pmax 30020",
    "exists --pmin 29990 --pmax 30020",
    "exists --pmin 8 --pmax 100000000000",
    "table --pmin 8 --pmax 100000000000",
])
def test_primes_above_the_int64_limit_are_usage_errors(capsys, argv):
    # refused before any work, also when smaller primes share the range;
    # a huge --pmax is refused before its range is scanned for primes
    t0 = time.perf_counter()
    code, out, err = _run(capsys, argv.split())
    assert time.perf_counter() - t0 < 5.0
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "<= 30000" in err


def test_table_verify_flags_wrong_fixture(capsys, monkeypatch):
    import howecurves.cli as cli

    monkeypatch.setitem(cli.TABLE1_ROWS, 11, (5, 3.462))
    code, out, err = _run(capsys, ["table", "--pmin", "11", "--pmax", "11",
                                   "--format", "json", "--verify"])
    assert code == EXIT_MISMATCH
    doc = json.loads(out)
    assert doc["verified"]["mismatches"] == [{"p": 11, "n": 4, "expected": 5}]
    assert "mismatch at p = 11" in err


def test_exists_single_prime_none(capsys):
    code, out, err = _run(capsys, ["exists", "--p", "7"])
    assert code == EXIT_OK
    assert "p = 7: none" in out
    assert "missing: 7" in out


def test_exists_range_finds_witnesses(capsys):
    code, out, err = _run(capsys, ["exists", "--pmin", "8", "--pmax", "30",
                                   "--format", "json", "--verify"])
    assert code == EXIT_OK
    doc = json.loads(out)
    assert [r["p"] for r in doc["results"]] == [11, 13, 17, 19, 23, 29]
    assert all(r["witness"] is not None for r in doc["results"])
    assert doc["missing"] == []
    assert doc["reverify_failures"] == []


def test_exists_verifies_the_minus_15_seed_primes(capsys):
    # 15073 and 18313 are the primes up to MAX_P whose lambda walk starts
    # from the D = -15 Hilbert polynomial.  Measured at about 6 s for both
    # on a 2-vCPU x86-64 host; the budget leaves room for a slower machine.
    t0 = time.perf_counter()
    for q in (15073, 18313):
        code, out, err = _run(capsys, ["exists", "--verify", "--format", "json",
                                       "--p", str(q)])
        assert code == EXIT_OK, err
        doc = json.loads(out)
        assert [r["p"] for r in doc["results"]] == [q]
        assert doc["results"][0]["witness"] is not None
        assert doc["missing"] == [] and doc["reverify_failures"] == []
    assert time.perf_counter() - t0 < 30.0


def test_exists_verify_tests_a_family_witness_once(capsys, monkeypatch):
    # 971 = 5 mod 6: find_one returns the special family member untested, so
    # the re-check of --verify is the one superspeciality test of the witness
    calls = []
    real = cli.is_superspecial_howe

    def spy(H):
        calls.append(H)
        return real(H)

    for name, module in list(sys.modules.items()):
        if name.startswith("howecurves") and hasattr(module, "is_superspecial_howe"):
            monkeypatch.setattr(module, "is_superspecial_howe", spy)
    code, out, _ = _run(capsys, ["exists", "--verify", "--format", "json", "--p", "971"])
    assert code == EXIT_OK
    assert json.loads(out)["reverify_failures"] == []
    assert len(calls) == 1


def test_exists_workers(capsys):
    base = ["exists", "--pmin", "10", "--pmax", "20", "--format", "csv"]
    _, serial, _ = _run(capsys, base)
    code, pooled, _ = _run(capsys, base + ["--workers", "3"])
    assert code == EXIT_OK
    assert serial == pooled
    assert pooled.splitlines()[0] == "p,found"


def test_exists_keeps_one_field_alive_at_a_time(capsys, monkeypatch):
    # each exists task builds its own field, so with one worker a prime's
    # field, and the tables and lambda set it caches, are freed before the
    # next prime's search starts
    fields = []

    class Tracked(cli.FieldCtx):
        __slots__ = ("__weakref__",)

        def __init__(self, p):
            super().__init__(p)
            fields.append(weakref.ref(self))

    alive = []
    real = cli.find_one

    def spy(ctx):
        alive.append(sum(ref() is not None for ref in fields))
        return real(ctx)

    monkeypatch.setattr(cli, "FieldCtx", Tracked)
    monkeypatch.setattr(cli, "find_one", spy)
    code, _, _ = _run(capsys, ["exists", "--pmin", "8", "--pmax", "100", "--verify"])
    assert code == EXIT_OK and len(fields) == len(alive) == 21
    assert max(alive) == 1, alive


def test_exists_argument_combinations(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["exists"])
    assert exc.value.code == EXIT_USAGE
    capsys.readouterr()
    code, out, err = _run(capsys, ["exists", "--p", "8"])
    assert code == EXIT_USAGE
    # --p with a range would silently run --p alone
    for extra in (["--pmin", "8", "--pmax", "30"], ["--pmin", "8"], ["--pmax", "30"]):
        with pytest.raises(SystemExit) as exc:
            main(["exists", "--p", "13"] + extra)
        assert exc.value.code == EXIT_USAGE
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" not in err
        assert [line for line in err.splitlines() if "error" in line] == [
            "howecurves exists: error: exists takes --p or --pmin and --pmax, not both"]


def test_workers_must_be_positive(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--p", "11", "--workers", "0"])
    assert exc.value.code == EXIT_USAGE
    capsys.readouterr()


def test_unknown_flag_exits_with_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--p", "11", "--bogus"])
    assert exc.value.code == EXIT_USAGE
    capsys.readouterr()


@pytest.mark.parametrize("argv", [["exists", "--p", "13", "--cache", "d"],
                                  ["cache", "--p", "13", "--workers", "2"]],
                         ids=["exists-cache", "cache-workers"])
def test_a_flag_the_command_would_ignore_is_refused(capsys, argv):
    # exists reads no genus-2 list and cache starts no pool, so neither
    # takes the flag: one usage line and one error line, exit 1
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and err.splitlines() == [
        "usage: howecurves [-h] {enumerate,table,exists,cache} ...",
        "howecurves: error: unrecognized arguments: " + " ".join(argv[3:])]


class _DeadPool:
    """A process pool whose workers have all died."""

    def __init__(self, *args, **kwargs):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, *args, **kwargs):
        raise BrokenProcessPool("a worker process terminated abruptly")


@pytest.mark.parametrize("argv", [
    ["exists", "--pmin", "10", "--pmax", "20"],
    ["enumerate", "--p", "11"],
], ids=["exists", "enumerate"])
def test_a_dead_worker_exits_3_without_a_traceback(capsys, monkeypatch, argv):
    monkeypatch.setattr(strategies, "ProcessPoolExecutor", _DeadPool)
    code, out, err = _run(capsys, argv + ["--workers", "2"])
    assert code == EXIT_INTERNAL
    assert out == ""
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert "terminated abruptly" in err


def _recording_pool(sizes):
    """A process pool class that records its size and runs its tasks here."""

    class Pool:
        def __init__(self, max_workers=None):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            return map(fn, *iterables)

    return Pool


@pytest.mark.parametrize("cpus", [2, 64, None])
def test_pools_never_exceed_the_tasks_or_the_cpus(capsys, monkeypatch, cpus):
    # a huge --workers sizes each pool by its tasks and the CPUs (one if
    # unknown), with the serial output; no real pool is started
    sizes = []
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(strategies, "ProcessPoolExecutor", _recording_pool(sizes))
    # p = 13: one pair of elliptic classes; p = 41: 40 genus-2 curves in four
    # blocks of up to 12; 10..20: four primes
    cases = [(["enumerate", "--p", "13", "--strategy", "a", "--format", "json"], [1]),
             (["enumerate", "--p", "41", "--strategy", "b", "--format", "json"], [4]),
             (["exists", "--pmin", "10", "--pmax", "20", "--format", "csv"], [4])]
    for argv, tasks in cases:
        _, serial, _ = _run(capsys, argv)
        sizes.clear()
        code, pooled, _ = _run(capsys, argv + ["--workers", "100000"])
        assert code == EXIT_OK and pooled == serial
        assert sizes == [min(t, cpus or 1) for t in tasks]


def test_cache_round_trip(tmp_path, capsys):
    cdir = str(tmp_path)
    code, out, err = _run(capsys, ["cache", "--p", "13", "--cache", cdir,
                                   "--format", "json"])
    assert code == EXIT_OK
    first = json.loads(out)
    assert first["action"] == "written" and first["classes"] == 3

    code, out, err = _run(capsys, ["cache", "--p", "13", "--cache", cdir,
                                   "--format", "json"])
    assert code == EXIT_OK
    assert json.loads(out)["action"] == "loaded"

    # enumeration through the same cache gives the usual counts
    code, out, err = _run(capsys, ["enumerate", "--p", "13", "--cache", cdir,
                                   "--format", "json"])
    assert code == EXIT_OK
    assert json.loads(out)["reports"]["b"]["count"] == 3


def test_cache_detects_tampering(tmp_path, capsys):
    cdir = str(tmp_path)
    assert _run(capsys, ["cache", "--p", "13", "--cache", cdir])[0] == EXIT_OK
    path = tmp_path / "genus2_p13.cache"
    lines = path.read_text().splitlines()
    parts = lines[0].split("|")
    head = parts[0].split()
    head[2] = head[1]
    lines[0] = " ".join(head) + " |" + parts[1]
    path.write_text("\n".join(lines) + "\n")

    code, out, err = _run(capsys, ["cache", "--p", "13", "--cache", cdir])
    assert code == EXIT_MISMATCH
    assert "verification failed" in err and "record 1" in err


def _mutate(data: bytes, rng: random.Random) -> bytes:
    """One byte of data flipped, inserted or deleted, at a drawn position."""
    out = bytearray(data)
    pos = rng.randrange(len(out))
    kind = rng.choice(("flip", "insert", "delete"))
    if kind == "flip":
        out[pos] ^= rng.randrange(1, 256)
    elif kind == "insert":
        out.insert(pos, rng.randrange(256))
    else:
        del out[pos]
    return bytes(out)


def test_a_cache_short_one_class_exits_2(tmp_path, capsys):
    # every record passes, but the count is off the window [3, 3] at p = 13
    assert _run(capsys, ["cache", "--p", "13", "--cache", str(tmp_path)])[0] == EXIT_OK
    path = tmp_path / "genus2_p13.cache"
    path.write_text("".join(path.read_text().splitlines(keepends=True)[1:]))
    code, out, err = _run(capsys, ["enumerate", "--p", "13", "--cache", str(tmp_path)])
    assert (code, out) == (EXIT_MISMATCH, "")
    assert err == "verification failed: cache %s holds 2 classes, outside [3, 3]\n" % path


def test_mutated_caches_exit_2_or_load_the_same_values(tmp_path, capsys):
    # an edit that keeps every value (a space, a leading zero, a newline) may
    # load; anything else is a verification failure on one stderr line
    clean_dir = tmp_path / "clean"
    assert _run(capsys, ["cache", "--p", "13", "--cache", str(clean_dir)])[0] == EXIT_OK
    clean = (clean_dir / "genus2_p13.cache").read_bytes()
    argv = ["enumerate", "--p", "13", "--format", "json", "--cache"]
    code, clean_out, _ = _run(capsys, argv + [str(clean_dir)])
    assert code == EXIT_OK
    rng = random.Random(13)
    codes = collections.Counter()
    for k in range(1500):
        cdir = tmp_path / ("m%d" % k)
        cdir.mkdir()
        (cdir / "genus2_p13.cache").write_bytes(_mutate(clean, rng))
        code, out, err = _run(capsys, argv + [str(cdir)])
        codes[code] += 1
        assert "Traceback" not in err
        if code == EXIT_OK:
            assert out == clean_out and err == ""
        else:
            assert code == EXIT_MISMATCH, err
            assert out == "" and len(err.splitlines()) == 1
            assert err.startswith("verification failed: ")
    assert codes[EXIT_MISMATCH] >= 1400


def test_cache_honors_environment_variable(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("HOWE_CACHE", str(tmp_path))
    code, out, err = _run(capsys, ["cache", "--p", "11", "--format", "csv"])
    assert code == EXIT_OK
    assert (tmp_path / "genus2_p11.cache").exists()


def test_cache_requires_directory(capsys, monkeypatch):
    monkeypatch.delenv("HOWE_CACHE", raising=False)
    code, out, err = _run(capsys, ["cache", "--p", "11"])
    assert code == EXIT_USAGE
    assert "HOWE_CACHE" in err


def test_enumerate_with_an_unusable_cache_directory(tmp_path, capsys):
    blocker = tmp_path / "plain-file"
    blocker.write_text("")
    code, out, err = _run(capsys, ["enumerate", "--p", "11", "--cache",
                                   str(blocker / "sub")])
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_cache_with_an_unusable_cache_file(tmp_path, capsys):
    blocker = tmp_path / "plain-file"
    blocker.write_text("")
    code, out, err = _run(capsys, ["cache", "--p", "11", "--cache", str(blocker)])
    assert code == EXIT_USAGE
    assert err.startswith("error: ") and len(err.splitlines()) == 1

    # a directory where the cache file should be cannot be read
    (tmp_path / "genus2_p11.cache").mkdir()
    code, out, err = _run(capsys, ["cache", "--p", "11", "--cache", str(tmp_path)])
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_module_entry_point_subprocess():
    cmd = [sys.executable, "-m", "howecurves",
           "enumerate", "--p", "11", "--format", "json"]
    res = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    assert res.returncode == EXIT_OK
    assert json.loads(res.stdout)["reports"]["b"]["count"] == 4


_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Installs the benchmark's layer tracer, which binds genus2's
# richelot_codomains and SuperspecialList.add by name, then runs one
# enumeration; prints the exit code and the calls counted for both.
_TRACED_ENUMERATION = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import layertrace
from howecurves import cli
tracer = layertrace.Tracer()
tracer.install()
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["enumerate", "--p", "13"])
stats = tracer.snapshot()["stats"]
names = ("genus2.richelot_codomains", "genus2.add")
print(json.dumps([code] + [stats[name]["calls"] for name in names]))
"""


def test_benchmark_tracer_counts_the_closure_layers():
    env = dict(os.environ, PYTHONPATH=os.path.join(_ROOT, "src"))
    env.pop("HOWE_CACHE", None)
    cmd = [sys.executable, "-c", _TRACED_ENUMERATION, os.path.join(_ROOT, "perfbench")]
    res = subprocess.run(cmd, capture_output=True, text=True, timeout=300, env=env)
    assert res.returncode == 0, res.stderr
    code, richelot_calls, add_calls = json.loads(res.stdout)
    assert code == EXIT_OK
    assert richelot_calls > 0 and add_calls > 0
