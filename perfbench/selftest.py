#!/usr/bin/env python3
"""Self-test of the gpuc benchmark.

    python3 perfbench/selftest.py

Run from the root of a checkout. Checks, in order:

  1. every expected winner compiles to its pinned text and matches the CPU
     reference (or, for the pipeline, the unfused naive chain) functionally;
  2. each workload's smoke setting passes, untraced and traced, and prints
     exactly the metrics BENCHMARK.json names;
  3. negative checks: a wrong expected winner, a corrupted serve reference
     and a fuzz miscompile injected through OracleOptions::Inject each make
     the run report failures and exit non-zero;
  4. without the compiler sources the command exits non-zero and prints no
     result.

Exits 0 when every check passes. Writes only under .bench_out/selftest.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True
import run  # noqa: E402  (the build step)

SCRATCH = ROOT / ".bench_out" / "selftest"
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
FAILURES = []


def check(ok, what):
    print(("PASS " if ok else "FAIL ") + what, flush=True)
    if not ok:
        FAILURES.append(what)


def last_json(stdout):
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


def bench(binary, *args, timeout=300):
    # A relative --out keeps the daemon's socket path short.
    r = subprocess.run([str(binary), *args, "--root", ".",
                        "--out", str(SCRATCH.relative_to(ROOT))],
                       cwd=ROOT, capture_output=True, text=True,
                       timeout=timeout)
    return r.returncode, last_json(r.stdout), r


def main():
    if SCRATCH.exists():
        shutil.rmtree(SCRATCH)
    SCRATCH.mkdir(parents=True)
    binary = run.build()

    r = subprocess.run([str(binary), "--validate-winners", "--root", "."],
                       cwd=ROOT, capture_output=True, text=True, timeout=600)
    print(r.stdout, end="")
    check(r.returncode == 0, "expected winners validate functionally")

    e2e = {m["name"] for m in BENCH["end_to_end"]}
    layer = {m["name"] for m in BENCH["per_layer"]}
    for wl in WORKLOADS:
        for trace, names in (("0", e2e), ("1", layer)):
            rc, res, _ = bench(binary, "--workload", wl, "--seed", "3",
                               "--seconds", "1", "--trace", trace, "--smoke")
            ok = (rc == 0 and res is not None and res["correct"]
                  and res["failed"] == 0 and res["attempted"] >= 1
                  and set(res["metrics"]) == names)
            check(ok, f"{wl} smoke --trace {trace}")
        trace_file = SCRATCH / f"trace_{wl}.json"
        try:
            events = json.loads(trace_file.read_text())["traceEvents"]
            check(len(events) > 0, f"{wl} trace-event file has spans")
        except (OSError, ValueError, KeyError):
            check(False, f"{wl} trace-event file is valid JSON")

    # A wrong pin: tp's layout point is diagonal, not identity.
    text = (HERE / "expected_winners.txt").read_text().splitlines()
    wrong = [l.replace("diagonal", "identity") if l.startswith("tp-") else l
             for l in text]
    wrong_path = SCRATCH / "wrong_winners.txt"
    wrong_path.write_text("\n".join(wrong) + "\n")
    negatives = [
        ("search_cold", ["--expected", str(wrong_path)], "wrong expected winner"),
        ("serve_warm", ["--inject", "reference"], "corrupted serve reference"),
        ("fuzz_campaign", ["--inject", "fuzz"], "injected fuzz miscompile"),
    ]
    for wl, extra, what in negatives:
        rc, res, _ = bench(binary, "--workload", wl, "--seed", "3",
                           "--seconds", "1", "--trace", "0", "--smoke", *extra)
        ok = (rc != 0 and res is not None and not res["correct"]
              and res["failed"] > 0)
        check(ok, f"{what} fails the run")

    # Only BENCHMARK.json and the benchmark's files: no sources to build.
    bare = SCRATCH / "bare"
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    r = subprocess.run(BENCH["command"] + ["--workload", WORKLOADS[0],
                                           "--seed", "1", "--seconds", "1",
                                           "--trace", "0"],
                       cwd=bare, capture_output=True, text=True, timeout=180)
    check(r.returncode != 0 and last_json(r.stdout) is None,
          "without sources the command fails and prints no result")

    print(f"{len(FAILURES)} failed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
