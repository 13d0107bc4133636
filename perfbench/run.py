#!/usr/bin/env python3
"""Build and run the gpuc benchmark.

    python3 perfbench/run.py --workload search_cold --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The first run configures and builds the
benchmark package (perfbench/CMakeLists.txt, which compiles the gpuc
libraries from src/) in Release mode under $CARGO_TARGET_DIR or
.bench_build; later runs rebuild only what changed. Everything the run
writes stays under .bench_build and .bench_out in the checkout.

The last line of stdout is the JSON result the benchmark binary prints. The
exit code is the binary's: 0 when every output check passed, 1 when one
failed. A missing source tree or a failed build exits 2 and prints no
result.

Extra arguments after the standard four are passed to the binary
(--smoke, --inject, --expected, --validate-winners, --bless).
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    base = Path(base)
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build():
    """Configures (once) and builds the benchmark; returns the binary."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"gpuc sources not found under {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    bdir = build_dir()
    bdir.mkdir(parents=True, exist_ok=True)
    log = bdir / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (bdir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(bdir), "-j", jobs,
                  "--target", "perfbench"])
    with open(log, "w") as out:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except subprocess.TimeoutExpired:
                fail("build timed out")
            if rc != 0:
                out.flush()
                tail = log.read_text(errors="replace").splitlines()[-20:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build step failed: {' '.join(cmd)}")
    binary = bdir / "perfbench"
    if not binary.is_file():
        fail("build produced no perfbench binary")
    return binary


def git_sha():
    # The ceiling keeps git from reporting an enclosing repository's commit
    # when the checkout is not a repository itself.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10,
                           env=env)
        return r.stdout.strip() if r.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def main(argv):
    binary = build()
    cmd = [str(binary), *argv, "--root", ".", "--git-sha", git_sha()]
    try:
        r = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark run exceeded {RUN_TIMEOUT_S} s")
    return r.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
