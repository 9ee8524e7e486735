#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload poisson-1025-par --seed 1 \
        --seconds 5 --trace 0

The first run configures and compiles perfbench/ (the library sources in
src/ plus the perfbench binary) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench; later runs reuse that build.  Build output goes to
stderr.  The binary's stdout is passed through unchanged: its last line is
the result object {"correct", "attempted", "failed", "metrics"}.  The exit
status is the binary's (0 ok, 1 a correctness check failed, 2 usage or
setup error); a failed build or a missing source tree exits 2 without
printing a result.
"""

import argparse
import hashlib
import os
import pathlib
import subprocess
import sys

BENCH_DIR = pathlib.Path("perfbench")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message):
    print(f"perfbench/run.py: {message}", file=sys.stderr)
    return 2


def source_digest():
    """sha256 over the library sources, the benchmark and its tables."""
    digest = hashlib.sha256()
    files = []
    for root in (pathlib.Path("src"), BENCH_DIR):
        files.extend(p for p in root.rglob("*")
                     if p.is_file() and p.suffix in (".h", ".cpp", ".json",
                                                     ".txt", ".py"))
    for path in sorted(files):
        digest.update(str(path).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha():
    """HEAD of the checkout, or "unavailable" when it is not a git tree of
    its own (a git repository further up does not count)."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10,
                             check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or \
            pathlib.Path(lines[0]).resolve() != pathlib.Path.cwd().resolve():
        return "unavailable"
    return lines[1]


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "-j", jobs,
                  "--target", "perfbench"])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as error:
            return f"{' '.join(step)}: {error}"
        if done.returncode != 0:
            return f"{' '.join(step)} exited {done.returncode}"
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    if not pathlib.Path("src/engine/solve_service.h").is_file():
        return fail("library sources (src/) not found; run from the root "
                    "of a full checkout")
    target_root = pathlib.Path(os.environ.get("CARGO_TARGET_DIR",
                                              ".bench_build"))
    build_dir = target_root / "perfbench"
    error = build(build_dir)
    if error:
        return fail(f"build failed: {error}")
    out_dir = build_dir / "out"
    out_dir.mkdir(parents=True, exist_ok=True)

    command = [str(build_dir / "perfbench"),
               "--workload", args.workload,
               "--seed", str(args.seed),
               "--seconds", str(args.seconds),
               "--trace", args.trace,
               "--tables", str(BENCH_DIR / "tables"),
               "--out-dir", str(out_dir),
               "--git-sha", git_sha(),
               "--source-digest", source_digest()]
    sys.stdout.flush()
    try:
        done = subprocess.run(command, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        return fail(f"perfbench did not finish within {RUN_TIMEOUT_S} s")
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
