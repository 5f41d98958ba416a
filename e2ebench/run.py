#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 e2ebench/run.py --workload allxy_batch --seed 1 --seconds 10 --trace 0

Run from the repository root. The first call configures and builds
e2ebench/ (the QuMA library from src/ plus the quma_e2e binary) into
$CARGO_TARGET_DIR, default .bench_build; later calls only re-check the
build. Build output goes to stderr, so the benchmark's JSON result
stays the last line of stdout. All arguments are passed through to
quma_e2e.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "quma", "machine.hh")):
        sys.stderr.write("e2ebench: no QuMA sources next to %s\n" % HERE)
        return 2
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_root):
        build_root = os.path.join(ROOT, build_root)
    build = os.path.join(build_root, "e2ebench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build, "-j", jobs,
                  "--target", "quma_e2e"])
    # Compiler scratch files stay inside the build directory too.
    env = dict(os.environ, TMPDIR=os.path.join(build, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    for cmd in steps:
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           env=env) != 0:
            sys.stderr.write("e2ebench: build failed: %s\n" % " ".join(cmd))
            return 2
    args = sys.argv[1:]
    if "--out" not in args:
        args += ["--out", os.path.join(build_root, "e2ebench-out")]
    sys.stdout.flush()
    return subprocess.call([os.path.join(build, "quma_e2e")] + args,
                           cwd=ROOT)


if __name__ == "__main__":
    sys.exit(main())
