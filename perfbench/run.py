#!/usr/bin/env python3
"""Build and run the served-path benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload fig6-cold --seed 1 --seconds 30 --trace 0

The benchmark is the Go program in this directory (module toorjah/perfbench,
which builds the repository's own packages from the parent directory). This
wrapper compiles it with the Go build cache, temporary files and Go's
telemetry kept under .bench_build/ in the checkout, then runs it with the
same arguments and exits with its exit code. Every file the benchmark writes
(write-ahead logs, span dumps) also lands under .bench_build/.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def main() -> int:
    for sub in ("gocache", "tmp", "config"):
        os.makedirs(os.path.join(BUILD, sub), exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        TMPDIR=os.path.join(BUILD, "tmp"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="-mod=mod",
        GOWORK="off",
    )
    binary = os.path.join(BUILD, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    sys.stdout.flush()
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
