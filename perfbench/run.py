#!/usr/bin/env python3
"""Build colcache's benchmark from source, then run it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a colcache checkout. The build goes to the
checkout's _build directory with dune's shared cache off, so nothing is
written outside the checkout; build output goes to stderr. The arguments
pass through to perfbench/bench.exe, which then replaces this process, so
the benchmark runs as the one process the caller started.
"""

import os
import subprocess
import sys


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", root, "--display", "quiet",
         "./perfbench/bench.exe"],
        cwd=root, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    exe = os.path.join(root, "_build", "default", "perfbench", "bench.exe")
    os.chdir(root)
    os.execv(exe, [exe] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
