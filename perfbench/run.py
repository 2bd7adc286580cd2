#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/perfbench.exe with dune from the root of the checkout,
then runs it there with the same arguments. The benchmark prints its
result as the last line of standard output; build output goes to
standard error. Exits non-zero, without a result, when the build or
the run fails.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TARGET = "./perfbench/perfbench.exe"
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")
OPTIONS = ("--workload", "--seed", "--seconds", "--trace")


def main(argv):
    given = argv[0::2]
    if len(argv) % 2 or sorted(given) != sorted(OPTIONS):
        print(__doc__, file=sys.stderr)
        return 2
    # Keep every file the build writes inside the checkout.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "--profile", "release", TARGET],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    return subprocess.run([EXE] + argv, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
