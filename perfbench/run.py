#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

builds the anonet CLI and perfbench/bench.exe with dune, then runs the
benchmark; its last stdout line is the JSON result.  Extra flags
(--list-jobs, --smoke) pass through to bench.exe.  Exits non-zero without a
result when the checkout lacks the sources it measures or the build fails.
"""

import os
import shutil
import subprocess
import sys

BENCH = "_build/default/perfbench/bench.exe"
ANONET = "_build/default/bin/anonet_cli.exe"
SOURCES = ["dune-project", "lib/net/runner.ml", "bin/anonet_cli.ml", "perfbench/bench.ml"]


def main():
    missing = [p for p in SOURCES if not os.path.isfile(p)]
    if missing:
        sys.stderr.write("perfbench: not at the root of an anonet checkout "
                         "(missing %s)\n" % ", ".join(missing))
        return 2
    dune = ["dune"] if shutil.which("dune") else ["opam", "exec", "--", "dune"]
    build = subprocess.run(
        dune + ["build", "--root", ".", "./" + BENCH, "./" + ANONET],
        stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return build.returncode
    sys.stdout.flush()
    return subprocess.run([BENCH, "--anonet", ANONET] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
