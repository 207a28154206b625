#!/usr/bin/env python3
"""Build the repository's benchmark from source and run it.

    python3 perfbench/run.py --workload meta-storm --seed 1 --seconds 8 --trace 0

Run it from the root of a checkout. It builds perfbench/ (a Go module that
uses the repository's packages through a replace directive) into
.bench_build/, keeping the Go build cache there too, then runs the binary
from the checkout root with the same arguments. The binary prints its
metrics as one JSON object on the last line of standard output and writes
spans, profiles and traces to .bench_build/out/. The exit code is the
build's when the build fails, else the benchmark's.
"""

import os
import subprocess
import sys


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOTOOLCHAIN="local",
        GOFLAGS="-mod=mod",
    )
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(
        ["go", "build", "-o", binary, "."],
        cwd=os.path.join(root, "perfbench"),
        env=env,
        stdout=sys.stderr,
    )
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode or 1
    args = sys.argv[1:] + ["--out", os.path.join(build, "out")]
    return subprocess.run([binary] + args, cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
