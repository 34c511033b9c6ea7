#!/usr/bin/env python3
"""Build and run the ftbench benchmark from the root of a checkout.

    python3 ftbench/run.py --workload sim-window --seed 1 --seconds 20 --trace 0

The Go program is built from source into .bench_build/ with its build
cache, temporary files and module cache kept there too, so a run reads
and writes only inside the checkout. Arguments are passed through to
the program; its standard output (whose last line is the JSON result)
and exit status are passed back. Without the repository's sources
beside this directory the build fails and the script exits non-zero
without printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def build_env():
    env = dict(os.environ)
    for key, sub in (("GOCACHE", "gocache"), ("GOTMPDIR", "gotmp"),
                     ("GOMODCACHE", "gomod"), ("XDG_CONFIG_HOME", "config")):
        path = os.path.join(BUILD, sub)
        os.makedirs(path, exist_ok=True)
        env[key] = path
    env.update(GOFLAGS="-mod=mod", GOPROXY="off", GOTOOLCHAIN="local",
               GOWORK="off", GOTELEMETRY="off", CGO_ENABLED="0")
    return env


def main():
    os.makedirs(BUILD, exist_ok=True)
    binary = os.path.join(BUILD, "ftbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE,
                           env=build_env(), stdout=sys.stderr)
    if built.returncode != 0:
        print("ftbench: build failed", file=sys.stderr)
        return 1
    proc = subprocess.run([binary] + sys.argv[1:], cwd=ROOT)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
