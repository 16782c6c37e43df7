#!/usr/bin/env python3
"""Build and run the perfbench benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload serve-cold --seed 1 --seconds 20 --trace 0

The benchmark is its own Go module (perfbench/go.mod) that builds the
repository's packages from source through a replace directive. The build
cache, module cache and binary live under .bench_build/ in the current
directory, so nothing is read from or written to the user's home. All
arguments are passed through to the binary, whose last line of standard
output is the JSON result.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, ".bench_build")
    os.makedirs(build, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOMODCACHE": os.path.join(build, "gopath", "pkg", "mod"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
        "GOFLAGS": "-mod=readonly",
        "GOPROXY": "off",
        "CGO_ENABLED": "0",
    })
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode or 1
    return subprocess.run([binary] + sys.argv[1:], cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
