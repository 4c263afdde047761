#!/usr/bin/env python3
"""Build the perfbench Go program from source and run it.

Usage, from the repository root:

    python3 perfbench/run.py --workload <posix-gen|h5-lib|daemon-mix> \
        --seed <n> --seconds <s> --trace <0|1>

Everything the build writes (binary, Go build cache, temporary files) goes
under .bench_build/ at the repository root. The last line of standard
output is the benchmark's JSON result; see perfbench/README.md.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def build():
    """Build the benchmark binary, keeping every Go write inside BUILD."""
    env = dict(os.environ)
    for var, sub in (("GOCACHE", "gocache"), ("GOTMPDIR", "tmp"), ("GOPATH", "gopath"),
                     ("XDG_CONFIG_HOME", "config"), ("XDG_CACHE_HOME", "cache")):
        env[var] = os.path.join(BUILD, sub)
        os.makedirs(env[var], exist_ok=True)
    env["GOTOOLCHAIN"] = "local"
    env["GOFLAGS"] = "-mod=mod"
    binary = os.path.join(BUILD, "perfbench")
    done = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                          stdout=sys.stderr)
    if done.returncode != 0:
        sys.exit("perfbench: build failed")
    return binary


def main():
    binary = build()
    args = [binary, "--golden", os.path.join(HERE, "golden")] + sys.argv[1:]
    sys.stdout.flush()
    os.execv(binary, args)


if __name__ == "__main__":
    main()
