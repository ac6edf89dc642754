#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source, then runs it.

    python3 e2ebench/run.py --workload <walk_tcp|churn_bus> \
        --seed <n> --seconds <s> --trace <0|1>
    python3 e2ebench/run.py --probe

Run from the repository root. The build goes to $CARGO_TARGET_DIR
(default `.bench_build`); cargo's output goes to stderr, so the last line
of stdout is the benchmark's JSON result. Exits non-zero, printing no
result, when the build or the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    env = dict(os.environ)
    target = os.path.abspath(env.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr, stdin=subprocess.DEVNULL)
    if build.returncode != 0:
        print("e2ebench: build failed", file=sys.stderr)
        return build.returncode
    binary = os.path.join(target, "release", "infosleuth-e2ebench")
    return subprocess.run([binary] + sys.argv[1:], env=env, stdin=subprocess.DEVNULL).returncode


if __name__ == "__main__":
    sys.exit(main())
