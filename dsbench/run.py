#!/usr/bin/env python3
"""Builds and runs the dsbench benchmark from the root of a checkout.

    python3 dsbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds `dramscoped` from the repository's workspace and the `dsbench`
binary from its own package (both release, into $CARGO_TARGET_DIR,
default `.bench_build`), then runs the benchmark with the same
arguments. Build output goes to stderr; the benchmark's last stdout
line is its JSON result. Exits non-zero without a result when either
build or the run fails.
"""

import os
import subprocess
import sys


def main() -> int:
    root = os.getcwd()
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--quiet", "-p", "dramscope-service",
         "--bin", "dramscoped"],
        ["cargo", "build", "--release", "--quiet", "--manifest-path",
         os.path.join("dsbench", "Cargo.toml")],
    ]
    for cmd in builds:
        if subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr).returncode != 0:
            print("dsbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 1
    release = os.path.join(target, "release")
    cmd = [os.path.join(release, "dsbench"), *sys.argv[1:],
           "--daemon", os.path.join(release, "dramscoped"),
           "--work-dir", os.path.join(root, ".bench_out")]
    return subprocess.run(cmd, cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
