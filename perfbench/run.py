#!/usr/bin/env python3
"""Build and run one workload of the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed N --seconds S --trace <0|1>

Run from the repository root. Builds the benchmark package
(perfbench/Cargo.toml) and the `serve` binary of the workspace from
source into $CARGO_TARGET_DIR (default: .bench_build), then runs the
benchmark binary with the same arguments. Its last line of standard
output is the JSON result; details and spans land in .perfbench/.
Exits non-zero, without a result, when the build fails.
"""

import os
import subprocess
import sys


def build(target_dir, manifest, extra):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", manifest] + extra
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    # Build output goes to stderr: stdout carries only the result.
    return subprocess.run(cmd, env=env, stdout=sys.stderr).returncode


def main():
    root = os.getcwd()
    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    for manifest, extra in [
        (os.path.join("perfbench", "Cargo.toml"), []),
        ("Cargo.toml", ["-p", "dpdp-server", "--bin", "serve"]),
    ]:
        if not os.path.isfile(os.path.join(root, manifest)):
            print(f"run.py: {manifest} not found; run from the repository root",
                  file=sys.stderr)
            return 1
        code = build(target_dir, manifest, extra)
        if code != 0:
            print(f"run.py: building {manifest} failed ({code})", file=sys.stderr)
            return 1
    release = os.path.join(target_dir, "release")
    cmd = [os.path.join(release, "perfbench")] + sys.argv[1:] + [
        "--serve-bin", os.path.join(release, "serve"),
        "--out-dir", os.path.join(root, ".perfbench"),
    ]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
