#!/usr/bin/env python3
"""Builds and runs the qpd benchmark.

    python3 qpdbench/run.py --workload paper_sweep|explore_cold|serve_mix \
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds the benchmark binary (its own
Cargo package in this directory) and the repository's `qpd_serve`
daemon in release mode, pins itself and every child to the cores it may
use, sets QPD_THREADS to that core count, and runs the benchmark. The
benchmark's last line of standard output is the result object; build
output goes to standard error. Exits non-zero, without a result, when
the repository's sources are not beside this directory.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def cargo(args, env):
    subprocess.run(["cargo", *args], cwd=ROOT, env=env, check=True, stdout=sys.stderr)


def main():
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        sys.exit("qpdbench: no Cargo workspace beside the benchmark; run from a repository checkout")
    cores = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, cores)
    env = dict(os.environ, QPD_THREADS=str(len(cores)))
    # One target directory for both builds (the benchmark package would
    # otherwise build into its own `target/`).
    target = os.path.abspath(os.path.join(ROOT, env.get("CARGO_TARGET_DIR", "target")))
    env["CARGO_TARGET_DIR"] = target
    try:
        cargo(["build", "--release", "--quiet", "--manifest-path",
               os.path.join(HERE, "Cargo.toml")], env)
        cargo(["build", "--release", "--quiet", "-p", "qpd-serve", "--bin", "qpd_serve"], env)
    except (subprocess.CalledProcessError, OSError) as e:
        sys.exit(f"qpdbench: build failed: {e}")
    binary = os.path.join(target, "release", "qpdbench")
    out_dir = os.path.join(HERE, "out")
    cmd = [binary, *sys.argv[1:], "--serve-bin", os.path.join(target, "release", "qpd_serve"),
           "--out-dir", out_dir]
    sys.exit(subprocess.run(cmd, cwd=ROOT, env=env).returncode)


if __name__ == "__main__":
    main()
