#!/usr/bin/env python3
"""Build Hemlock's benchmark program from source and run one workload.

    python3 perfbench/run.py --workload launch --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout. The benchmark program (a Go main
package in this directory, with its own go.mod) is built against the
checkout's own source; the build cache, the binary and any trace file go
under .bench_build/ in the checkout. The program's last line of standard
output is the result as one JSON object; with --trace 1 the traced run's
spans are also written to .bench_build/trace-<workload>-seed<seed>.json.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("serve", "launch", "compute", "fleet")
BUILD_TIMEOUT = 600  # a first build compiles the standard library too
RUN_TIMEOUT = 170


def go_env(out):
    """The environment the Go toolchain runs in: every write it makes
    lands under out, and it never looks for a newer toolchain."""
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(out, "gocache"),
        GOPATH=os.path.join(out, "gopath"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        XDG_CONFIG_HOME=os.path.join(out, "config"),
        GOTOOLCHAIN="local",
        GOWORK="off",
        GOFLAGS="-mod=readonly",
        CGO_ENABLED="0",
    )
    return env


def run(cmd, cwd, env, timeout):
    """Run cmd to completion, killing it (and waiting) on timeout."""
    proc = subprocess.Popen(cmd, cwd=cwd, env=env)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: {cmd[0]} timed out after {timeout} s", file=sys.stderr)
        return 124


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bench = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench)
    if not os.path.isfile(os.path.join(root, "go.mod")) or not os.path.isdir(
        os.path.join(root, "internal")
    ):
        print(f"perfbench: {root} holds no Hemlock source to build", file=sys.stderr)
        return 2
    out = os.path.join(root, ".bench_build")
    os.makedirs(out, exist_ok=True)
    env = go_env(out)

    binary = os.path.join(out, "perfbench")
    tmp = f"{binary}.{os.getpid()}"
    code = run(["go", "build", "-o", tmp, "."], bench, env, BUILD_TIMEOUT)
    if code != 0:
        print("perfbench: build failed", file=sys.stderr)
        return code or 1
    os.replace(tmp, binary)

    cmd = [
        binary,
        "-workload", args.workload,
        "-seed", str(args.seed),
        "-seconds", str(args.seconds),
        "-trace", str(args.trace),
    ]
    if args.trace:
        cmd += ["-trace-out", os.path.join(out, f"trace-{args.workload}-seed{args.seed}.json")]
    sys.stdout.flush()
    return run(cmd, root, env, RUN_TIMEOUT)


if __name__ == "__main__":
    sys.exit(main())
