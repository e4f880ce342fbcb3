#!/usr/bin/env python3
"""Build and run the end-to-end solve benchmark for one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload pcg-lossy --seed 1 --seconds 30 --trace 0

The Go program in this directory is built from the repository's
sources into the build directory ($CARGO_TARGET_DIR, default
.bench_build), with the Go build cache, temp files and checkpoint
stores kept there too. The program's standard output is passed through;
its last line is the JSON result. A build or run failure exits non-zero.
"""

import argparse
import os
import shutil
import subprocess
import sys

BUILD_TIMEOUT = 850  # seconds; a cold build compiles the standard library
RUN_TIMEOUT = 170  # seconds


def find_go():
    go = shutil.which("go")
    if go:
        return go
    for root in (os.environ.get("GOROOT"), "/usr/local/go"):
        if root and os.access(os.path.join(root, "bin", "go"), os.X_OK):
            return os.path.join(root, "bin", "go")
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bench = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench)
    if not (os.path.isfile(os.path.join(root, "go.mod")) and os.path.isdir(os.path.join(root, "internal"))):
        print("perfbench: no repository sources (go.mod, internal/) beside the benchmark", file=sys.stderr)
        return 2
    go = find_go()
    if go is None:
        print("perfbench: no Go toolchain found", file=sys.stderr)
        return 2

    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    tmp = os.path.join(build, "tmp")
    for d in ("gocache", "gopath", "config", "tmp", "bin", "work", "traces"):
        os.makedirs(os.path.join(build, d), exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOMODCACHE=os.path.join(build, "gopath", "pkg", "mod"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="",
        GOWORK="off",
        GOENV="off",
        GOTELEMETRY="off",
        CGO_ENABLED="0",
    )
    binary = os.path.join(build, "bin", "perfbench")
    try:
        built = subprocess.run([go, "build", "-o", binary, "."], cwd=bench, env=env,
                               stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        print("perfbench: build timed out", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    env["GOMAXPROCS"] = str(min(2, os.cpu_count() or 1))
    # A larger heap goal keeps the Go runtime from returning the async
    # capture buffers to the OS between checkpoints: at the default,
    # a quarter to half of the Checkpoint calls re-faulted 8 MB of fresh
    # pages (about 2.5 ms more), and the per-call cost jumped between
    # the two modes from run to run.
    env["GOGC"] = "400"
    work = os.path.join(build, "work", "%s-%d" % (args.workload, os.getpid()))
    cmd = [binary, "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", str(args.seconds), "-trace", str(args.trace), "-workdir", work]
    if args.trace == 1:
        cmd += ["-trace-out", os.path.join(build, "traces", args.workload + ".tsv")]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, cwd=root, env=env, timeout=RUN_TIMEOUT).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
