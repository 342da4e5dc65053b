#!/usr/bin/env python3
"""Build the perfbench Go program from source and run one benchmark run.

Run from the repository root:

    python3 perfbench/run.py --workload olden-full --seed 1 --seconds 30 --trace 0

The build, the Go build cache and the go command's temporary files go
under .bench_build/ in the root (or under $CARGO_TARGET_DIR when set),
so the run writes nothing outside the checkout.  The program's output is passed through unchanged; its
last line is the JSON result.  A failed build exits non-zero without
printing a result.
"""
import argparse
import hashlib
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def source_digest():
    """sha256 over the simulator's Go sources and go.mod, in path order."""
    h = hashlib.sha256()
    paths = []
    for d, dirs, files in os.walk(ROOT):
        rel = os.path.relpath(d, ROOT)
        top = rel.split(os.sep)[0]
        if top.startswith(".") and rel != ".":
            dirs[:] = []
            continue
        if top == os.path.basename(HERE):
            dirs[:] = []
            continue
        for f in files:
            if f.endswith(".go") or (rel == "." and f == "go.mod"):
                paths.append(os.path.join(rel, f))
    for p in sorted(paths):
        h.update(p.encode())
        with open(os.path.join(ROOT, p), "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def git_commit():
    # Only the tree's own repository: outside one, git would report the
    # commit of whatever repository encloses the directory.
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=32)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build = os.path.join(ROOT, build) if not os.path.isabs(build) else build
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "go-cache"),
        "GOMODCACHE": os.path.join(build, "go-mod"),
        "GOPATH": os.path.join(build, "go-path"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOTMPDIR": os.path.join(build, "tmp"),
        "TMPDIR": os.path.join(build, "tmp"),
        "GOTOOLCHAIN": "local",
        "GOFLAGS": "",
        "GOTELEMETRY": "off",
        "CGO_ENABLED": "0",
    })
    binary = os.path.join(build, "perfbench")
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    b = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                       stdout=sys.stderr, timeout=850)
    if b.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return b.returncode or 1

    cmd = [binary, "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", str(args.seconds), "-trace", str(args.trace),
           "-commit", git_commit(), "-source", source_digest()]
    sys.stdout.flush()
    cmd += ["-launch-ns", str(time.time_ns())]
    return subprocess.run(cmd, cwd=ROOT, env=env, timeout=175).returncode


if __name__ == "__main__":
    sys.exit(main())
