#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

The first form builds the `p2p-anon-node` binary and the benchmark
program (release, offline) into $CARGO_TARGET_DIR (default
`.bench_build`), then runs the benchmark with the remaining arguments.
`--selftest` builds the same and runs the benchmark's own tests.
Build output goes to standard error; the benchmark's standard output
passes through unchanged, so its last line is the result object.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(HERE, "Cargo.toml")


def run_quiet(cmd):
    """Run `cmd`, sending its output to stderr; exit on failure."""
    proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        sys.stderr.write("run.py: %s failed with code %d\n" % (" ".join(cmd), proc.returncode))
        sys.exit(1)


def capture(cmd):
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_hash():
    """A digest of the source tree, for checkouts that are not git repositories."""
    digest = hashlib.sha256()
    for top in ["Cargo.toml", "Cargo.lock", "src", "crates", "vendor", "perfbench"]:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in sorted(files):
            if f.endswith((".rs", ".toml", ".lock", ".py", ".txt")):
                digest.update(os.path.relpath(f, ROOT).encode())
                with open(f, "rb") as fh:
                    digest.update(fh.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


def main():
    args = sys.argv[1:]
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, target) if not os.path.isabs(target) else target
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    os.environ.update(env)

    run_quiet(["cargo", "build", "--release", "--offline", "--quiet",
               "--manifest-path", os.path.join(ROOT, "Cargo.toml"),
               "-p", "transport", "--bin", "p2p-anon-node"])
    if args == ["--selftest"]:
        run_quiet(["cargo", "test", "--release", "--offline", "--manifest-path", MANIFEST])
        return 0
    run_quiet(["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST])

    env["PERFBENCH_RUSTC"] = capture(["rustc", "--version"]) or "unknown"
    in_git = capture(["git", "rev-parse", "--show-toplevel"]) == ROOT
    env["PERFBENCH_COMMIT"] = (in_git and capture(["git", "rev-parse", "HEAD"])) or source_hash()
    exe = os.path.join(target, "release", "perfbench")
    return subprocess.run([exe] + args, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
