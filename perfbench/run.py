#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
                             [--size full|tiny]

The benchmark is its own Cargo package (perfbench/Cargo.toml) that
depends on the library crates by path. It is built in release mode into
$CARGO_TARGET_DIR (default: .bench_build at the repository root), then
run once; each workload runs in its own process so that its peak memory
is its own. The last line of standard output is the JSON result. The
exit code is the benchmark's: non-zero when the build fails, a call
fails, or an output disagrees with the 1-thread reference.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(HERE, "Cargo.toml")
# A run that outlives this is stopped and counts as failed.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def commit_id():
    """The checked-out commit, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as f:
            ref = f.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as f:
                return f.read().strip()
        return ref
    except OSError:
        return "unknown"


def build(env):
    if not os.path.isdir(os.path.join(ROOT, "crates")):
        fail(f"library crates not found under {ROOT}")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        fail("build failed")
    return os.path.join(env["CARGO_TARGET_DIR"], "release", "ecg-perfbench")


def expected_metrics(traced):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    return {m["name"]: m["unit"] for m in bench["per_layer" if traced else "end_to_end"]}


def main():
    args = sys.argv[1:]
    if "--trace" not in args:
        fail("--trace is required")
    traced = args[args.index("--trace") + 1:][:1] == ["1"]
    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR", ".bench_build")
    env["CARGO_TARGET_DIR"] = os.path.join(ROOT, target)
    binary = build(env)

    cmd = [binary, *args, "--commit", commit_id()]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        sys.stdout.write(e.stdout or "")
        fail(f"run exceeded {RUN_TIMEOUT_S} s and was stopped")
    lines = done.stdout.rstrip("\n").splitlines()
    if done.returncode != 0:
        sys.stdout.write(done.stdout)
        sys.exit(done.returncode)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stdout.write(done.stdout)
        fail("the run printed no JSON result")
    expected = expected_metrics(traced)
    emitted = {k: v["unit"] for k, v in result["metrics"].items()}
    if emitted != expected:
        print("\n".join(lines[:-1]))
        fail(f"metrics differ from BENCHMARK.json: {sorted(set(emitted.items()) ^ set(expected.items()))}")
    sys.stdout.write(done.stdout)

if __name__ == "__main__":
    main()
