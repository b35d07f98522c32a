#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload insitu|volume|serve --seed N \
        --seconds S --trace 0|1

Run from the repository root. Builds `perfbench/` (a package of its own
that depends on the repository's crates by path) in release mode, into
`$CARGO_TARGET_DIR` or else `.bench_build`, then runs it with the given
arguments. The program's output passes through; its last line is the JSON
result. The metric names it reports are checked against `BENCHMARK.json`
(`end_to_end` with `--trace 0`, `per_layer` with `--trace 1`): a missing,
extra or mis-united metric marks the result incorrect.

Exits non-zero, without printing a result, when the build fails (as it
does where the repository's crates are absent).
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# The program itself stops after its set-up plus --seconds; this only
# guards against a hang.
RUN_TIMEOUT_S = 175


def build():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    # Cargo's own output goes to stderr so stdout stays the program's.
    done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                          env=dict(os.environ, CARGO_TARGET_DIR=target))
    if done.returncode != 0:
        sys.exit(f"perfbench: build failed ({done.returncode})")
    return os.path.join(ROOT, target, "release", "fv-perfbench")


def declared(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    args = sys.argv[1:]
    trace = "--trace" in args and args[args.index("--trace") + 1 :][:1] == ["1"]
    want = declared(trace)
    binary = build()
    try:
        done = subprocess.run([binary] + args, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: no result within {RUN_TIMEOUT_S} s")
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write(done.stdout)
        sys.exit(f"perfbench: no result line (exit {done.returncode})")
    print("\n".join(lines[:-1]))
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(k for k in set(got) & set(want) if got[k] != want[k])
        print(f"failed: metrics differ from BENCHMARK.json: missing {missing}, "
              f"extra {extra}, unit mismatch {units}")
        result["correct"] = False
        result["failed"] += 1
    print(json.dumps(result))
    if done.returncode != 0 or not result["correct"]:
        sys.exit(done.returncode or 1)


if __name__ == "__main__":
    main()
