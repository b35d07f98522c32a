#!/usr/bin/env python3
"""Steadiness report: run one workload with seeds 1..N and print, per
end-to-end metric, the median, the quartiles and the spread (interquartile
distance as a share of the median) against the metric's bound in
BENCHMARK.json.

    python3 perfbench/steady.py --workload volume [--runs N]
        [--save runs.json] [--against earlier.json]

Run from the repository root. Each run measures for BENCHMARK.json's
`run_seconds`. `--save` keeps every run's metrics; `--against` also
compares each median with a saved set's median, which is how two sets of
runs of the same code are checked to agree within the bounds. Quartiles
are `statistics.quantiles(values, n=4)`. A run that fails, or ends
without a result, is left out of the figures and makes the report fail,
as does any spread or median move beyond its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    """Metrics of one run, or None when it failed or gave no result."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().split("\n")
    summary = next((l for l in lines if l.startswith(f"{workload}: ")), "")
    try:
        result = json.loads(lines[-1])
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
    except (ValueError, KeyError, TypeError, AttributeError):
        print(f"  seed {seed}: FAILED, no result (exit {done.returncode})")
        return None
    if done.returncode != 0 or not result["correct"] or None in metrics.values():
        print(f"  seed {seed}: FAILED ({result['failed']} of {result['attempted']})")
        return None
    print(f"  seed {seed}: {result['attempted']} operations; {summary}")
    return metrics


def worse(metric, new, old):
    """Share by which `new` is worse than `old` (negative when better)."""
    change = (new - old) / old
    return -change if metric["better"] == "higher" else change


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--save")
    ap.add_argument("--against")
    opts = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    earlier = []
    if opts.against:
        with open(opts.against) as f:
            earlier = json.load(f)
    workload = opts.workload
    print(f"{workload}: seeds 1..{opts.runs}, {spec['run_seconds']} s each")
    results = [run_once(workload, seed, spec["run_seconds"])
               for seed in range(1, opts.runs + 1)]
    runs = [r for r in results if r is not None]
    ok = len(runs) == len(results) and len(runs) >= 2
    print(f"{len(runs)} of {len(results)} runs succeeded")
    if len(runs) < 2:
        sys.exit(1)
    print(f"{'metric':<18} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}  verdict")
    for m in spec["end_to_end"]:
        values = [r[m["name"]] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / abs(med)
        bound = m["bound"]
        if spread < bound / 3:
            verdict = "steady"
        elif spread <= bound:
            verdict = "within bound"
        else:
            verdict, ok = "TOO WIDE", False
        if earlier:
            old = statistics.median([r[m["name"]] for r in earlier])
            w = worse(m, med, old)
            verdict += f"; vs saved {w:+.1%}"
            if w > bound:
                verdict, ok = verdict + " WORSE", False
        print(f"{m['name']:<18} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} {spread:>8.1%} {bound:>6.2f}  {verdict}")
    if opts.save:
        with open(opts.save, "w") as f:
            json.dump(runs, f)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
