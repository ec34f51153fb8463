"""Run the benchmark over several seeds and report each metric's median, quartiles and spread.

    python3 perfbench/steadiness.py --workloads pretrain_b8,fewshot,paper_b64 --seeds 1-10

Runs one workload at a time, one seed at a time, from the checkout root.
The spread is (Q3 - Q1) / median with quartiles from
statistics.quantiles(values, n=4), printed next to the metric's bound from
BENCHMARK.json. Also prints each run's failed share of attempted
operations. Writes the raw results as JSON to --out when given.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, Q1, Q3, (Q3 - Q1) / median)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", default="pretrain_b8,fewshot,paper_b64")
    p.add_argument("--seeds", default="1-10", help="inclusive range such as 1-10")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="write raw results here as JSON")
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    raw: dict = {}
    for wl in args.workloads.split(","):
        runs = []
        for seed in seed_range(args.seeds):
            cmd = bench["command"] + ["--workload", wl, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
            done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            runs.append(result)
            print(f"{wl} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", file=sys.stderr, flush=True)
        raw[wl] = runs
        print(f"\n{wl} ({len(runs)} runs)")
        print(f"| metric | median | Q1 | Q3 | spread | bound |\n|---|---|---|---|---|---|")
        for name in runs[0]["metrics"]:
            med, q1, q3, s = spread([r["metrics"][name]["value"] for r in runs])
            unit = runs[0]["metrics"][name]["unit"]
            b = bounds.get(name)
            print(f"| {name} ({unit}) | {med:.4g} | {q1:.4g} | {q3:.4g} | {s:.3f} | {b if b is not None else '-'} |")
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"failed share of attempted: {sorted(shares)}; all correct: {all(r['correct'] for r in runs)}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(raw, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
