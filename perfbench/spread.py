#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each end-to-end metric's
spread: the distance between the first and third quartile of its values
(statistics.quantiles, n=4) as a share of their median, next to the
metric's bound from BENCHMARK.json.

Run from the repository root:

    python3 perfbench/spread.py --workload yelp-parse --seeds 1-10 [--out runs.json]

With --compare A.json B.json it instead prints, per workload and metric,
how far the median of B is from the median of A, as a share of A's median
(positive = worse), next to the bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def load_spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(spec, workload, seed, seconds):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, check=True, text=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"seed {seed}: incorrect output: {result}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", action="append", default=[])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--out")
    ap.add_argument("--compare", nargs=2)
    args = ap.parse_args()
    spec = load_spec()
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    if args.compare:
        a, b = (json.load(open(p)) for p in args.compare)
        for w in a:
            for name, m in bounds.items():
                ma = statistics.median(r[name] for r in a[w])
                mb = statistics.median(r[name] for r in b[w])
                worse = (mb - ma) / ma * (1 if m["better"] == "lower" else -1)
                flag = "ok" if worse <= m["bound"] else "WORSE"
                print(f"{w:12} {name:16} {ma:10.3f} -> {mb:10.3f}  worse {worse:+.3f}  bound {m['bound']}  {flag}")
        return

    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    runs = {}
    for w in workloads:
        runs[w] = []
        for s in seeds(args.seeds):
            r = run_once(spec, w, s, seconds)
            runs[w].append(r)
            print(w, s, json.dumps(r), file=sys.stderr, flush=True)
        for name, m in bounds.items():
            vals = [r[name] for r in runs[w]]
            sp = spread(vals)
            flag = "ok" if sp <= m["bound"] / 3 else ("within bound" if sp <= m["bound"] else "TOO WIDE")
            print(f"{w:12} {name:16} median {statistics.median(vals):10.3f}  spread {sp:.3f}  bound {m['bound']}  {flag}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(runs, f, indent=1)


if __name__ == "__main__":
    main()
