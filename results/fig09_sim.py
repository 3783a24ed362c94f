"""Pin fig09's simulated series: project a `BENCH_pipeline.json` report
onto each dataset's per-chunk-size `sim_total_ms` and per-phase `sim_ms`.

    python3 results/fig09_sim.py BENCH_pipeline.json            # print the projection
    python3 results/fig09_sim.py BENCH_pipeline.json GOLDEN     # compare with GOLDEN

The comparison rounds every value to 9 significant digits (the report
prints 6 decimals, so in practice it checks the printed values) and exits
non-zero on any difference, missing or extra entry.
"""

import json
import sys


def project(report):
    out = {"bytes": report["bytes"], "workers": report["workers"], "datasets": {}}
    for dataset in report["datasets"]:
        rows = {}
        for row in dataset["rows"]:
            rows[str(row["chunk_size"])] = {
                "sim_total_ms": row["sim_total_ms"],
                "phases": {p["name"]: p["sim_ms"] for p in row["phases"]},
            }
        out["datasets"][dataset["name"]] = rows
    return out


def flatten(tree, prefix=""):
    if isinstance(tree, dict):
        for key, value in tree.items():
            yield from flatten(value, f"{prefix}/{key}")
    else:
        yield prefix, f"{tree:.9g}"


def main(args):
    with open(args[0]) as f:
        got = project(json.load(f))
    if len(args) == 1:
        print(json.dumps(got, indent=1, sort_keys=True))
        return 0
    with open(args[1]) as f:
        want = json.load(f)
    got, want = dict(flatten(got)), dict(flatten(want))
    diffs = [
        f"{key}: got {got.get(key)}, want {want.get(key)}"
        for key in sorted(got.keys() | want.keys())
        if got.get(key) != want.get(key)
    ]
    for line in diffs:
        print(line)
    print(f"{len(want)} simulated values checked, {len(diffs)} differ")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
