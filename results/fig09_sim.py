"""Pin the simulated series of a bench report: project it onto its
simulated values alone, and compare them with a golden file.

    python3 results/fig09_sim.py BENCH_pipeline.json            # print the projection
    python3 results/fig09_sim.py BENCH_pipeline.json GOLDEN     # compare with GOLDEN

The report's `harness` picks the projection:

- fig09 (`BENCH_pipeline.json`): per dataset and chunk size,
  `sim_total_ms` and the per-phase `sim_ms`;
- fig11 (`BENCH_fig11.json`): per dataset and tagging mode, the same;
- fig12 (`BENCH_fig12.json`): per dataset and partition size, the
  partition count, `sim_e2e_ms` and every partition's `sim_parse_ms`.

The comparison rounds every value to 9 significant digits (the report
prints 6 decimals, so in practice it checks the printed values) and exits
non-zero on any difference, missing or extra entry.
"""

import json
import sys


def phases(row):
    return {p["name"]: p["sim_ms"] for p in row["phases"]}


def project(report):
    out = {"bytes": report["bytes"], "workers": report["workers"]}
    harness = report["harness"]
    if harness == "fig09":
        out["datasets"] = {
            dataset["name"]: {
                str(row["chunk_size"]): {
                    "sim_total_ms": row["sim_total_ms"],
                    "phases": phases(row),
                }
                for row in dataset["rows"]
            }
            for dataset in report["datasets"]
        }
    elif harness == "fig11":
        modes = {}
        for row in report["modes"]:
            modes.setdefault(row["dataset"], {})[row["mode"]] = {
                "sim_total_ms": row["sim_total_ms"],
                "phases": phases(row),
            }
        out["modes"] = modes
    elif harness == "fig12":
        out["datasets"] = {
            dataset["name"]: {
                str(row["partition_bytes"]): {
                    "partitions": row["partitions"],
                    "sim_e2e_ms": row["sim_e2e_ms"],
                    "sim_parse_ms": {str(i): v for i, v in enumerate(row["sim_parse_ms"])},
                }
                for row in dataset["rows"]
            }
            for dataset in report["datasets"]
        }
    else:
        raise SystemExit(f"no simulated series to pin in harness {harness!r}")
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
