#!/usr/bin/env python3
"""Run the benchmark as separate sets of runs and record what they read.

    python3 benchmark/seed_runs.py [--sets 2] [--runs 10] [--out benchmark/seed-runs.json]

Each set runs every workload of BENCHMARK.json `--runs` times, each time
with another seed, through BENCHMARK.json's own command. Per workload and
end-to-end metric it records the values, their median, and the spread the
acceptance rule looks at: the distance between the first and third quartile
(`statistics.quantiles(values, n=4)`) as a share of the median. Between two
sets it records how far the second median is worse than the first.

Run it from the repository root on an otherwise idle machine.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds, trace):
    argv = command + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    started = time.time()
    done = subprocess.run(argv, capture_output=True, text=True)
    wall = time.time() - started
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"{' '.join(argv)} exited {done.returncode}:\n{done.stdout}\n{done.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect run\n{done.stdout}")
    checksum = next(l.split()[2] for l in lines if " result_checksum " in l)
    values = {k: v["value"] for k, v in result["metrics"].items()}
    # The demoted metrics are not in the result line of an untraced run but
    # are printed above it: `<workload> <metric> <value> <unit> n=<samples>`.
    for words in (l.split() for l in lines[:-1]):
        if len(words) == 5 and words[4].startswith("n=") and words[1] not in values:
            values[words[1]] = float(words[2])
    return values, checksum, wall


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=2012)
    ap.add_argument("--out", default="benchmark/seed-runs.json")
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    command, seconds = bench["command"], bench["run_seconds"]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    seeds = [args.first_seed + i for i in range(args.runs)]

    record = {
        "command": command,
        "run_seconds": seconds,
        "seeds": seeds,
        "cores": os.cpu_count(),
        "load1_at_start": os.getloadavg()[0],
        "sets": [],
    }
    for s in range(args.sets):
        one = {}
        for w in (w["name"] for w in bench["workloads"]):
            values = {}
            checksums, walls = [], []
            for seed in seeds:
                got, checksum, wall = run_once(command, w, seed, seconds, 0)
                for name, value in got.items():
                    values.setdefault(name, []).append(value)
                checksums.append(checksum)
                walls.append(round(wall, 2))
                print(f"set {s} {w} seed {seed}: {wall:.1f} s", flush=True)
            one[w] = {
                "wall_s": walls,
                "result_checksum": checksums,
                "metrics": {
                    name: {
                        "values": v,
                        "median": statistics.median(v),
                        "spread": spread(v),
                    }
                    for name, v in values.items()
                },
            }
        record["sets"].append(one)

    # Same seeds, same code: the checksums of two sets must agree, and the
    # second median may not be worse than the first by more than the bound.
    verdict = {}
    for w, first in record["sets"][0].items():
        for name, m in metrics.items():
            worst_spread = max(s[w]["metrics"][name]["spread"] for s in record["sets"])
            row = {"bound": m["bound"], "spread": worst_spread}
            if args.sets > 1:
                a = first["metrics"][name]["median"]
                b = record["sets"][1][w]["metrics"][name]["median"]
                worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
                row["second_median_worse_by"] = worse
                row["checksums_agree"] = (
                    first["result_checksum"] == record["sets"][1][w]["result_checksum"]
                )
            row["within_bound"] = (name == "setup_s" or worst_spread <= m["bound"]) and row.get(
                "second_median_worse_by", 0.0
            ) <= m["bound"]
            verdict[f"{w}/{name}"] = row
            flag = "" if row["within_bound"] else "  <-- outside its bound"
            print(
                f"{w:12} {name:20} spread {worst_spread:7.2%} bound {m['bound']:5.0%} "
                f"drift {row.get('second_median_worse_by', 0.0):+7.2%}{flag}"
            )
    ungated = [n for n in next(iter(record["sets"][0].values()))["metrics"] if n not in metrics]
    for name in ungated:
        worst = max(s[w]["metrics"][name]["spread"] for s in record["sets"] for w in s)
        print(f"{'(not gated)':12} {name:20} worst spread over the workloads {worst:7.2%}")
    record["verdict"] = verdict
    with open(args.out, "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
