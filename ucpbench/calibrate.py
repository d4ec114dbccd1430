"""Measure the benchmark's baseline and write it into ucpbench/baseline.json.

    python3 ucpbench/calibrate.py

Run from the repository root.  For every workload it makes two sets of
five runs at seed 1, two sets of ten runs at seeds 1-10 and 11-20, and
one run at the hold-out seed 2, each with `bash ucpbench/run.sh` for
BENCHMARK.json's run_seconds, and records for every end-to-end metric
each set's median and quartiles (statistics.quantiles(values, n=4)).
The two ten-seed sets show both the spread a bound must hold and how
far the median of ten runs of unchanged code moves.  The "calibration"
member of baseline.json is replaced; the pinned digests and bound
reasons are kept.  Takes about an hour at 25 seconds per run.
"""

import json
import statistics
import subprocess
import sys

SETS = {
    "seed1_a": [1] * 5,
    "seed1_b": [1] * 5,
    "seeds_1_10": list(range(1, 11)),
    "seeds_11_20": list(range(11, 21)),
    "holdout_seed2": [2],
}


def run(workload, seed, seconds):
    out = subprocess.run(
        ["bash", "ucpbench/run.sh", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: outputs were not correct")
    return {m: v["value"] for m, v in result["metrics"].items()}


def summary(values):
    if len(values) == 1:
        return {"runs": 1, "value": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"runs": len(values), "q1": q1, "median": median, "q3": q3,
            "spread": (q3 - q1) / median}


def main():
    bench = json.load(open("BENCHMARK.json"))
    seconds = bench["run_seconds"]
    metrics = [m["name"] for m in bench["end_to_end"]]
    calibration = {"seconds": seconds}
    for name, seeds in SETS.items():
        calibration[name] = {}
        for w in (w["name"] for w in bench["workloads"]):
            runs = [run(w, s, seconds) for s in seeds]
            calibration[name][w] = {m: summary([r[m] for r in runs]) for m in metrics}
            print(name, w, "done", flush=True)
    with open("ucpbench/baseline.json") as f:
        baseline = json.load(f)
    baseline["calibration"] = calibration
    with open("ucpbench/baseline.json", "w") as f:
        json.dump(baseline, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
