"""Steadiness check: two sets of runs on seeds 101-110 of every workload.

    python3 perfbench/steadiness.py

For every end-to-end metric it prints, per set, the median and the
spread (distance between the first and third quartile of the runs, as
a share of their median), then the second set's median against the
first's.  A spread above the metric's bound in BENCHMARK.json, a second
median worse by more than the bound, or a share of failed operations
that differs between runs is flagged.  Every run's result line is kept
in .perfbench_out/steadiness.json.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETS = 2
SEEDS = range(101, 111)


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_once(bench, workload, seed):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    results = {}
    for s in range(SETS):
        for workload in (w["name"] for w in bench["workloads"]):
            for seed in SEEDS:
                res = run_once(bench, workload, seed)
                results.setdefault(workload, [[] for _ in range(SETS)])[s].append(res)
                shown = " ".join(f"{k}={v['value']:.4f}" for k, v in res["metrics"].items())
                print(f"set {s + 1} {workload} seed {seed}: correct={res['correct']} "
                      f"attempted={res['attempted']} failed={res['failed']} {shown}",
                      flush=True)

    problems = []
    for workload, sets in results.items():
        runs = [r for runs in sets for r in runs]
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"{workload}: failed share {sorted(shares)}, "
              f"all correct {all(r['correct'] for r in runs)}")
        if len(shares) > 1 or not all(r["correct"] for r in runs):
            problems.append(f"{workload}: failed share or correctness differs")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = []
            for s, runs in enumerate(sets):
                values = [r["metrics"][name]["value"] for r in runs]
                medians.append(statistics.median(values))
                sp = spread(values)
                flag = ""
                if sp > bound:
                    flag = "  SPREAD ABOVE BOUND"
                    problems.append(f"{workload} {name} set {s + 1} spread {sp:.4f}")
                print(f"  {name} set {s + 1}: median {medians[-1]:.4f} "
                      f"spread {sp:.4f} (bound {bound}){flag}")
            worse = medians[1] / medians[0] - 1.0
            if metric["better"] == "higher":
                worse = -worse
            flag = "  WORSE THAN BOUND" if worse > bound else ""
            if flag:
                problems.append(f"{workload} {name} second median worse by {worse:.4f}")
            print(f"  {name} second median worse by {worse:+.4f}{flag}")

    os.makedirs(os.path.join(ROOT, ".perfbench_out"), exist_ok=True)
    with open(os.path.join(ROOT, ".perfbench_out", "steadiness.json"), "w") as fh:
        json.dump(results, fh, indent=1)
    print("steady" if not problems else "NOT steady:\n  " + "\n  ".join(problems))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
