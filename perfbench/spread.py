"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload sweep --seeds 1-10 [--seconds S]

Runs the benchmark once per seed (each in a fresh interpreter, one after
another) and prints, per metric, the median and the distance between the
first and third quartiles as a share of the median. Those shares are
what a metric's bound in BENCHMARK.json must stay above. The summary is
also written to perfbench/out/spread-<workload>-trace<t>.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seed_list(text):
    out = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        out += range(int(low), int(high or low) + 1)
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, required=True)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: exit {proc.returncode} correct {result['correct']} "
              + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
              flush=True)
        for key, metric in result["metrics"].items():
            values.setdefault(key, []).append(metric["value"])
    summary = {"workload": args.workload, "seeds": args.seeds, "seconds": seconds,
               "metrics": {}}
    for key, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
        else:
            q1 = q3 = med
        share = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(key)
        note = f" bound {bound} ({share / bound:.2f} of it)" if bound else ""
        print(f"{key}: median {med:.6g} spread {share:.4f}{note}")
        summary["metrics"][key] = {"values": vals, "median": med, "q1": q1, "q3": q3,
                                   "spread": share}
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    path = os.path.join(HERE, "out", f"spread-{args.workload}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)


if __name__ == "__main__":
    main()
