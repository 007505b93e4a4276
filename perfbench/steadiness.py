"""Steadiness report: repeat a workload and show each end-to-end metric's spread.

    python3 perfbench/steadiness.py --workload large-r --runs 10 --first-seed 1 --save a.json
    python3 perfbench/steadiness.py --compare a.json b.json

A set of runs uses the command and ``run_seconds`` of ``BENCHMARK.json``
with seeds first-seed, first-seed + 1, ...  For each end-to-end metric it
prints the median, the quartiles (``statistics.quantiles(values, n=4)``) and
the spread, Q3 - Q1 as a share of the median, next to the metric's bound.
``--compare`` sets two saved sets side by side: the change of each median
in the metric's worse direction, as a share of the first median, against
the bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_set(workload: str, runs: int, first_seed: int) -> list[dict]:
    bench = load_benchmark()
    seconds = bench["run_seconds"]
    out = []
    for seed in range(first_seed, first_seed + runs):
        cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        short = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} {short}", flush=True)
        out.append({"seed": seed, "result": result})
    return out


def summarize(runs: list[dict]) -> dict:
    bench = load_benchmark()
    out = {}
    for spec in bench["end_to_end"]:
        values = [r["result"]["metrics"][spec["name"]]["value"] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        spread = (q3 - q1) / median
        out[spec["name"]] = {"unit": spec["unit"], "bound": spec["bound"], "median": median,
                             "q1": q1, "q3": q3, "spread": spread,
                             "spread_over_bound": spread / spec["bound"]}
    return out


def print_summary(workload: str, summary: dict, runs: list[dict]) -> None:
    ok = all(r["result"]["correct"] for r in runs)
    print(f"== {workload}: {len(runs)} runs, all correct: {ok} ==")
    print(f"   {'metric':<13}{'unit':<6}{'median':>11}{'q1':>11}{'q3':>11}"
          f"{'spread':>9}{'bound':>7}{'spread/bound':>14}")
    for name, s in summary.items():
        print(f"   {name:<13}{s['unit']:<6}{s['median']:11.4f}{s['q1']:11.4f}{s['q3']:11.4f}"
              f"{s['spread']:9.3f}{s['bound']:7.2f}{s['spread_over_bound']:14.2f}")


def compare(path_a: str, path_b: str) -> int:
    with open(path_a, encoding="utf-8") as fh:
        a = json.load(fh)
    with open(path_b, encoding="utf-8") as fh:
        b = json.load(fh)
    if a["workload"] != b["workload"]:
        print(f"error: workloads differ ({a['workload']} vs {b['workload']})", file=sys.stderr)
        return 2
    better = {m["name"]: m["better"] for m in load_benchmark()["end_to_end"]}
    print(f"== {a['workload']}: {path_a} -> {path_b} ==")
    regressed = False
    for name, sa in a["summary"].items():
        sb = b["summary"][name]
        worse = (sb["median"] - sa["median"]) / sa["median"]
        if better[name] == "higher":
            worse = -worse
        verdict = "worse beyond bound" if worse > sa["bound"] else "within bound"
        regressed |= worse > sa["bound"]
        print(f"   {name:<13}{sa['median']:11.4f}{sb['median']:11.4f}"
              f"  worse by {worse:+.3f} (bound {sa['bound']:.2f}): {verdict}")
    return 1 if regressed else 0


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--save", default="")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = p.parse_args()
    if args.compare:
        return compare(*args.compare)
    if not args.workload:
        p.error("--workload is required unless --compare is given")
    runs = run_set(args.workload, args.runs, args.first_seed)
    summary = summarize(runs)
    print_summary(args.workload, summary, runs)
    if args.save:
        with open(args.save, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "runs": runs, "summary": summary}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
