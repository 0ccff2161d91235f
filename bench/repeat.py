#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarize each metric.

    python3 bench/repeat.py --workloads all --seeds 1-10 [--seconds S] [--trace 1] [--out FILE]

For every workload and metric it prints the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread: the distance between
the quartiles as a share of the median.  The end-to-end bounds of
BENCHMARK.json are printed beside the spreads, so a run shows at once
whether the benchmark is steady.  ``--out`` writes every run's stamp,
details and result plus the summary as JSON.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_arg(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    record = {"result": json.loads(lines[-1]), "run_wall_s": wall}
    for line in lines:
        key, _, rest = line.partition(" ")
        if key in ("stamp", "detail"):
            record[key] = json.loads(rest)
    return record


def summarize(records):
    summary = {}
    for name in records[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][name]["value"] for r in records]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        summary[name] = {"median": med, "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / med if med else 0.0,
                         "unit": records[0]["result"]["metrics"][name]["unit"]}
    return summary


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default="all")
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--seconds", type=float, default=None,
                    help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    workloads = ([w["name"] for w in bench["workloads"]] if args.workloads == "all"
                 else args.workloads.split(","))
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {"seconds": seconds, "trace": args.trace, "workloads": {}}
    for workload in workloads:
        records = []
        for seed in args.seeds:
            rec = run_once(workload, seed, seconds, args.trace)
            ok = rec["result"]["correct"]
            print(f"{workload} seed {seed}: correct={ok} attempted={rec['result']['attempted']} "
                  f"run took {rec['run_wall_s']:.1f} s", flush=True)
            records.append(rec)
        summary = summarize(records)
        report["workloads"][workload] = {"runs": records, "summary": summary}
        print(f"\n{workload}: {len(records)} seeds, {seconds:g} s each")
        for name, s in summary.items():
            bound = bounds.get(name)
            flag = "" if bound is None else f"  bound {bound:.2f}  {'ok' if s['spread'] < bound / 3 else 'WIDE'}"
            print(f"  {name:<46} median {s['median']:<12.6g} {s['unit']:<6} q1 {s['q1']:<12.6g} "
                  f"q3 {s['q3']:<12.6g} spread {s['spread']:.3f}{flag}")
        print(flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
