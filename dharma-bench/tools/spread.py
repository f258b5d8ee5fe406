#!/usr/bin/env python3
"""Runs a built dharma-bench over several seeds and prints, per end-to-end
metric, the median and the interquartile range as a share of the median —
the spread the benchmark contract is judged on (statistics.quantiles, n=4).

usage: spread.py <path-to-dharma-bench> [--seeds N] [--seconds S] [--workloads a,b] [--json BENCHMARK.json]
"""
import json
import statistics
import subprocess
import sys
import time


def main():
    args = sys.argv[1:]
    if not args:
        sys.exit(__doc__)
    exe = args.pop(0)
    opts = {"--seeds": "10", "--seconds": "10", "--workloads": "", "--json": "BENCHMARK.json", "--first-seed": "101"}
    while args:
        flag = args.pop(0)
        if flag not in opts or not args:
            sys.exit(__doc__)
        opts[flag] = args.pop(0)
    try:
        bench = json.load(open(opts["--json"]))
        bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
        workloads = [w["name"] for w in bench["workloads"]]
    except OSError:
        bounds, workloads = {}, ["tag_plain", "search_plain", "mixed_full", "udp_search"]
    if opts["--workloads"]:
        workloads = opts["--workloads"].split(",")
    first = int(opts["--first-seed"])
    worst = 0.0
    for w in workloads:
        values, failed, t0 = {}, 0, time.time()
        for seed in range(first, first + int(opts["--seeds"])):
            out = subprocess.run(
                [exe, "--workload", w, "--seed", str(seed), "--seconds", opts["--seconds"], "--trace", "0"],
                capture_output=True, text=True)
            if out.returncode != 0:
                sys.exit(f"{w} seed {seed}: exit {out.returncode}\n{out.stderr}")
            result = json.loads(out.stdout.strip().splitlines()[-1])
            failed += result["failed"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"{w}: {opts['--seeds']} seeds in {time.time() - t0:.0f} s, {failed} failed operations")
        for name, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            note = ""
            if bound is not None and name != "setup_s":
                worst = max(worst, spread / bound)
                note = f"  bound {bound:.2f}  spread/bound {spread / bound:.2f}"
            print(f"  {name:<16} median {med:>14.4f}  iqr/median {spread:7.4f}{note}")
    print(f"worst spread/bound: {worst:.2f} (aim: under 0.33)")


if __name__ == "__main__":
    main()
