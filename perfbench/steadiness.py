#!/usr/bin/env python3
"""Steadiness check for the benchmark recorded in BENCHMARK.json.

Runs every workload untraced for BENCHMARK.json's run_seconds, once per
seed, interleaved (seed 1: all workloads, seed 2: all workloads, ...), so
host drift lands on every workload alike rather than on whichever ran
last. For each workload and end-to-end metric it prints the median and
quartiles (``statistics.quantiles(values, n=4)``) and the spread,
(q3 - q1) / median, and flags a spread wider than the metric's bound.
With ``--sets 2`` it repeats the round on the next seeds and flags every
metric whose median moved by more than its bound, in either direction:
two sets of the same code must agree.

``setup_s`` is held to the set-to-set check but exempt from the spread
check, as in the acceptance rule the bounds were fixed for: set-up takes
tens of milliseconds, where host speed differs from run to run by more
than any bound. Its spread is printed all the same.

Run from the repository root:

    python3 perfbench/steadiness.py --seeds 10 --sets 2

Exits 1 when a run fails its output checks, reports a failed operation
or a metric set other than BENCHMARK.json's end-to-end metrics in their
units, or when a spread or a set-to-set move exceeds its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds):
    argv = command + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    probe = next((float(l.split()[1]) for l in lines if l.startswith("host.probe_ms ")), None)
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    return json.loads(lines[-1]), probe


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    specs = {m["name"]: m for m in bench["end_to_end"]}

    ok = True
    medians = []
    for set_no in range(args.sets):
        values = {w: {} for w in workloads}
        probes = []
        for k in range(args.seeds):
            seed = 1 + set_no * args.seeds + k
            for w in workloads:
                result, probe = run_once(bench["command"], w, seed, seconds)
                if probe is not None:
                    probes.append(probe)
                if not result["correct"] or result["failed"] != 0:
                    print(f"FAIL {w} seed {seed}: correct={result['correct']} "
                          f"failed={result['failed']} of {result['attempted']}")
                    ok = False
                units = {n: m["unit"] for n, m in result["metrics"].items()}
                if units != {n: spec["unit"] for n, spec in specs.items()}:
                    print(f"FAIL {w} seed {seed}: metrics {units} are not the end-to-end "
                          "metrics of BENCHMARK.json in their units")
                    ok = False
                for name, m in result["metrics"].items():
                    values[w].setdefault(name, []).append(m["value"])
                shown = " ".join(f"{n}={m['value']:.5g}" for n, m in result["metrics"].items())
                print(f"set {set_no + 1} seed {seed} {w}: attempted={result['attempted']} "
                      f"failed={result['failed']} probe={probe} {shown}", flush=True)
        set_medians = {}
        print(f"\n== set {set_no + 1}: {args.seeds} seeds, {seconds} s runs ==")
        print(f"{'workload':<14} {'metric':<28} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound':>6}")
        for w in workloads:
            for name, vals in values[w].items():
                med = statistics.median(vals)
                set_medians[(w, name)] = med
                q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
                spread = (q3 - q1) / med
                bound = specs[name]["bound"]
                flag = ""
                if spread > bound:
                    if name == "setup_s":
                        flag = "over bound (exempt)"
                    else:
                        flag, ok = "OVER BOUND", False
                elif spread > bound / 3:
                    flag = "over bound/3"
                print(f"{w:<14} {name:<28} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} "
                      f"{spread:>8.4f} {bound:>6.3f} {flag}")
        if probes:
            q1, _, q3 = statistics.quantiles(probes, n=4) if len(probes) > 1 else (0, 0, 0)
            print(f"host.probe_ms: median {statistics.median(probes):.2f} q1 {q1:.2f} q3 {q3:.2f}")
        medians.append(set_medians)

    for set_no, later in enumerate(medians[1:], start=2):
        print(f"\n== set {set_no} median against set 1 (+ = worse) ==")
        for (w, name), first in medians[0].items():
            spec = specs[name]
            change = (later[(w, name)] - first) / first
            worse = change if spec["better"] == "lower" else -change
            flag = ""
            if abs(worse) > spec["bound"]:
                flag, ok = "MOVED MORE THAN BOUND", False
            print(f"{w:<14} {name:<28} {worse:>+8.4f} {spec['bound']:>6.3f} {flag}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
