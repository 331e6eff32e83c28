#!/usr/bin/env python3
"""Same-machine A/B gate on simulator host time: a base checkout
against a head checkout.

    python3 scripts/perf_ab.py BASE HEAD
    python3 scripts/perf_ab.py BASE HEAD --workload os_transitions \
        --pairs 10 --seconds 30 --seed 977

BASE and HEAD are the roots of two checkouts of this repository. The
script runs pairs of

    perfbench/run.py --workload W --seed S --seconds T --trace 0

one run at a time, each in its own tree and build area
(<root>/.bench_build). By default it runs five pairs of fig6_grid at
seed 12648430 and 10 seconds; --workload, --pairs, --seed and
--seconds change that. Every run inherits the script's CPU affinity,
so `taskset -c N python3 scripts/perf_ab.py ...` pins them all to CPU
N. Base runs first in even pairs and head first in odd pairs, so a
machine that drifts during the job moves both sides.
It prints the pairs, each side's median and quartiles of wall_s with
the number of pairs the head won, each side's median of every
end-to-end metric the runs report and of host.calib_ms, the median
head/base wall_s ratio and the verdict as Markdown on stdout (progress
goes to stderr). Only the wall_s ratio is gated; the other medians are
reported so latency, set-up, memory and host-speed moves show.

host.calib_ms measures more than host speed. Its loop calls
Cache::lookup, Cache::insert and Network::traverse, compiled from each
side's own src/, so a change to those files moves it too. Compare the
two sides' calib_ms as a host-speed reading only when neither side
changed src/mem/cache.* or src/noc/.

Exit codes: 0 pass; 1 when either side reports "correct": false or the
median ratio exceeds 1.15; 2 on a usage error or a run that printed no
result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

PAIRS = 5
TOLERANCE = 1.15
WORKLOAD = "fig6_grid"
SEED = 12648430
SECONDS = 10.0
# Per-side medians printed, each where every run reports it (op_ms_tail
# needs enough ops); only wall_s is gated.
METRICS = ("wall_s", "op_ms_p50", "op_ms_tail", "setup_s", "peak_rss_mb",
           "host.calib_ms")


def fail(msg):
    print(f"perf_ab: {msg}", file=sys.stderr)
    sys.exit(2)


def run_once(root, run_args):
    """One perfbench run in checkout @p root: its final JSON line, with
    the host.calib_ms its report prints (untraced runs keep it out of
    the JSON) added to the metrics."""
    # CARGO_TARGET_DIR would point both trees at one build area, and
    # every run would rebuild the other tree's sources.
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    r = subprocess.run([sys.executable, "perfbench/run.py", *run_args],
                       cwd=root, env=env, stdout=subprocess.PIPE, text=True)
    results = [line for line in r.stdout.splitlines()
               if line.startswith("{")]
    if not results:
        sys.stderr.write(r.stdout[-4000:])
        fail(f"{root}: perfbench exited with code {r.returncode} "
             f"and printed no result")
    res = json.loads(results[-1])
    calib = [line.split()[1] for line in r.stdout.splitlines()
             if line.split()[:1] == ["host.calib_ms"]]
    if not calib:
        fail(f"{root}: perfbench printed no host.calib_ms")
    res["metrics"]["host.calib_ms"] = {"value": float(calib[-1])}
    return res


def quartiles(values):
    """(first quartile, median, third quartile) of @p values."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def parse_args():
    ap = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("base", metavar="BASE", help="base checkout root")
    ap.add_argument("head", metavar="HEAD", help="head checkout root")
    ap.add_argument("--workload", default=WORKLOAD,
                    help=f"perfbench workload (default {WORKLOAD})")
    ap.add_argument("--pairs", type=int, default=PAIRS,
                    help=f"interleaved pairs to run (default {PAIRS})")
    ap.add_argument("--seconds", type=float, default=SECONDS,
                    help=f"perfbench --seconds (default {SECONDS:g})")
    ap.add_argument("--seed", type=int, default=SEED,
                    help=f"perfbench --seed (default {SEED})")
    args = ap.parse_args()
    if args.pairs < 1:
        fail("--pairs must be at least 1")
    return args


def main():
    args = parse_args()
    roots = {}
    for side, arg in (("base", args.base), ("head", args.head)):
        root = Path(arg).resolve()
        if not (root / "perfbench" / "run.py").is_file():
            fail(f"{arg} is not a checkout root (no perfbench/run.py)")
        roots[side] = root
    run_args = ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", f"{args.seconds:g}", "--trace", "0"]

    rows = []
    verdict = None
    for pair in range(args.pairs):
        order = ("base", "head") if pair % 2 == 0 else ("head", "base")
        got = {}
        for side in order:
            print(f"perf_ab: pair {pair}, {side}", file=sys.stderr)
            res = run_once(roots[side], run_args)
            if not res["correct"]:
                verdict = (f"FAIL: {side} reports \"correct\": false "
                           f"({res['failed']} of {res['attempted']} ops "
                           f"failed)")
                break
            got[side] = {m: res["metrics"][m]["value"] for m in METRICS
                         if m in res["metrics"]}
        if verdict:
            break
        rows.append((pair, order, got))

    print(f"### Host-time A/B: perfbench {args.workload} wall_s, "
          f"head vs base\n")
    print(f"`perfbench/run.py {' '.join(run_args)}`\n")
    print("| pair | order | base wall_s | head wall_s | head/base |")
    print("|---|---|---|---|---|")
    ratios = []
    for pair, order, got in rows:
        base, head = got["base"]["wall_s"], got["head"]["wall_s"]
        ratios.append(head / base)
        print(f"| {pair} | {', '.join(order)} | {base:.3f} | {head:.3f} "
              f"| {ratios[-1]:.3f} |")
    print()
    if rows:
        walls = {side: [got[side]["wall_s"] for _, _, got in rows]
                 for side in ("base", "head")}
        quarts = {side: quartiles(walls[side]) for side in walls}
        print("| wall_s | Q1 | median | Q3 | IQR |")
        print("|---|---|---|---|---|")
        for side, (q1, med, q3) in quarts.items():
            print(f"| {side} | {q1:.3f} | {med:.3f} | {q3:.3f} "
                  f"| {q3 - q1:.3f} |")
        wins = sum(h < b for b, h in zip(walls["base"], walls["head"]))
        gap = quarts["base"][1] - quarts["head"][1]
        base_iqr = quarts["base"][2] - quarts["base"][0]
        print(f"\nHead faster in {wins} of {len(rows)} pairs; the base "
              f"median minus the head median is {gap:.3f} s against the "
              f"base's IQR of {base_iqr:.3f} s.\n")
        print("| median | base | head | head/base |")
        print("|---|---|---|---|")
        for m in METRICS:
            if any(m not in got[side] for _, _, got in rows
                   for side in got):
                continue
            base, head = (statistics.median(got[side][m]
                                            for _, _, got in rows)
                          for side in ("base", "head"))
            ratio = f"{head / base:.3f}" if base else "-"
            print(f"| {m} | {base:.6g} | {head:.6g} | {ratio} |")
        print()
    ok = verdict is None
    if ok:
        median = statistics.median(ratios)
        ok = median <= TOLERANCE
        verdict = (f"{'pass' if ok else 'FAIL'}: median head/base "
                   f"{median:.3f}, limit {TOLERANCE:.2f}")
    print(f"**{verdict}**")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
