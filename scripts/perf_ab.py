#!/usr/bin/env python3
"""Same-machine A/B gate on simulator host time: a base checkout
against a head checkout.

    python3 scripts/perf_ab.py BASE HEAD

BASE and HEAD are the roots of two checkouts of this repository. The
script runs five pairs of

    perfbench/run.py --workload fig6_grid --seed 12648430 --seconds 10 --trace 0

one run at a time, each in its own tree and build area
(<root>/.bench_build). Base runs first in even pairs and head first in
odd pairs, so a machine that drifts during the job moves both sides.
It prints the pairs, each side's median wall_s, peak_rss_mb and
host.calib_ms, the median head/base wall_s ratio and the verdict as
Markdown on stdout (progress goes to stderr). Only the wall_s ratio is
gated; the other medians are reported so memory and host-speed moves
show.

host.calib_ms measures more than host speed. Its loop calls
Cache::lookup, Cache::insert and Network::traverse, compiled from each
side's own src/, so a change to those files moves it too. Compare the
two sides' calib_ms as a host-speed reading only when neither side
changed src/mem/cache.* or src/noc/.

Exit codes: 0 pass; 1 when either side reports "correct": false or the
median ratio exceeds 1.15; 2 on a usage error or a run that printed no
result.
"""

import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

PAIRS = 5
TOLERANCE = 1.15
RUN_ARGS = ["--workload", "fig6_grid", "--seed", "12648430",
            "--seconds", "10", "--trace", "0"]
# Per-side medians printed; only wall_s is gated.
METRICS = ("wall_s", "peak_rss_mb", "host.calib_ms")


def fail(msg):
    print(f"perf_ab: {msg}", file=sys.stderr)
    sys.exit(2)


def run_once(root):
    """One perfbench run in checkout @p root: its final JSON line, with
    the host.calib_ms its report prints (untraced runs keep it out of
    the JSON) added to the metrics."""
    # CARGO_TARGET_DIR would point both trees at one build area, and
    # every run would rebuild the other tree's sources.
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    r = subprocess.run([sys.executable, "perfbench/run.py", *RUN_ARGS],
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


def main():
    if len(sys.argv) != 3:
        fail("usage: perf_ab.py BASE HEAD")
    roots = {}
    for side, arg in zip(("base", "head"), sys.argv[1:]):
        root = Path(arg).resolve()
        if not (root / "perfbench" / "run.py").is_file():
            fail(f"{arg} is not a checkout root (no perfbench/run.py)")
        roots[side] = root

    rows = []
    verdict = None
    for pair in range(PAIRS):
        order = ("base", "head") if pair % 2 == 0 else ("head", "base")
        got = {}
        for side in order:
            print(f"perf_ab: pair {pair}, {side}", file=sys.stderr)
            res = run_once(roots[side])
            if not res["correct"]:
                verdict = (f"FAIL: {side} reports \"correct\": false "
                           f"({res['failed']} of {res['attempted']} ops "
                           f"failed)")
                break
            got[side] = {m: res["metrics"][m]["value"] for m in METRICS}
        if verdict:
            break
        rows.append((pair, order, got))

    print("### Host-time A/B: perfbench fig6_grid wall_s, head vs base\n")
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
        print("| median | base | head |")
        print("|---|---|---|")
        for m in METRICS:
            base, head = (statistics.median(got[side][m]
                                            for _, _, got in rows)
                          for side in ("base", "head"))
            print(f"| {m} | {base:.3f} | {head:.3f} |")
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
