#!/usr/bin/env python3
"""Host-time benchmark of the IRONHIDE simulator.

Builds perfbench/ (the simulator sources plus the ih_perfbench binary)
into .bench_build/, runs one workload in a single process with every
IRONHIDE_*/IH_* knob cleared, checks the simulated outputs and prints a
report whose last line is one JSON object:

    python3 perfbench/run.py --workload fig6_grid --seed 12648430 \\
        --seconds 30 --trace 0

--workload all runs the three workloads one after another, each
followed by its own JSON line.

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(README.md defines both). The exit code is 0 only when every check
passes. --record rewrites perfbench/expected/<workload>.json from the
default and held-out seeds; do that only in a change whose stated
purpose is a deliberate model change.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED_DIR = HERE / "expected"

WORKLOADS = ("fig6_grid", "os_transitions", "serve_churn")
DEFAULT_SEED = 12648430  # SysConfig's default seed (0xC0FFEE)
HELD_OUT_SEED = 977
RECORD_SECONDS = 30.0
# perf_smoke's determinism checksum: total completion cycles of the
# Figure-6 grid at scale 0.1 and the default seed.
FIG6_CHECKSUM = 163100589
OUTPUT_NAMES = {
    "fig6_grid": ["completion_cycles", "instructions"],
    "os_transitions": ["completion_cycles", "instructions"],
    "serve_churn": ["finish_cycle"],
}
RUN_TIMEOUT_S = 170
# Highest of these percentiles with at least ten ops beyond it.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    # CARGO_TARGET_DIR, when set, names the build area (a relative path
    # is taken from the checkout root); otherwise .bench_build.
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    path = Path(base)
    if not path.is_absolute():
        path = ROOT / path
    return path / "perfbench"


def build():
    """Configure (once) and build ih_perfbench; return its path."""
    if not (ROOT / "src" / "core" / "system.hh").is_file():
        fail(f"no simulator sources under {ROOT / 'src'}")
    out = build_dir()
    cache = out / "CMakeCache.txt"
    if cache.is_file():
        home = f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}"
        if home not in cache.read_text(errors="replace").splitlines():
            shutil.rmtree(out)  # configured for another source tree
    # Pinned compiler flags, and compiler temporaries kept in the build
    # tree rather than the system's temp directory.
    env = {k: v for k, v in os.environ.items()
           if k not in ("CFLAGS", "CXXFLAGS", "CPPFLAGS", "LDFLAGS")}
    env["TMPDIR"] = str(out / "tmp")
    (out / "tmp").mkdir(parents=True, exist_ok=True)
    steps = []
    if not cache.is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for cmd in steps:
        r = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                           text=True)
        if r.returncode != 0:
            sys.stderr.write(r.stdout[-4000:] + r.stderr[-4000:])
            fail(f"build step failed: {' '.join(cmd)}")
    return out / "ih_perfbench"


def run_binary(binary, workload, seed, seconds, trace, extra=()):
    """Run ih_perfbench with the host knobs cleared; return its records."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("IRONHIDE_", "IH_"))}
    env["IRONHIDE_DOMAINS"] = "1"
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)), "--trace", str(trace),
           *extra]
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                           text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"ih_perfbench exceeded {RUN_TIMEOUT_S} s", 3)
    if r.returncode != 0:
        fail(f"ih_perfbench exited with code {r.returncode}", 3)
    return parse_records(r.stdout)


def parse_records(text):
    rec = {"config": {}, "setup": [], "pass": [], "ops": [], "layer": {},
           "selftime": {}, "check": {}, "openloop": []}
    for line in text.splitlines():
        f = line.split("\t")
        tag = f[0]
        if tag == "config":
            rec["config"] = dict(kv.split("=", 1) for kv in f[1:])
        elif tag == "setup":
            rec["setup"].append(float(f[1]))
        elif tag == "pass":
            rec["pass"].append((f[1], int(f[2]), float(f[3])))
        elif tag == "op":
            rec["ops"].append({
                "phase": f[1], "pass": int(f[2]), "seed": f[3],
                "label": f[4], "seconds": float(f[5]), "status": f[6],
                "outputs": [int(x) for x in f[7].split(",") if x]})
        elif tag == "layer":
            rec["layer"][f[1]] = (float(f[2]), f[3])
        elif tag == "selftime":
            rec["selftime"][f[1]] = float(f[2])
        elif tag == "check":
            rec["check"][f[1]] = f[2]
        elif tag == "openloop":
            rec["openloop"].append((f[1], int(f[2]), f[3]))
        elif tag in ("peak_rss_kib", "calib_ms"):
            rec[tag] = float(f[1])
    return rec


def tail_percentile(n):
    """Highest listed percentile with at least ten of n ops beyond it
    (nearest rank), or None."""
    for p in TAIL_PERCENTILES:
        if n - math.ceil(p / 100.0 * n) >= 10:
            return p
    return None


def nearest_rank(sorted_values, p):
    k = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[k - 1]


def load_expected(path):
    if not path.is_file():
        fail(f"no expected values at {path}")
    return json.loads(path.read_text())["ops"]


def check_ops(rec, workload, expected):
    """Mark failed ops; return (failed op count, notes)."""
    notes = []
    failed = set()
    ops = rec["ops"]
    for i, op in enumerate(ops):
        if op["status"] != "ok":
            failed.add(i)
            notes.append(f"{op['label']}: {op['status']}")
            continue
        want = expected.get(op["seed"], {}).get(op["label"])
        if want is not None and want != op["outputs"]:
            failed.add(i)
            notes.append(f"{op['label']} (seed {op['seed']}): outputs "
                         f"{op['outputs']} != expected {want}")
    # The traced replay must reproduce the untraced outputs exactly.
    untraced = {(op["pass"], op["label"]): op["outputs"]
                for op in ops if op["phase"] == "untraced"}
    for i, op in enumerate(ops):
        if op["phase"] != "traced" or op["status"] != "ok":
            continue
        if untraced.get((op["pass"], op["label"])) != op["outputs"]:
            failed.add(i)
            notes.append(f"{op['label']}: traced outputs {op['outputs']} "
                         f"differ from the untraced run's "
                         f"{untraced.get((op['pass'], op['label']))}")
    # serve_churn's first sessions must match runOpenLoop().
    for arch, n, status in rec["openloop"]:
        if status == "ok":
            continue
        notes.append(f"{arch}: first {n} sessions differ from runOpenLoop")
        for i, op in enumerate(ops):
            a, idx = op["label"].split("/")[:2]
            if a == arch and int(idx) < n:
                failed.add(i)
    if workload == "fig6_grid":
        pass0 = [i for i, op in enumerate(ops)
                 if op["phase"] == "untraced" and op["pass"] == 0]
        checksum = sum(ops[i]["outputs"][0] for i in pass0
                       if ops[i]["outputs"])
        if checksum != FIG6_CHECKSUM:
            notes.append(f"grid checksum {checksum} != {FIG6_CHECKSUM}")
            failed.update(pass0)
    return len(failed), notes


def end_to_end(rec):
    """The end-to-end metrics: {name: (value, unit, note)}."""
    ops = [op for op in rec["ops"] if op["phase"] == "untraced"]
    ms = sorted(op["seconds"] * 1e3 for op in ops)
    passes = [s for phase, _, s in rec["pass"] if phase == "untraced"]
    m = {
        "wall_s": (sum(passes), "s",
                   f"all {len(ops)} ops in {len(passes)} pass(es)"),
        "op_ms_p50": (statistics.median(ms), "ms",
                      f"median of {len(ms)} ops"),
    }
    p = tail_percentile(len(ms))
    if p is not None:
        m["op_ms_tail"] = (nearest_rank(ms, p), "ms",
                           f"p{p:g} of {len(ms)} ops")
    m["setup_s"] = (statistics.median(rec["setup"]), "s",
                    f"median of {len(rec['setup'])} set-ups")
    m["peak_rss_mb"] = (rec["peak_rss_kib"] / 1024.0, "MiB",
                        "peak resident memory of the process")
    return m


def per_layer(rec):
    m = {name: (v, unit, "") for name, (v, unit) in rec["layer"].items()}
    m["host.calib_ms"] = (rec["calib_ms"], "ms",
                          "fixed cache+NoC loop, host speed reference")
    return m


def print_report(rec, metrics, attempted, failed, notes, trace):
    cfg = rec["config"]
    print(f"perfbench {cfg['workload']}: engine={cfg['engine']} "
          f"threads={cfg['threads']} domains={cfg['domains']} "
          f"scale={cfg['scale']} seed={cfg['seed']} build={cfg['build']}")
    print("Host time is measured; simulated outputs are only checked. The "
          "model is unvalidated:\nthe repository holds no reference "
          "results, so no error figure is given.")
    for name, (v, unit, note) in metrics.items():
        print(f"  {name:28s} {v:14.6g} {unit:7s} {note}")
    rate = failed / attempted if attempted else 0.0
    print(f"  {'error_rate':28s} {rate:14.6g} {'fraction':7s} "
          f"{failed} failed of {attempted} ops")
    if trace:
        total = sum(rec["selftime"].values())
        print("self time by span (traced ops):")
        for name, s in sorted(rec["selftime"].items(),
                              key=lambda kv: -kv[1]):
            print(f"  {name:28s} {s:10.4f} s {100 * s / total:6.2f}%")
        print(f"self times sum to each op's span: "
              f"{rec['check'].get('self_time_sum')}")
    if not trace:
        print(f"  host.calib_ms {rec['calib_ms']:.3f} (host speed "
              f"reference, never gates a run)")
    for note in notes[:20]:
        print(f"FAILED: {note}")
    if len(notes) > 20:
        print(f"FAILED: ... {len(notes) - 20} more")


def record(binary, workload):
    """Rewrite expected/<workload>.json from the two recorded seeds."""
    ops = {}
    for seed in (DEFAULT_SEED, HELD_OUT_SEED):
        # Record-time runs compare whole serve_churn streams with
        # runOpenLoop(), not just their first sessions.
        rec = run_binary(binary, workload, seed, RECORD_SECONDS, 0,
                         ["--check-sessions", "1000000"])
        n_failed, notes = check_ops(rec, workload, {})
        if n_failed:
            fail("cannot record failing ops: " + "; ".join(notes[:5]))
        for op in rec["ops"]:
            slot = ops.setdefault(op["seed"], {})
            if slot.setdefault(op["label"], op["outputs"]) != op["outputs"]:
                fail(f"{op['label']} at seed {op['seed']} is not "
                     f"deterministic")
    EXPECTED_DIR.mkdir(exist_ok=True)
    doc = {"workload": workload, "outputs": OUTPUT_NAMES[workload],
           "recorded_seeds": [DEFAULT_SEED, HELD_OUT_SEED],
           "seconds": RECORD_SECONDS, "ops": ops}
    path = EXPECTED_DIR / f"{workload}.json"
    path.write_text(json.dumps(doc, indent=0, sort_keys=True) + "\n")
    print(f"wrote {path} ({sum(len(v) for v in ops.values())} ops)")


def bench(binary, workload, args):
    """Run, check and report one workload; return whether it passed."""
    extra = []
    if args.trace:
        extra += ["--spans",
                  str(build_dir() / f"spans-{workload}-{args.seed}.tsv")]
    if args.perturb_replay:
        extra.append("--perturb-replay")
    rec = run_binary(binary, workload, args.seed, args.seconds, args.trace,
                     extra)
    expected = load_expected(args.expected or
                             EXPECTED_DIR / f"{workload}.json")
    attempted = len(rec["ops"])
    failed, notes = check_ops(rec, workload, expected)
    checks_ok = all(v == "ok" for v in rec["check"].values())
    if not checks_ok:
        notes.append(f"internal checks: {rec['check']}")
    metrics = per_layer(rec) if args.trace else end_to_end(rec)
    print_report(rec, metrics, attempted, failed, notes, args.trace)
    correct = failed == 0 and checks_ok and attempted > 0
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u, _) in metrics.items()}}))
    return correct


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",),
                    required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=RECORD_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--expected", type=Path,
                    help="expected-values file (default: "
                         "perfbench/expected/<workload>.json)")
    ap.add_argument("--perturb-replay", action="store_true",
                    help="self-test: make the traced replay diverge")
    ap.add_argument("--record", action="store_true",
                    help="rewrite the expected values (model changes only)")
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be a whole number >= 0")

    binary = build()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    ok = True
    for w in workloads:
        if args.record:
            record(binary, w)
        else:
            ok &= bench(binary, w, args)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
