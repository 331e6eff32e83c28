#!/usr/bin/env python3
"""Show that perfbench's checks fail when they should.

    python3 perfbench/selftest.py

Runs short os_transitions runs (a few seconds each) and asserts that:
  1. a clean run passes even with IRONHIDE_*/IH_* knobs set in the
     caller's environment (run.py clears them), while ih_perfbench run
     directly with such a knob refuses to time;
  2. a perturbed expected value raises error_rate and exits non-zero;
  3. a traced run whose replay diverges from the untraced run is
     reported as failed;
  4. in a directory holding only BENCHMARK.json and perfbench/, the
     benchmark exits non-zero without printing a result.
Exits 0 when every case behaves.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True
import run  # noqa: E402  (perfbench/run.py)

WORKLOAD = "os_transitions"
SEED = 1
ARGS = ["--workload", WORKLOAD, "--seed", str(SEED), "--seconds", "3"]


def bench(extra=(), env=None, cwd=ROOT):
    r = subprocess.run([sys.executable, "perfbench/run.py", *ARGS, *extra],
                       cwd=cwd, env=env, capture_output=True, text=True)
    lines = r.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    return r, result


def expect(cond, what):
    print(f"{'ok  ' if cond else 'FAIL'} {what}")
    return cond


def main():
    binary = run.build()
    work = run.build_dir() / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ok = True

    env = dict(os.environ, IRONHIDE_ENGINE="weave", IH_FAULT_INJECT="x")
    r, res = bench(env=env)
    ok &= expect(r.returncode == 0 and res and res["correct"] and
                 res["failed"] == 0,
                 "clean run passes with host knobs set by the caller")
    direct = subprocess.run([str(binary), *ARGS, "--trace", "0"],
                            cwd=ROOT, env=env, capture_output=True)
    ok &= expect(direct.returncode != 0,
                 "ih_perfbench refuses to time with IRONHIDE_ENGINE set")

    doc = json.loads((run.EXPECTED_DIR / f"{WORKLOAD}.json").read_text())
    doc["ops"][str(run.DEFAULT_SEED)]["<MEMCACHED, OS>/mi6"][0] += 1
    perturbed = work / "expected.json"
    perturbed.write_text(json.dumps(doc))
    r, res = bench(["--expected", str(perturbed)])
    ok &= expect(r.returncode != 0 and res and not res["correct"] and
                 res["failed"] >= 1 and "error_rate" in r.stdout,
                 "a perturbed expected value fails the run")

    r, res = bench(["--trace", "1", "--perturb-replay"])
    ok &= expect(r.returncode != 0 and res and res["failed"] >= 1 and
                 "differ from the untraced run" in r.stdout,
                 "a diverging traced replay is reported")

    bare = work / "bare"
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    r, res = bench(cwd=bare)
    ok &= expect(r.returncode != 0 and res is None,
                 "without the simulator sources: non-zero exit, no result")

    shutil.rmtree(work, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
