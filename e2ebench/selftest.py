#!/usr/bin/env python3
"""Self-test of the benchmark at tiny size (about a minute):

  * every workload, untraced and traced, exits 0 and prints each metric that
    BENCHMARK.json names, with its unit, as a text line and in the final JSON;
  * the held-out seed passes the cross-workload identities;
  * a deliberately corrupted expected output is reported as a failure, with
    a non-zero exit code.

    python3 e2ebench/selftest.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fig08-paper", "fig08-fleet", "coverage-cold", "coverage-warm")
TUNING_SEED = 42
HELD_OUT_SEED = 7


def run(workload, seed, trace, expected=None):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0.2", "--trace", str(trace),
           "--size", "tiny"]
    if expected is not None:
        cmd += ["--expected", str(expected)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc, lines, result


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []

    def check(ok, what):
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    for workload in WORKLOADS:
        for trace, listed in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            proc, lines, result = run(workload, TUNING_SEED, trace)
            what = f"{workload} trace {trace}"
            check(proc.returncode == 0 and result is not None and result["correct"],
                  f"{what}: exit 0 and correct")
            if result is None:
                continue
            metrics = result["metrics"]
            check(set(metrics) == {m["name"] for m in listed},
                  f"{what}: metrics are exactly those BENCHMARK.json lists")
            for m in listed:
                got = metrics.get(m["name"], {})
                check(got.get("unit") == m["unit"] and
                      isinstance(got.get("value"), (int, float)) and
                      any(line.startswith(m["name"] + " ") and
                          line.endswith(" " + m["unit"]) for line in lines),
                      f"{what}: {m['name']} printed with unit {m['unit']}")

    for workload in WORKLOADS:
        proc, _, result = run(workload, HELD_OUT_SEED, 0)
        check(proc.returncode == 0 and result is not None and result["correct"],
              f"{workload} held-out seed {HELD_OUT_SEED}: identities hold")

    corrupted = ROOT / ".bench_work" / "selftest-expected"
    shutil.rmtree(corrupted, ignore_errors=True)
    shutil.copytree(HERE / "expected", corrupted)
    for workload, name in (("fig08-paper", "fig08.csv"),
                           ("fig08-fleet", "fig08_stats.json"),
                           ("coverage-cold", "fig06.csv")):
        path = corrupted / f"tiny-seed{TUNING_SEED}" / name
        original = path.read_text()
        lines = original.splitlines(keepends=True)
        lines[1] = lines[1].replace("0", "9", 1) if "0" in lines[1] else "x" + lines[1]
        path.write_text("".join(lines))
        proc, _, result = run(workload, TUNING_SEED, 0, expected=corrupted)
        check(proc.returncode != 0 and result is not None and
              not result["correct"] and result["failed"] > 0,
              f"{workload}: corrupted expected {name} is reported as a failure")
        path.write_text(original)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
