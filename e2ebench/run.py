#!/usr/bin/env python3
"""End-to-end exhibit benchmark: builds the driver, runs one workload, checks
its output bytes and prints every metric by name and unit.

    python3 e2ebench/run.py --workload W --seed N --seconds S --trace 0|1
                            [--size paper|tiny] [--expected DIR]

Run from the root of a checkout.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0
the metrics are the end-to-end ones, with --trace 1 the per-layer ones.  The
exit code is 0 only when every unit's output matched.  README.md in this
directory explains the workloads, the metrics and the per-layer table.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "e2ebench"
WORK = ROOT / ".bench_work"
WORKLOADS = ("fig08-paper", "fig08-fleet", "coverage-cold", "coverage-warm")
DRIVER_TIMEOUT_S = 175
MODEL_FLAG_PCT = 15.0


def listed_units(kind):
    """Metric name -> unit, in the order BENCHMARK.json lists them."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench[kind]}


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the driver; returns its path or None."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("e2ebench: no src/ next to e2ebench/; run from a full checkout")
        return None
    jobs = str(os.cpu_count() or 1)
    # Compiler temporaries stay inside the checkout too.
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode != 0:
            log("e2ebench: build failed:", " ".join(cmd))
            return None
    return BUILD / "itr_e2e"


# ---- spans ------------------------------------------------------------------

def load_spans(path):
    """Chrome trace events as (name, cat, begin_us, end_us, tid, args)."""
    events = json.loads(path.read_text())["traceEvents"]
    return [(e["name"], e["cat"], e["ts"], e["ts"] + e["dur"], e["tid"],
             e.get("args", {})) for e in events]


def self_times(spans):
    """Each span's duration minus the part its direct children on the same
    thread cover (children nest inside their parent)."""
    result = [0.0] * len(spans)
    by_tid = {}
    for i, s in enumerate(spans):
        by_tid.setdefault(s[4], []).append(i)
    for ids in by_tid.values():
        ids.sort(key=lambda i: (spans[i][2], -spans[i][3]))
        stack = []  # open spans: [index, covered_us]
        for i in ids:
            begin, end = spans[i][2], spans[i][3]
            while stack and spans[stack[-1][0]][3] <= begin:
                j, covered = stack.pop()
                result[j] = spans[j][3] - spans[j][2] - covered
            if stack:
                parent_end = spans[stack[-1][0]][3]
                stack[-1][1] += min(end, parent_end) - begin
            stack.append([i, 0])
        while stack:
            j, covered = stack.pop()
            result[j] = spans[j][3] - spans[j][2] - covered
    return result


def layer_table(spans, selfs, threads):
    """One row per (phase, span name); a span's phase is the traced set-up or
    exhibit whose interval holds it."""
    roots = {s[0]: s for s in spans if s[1] == "bench" and s[0] in ("setup", "exhibit")}
    rows = {}
    for s, self_us in zip(spans, selfs):
        phase = next((p for p, r in roots.items() if r[2] <= s[2] and s[3] <= r[3]), "-")
        row = rows.setdefault((phase, s[1], s[0]), [0, 0, 0])
        row[0] += 1
        row[1] += s[3] - s[2]
        row[2] += self_us
    lines = ["per-layer table: seconds summed over threads; self = span minus "
             "its child spans; share = self / (phase seconds x threads)",
             f"{'phase':8} {'category':8} {'span':46} {'count':>6} {'total_s':>10} "
             f"{'self_s':>10} {'share':>7}"]
    for (phase, cat, name), (count, total, self_us) in sorted(
            rows.items(), key=lambda kv: (kv[0][0], -kv[1][2])):
        lane_us = (roots[phase][3] - roots[phase][2]) * threads if phase in roots else 0
        share = self_us / lane_us if lane_us else 0.0
        lines.append(f"{phase:8} {cat:8} {name:46} {count:6d} {total / 1e6:10.4f} "
                     f"{self_us / 1e6:10.4f} {share:7.4f}")
    return lines


# ---- metrics ----------------------------------------------------------------

def per_layer(workload, res, spans, stats, lines):
    """Per-layer metrics of the traced pass; 0 where the workload does not
    exercise the layer."""
    def span_s(*names, within=None):
        total = 0
        for name, _, begin, end, _, _ in spans:
            if name in names and (within is None or
                                  (begin >= within[0] and end <= within[1])):
                total += end - begin
        return total / 1e6

    def stat(name, field="value"):
        return stats.get(name, {}).get(field, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    fig08 = workload.startswith("fig08")
    fleet = workload == "fig08-fleet"
    threads = res["threads"]
    # The spans and counters are those of the last traced repetition.
    traced = res["traced_exhibit_s"][-1]
    exhibit = next(s for s in spans if s[0] == "exhibit")
    window = (exhibit[2], exhibit[3])
    m = {}

    m["workload.generate_s"] = span_s("workload.generate_spec")
    m["workload.collect_s"] = span_s("workload.collect_trace_stream")
    functional_s = res["probe_functional_s"]
    m["trace.build_s"] = (m["workload.collect_s"] - functional_s
                          if m["workload.collect_s"] else 0.0)
    m["workload.cache_save_s"] = span_s("workload.save_stream")
    m["workload.cache_bytes"] = res.get("cache_bytes", 0)
    m["workload.cache_hit_ratio"] = ratio(res.get("cache_hits", 0),
                                          res.get("cache_attempts", 0))
    m["workload.cache_load_s"] = span_s("workload.load_stream")
    m["sim.functional_ns_per_insn"] = 1e9 * ratio(functional_s,
                                                  res["probe_functional_insns"])
    m["sim.cycle_ns_per_insn"] = 1e9 * ratio(res.get("probe_cycle_s", 0),
                                             res.get("probe_cycle_insns", 0))
    m["sim.golden_record_s"] = res.get("probe_golden_record_s", 0)
    m["sim.golden_stream_bytes"] = res.get("probe_golden_stream_bytes", 0)
    m["itr.sweep_s"] = span_s("core.SweepEngine::run", within=window)
    m["itr.sweep_mtraces_per_s"] = ratio(res.get("traces_per_rep", 0) / 1e6,
                                         m["itr.sweep_s"])
    m["fi.prune.analyze_s"] = span_s("prune-analyze")
    m["fi.prune.profile_s"] = (res.get("probe_analyze_profile_s", 0) -
                               res.get("probe_analyze_noprofile_s", 0))
    # Every fleet shard classifies its benchmark's whole plan, so the fleet
    # counts each analytic site once per shard (units_per_row) of the benchmark.
    m["fi.prune.analytic_share"] = ratio(
        stat("campaign.prune.analytic_sites") / res["units_per_row"],
        stat("campaign.injections"))
    m["fi.batch.chunk_s"] = span_s("batch-chunk")
    replicas = stat("campaign.batch.replicas")
    m["fi.batch.replicas"] = replicas
    m["fi.batch.walker_insns"] = stat("campaign.batch.walker_instructions")
    m["fi.batch.divergent_commits"] = stat("campaign.batch.divergent_commits")
    m["fi.batch.converged_share"] = ratio(stat("campaign.batch.converged_exits"),
                                          replicas)
    windows = stats.get("campaign.batch.divergent_window_cycles", {})
    m["fi.batch.overflow_share"] = ratio((windows.get("bins") or [0])[-1],
                                         windows.get("count", 0))

    # Per-benchmark campaign seconds.  In one process each campaign is one
    # benchmark span; the fleet runs its shards one after another in
    # manifest order, so the i-th program "campaign" span is shard i.
    per_benchmark = {}
    if fleet:
        campaigns = sorted((s for s in spans if s[0] == "campaign"),
                           key=lambda s: s[2])
        for name, s in zip(res["shard_benchmarks"], campaigns):
            per_benchmark[name] = per_benchmark.get(name, 0) + (s[3] - s[2]) / 1e6
    else:
        for s in spans:
            if s[0] == "fi.FaultInjectionCampaign::run":
                per_benchmark[s[5]["benchmark"]] = (s[3] - s[2]) / 1e6
    times = list(per_benchmark.values())
    m["fi.campaign.p50_s"] = statistics.median(times) if times else 0.0
    m["fi.campaign.max_s"] = max(times) if times else 0.0

    # Lane work: the benchmark's per-benchmark lanes, or inside the fleet's
    # serve the program's golden analysis and batch chunks.
    lane_names = ("prune-analyze", "batch-chunk") if fleet else ("lane",)
    lane_s = span_s(*lane_names, within=window)
    m["util.pool.busy_share"] = ratio(lane_s, traced * threads)
    m["fi.service.shard_s"] = span_s("fi.service.shard_campaign")
    m["fi.service.serve_s"] = span_s("fi.service.serve")
    m["fi.service.merge_s"] = span_s("fi.service.merge_campaign")
    m["fi.service.journal_bytes"] = res.get("journal_bytes", 0)
    # Each traced repetition ran right after an untraced one.
    m["obs.trace_overhead_pct"] = 100.0 * (statistics.median(
        t / u for u, t in zip(res["exhibit_s"], res["traced_exhibit_s"])) - 1.0)

    # Cost model: unit costs x program counts against the measured time.
    stepped = (m["fi.batch.walker_insns"] + m["fi.batch.divergent_commits"])
    cycle_s = m["sim.cycle_ns_per_insn"] * 1e-9 * stepped
    if fleet:
        predicted = (m["fi.service.shard_s"] + m["fi.service.merge_s"] +
                     m["fi.prune.analyze_s"] + cycle_s / threads)
        measured = traced
        model = ("shard + merge + analyze + cycle_ns x (walker + divergent) "
                 "/ threads vs exhibit")
    elif fig08:
        predicted = m["fi.prune.analyze_s"] + cycle_s
        measured = span_s("fi.FaultInjectionCampaign::run")
        model = ("analyze + cycle_ns x (walker + divergent) vs campaign lane "
                 "seconds")
    else:
        # The sweep's layers are the calls themselves: the residual is lane
        # time that no layer span covers.
        predicted = span_s("workload.load_stream", "workload.collect_trace_stream",
                           "workload.save_stream", "core.SweepEngine::run",
                           within=window)
        measured = lane_s
        model = "load + collect + save + sweep spans vs lane seconds"
    signed_error = 100.0 * ratio(predicted - measured, measured)
    m["model.error_pct"] = abs(signed_error)
    lines.append(f"model: {model}: predicted {predicted:.4f} s, measured "
                 f"{measured:.4f} s, error {signed_error:+.2f}%")
    if m["model.error_pct"] > MODEL_FLAG_PCT:
        lines.append(f"model: |error| above {MODEL_FLAG_PCT:.0f}%: some layer "
                     "is not measured")
    return m


def csv_rows(text):
    """CSV rows after the header, grouped by their first (benchmark) field."""
    rows = {}
    for line in text.splitlines()[1:]:
        rows.setdefault(line.split(",")[0], []).append(line)
    return rows


def expected_failures(workload, res, out_dir, expected_dir):
    """Units whose exhibit bytes differ from the committed expected bytes."""
    key = f"{res['size']}-seed{int(res['seed'])}"
    exp_dir = expected_dir / key
    if not exp_dir.is_dir():
        return 0, f"no expected bytes for {key}; identities and repetitions checked"
    failed = 0
    names = (("fig08.csv", "fig08_stats.json") if workload.startswith("fig08")
             else ("fig06.csv", "fig07.csv"))
    for name in names:
        want = (exp_dir / name).read_text()
        got = (out_dir / name).read_text() if (out_dir / name).is_file() else ""
        if want == got:
            continue
        log(f"e2ebench: {name} differs from {exp_dir / name}")
        if name.endswith(".json"):
            failed += 1
            continue
        w, g = csv_rows(want), csv_rows(got)
        bad = {b for b in set(w) | set(g) if w.get(b) != g.get(b)} - {"Avg"}
        failed += int(res["units_per_row"]) * max(1, len(bad))
    return failed, f"expected bytes {key}: {'match' if not failed else 'DIFFER'}"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("paper", "tiny"), default="paper")
    parser.add_argument("--expected", type=Path, default=HERE / "expected")
    args = parser.parse_args()

    driver = build()
    if driver is None:
        return 1
    out_dir = WORK / f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    cmd = [str(driver), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--out", str(out_dir)]
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"e2ebench: driver exceeded {DRIVER_TIMEOUT_S} s")
        return 1
    result_path = out_dir / "result.json"
    if proc.returncode not in (0, 1) or not result_path.is_file():
        log(f"e2ebench: driver failed with exit code {proc.returncode}")
        return 1
    res = json.loads(result_path.read_text())

    attempted = int(res["units_attempted"])
    failed = int(res["units_failed"])
    exp_failed, exp_note = expected_failures(args.workload, res, out_dir,
                                             args.expected)
    failed = min(attempted, failed + exp_failed)

    exhibit = statistics.median(res["exhibit_s"])
    lines = [
        f"workload {args.workload} size {args.size} seed {args.seed}: host cores "
        f"{int(res['host_cores'])}, threads {int(res['threads'])}, build "
        f"{res['build_type']}",
        f"exhibit repetitions {len(res['exhibit_s'])}, set-ups "
        f"{len(res['setup_s'])}; {exp_note}; identity failures "
        f"{int(res['identity_failed'])}",
        f"failed_frac {failed / attempted:.6f} ({failed}/{attempted} units)",
        f"peak_rss_mb {res['peak_rss_mb']:.3f} MB",
    ]
    if "injections_per_rep" in res:
        lines.append(f"injections_per_s {res['injections_per_rep'] / exhibit:.2f} 1/s")
    if "swept_minsns_per_rep" in res:
        lines.append(f"sweep_minsns_per_s {res['swept_minsns_per_rep'] / exhibit:.3f} "
                     "Minsns/s")

    if args.trace:
        spans = load_spans(out_dir / "trace.json")
        stats = json.loads((out_dir / "stats.json").read_text())["stats"]
        selfs = self_times(spans)
        table = layer_table(spans, selfs, res["threads"])
        metrics = per_layer(args.workload, res, spans, stats, lines)
        (out_dir / "layers.txt").write_text("\n".join(table) + "\n")
        (out_dir / "spans.json").write_text(json.dumps([
            {"name": s[0], "cat": s[1], "ts_us": s[2], "dur_us": s[3] - s[2],
             "self_us": self_us, "tid": s[4], "args": s[5]}
            for s, self_us in zip(spans, selfs)]) + "\n")
        lines += table
        units = listed_units("per_layer")
    else:
        metrics = {"exhibit_s": exhibit,
                   "setup_s": statistics.median(res["setup_s"])}
        units = listed_units("end_to_end")

    for line in lines:
        print(line)
    for name, unit in units.items():
        print(f"{name} {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
