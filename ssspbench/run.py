#!/usr/bin/env python3
"""Wall-clock benchmark of the SSSP library and service.

    python3 ssspbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the library and the workload program
from source (into $CARGO_TARGET_DIR, default .bench_build), runs one
workload, checks every answer against the sequential Dijkstra oracle and
prints one JSON object as the last line of standard output: the end-to-end
metrics of BENCHMARK.json with --trace 0, its per-layer metrics with
--trace 1. The result, with the machine descriptor and (traced runs) a
Chrome trace, is also written under .bench_out/. Exits non-zero when any
operation failed or gave a wrong answer. See README.md beside this file.
"""

import argparse
import io
import json
import os
import re
import subprocess
import sys
import unittest
from pathlib import Path

import metrics as m

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PROGRAM_TIMEOUT_S = 170

# Fixed tail percentile of each workload's latency_ms_tail. On the closed
# loop it is taken over the roots, each at its median wall time (128 roots,
# p90: twelve beyond it). On the stream, the median and the tail are the
# median over SLICES consecutive slices of the window of the slice's
# statistic (>= 750 queries, 75 per slice), so a slow spell of the host
# that covers less than half the window does not move them. The stream's
# gated tail is p75 (18 beyond it in every slice): its p90 lay where the
# multi-root sweep cascades of a slow host begin and spread 0.46-0.65 over
# ten seeds. The stream's p90 and p95 over the whole window are per-layer
# metrics (serve.latency_ms_p90/_p95), reported but not gated.
TAIL = {"batch-rmat1-s18": 0.90, "churn-mvcc-s14": 0.75}
SLICES = 10

# Span categories (obs::SpanCat names) reported as per-layer self time.
SPAN_METRICS = {
    "core.span.bucket_scan": "bucket_scan",
    "core.span.init": "init",
    "core.span.short": "short_phase",
    "core.span.long_push": "long_push",
    "core.span.long_pull": "long_pull",
    "core.span.decision": "decision",
    "core.span.bellman_ford": "bellman_ford",
    "runtime.span.exchange": "exchange",
    "runtime.span.apply": "apply",
    "serve.span.queue_wait": "admission",
    "serve.span.batch_close": "batch_close",
    "serve.span.cache_lookup": "cache_lookup",
    "serve.span.solve": "serve_solve",
    "update.span.apply": "update_apply",
    "snapshot.span.publish": "snapshot_publish",
    "snapshot.span.retire": "snapshot_retire",
}
# Intervals something waited through rather than work (see m.self_times).
WAIT_CATS = frozenset({"admission", "snapshot_retire"})


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def selftest():
    """The helper tests, run before every measurement (milliseconds)."""
    suite = unittest.defaultTestLoader.loadTestsFromName("test_metrics")
    out = io.StringIO()
    if not unittest.TextTestRunner(stream=out).run(suite).wasSuccessful():
        log(out.getvalue())
        raise SystemExit("ssspbench: helper self-test failed")


def build():
    """Configures and builds the workload program (a no-op when up to
    date); returns its path."""
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = Path.cwd() / build_dir
    jobs = str(max(1, os.cpu_count() or 1))
    steps = [["cmake", "-S", str(HERE), "-B", str(build_dir),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(build_dir), "--target", "ssspbench",
              "-j", jobs]]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise SystemExit("ssspbench: build failed")
    return build_dir / "ssspbench"


def source_identity():
    """Git commit when the checkout has one, else 'unknown'."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def ms(seconds):
    return seconds * 1e3


def mean(values):
    return sum(values) / len(values) if values else 0.0


def root_walls(solves):
    """Median caller wall time of each root (Graph 500 style): one slow
    solve of a root, a descheduled rank for instance, does not move it. A
    failed solve counts as an infinite time."""
    walls = [w if ok else m.INF
             for w, ok in zip(solves["wall_s"], solves["ok"])]
    return list(m.median_by_key(solves["root"], walls).values())


def end_to_end(raw, workload):
    solves = raw["solves"]
    walls = root_walls(solves)
    out = {
        "setup_s": m.median(raw["setup"]["total_s"]),
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
        "solve_gteps": m.harmonic_mean(
            [solves["edges"] / w / 1e9 for w in walls]),
    }
    p = TAIL[workload]
    if "stream" in raw:
        s = raw["stream"]
        lat = [x * 1e-9 for x in m.latencies(s["q_due_ns"], s["q_done_ns"],
                                             s["q_ok"])]
        m.check_supported(len(lat) // SLICES, p)
        out["latency_ms_p50"] = ms(m.sliced(lat, SLICES, m.median))
        out["latency_ms_tail"] = ms(m.sliced(
            lat, SLICES, lambda v: m.nearest_rank(v, p)))
    else:
        m.check_supported(len(walls), p)
        lat = walls
        out["latency_ms_p50"] = ms(m.median(walls))
        out["latency_ms_tail"] = ms(m.nearest_rank(walls, p))
    return out, {"latency_samples": len(lat), "latency_tail_p": p}


def span_split(raw, source, window_s):
    """Self time per reported category, in lane-seconds per second of the
    traced window (how many threads were busy in it on average)."""
    cats = raw["trace"]["cats"]
    totals = {}
    for lane in raw["trace"]["lanes"]:
        if lane["source"] != source:
            continue
        spans = [(cats[c], start, dur) for c, start, dur in lane["spans"]]
        for cat, ns in m.self_times(spans, WAIT_CATS).items():
            totals[cat] = totals.get(cat, 0) + ns
    return {name: totals.get(cat, 0) * 1e-9 / window_s
            for name, cat in SPAN_METRICS.items()}


def per_layer(raw, bench):
    setup = raw["setup"]
    desc = raw["descriptor"]
    solves = raw["solves"]
    traced = raw["traced_solves"]
    seq_relax = dict(zip(raw["oracle"]["roots"], raw["oracle"]["relaxations"]))
    wall = solves["wall_s"]
    engine = solves["engine_s"]
    out = {
        "graph.generate_s": setup["generate_s"][0],
        "graph.csr_build_s": setup["csr_build_s"][0],
        "core.view_build_s": setup["view_build_s"][0],
        "graph.bytes": float(desc["graph_bytes"]),
        "core.engine_wall_ms": ms(m.median(engine)),
        "core.host_overhead_ms": ms(m.median(
            [w - e for w, e in zip(wall, engine)])),
        "runtime.spawn_us": m.median(raw["spawn_us"]),
        "runtime.session_job_us": m.median(raw["session_job_us"]),
        "core.relaxations": mean(solves["relaxations"]),
        "core.work_ratio": mean([r / seq_relax[root] for r, root in
                                 zip(solves["relaxations"], solves["root"])]),
        "core.global_syncs": mean(solves["global_syncs"]),
        "core.phases": mean(solves["phases"]),
        "core.buckets": mean(solves["buckets"]),
        "runtime.messages": mean(solves["messages"]),
        "runtime.bytes": mean(solves["bytes"]),
        "runtime.max_rank_bytes": mean(solves["max_rank_bytes"]),
        "core.model_ms": ms(m.median(solves["model_s"])),
        "core.model_error": m.median(
            [e / mo for e, mo in zip(engine, solves["model_s"])]),
        "seq.dijkstra_ms": m.median(raw["oracle"]["ms"]),
        "core.multi_vs_single": raw["multi"]["multi_s"] /
                                raw["multi"]["singles_s"],
        "obs.spans_dropped": float(raw["trace"]["dropped"]),
        "obs.accounting_ok": 1.0 if traced["accounting_ok"] and all(
            traced["accounting_ok"]) else 0.0,
    }
    # Ratios against the untraced wall time of the same root.
    untraced = m.median_by_key(solves["root"], wall)
    out["obs.trace_overhead"] = m.median(
        [w / untraced[r] for r, w in zip(traced["root"], traced["wall_s"])])
    oracle = raw["oracle"]
    out["seq.cost_speedup"] = m.median(
        [t / ms(untraced[r]) for r, t in zip(oracle["roots"], oracle["ms"])])

    # Serving layers; zero where the workload has no such layer.
    for name in ("serve.batch_size_mean", "serve.multi_sweep_share",
                 "serve.cache_hit_ratio", "serve.queue_depth_max",
                 "serve.cache_version_miss_ratio", "serve.latency_ms_p90",
                 "serve.latency_ms_p95", "snapshot.live_max",
                 "update.ms_p50", "update.ms_tail"):
        out[name] = 0.0
    out[sustained_name(bench)] = 0.0
    if "stream" in raw:  # the serving workload
        s = raw["stream"]
        hist = s["batch_size_histogram"]
        batches = sum(hist)
        out["serve.batch_size_mean"] = (
            sum(k * c for k, c in enumerate(hist)) / batches if batches else 0)
        jobs = s["multi_sweeps"] + s["single_solves"]
        out["serve.multi_sweep_share"] = s["multi_sweeps"] / jobs if jobs else 0
        lookups = s["cache_hits"] + s["cache_misses"]
        out["serve.cache_hit_ratio"] = s["cache_hits"] / lookups if lookups else 0
        out["serve.cache_version_miss_ratio"] = (
            s["cache_version_misses"] / s["cache_misses"]
            if s["cache_misses"] else 0)
        out["serve.queue_depth_max"] = float(m.max_outstanding(
            s["q_due_ns"], s["q_done_ns"], s["q_ok"]))
        # The nominal window's tail beyond the gated p75, whole window.
        lat = [x * 1e-9 for x in m.latencies(s["q_due_ns"], s["q_done_ns"],
                                             s["q_ok"])]
        for name, p in (("serve.latency_ms_p90", 0.90),
                        ("serve.latency_ms_p95", 0.95)):
            m.check_supported(len(lat), p)
            out[name] = ms(m.nearest_rank(lat, p))
        out["snapshot.live_max"] = s["snapshots_live_max"]
        out["bench.generator_lag_ms"] = max(
            sub - due for sub, due in zip(s["q_submit_ns"], s["q_due_ns"])) * 1e-6
        if s["u_due_ns"]:
            upd = [x * 1e-9 for x in m.latencies(s["u_due_ns"], s["u_done_ns"],
                                                 s["u_ok"])]
            out["update.ms_p50"] = ms(m.median(upd))
            out["update.ms_tail"] = ms(m.nearest_rank(
                upd, m.tail_percentile(len(upd))))
        # The engine's histogram holds every query it served, warm-up too.
        raw_lat = s["prior_latency_s"] + [x * 1e-9 for x in m.latencies(
            s["q_submit_ns"], s["q_done_ns"], s["q_ok"])]
        out["obs.histogram_p99_delta"] = ms(
            s["histogram_p99_s"] - m.nearest_rank(raw_lat, 0.99))
        out[sustained_name(bench)] = sustained(raw, bench)
        ts = raw["traced_stream"]
        window_s = (max(ts["q_done_ns"]) - min(ts["q_due_ns"])) * 1e-9
        out.update(span_split(raw, "serve", window_s))
    else:
        # Closed loop: the harness's own gap between one solve's return and
        # the next call (oracle comparison and bookkeeping).
        starts = solves["start_ns"]
        out["bench.generator_lag_ms"] = max(
            (starts[i + 1] - starts[i]) * 1e-9 - wall[i]
            for i in range(len(starts) - 1)) * 1e3
        out["obs.histogram_p99_delta"] = ms(
            solves["histogram_p99_s"] - m.nearest_rank(wall, 0.99))
        out.update(span_split(raw, "solve", sum(traced["wall_s"])))
    return out


def sustained_name(bench):
    names = [x["name"] for x in bench["per_layer"]
             if x["name"].startswith("serve.sustained_qps")]
    if len(names) != 1:
        raise SystemExit("BENCHMARK.json needs one serve.sustained_qps metric")
    return names[0]


def latency_limit_s(bench):
    """The rate ladder's latency limit, part of the metric's name in
    BENCHMARK.json (serve.sustained_qps_p99_le_<N>ms)."""
    match = re.search(r"_p99_le_(\d+)ms$", sustained_name(bench))
    if not match:
        raise SystemExit("serve.sustained_qps name must end _p99_le_<N>ms")
    return int(match.group(1)) * 1e-3


def sustained(raw, bench):
    """serve.sustained_qps over the nominal stream and the ladder rungs."""
    limit_s = latency_limit_s(bench)
    max_batch = raw["descriptor"]["max_batch"]
    rungs = []
    for s in [raw["stream"]] + raw["ladder"]:
        lat = [x * 1e-9 for x in m.latencies(s["q_due_ns"], s["q_done_ns"],
                                             s["q_ok"])]
        backlog = m.backlog_at(max(s["q_due_ns"]), s["q_due_ns"],
                               s["q_done_ns"], s["q_ok"])
        rungs.append((s["rate"], lat, backlog))
    return m.sustained_rate(rungs, limit_s, 0.99, max_batch)


def trace_failures(raw):
    """Failed operations of a traced run beyond the wrong answers: one per
    traced solve that failed check_engine_accounting, and one when the
    recorders dropped spans."""
    traced = raw["traced_solves"]
    bad = sum(1 for ok, acc in zip(traced["ok"], traced["accounting_ok"])
              if ok and not acc)
    if raw["trace"]["dropped"]:
        log(f"ssspbench: {raw['trace']['dropped']} spans dropped")
        bad += 1
    return bad


def chrome_trace(raw):
    """Benchmark spans on one lane, the library's lanes beside it."""
    cats = raw["trace"]["cats"]
    events = [{"name": "thread_name", "ph": "M", "pid": 0, "tid": 0,
               "args": {"name": "bench"}}]
    for name, start, dur in raw["trace"]["bench"]:
        events.append({"name": name, "cat": "bench", "ph": "X", "pid": 0,
                       "tid": 0, "ts": start / 1e3, "dur": dur / 1e3})
    for tid, lane in enumerate(raw["trace"]["lanes"], start=1):
        events.append({"name": "thread_name", "ph": "M", "pid": 0, "tid": tid,
                       "args": {"name": f"{lane['source']}:{lane['name']}"}})
        for c, start, dur in lane["spans"]:
            events.append({"name": cats[c], "cat": lane["source"], "ph": "X",
                           "pid": 0, "tid": tid, "ts": start / 1e3,
                           "dur": dur / 1e3})
    return {"displayTimeUnit": "ms", "traceEvents": events}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        raise SystemExit("ssspbench: --seed must be >= 0, --seconds > 0")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        raise SystemExit(f"ssspbench: unknown workload {args.workload}")
    selftest()
    program = build()

    out_dir = Path.cwd() / ".bench_out" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}")
    out_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(program), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--latency-limit-s", repr(latency_limit_s(bench)),
           "--out", str(out_dir)]
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=PROGRAM_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run has killed the program and waited for it.
        log(f"ssspbench: workload program ran past {PROGRAM_TIMEOUT_S} s")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    if proc.returncode != 0:
        raise SystemExit(f"ssspbench: workload program exited "
                         f"{proc.returncode}")
    raw = json.loads((out_dir / "raw.json").read_text())

    if args.trace:
        values = per_layer(raw, bench)
        wanted = bench["per_layer"]
        extra = {}
        (out_dir / "trace.json").write_text(json.dumps(chrome_trace(raw)))
    else:
        values, extra = end_to_end(raw, args.workload)
        wanted = bench["end_to_end"]
    missing = [x["name"] for x in wanted if x["name"] not in values]
    if missing:
        raise SystemExit(f"ssspbench: no value for {missing}")
    metrics = {x["name"]: {"value": values[x["name"]], "unit": x["unit"]}
               for x in wanted}

    attempted, failed = raw["attempted"], raw["failed"]
    if args.trace:
        # The per-layer split counts only when no span was dropped and every
        # traced solve passed the engine's accounting check.
        failed += trace_failures(raw)
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    descriptor = dict(raw["descriptor"], workload=args.workload,
                      seed=args.seed, seconds=args.seconds, trace=args.trace,
                      git_commit=source_identity(),
                      failure_share=m.failure_share(attempted, failed), **extra)
    (out_dir / "result.json").write_text(
        json.dumps({"descriptor": descriptor, **result}, indent=1) + "\n")
    (out_dir / "raw.json").unlink()
    for name, v in metrics.items():
        log(f"{name:34s} {v['value']:14.6g} {v['unit']}")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
