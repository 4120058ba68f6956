#!/usr/bin/env python3
"""apbench: builds the benchmark, runs its workloads, checks the
outputs and reports the metrics. Standard library only.

One run of one workload (the form BENCHMARK.json names):

    python3 bench/apbench/run.py --workload NAME --seed N
        --seconds T --trace 0|1

prints a summary and, as the last line of standard output, one JSON
object {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1.

A suite of runs (bench/apbench/run.sh forwards here):

    run.sh [--seed S] [--reps N] [--workloads a,b] [--seconds T]
           [--trace | --smoke] [--out FILE]

runs every listed workload N times (rep-major, so drift spreads evenly),
prints median, quartiles and sample counts per metric, and writes all
runs to a result file for compare.py. --trace runs each workload once
untraced and once traced and prints self time per span, the per-layer
metrics and the tracing overhead. --smoke runs every workload once with
1 s windows (one pipeline pass) and every gate on.

See README.md for the workloads, the metric catalog and the layer map.
"""

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
DEFAULT_SEED = 20181020
GOLDEN = os.path.join(HERE, "golden_sim_%d.json" % DEFAULT_SEED)
# The automata are the system's fixed configuration, like a deployed rule
# set: every run builds them from this seed (SPARSEAP_SEED), and --seed
# makes only the documents and input streams. So the runs of a workload
# differ in their inputs, not in the size and shape of what they match.
AUTOMATA_SEED = DEFAULT_SEED

# The serve workloads share one load shape, fixed in src/serve.cpp: one
# closed-loop connection and client thread per tenant, one stream per
# connection, 16 KiB Feeds, 256 KiB documents from a pool of 8 per
# tenant. The workloads differ in their tenants and scale.
WARMUP_S = 2.0
SMOKE_WARMUP_S = 0.5

SERVE = {
    "serve_small": dict(apps="Bro217,Brill", scale=5),
    "serve_fullscale": dict(apps="Snort,HM", scale=100),
}
# The paper pipeline: 26 apps at half scale, 1% profile, half-core
# capacity, one thread, store off; a fresh process per pass. The profile
# prefix is 1% of a 1 MiB reference (10 KiB), clamped to half the input,
# so 21 KiB is the smallest input whose profile is not cut short.
PIPELINE = "pipeline"
PIPELINE_SCALE = 50
PIPELINE_INPUT_KB = 21
MIN_PASSES = 3
WORKLOADS = list(SERVE) + [PIPELINE]

# Every step of a pass, as (per-layer metric, field of a pass's app
# record); together they account for the pass's wall time.
PIPELINE_STEPS = [("workloads.generate_ms", "generate_ms"),
                  ("graph.topology_ms", "topology_ms"),
                  ("sim.flatten_ms", "flatten_ms"),
                  ("sim.profile_ms", "profile_ms"),
                  ("partition.prepare_ms", "prepare_ms"),
                  ("sim.hot_run_ms", "hot_run_ms"),
                  ("spap.run_ms", "spap_ms"),
                  ("workloads.release_ms", "release_ms")]


def declared_metrics():
    """Metric names and units as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


class BenchError(Exception):
    """The harness itself failed: no result can be reported."""


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


# ------------------------------------------------------------ statistics --

def percentile(samples, q):
    """Exact nearest-rank percentile of the raw samples; None when fewer
    than 10 samples lie beyond it."""
    s = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(s)))
    return s[rank - 1] if len(s) - rank >= 10 else None


def median(samples):
    if len(samples) < 21:
        raise BenchError("median of %d samples has fewer than 10 beyond it"
                         % len(samples))
    return statistics.median(samples)


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def mean(values):
    return sum(values) / len(values) if values else 0.0


# ----------------------------------------------------------------- build --

def build_root():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return base if os.path.isabs(base) else os.path.join(ROOT, base)


def build():
    """Configure once, then build; @return the binary directory."""
    for need in ("src/core/experiment.cc", "tools/apserved.cpp"):
        if not os.path.isfile(os.path.join(ROOT, need)):
            raise BenchError("source tree incomplete: %s is missing" % need)
    bdir = os.path.join(build_root(), "apbench")
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, timeout=300)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", bdir, "-j", jobs], check=True,
                   stdout=sys.stderr, timeout=1200)
    return bdir


def bench_env(**kv):
    """The caller's environment without any SPARSEAP_* setting, plus the
    workload's own."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("SPARSEAP_")}
    env["SPARSEAP_JOBS"] = "1"
    env.update({k: str(v) for k, v in kv.items()})
    return env


def run_program(cmd, cwd, env, log_name, timeout):
    with open(os.path.join(cwd, log_name), "ab") as out:
        try:
            proc = subprocess.run(cmd, cwd=cwd, env=env, stdout=out,
                                  stderr=out, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BenchError("%s timed out" % os.path.basename(cmd[0]))
    if proc.returncode != 0:
        raise BenchError("%s exited with %d (log: %s)"
                         % (os.path.basename(cmd[0]), proc.returncode,
                            os.path.join(cwd, log_name)))


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


# ---------------------------------------------------------------- serve --

def run_serve(name, seed, seconds, trace, bdir, rundir, smoke):
    w = SERVE[name]
    env = bench_env(SPARSEAP_SCALE=w["scale"], SPARSEAP_SEED=AUTOMATA_SEED,
                    SPARSEAP_CACHE="off")
    cmd = [os.path.join(bdir, "apbench_serve"),
           "--apserved", os.path.join(bdir, "apserved"),
           "--socket", "s.sock", "--seed", seed, "--apps", w["apps"],
           "--warmup", SMOKE_WARMUP_S if smoke else WARMUP_S,
           "--seconds", seconds, "--out", "result.json"]
    if trace:
        cmd += ["--trace", "trace.json"]
    run_program([str(c) for c in cmd], rundir, env, "serve.log", 170)
    with open(os.path.join(rundir, "result.json")) as f:
        r = json.load(f)

    feeds = r["feed_us"]
    failures = []
    if r["doc_mismatches"]:
        failures.append("%d documents' reports differ from Engine::run"
                        % r["doc_mismatches"])
    if r["docs_checked"] == 0 or r["reports_checked"] == 0:
        failures.append("no document was checked against a report")
    if r["errors"] or r["transport"]:
        failures.append("%d error replies, %d transport failures"
                        % (r["errors"], r["transport"]))
    if not r["stats_ok"] or not r["clean_exit"]:
        failures.append("STATS failed or apserved did not exit cleanly")
    metrics = {
        "p50_us": median(feeds),
        "setup_s": statistics.median(r["setup_s"]),
        "peak_rss_mb": r["vmhwm_kib"] / 1024.0,
    }
    detail = {"samples": len(feeds), "p99_us": percentile(feeds, 99),
              "mb_s": r["window_bytes"] / r["window_s"] / 1e6,
              "docs_checked": r["docs_checked"],
              "reports_checked": r["reports_checked"],
              "reference_s": r["reference_s"]}
    layers = serve_layers(r) if trace else {}
    return dict(metrics=metrics, layers=layers, detail=detail,
                failures=failures, attempted=r["attempted"],
                failed=r["failed"])


def stats_delta(r, key):
    return r["stats1"].get(key, 0) - r["stats0"].get(key, 0)


def tenant_sum(r, base):
    return sum(stats_delta(r, k) for k in r["stats1"]
               if k.startswith(base + "{"))


def serve_layers(r):
    rp = r["replay"]
    session_mb_s = rp["session_bytes"] / rp["session_seconds"] / 1e6
    # Best pinned core per tenant, weighted by the replay's byte mix so
    # it compares with the sessions' throughput over the same traffic.
    best_s = {}
    for c in rp["cores"]:
        if not c["reports_ok"]:
            raise BenchError("pinned %s core diverged on %s"
                             % (c["mode"], c["tenant"]))
        s = c["seconds"] / c["bytes"]
        best_s[c["tenant"]] = min(best_s.get(c["tenant"], s), s)
    best = rp["session_bytes"] / sum(
        b * best_s[t] for t, b in rp["tenant_bytes"].items()) / 1e6
    fed = max(1, rp["session_bytes"])
    layers = {
        "serve.codec_us": median(rp["codec_us"]),
        "serve.wire_bytes": mean(rp["wire_bytes"]),
        "serve.service_us": median(rp["service_us"]),
        "serve.service_overhead_us": median(
            [a - b for a, b in zip(rp["service_us"], rp["session_us"])]),
        "serve.transport_us": median(
            [s - c - v for s, c, v in zip(rp["socket_us"], rp["codec_us"],
                                          rp["service_us"])]),
        "serve.open_close_us": median(r["open_us"]) + median(r["close_us"]),
        "serve.sheds": sum(stats_delta(r, k) for k in
                           ("serve.overload", "serve.retry", "serve.shed")),
        "sim.session_mb_s": session_mb_s,
        "sim.dfa_byte_frac": rp["dfa_bytes"] / fed,
        "sim.dense_byte_frac": rp["dense_bytes"] / fed,
        "sim.sparse_byte_frac": rp["sparse_bytes"] / fed,
        "sim.best_core_mb_s": best,
        "sim.core_choice_gap": best / session_mb_s,
        "sim.skip_frac": rp["skipped"] / max(1, rp["cycles"]),
    }
    # Cross-check the replay's core split against the daemon's own
    # per-tenant cycle counters over the window.
    cycles = {m: tenant_sum(r, "serve.%s_cycles" % m)
              for m in ("dfa", "dense", "sparse")}
    total = max(1, sum(cycles.values()))
    log("core split  replay: dfa %.3f dense %.3f sparse %.3f | daemon: "
        "dfa %.3f dense %.3f sparse %.3f"
        % (layers["sim.dfa_byte_frac"], layers["sim.dense_byte_frac"],
           layers["sim.sparse_byte_frac"], cycles["dfa"] / total,
           cycles["dense"] / total, cycles["sparse"] / total))
    log("replayed %d of %d logged requests (%d Feeds)"
        % (rp["ops"], rp["ops_logged"], rp["feeds"]))
    return layers


# ------------------------------------------------------------- pipeline --

def run_pass(bdir, rundir, env, seed, tag, trace):
    """One pass in a fresh process; its record gains "wall_s", the wall
    time of the whole process."""
    out = "%s.json" % tag
    cmd = [os.path.join(bdir, "apbench_pipeline"), "pass",
           "--seed", str(seed), "--out", out]
    if trace:
        cmd += ["--trace", "trace.json"]
    t0 = time.monotonic()
    run_program(cmd, rundir, env, "pipeline.log", 170)
    wall = time.monotonic() - t0
    with open(os.path.join(rundir, out)) as f:
        p = json.load(f)
    p["wall_s"] = wall
    return p


def sim_table(p):
    return {a["abbr"]: a["sim"] for a in p["apps"]}


def pipeline_env():
    return bench_env(SPARSEAP_SCALE=PIPELINE_SCALE,
                     SPARSEAP_SEED=AUTOMATA_SEED,
                     SPARSEAP_INPUT_KB=PIPELINE_INPUT_KB,
                     SPARSEAP_CACHE="off")


def run_pipeline(name, seed, seconds, trace, bdir, rundir, smoke):
    env = pipeline_env()
    run_program([os.path.join(bdir, "apbench_pipeline"), "reference",
                 "--seed", str(seed), "--out", "reference.json"],
                rundir, env, "pipeline.log", 170)
    with open(os.path.join(rundir, "reference.json")) as f:
        ref = {a["abbr"]: a for a in json.load(f)["apps"]}

    # Passes until the next one would end past the run's time.
    passes = []
    t0 = time.monotonic()
    min_passes = 1 if smoke else MIN_PASSES
    while (len(passes) < min_passes or time.monotonic() - t0
           + passes[-1]["wall_s"] <= seconds):
        passes.append(run_pass(bdir, rundir, env, seed,
                               "pass%d" % len(passes), trace))

    failures = []
    failed = 0
    for p in passes:
        for a in p["apps"]:
            if a["digest"] != ref[a["abbr"]]["digest"]:
                failed += 1
                failures.append("%s: SpAP reports differ from Engine::run"
                                % a["abbr"])
    reports = sum(a["reports"] for a in ref.values())
    if reports == 0:
        failures.append("the reference emits no reports")
    sims = [sim_table(p) for p in passes]
    if any(s != sims[0] for s in sims):
        failures.append("simulated statistics differ between passes")
    if seed == DEFAULT_SEED:
        with open(GOLDEN) as f:
            if json.load(f)["apps"] != sims[0]:
                failures.append("simulated statistics differ from %s"
                                % os.path.basename(GOLDEN))

    # A pipeline user waits for the whole pass, so the pass is the
    # pipeline's unit of latency: p50_us is the run's median pass.
    pipeline_s = statistics.median(p["wall_s"] for p in passes)
    input_bytes = sum(a["input_bytes"] for a in passes[0]["apps"])
    metrics = {
        "p50_us": pipeline_s * 1e6,
        "setup_s": statistics.median(p["generate_ms"] / 1e3
                                     for p in passes),
        "peak_rss_mb": statistics.median(p["vmhwm_kib"]
                                         for p in passes) / 1024.0,
    }
    # The timed steps against the wall time of the same pass.
    step_share = statistics.median(
        sum(a[key] for a in p["apps"] for _, key in PIPELINE_STEPS)
        / 1e3 / p["wall_s"] for p in passes)
    detail = {"samples": len(passes), "mb_s": input_bytes / pipeline_s / 1e6,
              "step_share": step_share,
              "reports_checked": reports * len(passes)}
    layers = pipeline_layers(passes, sims[0]) if trace else {}
    return dict(metrics=metrics, layers=layers, detail=detail,
                failures=failures, attempted=len(passes) * len(ref),
                failed=failed)


def pipeline_layers(passes, sim):
    def med(f):
        return statistics.median(f(p) for p in passes)
    layers = {name: med(lambda p, k=key: sum(a[k] for a in p["apps"]))
              for name, key in PIPELINE_STEPS}
    speedups = [s["speedup"] for s in sim.values()]
    layers.update({
        "spap.speedup_geomean": math.exp(
            sum(math.log(x) for x in speedups) / len(speedups)),
        "spap.batches": sum(s["spap_batches"] for s in sim.values()),
        "spap.enables": sum(s["enables"] for s in sim.values()),
        "spap.enable_stalls": sum(s["enable_stalls"] for s in sim.values()),
        "spap.jumps": sum(s["jumps"] for s in sim.values()),
        "partition.intermediate_states":
            sum(s["intermediate_states"] for s in sim.values()),
    })
    return layers


# ------------------------------------------------------------------ runs --

def run_one(name, seed, seconds, trace, bdir, smoke=False):
    """One run of one workload; raises BenchError when no result exists."""
    rundir = fresh_dir(os.path.join(build_root(), "apbench-runs",
                                    "%s%s" % (name, "-trace" if trace
                                              else "")))
    fn = run_serve if name in SERVE else run_pipeline
    res = fn(name, seed, seconds, trace, bdir, rundir, smoke)
    end_to_end, per_layer = declared_metrics()
    if set(res["metrics"]) != set(end_to_end):
        raise BenchError("end-to-end metrics differ from BENCHMARK.json")
    if trace:
        unknown = set(res["layers"]) - set(per_layer)
        if unknown:
            raise BenchError("undeclared per-layer metrics: %s"
                             % ", ".join(sorted(unknown)))
        # Layers a workload does not reach read 0.
        res["layers"] = {k: float(res["layers"].get(k, 0.0))
                         for k in per_layer}
        res["self_time"] = self_times(os.path.join(rundir, "trace.json"))
    res.update(workload=name, seed=seed, seconds=seconds, trace=trace,
               correct=not res["failures"], rundir=rundir)
    return res


def self_times(path):
    """Per span name: count, total and self time (duration minus the
    part its child spans cover), in microseconds."""
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    child = {}
    for e in events:
        p = e["args"]["parent"]
        if p:
            child[p] = child.get(p, 0.0) + e["dur"]
    out = {}
    for e in events:
        row = out.setdefault(e["name"], [0, 0.0, 0.0])
        row[0] += 1
        row[1] += e["dur"]
        row[2] += e["dur"] - child.get(e["args"]["id"], 0.0)
    return {k: {"count": c, "total_us": t, "self_us": s}
            for k, (c, t, s) in out.items()}


def result_line(res):
    end_to_end, per_layer = declared_metrics()
    names = per_layer if res["trace"] else end_to_end
    values = res["layers"] if res["trace"] else res["metrics"]
    return json.dumps({
        "correct": res["correct"], "attempted": int(res["attempted"]),
        "failed": int(res["failed"]),
        "metrics": {k: {"value": values[k], "unit": names[k]}
                    for k in names}})


def print_run(res):
    m = res["metrics"]
    d = res["detail"]
    print("%s seed=%s %s" % (res["workload"], res["seed"],
                             "traced" if res["trace"] else "untraced"))
    print("  p50_us %.1f (of %d)  setup_s %.4f  peak_rss_mb %.1f"
          % (m["p50_us"], d["samples"], m["setup_s"], m["peak_rss_mb"]))
    print("  " + "  ".join("%s=%s" % kv for kv in sorted(d.items())
                           if kv[0] != "samples"))
    print("  attempted %d failed %d  gates: %s" % (
        res["attempted"], res["failed"],
        "ok" if res["correct"] else "; ".join(res["failures"])))
    if res["trace"]:
        print_trace(res)


def print_trace(res):
    print("  self time per span (us):")
    rows = sorted(res["self_time"].items(), key=lambda kv: -kv[1]["self_us"])
    for name, r in rows:
        print("    %-24s n=%-8d total %14.0f  self %14.0f"
              % (name, r["count"], r["total_us"], r["self_us"]))
    print("  per-layer metrics:")
    per_layer = declared_metrics()[1]
    for k, unit in per_layer.items():
        print("    %-32s %.6g %s" % (k, res["layers"][k], unit))


def single(args):
    bdir = build()
    res = run_one(args.workload, args.seed, args.seconds,
                  args.trace == "1", bdir)
    print_run(res)
    print(result_line(res))
    return 0 if res["correct"] else 1


# ----------------------------------------------------------------- suite --

def suite(args):
    names = args.workloads.split(",") if args.workloads else WORKLOADS
    for n in names:
        if n not in WORKLOADS:
            raise BenchError("unknown workload %r (have %s)"
                             % (n, ", ".join(WORKLOADS)))
    bdir = build()
    traced = args.trace is not None and args.trace != "0"
    seconds = 1 if args.smoke else args.seconds
    reps = 1 if (args.smoke or traced) else args.reps
    t0 = time.monotonic()
    runs = []
    for rep in range(reps):
        for n in names:
            res = run_one(n, args.seed, seconds, False, bdir, args.smoke)
            res["rep"] = rep
            runs.append(res)
            print_run(res)
            if traced:
                tres = run_one(n, args.seed, seconds, True, bdir)
                tres["rep"] = rep
                runs.append(tres)
                print_run(tres)
                print_overhead(res, tres)
    elapsed = time.monotonic() - t0

    summarize(runs, names)
    out = args.out or os.path.join(
        build_root(), "apbench-results",
        time.strftime("%Y%m%d-%H%M%S") + ("-trace" if traced else "")
        + ".json")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    meta = {"seed": args.seed, "seconds": seconds, "reps": reps,
            "smoke": args.smoke, "trace": traced,
            "when": time.strftime("%Y-%m-%d %H:%M:%S"),
            "elapsed_s": elapsed, "host": host_info()}
    keep = ("workload", "rep", "seed", "trace", "correct", "failures",
            "attempted", "failed", "metrics", "layers", "detail",
            "self_time")
    with open(out, "w") as f:
        json.dump({"meta": meta,
                   "runs": [{k: r[k] for k in keep if k in r}
                            for r in runs]}, f, indent=1)
    bad = [r for r in runs if not r["correct"]]
    print("\n%d runs in %.1f s, %d failed their gates; results: %s"
          % (len(runs), elapsed, len(bad), out))
    return 1 if bad else 0


def print_overhead(untraced, traced):
    a, b = untraced["metrics"]["p50_us"], traced["metrics"]["p50_us"]
    print("  tracing overhead: p50_us untraced %.1f traced %.1f (%+.1f%%)"
          % (a, b, 100.0 * (b - a) / a))


def summarize(runs, names):
    print("\nmedian [q1, q3] over runs (n runs; samples per run)")
    for n in names:
        rs = [r for r in runs if r["workload"] == n and not r["trace"]]
        if not rs:
            continue
        samples = statistics.median(r["detail"]["samples"] for r in rs)
        print("%s (n=%d; %d samples per run)" % (n, len(rs), samples))
        rows = [(k, unit, [r["metrics"][k] for r in rs])
                for k, unit in declared_metrics()[0].items()]
        # Throughput and the serve p99 are printed beside the bounded
        # metrics; see README.md.
        rows.insert(0, ("mb_s", "MB/s", [r["detail"]["mb_s"] for r in rs]))
        p99 = [r["detail"].get("p99_us") for r in rs]
        if all(p99):
            rows.insert(2, ("p99_us", "us", p99))
        for k, unit, vals in rows:
            q1, q2, q3 = quartiles(vals)
            spread = (q3 - q1) / q2 if q2 else 0.0
            print("  %-12s %12.4f [%.4f, %.4f] %s  iqr/median %.1f%%"
                  % (k, q2, q1, q3, unit, 100.0 * spread))


def host_info():
    model = ""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpus": os.cpu_count(), "cpu": model,
            "machine": platform.machine()}


def write_golden():
    """Regenerate the golden simulated statistics at the default seed."""
    bdir = build()
    rundir = fresh_dir(os.path.join(build_root(), "apbench-runs", "golden"))
    p = run_pass(bdir, rundir, pipeline_env(), DEFAULT_SEED, "golden", False)
    with open(GOLDEN, "w") as f:
        json.dump({"seed": DEFAULT_SEED, "scale": PIPELINE_SCALE,
                   "input_kb": PIPELINE_INPUT_KB, "apps": sim_table(p)},
                  f, indent=1, sort_keys=True)
        f.write("\n")
    print("wrote", GOLDEN)
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    # BENCHMARK.json's run_seconds.
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", nargs="?", const="1", choices=["0", "1"])
    ap.add_argument("--reps", type=int, default=5)
    ap.add_argument("--workloads")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--out")
    ap.add_argument("--write-golden", action="store_true")
    args = ap.parse_args()
    if args.seconds <= 0 or args.reps < 1:
        ap.error("--seconds and --reps must be positive")
    try:
        if args.write_golden:
            return write_golden()
        if args.workload:
            return single(args)
        return suite(args)
    except (BenchError, subprocess.CalledProcessError, OSError,
            ValueError, KeyError) as e:
        log("apbench: %s" % e)
        return 2


if __name__ == "__main__":
    sys.exit(main())
