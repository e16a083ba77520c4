#!/usr/bin/env python3
"""cloudsync benchmark: build the driver, run cold measurements, check, report.

    python3 perfbench/run.py --workload fleet_replay|edit_sync|server_sessions|all
                             --seed N --seconds S --trace 0|1
                             [--smoke] [--reference FILE]

Run from the root of a checkout. The driver is built from ../src into
.bench_build/perfbench. Each measurement runs in a fresh driver process (the
library's memos are process-wide), and the run keeps starting them until
--seconds have passed, at least three times, so every figure is a median over
several cold set-ups and timed phases.

--trace 0 prints every end-to-end metric of BENCHMARK.json; --trace 1
alternates untraced and traced processes, writes the spans to
.bench_build/perfbench/traces/, and prints every per-layer metric. The last
line of stdout is the JSON result; the lines above it are for people.

A failed output check (reference values, 1-vs-N-thread identity, convergence,
a warm start, a failed session) prints the reason on stderr and exits 1.
See perfbench/README.md for what each metric means.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD, "perfbench_driver")
WORKLOADS = ("fleet_replay", "edit_sync", "server_sessions")
DEFAULT_SEED = 1  # the seed the reference values were recorded with
MIN_PROCESSES = 3  # set-ups per run, so setup_s is a median
PROCESS_TIMEOUT_S = 150


class CheckFailed(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no cloudsync sources at %s/src; run from a checkout" % ROOT)
        sys.exit(2)
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"] + gen,
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr)


def measure(args, identity=False, trace_file=None):
    """One cold measurement in a fresh driver process."""
    cmd = [DRIVER, "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    if identity:
        cmd.append("--identity")
    if trace_file:
        cmd += ["--trace", trace_file]
    p = subprocess.run(cmd, capture_output=True, text=True,
                       timeout=PROCESS_TIMEOUT_S)
    if p.returncode != 0:
        raise CheckFailed("driver exited %d: %s" % (p.returncode, p.stderr.strip()))
    return json.loads(p.stdout.strip().splitlines()[-1])


def check(args, runs, reference):
    """Raise CheckFailed unless every process's outputs are right."""
    for r in runs:
        if r["errors"]:
            raise CheckFailed("; ".join(r["errors"]))
        warm = {k: v for k, v in r["memo_at_entry"].items() if v}
        if warm:
            raise CheckFailed("warm start: %s" % warm)
    outputs = {json.dumps(r["check"], sort_keys=True) for r in runs}
    if len(outputs) != 1:
        raise CheckFailed("processes of one seed disagree: %s" % sorted(outputs))
    if uses_reference(args):
        size = "smoke" if args.smoke else "full"
        want = reference[size][args.workload]
        got = runs[0]["check"]
        if got != want:
            raise CheckFailed("outputs differ from the reference\n  want %s\n  got  %s"
                              % (json.dumps(want, sort_keys=True),
                                 json.dumps(got, sort_keys=True)))


def uses_reference(args):
    # fleet_replay replays one fixed trace whatever the seed, so its
    # reference applies to every seed; the others were recorded at seed 1.
    return args.workload == "fleet_replay" or args.seed == DEFAULT_SEED


def tail_quantile(n):
    """p99, or the highest percentile with ten samples beyond it, not below
    the median (the guide's rule for how far a sample supports a tail)."""
    return max(0.5, min(0.99, 1.0 - 10.0 / n)) if n else 0.5


def quantile(values, q):
    v = sorted(values)
    rank = max(1, min(len(v), int(-(-q * len(v) // 1))))
    return v[rank - 1]


def run_processes(args, until, make_trace=None):
    """Start measurements until `until` (monotonic), at least MIN_PROCESSES.
    make_trace(i) -> trace file or None for process i."""
    runs = []
    while len(runs) < MIN_PROCESSES or time.monotonic() < until:
        i = len(runs)
        trace_file = make_trace(i) if make_trace else None
        identity = i == 0 and args.seed != DEFAULT_SEED
        runs.append(measure(args, identity=identity, trace_file=trace_file))
    return runs


def host_lines(host):
    lines = ["host: nproc=%d compiler=%s build=%s march_native=%s assertions=%s "
             "sanitizer=%s" % (host["nproc"], host["compiler"], host["build_type"],
                               host["march_native"], host["assertions"],
                               host["sanitizer"])]
    if host["build_type"] not in ("Release", "RelWithDebInfo") or host["sanitizer"]:
        lines.append("WARNING: not an optimised build; do not compare these figures")
    return lines


def tail_ms(runs, lat):
    """op_p99_ms. With at least 1,000 ops in every process it is the median
    of the processes' own p99s, so one process caught by a stall of the host
    does not set the run's tail; otherwise the tail of all ops pooled."""
    if min(len(r["op_ms"]) for r in runs) >= 1000:
        return statistics.median(quantile(r["op_ms"], 0.99) for r in runs)
    return quantile(lat, tail_quantile(len(lat)))


def e2e_metrics(runs):
    lat = [x for r in runs for x in r["op_ms"]]
    med = lambda k: statistics.median(r[k] for r in runs)
    return {
        "setup_s": med("setup_s"),
        "cpu_s": med("cpu_s"),
        "peak_rss_mb": med("peak_rss_mb"),
        "update_mb_s": med("update_mb_s"),
        "op_p50_ms": quantile(lat, 0.5),
        "op_p99_ms": tail_ms(runs, lat),
    }, lat


def workload_lines(args, runs, lat):
    """The figures that belong to one workload, by their own names."""
    lines = []
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    q = tail_quantile(len(lat))
    lines.append("ops: %d timed samples, pooled tail percentile p%g" % (len(lat), 100 * q))
    if args.workload == "edit_sync":
        for kind in ("edit", "fetch"):
            v = [x for r in runs for x in r["info"][kind + "_ms"]]
            lines.append("%s_p50_ms %.4f ms   %s_p99_ms %.4f ms   (%d samples)"
                         % (kind, quantile(v, 0.5), kind,
                            quantile(v, tail_quantile(len(v))), len(v)))
    if args.workload == "server_sessions":
        cores = max(1, runs[0]["host"]["nproc"] - 1)
        lines.append("session_p50_ms %.4f ms   session_p99_ms %.4f ms   at %d sessions/s"
                     " on %d dedicated cores (queued CPU time)"
                     % (quantile(lat, 0.5), tail_ms(runs, lat), 1000, cores))
        wall = lambda k: statistics.median(r["info"][k] for r in runs)
        lines.append("wall session_p50_ms %.4f ms   session_p99_ms %.4f ms   "
                     "(median of processes; the host's steal and preemption included)"
                     % (wall("wall_p50_ms"), wall("wall_p99_ms")))
        lines.append("burst capacity %.0f sessions/s; generator late p99 %.4f ms"
                     % (statistics.median(r["info"]["burst_sps"] for r in runs),
                        statistics.median(r["info"]["generator_late_p99_ms"] for r in runs)))
    lines.append("error_rate %.6f (%d failed of %d attempted)"
                 % (failed / attempted if attempted else 0.0, failed, attempted))
    return lines


def run_workload(args, spec, reference):
    """Measure and check one workload; print its lines and JSON result.
    Returns the exit code."""
    start = time.monotonic()
    until = start + args.seconds
    try:
        if args.trace == 0:
            runs = run_processes(args, until)
            check(args, runs, reference)
            values, lat = e2e_metrics(runs)
            declared = spec["end_to_end"]
            extra = workload_lines(args, runs, lat)
        else:
            trace_dir = os.path.join(BUILD, "traces")
            os.makedirs(trace_dir, exist_ok=True)
            # Even processes untraced, odd ones traced: the difference of
            # their medians is the tracing overhead.
            name = lambda i: os.path.join(trace_dir, "%s-seed%d-%d.json"
                                          % (args.workload, args.seed, i // 2))
            runs = run_processes(args, until, lambda i: name(i) if i % 2 else None)
            if len(runs) % 2:
                runs.append(measure(args, trace_file=name(len(runs))))
            check(args, runs, reference)
            plain, traced = runs[0::2], runs[1::2]
            p50 = lambda rs: statistics.median(quantile(r["op_ms"], 0.5) for r in rs)
            values = {}
            for m in spec["per_layer"]:
                got = [r["layer"][m["name"]] for r in traced if m["name"] in r["layer"]]
                if got:
                    values[m["name"]] = statistics.median(got)
            values["bench.trace_overhead_pct"] = 100.0 * (p50(traced) / p50(plain) - 1.0)
            declared = spec["per_layer"]
            self_s = {}
            for r in traced:
                for layer, s in r["self_s"].items():
                    self_s.setdefault(layer, []).append(s)
            extra = ["spans: %s" % os.path.relpath(name(1), ROOT),
                     "self time per layer (s, median of %d traced processes): %s"
                     % (len(traced), ", ".join("%s %.4f" % (k, statistics.median(v))
                                               for k, v in sorted(self_s.items())))]
        missing = [m["name"] for m in declared if m["name"] not in values]
        if missing:
            raise CheckFailed("driver did not report %s" % missing)
    except (CheckFailed, subprocess.TimeoutExpired) as e:
        log("perfbench: %s: CHECK FAILED: %s" % (args.workload, e))
        return 1

    checks = (["reference"] if uses_reference(args) else []) + \
        (["identity re-run"] if args.seed != DEFAULT_SEED else [])
    print("perfbench %s seed=%d trace=%d: %d processes in %.1f s, outputs checked (%s)"
          % (args.workload, args.seed, args.trace, len(runs), time.monotonic() - start,
             " and ".join(checks)))
    for line in host_lines(runs[0]["host"]):
        print(line)
    print("memo hits+misses at process entry: 0 in every process; at timed start: %s"
          % json.dumps(runs[0]["memo_at_timed_start"], sort_keys=True))
    for line in extra:
        print(line)
    metrics = {}
    for m in declared:
        v = values[m["name"]]
        print("%-32s %14.6g %s" % (m["name"], v, m["unit"]))
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                      "metrics": metrics}), flush=True)
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                    help="'all' runs every workload in turn")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="minimal sizes (the benchmark's own tests)")
    ap.add_argument("--reference", default=os.path.join(HERE, "reference.json"))
    args = ap.parse_args()

    build()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(args.reference) as f:
        reference = json.load(f)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    code = 0
    for w in workloads:
        args.workload = w
        code = max(code, run_workload(args, spec, reference))
    return code


if __name__ == "__main__":
    sys.exit(main())
