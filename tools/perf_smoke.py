#!/usr/bin/env python3
"""Kernel perf smoke: microbench + one profiled takosim run -> BENCH_perf.json.

Usage: tools/perf_smoke.py [--bin-dir build] [--out BENCH_perf.json]
                           [--quick]

Runs the per-layer microbenchmarks (schedule/fire throughput old vs.
new, coroutine spawn/resume, cache lookup and victim selection, line
lock acquire/release, backing-store reads, mesh traversal, one simulated
access) and one end-to-end profiled takosim run, then merges both into
a single "takoperf-v1" JSON artifact. CI uploads the artifact per
commit so events/sec has a trajectory; feed one or more of these files
to tools/plot_results.py to render the trend.

--quick shortens the microbenchmark repetitions and the trace-codec
run. It has never shrunk the takosim runs (the profiled run and both
shard gates): takosim has no quick mode, and the environment variable
this script used to set for them was read by nothing.

Exit status is non-zero if either child fails or if the new event queue
fails to beat the legacy baseline by at least MIN_SPEEDUP (the PR's
regression gate).

Host timings on a shared machine drift over minutes, so the two shard
gates never trust one sample: each runs PAIRS interleaved pairs of
--shards=1 and --shards=4 runs, alternating which side goes first,
and gates on the median per-pair speedup. The artifact records each
side's median and quartiles and the ratios' quartiles.

Perf numbers are only comparable between trusted artifacts: a Release
build of a clean (committed) tree, as takosim's own stamp reports it
(``build_type`` and ``git_rev`` in its --stats-json; google-benchmark's
``library_build_type`` describes the system libbenchmark, not this
build). Anything else — a Debug/RelWithDebInfo binary, a ``-dirty``
working tree — is refused by default; pass
``--allow-untrusted`` to emit the artifact anyway, loudly tagged with
``"untrusted": true`` and the reasons, with every perf gate skipped so
meaningless numbers can neither pass nor fail a gate (and so
plot_results.py / future regression tooling can exclude them).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

MIN_SPEEDUP = 2.0
# Required wall-clock speedup of a --replicate ensemble at --shards=4
# over --shards=1 (4 independent replicas across 4 host lanes). Only
# enforced when the host actually has >= 4 CPUs: on smaller runners the
# lanes time-share and the measurement is meaningless.
MIN_SHARD_SPEEDUP = 2.0
# Required wall-clock speedup of ONE 16-tile run at --shards=4 over
# --shards=1: the decomposed model executing a single simulation across
# four shard-domain workers (not an ensemble). Same host-CPU guard as
# the ensemble gate.
MIN_SINGLE_RUN_SPEEDUP = 1.8
# Interleaved (--shards=1, --shards=4) pairs behind each shard gate.
PAIRS = 10
KERNEL_FILTER = ("BM_EventQueue|BM_Coroutine|BM_CacheLookup|"
                 "BM_VictimSelection|BM_LineLockAcquireRelease|"
                 "BM_BackingStoreRead64|BM_BackingStoreReadDense|"
                 "BM_BackingStoreFirstTouch|"
                 "BM_MeshTraverse|BM_MeshWalk|"
                 "BM_SimulatedAccess")


def trust_problems(build_type, git_rev):
    """Why this artifact's numbers are not comparable (empty = trusted)."""
    problems = []
    if build_type.lower() != "release":
        problems.append(
            f"build_type is {build_type or 'unknown'!r}, not a Release "
            "build")
    if git_rev.endswith("-dirty") or git_rev == "unknown":
        problems.append(f"git rev {git_rev!r} is not a clean commit")
    return problems


def run_microbench(bin_dir, quick):
    exe = os.path.join(bin_dir, "bench", "micro_kernels")
    out = os.path.join(bin_dir, "micro_kernels_perf.json")
    cmd = [
        exe,
        f"--benchmark_filter={KERNEL_FILTER}",
        "--benchmark_format=json",
        f"--benchmark_out={out}",
        "--benchmark_out_format=json",
    ]
    if not quick:
        # Plain double: this google-benchmark build rejects "0.2s".
        cmd.append("--benchmark_min_time=0.2")
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    doc = json.load(open(out))
    benches = {}
    for b in doc.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        benches[b["name"]] = {
            "items_per_second": b.get("items_per_second", 0.0),
            "cpu_time_ns": b.get("cpu_time", 0.0),
        }
    return doc.get("context", {}), benches


def run_takosim(bin_dir):
    exe = os.path.join(bin_dir, "tools", "takosim")
    stats = os.path.join(bin_dir, "perf_smoke_stats.json")
    prof = os.path.join(bin_dir, "perf_smoke_prof.json")
    cmd = [
        exe,
        "--workload=decompress",
        "--variant=tako",
        f"--stats-json={stats}",
        f"--profile={prof}",
    ]
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    doc = json.load(open(stats))
    return {
        "workload": "decompress",
        "variant": "tako",
        "host_seconds": doc.get("host_seconds", 0.0),
        "sim_events": doc.get("sim_events", 0.0),
        "events_per_sec": doc.get("events_per_sec", 0.0),
        "git_rev": doc.get("git_rev", "unknown"),
        "build_type": doc.get("build_type", ""),
    }, prof


def quartiles(xs):
    """(first quartile, median, third quartile) of @p xs."""
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def paired_shard_speedup(base):
    """Wall-time ``base`` at --shards=1 and --shards=4 over PAIRS
    interleaved pairs, alternating which side runs first so drift and
    warm-up fall on both sides alike. The speedup is the median of the
    per-pair ratios (shards1 / shards4).
    """
    walls = {1: [], 4: []}
    ratios = []
    for i in range(PAIRS):
        pair = {}
        for shards in ((1, 4) if i % 2 == 0 else (4, 1)):
            start = time.monotonic()
            subprocess.run(base + [f"--shards={shards}"], check=True,
                           stdout=subprocess.DEVNULL)
            pair[shards] = time.monotonic() - start
        walls[1].append(pair[1])
        walls[4].append(pair[4])
        ratios.append(pair[1] / pair[4] if pair[4] > 0 else 0.0)
    result = {"pairs": PAIRS}
    for shards in (1, 4):
        q1, med, q3 = quartiles(walls[shards])
        result[f"wall_sec_shards{shards}"] = med
        result[f"wall_sec_shards{shards}_q1"] = q1
        result[f"wall_sec_shards{shards}_q3"] = q3
    q1, med, q3 = quartiles(ratios)
    result.update(speedup=med, speedup_q1=q1, speedup_q3=q3,
                  speedups=ratios)
    return result


def run_shard_ensemble(bin_dir):
    """Wall-time a 16-tile nightly-sized ensemble at 1 vs. 4 lanes.

    Determinism is gated elsewhere (test_shard, the quick-suite
    diff_metrics gates); this measures the parallelism payoff:
    --shards=N is the host-parallelism budget, spent on ensemble lanes
    under --replicate.
    """
    exe = os.path.join(bin_dir, "tools", "takosim")
    # phi at 16k vertices is the nightly-sized 16-tile run: long enough
    # (~seconds per replica) that lane scheduling, not process startup,
    # dominates the measurement.
    base = [
        exe,
        "--workload=phi",
        "--variant=tako",
        "--cores=16",
        "--vertices=16384",
        "--replicate=4",
    ]
    return {
        "workload": "phi",
        "variant": "tako",
        "cores": 16,
        "vertices": 16384,
        "replicas": 4,
        **paired_shard_speedup(base),
        "host_cpus": os.cpu_count() or 1,
    }


def run_shard_single(bin_dir):
    """Wall-time ONE 16-tile run at --shards=1 vs. --shards=4.

    Unlike run_shard_ensemble (4 independent replicas spread across
    lanes), this is a single simulation decomposed across shard domains:
    each domain owns its tiles' cores, caches, engines, and routers and
    drains its own event queue under quantum barriers. Bit-identity of
    the result is gated elsewhere (test_shard, the CI quick-suite
    diffs); this measures the parallel payoff of the decomposition
    itself.
    """
    exe = os.path.join(bin_dir, "tools", "takosim")
    base = [
        exe,
        "--workload=phi",
        "--variant=tako",
        "--cores=16",
        "--vertices=16384",
    ]
    return {
        "workload": "phi",
        "variant": "tako",
        "cores": 16,
        "vertices": 16384,
        **paired_shard_speedup(base),
        "host_cpus": os.cpu_count() or 1,
    }


def run_trace_codec(bin_dir, quick):
    """Trace-frontend throughput: takotracegen encode, decode (dump to
    /dev/null), and full replay through the memory hierarchy, all in
    records/sec on a generated kv trace. Informational — the artifact
    gives the decoder a trajectory; no gate, since the codec is nowhere
    near the simulation bottleneck.
    """
    gen = os.path.join(bin_dir, "tools", "takotracegen")
    sim = os.path.join(bin_dir, "tools", "takosim")
    trace = os.path.join(bin_dir, "perf_smoke_trace.takotrace")
    records = 50_000 if quick else 500_000

    start = time.monotonic()
    subprocess.run(
        [gen, "--kind=kv", f"--records={records}", "--tenants=16",
         f"--out={trace}"],
        check=True, stderr=subprocess.DEVNULL)
    encode_sec = time.monotonic() - start

    start = time.monotonic()
    subprocess.run([gen, f"--dump={trace}"], check=True,
                   stdout=subprocess.DEVNULL)
    decode_sec = time.monotonic() - start

    stats = os.path.join(bin_dir, "perf_smoke_trace_stats.json")
    start = time.monotonic()
    subprocess.run(
        [sim, f"--trace={trace}", f"--stats-json={stats}"],
        check=True, stdout=subprocess.DEVNULL)
    replay_sec = time.monotonic() - start

    return {
        "kind": "kv",
        "records": records,
        "file_bytes": os.path.getsize(trace),
        "encode_records_per_sec":
            records / encode_sec if encode_sec > 0 else 0.0,
        "decode_records_per_sec":
            records / decode_sec if decode_sec > 0 else 0.0,
        "replay_records_per_sec":
            records / replay_sec if replay_sec > 0 else 0.0,
    }


def run_lint_cold(bin_dir):
    """Wall-time one cold takolint run over src/ (all ten rules, full
    cross-file symbol index). Informational — no gate; the artifact
    gives the analyzer's cost a per-commit trajectory so a quadratic
    slip in the flow pass shows up as a trend, not a CI timeout.
    Returns None when the binary isn't in this build (e.g. --quick
    bench-only trees).
    """
    exe = os.path.join(bin_dir, "tools", "takolint", "takolint")
    if not os.path.exists(exe):
        return None
    start = time.monotonic()
    proc = subprocess.run([exe, "src"], capture_output=True, text=True)
    wall = time.monotonic() - start
    files = 0
    for tok in proc.stdout.split():
        if tok.isdigit():
            files = int(tok)
            break
    return {
        "wall_sec": wall,
        "files_scanned": files,
        "files_per_sec": files / wall if wall > 0 else 0.0,
        "exit_code": proc.returncode,
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--bin-dir", default="build")
    ap.add_argument("--out", default="BENCH_perf.json")
    ap.add_argument("--quick", action="store_true",
                    help="short benchmark reps and trace-codec run "
                    "(the takosim runs keep their size)")
    ap.add_argument("--allow-untrusted", action="store_true",
                    help="emit an artifact even from a non-Release "
                    "build or a -dirty tree, tagged untrusted and with "
                    "every perf gate skipped")
    args = ap.parse_args()

    context, benches = run_microbench(args.bin_dir, args.quick)
    takosim, prof_path = run_takosim(args.bin_dir)

    problems = trust_problems(takosim["build_type"], takosim["git_rev"])
    if problems and not args.allow_untrusted:
        for p in problems:
            print(f"perf_smoke: REFUSED: {p}", file=sys.stderr)
        print("perf_smoke: perf numbers from such a build are not "
              "comparable; rebuild with -DCMAKE_BUILD_TYPE=Release on "
              "a clean commit, or pass --allow-untrusted to emit a "
              "tagged artifact with the gates skipped", file=sys.stderr)
        return 1

    shard = run_shard_ensemble(args.bin_dir)
    single = run_shard_single(args.bin_dir)
    trace = run_trace_codec(args.bin_dir, args.quick)
    lint = run_lint_cold(args.bin_dir)

    new = benches.get("BM_EventQueueSchedule", {}).get("items_per_second", 0)
    old = benches.get("BM_EventQueueScheduleLegacy", {}) \
                 .get("items_per_second", 0)
    speedup = new / old if old else 0.0

    report = {
        "schema": "takoperf-v1",
        "git_rev": takosim["git_rev"],
        "host": {
            "cpu": context.get("host_name", ""),
            "num_cpus": context.get("num_cpus", 0),
            "mhz_per_cpu": context.get("mhz_per_cpu", 0),
            "build_type": takosim["build_type"],
        },
        "benchmarks": benches,
        "event_queue_speedup_vs_legacy": speedup,
        "takosim": takosim,
        "shard_ensemble": shard,
        "shard_single_run": single,
        "trace_codec": trace,
    }
    if lint is not None:
        report["lint_cold_run"] = lint
    if problems:
        report["untrusted"] = True
        report["untrusted_reasons"] = problems
    with open(args.out, "w") as f:
        json.dump(report, f, indent=2)
        f.write("\n")

    print(f"perf_smoke: schedule/fire {new / 1e6:.1f} M/s "
          f"(legacy {old / 1e6:.1f} M/s, {speedup:.1f}x), "
          f"takosim {takosim['events_per_sec'] / 1e6:.2f} M events/s "
          f"-> {args.out}")
    if os.path.exists(prof_path):
        print(f"perf_smoke: profiled run wrote {prof_path}")
    print(f"perf_smoke: shard ensemble 4x16-tile replicas, median of "
          f"{shard['pairs']} pairs: "
          f"{shard['wall_sec_shards1']:.2f}s at 1 lane, "
          f"{shard['wall_sec_shards4']:.2f}s at 4 lanes "
          f"({shard['speedup']:.2f}x, IQR {shard['speedup_q1']:.2f}-"
          f"{shard['speedup_q3']:.2f}x, {shard['host_cpus']} host CPUs)")
    print(f"perf_smoke: single 16-tile run, median of "
          f"{single['pairs']} pairs: "
          f"{single['wall_sec_shards1']:.2f}s at --shards=1, "
          f"{single['wall_sec_shards4']:.2f}s at --shards=4 "
          f"({single['speedup']:.2f}x, IQR {single['speedup_q1']:.2f}-"
          f"{single['speedup_q3']:.2f}x, {single['host_cpus']} host CPUs)")
    print(f"perf_smoke: trace codec ({trace['records']} kv records) "
          f"encode {trace['encode_records_per_sec'] / 1e6:.1f} M/s, "
          f"decode {trace['decode_records_per_sec'] / 1e6:.1f} M/s, "
          f"replay {trace['replay_records_per_sec'] / 1e3:.0f} K/s")
    if lint is not None:
        print(f"perf_smoke: takolint cold run over src/ "
              f"{lint['wall_sec']:.2f}s ({lint['files_scanned']} files, "
              f"{lint['files_per_sec']:.0f} files/s)")
    if problems:
        for p in problems:
            print(f"perf_smoke: UNTRUSTED: {p}", file=sys.stderr)
        print(f"perf_smoke: artifact {args.out} tagged untrusted; perf "
              f"gates skipped", file=sys.stderr)
        return 0
    if speedup < MIN_SPEEDUP:
        print(f"perf_smoke: FAIL: event-queue speedup {speedup:.2f}x "
              f"< required {MIN_SPEEDUP}x", file=sys.stderr)
        return 1
    if shard["host_cpus"] >= 4 and shard["speedup"] < MIN_SHARD_SPEEDUP:
        print(f"perf_smoke: FAIL: shard-ensemble median speedup "
              f"{shard['speedup']:.2f}x < required {MIN_SHARD_SPEEDUP}x "
              f"on a {shard['host_cpus']}-CPU host", file=sys.stderr)
        return 1
    if (single["host_cpus"] >= 4
            and single["speedup"] < MIN_SINGLE_RUN_SPEEDUP):
        print(f"perf_smoke: FAIL: single-run shard median speedup "
              f"{single['speedup']:.2f}x < required "
              f"{MIN_SINGLE_RUN_SPEEDUP}x "
              f"on a {single['host_cpus']}-CPU host", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
