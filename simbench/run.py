#!/usr/bin/env python3
"""tako-sim benchmark: host cost of 16-tile simulator runs.

    python3 simbench/run.py --workload phi-push --seed 1 --seconds 40 --trace 0

Run from the root of a tako-sim checkout. Builds takosim and the
benchmark's probe (Release, in .bench_build/), generates the workload's
inputs from --seed, then runs the workload as separate takosim processes,
one at a time, for --seconds. It reports the median process's host
times and memory (see README.md, "Noise"). Every run's simulated output
is checked (see README.md). The last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"}; --trace 0 gives the
end-to-end metrics, --trace 1 the per-layer ones (counts from the run's
--stats-json, host cost from a separately traced probe run).

    --out FILE          also write the full result, with provenance and
                        every run's raw values, for compare.py
    --record-reference  store this seed's simulated counters as the
                        reference (only at the default seed)
"""

import argparse
import hashlib
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
DEFAULT_SEED = 1
SHARDS = 4
PROCESS_TIMEOUT_S = 60      # one workload process takes about 1 s
BUILD_TARGETS = ["takosim", "simbench_probe"]

# name -> takosim flags (besides --seed and the generated input).
WORKLOADS = {
    "phi-push": ["--workload=phi", "--variant=tako", "--vertices=16384"],
    "kv-replay": [],
    "phi-sharded": ["--workload=phi", "--variant=tako", "--vertices=16384"],
}

# Units of every metric the benchmark can print; None-valued (absent)
# metrics are dropped before printing.
END_TO_END = {
    "sim_s": "s",
    "wall_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "sim_kips": "kinstr/s",
    "ok_frac": "fraction",
}
PER_LAYER = {
    "sim.events": "events",
    "sim.ns_per_event": "ns",
    "sim.schedule_fire_ns": "ns",
    "sim.shard_rounds": "rounds",
    "sim.shard_cross_msgs": "events",
    "sim.events_per_round": "events",
    "sim.shard_load_imbalance": "ratio",
    "sim.barrier_wait_s": "s",
    "sim.share_est": "fraction",
    "mem.l1_accesses": "accesses",
    "mem.l1_hit_ratio": "ratio",
    "mem.l2_misses": "accesses",
    "mem.l3_misses": "accesses",
    "mem.dram_reads": "accesses",
    "mem.dram_writes": "accesses",
    "mem.invalidations": "events",
    "mem.rmo_ops": "ops",
    "mem.prefetches": "lines",
    "mem.cache_lookup_ns": "ns",
    "mem.victim_fill_ns": "ns",
    "mem.share_est": "fraction",
    "noc.messages": "messages",
    "noc.flit_hops": "flit-hops",
    "noc.traverse_ns": "ns",
    "noc.share_est": "fraction",
    "core.instrs": "instrs",
    "core.mispredicts": "count",
    "tako.callbacks": "callbacks",
    "tako.engine_instrs": "instrs",
    "tako.rtlb_hit_ratio": "ratio",
    "morphs.phi_inplace_lines": "lines",
    "morphs.phi_binned_updates": "updates",
    "trace.records": "records",
    "trace.line_ops": "accesses",
    "trace.write_frac": "fraction",
    "trace.decode_ns": "ns",
    "trace.share_est": "fraction",
    "system.build_s": "s",
    "workloads.graph_build_s": "s",
    "simbench.trace_overhead_s": "s",
}
# Per-layer metrics some workload cannot define (a ratio whose base is
# zero there, or a probe of a layer it never enters). They print in the
# table when defined but stay out of the result line, which carries
# exactly the metrics BENCHMARK.json lists.
CONDITIONAL = {
    "sim.events_per_round",    # no quantum rounds when monolithic
    "sim.barrier_wait_s",      # (and no barriers: a constant 0 s)
    "tako.rtlb_hit_ratio",     # no engine on kv-replay
    "trace.write_frac",        # no trace on the phi workloads
    "trace.decode_ns",
    "trace.share_est",
    "workloads.graph_build_s",  # no graph on kv-replay
}


class BenchError(Exception):
    """A set-up failure: no result is printed and the exit code is 2."""


def log(msg):
    print(f"simbench: {msg}", file=sys.stderr, flush=True)


def ratio(num, den):
    """num / den, or None (reported absent) when the base is zero."""
    if not den:
        return None
    value = num / den
    return value if math.isfinite(value) else None


def median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


# ---------------------------------------------------------------- build

def nproc():
    return len(os.sched_getaffinity(0))


def build(root, bdir):
    """Configure (once) and build takosim + simbench_probe, Release."""
    for need in ("CMakeLists.txt", "src", "tools/takosim.cc"):
        if not (root / need).exists():
            raise BenchError(f"{root} is not a tako-sim checkout "
                             f"(missing {need})")
    bdir.mkdir(parents=True, exist_ok=True)
    blog = bdir / "build.log"
    with open(blog, "w") as out:
        if not (bdir / "CMakeCache.txt").exists():
            cmd = ["cmake", "-S", str(root), "-B", str(bdir),
                   "-DCMAKE_BUILD_TYPE=Release",
                   f"-DCMAKE_PROJECT_INCLUDE={HERE / 'simbench.cmake'}"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.call(cmd, stdout=out, stderr=out) != 0:
                (bdir / "CMakeCache.txt").unlink(missing_ok=True)
                raise BenchError(f"cmake configure failed; see {blog}")
        cmd = ["cmake", "--build", str(bdir), "-j", str(nproc()),
               "--target"] + BUILD_TARGETS
        if subprocess.call(cmd, stdout=out, stderr=out) != 0:
            raise BenchError(f"build failed; see {blog}")
    return bdir / "tools" / "takosim", bdir / "simbench_probe"


def provenance(bdir, takosim):
    """Build type/flags, compiler, git rev (+dirty), nproc, CPU model."""
    cache = {}
    for line in (bdir / "CMakeCache.txt").read_text().splitlines():
        m = re.match(r"^(CMAKE_BUILD_TYPE|CMAKE_CXX_COMPILER):\w+=(.*)$",
                     line)
        if m:
            cache[m.group(1)] = m.group(2)
    flags = ""
    for entry in json.loads((bdir / "compile_commands.json").read_text()):
        if entry["file"].endswith("tools/takosim.cc"):
            flags = " ".join(t for t in entry["command"].split()[1:]
                             if t.startswith("-") and
                             not t.startswith(("-I", "-o", "-c")))
    version = "unknown"
    for f in (bdir / "CMakeFiles").glob("*/CMakeCXXCompiler.cmake"):
        m = re.search(r'CMAKE_CXX_COMPILER_VERSION "([^"]*)"',
                      f.read_text())
        if m:
            version = m.group(1)
    rev = subprocess.run([str(takosim), "--version"], capture_output=True,
                         text=True).stdout.split()
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "build_type": cache.get("CMAKE_BUILD_TYPE", ""),
        "cxx_flags": flags,
        "compiler": f"{cache.get('CMAKE_CXX_COMPILER', '')} {version}",
        "git_rev": rev[1] if len(rev) > 1 else "unknown",
        "nproc": nproc(),
        "cpu_model": cpu,
    }


# ---------------------------------------------------------------- runs

def run_process(cmd, out_path):
    """Run @p cmd to completion; wall time and this child's rusage. A
    process still running after PROCESS_TIMEOUT_S is killed (and then
    fails its checks), so a hung simulator cannot hang the benchmark."""
    with open(out_path, "w") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.STDOUT)
        watchdog = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
        watchdog.start()
        _, status, ru = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "rc": proc.returncode,
        "wall_s": wall,
        "cpu_s": ru.ru_utime + ru.ru_stime,
        "peak_rss_mb": ru.ru_maxrss / 1024.0,
    }


def load_stats(path):
    """(counters, histograms) from a --stats-json file; raises on junk."""
    doc = json.loads(Path(path).read_text())
    counters = {k: v["value"] for k, v in doc["counters"].items()}
    if not isinstance(counters.get("host.seconds"), (int, float)):
        raise ValueError("no host.seconds counter")
    return counters, doc.get("histograms", {})


def simulated(counters, histograms):
    """The run's simulated output: every counter and histogram except
    host-timing (host.*) and executor-topology (shard.*) ones."""
    keep = lambda k: not k.startswith(("host.", "shard."))
    return ({k: v for k, v in counters.items() if keep(k)},
            {k: v for k, v in histograms.items() if keep(k)})


def digest(obj):
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True).encode()).hexdigest()


def parse_report(text):
    """takosim's human report lines 'name : value' -> {name: float}."""
    out = {}
    for line in text.splitlines():
        m = re.match(r"^([A-Za-z][\w.]*)\s*:\s*(-?[0-9.]+(?:e[-+]?\d+)?)$",
                     line.strip())
        if m:
            out[m.group(1)] = float(m.group(2))
    return out


def changed(a, b):
    """First few counters that differ between @p a and @p b."""
    keys = sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))
    return ", ".join(keys[:5]) or "histograms"


class Bench:
    def __init__(self, args, takosim, probe, work):
        self.args = args
        self.takosim = takosim
        self.probe = probe
        self.work = work
        self.shards = min(SHARDS, nproc())
        self.inputs = {}
        self.expect = None        # simulated output every run must match
        self.expect_why = ""
        self.ref = None           # stored reference, at the default seed
        if args.seed == DEFAULT_SEED and REFERENCE.exists():
            self.ref = json.loads(REFERENCE.read_text()).get(args.workload)
        self.reps = []            # untraced runs
        self.traced = []          # traced probe runs

    # -- inputs --------------------------------------------------------
    def make_inputs(self):
        """Generate the workload's inputs from the seed; timed apart from
        the workload (input_gen_s in --out), never as its set-up."""
        seed = self.args.seed
        t0 = time.perf_counter()
        if self.args.workload == "kv-replay":
            path = self.work / f"kv-{seed}.takotrace"
            res = subprocess.run([str(self.probe), "gen-kv", f"--seed={seed}",
                                  f"--out={path}"], capture_output=True,
                                 text=True)
            if res.returncode != 0:
                raise BenchError(f"kv trace generation failed: "
                                 f"{res.stderr.strip()}")
            self.inputs = {"trace": path, "emitted": json.loads(res.stdout)}
        self.input_gen_s = time.perf_counter() - t0

    def takosim_cmd(self, stats_path, workload=None):
        workload = workload or self.args.workload
        cmd = [str(self.takosim), f"--seed={self.args.seed}",
               f"--stats-json={stats_path}"]
        if workload == "kv-replay":
            cmd.append(f"--trace={self.inputs['trace']}")
        cmd += WORKLOADS[workload]
        if workload == "phi-sharded":
            cmd.append(f"--shards={self.shards}")
        return cmd

    def set_expectation(self):
        """For phi-sharded, every run's simulated output must equal
        phi-push's at the same seed: run that once here, untimed. Other
        workloads compare against their own first run (see check())."""
        if self.args.workload == "phi-sharded":
            stats = self.work / "phi-push.json"
            res = run_process(self.takosim_cmd(stats, "phi-push"),
                              self.work / "phi-push.out")
            try:
                if res["rc"] != 0:
                    raise ValueError(f"exit code {res['rc']}")
                self.expect = simulated(*load_stats(stats))
                self.expect_why = "phi-push at the same seed"
            except (OSError, ValueError, KeyError, TypeError) as e:
                raise BenchError(f"phi-push companion run failed: {e}")

    # -- checks --------------------------------------------------------
    def check(self, res, stats_path, report):
        """(failed output checks, counters, simulated output) for one
        run; no failed check means the run is correct."""
        fails = []
        if res["rc"] != 0:
            fails.append(f"exit code {res['rc']}")
        try:
            counters, hists = load_stats(stats_path)
        except (OSError, ValueError, KeyError, TypeError) as e:
            return fails + [f"stats file unusable: {e}"], None, None
        sim_c, sim_h = simulated(counters, hists)
        wl = self.args.workload
        if wl in ("phi-push", "phi-sharded"):
            if report.get("correct") != 1:
                fails.append("PageRank accumulators differ from the host "
                             "reference (correct != 1)")
        else:
            emitted = self.inputs["emitted"]
            for key, stat in (("records", "trace.records"),
                              ("line_ops", "trace.line_ops"),
                              ("writes", "trace.writes")):
                if counters.get(stat) != emitted[key]:
                    fails.append(f"{stat}={counters.get(stat)} but the "
                                 f"generator emitted {emitted[key]}")
        if self.expect is None:
            self.expect = (sim_c, sim_h)
            self.expect_why = "the first run at this seed"
        elif (sim_c, sim_h) != self.expect:
            fails.append(f"simulated output differs from {self.expect_why}"
                         f": {changed(sim_c, self.expect[0])}")
        if self.ref is not None and (
                self.ref["counters"] != sim_c or
                self.ref["histograms_sha256"] != digest(sim_h)):
            fails.append(f"simulated output differs from the stored "
                         f"reference: {changed(sim_c, self.ref['counters'])}")
        return fails, counters, (sim_c, sim_h)

    def run_untraced(self):
        n = len(self.reps)
        stats = self.work / f"untraced-{n}.json"
        out = self.work / f"untraced-{n}.out"
        stats.unlink(missing_ok=True)
        res = run_process(self.takosim_cmd(stats), out)
        report = parse_report(out.read_text(errors="replace"))
        fails, counters, sim = self.check(res, stats, report)
        rep = dict(res, fails=fails, counters=counters, sim=sim,
                   report=report)
        if counters:
            sim_s = counters["host.seconds"]
            rep.update(sim_s=sim_s, setup_s=res["wall_s"] - sim_s,
                       instrs=counters.get("core.instrs", 0) +
                       counters.get("engine.instrs", 0))
        self.reps.append(rep)
        return rep

    def run_traced(self):
        n = len(self.traced)
        stats = self.work / f"traced-{n}.json"
        spans = self.work / f"spans-{n}.json"
        out = self.work / f"traced-{n}.out"
        for p in (stats, spans):
            p.unlink(missing_ok=True)
        cmd = [str(self.probe), "traced", f"--workload={self.args.workload}",
               f"--seed={self.args.seed}", f"--stats-json={stats}",
               f"--spans={spans}"]
        if self.args.workload == "kv-replay":
            cmd.append(f"--trace={self.inputs['trace']}")
        if self.args.workload == "phi-sharded":
            cmd.append(f"--shards={self.shards}")
        res = run_process(cmd, out)
        doc_fail = []
        try:
            doc = json.loads(spans.read_text())
            report = {k: float(v) for k, v in doc["extra"].items()}
            float(sum(doc["probes"].values()))
        except (OSError, ValueError, KeyError, TypeError,
                AttributeError) as e:
            doc, report = None, {}
            doc_fail = [f"spans file unusable: {e}"]
        # The traced run must reproduce the untraced runs' simulated
        # output exactly (self.expect): tracing is observational.
        fails, counters, _ = self.check(res, stats, report)
        rep = dict(res, fails=fails + doc_fail, counters=counters)
        if doc:
            spans = {s["name"]: (s["end_ns"] - s["start_ns"]) * 1e-9
                     for s in doc["spans"]}
            rep["probes"] = doc["probes"]
            rep["spans_s"] = spans
            # Tracing overhead compares like with like: the traced
            # process minus the probe phase it adds after the workload.
            rep["wall_s_no_probes"] = res["wall_s"] - spans.get("probes", 0)
        self.traced.append(rep)
        return rep

    # -- run loop ------------------------------------------------------
    def run(self):
        self.make_inputs()
        self.set_expectation()
        # Start another round only while it should end before the
        # deadline, so a run lasts about --seconds whatever a round takes.
        deadline = time.perf_counter() + self.args.seconds
        while True:
            t0 = time.perf_counter()
            self.run_untraced()
            if self.args.trace:
                self.run_traced()
            now = time.perf_counter()
            if now + (now - t0) > deadline:
                break

    def all_runs(self):
        return self.reps + self.traced

    def end_to_end(self):
        good = [r for r in self.reps if r.get("counters")]
        runs = self.all_runs()
        sim_s = median(r["sim_s"] for r in good)
        instrs = good[0]["instrs"] if good else 0
        return {
            "sim_s": sim_s,
            "wall_s": median(r["wall_s"] for r in self.reps),
            "setup_s": median(r["setup_s"] for r in good),
            "cpu_s": median(r["cpu_s"] for r in self.reps),
            "peak_rss_mb": median(r["peak_rss_mb"] for r in self.reps),
            "sim_kips": None if sim_s is None else ratio(instrs / 1e3, sim_s),
            "ok_frac": ratio(sum(not r["fails"] for r in runs), len(runs)),
        }

    def per_layer(self):
        good = [r for r in self.reps if r.get("counters")]
        traced = [r for r in self.traced if r.get("probes")]
        if not good:
            return {}, {}
        c = good[0]["counters"]
        report = good[0]["report"]
        get = lambda k: c.get(k, 0)
        sim_s = median(r["sim_s"] for r in good)
        probe = lambda k: median(r["probes"].get(k) for r in traced)

        events = get("host.sim_events")
        l1 = get("l1.hits") + get("l1.misses")
        l2 = get("l2.hits") + get("l2.misses")
        l3 = get("l3.hits") + get("l3.misses")
        fills = get("l1.misses") + get("l2.misses") + get("l3.misses")
        rtlb = get("engine.rtlb.hits") + get("engine.rtlb.misses")
        callbacks = sum(v for k, v in c.items() if k.startswith("engine.cb."))

        def share(ns, count):
            return None if ns is None else ratio(ns * count * 1e-9, sim_s)

        m = {
            "sim.events": events,
            "sim.ns_per_event": ratio(sim_s * 1e9, events),
            "sim.schedule_fire_ns": probe("sim.schedule_fire_ns"),
            "sim.shard_rounds": get("shard.rounds"),
            "sim.shard_cross_msgs": get("shard.cross_msgs"),
            "sim.events_per_round": ratio(events, get("shard.rounds")),
            "sim.shard_load_imbalance": get("shard.load_imbalance"),
            "sim.barrier_wait_s": None if not get("shard.rounds") else median(
                r["counters"].get("host.shard.barrier_wait_seconds")
                for r in good),
            "sim.share_est": share(probe("sim.schedule_fire_ns"), events),
            "mem.l1_accesses": l1,
            "mem.l1_hit_ratio": ratio(get("l1.hits"), l1),
            "mem.l2_misses": get("l2.misses"),
            "mem.l3_misses": get("l3.misses"),
            "mem.dram_reads": get("dram.reads"),
            "mem.dram_writes": get("dram.writes"),
            "mem.invalidations": get("coherence.invalidations"),
            "mem.rmo_ops": get("rmo.ops"),
            "mem.prefetches": get("prefetch.issued"),
            "mem.cache_lookup_ns": probe("mem.cache_lookup_ns"),
            "mem.victim_fill_ns": probe("mem.victim_fill_ns"),
            "noc.messages": get("noc.messages"),
            "noc.flit_hops": get("noc.flitHops"),
            "noc.traverse_ns": probe("noc.traverse_ns"),
            "core.instrs": get("core.instrs"),
            "core.mispredicts": get("core.mispredicts"),
            "tako.callbacks": callbacks,
            "tako.engine_instrs": get("engine.instrs"),
            "tako.rtlb_hit_ratio": ratio(get("engine.rtlb.hits"), rtlb),
            "morphs.phi_inplace_lines": report.get("inPlaceLines", 0),
            "morphs.phi_binned_updates": report.get("binnedUpdates", 0),
            "trace.records": get("trace.records"),
            "trace.line_ops": get("trace.line_ops"),
            "trace.write_frac": ratio(get("trace.writes"),
                                      get("trace.line_ops")),
            "trace.decode_ns": probe("trace.decode_ns"),
            "system.build_s": probe("system.build_s"),
            "workloads.graph_build_s": probe("workloads.graph_build_s"),
        }
        lookup_ns, fill_ns = m["mem.cache_lookup_ns"], m["mem.victim_fill_ns"]
        m["mem.share_est"] = (
            None if lookup_ns is None or fill_ns is None else
            ratio((lookup_ns * (l1 + l2 + l3) + fill_ns * fills) * 1e-9,
                  sim_s))
        m["noc.share_est"] = share(m["noc.traverse_ns"], get("noc.messages"))
        m["trace.share_est"] = (share(m["trace.decode_ns"],
                                      get("trace.records"))
                                if get("trace.records") else None)
        untraced_wall = median(r["wall_s"] for r in self.reps)
        traced_wall = median(r.get("wall_s_no_probes") for r in traced)
        m["simbench.trace_overhead_s"] = (
            None if traced_wall is None else traced_wall - untraced_wall)
        bases = {
            "sim.share_est": f"{m['sim.schedule_fire_ns']} ns x {events} "
                             f"events / sim_s {sim_s} s",
            "mem.share_est": f"({lookup_ns} ns x {l1 + l2 + l3} lookups + "
                             f"{fill_ns} ns x {fills} fills) / sim_s "
                             f"{sim_s} s",
            "noc.share_est": f"{m['noc.traverse_ns']} ns x "
                             f"{get('noc.messages')} messages / sim_s "
                             f"{sim_s} s",
            "trace.share_est": f"{m['trace.decode_ns']} ns x "
                               f"{get('trace.records')} records / sim_s "
                               f"{sim_s} s",
            "simbench.trace_overhead_s": f"traced wall {traced_wall} s "
                                        f"(probes excluded) - untraced wall "
                                        f"{untraced_wall} s",
        }
        return m, bases


def with_units(values, units):
    """{name: {"value", "unit"}} for every defined metric; a metric whose
    value is None (zero base, no probe) is absent, never NaN or inf."""
    out = {}
    for name, value in values.items():
        if value is None or not math.isfinite(value):
            continue
        out[name] = {"value": value, "unit": units[name]}
    return out


def record_reference(bench):
    if bench.args.seed != DEFAULT_SEED:
        raise BenchError(f"the reference is recorded at seed {DEFAULT_SEED}")
    good = [r for r in bench.reps if r.get("counters") and not r["fails"]]
    if not good:
        raise BenchError("no correct run to record")
    sim_c, sim_h = good[0]["sim"]
    ref = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    ref[bench.args.workload] = {"counters": sim_c,
                                "histograms_sha256": digest(sim_h)}
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    log(f"recorded reference for {bench.args.workload} at seed "
        f"{DEFAULT_SEED}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    ap.add_argument("--record-reference", action="store_true")
    args = ap.parse_args(argv)

    root = Path.cwd()
    bdir = root / ".bench_build" / "tako"
    try:
        takosim, probe = build(root, bdir)
        prov = provenance(bdir, takosim)
        work = Path(tempfile.mkdtemp(prefix="run-",
                                     dir=root / ".bench_build"))
        try:
            bench = Bench(args, takosim, probe, work)
            bench.run()
            if args.record_reference:
                record_reference(bench)
            e2e = bench.end_to_end()
            layers, bases = bench.per_layer() if args.trace else ({}, {})
        finally:
            shutil.rmtree(work, ignore_errors=True)
    except BenchError as e:
        log(str(e))
        return 2

    runs = bench.all_runs()
    failed = sum(bool(r["fails"]) for r in runs)
    for i, r in enumerate(runs):
        for why in r["fails"]:
            log(f"run {i} failed: {why}")
    if args.trace:
        shown = with_units({k: v for k, v in layers.items()
                            if k not in CONDITIONAL}, PER_LAYER)
    else:
        shown = with_units(e2e, END_TO_END)
    if not shown:
        log("no run produced usable output")
        return 1

    print(f"workload {args.workload}  seed {args.seed}  "
          f"runs {len(bench.reps)} untraced, {len(bench.traced)} traced  "
          f"failed {failed}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    for name, mv in sorted(with_units(e2e, END_TO_END).items()):
        print(f"  {name:28s} {mv['value']:>16.6g} {mv['unit']}")
    for name in sorted(layers):
        mv = with_units({name: layers[name]}, PER_LAYER).get(name)
        text = (f"{mv['value']:>16.6g} {mv['unit']}" if mv else
                f"{'absent':>16s} ({PER_LAYER[name]}: zero base or no "
                f"probe on this workload)")
        base = f"   = {bases[name]}" if name in bases and mv else ""
        print(f"  {name:28s} {text}{base}")

    if args.out:
        Path(args.out).write_text(json.dumps({
            "workload": args.workload, "seed": args.seed,
            "trace": args.trace, "provenance": prov,
            "input_gen_s": bench.input_gen_s,
            "end_to_end": with_units(e2e, END_TO_END),
            "per_layer": with_units(layers, PER_LAYER),
            "runs": [{k: v for k, v in r.items()
                      if k not in ("counters", "doc", "report")}
                     for r in runs],
        }, indent=1, sort_keys=True) + "\n")

    print(json.dumps({"correct": failed == 0, "attempted": len(runs),
                      "failed": failed, "metrics": shown}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
