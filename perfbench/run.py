#!/usr/bin/env python3
"""The srna benchmark: two gated workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload table2_pair --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload routed_hits --steadiness 5

Builds the repository (Release) and this directory's probe into the build
directory ($CARGO_TARGET_DIR, default .bench_build), runs one workload, checks
every answer, and prints one JSON object as the last line of stdout:
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones; the traced run also drives
the search_mix serving leg, which is not a gated workload. README.md explains
the workloads, the metrics and what each layer metric should move.
"""

import argparse
import http.client
import json
import os
import hashlib
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
WORKLOADS = ("table2_pair", "routed_hits")

NPROC = os.cpu_count() or 1
THREADS = max(1, NPROC // 2)      # T: prna threads for timed solves
CONNECTIONS = min(2, NPROC)       # client connections, pipelined
SEARCH_WORKERS = 2                # srna-serve --workers on search_mix
SHARD_WORKERS = 1                 # each routed shard's --workers
SHARDS = 2
# Open-loop rates, fixed so parent and change see identical load: about 0.3
# of the search_mix saturation and 0.03 of the routed_hits saturation
# measured on the seed commit (about 200 and 30000 req/s on 4 vCPUs). Higher
# rates made the runs unsteady; README.md gives the reasons.
SEARCH_RATE = 60.0
ROUTED_RATE = 1000.0
SEARCH_OUTSTANDING = 8            # closed-loop requests in flight
ROUTED_OUTSTANDING = 32
CHURN_EVERY = 1024                 # routed_hits: connection 1 reconnects
SETUP_REPEATS = 5                 # serving set-ups per run; median reported
MAX_LATE_P99_MS = 25.0            # open loop invalid beyond this lateness
MAX_THREADS_LADDER = 4            # parallel.speedup_t1 .. _t4 on every host
TRACED_LEG_S = 20.0               # serving legs of a traced run

E2E = {  # name: unit
    "setup_s": "s", "solve_s": "s", "par_solve_s": "s", "rps": "req/s",
    "p50_ms": "ms", "heavy_p50_ms": "ms", "ok_ratio": "ratio", "peak_rss_mb": "MB",
}
LAYER = {
    "rna.parse_us": "us", "rna.pair_digest_us": "us",
    "core.kernel_ns_per_cell": "ns", "core.kernel_sample_cells": "count",
    "core.cells": "count", "core.slices": "count", "core.events": "count",
    "core.preprocess_s": "s", "core.stage1_s": "s", "core.stage2_s": "s",
    "core.srna2_cpu_s": "s", "core.small_solve_ms": "ms",
    "parallel.prna_t1_s": "s", "parallel.steal_t1_s": "s", "parallel.steal_tN_s": "s",
    "parallel.barrier_wait_s": "s", "parallel.steal_idle_s": "s",
    **{f"parallel.speedup_t{t}": "x" for t in range(1, MAX_THREADS_LADDER + 1)},
    "engine.dispatch_us": "us",
    "serve.parse_request_us": "us", "serve.cache_get_us": "us", "serve.inproc_hit_us": "us",
    "serve.direct_hit_p50_us": "us", "serve.queued_p50_ms": "ms", "serve.queued_p99_ms": "ms",
    "serve.solve_p50_ms": "ms", "serve.cache_hit_ratio": "ratio",
    "serve.coalesced_ratio": "ratio", "serve.ok_responses": "count",
    "serve.rss_kb_per_conn": "kB", "serve.threads_after_churn": "count",
    "dist.ring_owners_ns": "ns", "dist.router_hop_us": "us", "dist.routed_p99_ms": "ms",
    "dist.routed_halt_p50_ms": "ms", "dist.attempts_per_req": "count",
    "obs.trace_overhead_pct": "%",
    "loadgen.late_p99_ms": "ms", "loadgen.sent": "count", "loadgen.failed": "count",
}
# Layer metrics no run can take from outside the running processes.
NOT_MEASURED = {
    "router phases": "the running router's own parse / ring / forward split is not "
                     "exposed; rna.parse_us, rna.pair_digest_us and dist.ring_owners_ns "
                     "time the same library calls in process, dist.router_hop_us the sum",
}


class BenchError(Exception):
    pass


def log(*parts):
    print("[perfbench]", *parts, file=sys.stderr, flush=True)


# ---- spans (the orchestrator's own) -------------------------------------------

SPANS = []


class span:
    """Records [enter, exit) on the CLOCK_MONOTONIC timeline the probe uses."""

    def __init__(self, name, cat="bench"):
        self.name, self.cat = name, cat

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, *exc):
        SPANS.append({"name": self.name, "cat": self.cat, "ph": "X", "pid": 0, "tid": 0,
                      "ts": self.t0 * 1e6, "dur": (time.monotonic() - self.t0) * 1e6})


# ---- build -----------------------------------------------------------------

def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def cmake_cache(bdir):
    cache = {}
    with open(os.path.join(bdir, "CMakeCache.txt")) as f:
        for line in f:
            m = re.match(r"^([A-Za-z0-9_]+):[A-Z]+=(.*)$", line.strip())
            if m:
                cache[m.group(1)] = m.group(2)
    return cache


def build(bdir):
    """Configures (Release) and builds the probe, srna-serve and srna-router."""
    for need in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.exists(os.path.join(ROOT, need)):
            raise BenchError(f"no srna sources: {need} is missing")
    os.makedirs(bdir, exist_ok=True)
    logf = os.path.join(bdir, "build.log")
    with open(logf, "a") as out, span("build"):
        if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release", *gen]
            if subprocess.run(cmd, stdout=out, stderr=out).returncode != 0:
                raise BenchError(f"configure failed (see {logf})")
        cmd = ["cmake", "--build", bdir, "-j", str(NPROC), "--target",
               "perfbench-probe", "srna-serve", "srna-router"]
        if subprocess.run(cmd, stdout=out, stderr=out).returncode != 0:
            raise BenchError(f"build failed (see {logf})")
    cache = cmake_cache(bdir)
    probe = os.path.join(bdir, "perfbench-probe")
    built_as = subprocess.run([probe, "build-type"], capture_output=True, text=True).stdout.strip()
    if cache.get("CMAKE_BUILD_TYPE") != "Release" or built_as != "Release":
        raise BenchError("refusing to measure a non-Release build")
    return cache


def environment(args, cache):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    if cache.get("SRNA_DISABLE_SIMD", "OFF").upper() in ("ON", "1", "TRUE"):
        simd = "scalar"
    elif cache.get("SRNA_HOST_RUNS_AVX512") == "1":
        simd = "avx512f"
    elif cache.get("SRNA_HOST_RUNS_AVX2") == "1":
        simd = "avx2"
    else:
        simd = "sse2"
    commit = "unknown"  # a checkout without .git (or without git) records the digest only
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                               text=True, timeout=10)
            if r.returncode == 0:
                commit = r.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for top in ("src", "tools", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in sorted(files):
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": NPROC, "threads_T": THREADS,
        "search_workers": SEARCH_WORKERS, "shards": SHARDS, "shard_workers": SHARD_WORKERS,
        "connections": CONNECTIONS, "search_rate": SEARCH_RATE, "routed_rate": ROUTED_RATE,
        "search_outstanding": SEARCH_OUTSTANDING, "routed_outstanding": ROUTED_OUTSTANDING,
        "cpu": cpu, "simd": simd, "build_type": cache.get("CMAKE_BUILD_TYPE"),
        "git_commit": commit, "source_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
    }


# ---- processes ---------------------------------------------------------------

class Fleet:
    """One process under test (srna-serve, or srna-router with the shards it
    spawns); stopped and reaped on every exit path."""

    def __init__(self, bdir, outdir, name):
        self.tools = os.path.join(bdir, "srna", "tools")
        self.log = os.path.join(outdir, f"{name}.log")
        self.status = os.path.join(outdir, f"{name}.status.json")
        self.proc = None
        self.shard_pids = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.stop()

    def _spawn(self, argv):
        with open(self.log, "w") as logf:
            self.proc = subprocess.Popen(argv, stdout=logf, stderr=subprocess.STDOUT,
                                         stdin=subprocess.DEVNULL)
        self.t0 = time.monotonic()

    def serve(self):
        """srna-serve for search_mix; returns (data port, [pid], seconds to ready)."""
        self._spawn([os.path.join(self.tools, "srna-serve"), "--port=0", "--admin-port=0",
                     f"--workers={SEARCH_WORKERS}", "--log-level=warn"])
        while True:
            self._check_alive()
            with open(self.log) as f:
                text = f.read()
            data = re.search(r"listening on [0-9.]+:(\d+)", text)
            admin = re.search(r"admin endpoint on [0-9.]+:(\d+)", text)
            if data and admin:
                break
            time.sleep(0.002)
        self._wait_ready(int(admin.group(1)))
        return int(data.group(1)), [self.proc.pid], time.monotonic() - self.t0

    def router(self):
        """srna-router over SHARDS spawned shards; returns (port, shard data
        ports, pids, seconds to ready)."""
        if os.path.exists(self.status):
            os.unlink(self.status)
        self._spawn([
            os.path.join(self.tools, "srna-router"), "--port=0", "--admin-port=0",
            f"--spawn-shards={SHARDS}", f"--serve-bin={os.path.join(self.tools, 'srna-serve')}",
            f"--shard-arg=--workers={SHARD_WORKERS}", "--shard-arg=--log-level=warn",
            "--log-level=warn", f"--status-file={self.status}"])
        # The router writes its status file once every shard passed /readyz.
        while True:
            self._check_alive()
            try:
                with open(self.status) as f:
                    doc = json.load(f)
                break
            except (OSError, ValueError):
                time.sleep(0.002)
        self.shard_pids = [int(s["pid"]) for s in doc["shards"]]
        self._wait_ready(int(doc["router"]["admin_port"]))
        shard_ports = [int(s["data"].rsplit(":", 1)[1]) for s in doc["shards"]]
        return (int(doc["router"]["port"]), shard_ports, [self.proc.pid] + self.shard_pids,
                time.monotonic() - self.t0)

    def _check_alive(self):
        if self.proc.poll() is not None:
            raise BenchError(f"{self.log}: exited {self.proc.returncode} during start")
        if time.monotonic() - self.t0 > 60:
            raise BenchError(f"{self.log}: not up after 60 s")

    def _wait_ready(self, admin_port):
        while True:
            self._check_alive()
            try:
                conn = http.client.HTTPConnection("127.0.0.1", admin_port, timeout=2)
                try:
                    conn.request("GET", "/readyz")
                    if conn.getresponse().status == 200:
                        return
                finally:
                    conn.close()
            except OSError:
                pass
            time.sleep(0.002)

    def stop(self):
        if self.proc is not None:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        # Shards die with their router (supervisor stop, PDEATHSIG); make sure.
        deadline = time.monotonic() + 5
        for pid in self.shard_pids:
            while pid_alive(pid) and time.monotonic() < deadline:
                time.sleep(0.01)
            if pid_alive(pid):
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass
        self.proc, self.shard_pids = None, []


def pid_alive(pid):
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().split(") ")[-1][:1] not in ("Z", "X")
    except OSError:
        return False


def status_kb(pid, field):
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def probe(bdir, outdir, cmd, args, name, trace):
    argv = [os.path.join(bdir, "perfbench-probe"), cmd]
    for k, v in args.items():
        argv += [f"--{k}", str(v)]
    if trace:
        argv += ["--trace-out", os.path.join(outdir, f"{name}.trace.json")]
    with span(f"probe {cmd}", "probe"):
        r = subprocess.run(argv, capture_output=True, text=True, timeout=170)
    if r.stderr.strip():
        log(f"{name}: {r.stderr.strip()[-2000:]}")
    if r.returncode != 0:
        raise BenchError(f"probe {cmd} exited {r.returncode}")
    lines = [ln for ln in r.stdout.splitlines() if ln.startswith("{")]
    return json.loads(lines[-1])


# ---- workloads -----------------------------------------------------------------

def run_table2(bdir, outdir, seed, seconds):
    r = probe(bdir, outdir, "pair", {"seed": seed, "seconds": seconds, "threads": THREADS,
                                     "data-dir": os.path.join(ROOT, "data")}, "pair", False)
    if seed == 2012 and r["value"] != 596:
        log(f"table2_pair: seed 2012 answered {r['value']}, expected 596")
    solve_ms = r["solve_s"] * 1e3
    # One request here is one srna2 solve of the pair, and every request is
    # the heavy pair, so the median and the heavy median both read solve_s.
    metrics = {"setup_s": r["setup_s"], "solve_s": r["solve_s"],
               "par_solve_s": r["par_solve_s"], "rps": r["solves_per_s"],
               "p50_ms": solve_ms, "heavy_p50_ms": solve_ms,
               "ok_ratio": r["correct"] / r["attempted"],
               "peak_rss_mb": r["peak_rss_kb"] / 1024.0}
    info = {"value": r["value"], "data_check": r["data_check"], "srna2_s": r["srna2_s"],
            "prna_s": r["prna_s"]}
    return metrics, int(r["attempted"]), int(r["attempted"] - r["correct"]), info


def serving_leg(bdir, outdir, workload, seed, seconds, trace, name):
    """One serving workload: SETUP_REPEATS set-ups, the timed load, the check."""
    routed = workload == "routed_hits"
    rate = ROUTED_RATE if routed else SEARCH_RATE
    common = {"workload": workload, "seed": seed, "seconds": seconds, "rate": rate,
              "outstanding": ROUTED_OUTSTANDING if routed else SEARCH_OUTSTANDING,
              "connections": CONNECTIONS, "churn-every": CHURN_EVERY if routed else 0}
    setups = []
    for i in range(SETUP_REPEATS):
        last = i == SETUP_REPEATS - 1
        with Fleet(bdir, outdir, f"{name}-{i}") as fleet:
            with span(f"{workload} spawn+ready"):
                if routed:
                    port, direct, pids, ready_s = fleet.router()
                else:
                    (port, pids, ready_s), direct = fleet.serve(), []
            args = dict(common, port=port, trace=int(trace), **{"warm-only": 0 if last else 1})
            if last:
                args["pids"] = ",".join(map(str, pids))
                if direct:
                    args["direct"] = ",".join(map(str, direct))
            out = probe(bdir, outdir, "load", args, name if last else f"{name}-warm{i}",
                        trace and last)
            setups.append(ready_s + out["warm_s"])
            if last:
                out["peak_rss_kb"] = sum(status_kb(pid, "VmHWM") for pid in pids)
    out["setup_s"] = statistics.median(setups)
    out["workload"] = workload
    if out["late_p99_ms"] > MAX_LATE_P99_MS:
        raise BenchError(f"{workload}: load generator fell behind "
                         f"(late p99 {out['late_p99_ms']:.2f} ms > {MAX_LATE_P99_MS} ms)")
    return out


def routed_e2e(out):
    """routed_hits: throughput and latencies of the closed loop. No solver
    runs there, so the time a user waits for an answer, sequential or
    parallel, is the request's latency: solve_s and par_solve_s read p50."""
    attempted = int(out["sent"])
    failed = min(attempted, int(out["failed"] + out["wrong"]))
    p50 = out["closed_p50_ms"]
    metrics = {"setup_s": out["setup_s"], "solve_s": p50 / 1e3, "par_solve_s": p50 / 1e3,
               "rps": out["window_rps"], "p50_ms": p50,
               "heavy_p50_ms": out["closed_heavy_p50_ms"],
               "ok_ratio": (attempted - failed) / attempted,
               "peak_rss_mb": out["peak_rss_kb"] / 1024.0}
    info = {k: out[k] for k in ("closed_n", "closed_p99_ms", "rps", "window_rps",
                                "cache_hit_ratio", "checked", "compared", "wrong")}
    return metrics, attempted, failed, info


def run_layers(bdir, outdir, seed, seconds):
    """The traced run: every layer metric, each from the workload that defines it.

    Whichever workload is named, it runs both in-process probes and both
    serving legs, each leg for --seconds but at most TRACED_LEG_S, so one
    traced run stays well inside the time limit and every percentile it
    reports has at least ten samples beyond it."""
    m = {}
    pair = probe(bdir, outdir, "pair-layers", {"seed": seed, "threads": THREADS,
                                               "max-threads": MAX_THREADS_LADDER},
                 "pair-layers", True)
    sl = probe(bdir, outdir, "serve-layers", {"seed": seed}, "serve-layers", True)
    legs = {}
    for w in ("search_mix", "routed_hits"):
        legs[w] = serving_leg(bdir, outdir, w, seed, min(seconds, TRACED_LEG_S), True,
                              f"{w}-traced")
    mix, routed = legs["search_mix"], legs["routed_hits"]
    for k in LAYER:
        if k in pair:
            m[k] = pair[k]
        elif k in sl:
            m[k] = sl[k]
    m.update({
        "serve.direct_hit_p50_us": routed["direct_hit_p50_us"],
        "serve.queued_p50_ms": mix["queued_p50_ms"], "serve.queued_p99_ms": mix["queued_p99_ms"],
        "serve.solve_p50_ms": mix["solve_p50_ms"], "serve.cache_hit_ratio": mix["cache_hit_ratio"],
        "serve.coalesced_ratio": mix["coalesced_ratio"], "serve.ok_responses": mix["ok_responses"],
        "serve.rss_kb_per_conn": routed["rss_kb_per_conn"],
        "serve.threads_after_churn": routed["threads_after_churn"],
        "dist.router_hop_us": routed["router_hop_us"],
        "dist.routed_p99_ms": routed["routed_p99_ms"],
        "dist.routed_halt_p50_ms": routed["routed_halt_p50_ms"],
        "dist.attempts_per_req": routed["attempts_per_req"],
        "obs.trace_overhead_pct": routed["trace_overhead_pct"],
        "loadgen.late_p99_ms": max(mix["late_p99_ms"], routed["late_p99_ms"]),
        "loadgen.sent": mix["sent"] + routed["sent"],
        "loadgen.failed": mix["failed"] + routed["failed"],
    })
    missing = [k for k in LAYER if k not in m]
    if missing:
        raise BenchError(f"layer metrics not produced: {missing}")
    attempted = int(mix["sent"] + routed["sent"])
    failed = int(mix["failed"] + mix["wrong"] + routed["failed"] + routed["wrong"] +
                 pair["mismatches"])
    return m, attempted, failed, {"unmeasured": NOT_MEASURED}


def write_trace(outdir, name):
    """Merges the orchestrator's spans and every probe trace into one file."""
    events = [{"name": "process_name", "ph": "M", "pid": 0, "args": {"name": "run.py"}}]
    events += SPANS
    pid = 1
    for f in sorted(os.listdir(outdir)):
        if not f.endswith(".trace.json"):
            continue
        with open(os.path.join(outdir, f)) as fh:
            doc = json.load(fh)
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "args": {"name": f"probe {f[:-len('.trace.json')]}"}})
        for e in doc.get("traceEvents", []):
            e["pid"] = pid
            events.append(e)
        pid += 1
    path = os.path.join(outdir, f"{name}.json")
    with open(path, "w") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
    return path


# ---- main --------------------------------------------------------------------

def one_run(args):
    bdir = build_dir()
    cache = build(bdir)
    env = environment(args, cache)
    mode = "traced" if args.trace else "plain"
    outdir = os.path.join(bdir, "out", f"{args.workload}-{args.seed}-{mode}")
    os.makedirs(outdir, exist_ok=True)
    for f in os.listdir(outdir):
        os.unlink(os.path.join(outdir, f))
    print(json.dumps({"environment": env}), flush=True)

    with span(f"run {args.workload}"):
        if args.trace:
            metrics, attempted, failed, info = run_layers(bdir, outdir, args.seed, args.seconds)
            units = LAYER
        elif args.workload == "table2_pair":
            metrics, attempted, failed, info = run_table2(bdir, outdir, args.seed, args.seconds)
            units = E2E
        else:
            out = serving_leg(bdir, outdir, args.workload, args.seed, args.seconds, False,
                              args.workload)
            metrics, attempted, failed, info = routed_e2e(out)
            units = E2E
    if args.trace:
        info["chrome_trace"] = write_trace(outdir, f"trace-{args.workload}-{args.seed}")
    print(json.dumps({"details": info}), flush=True)
    for k in units:
        print(f"  {k:<28} {metrics[k]:>16.6g} {units[k]}", flush=True)
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}),
          flush=True)
    return 0 if correct else 1


def steadiness(args):
    """Runs one workload k times on seeds seed, seed+1, ... and prints, per
    metric, the median, the quartiles and (Q3 - Q1) / median."""
    values = {}
    for i in range(args.steadiness):
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(args.seed + i), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        r = subprocess.run(cmd, capture_output=True, text=True)
        if r.returncode != 0:
            sys.stderr.write(r.stderr[-3000:])
            raise BenchError(f"run {i} (seed {args.seed + i}) exited {r.returncode}")
        res = json.loads(r.stdout.strip().splitlines()[-1])
        for k, v in res["metrics"].items():
            values.setdefault(k, []).append(v["value"])
        log(f"run {i + 1}/{args.steadiness} seed {args.seed + i} done")
    print(f"{'metric':<28} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
    summary = {}
    for k, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        summary[k] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": vs}
        print(f"{k:<28} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.4f}")
    print(json.dumps({"steadiness": summary}))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, default=0, metavar="K",
                        help="run the workload K times on consecutive seeds and print "
                             "each metric's median, quartiles and (Q3-Q1)/median")
    args = parser.parse_args()

    def on_term(signum, _frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, on_term)
    try:
        return steadiness(args) if args.steadiness else one_run(args)
    except BenchError as e:
        log(f"error: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
