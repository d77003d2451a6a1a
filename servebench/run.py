#!/usr/bin/env python3
"""Served-path benchmark for mv3c_serve (see README.md in this directory).

    python3 servebench/run.py --workload banking_hot --seed 1 --seconds 6 \\
        --trace 0

Builds mv3c_serve, sb_client and sb_trace from the checkout (first run
only; later runs are incremental), starts a real mv3c_serve over TCP,
drives the workload's seeded stream through it, checks the answers, and
prints one JSON object as the last line of standard output:

    {"correct": true, "attempted": N, "failed": F, "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 also runs the
in-process traced run and reports the per-layer metrics. A run that
fails a correctness or validity check prints correct=false with no
metrics and exits 1.
"""

import argparse
import glob
import hashlib
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import benchlib

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "servebench")
WORK = os.path.join(ROOT, ".bench_work")

WORKLOADS = {
    # name: server flags, client workload, open-loop rate (requests/s);
    # grows: every measurement adds rows and log, so a second measurement
    # of one server is not like its first (TPC-C: ~20% slower).
    "banking_hot": dict(serve=["--workload=banking", "--engine=mv3c"],
                        stream="banking", rate=60000),
    "tpcc_sync": dict(serve=["--workload=tpcc", "--engine=mv3c"],
                      stream="tpcc", rate=3000, wal=True, grows=True),
}
WORKERS = 2
# A run measures SESSIONS fresh servers, each for --seconds/SESSIONS (half
# slo, half sat) after sb_client's 0.5 s warmup. --trace 1 measures one
# and then runs the in-process traced runs.
SESSIONS = 3
CLIENT_WARMUP_S = 0.5  # sb_client's kWarmupS
# Each step is cut into WINDOWS equal time slices, and sb_client samples
# the host's steal every 25 ms, so each slice knows whether another tenant
# took CPU time from this machine during it. A step metric is the median
# of its per-slice values over the slices of a run that lost nothing to
# steal: a burst of interference moves a few slices, not the value. With
# fewer than MIN_QUIET quiet slices, the MIN_QUIET least-stolen stand in.
WINDOWS = 16
MIN_QUIET = 8
# Steal also marks the times the whole host is busy, when even the quiet
# slices run slow. A measurement that lost more than STEAL_MAX of the CPU
# time (about one jiffy) to steal during its slo and sat steps is followed
# by one more, at most MAX_TRIES per server slot: on the same server (a
# retake costs seconds, a new server its whole population load), or on a
# fresh server for a workload that grows. Every measurement counts, so a
# busy host gives a run more slices to choose quiet ones from.
STEAL_MAX = 0.001
MAX_TRIES = 5
RUN_BUDGET_S = 44
LISTEN_TIMEOUT_S = 120


def log(msg):
    print("servebench: " + msg, file=sys.stderr, flush=True)


class Failure(Exception):
    pass


# --- build -----------------------------------------------------------------

def build():
    if not os.path.exists(os.path.join(ROOT, "src", "server", "server.h")):
        raise Failure("no mv3c source tree next to servebench/ (%s)" % ROOT)
    os.makedirs(BUILD, exist_ok=True)
    logpath = os.path.join(BUILD, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "servebench_all"])
    with open(logpath, "a") as logf:
        for cmd in steps:
            if subprocess.run(cmd, stdout=logf, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                raise Failure("build failed: %s (log: %s)"
                              % (" ".join(cmd), logpath))


def binary(name):
    path = {"mv3c_serve": os.path.join(BUILD, "mv3c", "src", "server",
                                       "mv3c_serve")}.get(
        name, os.path.join(BUILD, name))
    if not os.access(path, os.X_OK):
        raise Failure("%s was not built" % path)
    return path


# --- machine fingerprint -----------------------------------------------------

def fs_type(path):
    best, fstype = "", "unknown"
    real = os.path.realpath(path)
    with open("/proc/mounts") as f:
        for line in f:
            parts = line.split()
            mnt = parts[1]
            if (real == mnt or real.startswith(mnt.rstrip("/") + "/")) \
                    and len(mnt) >= len(best):
                best, fstype = mnt, parts[2]
    return fstype


def source_digest():
    h = hashlib.sha1()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "**", "*"),
                                 recursive=True)):
        if os.path.isfile(path):
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def fingerprint(work):
    cache = {}
    with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
        for line in f:
            key, _, value = line.strip().partition("=")
            cache[key.split(":")[0]] = value
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = compiler
    sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                         capture_output=True, text=True)
    nproc = os.cpu_count() or 1
    fp = {
        "nproc": nproc,
        "kernel": platform.release(),
        "compiler": version,
        "build_type": cache.get("CMAKE_BUILD_TYPE", ""),
        "git_sha": sha.stdout.strip() if sha.returncode == 0 else "none",
        "src_sha1": source_digest(),
        "wal_fs": fs_type(work),
    }
    if nproc == 1:
        fp["sat"] = "unproven_single_core"
    return fp


# --- server ----------------------------------------------------------------

class Server:
    """One mv3c_serve process; `setup_s` is launch-to-LISTENING."""

    def __init__(self, wl, work, tag):
        self.wal_dir = None
        args = [binary("mv3c_serve")] + wl["serve"] + [
            "--workers=%d" % WORKERS, "--port=0"]
        if wl.get("wal"):
            self.wal_dir = os.path.join(work, "wal-" + tag)
            shutil.rmtree(self.wal_dir, ignore_errors=True)
            os.makedirs(self.wal_dir)
            args += ["--wal", "--ack=sync", "--wal-partitions=1",
                     "--wal-dir=" + self.wal_dir]
        self.err = open(os.path.join(work, "serve-%s.err" % tag), "w")
        t0 = time.monotonic()
        self.proc = subprocess.Popen(args, stdout=subprocess.PIPE,
                                     stderr=self.err, text=True)
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [],
                                        LISTEN_TIMEOUT_S)
            line = self.proc.stdout.readline() if ready else ""
            self.setup_s = time.monotonic() - t0
            if not line.startswith("LISTENING port="):
                raise Failure("mv3c_serve did not start (%s)" % " ".join(args))
            self.port = int(line.split("=", 1)[1])
        except BaseException:
            self.stop()
            raise

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.err.close()
        if self.wal_dir:
            shutil.rmtree(self.wal_dir, ignore_errors=True)


def measure(server, wl, work, seed, seconds, tag, baseline, fault=None):
    """One sb_client warmup/slo/sat pass against a running server, for
    `seconds` of slo + sat. Returns the client summary, the records per
    step, the /metrics scrapes after each step, `baseline` (the scrape the
    pass starts from) and the share of CPU time stolen during slo and sat."""
    out = os.path.join(work, "client-" + tag)
    cmd = [binary("sb_client"), "--port=%d" % server.port,
           "--workload=" + wl["stream"],
           "--seed=%d" % seed, "--rate=%g" % wl["rate"],
           "--slo-s=%g" % (seconds / 2), "--sat-s=%g" % (seconds / 2),
           "--server-pid=%d" % server.proc.pid,
           "--out=" + out]
    if server.wal_dir:
        cmd.append("--wal-dir=" + server.wal_dir)
    killer = None
    if fault == "kill-server":
        # SIGKILL halfway through the first slo step: requests in flight
        # are never answered, so the run must fail its checks.
        killer = threading.Timer(CLIENT_WARMUP_S + seconds / 4,
                                 server.proc.kill)
        killer.start()
    try:
        rc = subprocess.run(cmd, timeout=seconds + 60).returncode
    finally:
        if killer:
            killer.cancel()
    if rc != 0:
        raise Failure("sb_client exited %d (server %s)"
                      % (rc, "alive" if server.proc.poll() is None
                         else "gone"))
    with open(out + ".json") as f:
        summary = json.load(f)
    recs, steal = {}, {}
    for step in ("slo", "sat"):
        with open("%s.%s.rec" % (out, step), "rb") as f:
            recs[step] = benchlib.parse_records(f.read())
        with open("%s.%s.steal" % (out, step), "rb") as f:
            steal[step] = benchlib.parse_steal(f.read())
    scrapes = []
    for k in range(3):
        with open("%s.scrape%d.txt" % (out, k)) as f:
            scrapes.append(benchlib.parse_prom(f.read()))
    return dict(summary=summary, recs=recs, steal=steal, scrapes=scrapes,
                baseline=baseline,
                steal_frac=benchlib.steal_frac(summary["boundaries"]))


def measured_sessions(wl, work, seed, seconds, n, fault):
    """Measures n servers. A measurement that lost more than STEAL_MAX of
    the CPU time to steal is followed by another while it and the servers
    still to come fit in RUN_BUDGET_S. Returns (every measurement, one
    dict per server launched with its set-up time and the VmHWM after its
    first measurement)."""
    t0 = time.monotonic()
    done, took, servers = [], [], []
    for k in range(n):
        tries, server = 0, None
        try:
            while True:
                tag = "s%d-%d" % (k, tries)
                if server is None:
                    server = Server(wl, work, tag)
                    launched = dict(setup_s=server.setup_s)
                    servers.append(launched)
                    baseline = {}
                start = time.monotonic()
                m = measure(server, wl, work, seed, seconds, tag, baseline,
                            None if done else fault)
                took.append(time.monotonic() - start)
                tries += 1
                done.append(m)
                m["server"] = len(servers) - 1
                baseline = m["scrapes"][-1]
                # Memory after the server's first measurement: a fixed
                # amount of work, whatever follows.
                launched.setdefault(
                    "hwm_kb", m["summary"]["boundaries"][2]["hwm_kb"])
                setup_s = statistics.fmean(s["setup_s"] for s in servers)
                measure_s = statistics.fmean(took)
                again_s = measure_s + (setup_s if wl.get("grows") else 0)
                if m["steal_frac"] <= STEAL_MAX or tries == MAX_TRIES \
                        or not benchlib.room_to_repeat(
                        time.monotonic() - t0, again_s, setup_s + measure_s,
                        n - k - 1, RUN_BUDGET_S):
                    break
                if wl.get("grows"):
                    server.stop()
                    server = None
        finally:
            if server is not None:
                server.stop()
    return done, servers


# --- checks and end-to-end metrics ------------------------------------------


def check_session(wl, sess):
    summary, recs, scrapes = sess["summary"], sess["recs"], sess["scrapes"]
    errors = []
    before = [sess["baseline"]] + scrapes
    for k, step in enumerate(("warmup", "slo", "sat")):
        s = summary[step]
        errors += benchlib.check_clean(step, s)
        errors += benchlib.check_accounting(step, s, before[k], scrapes[k])
    if wl.get("wal"):
        for step in ("slo", "sat"):
            errors += benchlib.check_durable(recs[step])
    slo = recs["slo"]
    lat = benchlib.committed_column(slo, "lat_ns")
    if not lat or not summary["sat"]["committed"]:
        errors.append("nothing committed")
        return errors
    errors += benchlib.check_generator(
        "slo", summary["slo"], benchlib.percentile(lat, 0.5),
        benchlib.percentile(slo["lag_ns"], 0.5))
    errors += benchlib.check_generator("sat", summary["sat"])
    return errors


def session_windows(sess):
    """A measurement's step metrics per time slice, as (value, jiffies
    stolen in the slice) pairs."""
    out = {}
    for step in ("slo", "sat"):
        ns = int(sess["summary"][step]["wall_s"] * 1e9)
        stolen = benchlib.window_steal(sess["steal"][step], ns, WINDOWS)
        at = benchlib.committed_column(sess["recs"][step], "at_ns")
        if step == "sat":
            out["goodput_tps"] = list(zip(
                benchlib.window_rates(at, ns, WINDOWS), stolen))
            continue
        lat = benchlib.committed_column(sess["recs"][step], "lat_ns")
        for name, p in (("lat_p50_us", 0.50), ("lat_p90_us", 0.90)):
            values = benchlib.window_percentiles(at, lat, p, ns, WINDOWS)
            out[name] = list(zip(
                [None if v is None else v / 1e3 for v in values], stolen))
    return out


UNITS = {"goodput_tps": "1/s", "lat_p50_us": "us", "lat_p90_us": "us",
         "setup_s": "s", "rss_peak_mb": "MB"}


def step_metrics(sessions):
    """The step metrics over the pooled slices of the given measurements."""
    windows = {}
    for s in sessions:
        for k, w in session_windows(s).items():
            windows.setdefault(k, []).extend(w)
    return {k: benchlib.quiet_median(w, MIN_QUIET)
            for k, w in windows.items()}


def end_to_end(sessions, servers):
    """The step metrics pool the slices of every measurement; set-up time
    and memory are the median over the servers launched."""
    values = step_metrics(sessions)
    values["setup_s"] = benchlib.median([s["setup_s"] for s in servers])
    values["rss_peak_mb"] = benchlib.median(
        [s["hwm_kb"] / 1024.0 for s in servers])
    return {k: (v, UNITS[k]) for k, v in values.items()}


# --- traced run and per-layer metrics ----------------------------------------

def traced(wl, work, seed, engine, wal):
    """One sb_trace invocation; returns its JSON plus the Run durations."""
    out = os.path.join(work, "trace-%s-%s" % (engine, "wal" if wal else "nowal"))
    cmd = [binary("sb_trace"), "--workload=" + wl["stream"],
           "--engine=" + engine, "--seed=%d" % seed, "--out=" + out]
    wal_dir = None
    if wal:
        wal_dir = out + ".wal"
        shutil.rmtree(wal_dir, ignore_errors=True)
        os.makedirs(wal_dir)
        cmd.append("--wal-dir=" + wal_dir)
    try:
        # sb_trace loads the population, then drives the stream for 3 s.
        rc = subprocess.run(cmd, timeout=LISTEN_TIMEOUT_S + 3).returncode
    finally:
        if wal_dir:
            shutil.rmtree(wal_dir, ignore_errors=True)
    if rc != 0:
        raise Failure("sb_trace exited %d" % rc)
    with open(out + ".json") as f:
        t = json.load(f)
    with open(out + ".run_ns", "rb") as f:
        t["run_ns"] = benchlib.parse_u32(f.read())
    return t


def layer_mean_ns(t, layer):
    n = t["layers"][layer]["n"]
    return t["layers"][layer]["sum_ns"] / n if n else 0.0


def engine_phase_us(t, phase):
    p = t["phases"][phase]
    return p["sum_ns"] / p["count"] / 1e3 if p["count"] else 0.0


def per_layer(wl, work, seed, sess):
    summary, recs, scrapes = sess["summary"], sess["recs"], sess["scrapes"]
    served_engine = wl["serve"][1].split("=")[1]
    wal = bool(wl.get("wal"))
    runs = {e: traced(wl, work, seed, e, wal) for e in ("mv3c", "omvcc")}
    own = runs[served_engine]

    slo = recs["slo"]
    lat = benchlib.committed_column(slo, "lat_ns")
    queue = benchlib.committed_column(slo, "queue_us")
    lat_p50_us = benchlib.percentile(lat, 0.5) / 1e3
    queue_p50 = benchlib.percentile(queue, 0.5)
    service_p50 = benchlib.percentile(own["run_ns"], 0.5) / 1e3
    front_p50 = lat_p50_us - queue_p50 - service_p50
    front_layers_ns = sum(layer_mean_ns(own, l)
                          for l in ("encode", "decode", "push", "pop",
                                    "publish"))
    untraced_tps = own["untraced"]["requests"] / own["untraced"]["busy_ns"]
    traced_tps = own["traced"]["requests"] / own["traced"]["busy_ns"]

    before, after = scrapes[0], scrapes[2]
    commits = benchlib.delta(after, before, "mv3c_engine_commits_total")
    b0, b2 = summary["boundaries"][0], summary["boundaries"][2]
    steps = [summary["slo"], summary["sat"]]
    issued = sum(s["issued"] for s in steps)

    m = {
        "server.queue_wait_p50_us": (queue_p50, "us"),
        "server.queue_wait_p99_us": (benchlib.percentile(queue, 0.99), "us"),
        "server.queue_peak_depth": (
            scrapes[1].get("mv3c_server_admission_queue_peak_depth", 0.0),
            "count"),
        "server.service_us_p50": (service_p50, "us"),
        "server.service_us_p99": (
            benchlib.percentile(own["run_ns"], 0.99) / 1e3, "us"),
        "server.front_us_p50": (front_p50, "us"),
        "server.frame_decode_ns": (layer_mean_ns(own, "decode"), "ns"),
        "server.admission_push_ns": (layer_mean_ns(own, "push"), "ns"),
        "server.admission_pop_ns": (layer_mean_ns(own, "pop"), "ns"),
        "server.publish_ns": (layer_mean_ns(own, "publish"), "ns"),
        "mvcc.versions_discarded_per_commit": (
            benchlib.delta(after, before,
                           "mv3c_engine_versions_discarded_total") / commits,
            "ratio"),
        "mvcc.rss_mb_per_100k_commits": (
            (b2["rss_kb"] - b0["rss_kb"]) / 1024.0 / commits * 1e5, "MB"),
        "wal.bytes_per_commit": (
            (b2["wal_bytes"] - b0["wal_bytes"]) / commits, "B"),
        "wal.sync_wait_us_p50": (0.0, "us"),
        "workloads.load_s": (own["load_s"], "s"),
        "client.lat_p99_us": (benchlib.percentile(lat, 0.99) / 1e3, "us"),
        "client.lat_p999_us": (benchlib.percentile(lat, 0.999) / 1e3, "us"),
        "client.send_lag_p99_us": (
            benchlib.percentile(slo["lag_ns"], 0.99) / 1e3, "us"),
        "client.cpu_us_per_req": (
            sum(s["cpu_s"] for s in steps) / issued * 1e6, "us"),
        "client.fail_frac": (benchlib.fail_frac(steps), "ratio"),
        "client.frame_encode_ns": (layer_mean_ns(own, "encode"), "ns"),
        "trace.overhead_frac": (1.0 - traced_tps / untraced_tps, "ratio"),
        "trace.unaccounted_frac": (
            (front_p50 - front_layers_ns / 1e3) / lat_p50_us, "ratio"),
    }
    if wal:
        nowal = traced(wl, work, seed, served_engine, False)
        m["wal.sync_wait_us_p50"] = (
            (benchlib.percentile(own["run_ns"], 0.5)
             - benchlib.percentile(nowal["run_ns"], 0.5)) / 1e3, "us")

    mv = runs["mv3c"]
    c = mv["counters"]
    rounds = benchlib.committed_column(slo, "rounds") + \
        benchlib.committed_column(recs["sat"], "rounds")
    repairs = max(c["repair_rounds"], 1)
    m.update({
        "mv3c.execute_us_mean": (engine_phase_us(mv, "execute"), "us"),
        "mv3c.validate_us_mean": (engine_phase_us(mv, "validate"), "us"),
        "mv3c.repair_us_mean": (engine_phase_us(mv, "repair"), "us"),
        "mv3c.commit_us_mean": (engine_phase_us(mv, "commit"), "us"),
        "mv3c.repair_rounds_per_commit": (
            c["repair_rounds"] / c["commits"], "ratio"),
        "mv3c.reexecuted_closures_per_repair": (
            c["reexecuted_closures"] / repairs, "ratio"),
        "mv3c.invalidated_predicates_per_repair": (
            c["invalidated_predicates"] / repairs, "ratio"),
        "mv3c.exclusive_repairs_per_commit": (
            c["exclusive_repairs"] / c["commits"], "ratio"),
        "mv3c.ww_restarts_per_commit": (c["ww_restarts"] / c["commits"],
                                        "ratio"),
        "mv3c.useful_frac": (c["commits"] / (c["commits"]
                                             + c["validation_failures"]
                                             + c["ww_restarts"]), "ratio"),
        "mv3c.rounds_p99": (benchlib.percentile(rounds, 0.99), "count"),
    })

    om = runs["omvcc"]
    c = om["counters"]
    restarts = c["validation_failures"] + c["ww_restarts"]
    m.update({
        "omvcc.execute_us_mean": (engine_phase_us(om, "execute"), "us"),
        "omvcc.commit_us_mean": (engine_phase_us(om, "commit"), "us"),
        "omvcc.restarts_per_commit": (restarts / c["commits"], "ratio"),
        "omvcc.useful_frac": (c["commits"] / (c["commits"] + restarts),
                              "ratio"),
        "omvcc.exhausted_per_100k": (c["exhausted"] / c["commits"] * 1e5,
                                     "count"),
    })
    return m


# --- main ------------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--fault", choices=("kill-server",),
                    help="inject a failure to show the checks catch it")
    args = ap.parse_args()
    wl = WORKLOADS[args.workload]

    try:
        build()
        work = os.path.join(WORK, args.workload)
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        fp = fingerprint(work)
        ran, servers = measured_sessions(
            wl, work, args.seed, args.seconds / SESSIONS,
            1 if args.trace else SESSIONS, args.fault)
    except Failure as e:
        log("FAILED: %s" % e)
        return 1

    steps = [s["summary"][step] for s in ran for step in ("slo", "sat")]
    attempted = sum(s["issued"] for s in steps)
    failed = sum(benchlib.final_failures(s) for s in steps)
    errors = [e for s in ran for e in check_session(wl, s)]
    if errors:
        for e in errors:
            log("CHECK FAILED: " + e)
        print(json.dumps({"correct": False, "attempted": max(attempted, 1),
                          "failed": failed, "metrics": {}}))
        return 1

    try:
        if args.trace:
            metrics = per_layer(wl, work, args.seed, ran[0])
        else:
            metrics = end_to_end(ran, servers)
    except Failure as e:
        log("FAILED: %s" % e)
        return 1

    lat_n = [len(benchlib.committed_column(s["recs"]["slo"], "lat_ns"))
             for s in ran]
    info = {"workload": args.workload, "seed": args.seed,
            "slo_rate": wl["rate"], "slo_latency_samples": lat_n,
            "measurements": [dict(step_metrics([s]), server=s["server"],
                                  steal_frac=s["steal_frac"]) for s in ran],
            "servers": servers,
            "sat_outstanding": 256, "fingerprint": fp}
    print("servebench " + json.dumps(info))
    result = {"correct": True, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in sorted(metrics.items())}}
    with open(os.path.join(work, "result.json"), "w") as f:
        json.dump(dict(info, **result), f, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
