"""Arithmetic of the served-path benchmark, kept free of I/O so that
test_benchlib.py can check it on synthetic inputs: percentiles, the
record formats sb_client writes, time windows and their steal, Prometheus
text parsing, the failure fraction, the accounting checks and the
generator-validity check.
"""

import math
import struct

# sb_client Record: at_ns u64, lat_ns u64, lag_ns u32, queue_us u32,
# rounds u32, status u8, attempts u8, flags u16.
RECORD = struct.Struct("<QQIIIBBH")
# sb_client StealSample: t_ns u64, steal jiffies u64, total jiffies u64.
STEAL = struct.Struct("<QQQ")

# server/protocol.h
COMMITTED = 1
FLAG_DURABLE = 1

# A run is invalid when the generator, not the server, limited it.
MAX_CLIENT_CPU_FRAC = 0.9
MAX_LAG_SHARE_OF_P50 = 0.25


def percentile(values, p):
    """Nearest-rank percentile (p in [0, 1]) of an unsorted sequence: the
    smallest value with at least p of the samples at or below it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    v = sorted(values)
    rank = max(1, math.ceil(p * len(v)))
    return v[min(rank, len(v)) - 1]


RECORD_FIELDS = ("at_ns", "lat_ns", "lag_ns", "queue_us", "rounds", "status",
                 "attempts", "flags")


def parse_records(data):
    """sb_client .rec bytes -> {field: list}, one column per field."""
    cols = list(zip(*RECORD.iter_unpack(data))) or [()] * len(RECORD_FIELDS)
    return dict(zip(RECORD_FIELDS, cols))


def committed_column(recs, field):
    """One column of a parse_records result, committed answers only."""
    return [v for v, s in zip(recs[field], recs["status"]) if s == COMMITTED]


def parse_u32(data):
    return [x[0] for x in struct.iter_unpack("<I", data)]


def parse_prom(text):
    """Prometheus text -> {sample name: value}, summing label sets of one
    name (the engine counters carry engine/workload labels)."""
    out = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        key = name.split("{")[0]
        if "_bucket" in key:
            continue
        out[key] = out.get(key, 0.0) + float(value)
    return out


def delta(after, before, name):
    return after.get(name, 0.0) - before.get(name, 0.0)


def fail_frac(steps):
    """(shed + exhausted + unanswered + bad + protocol errors) over the
    requests scheduled, summed over the given client phase dicts. Refusals
    count once per attempt, so a request refused twice counts twice."""
    scheduled = sum(s["issued"] for s in steps)
    failed = sum(s["shed_overload"] + s["shed_rate_limited"] + s["exhausted"]
                 + s["unanswered"] + s["bad"] + s["protocol_error"]
                 for s in steps)
    return failed / scheduled if scheduled else 0.0


def final_failures(step):
    """Requests of one phase that never got a correct final answer."""
    return (step["gave_up"] + step["bad"] + step["unanswered"]
            + step["protocol_error"])


def check_accounting(name, client_step, before, after):
    """Committed answers seen by the client must equal the server's
    txn_committed delta, which must equal the engine's commits delta.
    Returns a list of failure messages (empty when the step balances)."""
    server = delta(after, before, "mv3c_server_txn_committed_total")
    engine = delta(after, before, "mv3c_engine_commits_total")
    client = client_step["committed"]
    if client == server == engine:
        return []
    return ["%s: client committed %d, server txn_committed delta %d, "
            "engine commits delta %d" % (name, client, server, engine)]


def check_clean(name, step):
    """No unanswered request, protocol error, dead connection or bad
    request, and every attempt reached the socket."""
    errors = []
    for key in ("unanswered", "protocol_error", "dead_connections", "bad"):
        if step[key]:
            errors.append("%s: %s = %d" % (name, key, step[key]))
    if step["sent"] != step["attempts"]:
        errors.append("%s: %d of %d sends never reached the socket"
                      % (name, step["attempts"] - step["sent"],
                         step["attempts"]))
    return errors


def check_durable(recs):
    """Every committed answer of a sync-ack server carries the durable
    flag."""
    missing = sum(1 for f in committed_column(recs, "flags")
                  if not f & FLAG_DURABLE)
    return ["%d committed answers lack kRespFlagDurable" % missing] \
        if missing else []


def check_generator(name, step, lat_p50_ns=None, lag_p50_ns=None):
    """The run is invalid when the generator was the bottleneck: its
    thread was busy for most of the phase, or (open loop) its median send
    lag is a large share of the median latency it reports."""
    errors = []
    busy = step["cpu_s"] / max(step["wall_s"] + step["drain_s"], 1e-9)
    if busy > MAX_CLIENT_CPU_FRAC:
        errors.append("%s: generator CPU %.0f%% of the phase"
                      % (name, busy * 100))
    if lat_p50_ns and lag_p50_ns is not None \
            and lag_p50_ns > MAX_LAG_SHARE_OF_P50 * lat_p50_ns:
        errors.append("%s: median send lag %.1f us is over %.0f%% of the "
                      "median latency %.1f us"
                      % (name, lag_p50_ns / 1e3, MAX_LAG_SHARE_OF_P50 * 100,
                         lat_p50_ns / 1e3))
    return errors


def steal_frac(boundaries):
    """Share of the host's CPU time that other tenants stole between the
    first and the last of sb_client's boundaries, i.e. over the measured
    slo and sat steps."""
    first, last = boundaries[0], boundaries[-1]
    total = last["cpu_jiffies"] - first["cpu_jiffies"]
    stolen = last["steal_jiffies"] - first["steal_jiffies"]
    return stolen / total if total > 0 else 0.0


def room_to_repeat(elapsed_s, measure_s, server_s, servers_left, budget_s):
    """Whether one more measurement (measure_s) and the servers still to
    launch and measure once (server_s each) end within budget_s of the
    run's start, elapsed_s ago."""
    return elapsed_s + measure_s + servers_left * server_s <= budget_s


def parse_steal(data):
    """sb_client .steal bytes -> [(t_ns, steal jiffies, total jiffies)]."""
    return list(STEAL.iter_unpack(data))


def window_steal(samples, duration_ns, windows):
    """Jiffies the host lost to steal in each of `windows` equal slices of
    [0, duration_ns), counted between the last sample at or before the
    slice's start and the first one at or after its end."""
    out = []
    for k in range(windows):
        a, b = k * duration_ns // windows, (k + 1) * duration_ns // windows
        first = max((s for s in samples if s[0] <= a), default=samples[0])
        last = min((s for s in samples if s[0] >= b), default=samples[-1])
        out.append(max(last[1] - first[1], 0))
    return out


def window_percentiles(at_ns, values, p, duration_ns, windows):
    """The p-th percentile of the values whose time falls in each of
    `windows` equal slices of [0, duration_ns); None for an empty slice."""
    slices = [[] for _ in range(windows)]
    for t, v in zip(at_ns, values):
        if 0 <= t < duration_ns:
            slices[t * windows // duration_ns].append(v)
    return [percentile(s, p) if s else None for s in slices]


def window_rates(at_ns, duration_ns, windows):
    """Events per second whose time falls in each of `windows` equal slices
    of [0, duration_ns)."""
    counts = [0] * windows
    for t in at_ns:
        if 0 <= t < duration_ns:
            counts[t * windows // duration_ns] += 1
    return [c * windows / (duration_ns * 1e-9) for c in counts]


def quiet_median(windows, min_quiet):
    """The median of the values of the quiet windows, given (value, stolen
    jiffies) pairs. Quiet windows are those that lost no CPU time to steal;
    when fewer than min_quiet are, the min_quiet least-stolen windows stand
    in for them. Windows without a value are skipped."""
    have = [w for w in windows if w[0] is not None]
    if not have:
        raise ValueError("no window has a value")
    quiet = [v for v, stolen in have if stolen == 0]
    if len(quiet) < min_quiet:
        quiet = [v for v, _ in sorted(have, key=lambda w: w[1])[:min_quiet]]
    return median(quiet)


def median(values):
    v = sorted(values)
    n = len(v)
    if n == 0:
        raise ValueError("median of an empty sample")
    return v[n // 2] if n % 2 else (v[n // 2 - 1] + v[n // 2]) / 2
