#!/usr/bin/env bash
# Serving-stack smoke/integration check (DESIGN §5k): starts mv3c_serve,
# drives it over localhost with servebench's sb_client (0.5 s warmup, an
# open-loop slo step at RATE, then a closed-loop sat step), and checks
# every step with the served-path benchmark's own checks
# (servebench/benchlib.py):
#   check_clean       no unanswered request, protocol error, dead
#                     connection or bad request; every send reached the
#                     socket
#   check_accounting  the client's committed answers == the server's
#                     txn_committed delta == the engine's commits delta
#                     between the step's two /metrics scrapes: no commit is
#                     double-counted, lost, or acked without running
#   check_durable     (ack=sync) every committed answer carries the durable
#                     flag
# It asserts here only what benchlib does not: /healthz answers "ok", each
# measured step committed something, under sync the server made at most
# one durable wait per commit (wal_sync_waits_total <= commits_total:
# workers wait once per admission batch), and under none and async no
# committed answer carries the durable flag.
#
#   usage: scripts/serve_smoke.sh [build_dir] [workload] [ack] [rate] [secs]
#                                 [engine]
#
#   build_dir  the servebench build (default .bench_build/servebench, which
#              servebench/run.py builds; by hand:
#                cmake -S servebench -B .bench_build/servebench
#                cmake --build .bench_build/servebench --target servebench_all)
#   workload   banking (default), tatp or tpcc, at the server's default
#              scale, which sb_client's request streams assume
#   ack        none (default, no WAL), async or sync (WAL group commit)
#   rate       the slo step's arrival rate, requests/s (default 2000)
#   secs       length of the slo step and of the sat step (default 3)
#   engine     mv3c (default) or omvcc (the restart conflict policy)
#
# Exits 0 when every check passes, 1 when one fails or the server or the
# client dies, 77 when a binary is not built.
set -u

BUILD_DIR="${1:-.bench_build/servebench}"
WL="${2:-banking}"
ACK="${3:-none}"
RATE="${4:-2000}"
SECS="${5:-3}"
ENGINE="${6:-mv3c}"

SERVE="$BUILD_DIR/mv3c/src/server/mv3c_serve"
CLIENT="$BUILD_DIR/sb_client"
for bin in "$SERVE" "$CLIENT"; do
  if [ ! -x "$bin" ]; then
    echo "SKIP: $bin not built" >&2
    exit 77
  fi
done

TMP="$(mktemp -d)"
serve_pid=""
cleanup() {
  [ -n "$serve_pid" ] && kill "$serve_pid" 2>/dev/null
  [ -n "$serve_pid" ] && wait "$serve_pid" 2>/dev/null
  rm -rf "$TMP"
}
trap cleanup EXIT

serve_args=(--workload="$WL" --engine="$ENGINE" --workers=4 --port=0)
if [ "$ACK" != none ]; then
  mkdir -p "$TMP/wal"
  serve_args+=(--wal --wal-dir="$TMP/wal" --ack="$ACK")
fi

"$SERVE" "${serve_args[@]}" > "$TMP/serve.out" 2> "$TMP/serve.err" &
serve_pid=$!

PORT=""
for _ in $(seq 1 150); do
  PORT="$(sed -n 's/^LISTENING port=//p' "$TMP/serve.out")"
  [ -n "$PORT" ] && break
  if ! kill -0 "$serve_pid" 2>/dev/null; then
    echo "FAIL: mv3c_serve died during startup" >&2
    cat "$TMP/serve.err" >&2
    exit 1
  fi
  sleep 0.2
done
if [ -z "$PORT" ]; then
  echo "FAIL: mv3c_serve never printed LISTENING" >&2
  exit 1
fi
echo "mv3c_serve up: workload=$WL engine=$ENGINE ack=$ACK port=$PORT" >&2

if ! "$CLIENT" --port="$PORT" --workload="$WL" --rate="$RATE" \
     --slo-s="$SECS" --sat-s="$SECS" --out="$TMP/client"; then
  echo "FAIL: sb_client exited nonzero" >&2
  exit 1
fi

python3 -B - "$(dirname "$0")/../servebench" "$TMP/client" "$PORT" "$ACK" \
    <<'EOF'
import json
import sys
import urllib.request

sys.path.insert(0, sys.argv[1])
import benchlib  # noqa: E402

out, port, ack = sys.argv[2:5]
with open(out + ".json") as f:
    summary = json.load(f)
scrapes = []
for k in range(3):
    with open("%s.scrape%d.txt" % (out, k)) as f:
        scrapes.append(benchlib.parse_prom(f.read()))
recs = {}
for step in ("slo", "sat"):
    with open("%s.%s.rec" % (out, step), "rb") as f:
        recs[step] = benchlib.parse_records(f.read())

# The server is fresh, so the warmup step starts from zero counters.
before = [{}] + scrapes
errors = []
for k, step in enumerate(("warmup", "slo", "sat")):
    errors += benchlib.check_clean(step, summary[step])
    errors += benchlib.check_accounting(step, summary[step], before[k],
                                        scrapes[k])
for step in ("slo", "sat"):
    if not summary[step]["committed"]:
        errors.append("%s: nothing committed" % step)
    if ack == "sync":
        errors += ["%s: %s" % (step, e)
                   for e in benchlib.check_durable(recs[step])]
    else:
        flagged = sum(1 for f in benchlib.committed_column(recs[step], "flags")
                      if f & benchlib.FLAG_DURABLE)
        if flagged:
            errors.append("%s: %d committed answers claim durability under "
                          "ack=%s" % (step, flagged, ack))
if ack == "sync":
    waits = scrapes[2]["mv3c_engine_wal_sync_waits_total"]
    commits = scrapes[2]["mv3c_engine_commits_total"]
    if waits > commits:
        errors.append("wal_sync_waits_total %d > commits_total %d"
                      % (waits, commits))

health = urllib.request.urlopen("http://127.0.0.1:%s/healthz" % port,
                                timeout=10)
if health.status != 200 or health.read().strip() != b"ok":
    errors.append("/healthz did not answer ok")

for e in errors:
    print("CHECK FAILED: " + e, file=sys.stderr)
for step in ("warmup", "slo", "sat"):
    s = summary[step]
    print("%s: %d issued, %d committed, %d gave up, %d exhausted answers"
          % (step, s["issued"], s["committed"], s["gave_up"], s["exhausted"]),
          file=sys.stderr)
sys.exit(1 if errors else 0)
EOF
status=$?
if [ $status -ne 0 ]; then
  echo "FAIL: serve_smoke checks" >&2
  exit 1
fi
echo "PASS: serve_smoke $WL engine=$ENGINE ack=$ACK" >&2
