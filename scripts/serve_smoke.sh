#!/usr/bin/env bash
# Serving-stack smoke/integration check (DESIGN §5k): starts mv3c_serve,
# drives bench/loadgen open-loop against it over localhost, scrapes
# /metrics and /healthz over HTTP, and asserts the server's Prometheus
# txn_committed counter equals the number of committed acks the loadgen
# observed — the end-to-end proof that no commit is double-counted, lost,
# or acked without running.
#
#   usage: scripts/serve_smoke.sh [build_dir] [workload] [ack] [rate] [secs]
#                                 [engine]
#
#   ack: "none" (default, no WAL), "async", or "sync" (WAL group commit).
#        Under sync every committed ack must carry the durable flag (the
#        loadgen counts them), and the server must have made at most one
#        durable wait per commit (wal_sync_waits_total <= commits_total:
#        workers wait once per admission batch, DESIGN §5k). Under none
#        and async no committed ack may carry the flag.
#   engine: "mv3c" (default) or "omvcc" (the restart conflict policy).
set -u

BUILD_DIR="${1:-build}"
WL="${2:-banking}"
ACK="${3:-none}"
RATE="${4:-2000}"
SECS="${5:-3}"
ENGINE="${6:-mv3c}"

SERVE="$BUILD_DIR/src/server/mv3c_serve"
LOADGEN="$BUILD_DIR/bench/loadgen"
for bin in "$SERVE" "$LOADGEN"; do
  if [ ! -x "$bin" ]; then
    echo "SKIP: $bin not built" >&2
    exit 77
  fi
done

case "$WL" in
  tpcc) SCALE=1 ;;
  *)    SCALE=20000 ;;
esac

TMP="$(mktemp -d)"
serve_pid=""
cleanup() {
  [ -n "$serve_pid" ] && kill "$serve_pid" 2>/dev/null
  [ -n "$serve_pid" ] && wait "$serve_pid" 2>/dev/null
  rm -rf "$TMP"
}
trap cleanup EXIT

serve_args=(--workload="$WL" --engine="$ENGINE" --workers=4 --scale="$SCALE"
            --port=0)
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

# Warmup 0 so the loadgen's committed count covers *every* request it sent
# — that is what makes exact equality against the server counter possible.
if ! "$LOADGEN" --port="$PORT" --workload="$WL" --scale="$SCALE" \
     --rate="$RATE" --seconds="$SECS" --warmup-seconds=0 \
     --drain-seconds=5 --connections=4 > "$TMP/loadgen.out" 2>&1; then
  echo "FAIL: loadgen exited nonzero" >&2
  cat "$TMP/loadgen.out" >&2
  exit 1
fi
cat "$TMP/loadgen.out" >&2

python3 - "$TMP/loadgen.out" "$PORT" "$ACK" <<'EOF'
import json
import sys
import urllib.request

with open(sys.argv[1]) as f:
    runjson = [l for l in f if l.startswith("RUNJSON ")]
assert len(runjson) == 1, f"expected 1 RUNJSON line, got {len(runjson)}"
run = json.loads(runjson[0][len("RUNJSON "):])
port = sys.argv[2]
ack = sys.argv[3]

health = urllib.request.urlopen(f"http://127.0.0.1:{port}/healthz", timeout=10)
assert health.status == 200 and health.read().strip() == b"ok", "healthz"

metrics = urllib.request.urlopen(
    f"http://127.0.0.1:{port}/metrics", timeout=10).read().decode()
scraped = {}
for line in metrics.splitlines():
    if line.startswith("#") or not line:
        continue
    name, _, value = line.rpartition(" ")
    scraped[name.split("{")[0]] = float(value)

committed = int(scraped["mv3c_server_txn_committed_total"])
assert run["unanswered"] == 0, f"loadgen lost {run['unanswered']} responses"
assert committed == run["committed"], (
    f"server committed {committed} != loadgen acked-committed "
    f"{run['committed']}")
# The engine's own commit counter (published per-worker snapshots) must
# agree with the front-end's atomic counter.
engine = int(scraped.get("mv3c_engine_commits_total", -1))
assert engine == committed, f"engine commits {engine} != server {committed}"
assert run["committed"] > 0, "nothing committed"
if ack == "sync":
    assert run["durable"] == run["committed"], (
        f"{run['committed'] - run['durable']} of {run['committed']} "
        f"committed acks lack the durable flag")
    waits = int(scraped["mv3c_engine_wal_sync_waits_total"])
    assert waits <= engine, (
        f"wal_sync_waits_total {waits} > commits_total {engine}")
    print(f"OK: {run['durable']} durable acks == committed; "
          f"{waits} durable waits for {engine} commits")
else:
    assert run["durable"] == 0, (
        f"{run['durable']} committed acks claim durability under ack={ack}")
print(f"OK: {run['committed']} commits acked == scraped "
      f"mv3c_server_txn_committed_total == mv3c_engine_commits_total; "
      f"shed_fraction={run['shed_fraction']:.4f} "
      f"p99={run['p99_us']:.0f}us")
EOF
status=$?
if [ $status -ne 0 ]; then
  echo "FAIL: metrics equality check" >&2
  exit 1
fi
echo "PASS: serve_smoke $WL engine=$ENGINE ack=$ACK" >&2
