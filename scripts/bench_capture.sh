#!/usr/bin/env bash
# Captures a benchmark baseline: runs every RUNJSON-emitting bench binary
# and collects their RUNJSON lines into one JSON array (default
# BENCH_baseline.json) with a small metadata header. Quick (CI) scale by
# default; MV3C_BENCH_FULL=1 switches to paper-scale inputs.
#
#   usage: scripts/bench_capture.sh [build_dir] [out_file]
#
# ROADMAP calls for committing the baseline before the WAL-parallelization
# work starts, so perf regressions there have something to diff against.
set -u
BUILD_DIR="${1:-build}"
OUT="${2:-BENCH_baseline.json}"
TMP="$(mktemp)"
trap 'rm -f "$TMP"' EXIT

fail=0
for b in "$BUILD_DIR"/bench/*; do
  [ -f "$b" ] && [ -x "$b" ] || continue
  name="$(basename "$b")"
  case "$name" in
    micro_core) continue ;;  # google-benchmark harness, no RUNJSON
  esac
  echo "===== $name =====" >&2
  if ! "$b" > "$TMP.run" 2>&1; then
    echo "FAILED: $name (exit $?)" >&2
    tail -5 "$TMP.run" >&2
    fail=1
    continue
  fi
  grep '^RUNJSON ' "$TMP.run" | sed 's/^RUNJSON //' >> "$TMP"
  rm -f "$TMP.run"
done

# Serving scenario (DESIGN §5k): start mv3c_serve on an ephemeral port and
# drive bench/loadgen open-loop against it; the loadgen's RUNJSON (keyed
# serve_<workload>, carrying arrival_rate / shed_fraction / p99) joins the
# baseline alongside the in-process benches. Skipped silently when either
# binary is absent (e.g. a tree where only some targets were built).
SERVE_BIN="$BUILD_DIR/src/server/mv3c_serve"
LOADGEN_BIN="$BUILD_DIR/bench/loadgen"
if [ -x "$SERVE_BIN" ] && [ -x "$LOADGEN_BIN" ]; then
  if [ -n "${MV3C_BENCH_FULL:-}" ]; then
    serve_rate=20000; serve_secs=10; serve_scale=100000
  else
    serve_rate=4000; serve_secs=3; serve_scale=20000
  fi
  for wl in banking tpcc; do
    scale="$serve_scale"
    [ "$wl" = tpcc ] && scale=1
    echo "===== serve_$wl (loadgen @$serve_rate/s) =====" >&2
    "$SERVE_BIN" --workload="$wl" --workers=4 --scale="$scale" \
      > "$TMP.serve" 2>/dev/null &
    serve_pid=$!
    port=""
    for _ in $(seq 1 100); do
      port="$(sed -n 's/^LISTENING port=//p' "$TMP.serve")"
      [ -n "$port" ] && break
      sleep 0.2
    done
    if [ -z "$port" ]; then
      echo "FAILED: serve_$wl (server never listened)" >&2
      kill "$serve_pid" 2>/dev/null; wait "$serve_pid" 2>/dev/null
      fail=1
      continue
    fi
    if "$LOADGEN_BIN" --port="$port" --workload="$wl" --scale="$scale" \
         --rate="$serve_rate" --seconds="$serve_secs" --warmup-seconds=1 \
         --connections=4 > "$TMP.run" 2>&1; then
      grep '^RUNJSON ' "$TMP.run" | sed 's/^RUNJSON //' >> "$TMP"
    else
      echo "FAILED: serve_$wl (loadgen exit $?)" >&2
      tail -5 "$TMP.run" >&2
      fail=1
    fi
    kill "$serve_pid" 2>/dev/null
    wait "$serve_pid" 2>/dev/null
    rm -f "$TMP.run" "$TMP.serve"
  done
fi

n="$(wc -l < "$TMP")"
{
  printf '{\n'
  printf '  "captured": "%s",\n' "$(date -u +%Y-%m-%dT%H:%M:%SZ)"
  printf '  "git": "%s",\n' "$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
  printf '  "scale": "%s",\n' "${MV3C_BENCH_FULL:+full}${MV3C_BENCH_FULL:-quick}"
  printf '  "runs": [\n'
  awk '{ printf "    %s%s\n", $0, (NR=='"$n"' ? "" : ",") }' "$TMP"
  printf '  ]\n}\n'
} > "$OUT"
echo "wrote $OUT ($n runs)" >&2
exit $fail
