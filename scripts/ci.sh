#!/usr/bin/env bash
# Tier-1 CI entry point: configure, build (the project compiles with
# -Wall -Wextra; CI additionally promotes warnings to errors), run the full
# test suite, and leave the ctest log at $LOG_DIR/ctest.log for upload.
#
# Usage: scripts/ci.sh [build-dir]
# Env:   LOG_DIR     where to write logs (default: <build-dir>)
#        SANITIZE    '', 'thread', or 'address' — forwarded to PROMPT_SANITIZE
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-ci}"
LOG_DIR="${LOG_DIR:-${BUILD_DIR}}"
SANITIZE="${SANITIZE:-}"
mkdir -p "${LOG_DIR}"

cmake -B "${BUILD_DIR}" -S . \
  -DCMAKE_CXX_FLAGS="-Werror" \
  -DPROMPT_SANITIZE="${SANITIZE}"
cmake --build "${BUILD_DIR}" -j "$(nproc)" 2>&1 | tee "${LOG_DIR}/build.log"

# No cd: a relative LOG_DIR must keep resolving from the repo root, or the
# tee above would fail (and with pipefail, kill the script) after ctest.
ctest --test-dir "${BUILD_DIR}" --output-on-failure -j "$(nproc)" 2>&1 \
  | tee "${LOG_DIR}/ctest.log"

# Observability smoke: a short sharded Zipf run with tracing on must produce
# exactly one JSONL trace record per batch, each one's depth-0 spans summing
# to its latency_us, each carrying the seal_barrier and kway_merge spans of
# the 2-shard ingest. The trace lands in $LOG_DIR for artifact upload.
"${BUILD_DIR}/tools/promptctl" --dataset=SynD --technique=Prompt \
  --rate=4000 --batches=5 --ingest_shards=2 --zipf=1.0 \
  --trace_out="${LOG_DIR}/smoke-trace.jsonl" --metrics_every=5 \
  2>&1 | tee "${LOG_DIR}/smoke.log"
TRACE_LINES="$(wc -l < "${LOG_DIR}/smoke-trace.jsonl")"
if [[ "${TRACE_LINES}" -ne 5 ]]; then
  echo "observability smoke: expected 5 trace records, got ${TRACE_LINES}" >&2
  exit 1
fi
python3 - "${LOG_DIR}/smoke-trace.jsonl" <<'PYEOF'
import json, sys
for line in open(sys.argv[1]):
    record = json.loads(line)
    batch = record["batch_id"]
    top = sum(s["dur_us"] for s in record["spans"] if s["depth"] == 0)
    if top != record["latency_us"]:
        sys.exit(f"observability smoke: batch {batch}: depth-0 spans sum to "
                 f"{top} us, latency_us is {record['latency_us']}")
    missing = {"seal_barrier", "kway_merge"} - {s["name"] for s in record["spans"]}
    if missing:
        sys.exit(f"observability smoke: batch {batch} lacks {sorted(missing)}")
PYEOF
echo "observability smoke: depth-0 spans tile latency_us in every record," \
  "seal_barrier and kway_merge present"

# Accumulator parity smoke: a seeded 2-shard run must print the TOP-K table
# recorded from the chain transcription of Alg. 1
# (scripts/testdata/accumulator_smoke_topk.txt) byte for byte — the
# accumulator that ships must reproduce its answer. (Only the table body is
# compared; the footer has wall-clock figures.)
"${BUILD_DIR}/tools/promptctl" --dataset=SynD --technique=Prompt \
  --rate=4000 --batches=5 --ingest_shards=2 --zipf=1.0 \
  2>&1 | tee "${LOG_DIR}/accumulator-smoke.log"
sed -n '/^top-/,/^$/p' "${LOG_DIR}/accumulator-smoke.log" \
  > "${LOG_DIR}/accumulator-topk.txt"
if ! diff -u scripts/testdata/accumulator_smoke_topk.txt \
            "${LOG_DIR}/accumulator-topk.txt"; then
  echo "accumulator smoke: TOP-K table diverges from the recorded one" >&2
  exit 1
fi
echo "accumulator smoke: TOP-K table identical to the recorded one"

# Heavy-hitter smoke (DESIGN.md §17): a 1M-key sketch-mode run
# (--cardinality_scale=1.0 puts SynD at its full Table-1 cardinality) must
# stay inside a peak-RSS budget and report nonzero head coverage — i.e. the
# sketch actually promoted heavy keys instead of degenerating to
# tail-only hashing.
"${BUILD_DIR}/tools/promptctl" --dataset=SynD --technique=Prompt \
  --rate=50000 --batches=5 --ingest_shards=2 --zipf=1.0 \
  --cardinality_scale=1.0 --key_mode=sketch --sketch_capacity=4096 \
  2>&1 | tee "${LOG_DIR}/sketch-smoke.log"
SKETCH_COV="$(sed -n 's/^sketch: mean head coverage=\([0-9.]*\).*/\1/p' \
  "${LOG_DIR}/sketch-smoke.log")"
SKETCH_RSS_MB="$(sed -n 's/.*peak_rss=\([0-9.]*\) MB$/\1/p' \
  "${LOG_DIR}/sketch-smoke.log")"
if [[ -z "${SKETCH_COV}" || -z "${SKETCH_RSS_MB}" ]]; then
  echo "sketch smoke: coverage/peak-RSS footer missing from promptctl output" >&2
  exit 1
fi
python3 - "${SKETCH_COV}" "${SKETCH_RSS_MB}" <<'PYEOF'
import sys
coverage, peak_mb = float(sys.argv[1]), float(sys.argv[2])
if coverage <= 0.0:
    sys.exit(f"sketch smoke: head coverage {coverage} must be > 0")
if peak_mb > 128.0:
    sys.exit(f"sketch smoke: peak RSS {peak_mb} MB exceeds the 128 MB budget")
PYEOF
echo "sketch smoke: head coverage ${SKETCH_COV} > 0," \
  "peak RSS ${SKETCH_RSS_MB} MB <= 128 MB"

# Adaptive-switching smoke: a near-uniform run started on Prompt must shed
# robustness (>= 1 technique switch), and every switch must be annotated in
# the trace as an adapt_switch span on the first batch after it.
"${BUILD_DIR}/tools/promptctl" --dataset=SynD --technique=Prompt \
  --rate=4000 --batches=12 --zipf=0.1 --adaptive \
  --trace_out="${LOG_DIR}/adaptive-smoke-trace.jsonl" \
  2>&1 | tee "${LOG_DIR}/adaptive-smoke.log"
SWITCH_SPANS="$(grep -c 'adapt_switch:' "${LOG_DIR}/adaptive-smoke-trace.jsonl")"
if [[ "${SWITCH_SPANS}" -lt 1 ]]; then
  echo "adaptive smoke: expected >=1 adapt_switch trace span, got ${SWITCH_SPANS}" >&2
  exit 1
fi
grep -q 'adaptive: .* switch' "${LOG_DIR}/adaptive-smoke.log" || {
  echo "adaptive smoke: summary line missing from promptctl output" >&2
  exit 1
}

# Telemetry exporter smoke: hold promptctl's embedded HTTP server open after
# a short run and scrape it. Validates the Prometheus exposition and the
# time-series JSON end to end (outside the in-process unit tests).
EXPORT_PORT=19123
"${BUILD_DIR}/tools/promptctl" --dataset=SynD --technique=Prompt \
  --rate=4000 --batches=5 --ingest_shards=2 --zipf=1.0 \
  --serve_metrics_port="${EXPORT_PORT}" --serve_hold_ms=10000 \
  > "${LOG_DIR}/exporter-smoke.log" 2>&1 &
EXPORT_PID=$!
# Poll /timeseries.json until the exporter is up AND the run has completed
# (batches_seen reaches 5) — scraping /metrics mid-run would race the count.
SCRAPE_OK=0
for _ in $(seq 1 50); do
  if curl -fsS "http://127.0.0.1:${EXPORT_PORT}/timeseries.json" \
       -o "${LOG_DIR}/exporter-timeseries.json" 2>/dev/null \
     && python3 -c "
import json, sys
doc = json.load(open('${LOG_DIR}/exporter-timeseries.json'))
sys.exit(0 if doc['batches_seen'] == 5 and len(doc['points']) == 5 else 1)
" 2>/dev/null; then
    SCRAPE_OK=1
    break
  fi
  sleep 0.2
done
if [[ "${SCRAPE_OK}" -ne 1 ]]; then
  echo "exporter smoke: /timeseries.json never reported the full run" >&2
  kill "${EXPORT_PID}" 2>/dev/null || true
  exit 1
fi
curl -fsS "http://127.0.0.1:${EXPORT_PORT}/metrics" \
  -o "${LOG_DIR}/exporter-metrics.txt"
curl -fsS "http://127.0.0.1:${EXPORT_PORT}/healthz" > /dev/null
kill "${EXPORT_PID}" 2>/dev/null || true
wait "${EXPORT_PID}" 2>/dev/null || true
grep -q '^# TYPE prompt_batches_total counter' "${LOG_DIR}/exporter-metrics.txt"
grep -q '^prompt_batches_total 5' "${LOG_DIR}/exporter-metrics.txt"
grep -q '^prompt_batch_latency_us{quantile="0.99"}' "${LOG_DIR}/exporter-metrics.txt"
echo "exporter smoke: /metrics, /timeseries.json, /healthz OK"

# Multi-tenant smoke: two tenants share one ingest stream; each must emit
# its own tenant-labeled autopsy stream (one JSONL row per tenant per batch)
# and the adaptive tenant's escalation must land in the run summary.
"${BUILD_DIR}/tools/promptctl" --queries=examples/two_tenants.query \
  --dataset=SynD --rate=8000 --batches=10 --zipf=1.2 \
  --autopsy_out="${LOG_DIR}/mt-smoke-autopsy.jsonl" \
  2>&1 | tee "${LOG_DIR}/mt-smoke.log"
CALM_ROWS="$(grep -c '"tenant":"calm"' "${LOG_DIR}/mt-smoke-autopsy.jsonl")"
NOISY_ROWS="$(grep -c '"tenant":"noisy"' "${LOG_DIR}/mt-smoke-autopsy.jsonl")"
if [[ "${CALM_ROWS}" -ne 10 || "${NOISY_ROWS}" -ne 10 ]]; then
  echo "multi-tenant smoke: expected 10 autopsy rows per tenant," \
    "got calm=${CALM_ROWS} noisy=${NOISY_ROWS}" >&2
  exit 1
fi
grep -q '^tenant calm' "${LOG_DIR}/mt-smoke.log" || {
  echo "multi-tenant smoke: calm tenant section missing" >&2
  exit 1
}
grep -q '^tenant noisy' "${LOG_DIR}/mt-smoke.log" || {
  echo "multi-tenant smoke: noisy tenant section missing" >&2
  exit 1
}
# Every flag the --queries path does not honour exits 1 naming the flag,
# never silently dropped; metrics snapshots come from the same batch loop
# as a single-query run's.
if "${BUILD_DIR}/tools/promptctl" --queries=examples/two_tenants.query \
     --batches=2 --fault_schedule=kill:1@1 > "${LOG_DIR}/mt-reject.log" 2>&1; then
  echo "multi-tenant smoke: --fault_schedule with --queries was accepted" >&2
  exit 1
fi
grep -q -- '--fault_schedule' "${LOG_DIR}/mt-reject.log" || {
  echo "multi-tenant smoke: the rejection does not name the flag" >&2
  exit 1
}
rm -f "${LOG_DIR}/mt-metrics.jsonl"
"${BUILD_DIR}/tools/promptctl" --queries=examples/two_tenants.query \
  --dataset=SynD --rate=4000 --batches=4 --metrics_every=2 \
  --metrics_out="${LOG_DIR}/mt-metrics.jsonl" \
  2>&1 | tee "${LOG_DIR}/mt-metrics.log"
if [[ ! -s "${LOG_DIR}/mt-metrics.jsonl" ]]; then
  echo "multi-tenant smoke: --metrics_out wrote no snapshot" >&2
  exit 1
fi
echo "multi-tenant smoke: per-tenant autopsy streams, flag rejection and" \
  "metrics snapshots OK"

# Crash-restart durability smoke: run with a durable store and SIGKILL the
# process mid-run (--crash_after raises SIGKILL from inside promptctl — a
# real process death, not a simulated one), then restart in --recover_only
# mode. The recovered TOP-K table must be byte-identical to an uninterrupted
# run of the surviving prefix; fsync=batch means zero torn records here.
# (The store's unit tests themselves run under ctest above, so SANITIZE
# builds cover the segment/recovery code paths too.)
STORE_DIR="${LOG_DIR}/crash-smoke-store"
REF_STORE="${LOG_DIR}/crash-smoke-ref-store"
rm -rf "${STORE_DIR}" "${REF_STORE}"
"${BUILD_DIR}/tools/promptctl" --dataset=SynD --technique=Prompt \
  --rate=4000 --batches=6 --zipf=1.0 \
  --store_dir="${REF_STORE}" --fsync=batch \
  2>&1 | tee "${LOG_DIR}/crash-smoke-ref.log"
set +e
"${BUILD_DIR}/tools/promptctl" --dataset=SynD --technique=Prompt \
  --rate=4000 --batches=12 --zipf=1.0 \
  --store_dir="${STORE_DIR}" --fsync=batch --crash_after=6 \
  > "${LOG_DIR}/crash-smoke-kill.log" 2>&1
KILL_STATUS=$?
set -e
if [[ "${KILL_STATUS}" -ne 137 ]]; then
  echo "crash smoke: expected SIGKILL exit 137, got ${KILL_STATUS}" >&2
  exit 1
fi
"${BUILD_DIR}/tools/promptctl" --dataset=SynD --technique=Prompt \
  --rate=4000 --zipf=1.0 --recover_only --store_dir="${STORE_DIR}" \
  2>&1 | tee "${LOG_DIR}/crash-smoke-recover.log"
grep -q 'durable store: recovered 6 batch(es)' \
  "${LOG_DIR}/crash-smoke-recover.log" || {
  echo "crash smoke: restart did not recover all 6 synced batches" >&2
  exit 1
}
sed -n '/^top-/,/^$/p' "${LOG_DIR}/crash-smoke-ref.log" \
  > "${LOG_DIR}/crash-smoke-ref-topk.txt"
sed -n '/^top-/,/^$/p' "${LOG_DIR}/crash-smoke-recover.log" \
  > "${LOG_DIR}/crash-smoke-recover-topk.txt"
if ! diff -u "${LOG_DIR}/crash-smoke-ref-topk.txt" \
            "${LOG_DIR}/crash-smoke-recover-topk.txt"; then
  echo "crash smoke: recovered TOP-K diverges from the uninterrupted run" >&2
  exit 1
fi
echo "crash smoke: kill-restart TOP-K identical to uninterrupted run"

# Flight-recorder smoke (DESIGN.md §16): record a 12-batch sharded adaptive
# run, replay it from the journal alone, and require bit-identical outcome
# streams (promptctl --replay exits 4 on any divergence). Then diff the
# journal against its own re-recording: zero divergent batches. Journal and
# reports land in $LOG_DIR for artifact upload.
RECORD_DIR="${LOG_DIR}/replay-smoke-journal"
rm -rf "${RECORD_DIR}" "${RECORD_DIR}.replay"
"${BUILD_DIR}/tools/promptctl" --dataset=SynD --technique=Prompt \
  --rate=4000 --batches=12 --ingest_shards=2 --zipf=1.0 --adaptive \
  --record="${RECORD_DIR}" \
  2>&1 | tee "${LOG_DIR}/replay-smoke-record.log"
"${BUILD_DIR}/tools/promptctl" --replay="${RECORD_DIR}" \
  2>&1 | tee "${LOG_DIR}/replay-smoke-replay.log"
grep -q 'journals identical over 12 published batches' \
  "${LOG_DIR}/replay-smoke-replay.log" || {
  echo "replay smoke: replay was not bit-identical over all 12 batches" >&2
  exit 1
}
"${BUILD_DIR}/tools/promptctl" \
  --diff="${RECORD_DIR},${RECORD_DIR}.replay" \
  2>&1 | tee "${LOG_DIR}/replay-smoke-diff.log"
grep -q 'journals identical' "${LOG_DIR}/replay-smoke-diff.log" || {
  echo "replay smoke: --diff found divergence between record and replay" >&2
  exit 1
}
echo "replay smoke: record -> replay -> diff bit-identical"

# Sketch-mode ingest (DESIGN.md §17) replays the same way: the run above with
# a bounded key state, and two tenants over one sketch pipeline. Each must
# replay 12 published batches bit-identically (6 per tenant for the two).
sketch_replay_smoke() {  # <name> <promptctl args...>
  local dir="${LOG_DIR}/replay-smoke-$1-journal"
  shift
  rm -rf "${dir}" "${dir}.replay"
  "${BUILD_DIR}/tools/promptctl" "$@" --key_mode=sketch --sketch_capacity=512 \
    --record="${dir}" 2>&1 | tee "${dir}-record.log"
  "${BUILD_DIR}/tools/promptctl" --replay="${dir}" \
    2>&1 | tee "${dir}-replay.log"
  grep -q 'journals identical over 12 published batches' "${dir}-replay.log" || {
    echo "replay smoke: sketch run ${dir} did not replay bit-identically" >&2
    exit 1
  }
}
sketch_replay_smoke sketch --dataset=SynD --technique=Prompt --rate=4000 \
  --batches=12 --ingest_shards=2 --zipf=1.0 --adaptive
sketch_replay_smoke sketch-tenants --queries=examples/two_tenants.query \
  --batches=6
echo "replay smoke: sketch-mode single- and two-tenant runs bit-identical"
