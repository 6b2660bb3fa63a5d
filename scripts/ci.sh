#!/usr/bin/env sh
# Offline CI for the Diogenes reproduction workspace.
#
# Everything here runs without network access: the workspace has no
# registry dependencies (proptest is an in-repo shim under crates/), so
# `cargo` never needs to touch crates.io.
#
# Usage: scripts/ci.sh
set -eu

cd "$(dirname "$0")/.."

echo "== format =="
cargo fmt --check

echo "== clippy (deny warnings + allocation-churn lints) =="
CLIPPY_DENY="-D warnings -D clippy::redundant_clone -D clippy::inefficient_to_string"
# shellcheck disable=SC2086
cargo clippy --workspace --all-targets -- $CLIPPY_DENY

echo "== tier-1: build + test (every workspace member, property suites and allocation contracts) =="
cargo build --release
cargo test -q

echo "== layerbench: unit tests + smoke (the benchmark builds against this tree) =="
cargo test --offline --manifest-path layerbench/Cargo.toml
cargo run --release --offline --manifest-path layerbench/Cargo.toml -- --smoke

echo "== telemetry smoke (--profile writes a valid self-trace) =="
cargo build --release -p diogenes
# Run from a scratch directory so the committed
# results/TELEMETRY_cumf_als.json is not rewritten with fresh timings.
DIOGENES=$(pwd)/target/release/diogenes
TELEMETRY=$(mktemp -d)
mkdir "$TELEMETRY/results"
(cd "$TELEMETRY" && "$DIOGENES" als --profile --jobs 4 > /dev/null)
TELEMETRY_JSON="$TELEMETRY/results/TELEMETRY_cumf_als.json" python3 - <<'EOF'
import json, os
d = json.load(open(os.environ['TELEMETRY_JSON']))
spans = {s['name'] for s in d['spans']}
expected = {'run_ffm', 'stage1-baseline', 'stage2-detailed-tracing',
            'stage3a-memory-tracing', 'stage3b-data-hashing',
            'stage4-sync-use', 'stage5-analysis'}
missing = expected - spans
assert not missing, f'missing stage spans: {missing}'
phs = {e['ph'] for e in d['traceEvents']}
assert {'M', 'X'} <= phs, f'trace needs metadata + duration events, got {phs}'
assert any(w['thread'].startswith('ffm-pool-') for w in d['workers']), \
    f"no pool-worker track: {[w['thread'] for w in d['workers']]}"
# Worker busy time is honest: a pool task spends at most 1 ms + 10% of
# its length outside the stage spans it contains (no waiting inside).
stages = expected | {'discovery', 'stage3-merge'}
xs = [e for e in d['traceEvents'] if e['ph'] == 'X']
for t in (e for e in xs if e['name'] == 'pool.task'):
    lo, hi = t['ts'], t['ts'] + t['dur']
    inside = sum(e['dur'] for e in xs if e['tid'] == t['tid'] and e['name'] in stages
                 and lo <= e['ts'] and e['ts'] + e['dur'] <= hi)
    assert t['dur'] - inside <= 1000 + 0.1 * t['dur'], \
        f"pool.task on track {t['tid']}: {t['dur'] - inside:.0f} of {t['dur']:.0f} us outside stages"
print(f"telemetry smoke ok: {len(d['traceEvents'])} trace events, "
      f"{len(d['workers'])} worker tracks, {len(d['counters'])} counters")
EOF
rm -rf "$TELEMETRY"

echo "== concurrent sweep smoke (two identical sweeps on one cache, byte-identical) =="
SMOKE=$(mktemp -d)
./target/release/diogenes sweep als --jobs 2 --no-cache \
    --out "$SMOKE/full.json" > /dev/null 2>&1
# Both sweeps run at once on one cache directory, so both processes
# write the same entries concurrently, meeting only at the store's
# atomic rename.
./target/release/diogenes sweep als --jobs 2 --cache-dir "$SMOKE/cache" \
    --out "$SMOKE/a.json" > /dev/null 2>&1 &
SWEEP_A=$!
./target/release/diogenes sweep als --jobs 2 --cache-dir "$SMOKE/cache" \
    --out "$SMOKE/b.json" > /dev/null 2>&1 &
SWEEP_B=$!
wait "$SWEEP_A" || { echo "concurrent sweep a failed"; exit 1; }
wait "$SWEEP_B" || { echo "concurrent sweep b failed"; exit 1; }
cmp "$SMOKE/full.json" "$SMOKE/a.json"
cmp "$SMOKE/full.json" "$SMOKE/b.json"
if ls -A "$SMOKE/cache" | grep -q '^\.tmp-'; then
    echo "temp files left in the cache: $(ls -A "$SMOKE/cache" | grep '^\.tmp-')"
    exit 1
fi
./target/release/diogenes cache --dir "$SMOKE/cache" | grep -q "entries"
./target/release/diogenes cache --dir "$SMOKE/cache" --clear-all > /dev/null
rm -rf "$SMOKE"
echo "concurrent sweep smoke ok"

echo "== bad arguments exit 2 before any work (scale, view, fold, compare-view flags, a sweep field named by two axes) =="
BAD_STDERR=$(mktemp)
expect_exit_2() {
    set +e
    "$@" > /dev/null 2> "$BAD_STDERR"
    status=$?
    set -e
    [ "$status" -eq 2 ] || { echo "expected exit 2, got $status: $*"; exit 1; }
    if grep -q "collection took" "$BAD_STDERR"; then
        echo "ran the pipeline before rejecting: $*"
        exit 1
    fi
}
expect_exit_2 ./target/release/diogenes als --scale papr
expect_exit_2 ./target/release/diogenes als --view bogus
expect_exit_2 ./target/release/diogenes als --view fold --fold cudaFreee
expect_exit_2 ./target/release/diogenes als --view compare --json x.json
expect_exit_2 ./target/release/diogenes sweep gaussian --no-cache \
    --axis cost.free_base_ns=1000,2000 --axis cost.free_base_ns=3000
rm -f "$BAD_STDERR"
echo "bad-argument checks ok"

echo "== serve smoke (batch and streamed reports byte-identical to CLI, epochs, /metrics + /trace live, clean drain) =="
SERVE=$(mktemp -d)
./target/release/diogenes als --jobs 2 --json "$SERVE/cli.json" > /dev/null
./target/release/diogenes serve --addr 127.0.0.1:0 --no-cache \
    --flight-recorder-bytes 1048576 \
    > "$SERVE/serve.log" 2> /dev/null &
SERVE_PID=$!
# The first stdout line announces the bound (ephemeral) address.
i=0
while ! grep -q "listening on" "$SERVE/serve.log" 2> /dev/null; do
    i=$((i + 1))
    [ "$i" -le 100 ] || { echo "serve never announced its address"; exit 1; }
    kill -0 "$SERVE_PID" 2> /dev/null || { echo "serve died on startup"; exit 1; }
    sleep 0.1
done
SERVE_ADDR=$(awk '/listening on/ {print $NF; exit}' "$SERVE/serve.log")
SERVE_DIR="$SERVE" SERVE_ADDR="$SERVE_ADDR" python3 - <<'EOF'
import http.client, json, os, sys, time

addr = os.environ['SERVE_ADDR']
host, port = addr.rsplit(':', 1)
out = os.path.join(os.environ['SERVE_DIR'], 'served.json')
cli = open(os.path.join(os.environ['SERVE_DIR'], 'cli.json'), 'rb').read()

def req(method, path, body=None):
    c = http.client.HTTPConnection(host, int(port), timeout=30)
    c.request(method, path, body)
    r = c.getresponse()
    data = r.read()
    c.close()
    return r.status, data

def submit_and_wait(path, spec):
    status, body = req('POST', path, json.dumps(spec))
    assert status == 200, (status, body)
    location = json.loads(body)['location']
    for _ in range(600):
        status, body = req('GET', location)
        if status != 202:
            break
        time.sleep(0.1)
    assert status == 200, (status, body)
    return location, body

_, body = submit_and_wait('/run', {'app': 'als'})
open(out, 'wb').write(body)

# A streamed job end to end: its report is the CLI's bytes, and its
# epochs are served by index once published.
location, body = submit_and_wait('/run?stream=1', {'app': 'als', 'stream_window': 64})
assert body == cli, 'streamed report differs from the CLI report'
status, body = req('GET', location + '?epoch=0')
assert status == 200, (status, body)
assert json.loads(body)['calls_consumed'] == 64, body[:200]
status, body = req('GET', location + '?epoch=100000')
assert status == 404, (status, body)

status, body = req('GET', '/stats')
assert status == 200, (status, body)
stats = json.loads(body)
assert stats['jobs']['computed'] == 2, stats
assert stats['jobs']['failed'] == 0, stats
assert stats['jobs']['rejected'] == 0 and stats['jobs']['evicted'] == 0, stats
assert 'queue_depth' in stats, stats

# /metrics: Prometheus text exposition with the daemon's live counters.
status, body = req('GET', '/metrics')
assert status == 200, (status, body)
text = body.decode()
assert text.endswith('\n'), 'exposition must end with a newline'
lines = [l for l in text.splitlines() if l]
helps = [l for l in lines if l.startswith('# HELP ')]
types = [l for l in lines if l.startswith('# TYPE ')]
samples = [l for l in lines if not l.startswith('#')]
assert len(helps) == len(types) and len(types) > 10, (len(helps), len(types))
for l in samples:
    name, _, value = l.rpartition(' ')
    assert name, f'unparseable sample line {l!r}'
    float(value)  # every sample value is numeric
def sample(head):
    hits = [l for l in samples if l.startswith(head)]
    assert hits, f'no sample {head!r} in exposition'
    return float(hits[0].rpartition(' ')[2])
assert sample('diogenes_http_requests_total{route="POST /run"}') >= 1
assert sample('diogenes_http_request_duration_ns_count{route="POST /run"}') >= 1
assert sample('diogenes_jobs_computed_total') == 2
assert sample('diogenes_flight_recorder_events') > 0
assert sample('diogenes_flight_recorder_bytes') <= sample('diogenes_flight_recorder_budget_bytes')
# Ingest buffers: every request body lands in a pooled buffer that is
# recycled after the response — by this point (several requests into
# the session) the pool must be seeing reuse.
assert sample('diogenes_ingest_buffer_reuse_total') >= 1
assert sample('diogenes_ingest_buffer_allocs_total') >= 1

# /trace: the flight recorder dumps as a Chrome trace; validated
# structurally by `diogenes trace-check` after shutdown.
status, body = req('GET', '/trace')
assert status == 200, (status, body)
trace = json.loads(body)
durations = [e for e in trace['traceEvents'] if e['ph'] == 'X']
assert durations, 'flight dump has no duration events'
assert any(e['name'].startswith('serve.job') for e in durations), \
    f'no serve.job span in {[e["name"] for e in durations][:10]}'
open(os.path.join(os.environ['SERVE_DIR'], 'trace.json'), 'wb').write(body)

status, body = req('POST', '/shutdown')
assert status == 200, (status, body)
print(f"serve smoke ok: report {len(open(out,'rb').read())} bytes, "
      f"{len(samples)} metric samples, {len(durations)} flight spans, "
      f"stats {stats['jobs']}")
EOF
wait "$SERVE_PID"
cmp "$SERVE/cli.json" "$SERVE/served.json"
./target/release/diogenes trace-check "$SERVE/trace.json"
rm -rf "$SERVE"

echo "ci: all green"
