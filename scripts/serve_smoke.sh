#!/bin/sh
# serve_smoke.sh — end-to-end smoke test of the becaused serving daemon.
#
# Builds bin/becaused, starts it on an ephemeral port, POSTs a small
# inference twice (asserting 200 and a cache hit on the repeat), checks the
# cache counter on /metrics, drives the job API end to end — an inline
# ?stream=1 SSE inference, a GET /v1/jobs/{id} status poll (state, trace)
# and a buffered-events SSE replay — exercises the named-scenario API
# (list, a full server-side scenario run, cache hit on repeat, 404 on
# unknown names) and the observation-model field (a churn-model request,
# cache hit on its repeat, miss across models, 422 on unknown model
# names), checks that an interval mass of 1 is a 422 naming hdpi_mass —
# then SIGTERMs the daemon and asserts
# a clean drain (exit 0). Needs only sh + curl + the Go toolchain.
set -eu

cd "$(dirname "$0")/.."

log() { echo "serve-smoke: $*"; }
fail() { log "FAIL: $*"; exit 1; }

go build -o bin/becaused ./cmd/becaused

OUT=$(mktemp)
BODY=$(mktemp)
SSE=$(mktemp)
trap 'kill "$PID" 2>/dev/null || true; rm -f "$OUT" "$BODY" "$SSE"' EXIT

bin/becaused -addr 127.0.0.1:0 -chain-workers 2 >"$OUT" 2>&1 &
PID=$!

# The daemon prints "becaused: listening on <addr>" once bound.
ADDR=""
for _ in $(seq 1 50); do
    ADDR=$(sed -n 's/^becaused: listening on //p' "$OUT")
    [ -n "$ADDR" ] && break
    kill -0 "$PID" 2>/dev/null || fail "daemon died during startup: $(cat "$OUT")"
    sleep 0.1
done
[ -n "$ADDR" ] || fail "daemon never reported its address: $(cat "$OUT")"
log "daemon up on $ADDR (pid $PID)"

REQ='{"observations":[{"path":[64500,64510],"positive":true},{"path":[64500,64520],"positive":false},{"path":[64501,64510],"positive":true}],"options":{"seed":1,"mh_sweeps":200,"mh_burn_in":50,"hmc_iterations":50,"hmc_burn_in":10}}'

CODE=$(curl -s -o "$BODY" -w '%{http_code}' "http://$ADDR/healthz")
[ "$CODE" = 200 ] || fail "healthz returned $CODE"

CODE=$(curl -s -o "$BODY" -w '%{http_code}' -X POST -d "$REQ" "http://$ADDR/v1/infer")
[ "$CODE" = 200 ] || fail "first inference returned $CODE: $(cat "$BODY")"
grep -q '"schema_version":1' "$BODY" || fail "response missing schema_version: $(cat "$BODY")"
grep -q '"cached":false' "$BODY" || fail "first response claims to be cached: $(cat "$BODY")"
log "first inference OK (miss)"

HDRS=$(mktemp)
CODE=$(curl -s -o "$BODY" -D "$HDRS" -w '%{http_code}' -X POST -d "$REQ" "http://$ADDR/v1/infer")
[ "$CODE" = 200 ] || fail "repeat inference returned $CODE: $(cat "$BODY")"
grep -qi '^x-cache: hit' "$HDRS" || fail "repeat query not a cache hit: $(cat "$HDRS")"
rm -f "$HDRS"
grep -q '"cached":true' "$BODY" || fail "repeat response not marked cached: $(cat "$BODY")"
log "repeat inference served from cache"

curl -s "http://$ADDR/metrics" >"$BODY"
grep -q '^because_serve_cache_hits_total 1$' "$BODY" || fail "cache hit counter wrong: $(grep because_serve "$BODY" || true)"
grep -q '^because_serve_cache_misses_total 1$' "$BODY" || fail "cache miss counter wrong: $(grep because_serve "$BODY" || true)"
log "metrics exposition OK"

# Job API, live: a fresh query (new seed, so no cache hit) over the inline
# ?stream=1 SSE mode must deliver a job frame, at least one progress
# event, and a terminal result frame on the same response.
REQ2='{"observations":[{"path":[64500,64510],"positive":true},{"path":[64500,64520],"positive":false},{"path":[64501,64510],"positive":true}],"options":{"seed":2,"mh_sweeps":200,"mh_burn_in":50,"hmc_iterations":50,"hmc_burn_in":10}}'
curl -s -N --max-time 60 -X POST -d "$REQ2" "http://$ADDR/v1/infer?stream=1" >"$SSE" \
    || fail "inline SSE inference failed: $(cat "$SSE")"
grep -q '^event: job$' "$SSE" || fail "stream carried no job frame: $(cat "$SSE")"
PROGRESS=$(grep -c '^event: progress$' "$SSE") || true
[ "${PROGRESS:-0}" -ge 1 ] || fail "stream carried no progress events: $(cat "$SSE")"
grep -q '^event: result$' "$SSE" || fail "stream carried no result frame: $(cat "$SSE")"
JOB=$(sed -n 's/.*"job_id":"\(job-[0-9]*\)".*/\1/p' "$SSE" | head -n 1)
[ -n "$JOB" ] || fail "stream carried no job ID: $(cat "$SSE")"
log "inline SSE stream OK ($PROGRESS progress events, $JOB)"

# The job record stays queryable afterwards: state, event count and the
# deterministic request trace.
CODE=$(curl -s -o "$BODY" -w '%{http_code}' "http://$ADDR/v1/jobs/$JOB")
[ "$CODE" = 200 ] || fail "job status poll returned $CODE: $(cat "$BODY")"
grep -q '"state":"done"' "$BODY" || fail "job not done: $(cat "$BODY")"
grep -q '"trace_id"' "$BODY" || fail "job status carries no trace: $(cat "$BODY")"
log "job status poll OK"

# The events endpoint replays the buffered progress gaplessly and closes
# with a done frame once the job is terminal.
curl -s -N --max-time 10 "http://$ADDR/v1/jobs/$JOB/events" >"$SSE" \
    || fail "job events stream failed: $(cat "$SSE")"
grep -q '^event: progress$' "$SSE" || fail "events replay carried no progress: $(cat "$SSE")"
grep -q '^event: done$' "$SSE" || fail "events replay carried no done frame: $(cat "$SSE")"
grep -q '"seq":0' "$SSE" || fail "events replay does not start at seq 0: $(cat "$SSE")"
log "job events replay OK"

# Named-scenario API: the corpus listing, then a full scenario execution
# (campaign + inference server-side) and a cache hit on the repeat.
CODE=$(curl -s -o "$BODY" -w '%{http_code}' "http://$ADDR/v1/scenarios")
[ "$CODE" = 200 ] || fail "scenario list returned $CODE: $(cat "$BODY")"
grep -q '"name":"small-world"' "$BODY" || fail "scenario list missing small-world: $(cat "$BODY")"
log "scenario list OK"

CODE=$(curl -s -o "$BODY" -w '%{http_code}' --max-time 120 -X POST "http://$ADDR/v1/scenarios/small-world/infer")
[ "$CODE" = 200 ] || fail "scenario inference returned $CODE: $(cat "$BODY")"
grep -q '"cached":false' "$BODY" || fail "first scenario response claims to be cached: $(cat "$BODY")"
grep -q '"name":"small-world"' "$BODY" || fail "scenario outcome missing name: $(cat "$BODY")"
grep -q '"failures"' "$BODY" && fail "scenario expectations failed: $(cat "$BODY")"
log "scenario inference OK (miss)"

HDRS=$(mktemp)
CODE=$(curl -s -o "$BODY" -D "$HDRS" -w '%{http_code}' -X POST "http://$ADDR/v1/scenarios/small-world/infer")
[ "$CODE" = 200 ] || fail "repeat scenario inference returned $CODE: $(cat "$BODY")"
grep -qi '^x-cache: hit' "$HDRS" || fail "repeat scenario query not a cache hit: $(cat "$HDRS")"
rm -f "$HDRS"
grep -q '"cached":true' "$BODY" || fail "repeat scenario response not marked cached: $(cat "$BODY")"
log "repeat scenario inference served from cache"

CODE=$(curl -s -o "$BODY" -w '%{http_code}' -X POST "http://$ADDR/v1/scenarios/no-such/infer")
[ "$CODE" = 404 ] || fail "unknown scenario returned $CODE, want 404: $(cat "$BODY")"
log "unknown scenario rejected with 404"

# Observation models: a churn-model request computes fresh (the model is
# part of the cache key), repeats hit, and the same observations under the
# default model miss — distinct models never share cache entries.
MREQ='{"observations":[{"path":[64500,64510],"positive":true},{"path":[64500,64520],"positive":false},{"path":[64501,64510],"positive":true}],"options":{"seed":9,"mh_sweeps":200,"mh_burn_in":50,"hmc_iterations":50,"hmc_burn_in":10,"model":"churn","churn_rate":0.05}}'
CODE=$(curl -s -o "$BODY" -w '%{http_code}' -X POST -d "$MREQ" "http://$ADDR/v1/infer")
[ "$CODE" = 200 ] || fail "churn-model inference returned $CODE: $(cat "$BODY")"
grep -q '"cached":false' "$BODY" || fail "first churn-model response claims to be cached: $(cat "$BODY")"
grep -q '"model":"churn"' "$BODY" || fail "churn-model result not stamped with the model: $(cat "$BODY")"
log "churn-model inference OK (miss)"

HDRS=$(mktemp)
CODE=$(curl -s -o "$BODY" -D "$HDRS" -w '%{http_code}' -X POST -d "$MREQ" "http://$ADDR/v1/infer")
[ "$CODE" = 200 ] || fail "repeat churn-model inference returned $CODE: $(cat "$BODY")"
grep -qi '^x-cache: hit' "$HDRS" || fail "repeat churn-model query not a cache hit: $(cat "$HDRS")"
rm -f "$HDRS"
log "repeat churn-model inference served from cache"

DREQ=$(printf '%s' "$MREQ" | sed 's/,"model":"churn","churn_rate":0.05//')
HDRS=$(mktemp)
CODE=$(curl -s -o "$BODY" -D "$HDRS" -w '%{http_code}' -X POST -d "$DREQ" "http://$ADDR/v1/infer")
[ "$CODE" = 200 ] || fail "default-model inference returned $CODE: $(cat "$BODY")"
grep -qi '^x-cache: miss' "$HDRS" || fail "default model shared the churn model's cache entry: $(cat "$HDRS")"
rm -f "$HDRS"
log "cache keyed by model (miss across models)"

BADREQ=$(printf '%s' "$MREQ" | sed 's/"model":"churn"/"model":"rov"/')
CODE=$(curl -s -o "$BODY" -w '%{http_code}' -X POST -d "$BADREQ" "http://$ADDR/v1/infer")
[ "$CODE" = 422 ] || fail "unknown model returned $CODE, want 422: $(cat "$BODY")"
grep -q 'model' "$BODY" || fail "unknown-model error does not name the field: $(cat "$BODY")"
log "unknown model rejected with 422"

# An interval mass of 1 is refused up front, never run to a 500.
MASSREQ=$(printf '%s' "$MREQ" | sed 's/"seed":9/"seed":9,"hdpi_mass":1/')
CODE=$(curl -s -o "$BODY" -w '%{http_code}' -X POST -d "$MASSREQ" "http://$ADDR/v1/infer")
[ "$CODE" = 422 ] || fail "hdpi_mass 1 returned $CODE, want 422: $(cat "$BODY")"
grep -q '"field":"hdpi_mass"' "$BODY" || fail "hdpi_mass error does not name the field: $(cat "$BODY")"
log "hdpi_mass 1 rejected with 422"

kill -TERM "$PID"
if ! wait "$PID"; then
    fail "daemon exited non-zero after SIGTERM: $(cat "$OUT")"
fi
grep -q 'becaused: drained, exiting' "$OUT" || fail "daemon did not report a clean drain: $(cat "$OUT")"
log "SIGTERM drained cleanly"
log "PASS"
