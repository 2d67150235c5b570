#!/usr/bin/env bash
# End-to-end smoke for the audit service. Two modes:
#
#   ./scripts/smoke.sh            base legs: build the CLI, start
#       `indaas serve`, submit an audit over HTTP, poll it to completion and
#       diff the JSON report (elapsed zeroed) against the golden file shared
#       with the Go e2e test; assert an identical resubmission is a cache
#       hit; run a placement recommendation against its golden file;
#       exercise the /v1/depdb ingest path; and assert an ingest no audited
#       server reads leaves an audit's cache_key, and so its cached result,
#       in place.
#
#   ./scripts/smoke.sh restart    durability leg: serve with -data-dir,
#       submit an audit and ingest records, kill -9 the daemon, restart it
#       over the same directory, and assert the report is served from disk
#       (no recomputation, store-hit metric increments) and the ingested
#       fingerprint survived.
#
#   ./scripts/smoke.sh chaos      survivability legs: (A) kill -9 the daemon
#       while a job is mid-computation (-chaos delay holds the worker) and
#       assert the restarted daemon re-enqueues it from the journal, finishes
#       it under the same id, and produces the golden report; (B) inject
#       ENOSPC into store writes and assert the daemon trips into degraded
#       memory-only serving (healthz reports it), keeps answering audits, and
#       restores durable mode once writes succeed again.
#
#   ./scripts/smoke.sh pia        private-audit leg: serve with -data-dir,
#       register two provider component sets (distinct fingerprints), run a
#       served P-SOP private audit and diff its report (clock-dependent
#       fields zeroed) against the golden file; assert resubmission is a
#       fingerprint-keyed cache hit that runs no new computation and that
#       the private-audit metrics counted the job.
#
#   ./scripts/smoke.sh cluster    clustering legs: boot a 4-node fleet
#       (-peers), push 16 distinct audits through one node and assert each
#       ran on exactly one node's pool (hash ownership; forwards counted),
#       that resubmission through another node is a fleet-wide cache hit,
#       that an ingest through one node converges every peer's DepDB
#       fingerprint before it is acknowledged, and that kill -9 of a peer
#       mid-job leaves the survivors serving everything. Then time the same
#       16-audit batch on a single node (same 1-worker, 300ms-delay build)
#       and require the 4-node fleet to have been >= 2.5x faster.
#
#   ./scripts/smoke.sh stream     streaming leg: serve durable with a rate
#       limit, subscribe a raw SSE watcher over GET /v1/watch, replay agent
#       churn with `indaas loadgen` (whose own watch probe must see re-audit
#       notifications), and assert the SSE watcher streamed re-audits, the
#       429 path throttled at least once, tier hits and memo splices kept
#       re-audits incremental, and computations stayed far below ingested
#       records.
#
# The daemon is always reaped on exit — success, failure, or signal — and
# every HTTP call carries a timeout, so a hung leg fails fast with the
# server log tail instead of leaving an orphan process. Requires curl + jq.
set -euo pipefail
cd "$(dirname "$0")/.."

MODE=${1:-base}
ADDR=${SMOKE_ADDR:-127.0.0.1:7085}
BASE="http://$ADDR"
GOLDEN=internal/auditd/testdata/e2e_report_golden.json
RECOMMEND_GOLDEN=internal/auditd/testdata/e2e_recommend_golden.json
PIA_GOLDEN=internal/auditd/testdata/smoke_private_audit_golden.json
TMP=$(mktemp -d)
SERVE_PID=
SERVE_LOG="$TMP/serve.log"

CLUSTER_PIDS=()

cleanup() {
    status=$?
    if [ -n "${SERVE_PID:-}" ] && kill -0 "$SERVE_PID" 2>/dev/null; then
        kill "$SERVE_PID" 2>/dev/null || true
        wait "$SERVE_PID" 2>/dev/null || true
    fi
    for pid in ${CLUSTER_PIDS+"${CLUSTER_PIDS[@]}"}; do
        if kill -0 "$pid" 2>/dev/null; then
            kill "$pid" 2>/dev/null || true
            wait "$pid" 2>/dev/null || true
        fi
    done
    if [ "$status" -ne 0 ]; then
        if [ -s "$SERVE_LOG" ]; then
            echo "--- server log tail ---" >&2
            tail -n 40 "$SERVE_LOG" >&2
        fi
        for log in "$TMP"/node-*.log; do
            [ -s "$log" ] || continue
            echo "--- $(basename "$log") tail ---" >&2
            tail -n 20 "$log" >&2
        done
    fi
    rm -rf "$TMP"
}
trap cleanup EXIT

die() {
    echo "smoke: $*" >&2
    exit 1
}

# curl with a hard deadline: a wedged daemon fails the leg instead of
# hanging the job (and orphaning the server) forever.
CURL=(curl -sf --max-time 45)

start_daemon() { # extra serve flags...
    "$TMP/indaas" serve -listen "$ADDR" "$@" >>"$SERVE_LOG" 2>&1 &
    SERVE_PID=$!
    for _ in $(seq 100); do
        "${CURL[@]}" "$BASE/healthz" >/dev/null 2>&1 && return 0
        kill -0 "$SERVE_PID" 2>/dev/null || die "daemon exited during startup"
        sleep 0.1
    done
    die "daemon did not become healthy within 10s"
}

stop_daemon() { # [signal]
    kill "${1:--TERM}" "$SERVE_PID" 2>/dev/null || true
    wait "$SERVE_PID" 2>/dev/null || true
    SERVE_PID=
}

submit() { # endpoint json-body → job id on stdout
    local id
    id=$("${CURL[@]}" -X POST -H 'Content-Type: application/json' --data "$2" "$BASE/$1" | jq -r .id) ||
        die "submitting to $1 failed"
    [ -n "$id" ] && [ "$id" != null ] || die "$1 returned no job id"
    echo "$id"
}

wait_done() { # job-id leg-name
    local state
    state=$("${CURL[@]}" "$BASE/v1/audits/$1?wait=30s" | jq -r .state) ||
        die "$2: polling job $1 failed"
    if [ "$state" != done ]; then
        "${CURL[@]}" "$BASE/v1/audits/$1" >&2 || true
        die "$2: job $1 ended in state $state"
    fi
}

metric() { # name → value on stdout (0 when absent)
    "${CURL[@]}" "$BASE/metrics" | awk -v name="$1" '$1 == name {print $2; found=1} END {if (!found) print 0}'
}

go build -o "$TMP/indaas" ./cmd/indaas

if [ "$MODE" = base ]; then
    start_daemon

    # Submit, long-poll to completion, fetch the report.
    ID=$(submit v1/audits @scripts/smoke_request.json)
    wait_done "$ID" audit
    "${CURL[@]}" "$BASE/v1/audits/$ID/report" > "$TMP/report.json"
    diff <(jq -S '.audits[].elapsed_ns = 0' "$TMP/report.json") <(jq -S . "$GOLDEN")

    # An identical resubmission must be answered from the result cache.
    CACHED=$("${CURL[@]}" -X POST -H 'Content-Type: application/json' \
        --data @scripts/smoke_request.json "$BASE/v1/audits" | jq -r '.cached == true and .state == "done"')
    [ "$CACHED" = true ] || die "identical resubmission was not a cache hit"
    [ "$(metric auditd_cache_hits_total)" = 1 ] || die "cache-hit metric did not increment"

    # Placement recommendation: submit the choose-2-of-6 search, poll it, and
    # diff the ranking (elapsed zeroed) against its golden file.
    RID=$(submit v1/recommend @scripts/recommend_request.json)
    wait_done "$RID" recommend
    "${CURL[@]}" "$BASE/v1/audits/$RID/report" > "$TMP/recommend.json"
    diff <(jq -S '.elapsed_ns = 0' "$TMP/recommend.json") <(jq -S . "$RECOMMEND_GOLDEN")

    # DepDB ingest: push the same records, then a record-less recommendation
    # over the ingested data must reproduce the same top-1 deployment.
    FP=$(jq '{records: .records}' scripts/recommend_request.json | \
        "${CURL[@]}" -X POST -H 'Content-Type: application/json' --data @- "$BASE/v1/depdb" | jq -r .fingerprint)
    { [ -n "$FP" ] && [ "$FP" != null ]; } || die "ingest returned no fingerprint"
    IID=$(submit v1/recommend "$(jq -c 'del(.records)' scripts/recommend_request.json)")
    wait_done "$IID" ingested-recommend
    TOP_INGESTED=$("${CURL[@]}" "$BASE/v1/audits/$IID/report" | jq -c '.rankings[0].nodes')
    TOP_INLINE=$(jq -c '.rankings[0].nodes' "$TMP/recommend.json")
    [ "$TOP_INGESTED" = "$TOP_INLINE" ] || die "ingested top-1 $TOP_INGESTED != inline top-1 $TOP_INLINE"

    # Delta audits: audit the server database, ingest one record no audited
    # deployment depends on (which changes the DB fingerprint but not the
    # records the audit reads), and re-submit. The content address names
    # those records, so the re-audit is a plain cache hit under the same
    # cache_key — no new computation — with a byte-identical report.
    DELTA_BODY='{"deployments":[{"name":"n1+n3","servers":["n1","n3"]}]}'
    DID=$(submit v1/audits "$DELTA_BODY")
    wait_done "$DID" delta-cold-audit
    DKEY=$("${CURL[@]}" "$BASE/v1/audits/$DID" | jq -r .cache_key)
    "${CURL[@]}" "$BASE/v1/audits/$DID/report" > "$TMP/delta-before.json"
    COMPUTATIONS_BEFORE=$(metric auditd_computations_total)

    "${CURL[@]}" -X POST -H 'Content-Type: application/json' \
        --data '{"records":[{"kind":"hardware","hw":"spare-1","type":"NIC","dep":"spare-1-x520"}]}' \
        "$BASE/v1/depdb" >/dev/null || die "delta ingest failed"

    DHIT=$("${CURL[@]}" -X POST -H 'Content-Type: application/json' --data "$DELTA_BODY" "$BASE/v1/audits")
    [ "$(jq -r --arg key "$DKEY" '.cached == true and .state == "done" and .cache_key == $key' <<<"$DHIT")" = true ] ||
        die "re-audit after unrelated ingest was not a cache hit under $DKEY: $DHIT"
    DHID=$(jq -r .id <<<"$DHIT")
    "${CURL[@]}" "$BASE/v1/audits/$DHID/report" > "$TMP/delta-after.json"
    diff "$TMP/delta-before.json" "$TMP/delta-after.json" || die "re-served report drifted"
    [ "$(metric auditd_computations_total)" = "$COMPUTATIONS_BEFORE" ] ||
        die "re-audit after an unrelated ingest ran a computation"

    # Telemetry: the cold audit's trace must break its latency into phases
    # (queue-wait, graph-build, minimal-rgs at minimum), and the end-to-end
    # job-duration histogram must be on /metrics.
    TRACE=$("${CURL[@]}" "$BASE/v1/jobs/$ID/trace")
    PHASES=$(jq '.trace | length' <<<"$TRACE")
    [ "$PHASES" -ge 3 ] || die "cold audit trace has $PHASES phases, want >= 3: $TRACE"
    jq -e '[.trace[].name] | contains(["queue-wait","graph-build","minimal-rgs"])' <<<"$TRACE" >/dev/null ||
        die "cold audit trace misses a pipeline phase: $TRACE"
    # Read the page whole first: grep -q stops at its first match, and under
    # pipefail the curl it cut off would fail the check.
    METRICS=$("${CURL[@]}" "$BASE/metrics")
    grep -q '^auditd_job_duration_seconds_bucket{le=' <<<"$METRICS" ||
        die "/metrics lacks the auditd_job_duration_seconds histogram"

    echo "smoke OK: report + recommendation match goldens; cache, ingest, delta-audit and trace legs confirmed"
    exit 0
fi

if [ "$MODE" = restart ]; then
    DATA="$TMP/data"
    start_daemon -data-dir "$DATA"

    # Compute an audit and ingest records while the first daemon runs.
    ID=$(submit v1/audits @scripts/smoke_request.json)
    wait_done "$ID" pre-restart-audit
    "${CURL[@]}" "$BASE/v1/audits/$ID/report" > "$TMP/report-before.json"
    diff <(jq -S '.audits[].elapsed_ns = 0' "$TMP/report-before.json") <(jq -S . "$GOLDEN")

    FP=$(jq '{records: .records}' scripts/recommend_request.json | \
        "${CURL[@]}" -X POST -H 'Content-Type: application/json' --data @- "$BASE/v1/depdb" | jq -r .fingerprint)
    { [ -n "$FP" ] && [ "$FP" != null ]; } || die "ingest returned no fingerprint"
    RID=$(submit v1/recommend "$(jq -c 'del(.records)' scripts/recommend_request.json)")
    wait_done "$RID" pre-restart-recommend
    RKEY=$("${CURL[@]}" "$BASE/v1/audits/$RID" | jq -r .cache_key)

    # Hard kill: no graceful shutdown may help the daemon persist anything.
    stop_daemon -KILL

    start_daemon -data-dir "$DATA"

    # The restarted daemon serves the same DepDB fingerprint...
    FP_AFTER=$("${CURL[@]}" "$BASE/healthz" | jq -r .db_fingerprint)
    [ "$FP_AFTER" = "$FP" ] || die "fingerprint changed across restart: $FP_AFTER != $FP"

    # ...answers the audit from disk without recomputing...
    HIT=$("${CURL[@]}" -X POST -H 'Content-Type: application/json' \
        --data @scripts/smoke_request.json "$BASE/v1/audits")
    [ "$(jq -r '.cached == true and .disk_hit == true and .state == "done"' <<<"$HIT")" = true ] ||
        die "post-restart audit was not a disk hit: $HIT"
    HID=$(jq -r .id <<<"$HIT")
    "${CURL[@]}" "$BASE/v1/audits/$HID/report" > "$TMP/report-after.json"
    diff "$TMP/report-before.json" "$TMP/report-after.json"

    # ...and the record-less recommendation resolves to the same content
    # address and is served from disk too.
    RHIT=$("${CURL[@]}" -X POST -H 'Content-Type: application/json' \
        --data "$(jq -c 'del(.records)' scripts/recommend_request.json)" "$BASE/v1/recommend")
    [ "$(jq -r .cache_key <<<"$RHIT")" = "$RKEY" ] || die "recommend cache key drifted across restart"
    [ "$(jq -r '.disk_hit == true and .state == "done"' <<<"$RHIT")" = true ] ||
        die "post-restart recommend was not a disk hit: $RHIT"

    [ "$(metric auditd_store_hits_total)" = 2 ] || die "store-hit metric is $(metric auditd_store_hits_total), want 2"
    [ "$(metric auditd_computations_total)" = 0 ] || die "restarted daemon recomputed instead of serving from disk"

    # The store survives an offline integrity check after the kill -9.
    stop_daemon
    "$TMP/indaas" store verify -data-dir "$DATA" >/dev/null || die "store verify failed after hard kill"

    echo "smoke OK: report and DepDB fingerprint survived kill -9; served from disk with zero recomputation"
    exit 0
fi

if [ "$MODE" = chaos ]; then
    # Leg A: kill -9 mid-job. The 3s delay hook parks the worker inside the
    # computation, guaranteeing the kill lands after the job is journaled but
    # before it completes.
    DATA="$TMP/data"
    start_daemon -data-dir "$DATA" -chaos delay=3s
    ID=$(submit v1/audits @scripts/smoke_request.json)
    stop_daemon -KILL

    # The restarted daemon (no chaos) must recover the journaled job under
    # its original id and finish it: same golden report as a clean run.
    start_daemon -data-dir "$DATA"
    wait_done "$ID" recovered-audit
    ST=$("${CURL[@]}" "$BASE/v1/audits/$ID")
    [ "$(jq -r .recovered <<<"$ST")" = true ] || die "finished job was not flagged recovered: $ST"
    "${CURL[@]}" "$BASE/v1/audits/$ID/report" > "$TMP/report-recovered.json"
    diff <(jq -S '.audits[].elapsed_ns = 0' "$TMP/report-recovered.json") <(jq -S . "$GOLDEN")
    [ "$(metric auditd_jobs_recovered_total)" = 1 ] || die "auditd_jobs_recovered_total did not increment"
    stop_daemon
    "$TMP/indaas" store verify -data-dir "$DATA" >/dev/null || die "store verify failed after crash recovery"

    # Leg B: ENOSPC. Write 1 is the new segment's magic; the first audit's
    # journal (write 2) and result (write 3) both fail, tripping the breaker
    # at the threshold of 2.
    DATA2="$TMP/data2"
    start_daemon -data-dir "$DATA2" -chaos enospc=2:2 \
        -store-failure-threshold 2 -store-retry-interval 2s
    ID=$(submit v1/audits @scripts/smoke_request.json)
    wait_done "$ID" enospc-audit
    for _ in $(seq 50); do
        [ "$(metric auditd_degraded)" = 1 ] && break
        sleep 0.1
    done
    HEALTH=$("${CURL[@]}" "$BASE/healthz")
    [ "$(jq -r .status <<<"$HEALTH")" = degraded ] || die "healthz not degraded after ENOSPC: $HEALTH"
    [ "$(jq -r .durable <<<"$HEALTH")" = false ] || die "degraded healthz still claims durable: $HEALTH"
    [ "$(jq -r '.store_errors >= 2' <<<"$HEALTH")" = true ] || die "store_errors missing from healthz: $HEALTH"

    # A degraded daemon keeps serving: a distinct audit completes in memory.
    ID2=$(submit v1/audits "$(jq -c '.deployments[0].name = "degraded-alt"' scripts/smoke_request.json)")
    wait_done "$ID2" degraded-audit
    [ "$(metric auditd_store_breaker_trips_total)" = 1 ] || die "breaker trip metric did not increment"

    # After the retry interval the next write probes the (now fault-free)
    # store and restores durable mode.
    sleep 2.5
    ID3=$(submit v1/audits "$(jq -c '.deployments[0].name = "probe-alt"' scripts/smoke_request.json)")
    wait_done "$ID3" probe-audit
    for _ in $(seq 50); do
        [ "$(metric auditd_degraded)" = 0 ] && break
        sleep 0.1
    done
    HEALTH=$("${CURL[@]}" "$BASE/healthz")
    [ "$(jq -r .status <<<"$HEALTH")" = ok ] || die "healthz still degraded after probe: $HEALTH"
    [ "$(jq -r .durable <<<"$HEALTH")" = true ] || die "durable mode not restored: $HEALTH"
    stop_daemon
    "$TMP/indaas" store verify -data-dir "$DATA2" >/dev/null || die "store verify failed after degraded run"

    echo "smoke OK: journaled job survived kill -9 with a golden report; ENOSPC degraded to memory-only and recovered to durable"
    exit 0
fi

if [ "$MODE" = pia ]; then
    DATA="$TMP/data"
    start_daemon -data-dir "$DATA"

    # Register the two provider component sets; the daemon answers each with
    # its canonical dataset fingerprint, and different sets must get
    # different fingerprints (they key the private-audit content address).
    FPA=$("${CURL[@]}" -X POST -H 'Content-Type: application/json' \
        --data '{"name":"CloudA","components":["pkg:linux-image","pkg:libc6","pkg:openssl","pkg:nginx","pkg:zookeeper","pkg:java-runtime"]}' \
        "$BASE/v1/providers" | jq -r .fingerprint)
    FPB=$("${CURL[@]}" -X POST -H 'Content-Type: application/json' \
        --data '{"name":"CloudB","components":["pkg:linux-image","pkg:libc6","pkg:openssl","pkg:httpd","pkg:erlang"]}' \
        "$BASE/v1/providers" | jq -r .fingerprint)
    { [ -n "$FPA" ] && [ "$FPA" != null ] && [ -n "$FPB" ] && [ "$FPB" != null ]; } ||
        die "provider registration returned no fingerprint"
    [ "$FPA" != "$FPB" ] || die "distinct datasets share a fingerprint: $FPA"
    [ "$("${CURL[@]}" "$BASE/v1/providers" | jq '.providers | length')" = 2 ] ||
        die "GET /v1/providers does not list both registered providers"

    # Run the P-SOP audit over the registered datasets and diff the report
    # against the golden (wall-clock and crypto-payload sizes zeroed — the
    # modulus is fresh per run; the Jaccard, ranking and fingerprints are
    # deterministic).
    PIA_NORM='.elapsed_ns = 0 | .pairs_per_sec = 0 | .bytes_sent = 0
        | .entries[].elapsed_ns = 0 | .entries[].bytes_sent = 0'
    ID=$(submit v1/private-audits @scripts/private_audit_request.json)
    wait_done "$ID" private-audit
    "${CURL[@]}" "$BASE/v1/audits/$ID/report" > "$TMP/pia.json"
    diff <(jq -S "$PIA_NORM" "$TMP/pia.json") <(jq -S . "$PIA_GOLDEN")

    # Resubmitting the identical audit must be a cache hit keyed on the
    # provider fingerprints: answered done, no new computation.
    COMPUTATIONS_BEFORE=$(metric auditd_computations_total)
    HIT=$("${CURL[@]}" -X POST -H 'Content-Type: application/json' \
        --data @scripts/private_audit_request.json "$BASE/v1/private-audits")
    [ "$(jq -r '.cached == true and .state == "done"' <<<"$HIT")" = true ] ||
        die "identical private-audit resubmission was not a cache hit: $HIT"
    [ "$(metric auditd_computations_total)" = "$COMPUTATIONS_BEFORE" ] ||
        die "private-audit resubmission ran a new computation"

    [ "$(metric auditd_private_audits_total)" -ge 1 ] || die "auditd_private_audits_total did not count the audit"
    [ "$(metric auditd_private_pairs_total)" -ge 1 ] || die "auditd_private_pairs_total did not count the pair"

    echo "smoke OK: private audit matched the golden report; resubmission hit the fingerprint-keyed cache with computations unchanged"
    exit 0
fi

if [ "$MODE" = stream ]; then
    DATA="$TMP/data"
    # The admission cap sits below the loadgen target so the 429/Retry-After
    # path is exercised and the fleet self-paces down to it.
    start_daemon -data-dir "$DATA" -ingest-rate 3000

    # Raw SSE watcher on the HTTP surface: deployment "a" sits in the
    # churned part of the fleet, "b" on quiet servers (loadgen's probe owns
    # the first four and only ever flaps srv0_0_0) — so every re-audit has a
    # clean deployment whose held audit the memo splices, and stays
    # incremental.
    SSE_LOG="$TMP/sse.log"
    SPEC='{"title":"smoke sse","deployments":[{"name":"a","servers":["srv1_0_0","srv1_0_1"]},{"name":"b","servers":["srv0_1_0","srv0_1_1"]}]}'
    curl -sN --max-time 120 --get --data-urlencode "spec=$SPEC" "$BASE/v1/watch" > "$SSE_LOG" &
    SSE_PID=$!

    # loadgen exits non-zero when no records land or its watch probe never
    # receives a re-audit notification.
    "$TMP/indaas" loadgen -server "$BASE" -k 4 -rate 6000 -duration 4s -seed 7 > "$TMP/loadgen.out" 2>&1 ||
        { cat "$TMP/loadgen.out" >&2; die "loadgen failed"; }
    cat "$TMP/loadgen.out"

    kill "$SSE_PID" 2>/dev/null || true
    wait "$SSE_PID" 2>/dev/null || true
    SSE_EVENTS=$(grep -c '^event: report' "$SSE_LOG" || true)
    [ "$SSE_EVENTS" -ge 2 ] || die "SSE watcher saw $SSE_EVENTS report frames, want the initial report plus re-audits"
    grep -q '"report":{' "$SSE_LOG" || die "SSE frames carried no report payload"

    INGESTED=$(metric auditd_depdb_ingested_records_total)
    COMPUTATIONS=$(metric auditd_computations_total)
    HITS=$(metric auditd_delta_hits_total)
    PARTIAL=$(metric auditd_delta_partial_total)
    THROTTLED=$(metric auditd_depdb_throttled_total)
    REAUDITS=$(metric auditd_watch_reaudits_total)
    echo "smoke stream: ingested=$INGESTED computations=$COMPUTATIONS delta_hits=$HITS delta_partial=$PARTIAL throttled=$THROTTLED reaudits=$REAUDITS"

    [ "$((HITS + PARTIAL))" -ge 1 ] || die "no re-audit stayed incremental (hits=$HITS partial=$PARTIAL)"
    # The majority of triggered re-audits must be result-tier hits or memo
    # splices (each watcher's very first audit is necessarily cold).
    [ "$(((HITS + PARTIAL) * 2))" -gt "$REAUDITS" ] ||
        die "only $((HITS + PARTIAL)) of $REAUDITS re-audits were incremental"
    [ "$THROTTLED" -ge 1 ] || die "the rate limit never throttled despite loadgen outrunning -ingest-rate"
    [ "$((COMPUTATIONS * 20))" -lt "$INGESTED" ] ||
        die "computations ($COMPUTATIONS) not far below ingested records ($INGESTED)"
    [ "$(metric auditd_watch_subscriptions_total)" -ge 2 ] || die "watch subscriptions metric missed the SSE + probe watchers"

    echo "smoke OK: SSE watcher streamed $SSE_EVENTS report frames under churn; re-audits stayed incremental; 429 self-pacing engaged"
    exit 0
fi

if [ "$MODE" = cluster ]; then
    # Every node runs one worker with a 300ms compute delay so throughput is
    # dominated by computation and scales with the number of pools — the
    # fleet-vs-single-node timing below measures parallelism, not HTTP
    # overhead. Ports are fixed: the hash ring is keyed on peer addresses,
    # so fixed ports make the job→owner placement reproducible run to run.
    CPORTS=(7191 7192 7193 7194)
    CBASES=()
    for p in "${CPORTS[@]}"; do CBASES+=("http://127.0.0.1:$p"); done

    # The single-daemon helpers above are bound to $BASE; the fleet versions
    # take the node's base URL as their first argument.
    cstart_node() { # port peers-csv → appends pid to CLUSTER_PIDS
        local port=$1 peers=$2
        local args=(serve -listen "127.0.0.1:$port" -workers 1 -chaos delay=300ms)
        [ -n "$peers" ] && args+=(-peers "$peers" -cluster-poll 200ms)
        "$TMP/indaas" "${args[@]}" >>"$TMP/node-$port.log" 2>&1 &
        CLUSTER_PIDS+=($!)
    }

    cwait_healthy() { # base
        for _ in $(seq 100); do
            "${CURL[@]}" "$1/healthz" >/dev/null 2>&1 && return 0
            sleep 0.1
        done
        die "cluster: node $1 did not become healthy within 10s"
    }

    cmetric() { # base name → value (0 when absent)
        "${CURL[@]}" "$1/metrics" | awk -v name="$2" '$1 == name {print $2; found=1} END {if (!found) print 0}'
    }

    csubmit() { # base json-body → job id
        local id
        id=$("${CURL[@]}" -X POST -H 'Content-Type: application/json' --data "$2" "$1/v1/audits" | jq -r .id) ||
            die "cluster: audit submission to $1 failed"
        [ -n "$id" ] && [ "$id" != null ] || die "cluster: $1 returned no job id"
        echo "$id"
    }

    cwait_done() { # base job-id leg-name
        local state
        state=$("${CURL[@]}" "$1/v1/audits/$2?wait=30s" | jq -r .state) ||
            die "$3: polling job $2 on $1 failed"
        [ "$state" = done ] || die "$3: job $2 ended in state $state"
    }

    # shard_body N: a distinct single-deployment, self-contained audit. One
    # deployment keeps the router on the plain forwarding path (2+ would
    # fan out), inline records make every node eligible regardless of its
    # DepDB, and the name salts the content address so the 16 shards spread
    # across the ring.
    shard_body() {
        jq -c --arg n "shard-$1" \
            '{title: ("cluster " + $n), deployments: [(.deployments[0] + {name: $n})], records: .records}' \
            scripts/smoke_request.json
    }

    # run_batch base: submit the 16 shards through one node, wait for all of
    # them, print the elapsed seconds. Submission is non-blocking, so the
    # elapsed time is dominated by how many 300ms computations can run at
    # once — the fleet's parallelism.
    run_batch() {
        local base=$1 ids=() t0 t1 i
        t0=$(date +%s.%N)
        for i in $(seq 0 15); do
            ids+=("$(csubmit "$base" "$(shard_body "$i")")")
        done
        for i in "${ids[@]}"; do
            cwait_done "$base" "$i" batch
        done
        t1=$(date +%s.%N)
        awk -v a="$t0" -v b="$t1" 'BEGIN {printf "%.2f", b - a}'
    }

    # --- boot the 4-node fleet and wait for full mutual health ---
    for i in 0 1 2 3; do
        peers=""
        for j in 0 1 2 3; do
            [ "$i" = "$j" ] && continue
            peers="${peers:+$peers,}${CBASES[$j]}"
        done
        cstart_node "${CPORTS[$i]}" "$peers"
    done
    for b in "${CBASES[@]}"; do
        cwait_healthy "$b"
    done
    for b in "${CBASES[@]}"; do
        for _ in $(seq 50); do
            [ "$(cmetric "$b" auditd_cluster_peers_healthy)" = 3 ] && break
            sleep 0.1
        done
        [ "$(cmetric "$b" auditd_cluster_peers_healthy)" = 3 ] ||
            die "node $b never saw 3 healthy peers"
    done

    # --- 16 distinct audits through node A: hash routing spreads the work ---
    T4=$(run_batch "${CBASES[0]}")
    TOTAL=0 BUSY_NODES=0
    for b in "${CBASES[@]}"; do
        C=$(cmetric "$b" auditd_computations_total)
        TOTAL=$((TOTAL + C))
        [ "$C" -ge 1 ] && BUSY_NODES=$((BUSY_NODES + 1))
    done
    [ "$TOTAL" = 16 ] || die "fleet computed $TOTAL jobs for 16 audits; each must run on exactly one node"
    [ "$BUSY_NODES" -ge 2 ] || die "all 16 audits computed on one node; hash routing is not spreading work"
    [ "$(cmetric "${CBASES[0]}" auditd_cluster_forwards_total)" -ge 1 ] ||
        die "node A forwarded nothing despite owning only part of the keyspace"

    # --- resubmission through node B: fleet-wide content-addressed cache ---
    for i in $(seq 0 15); do
        HIT=$("${CURL[@]}" -X POST -H 'Content-Type: application/json' \
            --data "$(shard_body "$i")" "${CBASES[1]}/v1/audits")
        [ "$(jq -r '.cached == true and .state == "done"' <<<"$HIT")" = true ] ||
            die "shard-$i resubmitted via node B was not a cache hit: $HIT"
    done
    TOTAL_AFTER=0
    for b in "${CBASES[@]}"; do
        TOTAL_AFTER=$((TOTAL_AFTER + $(cmetric "$b" auditd_computations_total)))
    done
    [ "$TOTAL_AFTER" = 16 ] || die "resubmission recomputed: fleet total went 16 -> $TOTAL_AFTER"
    [ "$(cmetric "${CBASES[1]}" auditd_cluster_peer_cache_hits_total)" -ge 1 ] ||
        die "node B never served a result out of a peer's cache"

    # --- many-deployment audit fans out and splices back to the golden ---
    FID=$(csubmit "${CBASES[0]}" "$(cat scripts/smoke_request.json)")
    cwait_done "${CBASES[0]}" "$FID" fanout
    "${CURL[@]}" "${CBASES[0]}/v1/audits/$FID/report" > "$TMP/fanout.json"
    diff <(jq -S '.audits[].elapsed_ns = 0' "$TMP/fanout.json") <(jq -S . "$GOLDEN") ||
        die "fanned-out audit report drifted from the single-node golden"
    [ "$(cmetric "${CBASES[0]}" auditd_cluster_fanouts_total)" -ge 1 ] ||
        die "many-deployment audit did not fan out"

    # --- ingest through node A replicates to every peer before the ack ---
    FP=$(jq '{records: .records}' scripts/recommend_request.json | \
        "${CURL[@]}" -X POST -H 'Content-Type: application/json' --data @- "${CBASES[0]}/v1/depdb" | jq -r .fingerprint)
    { [ -n "$FP" ] && [ "$FP" != null ]; } || die "cluster ingest returned no fingerprint"
    for b in "${CBASES[@]}"; do
        PFP=$("${CURL[@]}" "$b/healthz" | jq -r .db_fingerprint)
        [ "$PFP" = "$FP" ] || die "node $b fingerprint $PFP != ingested $FP; replication did not converge"
    done
    [ "$(cmetric "${CBASES[0]}" auditd_cluster_replicated_records_total)" -ge 1 ] ||
        die "ingest through node A replicated nothing"

    # --- kill -9 a peer mid-job: survivors serve everything ---
    KIDS=()
    for i in $(seq 16 23); do
        KIDS+=("$(csubmit "${CBASES[0]}" "$(shard_body "$i")")")
    done
    kill -9 "${CLUSTER_PIDS[3]}" 2>/dev/null || true
    wait "${CLUSTER_PIDS[3]}" 2>/dev/null || true
    for id in "${KIDS[@]}"; do
        cwait_done "${CBASES[0]}" "$id" post-kill
    done
    for _ in $(seq 100); do
        [ "$(cmetric "${CBASES[0]}" auditd_cluster_peers_healthy)" = 2 ] && break
        sleep 0.1
    done
    [ "$(cmetric "${CBASES[0]}" auditd_cluster_peers_healthy)" = 2 ] ||
        die "node A still counts the killed peer as healthy"
    ID=$(csubmit "${CBASES[1]}" "$(shard_body survivor)")
    cwait_done "${CBASES[1]}" "$ID" survivor-audit

    # --- stop the fleet, rerun the same 16 audits on one node, compare ---
    for pid in "${CLUSTER_PIDS[@]}"; do
        kill "$pid" 2>/dev/null || true
        wait "$pid" 2>/dev/null || true
    done
    CLUSTER_PIDS=()
    cstart_node "${CPORTS[0]}" ""
    cwait_healthy "${CBASES[0]}"
    T1=$(run_batch "${CBASES[0]}")

    echo "smoke cluster: 16 audits took ${T4}s on 4 nodes vs ${T1}s on 1 node"
    awk -v one="$T1" -v four="$T4" 'BEGIN {exit !(one >= 2.5 * four)}' ||
        die "4-node fleet was only $(awk -v one="$T1" -v four="$T4" 'BEGIN {printf "%.2f", one/four}')x faster, want >= 2.5x"

    echo "smoke OK: hash routing spread 16 audits with per-node attribution; peer cache, fan-out splice and ingest replication confirmed; fleet survived kill -9 and beat one node by >= 2.5x"
    exit 0
fi

die "unknown mode $MODE (want base, restart, chaos, pia, stream or cluster)"
