#!/usr/bin/env bash
# Distributed-tracing smoke: start velvd with a trace sink and a flight-dump
# directory, drive it with a traced velvc submit, and require (1) a merged
# two-process trace where the server's serve.job span is a child of the
# client's root span — zero unclosed, zero orphaned — (2) non-zero job-wall
# percentiles in the stats, and (3) a flight dump on graceful shutdown.
# Exercises the real binaries and the real wire protocol; the in-process
# equivalents live in crates/serve/tests/ and crates/obs/tests/.
set -euo pipefail
cd "$(dirname "$0")/.."

addr="127.0.0.1:7978"
dir="$(mktemp -d)"
pid=""
trap 'kill -9 "$pid" 2>/dev/null || true; rm -rf "$dir"' EXIT

velvd=target/release/velvd
velvc=target/release/velvc
if [[ ! -x $velvd || ! -x $velvc ]]; then
    cargo build --release -p velv_serve --bins
fi

wait_for_ping() {
    for _ in $(seq 1 100); do
        if "$velvc" --addr "$addr" ping >/dev/null 2>&1; then
            return 0
        fi
        sleep 0.1
    done
    echo "FAIL: velvd did not come up on $addr" >&2
    exit 1
}

"$velvd" --addr "$addr" --trace "$dir/server.jsonl" --flight-record "$dir/flight" &
pid=$!
wait_for_ping

# A traced submit: the client mints the trace id and the server parents its
# serve.job span under the client's root span.
"$velvc" --addr "$addr" --trace "$dir/client.jsonl" submit model=dlx1:bug:2
"$velvc" --addr "$addr" submit model=dlx1:bug:3
"$velvc" --addr "$addr" submit model=dlx1:correct

# The derived job-wall percentiles are live after the workload.
stats="$("$velvc" --addr "$addr" stats)"
for gauge in velv_serve_job_wall_p50_micros velv_serve_job_wall_p95_micros \
             velv_serve_job_wall_p99_micros; do
    value="$(awk -v k="$gauge" '$1 == k {print $2}' <<<"$stats")"
    if [[ -z "$value" || "$value" == "0" ]]; then
        echo "FAIL: $gauge is ${value:-missing} after the smoke workload" >&2
        exit 1
    fi
done

# The live-introspection verbs answer over the wire.
"$velvc" --addr "$addr" top --once
"$velvc" --addr "$addr" flight >/dev/null

"$velvc" --addr "$addr" shutdown
wait "$pid" 2>/dev/null || true
pid=""

# The graceful shutdown left a flight dump.
if ! compgen -G "$dir/flight/FLIGHT-*.jsonl" >/dev/null; then
    echo "FAIL: no flight dump in $dir/flight after graceful shutdown" >&2
    exit 1
fi

# The two captures merge into one clean distributed trace: velvc trace exits
# non-zero on unclosed or orphaned spans.
merged="$("$velvc" trace "$dir/server.jsonl" "$dir/client.jsonl")"
echo "$merged"
links="$(awk '$1 == "remote" && $2 == "links" {print $3}' <<<"$merged")"
if [[ -z "$links" || "$links" == "0" ]]; then
    echo "FAIL: the merged trace resolved no cross-process links" >&2
    exit 1
fi

echo "trace smoke: OK (merged two-process trace clean, $links remote link(s), percentiles live, flight dump present)"
