#!/usr/bin/env bash
# cjoind-smoke: drive a live sharded cjoind over its HTTP API.
#
#   usage: scripts/cjoind-smoke.sh SHARDS PARTITIONS PORT
#
#   - cjoind -shards SHARDS (over a star of PARTITIONS range partitions,
#     or an unpartitioned one when PARTITIONS is 0) with maxconc 8;
#   - 12 queries, more than maxconc, are submitted and every one must
#     finish in state "done";
#   - /stats must expose SHARDS per-shard pipelines;
#   - with PARTITIONS > 0, /stats must show the partition deal: PARTITIONS
#     partitions merged, per-shard dealt counts summing to PARTITIONS
#     with none empty;
#   - SIGTERM must drain cleanly (exit status 0).
set -euo pipefail

[ $# -eq 3 ] || { echo "usage: $0 SHARDS PARTITIONS PORT" >&2; exit 2; }
SHARDS=$1
PARTITIONS=$2
BASE="http://127.0.0.1:$3"

BIN=$(mktemp -d)
go build -o "$BIN/cjoind" ./cmd/cjoind
"$BIN/cjoind" -addr "127.0.0.1:$3" -rows 4000 -partitions "$PARTITIONS" \
  -shards "$SHARDS" -maxconc 8 -queue 64 &
CJOIND=$!
trap 'kill $CJOIND 2>/dev/null || true; rm -rf "$BIN"' EXIT

for i in $(seq 1 50); do
  curl -sf "$BASE/healthz" >/dev/null && break
  sleep 0.2
done

# Submit more queries than maxconc; every one must complete.
for i in $(seq 1 12); do
  curl -sf "$BASE/query" \
    -d '{"sql":"SELECT SUM(lo_revenue) AS rev, d_year FROM lineorder, date WHERE lo_orderdate = d_datekey GROUP BY d_year ORDER BY d_year"}' >/dev/null
done
for i in $(seq 1 12); do
  id=$(printf 'q-%06d' "$i")
  state=$(curl -sf "$BASE/query/$id/result?timeout=60s" | python3 -c 'import json,sys; print(json.load(sys.stdin)["state"])')
  [ "$state" = "done" ] || { echo "query $id state=$state"; exit 1; }
done

curl -sf "$BASE/stats" | python3 -c '
import json, sys
shards, parts = int(sys.argv[1]), int(sys.argv[2])
st = json.load(sys.stdin)
assert len(st["shards"]) == shards, ("stats shards", len(st["shards"]))
if parts > 0:
    assert st["pipeline"]["partitions"] == parts, st["pipeline"].get("partitions")
    dealt = [sh.get("partitions", 0) for sh in st["shards"]]
    assert all(d >= 1 for d in dealt) and sum(dealt) == parts, dealt
' "$SHARDS" "$PARTITIONS"

# Graceful drain on SIGTERM.
kill -TERM $CJOIND
wait $CJOIND
echo "cjoind-smoke: OK (shards=$SHARDS partitions=$PARTITIONS)"
