# CJOIN build/test/bench entry points. `make bench` snapshots the Filter
# hot-loop microbenchmarks into BENCH_<BENCH_N>.json so successive PRs
# leave a comparable performance trajectory (see PERFORMANCE.md).

GO        ?= go
BENCH_N   ?= 1
BENCHTIME ?= 1s

.PHONY: all build test race race-core shard-race bench vet ci dimadmit-smoke shardparts-smoke cjoind-smoke cjoind-parts-smoke chaos-smoke metrics-smoke updates-smoke

all: build test

# What CI runs (.github/workflows/ci.yml calls exactly these targets):
# vet + build + full tests, the concurrency-heavy packages under the
# race detector, the sharded overload + parity suites under the race
# detector, smoke runs of the shared-dimension-plane and partition-dealt
# experiments over 2-shard groups, live cjoind smokes over 4 shards and
# over a partitioned star on 2 shards, the shard-loss chaos smoke, the
# telemetry-plane metrics smoke, and the HTAP write-plane smoke.
ci: vet build test race-core shard-race dimadmit-smoke shardparts-smoke cjoind-smoke cjoind-parts-smoke chaos-smoke metrics-smoke updates-smoke

# End-to-end smoke of the admit-once execution tier: the dimadmit
# experiment exercises plane admission, fan-out activation, and merged
# stats over real shard topologies in a few seconds.
dimadmit-smoke:
	$(GO) run ./cmd/cjoin-bench -exp dimadmit -shards 1,2 -rows 2000 -queries 8 -n 8 -json > /dev/null

# End-to-end smoke of partition-aware sharding: shardscale over a
# range-partitioned star deals whole partitions to the shards, so this
# exercises the deal planner, per-shard subset scans, and pruned
# completion under a real closed-loop workload.
shardparts-smoke:
	$(GO) run ./cmd/cjoin-bench -exp shardscale -partitions 6 -shards 1,2 -rows 2000 -queries 8 -n 8 -json > /dev/null

# Live cjoind -shards 4 over the HTTP API: more queries than maxconc all
# complete, /stats exposes 4 per-shard pipelines, SIGTERM drains cleanly
# (scripts/cjoind-smoke.sh SHARDS PARTITIONS PORT).
cjoind-smoke:
	./scripts/cjoind-smoke.sh 4 0 8097

# Live cjoind -shards 2 over an 8-partition star: as cjoind-smoke, plus
# /stats must show whole partitions dealt (8 merged, none empty).
cjoind-parts-smoke:
	./scripts/cjoind-smoke.sh 2 8 8098

# End-to-end graceful degradation: cjoind -shards 4 -chaos loses one
# shard mid-workload; the daemon must stay up, /healthz must go
# degraded, and queries over surviving partitions must keep completing
# (scripts/chaos-smoke.sh).
chaos-smoke:
	./scripts/chaos-smoke.sh

# End-to-end telemetry plane: cjoind -shards 2 -pprof must serve every
# stage family on /metrics, a complete per-query trace timeline, and the
# pprof index (scripts/metrics-smoke.sh).
metrics-smoke:
	./scripts/metrics-smoke.sh

# End-to-end HTAP write plane: POST /update commits (append, delete,
# dimension rewrite) against cjoind -shards 2, snapshot contiguity past
# a failed commit, predicate-cache invalidation, and the write-plane
# metric families (scripts/updates-smoke.sh).
updates-smoke:
	./scripts/updates-smoke.sh

race-core:
	$(GO) test -race -timeout 900s ./internal/core ./internal/admission ./internal/server ./internal/bitvec ./internal/dimht ./internal/dimplane ./internal/query ./internal/shard ./internal/obs ./internal/storage ./internal/txn

# The 4-shard group under the overload acceptance test and the shard /
# batch-submit parity property tests, race detector on.
shard-race:
	$(GO) test -race -timeout 900s -run 'TestEndToEndShardedOverload|TestShardParityRandomSSB|TestShardParityPartitionedSSB|TestBatchSubmitParityRandomSSB|TestBatchSubmitParityPartitionedSSB|TestShardedPruningPreserved|TestPartitionedShardedEndToEnd|TestGroupBehindAdmissionQueue' -v ./internal/server ./internal/shard

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The full suite under the race detector; the Filter churn tests verify
# the lock-free probe path against concurrent admit/remove.
race:
	$(GO) test -race -timeout 900s ./...

vet:
	$(GO) vet ./...

# Filter hot-loop microbenchmarks (the dimht store across bit-vector
# widths, parallel probers and the probe-skip path) plus the
# sharded-tier scan benchmark, snapshotted as JSON. Run the paper-scale
# experiment benchmarks separately: go test -bench . -v .
bench:
	$(GO) test -run '^$$' -bench 'FilterProbe|ShardScan' -benchtime $(BENCHTIME) -count 3 \
		./internal/core ./internal/shard \
		| tee /dev/stderr | $(GO) run ./cmd/benchjson > BENCH_$(BENCH_N).json
