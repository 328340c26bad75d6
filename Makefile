GO ?= go

.PHONY: all build test race vet fmt-check bench bench-pool bench-hit bench-obs bench-save tables chaos serve-smoke obs-smoke crash-smoke corrupt-smoke cluster-smoke trace-smoke check

all: check

build:
	$(GO) build ./...

## test: vet plus the plain suite. The explicit -timeout turns a hung
## lifecycle path (a writer that never stops, a waiter that never wakes)
## into a stack-dumping failure instead of a stuck CI job.
test:
	$(GO) vet ./...
	$(GO) test -timeout 300s ./...

## race: the standard concurrency gate — vet plus the full suite under the
## race detector (includes the pool, cache, replacer and disk stress tests).
race:
	$(GO) vet ./...
	$(GO) test -race -timeout 600s ./...

vet:
	$(GO) vet ./...

## fmt-check: fail if any file is not gofmt-clean (lists the offenders).
fmt-check:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

## bench: every paper-table benchmark plus ablations (repo root).
bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' .

## bench-pool: serial seed pool vs the latch-partitioned production pool.
bench-pool:
	$(GO) test -bench BenchmarkPoolParallel -run '^$$' ./internal/bufferpool/

## bench-hit: the resident-hit-path regression gate — runs the production
## pool's hit loop (core.SyncReplacer, as db.Open builds it) via
## testing.Benchmark and fails if ns/op exceeds the ceiling (DESIGN.md §14).
bench-hit:
	$(GO) test -count=1 -run TestHitPathCeiling -v ./internal/bufferpool/

tables:
	$(GO) run ./cmd/tables

## chaos: the seeded disk-fault storm against the concurrent pool, under
## the race detector (DESIGN.md §9).
chaos:
	$(GO) vet ./internal/bufferpool/
	$(GO) test -race -count=1 -timeout 300s -run TestChaosFaultStorm -v ./internal/bufferpool/

## bench-obs: hot-path cost of one counter increment plus one histogram
## observation, enabled vs disabled (DESIGN.md §12 quotes the numbers).
bench-obs:
	$(GO) test -bench BenchmarkObs -run '^$$' ./internal/obs/

## serve-smoke: boot the lrukd daemon on a random port, drive a load burst
## through the wire protocol, check the hit ratio, and verify a clean
## SIGTERM drain (DESIGN.md §11).
serve-smoke:
	sh scripts/serve_smoke.sh

## obs-smoke: boot lrukd with the observability plane armed, then check
## /metrics families across every layer, the /trace ring, pprof, the
## structured log line, and a clean drain (DESIGN.md §12).
obs-smoke:
	sh scripts/obs_smoke.sh

## crash-smoke: kill -9 durability test — boot lrukd on a file-backed
## data dir, drive a ledger-recorded update load, SIGKILL mid-run,
## restart on the same dir, and verify every acknowledged update
## survived WAL recovery (DESIGN.md §13).
crash-smoke:
	sh scripts/crash_smoke.sh

## corrupt-smoke: offline bit-rot test — boot lrukd on a file-backed data
## dir, SIGKILL it mid-load, flip bytes in WAL-covered pages of the stopped
## store, restart, and verify recovery healed the damage, the ledger checks
## out, and the integrity metrics are live (DESIGN.md §15).
corrupt-smoke:
	sh scripts/corrupt_smoke.sh

## cluster-smoke: boot a 3-node cluster as independent lrukd processes,
## drive skew-gated and ledger-recorded loads through the ring-aware
## client, rebalance a node away and verify every acknowledged update
## survived the handoff, SIGKILL a node under live load, and drain the
## survivor cleanly (DESIGN.md §16).
cluster-smoke:
	sh scripts/cluster_smoke.sh

## trace-smoke: boot a 3-node traced cluster, gate startup on /healthz,
## drive a traced load, reassemble the slowest trace across every node's
## /spans ring with `lrukcluster trace`, check /metrics exemplars, and
## reassemble a traced rebalance's cluster-wide trace (DESIGN.md §17).
trace-smoke:
	sh scripts/trace_smoke.sh

## bench-save: run the tracked benchmark suites (storage backends,
## pool hit path, resident-hit GET request) and snapshot them into
## BENCH_storage.json and BENCH_hotpath.json, filing dated copies under
## BENCH_history/ and printing a ns/op diff against the previous snapshots.
bench-save:
	sh scripts/bench_save.sh

check: fmt-check build vet test race bench-hit serve-smoke obs-smoke crash-smoke corrupt-smoke cluster-smoke trace-smoke
