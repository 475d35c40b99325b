# Offline stdlib-only Go module; these targets are the whole toolchain.
GO ?= go

# CHAOS_SEEDS pins the randomized chaos suite's seed matrix so failures
# reproduce across machines and CI runs. Override to widen the sweep:
#   make chaos CHAOS_SEEDS="1 7 42 99 123"
CHAOS_SEEDS ?= 1 7 42

# TPNR_SCHEME flips every deployment the chaos suite builds between
# the RSA (default, paper-fidelity) and Ed25519 signature schemes:
#   make chaos TPNR_SCHEME=ed25519
TPNR_SCHEME ?=

# TPNR_SHARDS runs the chaos suite against a sharded provider engine
# (per-shard WALs/archives, consistent-hash routing). Default 1 keeps
# the classic single-provider world; chaos-sharded pins 4.
TPNR_SHARDS ?=

# TPNR_REPLICAS quorum-replicates every provider journal the chaos
# suite opens (R replicas, write quorum 2): appends stream to follower
# journals on the same disk and protocol acks wait for the quorum.
# Default 1 keeps journals unreplicated; chaos-replicated pins 3.
TPNR_REPLICAS ?=

.PHONY: build vet test race race-core fuzz-short bench bench-smoke bench-e17 chaos chaos-short chaos-sharded chaos-replicated crash-enum obs-smoke verify

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# race-core reruns, ten times each under the race detector, the tests
# whose failures depend on goroutine timing: the per-party evidence
# builder's memoized data-hash signature (TestBuilder*, and the
# private-key budget that pins what it saves); the expiry reaper, which
# starts ticking before the deployment it reaps exists; an upload whose
# duplicated NRO is handled after the client already has its NRR; and
# the replication stream — snapshot catch-up racing the idle probe,
# follower restart, a stalled follower beside leader appends, two
# connections applying to one follower, a follower applying leader
# batches appended from many goroutines — the journal's batch read and
# batched append under concurrent appends, the transaction records
# under concurrent admission, sequence issue and commits, and the
# forged-frame test that admission guards. A race in any of them
# shows in some runs, not in every run, so one pass of `race` is not
# enough to catch it.
race-core:
	$(GO) test -race -count=10 -run 'TestServerExpiryReaper|TestBuilder|TestPrivateKeyBudget|TestUploadOverDuplicatingLink|TestSnapshotCatchUp|TestFollower|TestStalledFollowerDoesNotBlockAppends|TestConcurrentServeConnSerialized|TestReadBatchFromLSN|TestAppendBatch|TestRecordConcurrent|TestForgedFrameLeavesNoFloor' ./internal/core ./internal/evidence ./internal/integration ./internal/replica ./internal/wal

# fuzz-short runs, for ten seconds each past their committed seed
# corpora (testdata/fuzz in each package), the native fuzz targets of
# the two decoders that read unauthenticated network input: the
# protocol frame every server decodes (FuzzDecodeMessage) and the
# replication frame a follower decodes (FuzzDecodeFrame). A failing
# input is written to the corpus; commit it with the fix.
fuzz-short:
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeMessage$$' -fuzztime 10s ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeFrame$$' -fuzztime 10s ./internal/replica

bench:
	$(GO) test -bench=. -benchmem ./...

# bench-smoke compiles and runs every benchmark exactly once — a cheap
# guard against benchmark rot that rides inside verify.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime=1x ./...

# bench-e17 vets and smoke-tests the E17 scoreboard (BENCHMARK.json +
# bench/). bench/ is its own module, so `go build ./... && go test
# ./...` never compiles it: a deletion under internal/ can break the
# benchmark with tier-1 still green unless this target rides verify.
bench-e17:
	$(GO) vet -C bench . && $(GO) test -C bench .

# chaos runs the crash-fault injection suite: every registered
# faultpoint plus the randomized crash-restart rounds, always under
# the race detector and with the fixed seeds baked into the tests.
chaos:
	CHAOS_SEEDS="$(CHAOS_SEEDS)" TPNR_SCHEME="$(TPNR_SCHEME)" TPNR_SHARDS="$(TPNR_SHARDS)" TPNR_REPLICAS="$(TPNR_REPLICAS)" $(GO) test -race -count=1 -v -run 'TestChaos|TestPool' ./internal/chaos/

# chaos-short is the cheap variant (one seed, fewer rounds) used as an
# early gate inside verify.
chaos-short:
	CHAOS_SEEDS="$(CHAOS_SEEDS)" TPNR_SCHEME="$(TPNR_SCHEME)" TPNR_SHARDS="$(TPNR_SHARDS)" TPNR_REPLICAS="$(TPNR_REPLICAS)" $(GO) test -race -count=1 -short -run 'TestChaos|TestPool' ./internal/chaos/

# chaos-sharded reruns the full chaos suite against a 4-shard provider
# engine: same faultpoints and crash-restart rounds, but evidence is
# routed across per-shard WALs/archives and recovery fans out — the
# dispute invariant must hold regardless of shard count.
chaos-sharded:
	$(MAKE) chaos TPNR_SHARDS=4

# chaos-replicated reruns the full chaos suite with every provider
# journal quorum-replicated at R=3 (write quorum 2) over a 4-shard
# engine: the replica.* faultpoints fire for real, and the suite
# asserts that killing any single replica mid-upload leaves every
# acked receipt recoverable from the surviving quorum.
chaos-replicated:
	$(MAKE) chaos TPNR_SHARDS=4 TPNR_REPLICAS=3

# crash-enum runs the crash-state enumerator (internal/crashenum,
# DESIGN.md §16) over every cell of its matrix: both signature schemes,
# the provider journal unreplicated and at R=3. A set TPNR_SCHEME or
# TPNR_REPLICAS selects the unbounded traces (each trace's operations
# repeated over three rounds); plain `go test` runs each trace once at
# its defaults.
crash-enum:
	@for s in rsa ed25519; do for r in 1 3; do \
		echo "crash-enum: scheme $$s, R=$$r"; \
		TPNR_SCHEME=$$s TPNR_REPLICAS=$$r $(GO) test -count=1 -run '^TestCrashEnum$$' ./internal/crashenum || exit 1; \
	done; done

# obs-smoke boots a transient nrserver with the observability endpoint
# and curls /healthz and /metrics — the cheapest end-to-end proof that
# the operational surface actually serves.
obs-smoke:
	@tmp=$$(mktemp -d); trap 'kill $$pid 2>/dev/null; rm -rf $$tmp' EXIT; \
	$(GO) build -o $$tmp ./cmd/pkitool ./cmd/nrserver && \
	$$tmp/pkitool init -state $$tmp/state -bits 1024 >/dev/null && \
	$$tmp/nrserver -state $$tmp/state -listen 127.0.0.1:29771 -store $$tmp/blobs \
		-wal-dir $$tmp/wal -obs-addr 127.0.0.1:29772 & pid=$$!; \
	for i in $$(seq 1 50); do \
		curl -fsS http://127.0.0.1:29772/healthz >/dev/null 2>&1 && break; sleep 0.1; done; \
	curl -fsS http://127.0.0.1:29772/healthz && echo && \
	curl -fsS http://127.0.0.1:29772/metrics | head -n 5 && \
	echo "obs-smoke: OK"

# verify is the tier-1 gate: vet, compile everything, a quick chaos
# pass, the crash-state enumerator over its whole matrix, the full
# suite under the race detector (the concurrency tests depend on it;
# race also reruns chaos with the full seed set), the shared-state
# subset ten times over, ten seconds of fuzzing each of the two network
# frame decoders, a one-iteration benchmark smoke so the benchmark
# suite cannot rot, and the E17 scoreboard's own vet + smoke test.
verify: vet build chaos-short crash-enum race race-core fuzz-short bench-smoke bench-e17
