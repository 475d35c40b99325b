package core

// BenchmarkE14Sharded* measures what sharding buys at the durable
// core, versus shard count (1→2→4→8) on identical hardware.
//
// Upload: concurrent workers drive the journaled state-transition
// sequence of a completed upload session (peer NRO, own NRR, two state
// transitions — what handleUpload/buildNRR journal) through the
// engine's consistent-hash routing, with SyncAlways journals: every
// append is an fsync, so one shard serializes the entire offered load
// behind one journal lock and one fsync stream, while N shards run N
// independent streams. Evidence is fabricated (fakeEvidence) — crypto
// parallelizes trivially and would only dilute the serialization
// under test.
//
// Recovery: the same session history is journaled across N shards,
// closed, and recovered — one goroutine per shard replaying its own
// journal. Replay is decode-bound CPU, so recovery wall time can drop
// toward 1/N with shard count only on a host with that many cores.
// Neither family gates anything: the multi-core contended workload
// that would put sharding on trial is not measured yet.

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/evidence"
	"repro/internal/session"
	"repro/internal/wal"
)

var e14ShardCounts = []int{1, 2, 4, 8}

func BenchmarkE14ShardedUpload(b *testing.B) {
	for _, n := range e14ShardCounts {
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
			e, closer := e14Engine(b, b.TempDir(), n, wal.SyncAlways)
			defer closer()
			var ctr atomic.Int64
			// Pin the offered concurrency at 16 workers regardless of
			// GOMAXPROCS: the contended resource is the per-shard fsync
			// stream (workers overlap fsync WAITS even on one core), and a
			// fixed worker count keeps shards=1 vs shards=8 comparing
			// journal parallelism, not scheduler width.
			if gmp := runtime.GOMAXPROCS(0); gmp < 16 {
				b.SetParallelism((16 + gmp - 1) / gmp)
			}
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				sig := make([]byte, 256)
				for pb.Next() {
					txn := fmt.Sprintf("txn-%08d", ctr.Add(1))
					p := e.ShardFor(txn)
					if err := p.putEvidence(txn, evidence.RolePeer, fakeEvidence(evidence.KindNRO, txn, "alice", "bob", sig)); err != nil {
						b.Fatal(err)
					}
					if err := p.setState(txn, session.StateEvidenceReceived); err != nil {
						b.Fatal(err)
					}
					if err := p.putEvidence(txn, evidence.RoleOwn, fakeEvidence(evidence.KindNRR, txn, "bob", "alice", sig)); err != nil {
						b.Fatal(err)
					}
					if err := p.setState(txn, session.StateCompleted); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

func BenchmarkE14ShardedRecovery(b *testing.B) {
	const sessions = 3000
	ctx := context.Background()
	for _, n := range e14ShardCounts {
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
			dir := b.TempDir()
			e, closer := e14Engine(b, dir, n, wal.SyncNever)
			e14Populate(b, e, 0, sessions)
			closer()

			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e2, closer2 := e14Engine(b, dir, n, wal.SyncNever)
				rep, err := e2.Recover(ctx)
				if err != nil {
					b.Fatal(err)
				}
				if len(rep.Transactions) != sessions {
					b.Fatalf("recovered %d sessions, want %d", len(rep.Transactions), sessions)
				}
				closer2()
			}
		})
	}
}
