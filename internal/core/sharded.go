package core

// ShardedEngine partitions one provider's session space across N
// independent Provider shards. The TPNR protocol shards on the
// transaction ID: every evidence chain, session state machine, journal
// record and object binding is keyed by exactly one txn, so routing
// whole transactions to shards needs no cross-shard coordination at
// all. Each shard owns its own WAL, evidence archive, session tracker,
// replay guard and checkpoint schedule; throughput scales with cores
// (independent txn-lock spaces) and with disks (independent fsync
// streams), and crash recovery fans out one goroutine per shard.
//
// Routing uses shard.Ring's pinned consistent hash, so the same txn
// lands on the same shard across restarts — a shard's WAL is reopened
// by the shard that wrote it — and the client-side SessionPool can
// compute the same mapping without talking to the server.

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"repro/internal/auditlog"
	"repro/internal/evidence"
	"repro/internal/faultpoint"
	"repro/internal/obs"
	"repro/internal/shard"
)

// TxnHandler is optionally implemented by handlers that route
// internally on the transaction ID. The Server already peeks the txn
// from each frame (zero-copy, for its lock sharding); implementing
// this lets the handler reuse that peek instead of parsing the frame a
// second time.
type TxnHandler interface {
	Handler
	HandleTxn(txn string, raw []byte) ([]byte, error)
}

// ProviderEngine is the provider-shaped surface the daemons and the
// deploy harness program against: a single Provider and a
// ShardedEngine are interchangeable behind it.
type ProviderEngine interface {
	Handler
	SetMisbehavior(Misbehavior)
	SetAuditLog(l *auditlog.Log)
	EvidenceByKind(txn string, role evidence.Role, kind evidence.Kind) (*evidence.Evidence, error)
	Recover(ctx context.Context) (*RecoveryReport, error)
	Checkpoint() (*CheckpointReport, error)
	Health() error
	Degraded() bool
	ExpireStale(now time.Time) int
	// Storage-dwell self-audit surface (DESIGN.md §14): the daemons'
	// -audit-interval sweep re-verifies stored objects against their
	// own NRR commitments without any network round.
	VerifyStorage(txnID string) error
	AuditableTxns() []string
}

// Per-shard metric names; each carries an obs.Labeled shard index.
const (
	metricShardMsgs        = "shard_msgs_total"
	metricShardDegraded    = "shard_degraded"
	metricShardRecovered   = "shard_recovered_records_total"
	metricShardCheckpoints = "shard_checkpoints_total"
)

// shardMetrics holds per-shard pre-resolved handles, indexed by shard.
type shardMetrics struct {
	msgs        []*obs.Counter
	degraded    []*obs.Gauge
	recovered   []*obs.Counter
	checkpoints []*obs.Counter
}

func newShardMetrics(reg *obs.Registry, n int) *shardMetrics {
	m := &shardMetrics{
		msgs:        make([]*obs.Counter, n),
		degraded:    make([]*obs.Gauge, n),
		recovered:   make([]*obs.Counter, n),
		checkpoints: make([]*obs.Counter, n),
	}
	for i := 0; i < n; i++ {
		label := strconv.Itoa(i)
		m.msgs[i] = reg.Counter(obs.Labeled(metricShardMsgs, "shard", label))
		m.degraded[i] = reg.Gauge(obs.Labeled(metricShardDegraded, "shard", label))
		m.recovered[i] = reg.Counter(obs.Labeled(metricShardRecovered, "shard", label))
		m.checkpoints[i] = reg.Counter(obs.Labeled(metricShardCheckpoints, "shard", label))
	}
	return m
}

// ShardedOption adjusts a ShardedEngine's wiring.
type ShardedOption func(*shardedConfig)

type shardedConfig struct {
	reg *obs.Registry
}

// ShardedRegistry directs the engine's per-shard metrics into reg
// instead of the process-wide default.
func ShardedRegistry(r *obs.Registry) ShardedOption {
	return func(c *shardedConfig) { c.reg = r }
}

// ShardedEngine fronts N Provider shards behind the ProviderEngine
// surface. Immutable after construction; each shard provides its own
// internal synchronization exactly as it does standalone.
type ShardedEngine struct {
	ring   *shard.Ring
	shards []*Provider
	met    *shardMetrics
}

// NewShardedEngine builds the engine over the given shards. The slice
// order is the shard numbering — it must match the per-shard directory
// layout (shard.DirName) the shards' journals were opened under.
func NewShardedEngine(shards []*Provider, opts ...ShardedOption) (*ShardedEngine, error) {
	if len(shards) == 0 {
		return nil, errors.New("core: sharded engine needs at least one shard")
	}
	for i, p := range shards {
		if p == nil {
			return nil, fmt.Errorf("core: shard %d is nil", i)
		}
	}
	cfg := shardedConfig{reg: obs.Default()}
	for _, fn := range opts {
		fn(&cfg)
	}
	return &ShardedEngine{
		ring:   shard.New(len(shards)),
		shards: shards,
		met:    newShardMetrics(cfg.reg, len(shards)),
	}, nil
}

// N reports the shard count.
func (e *ShardedEngine) N() int { return len(e.shards) }

// Shard exposes shard i (tests, per-shard checkpoint drivers).
func (e *ShardedEngine) Shard(i int) *Provider { return e.shards[i] }

// ShardIndex is the pinned ring routing for txn, with no fault
// injection — the ground truth the SessionPool and tests align on.
func (e *ShardedEngine) ShardIndex(txn string) int { return e.ring.Shard(txn) }

// ShardFor returns the Provider owning txn.
func (e *ShardedEngine) ShardFor(txn string) *Provider { return e.shards[e.ring.Shard(txn)] }

// routeIndex is ShardIndex plus the wrong-shard faultpoint: arming
// shard.route.wrong-shard with an error deflects the frame to the next
// shard, modelling a routing bug or a stale ring. The dispute read
// path (EvidenceByKind) sweeps all shards, so even a misrouted session
// can still be arbitrated.
func (e *ShardedEngine) routeIndex(txn string) int {
	i := e.ring.Shard(txn)
	if err := faultpoint.HitErr(fpShardRouteWrongShard); err != nil {
		i = (i + 1) % len(e.shards)
	}
	return i
}

// Handle routes one frame by its peeked transaction ID. Frames whose
// txn cannot be peeked go to shard 0, whose handler rejects them the
// same way an unsharded provider would.
func (e *ShardedEngine) Handle(raw []byte) ([]byte, error) {
	if txn, ok := txnOf(raw); ok {
		return e.HandleTxn(txn, raw)
	}
	return e.shards[0].Handle(raw)
}

// HandleTxn routes a frame whose transaction ID the caller already
// peeked (the Server does, for its lock sharding) — no second parse.
func (e *ShardedEngine) HandleTxn(txn string, raw []byte) ([]byte, error) {
	i := e.routeIndex(txn)
	e.met.msgs[i].Inc()
	return e.shards[i].Handle(raw)
}

// SetMisbehavior broadcasts the behaviour switch to every shard.
func (e *ShardedEngine) SetMisbehavior(m Misbehavior) {
	for _, p := range e.shards {
		p.SetMisbehavior(m)
	}
}

// SetAuditLog attaches one audit log to every shard. auditlog.Append
// is mutex-serialized, so a single hash chain spanning all shards
// stays consistent.
func (e *ShardedEngine) SetAuditLog(l *auditlog.Log) {
	for _, p := range e.shards {
		p.SetAuditLog(l)
	}
}

// EvidenceByKind is the dispute read path: the owning shard answers in
// the common case, and a miss falls back to sweeping the other shards
// so evidence written under a misrouting bug (or before a shard-count
// change) is still found. Arbitration correctness must never hinge on
// routing correctness.
func (e *ShardedEngine) EvidenceByKind(txn string, role evidence.Role, kind evidence.Kind) (*evidence.Evidence, error) {
	owner := e.ring.Shard(txn)
	ev, err := e.shards[owner].EvidenceByKind(txn, role, kind)
	if err == nil {
		return ev, nil
	}
	for i, p := range e.shards {
		if i == owner {
			continue
		}
		if ev, serr := p.EvidenceByKind(txn, role, kind); serr == nil {
			return ev, nil
		}
	}
	return nil, err
}

// RecoverShards replays every shard's journal in parallel, one
// goroutine per shard — recovery wall time is the slowest shard, not
// the sum. The returned slice is indexed by shard; a shard that failed
// has a nil report and contributes to the joined error. Shards that
// succeeded stay recovered either way: per-shard recovery is
// idempotent, so the caller may simply retry after a partial failure.
func (e *ShardedEngine) RecoverShards(ctx context.Context) ([]*RecoveryReport, error) {
	reps := make([]*RecoveryReport, len(e.shards))
	errs := make([]error, len(e.shards))
	var wg sync.WaitGroup
	for i, p := range e.shards {
		wg.Add(1)
		go func(i int, p *Provider) {
			defer wg.Done()
			// Confine panics (including an armed faultpoint.Kill) to this
			// shard's slot: a wedged shard must not take down the shards
			// that recovered cleanly.
			defer func() {
				if r := recover(); r != nil {
					errs[i] = fmt.Errorf("core: shard %d recovery panic: %v", i, r)
				}
			}()
			if err := faultpoint.HitErr(fpShardRecoverPartial); err != nil {
				errs[i] = fmt.Errorf("core: shard %d recovery: %w", i, err)
				return
			}
			rep, err := p.Recover(ctx)
			if err != nil {
				errs[i] = fmt.Errorf("core: shard %d recovery: %w", i, err)
				return
			}
			e.met.recovered[i].Add(int64(rep.Records))
			reps[i] = rep
		}(i, p)
	}
	wg.Wait()
	return reps, errors.Join(errs...)
}

// Recover fans recovery out across the shards and merges the per-shard
// reports into one provider-shaped summary.
func (e *ShardedEngine) Recover(ctx context.Context) (*RecoveryReport, error) {
	reps, err := e.RecoverShards(ctx)
	if err != nil {
		return nil, err
	}
	return MergeRecoveryReports(reps), nil
}

// MergeRecoveryReports folds per-shard reports into one. Counters sum,
// transaction lists concatenate, TornTail is any-shard, and
// SnapshotLSN — per-shard positions in unrelated journals — reports
// the max purely as a "some shard has checkpointed this far" signal.
func MergeRecoveryReports(reps []*RecoveryReport) *RecoveryReport {
	m := &RecoveryReport{}
	for _, r := range reps {
		if r == nil {
			continue
		}
		m.Records += r.Records
		m.TornTail = m.TornTail || r.TornTail
		m.Transactions = append(m.Transactions, r.Transactions...)
		m.NeedsResolve = append(m.NeedsResolve, r.NeedsResolve...)
		m.HonoredAborts = append(m.HonoredAborts, r.HonoredAborts...)
		m.OpenResolves = append(m.OpenResolves, r.OpenResolves...)
		if r.SnapshotLSN > m.SnapshotLSN {
			m.SnapshotLSN = r.SnapshotLSN
		}
		m.TailRecords += r.TailRecords
		m.ArchivedSessions += r.ArchivedSessions
		m.SkippedArchived += r.SkippedArchived
	}
	return m
}

// CheckpointShard compacts one shard. Per-shard checkpoint schedules
// are the point of the split: compaction of one shard never stalls the
// other shards' journal+mutate pairs.
func (e *ShardedEngine) CheckpointShard(i int) (*CheckpointReport, error) {
	rep, err := e.shards[i].Checkpoint()
	if err == nil {
		e.met.checkpoints[i].Inc()
	}
	return rep, err
}

// Checkpoint compacts every shard sequentially and merges the reports
// (Archived/Retained sum; LSN is the max across journals, same caveat
// as the recovery merge). Daemons prefer per-shard tickers via
// CheckpointShard; this exists for the ProviderEngine surface.
func (e *ShardedEngine) Checkpoint() (*CheckpointReport, error) {
	m := &CheckpointReport{}
	for i := range e.shards {
		rep, err := e.CheckpointShard(i)
		if err != nil {
			return nil, fmt.Errorf("core: shard %d checkpoint: %w", i, err)
		}
		m.Archived += rep.Archived
		m.Retained += rep.Retained
		if rep.LSN > m.LSN {
			m.LSN = rep.LSN
		}
	}
	return m, nil
}

// DegradedShards lists shards whose journal has gone sticky-degraded,
// updating the per-shard gauges as a side effect.
func (e *ShardedEngine) DegradedShards() []int {
	var out []int
	for i, p := range e.shards {
		if p.Degraded() {
			e.met.degraded[i].Set(1)
			out = append(out, i)
		} else {
			e.met.degraded[i].Set(0)
		}
	}
	return out
}

// Health reports nil while every shard is fully serving, or an error
// naming the degraded shards. One degraded shard degrades /healthz for
// the whole daemon — an orchestrator should stop routing NEW sessions
// here (a new txn may hash onto the sick shard) — while the healthy
// shards keep serving everything and the sick shard keeps serving its
// existing sessions memory-only, exactly like an unsharded degraded
// provider.
func (e *ShardedEngine) Health() error {
	deg := e.DegradedShards()
	if len(deg) == 0 {
		return nil
	}
	errs := make([]error, 0, len(deg))
	for _, i := range deg {
		errs = append(errs, fmt.Errorf("shard %d: %w", i, e.shards[i].Health()))
	}
	return fmt.Errorf("core: %d/%d shards degraded: %w", len(deg), len(e.shards), errors.Join(errs...))
}

// Degraded reports whether any shard is refusing new sessions.
func (e *ShardedEngine) Degraded() bool { return e.Health() != nil }

// ExpireStale sweeps every shard's deadline reaper and sums the count;
// one Server-side reaper drives all shards.
func (e *ShardedEngine) ExpireStale(now time.Time) int {
	n := 0
	for _, p := range e.shards {
		n += p.ExpireStale(now)
	}
	return n
}

// Compile-time wiring checks: both engine shapes serve the daemons
// interchangeably, and the sharded engine keeps the zero-copy
// dispatch path.
var (
	_ ProviderEngine = (*Provider)(nil)
	_ ProviderEngine = (*ShardedEngine)(nil)
	_ TxnHandler     = (*ShardedEngine)(nil)
)
