// Command nrserver runs the TPNR cloud storage provider (Bob) over
// TCP, backed by a disk blob store.
//
//	nrserver -state ./state -name bob -listen 127.0.0.1:9000 -store ./blobs \
//	         -wal-dir ./wal -fsync always -audit ./audit.log
//
// The state directory must have been provisioned with pkitool init.
// With -wal-dir, every protocol transition is journaled before it is
// acked, and a restart replays the journal: evidence and session state
// come back, and any abort the provider acked before the crash is
// honored by re-deleting the object. With -audit, the hash-chained
// audit log is persisted (and fsynced per entry) so the trail backing
// arbitration survives a crash too.
//
// With -shards N (N > 1) the provider runs N independent session
// shards routed by a pinned consistent hash of the transaction ID:
// -wal-dir and -archive-dir become roots holding one shard-00,
// shard-01, … subdirectory each, every shard checkpoints on its own
// ticker, recovery replays all shards in parallel, and /healthz
// reports degraded the moment any single shard's journal does. Restart
// with the same -shards value: the routing is stable, so each shard
// reopens exactly the journal it wrote.
//
// With -replicas R (R > 1) each shard's evidence journal is replicated
// to R-1 follower journals and a protocol step is only acked — the NRR
// only signed — once the step's journal record is durable on -quorum
// copies (leader included; default 2). Followers default to in-process
// journals under <shard-wal-dir>/replica-0N (separate disks can be
// mounted there); with -replica-addrs they are remote follower daemons
// instead, each started as `nrserver -follower -listen <addr> -wal-dir
// <dir>`. A follower that dies and comes back is backfilled by the
// anti-entropy loop with no operator action; while the write quorum is
// unreachable /healthz answers 503 "quorum: …" and new sessions are
// refused with a retryable (never TTP-escalating) rejection.
//
// SIGINT/SIGTERM triggers a graceful shutdown: the accept loop stops,
// in-flight protocol steps drain (bounded by -drain), then connections
// close.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/archive"
	"repro/internal/auditlog"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/keystore"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/obs/obshttp"
	"repro/internal/replica"
	"repro/internal/shard"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/wal"
)

func main() {
	state := flag.String("state", "./state", "PKI state directory")
	name := flag.String("name", "bob", "this provider's identity name")
	listen := flag.String("listen", "127.0.0.1:9000", "TCP listen address")
	storeDir := flag.String("store", "./blobs", "blob store directory")
	drain := flag.Duration("drain", 10*time.Second, "graceful shutdown drain budget")
	walDir := flag.String("wal-dir", "", "crash journal directory (empty = no journal); with -shards > 1, the root holding one shard-NN subdirectory per shard")
	fsync := flag.String("fsync", "always", "journal fsync policy: always, none, batch[:<n>], or group[:<max-batch>]")
	archiveDir := flag.String("archive-dir", "", "cold evidence archive directory; checkpoints compact terminal sessions into it (empty = keep all evidence hot); with -shards > 1, a root with per-shard subdirectories")
	ckptEvery := flag.Duration("checkpoint-every", 0, "journal checkpoint/compaction interval; bounds crash-recovery replay to one interval of traffic (0 = never; requires -wal-dir); with -shards > 1 each shard runs its own staggered ticker")
	shards := flag.Int("shards", 1, "number of independent provider shards; transactions are routed by a pinned consistent hash, so restarts must reuse the same value")
	auditPath := flag.String("audit", "", "persist the audit log to this file (fsynced per entry)")
	obsAddr := flag.String("obs-addr", "", "observability HTTP listen address serving /metrics, /healthz and /debug/pprof (empty = disabled)")
	logLevel := flag.String("log-level", "info", "structured event log level: debug, info, warn, or error")
	stepDeadline := flag.Duration("step-deadline", 0, "per-step protocol deadline; stale sessions are auto-aborted with an expiry receipt (0 = no deadline)")
	sweepEvery := flag.Duration("sweep-interval", 0, "how often the expiry reaper scans for stale sessions (0 = step-deadline/4, min 10ms)")
	maxInflight := flag.Int("max-inflight", 0, "max concurrent protocol handlers before shedding with a retryable overload frame (0 = unlimited)")
	auditEvery := flag.Duration("audit-interval", 0, "storage-dwell self-audit interval: recompute every committed session's Merkle root against the blob store and log divergences (0 = never)")
	replicas := flag.Int("replicas", 1, "journal replication factor per shard: the leader plus replicas-1 follower journals under <shard-wal-dir>/replica-0N (requires -wal-dir; 1 = no replication)")
	quorum := flag.Int("quorum", 0, "durable copies (leader included) each journal append must reach before its protocol step is acked (0 = min(2, replicas))")
	replicaAddrs := flag.String("replica-addrs", "", "comma-separated TCP addresses of remote follower daemons (each run with -follower); overrides the in-process followers of -replicas and requires -shards 1")
	followerMode := flag.Bool("follower", false, "run as a journal replication follower: serve the replication stream for -wal-dir on -listen and nothing else")
	flag.Parse()

	lvl, err := obs.ParseLevel(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nrserver:", err)
		os.Exit(1)
	}
	events := obs.NewLogger(os.Stderr, lvl)

	if *ckptEvery > 0 && *walDir == "" {
		fmt.Fprintln(os.Stderr, "nrserver: -checkpoint-every requires -wal-dir")
		os.Exit(1)
	}
	if *shards < 1 {
		fmt.Fprintln(os.Stderr, "nrserver: -shards must be >= 1")
		os.Exit(1)
	}
	if *followerMode {
		if err := runFollower(*listen, *walDir, *fsync); err != nil {
			fmt.Fprintln(os.Stderr, "nrserver:", err)
			os.Exit(1)
		}
		return
	}
	repl := replConfig{replicas: *replicas, quorum: *quorum}
	if *replicaAddrs != "" {
		repl.addrs = strings.Split(*replicaAddrs, ",")
		repl.replicas = len(repl.addrs) + 1
	}
	if repl.replicas > 1 && *walDir == "" {
		fmt.Fprintln(os.Stderr, "nrserver: -replicas/-replica-addrs require -wal-dir")
		os.Exit(1)
	}
	if len(repl.addrs) > 0 && *shards != 1 {
		// A remote follower host serves one journal; fanning several
		// shards into it would interleave their record streams.
		fmt.Fprintln(os.Stderr, "nrserver: -replica-addrs requires -shards 1 (in-process -replicas supports any shard count)")
		os.Exit(1)
	}
	if repl.quorum > repl.replicas {
		fmt.Fprintf(os.Stderr, "nrserver: -quorum %d exceeds the %d replicas\n", repl.quorum, repl.replicas)
		os.Exit(1)
	}
	engine, cleanup, err := buildEngine(*state, *name, *shards, *storeDir, *walDir, *fsync, *archiveDir, *auditPath, *stepDeadline, *sweepEvery, repl)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nrserver:", err)
		os.Exit(1)
	}
	defer cleanup()
	l, err := transport.ListenTCP(*listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nrserver:", err)
		os.Exit(1)
	}
	log.Printf("nrserver: provider %q listening on %s, store %s, %d shard(s)", *name, l.Addr(), *storeDir, *shards)

	var obsSrv *obshttp.Server
	if *obsAddr != "" {
		// /healthz flips to 503 the moment any shard's journal goes
		// read-only, so an orchestrator stops routing new sessions here
		// (a fresh txn may hash onto the sick shard) while the daemon
		// keeps draining the ones it has.
		obsSrv, err = obshttp.Start(*obsAddr, obs.Default(), engine.Health)
		if err != nil {
			fmt.Fprintln(os.Stderr, "nrserver:", err)
			cleanup()
			os.Exit(1)
		}
		log.Printf("nrserver: observability endpoint on http://%s/metrics", obsSrv.Addr())
	}

	srvOpts := []core.ServerOption{
		core.ServerLogger(events),
		core.ServerMaxInflight(*maxInflight),
	}
	if *stepDeadline > 0 {
		policy := core.DeadlinePolicy{Step: *stepDeadline, Sweep: *sweepEvery}
		srvOpts = append(srvOpts, core.ServerExpiry(clock.Real(), policy.SweepInterval(), engine.ExpireStale))
	}
	srv := core.NewServer(engine, srvOpts...)
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	if *ckptEvery > 0 {
		startCheckpointTickers(ctx, engine, *ckptEvery)
	}
	if *auditEvery > 0 {
		startSelfAudit(ctx, engine, *auditEvery)
	}

	done := make(chan error, 1)
	go func() { done <- srv.Serve(context.Background(), l) }()

	select {
	case err := <-done:
		if err != nil {
			log.Printf("nrserver: serve: %v", err)
			cleanup()
			os.Exit(1)
		}
	case <-ctx.Done():
		log.Printf("nrserver: signal received, draining for up to %v", *drain)
		sctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			log.Printf("nrserver: shutdown: %v", err)
		}
		if obsSrv != nil {
			if err := obsSrv.Shutdown(sctx); err != nil {
				log.Printf("nrserver: observability shutdown: %v", err)
			}
		}
	}
	log.Printf("nrserver: stopped")
}

// startCheckpointTickers runs one checkpoint ticker per shard (one
// total for a single Provider), with start times staggered across the
// interval so N shards never compact simultaneously — compaction of
// one shard stalls only that shard's journal+mutate pairs, and the
// stagger keeps the fsync load flat.
func startCheckpointTickers(ctx context.Context, engine core.ProviderEngine, every time.Duration) {
	se, sharded := engine.(*core.ShardedEngine)
	n := 1
	if sharded {
		n = se.N()
	}
	for i := 0; i < n; i++ {
		go func(i int) {
			offset := every * time.Duration(i) / time.Duration(n)
			select {
			case <-ctx.Done():
				return
			case <-time.After(offset):
			}
			tick := time.NewTicker(every)
			defer tick.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
					var rep *core.CheckpointReport
					var err error
					if sharded {
						rep, err = se.CheckpointShard(i)
					} else {
						rep, err = engine.Checkpoint()
					}
					if err != nil {
						log.Printf("nrserver: shard %d checkpoint: %v", i, err)
						continue
					}
					log.Printf("nrserver: shard %d checkpoint at LSN %d (%d sessions archived, %d live retained)",
						i, rep.LSN, rep.Archived, rep.Retained)
				}
			}
		}(i)
	}
}

// startSelfAudit runs the provider's own storage-dwell sweep
// (DESIGN.md §14): on each tick every committed session's Merkle root
// is recomputed from the blob store and compared against the root the
// provider signed into its NRR. A divergence means this daemon would
// LOSE an audit challenge — surfacing it here lets an operator repair
// (or own up) before a client's challenge turns it into a conviction.
func startSelfAudit(ctx context.Context, engine core.ProviderEngine, every time.Duration) {
	go func() {
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
				txns := engine.AuditableTxns()
				bad := 0
				for _, txn := range txns {
					if err := engine.VerifyStorage(txn); err != nil {
						bad++
						log.Printf("nrserver: self-audit: txn %s DIVERGES from committed root: %v", txn, err)
					}
				}
				if bad == 0 {
					log.Printf("nrserver: self-audit: %d session(s) verified against committed roots", len(txns))
				}
			}
		}
	}()
}

// replConfig carries the -replicas/-quorum/-replica-addrs settings
// into buildEngine.
type replConfig struct {
	replicas int
	quorum   int
	addrs    []string // remote follower daemons; empty = in-process followers
}

// effectiveQuorum resolves the -quorum default (2: leader + one
// follower, the paper-recommended 2-of-3 at R=3).
func effectiveQuorum(r replConfig) int {
	if r.quorum > 0 {
		return r.quorum
	}
	return 2
}

// runFollower is the -follower mode: serve the journal replication
// stream for walDir on the TCP listen address until SIGINT/SIGTERM.
// The leader dials in, reads our durable high-water mark from the
// hello, and streams (or snapshots) us the rest.
func runFollower(listen, walDir, fsync string) error {
	if walDir == "" {
		return fmt.Errorf("-follower requires -wal-dir")
	}
	policy, batch, err := wal.ParsePolicy(fsync)
	if err != nil {
		return err
	}
	w, err := wal.Open(walDir, wal.Options{Policy: policy, BatchSize: batch})
	if err != nil {
		return err
	}
	defer w.Close()
	l, err := transport.ListenTCP(listen)
	if err != nil {
		return err
	}
	host := replica.Serve(l, replica.NewFollower(w))
	log.Printf("nrserver: replication follower for %s listening on %s (durable LSN %d)", walDir, l.Addr(), w.LSN())
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	log.Printf("nrserver: follower stopping")
	return host.Close()
}

// buildEngine assembles the provider engine: a single Provider for
// shards == 1 (flat -wal-dir/-archive-dir layout, unchanged from
// earlier releases), or a ShardedEngine whose shard i journals under
// <wal-dir>/shard-NN and archives under <archive-dir>/shard-NN. The
// blob store, identity and audit log are shared — blobs are keyed by
// object, not by txn, and the audit chain is mutex-serialized.
//
// With repl.replicas > 1 each shard also gets a replication group:
// followers are in-process journals under <shard-wal-dir>/replica-0N,
// or the remote daemons in repl.addrs, and journal appends wait for
// repl.quorum durable copies before their protocol step is acked.
func buildEngine(state, name string, shards int, storeDir, walDir, fsync, archiveDir, auditPath string, stepDeadline, sweepEvery time.Duration, repl replConfig) (core.ProviderEngine, func(), error) {
	id, err := keystore.LoadIdentity(state, name)
	if err != nil {
		return nil, nil, err
	}
	world, err := keystore.LoadWorld(state)
	if err != nil {
		return nil, nil, err
	}
	store, err := storage.NewDisk(storeDir, nil)
	if err != nil {
		return nil, nil, err
	}

	cleanup := func() {}
	fail := func(err error) (core.ProviderEngine, func(), error) {
		cleanup()
		return nil, nil, err
	}

	providers := make([]*core.Provider, shards)
	anyJournal := false
	for i := range providers {
		opts := []core.Option{
			core.WithIdentity(id),
			core.WithCAPublicKey(world.CAPublicKey()),
			core.WithDirectory(world.Lookup),
			// Protocol counters share the default registry so they show up on
			// /metrics next to the runtime metrics, prefixed tpnr_.
			core.WithCounters(metrics.CountersOn(obs.Default(), "tpnr_")),
			core.WithStore(store),
		}
		if stepDeadline > 0 {
			opts = append(opts, core.WithDeadlinePolicy(core.DeadlinePolicy{Step: stepDeadline, Sweep: sweepEvery}))
		}
		if walDir != "" {
			policy, batch, err := wal.ParsePolicy(fsync)
			if err != nil {
				return fail(err)
			}
			dir := walDir
			if shards > 1 {
				dir = filepath.Join(walDir, shard.DirName(i))
			}
			journal, err := wal.Open(dir, wal.Options{Policy: policy, BatchSize: batch})
			if err != nil {
				return fail(err)
			}
			opts = append(opts, core.WithJournal(journal))
			prev := cleanup
			cleanup = func() { journal.Close(); prev() }
			anyJournal = true
		}
		if archiveDir != "" {
			dir := archiveDir
			if shards > 1 {
				dir = filepath.Join(archiveDir, shard.DirName(i))
			}
			cold, err := archive.Open(dir)
			if err != nil {
				return fail(err)
			}
			opts = append(opts, core.WithArchive(cold))
			prev := cleanup
			cleanup = func() { cold.Close(); prev() }
		}
		if providers[i], err = core.NewProvider(opts...); err != nil {
			return fail(err)
		}
	}

	if repl.replicas > 1 {
		if !anyJournal {
			return fail(fmt.Errorf("-replicas requires -wal-dir"))
		}
		policy, batch, err := wal.ParsePolicy(fsync)
		if err != nil {
			return fail(err)
		}
		for i, p := range providers {
			var dialers []replica.Dialer
			if len(repl.addrs) > 0 {
				for _, addr := range repl.addrs {
					addr := addr
					dialers = append(dialers, func() (transport.Conn, error) {
						return transport.DialTCP(addr)
					})
				}
			} else {
				shardDir := walDir
				if shards > 1 {
					shardDir = filepath.Join(walDir, shard.DirName(i))
				}
				for r := 1; r < repl.replicas; r++ {
					fw, err := wal.Open(filepath.Join(shardDir, fmt.Sprintf("replica-%02d", r)),
						wal.Options{Policy: policy, BatchSize: batch})
					if err != nil {
						return fail(err)
					}
					prev := cleanup
					cleanup = func() { fw.Close(); prev() }
					dialers = append(dialers, replica.Loopback(replica.NewFollower(fw)))
				}
			}
			g := replica.NewGroup(p.Journal(), dialers, replica.Options{
				Quorum: repl.quorum,
				Name:   fmt.Sprintf("replica_shard%02d", i),
			})
			p.SetReplicator(g)
			prev := cleanup
			cleanup = func() { g.Close(); prev() }
		}
		log.Printf("nrserver: journal replication on: %d replicas, quorum %d, %d shard group(s)",
			repl.replicas, effectiveQuorum(repl), shards)
	}

	var engine core.ProviderEngine = providers[0]
	if shards > 1 {
		se, err := core.NewShardedEngine(providers)
		if err != nil {
			return fail(err)
		}
		engine = se
	}

	if auditPath != "" {
		audit, err := auditlog.OpenFile(auditPath, nil, true)
		if err != nil {
			return fail(err)
		}
		if audit.Truncated() {
			log.Printf("nrserver: audit log %s had a torn tail from a crash; truncated", auditPath)
		}
		engine.SetAuditLog(audit)
		prev := cleanup
		cleanup = func() { audit.Close(); prev() }
	}

	if anyJournal {
		if err := recoverEngine(engine); err != nil {
			return fail(fmt.Errorf("journal recovery: %w", err))
		}
	}
	return engine, cleanup, nil
}

// recoverEngine replays the journal(s): all shards in parallel for a
// sharded engine, with a per-shard report line each, then the merged
// summary either way.
func recoverEngine(engine core.ProviderEngine) error {
	var rep *core.RecoveryReport
	if se, ok := engine.(*core.ShardedEngine); ok {
		start := time.Now()
		reps, err := se.RecoverShards(context.Background())
		if err != nil {
			return err
		}
		for i, r := range reps {
			log.Printf("nrserver: shard %d recovered %d records across %d txns (%d unfinished, torn tail: %v)",
				i, r.Records, len(r.Transactions), len(r.NeedsResolve), r.TornTail)
		}
		log.Printf("nrserver: %d shards recovered in parallel in %v", se.N(), time.Since(start).Round(time.Millisecond))
		rep = core.MergeRecoveryReports(reps)
	} else {
		r, err := engine.Recover(context.Background())
		if err != nil {
			return err
		}
		rep = r
	}
	log.Printf("nrserver: recovered %d journal records across %d txns (%d unfinished, %d aborts honored, torn tail: %v)",
		rep.Records, len(rep.Transactions), len(rep.NeedsResolve), len(rep.HonoredAborts), rep.TornTail)
	log.Printf("nrserver: recovery bounded by snapshot at LSN %d: %d tail records replayed, %d archived sessions untouched (%d tail records skipped as archived)",
		rep.SnapshotLSN, rep.TailRecords, rep.ArchivedSessions, rep.SkippedArchived)
	return nil
}
