// Command ttpd runs the TPNR trusted third party over TCP. It needs to
// know how to reach the other parties for the in-line Resolve queries;
// peers are given as repeated -peer name=addr flags.
//
//	ttpd -state ./state -name ttp -listen 127.0.0.1:9001 -peer bob=127.0.0.1:9000 \
//	     -wal-dir ./wal -fsync always -audit ./audit.log
//
// With -wal-dir, every resolve step (evidence received, procedure
// opened, statement issued) is journaled before the reply goes out; a
// restart replays the journal and reports resolves left open by the
// crash. With -audit, resolve open/close events are persisted to a
// hash-chained file, fsynced per entry.
// SIGINT/SIGTERM triggers a graceful shutdown that drains in-flight
// resolutions before closing connections.
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
	"repro/internal/breaker"
	"repro/internal/core"
	"repro/internal/keystore"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/obs/obshttp"
	"repro/internal/replica"
	"repro/internal/transport"
	"repro/internal/ttp"
	"repro/internal/wal"
)

// peerFlags collects repeated -peer name=addr flags.
type peerFlags map[string]string

func (p peerFlags) String() string { return fmt.Sprint(map[string]string(p)) }

func (p peerFlags) Set(v string) error {
	name, addr, ok := strings.Cut(v, "=")
	if !ok {
		return fmt.Errorf("want name=addr, got %q", v)
	}
	p[name] = addr
	return nil
}

func main() {
	state := flag.String("state", "./state", "PKI state directory")
	name := flag.String("name", "ttp", "this TTP's identity name")
	listen := flag.String("listen", "127.0.0.1:9001", "TCP listen address")
	drain := flag.Duration("drain", 10*time.Second, "graceful shutdown drain budget")
	walDir := flag.String("wal-dir", "", "crash journal directory (empty = no journal)")
	fsync := flag.String("fsync", "always", "journal fsync policy: always, none, batch[:<n>], or group[:<max-batch>]")
	archiveDir := flag.String("archive-dir", "", "cold evidence archive directory; checkpoints compact closed resolves into it (empty = keep all evidence hot)")
	ckptEvery := flag.Duration("checkpoint-every", 0, "journal checkpoint/compaction interval; bounds crash-recovery replay to one interval of traffic (0 = never; requires -wal-dir)")
	auditPath := flag.String("audit", "", "persist the audit log to this file (fsynced per entry)")
	obsAddr := flag.String("obs-addr", "", "observability HTTP listen address serving /metrics, /healthz and /debug/pprof (empty = disabled)")
	logLevel := flag.String("log-level", "info", "structured event log level: debug, info, warn, or error")
	maxInflight := flag.Int("max-inflight", 0, "max concurrent resolve handlers before shedding with a retryable overload frame (0 = unlimited)")
	brWindow := flag.Int("breaker-window", 16, "peer-dial circuit breaker: outcomes in the sliding window")
	brRatio := flag.Float64("breaker-ratio", 0.5, "peer-dial circuit breaker: failure ratio that trips the breaker open")
	brCooldown := flag.Duration("breaker-cooldown", 5*time.Second, "peer-dial circuit breaker: open-state cooldown before a half-open probe (0 = breaker disabled)")
	auditEvery := flag.Duration("audit-interval", 0, "public-auditor sweep interval: challenge every provider whose resolve relayed a storage-dwell commitment (0 = never)")
	auditN := flag.Int("audit-challenges", 4, "random leaves per public-auditor challenge")
	replicas := flag.Int("replicas", 1, "resolve-journal replication factor: the leader plus replicas-1 in-process follower journals under <wal-dir>/replica-0N (requires -wal-dir; 1 = no replication)")
	quorum := flag.Int("quorum", 0, "durable copies (leader included) each resolve-journal append must reach before the statement is issued (0 = min(2, replicas))")
	peers := peerFlags{}
	flag.Var(peers, "peer", "peer address mapping name=host:port (repeatable)")
	flag.Parse()

	lvl, err := obs.ParseLevel(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ttpd:", err)
		os.Exit(1)
	}
	events := obs.NewLogger(os.Stderr, lvl)

	id, err := keystore.LoadIdentity(*state, *name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ttpd:", err)
		os.Exit(1)
	}
	world, err := keystore.LoadWorld(*state)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ttpd:", err)
		os.Exit(1)
	}
	opts := []core.Option{
		core.WithIdentity(id),
		core.WithCAPublicKey(world.CAPublicKey()),
		core.WithDirectory(world.Lookup),
		// Protocol counters share the default registry so they show up on
		// /metrics next to the runtime metrics, prefixed tpnr_.
		core.WithCounters(metrics.CountersOn(obs.Default(), "tpnr_")),
	}
	cleanup := func() {}
	var journal *wal.WAL
	if *walDir != "" {
		policy, batch, err := wal.ParsePolicy(*fsync)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ttpd:", err)
			os.Exit(1)
		}
		journal, err = wal.Open(*walDir, wal.Options{Policy: policy, BatchSize: batch})
		if err != nil {
			fmt.Fprintln(os.Stderr, "ttpd:", err)
			os.Exit(1)
		}
		opts = append(opts, core.WithJournal(journal))
		cleanup = func() { journal.Close() }
	}
	if *replicas > 1 && journal == nil {
		fmt.Fprintln(os.Stderr, "ttpd: -replicas requires -wal-dir")
		os.Exit(1)
	}
	if *quorum > *replicas {
		fmt.Fprintf(os.Stderr, "ttpd: -quorum %d exceeds the %d replicas\n", *quorum, *replicas)
		os.Exit(1)
	}
	// Resolve statements are evidence too: with -replicas the TTP's
	// journal is quorum-replicated exactly like the provider's, so the
	// statement a claimant walks away with survives losing this node.
	var replGroup *replica.Group
	if *replicas > 1 {
		policy, batch, _ := wal.ParsePolicy(*fsync)
		var dialers []replica.Dialer
		for r := 1; r < *replicas; r++ {
			fw, err := wal.Open(filepath.Join(*walDir, fmt.Sprintf("replica-%02d", r)),
				wal.Options{Policy: policy, BatchSize: batch})
			if err != nil {
				fmt.Fprintln(os.Stderr, "ttpd:", err)
				cleanup()
				os.Exit(1)
			}
			prev := cleanup
			cleanup = func() { fw.Close(); prev() }
			dialers = append(dialers, replica.Loopback(replica.NewFollower(fw)))
		}
		replGroup = replica.NewGroup(journal, dialers, replica.Options{
			Quorum: *quorum,
			Name:   "ttp_replica",
		})
		opts = append(opts, core.WithReplicator(replGroup))
		prev := cleanup
		cleanup = func() { replGroup.Close(); prev() }
		log.Printf("ttpd: resolve-journal replication on: %d replicas", *replicas)
	}
	if *ckptEvery > 0 && *walDir == "" {
		fmt.Fprintln(os.Stderr, "ttpd: -checkpoint-every requires -wal-dir")
		os.Exit(1)
	}
	if *archiveDir != "" {
		cold, err := archive.Open(*archiveDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ttpd:", err)
			cleanup()
			os.Exit(1)
		}
		opts = append(opts, core.WithArchive(cold))
		prev := cleanup
		cleanup = func() { cold.Close(); prev() }
	}
	// cleanup grows as resources open; defer the variable, not its
	// current value.
	defer func() { cleanup() }()

	// The peer-dial circuit breaker keeps a flapping counterparty from
	// dragging every resolve through a full dial-and-wait: once recent
	// dials fail past -breaker-ratio, further queries fast-fail to the
	// signed "peer-unreachable" statement until a half-open probe
	// succeeds. Resolve stays decisive either way.
	var br *breaker.Breaker
	if *brCooldown > 0 {
		br = breaker.New(breaker.Options{
			Window:       *brWindow,
			FailureRatio: *brRatio,
			Cooldown:     *brCooldown,
			Registry:     obs.Default(),
			Name:         "ttp_peer_dial",
		})
	}
	server, err := ttp.New(func(ctx context.Context, partyID string) (transport.Conn, error) {
		addr, ok := peers[partyID]
		if !ok {
			return nil, fmt.Errorf("ttpd: no -peer mapping for %q", partyID)
		}
		if br != nil && !br.Allow() {
			return nil, fmt.Errorf("ttpd: peer dial breaker open for %q", partyID)
		}
		conn, err := transport.DialTCPContext(ctx, addr)
		if br != nil {
			if err != nil {
				br.OnFailure()
			} else {
				br.OnSuccess()
			}
		}
		return conn, err
	}, opts...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ttpd:", err)
		cleanup()
		os.Exit(1)
	}

	if *auditPath != "" {
		audit, err := auditlog.OpenFile(*auditPath, nil, true)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ttpd:", err)
			cleanup()
			os.Exit(1)
		}
		if audit.Truncated() {
			log.Printf("ttpd: audit log %s had a torn tail from a crash; truncated", *auditPath)
		}
		server.SetAuditLog(audit)
		prev := cleanup
		cleanup = func() { audit.Close(); prev() }
	}

	if journal != nil {
		rep, err := server.Recover(context.Background())
		if err != nil {
			fmt.Fprintln(os.Stderr, "ttpd: journal recovery:", err)
			cleanup()
			os.Exit(1)
		}
		log.Printf("ttpd: recovered %d journal records across %d txns (%d resolves left open, torn tail: %v)",
			rep.Records, len(rep.Transactions), len(rep.OpenResolves), rep.TornTail)
		log.Printf("ttpd: recovery bounded by snapshot at LSN %d: %d tail records replayed, %d archived resolves untouched (%d tail records skipped as archived)",
			rep.SnapshotLSN, rep.TailRecords, rep.ArchivedSessions, rep.SkippedArchived)
		for _, txn := range rep.OpenResolves {
			log.Printf("ttpd: resolve for %s was interrupted; the claimant will retry", txn)
		}
	}

	l, err := transport.ListenTCP(*listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ttpd:", err)
		os.Exit(1)
	}
	log.Printf("ttpd: TTP %q listening on %s, peers %v", *name, l.Addr(), peers)

	var obsSrv *obshttp.Server
	if *obsAddr != "" {
		// /healthz degrades when the resolve journal can no longer accept
		// appends — or, replicated, can no longer reach its write quorum
		// — so an orchestrator routes claimants elsewhere.
		health := func() error {
			if journal != nil {
				if err := journal.Healthy(); err != nil {
					return err
				}
			}
			if replGroup != nil {
				if err := replGroup.Quorum(); err != nil {
					return fmt.Errorf("quorum: %w", err)
				}
			}
			return nil
		}
		obsSrv, err = obshttp.Start(*obsAddr, obs.Default(), health)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ttpd:", err)
			cleanup()
			os.Exit(1)
		}
		log.Printf("ttpd: observability endpoint on http://%s/metrics", obsSrv.Addr())
	}

	srv := core.NewServer(server,
		core.ServerLogger(events),
		core.ServerMaxInflight(*maxInflight),
	)
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	if *ckptEvery > 0 {
		go func() {
			tick := time.NewTicker(*ckptEvery)
			defer tick.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
					rep, err := server.Checkpoint()
					if err != nil {
						log.Printf("ttpd: checkpoint: %v", err)
						continue
					}
					log.Printf("ttpd: checkpoint at LSN %d (%d resolves archived, %d live retained)",
						rep.LSN, rep.Archived, rep.Retained)
				}
			}
		}()
	}

	// The public-auditor loop (DESIGN.md §14): every resolve that
	// relayed an NRR with a root commitment makes that session
	// auditable by the TTP, and this sweep challenges those providers
	// on the client's behalf. Failed audits land in the audit log and
	// leave the TTP holding a journaled unanswered challenge —
	// conviction material a claimant can subpoena later.
	if *auditEvery > 0 {
		go func() {
			tick := time.NewTicker(*auditEvery)
			defer tick.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
					ok, failed := server.AuditStored(ctx, *auditN)
					if ok+failed > 0 {
						log.Printf("ttpd: public audit sweep: %d session(s) verified, %d FAILED", ok, failed)
					}
				}
			}
		}()
	}

	done := make(chan error, 1)
	go func() { done <- srv.Serve(context.Background(), l) }()

	select {
	case err := <-done:
		if err != nil {
			log.Printf("ttpd: serve: %v", err)
			cleanup()
			os.Exit(1)
		}
	case <-ctx.Done():
		log.Printf("ttpd: signal received, draining for up to %v", *drain)
		sctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			log.Printf("ttpd: shutdown: %v", err)
		}
		if obsSrv != nil {
			if err := obsSrv.Shutdown(sctx); err != nil {
				log.Printf("ttpd: observability shutdown: %v", err)
			}
		}
	}
	log.Printf("ttpd: stopped")
}
