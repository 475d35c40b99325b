package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/archive"
	"repro/internal/core"
	"repro/internal/cryptoutil"
	"repro/internal/metrics"
	"repro/internal/pki"
	"repro/internal/replica"
	"repro/internal/shard"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/ttp"
	"repro/internal/wal"
)

// responseTimeout is every party's wait for a peer. It is far above any
// operation here, so no timer decides an outcome; the dispute workload
// ends its stalled uploads by cancelling their context instead.
const responseTimeout = 30 * time.Second

// topoConfig is what differs between workloads: the provider's shape
// (`nrserver -shards N -replicas R`) and whether a TTP runs beside it.
type topoConfig struct {
	shards   int
	replicas int // journal copies per shard, leader included; quorum is 2 when replicas > 1
	withTTP  bool
}

// topo is one booted deployment: the provider (and TTP) runtimes on
// loopback TCP, wired the way cmd/nrserver and cmd/ttpd wire them, and
// the closed-loop client side. Every journal uses wal.SyncAlways, the
// daemons' default, on both sides of any comparison.
type topo struct {
	cfg  topoConfig
	dir  string
	tr   *tracer
	ca   *pki.Authority
	ids  map[string]*pki.Identity
	ring *shard.Ring

	client       *core.Client
	pool         *core.SessionPool
	conn         transport.Conn // the one client's connection to the provider
	ttpConn      transport.Conn
	providerAddr string
	ttpAddr      string

	providers []*core.Provider
	engine    core.ProviderEngine
	groups    []*replica.Group
	ttpServer *ttp.Server
	store     *tracedStore

	clientArc    *archive.Store
	providerArcs []*archive.Store

	clientCtr, providerCtr, ttpCtr metrics.Counters
	replCalls                      atomic.Int64

	closers []func()
}

// onClose registers a teardown step; close runs them newest first.
func (t *topo) onClose(f func()) { t.closers = append(t.closers, f) }

func (t *topo) close() {
	for i := len(t.closers) - 1; i >= 0; i-- {
		t.closers[i]()
	}
	t.closers = nil
}

func (t *topo) openWAL(parts ...string) (*wal.WAL, error) {
	w, err := wal.Open(filepath.Join(append([]string{t.dir}, parts...)...), wal.Options{Policy: wal.SyncAlways})
	if err != nil {
		return nil, err
	}
	t.onClose(func() { w.Close() })
	return w, nil
}

func (t *topo) openArchive(parts ...string) (*archive.Store, error) {
	a, err := archive.Open(filepath.Join(append([]string{t.dir}, parts...)...))
	if err != nil {
		return nil, err
	}
	t.onClose(func() { a.Close() })
	return a, nil
}

// partyOpts are the options every party shares.
func (t *topo) partyOpts(id *pki.Identity, ctr *metrics.Counters, w *wal.WAL, a *archive.Store) []core.Option {
	return []core.Option{
		core.WithIdentity(id),
		core.WithCAPublicKey(t.ca.Key()),
		core.WithDirectory(t.ca.Lookup),
		core.WithCounters(ctr),
		core.WithResponseTimeout(responseTimeout),
		core.WithJournal(w),
		core.WithArchive(a),
	}
}

// serve runs h behind a core.Server on a loopback port and returns the
// address.
func (t *topo) serve(h core.Handler, spanName string) (string, error) {
	l, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := core.NewServer(traceHandler(h, t.tr, spanName))
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(context.Background(), l)
	}()
	t.onClose(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		<-done
	})
	return l.Addr(), nil
}

func (t *topo) dial(ctx context.Context, addr string) (transport.Conn, error) {
	c, err := transport.DialTCPContext(ctx, addr)
	if err != nil {
		return nil, err
	}
	return &tracedConn{inner: c, t: t.tr}, nil
}

// boot builds a deployment on an empty directory. On error it tears
// down whatever it had opened.
func boot(cfg topoConfig, dir string, keys keySet, tr *tracer) (_ *topo, err error) {
	t := &topo{cfg: cfg, dir: dir, tr: tr}
	defer func() {
		if err != nil {
			t.close()
		}
	}()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}

	t.ca = pki.NewAuthority(caName, keys.ca)
	notBefore, notAfter := time.Now().Add(-time.Hour), time.Now().Add(10*365*24*time.Hour)
	t.ids = make(map[string]*pki.Identity, 3)
	// A fixed order, so certificate serials are the same in every run.
	for _, p := range []struct {
		name string
		key  cryptoutil.KeyPair
	}{{clientName, keys.alice}, {providerName, keys.bob}, {ttpName, keys.ttp}} {
		if t.ids[p.name], err = pki.NewIdentity(t.ca, p.name, p.key, notBefore, notAfter); err != nil {
			return nil, err
		}
	}

	// Provider: cmd/nrserver's buildEngine, with in-process followers.
	disk, err := storage.NewDisk(filepath.Join(dir, "provider", "blobs"), nil)
	if err != nil {
		return nil, err
	}
	t.store = &tracedStore{inner: disk, t: tr}
	t.providers = make([]*core.Provider, cfg.shards)
	for i := range t.providers {
		sub := "."
		if cfg.shards > 1 {
			sub = shard.DirName(i)
		}
		w, err := t.openWAL("provider", "wal", sub)
		if err != nil {
			return nil, err
		}
		a, err := t.openArchive("provider", "archive", sub)
		if err != nil {
			return nil, err
		}
		t.providerArcs = append(t.providerArcs, a)
		opts := append(t.partyOpts(t.ids[providerName], &t.providerCtr, w, a),
			core.WithStore(t.store), core.WithTTPID(ttpName))
		if t.providers[i], err = core.NewProvider(opts...); err != nil {
			return nil, err
		}
		if cfg.replicas > 1 {
			var dialers []replica.Dialer
			for r := 1; r < cfg.replicas; r++ {
				fw, err := t.openWAL("provider", "wal", sub, fmt.Sprintf("replica-%02d", r))
				if err != nil {
					return nil, err
				}
				dialers = append(dialers, replica.Loopback(replica.NewFollower(fw)))
			}
			g := replica.NewGroup(w, dialers, replica.Options{Quorum: 2, Name: fmt.Sprintf("replica_shard%02d", i)})
			t.onClose(func() { g.Close() })
			t.groups = append(t.groups, g)
			t.providers[i].SetReplicator(&tracedRepl{inner: g, t: tr, calls: &t.replCalls})
		}
	}
	t.engine = t.providers[0]
	if cfg.shards > 1 {
		se, err := core.NewShardedEngine(t.providers)
		if err != nil {
			return nil, err
		}
		t.engine = se
		t.ring = shard.New(cfg.shards)
	}
	if _, err := t.engine.Recover(context.Background()); err != nil {
		return nil, err
	}
	if t.providerAddr, err = t.serve(t.engine, spanHandle); err != nil {
		return nil, err
	}

	// TTP: cmd/ttpd, dialing the provider over TCP for each resolve.
	if cfg.withTTP {
		w, err := t.openWAL("ttp", "wal")
		if err != nil {
			return nil, err
		}
		a, err := t.openArchive("ttp", "archive")
		if err != nil {
			return nil, err
		}
		t.ttpServer, err = ttp.New(func(ctx context.Context, party string) (transport.Conn, error) {
			if party != providerName {
				return nil, fmt.Errorf("bench: TTP has no address for %q", party)
			}
			return transport.DialTCPContext(ctx, t.providerAddr)
		}, t.partyOpts(t.ids[ttpName], &t.ttpCtr, w, a)...)
		if err != nil {
			return nil, err
		}
		if _, err := t.ttpServer.Recover(context.Background()); err != nil {
			return nil, err
		}
		if t.ttpAddr, err = t.serve(t.ttpServer, spanTTPHandle); err != nil {
			return nil, err
		}
	}

	// Client side.
	cw, err := t.openWAL("client", "wal")
	if err != nil {
		return nil, err
	}
	if t.clientArc, err = t.openArchive("client", "archive"); err != nil {
		return nil, err
	}
	if t.client, err = core.NewClient(providerName, ttpName,
		t.partyOpts(t.ids[clientName], &t.clientCtr, cw, t.clientArc)...); err != nil {
		return nil, err
	}
	ctx := context.Background()
	if cfg.shards > 1 {
		t.pool = core.NewSessionPool(t.client,
			func(ctx context.Context) (transport.Conn, error) { return t.dial(ctx, t.providerAddr) },
			core.PoolShardRing(t.ring), core.PoolMaxConns(2*cfg.shards))
		t.onClose(func() { t.pool.Close() })
	} else {
		if t.conn, err = t.dial(ctx, t.providerAddr); err != nil {
			return nil, err
		}
		t.onClose(func() { t.conn.Close() })
	}
	if cfg.withTTP {
		if t.ttpConn, err = t.dial(ctx, t.ttpAddr); err != nil {
			return nil, err
		}
		t.onClose(func() { t.ttpConn.Close() })
	}
	return t, nil
}

// checkpoint drains every party's terminal sessions to its archive and
// compacts its journal, so each round starts from the same hot state.
func (t *topo) checkpoint() error {
	if _, err := t.client.Checkpoint(); err != nil {
		return fmt.Errorf("client checkpoint: %w", err)
	}
	if _, err := t.engine.Checkpoint(); err != nil {
		return fmt.Errorf("provider checkpoint: %w", err)
	}
	if t.ttpServer != nil {
		if _, err := t.ttpServer.Checkpoint(); err != nil {
			return fmt.Errorf("ttp checkpoint: %w", err)
		}
	}
	return nil
}

// settle waits until every follower journal has caught up, so journal
// bytes are counted in the round that caused them.
func (t *topo) settle() error {
	deadline := time.Now().Add(5 * time.Second)
	for _, g := range t.groups {
		for !g.Converged() {
			if time.Now().After(deadline) {
				return fmt.Errorf("replica group still %d records behind", g.Lag())
			}
			time.Sleep(200 * time.Microsecond)
		}
	}
	return nil
}

// shardOf is the provider shard a transaction routes to.
func (t *topo) shardOf(txn string) int {
	if t.ring == nil {
		return 0
	}
	return t.ring.Shard(txn)
}

// archiveBytes is the size of every party's cold archive.
func (t *topo) archiveBytes() int64 {
	var n int64
	for _, party := range []string{"client", "provider", "ttp"} {
		n += dirBytes(filepath.Join(t.dir, party, "archive"))
	}
	return n
}
