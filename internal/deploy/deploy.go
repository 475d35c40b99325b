// Package deploy wires complete TPNR deployments — CA, client,
// provider, TTP, in-memory network, and blob store — for examples,
// experiments, benchmarks and tests. It removes ~80 lines of identical
// setup from every harness that needs "an Alice, a Bob and a TTP that
// can talk".
package deploy

import (
	"context"
	"fmt"
	"os"
	"time"

	"repro/internal/clock"
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

// Party names used across the repository's deployments.
const (
	ClientName   = "alice"
	ProviderName = "bob"
	TTPName      = "ttp"
)

// Config parameterizes a deployment.
type Config struct {
	// Clock drives all parties; nil means the real clock.
	Clock clock.Clock
	// ResponseTimeout and MessageLifetime set protocol timing on every
	// party (zero means the package defaults).
	ResponseTimeout time.Duration
	MessageLifetime time.Duration
	// Scheme selects the signature scheme for every identity key
	// (cryptoutil.SchemeRSA or cryptoutil.SchemeEd25519). Zero resolves
	// from the TPNR_SCHEME environment variable ("rsa" when unset), so
	// the chaos matrix and CI can flip an entire deployment without code
	// changes.
	Scheme cryptoutil.Scheme
	// KeyBits sets identity key size; 0 means cryptoutil.DefaultRSABits.
	// Tests and benchmarks pass a smaller size or use TestKeys. Only
	// meaningful for the RSA scheme.
	KeyBits int
	// TestKeys, when true, uses the process-wide cached insecure test
	// keys instead of generating fresh ones (fast; never production).
	TestKeys bool
	// ProviderStore overrides the provider's blob store (default: a
	// fresh in-memory store).
	ProviderStore storage.Store
	// ClientOpts, ProviderOpts and TTPOpts append extra core options to
	// the respective party constructor — the chaos harness uses them to
	// attach per-party crash journals (core.WithJournal).
	ClientOpts, ProviderOpts, TTPOpts []core.Option
	// ProviderShards > 1 builds that many provider shards behind a
	// core.ShardedEngine instead of a single Provider. All shards share
	// the blob store and identity; ProviderOpts applies to every shard.
	ProviderShards int
	// ProviderShardOpts, when set with ProviderShards > 1, appends
	// per-shard options (the chaos harness attaches each shard's own
	// journal and archive here).
	ProviderShardOpts func(shard int) []core.Option
	// ProviderServerOpts and TTPServerOpts configure the core.Server
	// runtimes fronting Bob and the TTP (admission control, expiry
	// reaper, registries).
	ProviderServerOpts, TTPServerOpts []core.ServerOption

	// ProviderReplicas > 1 replicates each provider shard's evidence
	// journal to ProviderReplicas-1 in-process follower replicas over
	// the deployment network (one replica.Group per shard): the shard
	// only acks a protocol step — only signs the NRR — once the step's
	// journal record is durable on the write quorum. Every shard must
	// have a journal attached (ProviderOpts / ProviderShardOpts) and
	// ReplicaWAL must be set.
	ProviderReplicas int
	// ProviderQuorum is the total number of durable copies — leader
	// included — each append must reach before it is acked. Zero means
	// min(2, ProviderReplicas).
	ProviderQuorum int
	// ReplicaWAL opens the journal for follower `replica` (1-based; the
	// leader is replica 0) of provider shard `shard`. The deployment
	// closes what it opens. The conventional layout nests followers
	// under the shard: <walRoot>/<shard.DirName(s)>/replica-0R.
	ReplicaWAL func(shard, replica int) (*wal.WAL, error)
	// ReplicaAckTimeout and ReplicaRepairInterval override the
	// replication group's quorum-wait bound and anti-entropy cadence
	// (zero keeps the replica package defaults). The chaos harness
	// tightens both so degraded-mode transitions happen inside test
	// patience.
	ReplicaAckTimeout     time.Duration
	ReplicaRepairInterval time.Duration
}

// Deployment is a fully wired TPNR installation.
type Deployment struct {
	CA     *pki.Authority
	Client *core.Client
	// Engine is Bob's protocol engine behind the provider-shaped
	// surface: the single Provider below, or a core.ShardedEngine when
	// ProviderShards > 1. Code that works for both shapes (dispute
	// reads, recovery, health) should go through Engine.
	Engine core.ProviderEngine
	// Provider is Bob's first (or only) shard, kept for the single-shard
	// callers; ProviderServer is the concurrent runtime fronting Engine
	// until Close.
	Provider       *core.Provider
	ProviderServer *core.Server
	// TTPServer mediates Resolve; TTPRuntime fronts it until Close.
	TTPServer  *ttp.Server
	TTPRuntime *core.Server
	// Net is the in-memory address space: ProviderName and TTPName are
	// listening.
	Net *transport.Network
	// Store is the provider's blob store.
	Store storage.Store
	// ClientCounters, ProviderCounters, TTPCounters expose per-party
	// metrics.
	ClientCounters, ProviderCounters, TTPCounters *metrics.Counters

	Clock clock.Clock

	// ReplicaGroups holds the per-shard journal replication groups when
	// ProviderReplicas > 1 (ReplicaGroups[s] replicates shard s); empty
	// otherwise. Tests poll Converged/Quorum on them.
	ReplicaGroups []*replica.Group

	cancel       context.CancelFunc
	listeners    []transport.Listener
	replicaHosts []*replica.Host
	replicaWALs  []*wal.WAL
}

// New builds and starts a deployment.
func New(cfg Config) (*Deployment, error) {
	clk := cfg.Clock
	if clk == nil {
		clk = clock.Real()
	}
	keys, err := identityKeys(cfg)
	if err != nil {
		return nil, err
	}
	caKey, aliceKey, bobKey, ttpKey := keys[0], keys[1], keys[2], keys[3]

	ca := pki.NewAuthority("cloud-ca", caKey)
	notBefore := clk.Now().Add(-time.Hour)
	notAfter := clk.Now().Add(10 * 365 * 24 * time.Hour)
	aliceID, err := pki.NewIdentity(ca, ClientName, aliceKey, notBefore, notAfter)
	if err != nil {
		return nil, err
	}
	bobID, err := pki.NewIdentity(ca, ProviderName, bobKey, notBefore, notAfter)
	if err != nil {
		return nil, err
	}
	ttpID, err := pki.NewIdentity(ca, TTPName, ttpKey, notBefore, notAfter)
	if err != nil {
		return nil, err
	}

	dir := core.Directory(ca.Lookup)
	var cCtr, pCtr, tCtr metrics.Counters
	opts := func(id *pki.Identity, ctr *metrics.Counters) []core.Option {
		return []core.Option{
			core.WithIdentity(id),
			core.WithCAPublicKey(ca.Key()),
			core.WithDirectory(dir),
			core.WithClock(clk),
			core.WithCounters(ctr),
			core.WithResponseTimeout(cfg.ResponseTimeout),
			core.WithMessageLifetime(cfg.MessageLifetime),
		}
	}

	store := cfg.ProviderStore
	if store == nil {
		store = storage.NewMem(clk.Now)
	}
	shardCount := cfg.ProviderShards
	if shardCount < 1 {
		shardCount = 1
	}
	shards := make([]*core.Provider, shardCount)
	for i := range shards {
		providerOpts := append(opts(bobID, &pCtr), core.WithStore(store), core.WithTTPID(TTPName))
		providerOpts = append(providerOpts, cfg.ProviderOpts...)
		if cfg.ProviderShardOpts != nil {
			providerOpts = append(providerOpts, cfg.ProviderShardOpts(i)...)
		}
		shards[i], err = core.NewProvider(providerOpts...)
		if err != nil {
			return nil, err
		}
	}
	provider := shards[0]
	var engine core.ProviderEngine = provider
	if shardCount > 1 {
		engine, err = core.NewShardedEngine(shards)
		if err != nil {
			return nil, err
		}
	}
	client, err := core.NewClient(ProviderName, TTPName,
		append(opts(aliceID, &cCtr), cfg.ClientOpts...)...)
	if err != nil {
		return nil, err
	}

	net := transport.NewNetwork()
	ttpServer, err := ttp.New(func(ctx context.Context, partyID string) (transport.Conn, error) {
		return net.DialContext(ctx, partyID)
	}, append(opts(ttpID, &tCtr), cfg.TTPOpts...)...)
	if err != nil {
		return nil, err
	}

	groups, rHosts, rWALs, err := wireReplication(cfg, net, shards)
	if err != nil {
		return nil, err
	}

	ctx, cancel := context.WithCancel(context.Background())
	d := &Deployment{
		CA:               ca,
		Client:           client,
		Engine:           engine,
		Provider:         provider,
		ProviderServer:   core.NewServer(engine, cfg.ProviderServerOpts...),
		TTPServer:        ttpServer,
		TTPRuntime:       core.NewServer(ttpServer, cfg.TTPServerOpts...),
		Net:              net,
		Store:            store,
		ClientCounters:   &cCtr,
		ProviderCounters: &pCtr,
		TTPCounters:      &tCtr,
		Clock:            clk,
		ReplicaGroups:    groups,
		cancel:           cancel,
		replicaHosts:     rHosts,
		replicaWALs:      rWALs,
	}
	if err := d.serve(ctx, d.ProviderServer, ProviderName); err != nil {
		cancel()
		return nil, err
	}
	if err := d.serve(ctx, d.TTPRuntime, TTPName); err != nil {
		cancel()
		return nil, err
	}
	return d, nil
}

// ReplicaAddr names follower `replica` of provider shard `s` on the
// deployment network.
func ReplicaAddr(s, replica int) string {
	return fmt.Sprintf("%s/%s/replica-%02d", ProviderName, shard.DirName(s), replica)
}

// wireReplication builds one replication group per provider shard:
// ProviderReplicas-1 follower hosts listening on the deployment
// network, a leader group streaming each shard's journal to them, and
// the group attached to the shard so journal appends wait for the
// write quorum before the shard acks.
func wireReplication(cfg Config, net *transport.Network, shards []*core.Provider) (
	groups []*replica.Group, hosts []*replica.Host, wals []*wal.WAL, err error) {
	if cfg.ProviderReplicas <= 1 {
		return nil, nil, nil, nil
	}
	cleanup := func() {
		for _, g := range groups {
			g.Close()
		}
		for _, h := range hosts {
			h.Close()
		}
		for _, w := range wals {
			w.Close()
		}
	}
	if cfg.ReplicaWAL == nil {
		return nil, nil, nil, fmt.Errorf("deploy: ProviderReplicas=%d requires ReplicaWAL", cfg.ProviderReplicas)
	}
	quorum := cfg.ProviderQuorum
	if quorum == 0 {
		quorum = 2
		if quorum > cfg.ProviderReplicas {
			quorum = cfg.ProviderReplicas
		}
	}
	if quorum > cfg.ProviderReplicas {
		return nil, nil, nil, fmt.Errorf("deploy: quorum %d exceeds replicas %d", quorum, cfg.ProviderReplicas)
	}
	for si, p := range shards {
		if p.Journal() == nil {
			cleanup()
			return nil, nil, nil, fmt.Errorf("deploy: provider shard %d has no journal to replicate (attach core.WithJournal)", si)
		}
		var dialers []replica.Dialer
		for ri := 1; ri < cfg.ProviderReplicas; ri++ {
			fw, werr := cfg.ReplicaWAL(si, ri)
			if werr != nil {
				cleanup()
				return nil, nil, nil, fmt.Errorf("deploy: opening shard %d replica %d journal: %w", si, ri, werr)
			}
			wals = append(wals, fw)
			addr := ReplicaAddr(si, ri)
			ln, lerr := net.Listen(addr)
			if lerr != nil {
				cleanup()
				return nil, nil, nil, lerr
			}
			hosts = append(hosts, replica.Serve(ln, replica.NewFollower(fw)))
			dialers = append(dialers, func() (transport.Conn, error) { return net.Dial(addr) })
		}
		g := replica.NewGroup(p.Journal(), dialers, replica.Options{
			Quorum:         quorum,
			AckTimeout:     cfg.ReplicaAckTimeout,
			RepairInterval: cfg.ReplicaRepairInterval,
			Name:           fmt.Sprintf("replica_shard%02d", si),
		})
		groups = append(groups, g)
		p.SetReplicator(g)
	}
	return groups, hosts, wals, nil
}

// SchemeOf resolves cfg.Scheme, falling back to the TPNR_SCHEME
// environment variable ("rsa" when unset or empty).
func (cfg Config) SchemeOf() (cryptoutil.Scheme, error) {
	if cfg.Scheme != 0 {
		return cfg.Scheme, nil
	}
	s, err := cryptoutil.ParseScheme(os.Getenv("TPNR_SCHEME"))
	if err != nil {
		return 0, fmt.Errorf("deploy: TPNR_SCHEME: %w", err)
	}
	return s, nil
}

func identityKeys(cfg Config) ([]cryptoutil.KeyPair, error) {
	scheme, err := cfg.SchemeOf()
	if err != nil {
		return nil, err
	}
	if cfg.TestKeys {
		keys := make([]cryptoutil.KeyPair, 4)
		for i := range keys {
			keys[i] = cryptoutil.InsecureTestKeyScheme(100+i, scheme)
		}
		return keys, nil
	}
	keys := make([]cryptoutil.KeyPair, 4)
	for i := range keys {
		k, err := cryptoutil.GenerateKeyPair(scheme, cfg.KeyBits)
		if err != nil {
			return nil, fmt.Errorf("deploy: generating identity key: %w", err)
		}
		keys[i] = k
	}
	return keys, nil
}

// serve registers addr on the in-memory network and runs srv's accept
// loop in the background.
func (d *Deployment) serve(ctx context.Context, srv *core.Server, addr string) error {
	l, err := d.Net.Listen(addr)
	if err != nil {
		return err
	}
	d.listeners = append(d.listeners, l)
	go srv.Serve(ctx, l)
	return nil
}

// DialProvider opens a client connection to Bob.
func (d *Deployment) DialProvider() (transport.Conn, error) { return d.Net.Dial(ProviderName) }

// DialTTP opens a client connection to the TTP.
func (d *Deployment) DialTTP() (transport.Conn, error) { return d.Net.Dial(TTPName) }

// NewPool builds a SessionPool over this deployment's provider with
// §4.3 escalation wired to the TTP. A sharded deployment hands the
// pool the matching ring, so operations pin connections per shard in
// lockstep with the server-side routing.
func (d *Deployment) NewPool(opts ...core.PoolOption) *core.SessionPool {
	base := []core.PoolOption{core.PoolTTPDial(func(ctx context.Context) (transport.Conn, error) {
		return d.Net.DialContext(ctx, TTPName)
	})}
	if se, ok := d.Engine.(*core.ShardedEngine); ok {
		base = append(base, core.PoolShardRing(shard.New(se.N())))
	}
	opts = append(base, opts...)
	return core.NewSessionPool(d.Client, func(ctx context.Context) (transport.Conn, error) {
		return d.Net.DialContext(ctx, ProviderName)
	}, opts...)
}

// Close gracefully shuts both servers down, draining in-flight
// sessions for up to a second each.
func (d *Deployment) Close() {
	// Close the listeners here, not just in Shutdown: the Serve
	// goroutines may not have registered them yet, and a dial must fail
	// the moment Close returns.
	for _, l := range d.listeners {
		l.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	d.ProviderServer.Shutdown(ctx)
	d.TTPRuntime.Shutdown(ctx)
	d.cancel()
	// Replication teardown comes after the servers have drained: groups
	// first (stop quorum waits and streamers), then follower hosts, then
	// the follower journals the deployment opened.
	for _, g := range d.ReplicaGroups {
		g.Close()
	}
	for _, h := range d.replicaHosts {
		h.Close()
	}
	for _, w := range d.replicaWALs {
		w.Close()
	}
}
