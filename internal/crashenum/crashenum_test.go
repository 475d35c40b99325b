package crashenum

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/archive"
	"repro/internal/core"
	"repro/internal/cryptoutil"
	"repro/internal/evidence"
	"repro/internal/fsys"
	"repro/internal/pki"
	"repro/internal/replica"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/ttp"
	"repro/internal/wal"
)

// cell is one point of the crash-enum matrix: the signature scheme,
// the provider journal's replication factor, and how many rounds each
// trace runs its operations. Plain `go test` runs the bounded traces —
// one round, at the defaults; `make crash-enum` sets TPNR_SCHEME and
// TPNR_REPLICAS — the variables the chaos suite reads — for every cell,
// and a set variable selects the unbounded traces: three rounds, so
// later rounds run over journals, archives and stores with history.
type cell struct {
	scheme   cryptoutil.Scheme
	replicas int // 0: each trace's own default
	rounds   int
}

func matrixCell(t *testing.T) cell {
	t.Helper()
	name, setScheme := os.LookupEnv("TPNR_SCHEME")
	scheme, err := cryptoutil.ParseScheme(name)
	if err != nil {
		t.Fatal(err)
	}
	c := cell{scheme: scheme, rounds: 1}
	if env, ok := os.LookupEnv("TPNR_REPLICAS"); ok {
		if c.replicas, err = strconv.Atoi(env); err != nil || c.replicas < 1 {
			t.Fatalf("TPNR_REPLICAS: bad replica count %q", env)
		}
		setScheme = true
	}
	if setScheme {
		c.rounds = 3
	}
	return c
}

// The parties' paths on the recorded file system.
const (
	aliceWAL, aliceArc = "/alice/wal", "/alice/archive"
	bobWAL, bobArc     = "/bob/wal", "/bob/archive"
	bobBlobs           = "/bob/blobs"
	ttpWAL, ttpArc     = "/ttp/wal", "/ttp/archive"
)

func followerWAL(r int) string { return fmt.Sprintf("/bob/replica-%02d", r) }

// Event labels: "<party>|<what>|<txn>", recorded into the trace when a
// message leaves a party (the message kind) or a client operation
// returns ("returned").
func event(party, what, txn string) string { return party + "|" + what + "|" + txn }

// identities are shared by the live cluster and every recovery.
type identities struct {
	ca  *pki.Authority
	ids map[string]*pki.Identity
}

func newIdentities(t *testing.T, scheme cryptoutil.Scheme) *identities {
	t.Helper()
	ca := pki.NewAuthority("ca", cryptoutil.InsecureTestKeyScheme(0, scheme))
	now := time.Now()
	in := &identities{ca: ca, ids: map[string]*pki.Identity{}}
	for slot, name := range []string{"alice", "bob", "ttp"} {
		id, err := pki.NewIdentity(ca, name, cryptoutil.InsecureTestKeyScheme(slot+1, scheme), now.Add(-time.Hour), now.Add(time.Hour))
		if err != nil {
			t.Fatal(err)
		}
		in.ids[name] = id
	}
	return in
}

func (in *identities) opts(name string, w *wal.WAL, a *archive.Store, timeout time.Duration) []core.Option {
	o := []core.Option{
		core.WithIdentity(in.ids[name]),
		core.WithCAPublicKey(in.ca.Key()),
		core.WithDirectory(in.ca.Lookup),
		core.WithResponseTimeout(timeout),
		core.WithJournal(w),
	}
	if a != nil {
		o = append(o, core.WithArchive(a))
	}
	return o
}

// upload is what the test sent for one upload transaction.
type upload struct {
	key  string
	data []byte
}

// cluster is client, provider (optionally replicated) and TTP on the
// in-memory transport, every durable byte on one recording fsys.Mem.
type cluster struct {
	t        *testing.T
	fs       *fsys.Mem
	in       *identities
	replicas int

	client   *core.Client
	provider *core.Provider
	conn     transport.Conn
	ttpConn  transport.Conn
	handled  atomic.Int64
	uploads  map[string]upload
	closers  []func()
}

// markSent records the message raw leaving party.
func markSent(fs *fsys.Mem, party string, raw []byte) {
	m, err := core.DecodeMessage(raw)
	if err != nil {
		return
	}
	h, err := m.Header()
	if err != nil {
		return
	}
	fs.Event(event(party, h.Kind.String(), h.TxnID))
	// The provider's resolve answer carries its receipt to the TTP.
	if party == "bob" && h.Kind == evidence.KindResolveResponse && len(m.Payload) > 0 {
		if ev, err := evidence.Decode(m.Payload); err == nil && ev.Header.Kind == evidence.KindNRR {
			fs.Event(event(party, evidence.KindNRR.String(), h.TxnID))
		}
	}
}

// eventConn records every message sent on it.
type eventConn struct {
	transport.Conn
	fs    *fsys.Mem
	party string
}

func (c *eventConn) Send(raw []byte) error {
	markSent(c.fs, c.party, raw)
	return c.Conn.Send(raw)
}

// eventHandler records every reply its handler returns, before the
// server sends it.
type eventHandler struct {
	core.Handler
	fs    *fsys.Mem
	party string
	done  *atomic.Int64
}

func (h eventHandler) Handle(raw []byte) ([]byte, error) {
	reply, err := h.Handler.Handle(raw)
	if reply != nil {
		markSent(h.fs, h.party, reply)
	}
	if h.done != nil {
		h.done.Add(1)
	}
	return reply, err
}

func (c *cluster) onClose(f func()) { c.closers = append(c.closers, f) }

func (c *cluster) close() {
	for i := len(c.closers) - 1; i >= 0; i-- {
		c.closers[i]()
	}
	c.closers = nil
}

// boot opens every party on an empty recording file system, its
// journals under SyncAlways; the opening itself is part of the trace.
func boot(t *testing.T, in *identities, replicas int) *cluster {
	t.Helper()
	return bootPolicy(t, in, replicas, wal.SyncAlways)
}

// bootPolicy is boot with the journals under policy.
func bootPolicy(t *testing.T, in *identities, replicas int, policy wal.SyncPolicy) *cluster {
	t.Helper()
	c := &cluster{t: t, fs: fsys.NewMem(), in: in, replicas: replicas, uploads: map[string]upload{}}
	openWAL := func(dir string) *wal.WAL {
		w, err := wal.Open(dir, wal.Options{Policy: policy, FS: c.fs})
		if err != nil {
			t.Fatal(err)
		}
		c.onClose(func() { w.Close() })
		return w
	}
	openArc := func(dir string) *archive.Store {
		a, err := archive.OpenFS(c.fs, dir)
		if err != nil {
			t.Fatal(err)
		}
		c.onClose(func() { a.Close() })
		return a
	}
	const timeout = 5 * time.Second
	store, err := storage.NewDiskFS(c.fs, bobBlobs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.provider, err = core.NewProvider(append(in.opts("bob", openWAL(bobWAL), openArc(bobArc), timeout),
		core.WithStore(store), core.WithTTPID("ttp"))...); err != nil {
		t.Fatal(err)
	}
	if replicas > 1 {
		var dialers []replica.Dialer
		for r := 1; r < replicas; r++ {
			dialers = append(dialers, replica.Loopback(replica.NewFollower(openWAL(followerWAL(r)))))
		}
		g := replica.NewGroup(c.provider.Journal(), dialers, replica.Options{Quorum: 2, Name: "crashenum"})
		c.onClose(func() { g.Close() })
		c.provider.SetReplicator(g)
	}
	net := transport.NewNetwork()
	ttpSrv, err := ttp.New(func(ctx context.Context, party string) (transport.Conn, error) {
		conn, err := net.DialContext(ctx, party)
		if err != nil {
			return nil, err
		}
		return &eventConn{Conn: conn, fs: c.fs, party: "ttp"}, nil
	}, in.opts("ttp", openWAL(ttpWAL), openArc(ttpArc), timeout)...)
	if err != nil {
		t.Fatal(err)
	}
	if c.client, err = core.NewClient("bob", "ttp", in.opts("alice", openWAL(aliceWAL), openArc(aliceArc), timeout)...); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	for addr, h := range map[string]core.Handler{
		"bob": eventHandler{c.provider, c.fs, "bob", &c.handled},
		"ttp": eventHandler{ttpSrv, c.fs, "ttp", nil},
	} {
		l, err := net.Listen(addr)
		if err != nil {
			t.Fatal(err)
		}
		srv := core.NewServer(h)
		done := make(chan struct{})
		go func() {
			defer close(done)
			srv.Serve(ctx, l)
		}()
		c.onClose(func() {
			sctx, scancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer scancel()
			srv.Shutdown(sctx)
			<-done
		})
	}
	c.onClose(cancel)
	for _, p := range []struct {
		addr string
		conn *transport.Conn
	}{{"bob", &c.conn}, {"ttp", &c.ttpConn}} {
		conn, err := net.Dial(p.addr)
		if err != nil {
			t.Fatal(err)
		}
		c.onClose(func() { conn.Close() })
		*p.conn = &eventConn{Conn: conn, fs: c.fs, party: "alice"}
	}
	return c
}

func (c *cluster) upload(txn, key string, data []byte) {
	c.t.Helper()
	c.uploads[txn] = upload{key, data}
	if _, err := c.client.Upload(context.Background(), c.conn, txn, key, data); err != nil {
		c.t.Fatalf("upload %s: %v", txn, err)
	}
	c.fs.Event(event("alice", "returned", txn))
}

// stall uploads to a provider that keeps the NRO and withholds the
// receipt, and gives up on the receipt once the provider is done.
func (c *cluster) stall(txn, key string, data []byte) {
	c.t.Helper()
	c.uploads[txn] = upload{key, data}
	handled := c.handled.Load()
	c.provider.SetMisbehavior(core.Misbehavior{SilentAfterNRO: true})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		for c.handled.Load() == handled {
			time.Sleep(time.Millisecond)
		}
		cancel()
	}()
	if _, err := c.client.Upload(ctx, c.conn, txn, key, data); !errors.Is(err, core.ErrCancelled) {
		c.t.Fatalf("stalled upload %s: err = %v, want ErrCancelled", txn, err)
	}
	c.provider.SetMisbehavior(core.Misbehavior{})
}

func (c *cluster) resolve(txn string) {
	c.t.Helper()
	res, err := c.client.Resolve(context.Background(), c.ttpConn, txn, "no NRR")
	if err != nil || res.PeerEvidence == nil || res.PeerEvidence.Header.Kind != evidence.KindNRR {
		c.t.Fatalf("resolve %s: %v (outcome %v)", txn, err, res)
	}
	c.fs.Event(event("alice", "returned", txn))
}

func (c *cluster) checkpoint() {
	c.t.Helper()
	if _, err := c.client.Checkpoint(); err != nil {
		c.t.Fatal(err)
	}
	if _, err := c.provider.Checkpoint(); err != nil {
		c.t.Fatal(err)
	}
}

// recovered is every party restarted on one crash state.
type recovered struct {
	client    *core.Client
	provider  *core.Provider
	ttp       *ttp.Server
	store     storage.Store
	followers []*core.Provider
	closers   []func()
}

func (r *recovered) close() {
	for i := len(r.closers) - 1; i >= 0; i-- {
		r.closers[i]()
	}
}

// recoverOn restarts every party on fs and runs its Recover; an error
// is itself a violation (a party that cannot come back has lost all
// its evidence).
func recoverOn(fs fsys.FS, in *identities, replicas int) (*recovered, error) {
	r := &recovered{}
	ctx := context.Background()
	openWAL := func(dir string) (*wal.WAL, error) {
		w, err := wal.Open(dir, wal.Options{Policy: wal.SyncAlways, FS: fs})
		if err == nil {
			r.closers = append(r.closers, func() { w.Close() })
		}
		return w, err
	}
	openArc := func(dir string) (*archive.Store, error) {
		a, err := archive.OpenFS(fs, dir)
		if err == nil {
			r.closers = append(r.closers, func() { a.Close() })
		}
		return a, err
	}
	party := func(name, walDir, arcDir string) ([]core.Option, error) {
		w, err := openWAL(walDir)
		if err != nil {
			return nil, fmt.Errorf("%s journal: %w", name, err)
		}
		var a *archive.Store
		if arcDir != "" {
			if a, err = openArc(arcDir); err != nil {
				return nil, fmt.Errorf("%s archive: %w", name, err)
			}
		}
		return in.opts(name, w, a, time.Second), nil
	}
	var err error
	if r.store, err = storage.NewDiskFS(fs, bobBlobs, nil); err != nil {
		return r, err
	}
	o, err := party("alice", aliceWAL, aliceArc)
	if err != nil {
		return r, err
	}
	if r.client, err = core.NewClient("bob", "ttp", o...); err != nil {
		return r, err
	}
	if _, err := r.client.Recover(ctx); err != nil {
		return r, fmt.Errorf("client recover: %w", err)
	}
	newProvider := func(walDir, arcDir string) (*core.Provider, error) {
		o, err := party("bob", walDir, arcDir)
		if err != nil {
			return nil, err
		}
		p, err := core.NewProvider(append(o, core.WithStore(r.store), core.WithTTPID("ttp"))...)
		if err != nil {
			return nil, err
		}
		if _, err := p.Recover(ctx); err != nil {
			return nil, fmt.Errorf("provider recover (%s): %w", walDir, err)
		}
		return p, nil
	}
	if r.provider, err = newProvider(bobWAL, bobArc); err != nil {
		return r, err
	}
	for i := 1; i < replicas; i++ {
		p, err := newProvider(followerWAL(i), "")
		if err != nil {
			return r, err
		}
		r.followers = append(r.followers, p)
	}
	if o, err = party("ttp", ttpWAL, ttpArc); err != nil {
		return r, err
	}
	if r.ttp, err = ttp.New(nil, o...); err != nil {
		return r, err
	}
	if _, err := r.ttp.Recover(ctx); err != nil {
		return r, fmt.Errorf("ttp recover: %w", err)
	}
	return r, nil
}

// violation is one broken promise in one crash state; class groups
// violations for the regression rows.
type violation struct {
	class, detail string
}

// check recovers every party on st and asserts the dispute invariant
// for every event before the crash point:
//
//   - the client sent an NRO ⇒ it holds the NRO (it can resolve);
//   - an operation returned to the client ⇒ it holds the provider's NRR;
//   - the provider sent an NRR (directly or inside a resolve answer) ⇒
//     it holds the client's NRO, on a write quorum of its journals when
//     replicated, and the stored object matches that receipt or an
//     upload of the same key the client has since sent;
//   - the TTP sent a statement ⇒ it holds the statement.
func (w *world) check(st State) []violation {
	r, err := recoverOn(st.FS, w.in, w.replicas)
	defer r.close()
	if err != nil {
		return []violation{{"recover", err.Error()}}
	}
	var out []violation
	fail := func(class, format string, args ...any) {
		out = append(out, violation{class, fmt.Sprintf(format, args...)})
	}
	nrrAt := map[string]int{} // key → event index of its latest sent NRR
	nrrTxn := map[string]string{}
	events := w.events(st.At)
	for i, e := range events {
		parts := strings.SplitN(e, "|", 3)
		party, what, txn := parts[0], parts[1], parts[2]
		switch {
		case party == "alice" && what == evidence.KindNRO.String():
			if _, err := r.client.PendingNRO(txn); err != nil {
				fail("client-nro", "client sent the NRO for %s but lost it: %v", txn, err)
			}
		case party == "alice" && what == "returned":
			if _, err := r.client.EvidenceByKind(txn, evidence.RolePeer, evidence.KindNRR); err != nil {
				fail("client-nrr", "client returned %s but lost the NRR: %v", txn, err)
			}
		case party == "bob" && what == evidence.KindNRR.String():
			if _, err := r.provider.EvidenceByKind(txn, evidence.RolePeer, evidence.KindNRO); err != nil {
				fail("provider-nro", "provider sent the NRR for %s but lost the NRO: %v", txn, err)
			}
			if w.quorum {
				copies := 0
				for _, p := range append([]*core.Provider{r.provider}, r.followers...) {
					if _, err := p.EvidenceByKind(txn, evidence.RolePeer, evidence.KindNRO); err == nil {
						copies++
					}
				}
				if copies < 2 {
					fail("quorum", "provider sent the NRR for %s with the NRO on %d of %d journals", txn, copies, len(r.followers)+1)
				}
			}
			key := w.uploads[txn].key
			nrrAt[key], nrrTxn[key] = i, txn
		case party == "ttp" && what == evidence.KindResolveResponse.String():
			if _, err := r.ttp.EvidenceByKind(txn, evidence.RoleOwn, evidence.KindResolveResponse); err != nil {
				fail("ttp-statement", "TTP sent its statement for %s but lost it: %v", txn, err)
			}
		}
	}
	for key, at := range nrrAt {
		obj, err := r.store.Get(key)
		if err != nil {
			fail("object", "provider sent the NRR for %s but lost %q: %v", nrrTxn[key], key, err)
			continue
		}
		ok := bytes.Equal(obj.Data, w.uploads[nrrTxn[key]].data)
		for _, e := range events[at+1:] {
			parts := strings.SplitN(e, "|", 3)
			if u, sent := w.uploads[parts[2]]; sent && parts[0] == "alice" && parts[1] == evidence.KindNRO.String() && u.key == key {
				ok = ok || bytes.Equal(obj.Data, u.data)
			}
		}
		if !ok {
			fail("object", "provider sent the NRR for %s but %q reads as another version", nrrTxn[key], key)
		}
	}
	return out
}

// world is one recorded trace with what check needs to judge it.
type world struct {
	in       *identities
	replicas int
	quorum   bool
	trace    []fsys.Op
	uploads  map[string]upload
}

// events lists the protocol events among the first n operations.
func (w *world) events(n int) []string {
	var out []string
	for _, op := range w.trace[:n] {
		if op.Kind == fsys.OpEvent {
			out = append(out, op.Label)
		}
	}
	return out
}

// traces are the four recorded runs. Each body runs once per round
// with fresh transactions.
var traces = []struct {
	name     string
	replicas int
	body     func(c *cluster, round int)
}{
	// Two versions of one key: a lost rename would bring the first
	// back after the second's receipt left.
	{"upload", 1, func(c *cluster, round int) {
		for v := 1; v <= 2; v++ {
			c.upload(fmt.Sprintf("u%d-%d", round, v), "k", []byte(fmt.Sprintf("version %d of round %d", v, round)))
		}
	}},
	// Uploads, a checkpoint that compacts them into the archives and
	// truncates the journals, and one upload past it.
	{"checkpoint", 1, func(c *cluster, round int) {
		for i := 1; i <= 2; i++ {
			c.upload(fmt.Sprintf("c%d-%d", round, i), fmt.Sprintf("k%d-%d", round, i), []byte("compacted"))
		}
		c.checkpoint()
		c.upload(fmt.Sprintf("c%d-3", round), fmt.Sprintf("k%d-3", round), []byte("after the checkpoint"))
	}},
	{"replicated", 3, func(c *cluster, round int) {
		for v := 1; v <= 2; v++ {
			c.upload(fmt.Sprintf("r%d-%d", round, v), "k", []byte(fmt.Sprintf("version %d of round %d", v, round)))
		}
	}},
	// A withheld receipt, resolved through the TTP: the provider issues
	// the NRR inside its answer.
	{"resolve", 1, func(c *cluster, round int) {
		txn := fmt.Sprintf("s%d", round)
		c.stall(txn, "k"+txn, []byte("stalled"))
		c.resolve(txn)
	}},
}

// regressions are violation classes that each name a flush this
// repository once lacked; each is its own row so the fault it pins is
// named when it comes back.
var regressions = []struct {
	trace, class, name, fault string
}{
	{"upload", "object", "blob-rename-durable",
		"storage.Disk renamed the blob and its metadata without syncing the directory: after a power loss an object whose NRR was sent reads as its previous version"},
	{"checkpoint", "provider-nro", "archive-create-durable",
		"archive.Open created evidence.dat and evidence.idx without syncing them or their directory: a checkpoint moved evidence into a file a crash could lose, then truncated the journal"},
	{"checkpoint", "client-nrr", "archive-create-durable-client",
		"the client's archive files, created the same way, lost its compacted receipts the same way"},
}

// TestCrashEnum records each trace, enumerates every crash state the
// persistence model allows at every point of it, recovers all parties
// on each and asserts the dispute invariant (see check).
func TestCrashEnum(t *testing.T) {
	cl := matrixCell(t)
	in := newIdentities(t, cl.scheme)
	for _, tr := range traces {
		t.Run(tr.name, func(t *testing.T) {
			replicas := tr.replicas
			if cl.replicas > 0 {
				replicas = cl.replicas
			}
			c := boot(t, in, replicas)
			for round := 1; round <= cl.rounds; round++ {
				tr.body(c, round)
			}
			w := &world{in: in, replicas: replicas, trace: c.fs.Trace(), uploads: c.uploads,
				// Followers hold the journal, not the cold archive, so the
				// quorum count is only meaningful where nothing was compacted.
				quorum: replicas > 1 && tr.name != "checkpoint"}
			c.close()

			byClass := map[string][]string{}
			n := Enumerate(w.trace, func(st State) {
				for _, v := range w.check(st) {
					byClass[v.class] = append(byClass[v.class], st.String()+": "+v.detail)
				}
			})
			t.Logf("%d operations, %d distinct crash states", len(w.trace), n)
			for _, rg := range regressions {
				if rg.trace != tr.name {
					continue
				}
				t.Run(rg.name, func(t *testing.T) {
					if v := byClass[rg.class]; len(v) > 0 {
						t.Errorf("%s\n%d states, first: %s", rg.fault, len(v), v[0])
					}
				})
			}
			for class, v := range byClass {
				t.Errorf("%s: %d violating states; first: %s", class, len(v), v[0])
			}
		})
	}
}

// TestCrashEnumSyncBatch records the upload trace with every journal
// under SyncBatch and recovers every party on each crash state. Batch
// acks before it flushes, so the dispute invariant is not its promise;
// what is asserted is only that every crash state recovers — the
// unsynced tail a crash reorders (a later write kept, an earlier one
// lost) must read as a torn tail, not as corrupt records.
func TestCrashEnumSyncBatch(t *testing.T) {
	in := newIdentities(t, matrixCell(t).scheme)
	c := bootPolicy(t, in, 1, wal.SyncBatch)
	for _, tr := range traces {
		if tr.name == "upload" {
			tr.body(c, 1)
		}
	}
	trace := c.fs.Trace()
	c.close()
	var failed []string
	n := Enumerate(trace, func(st State) {
		r, err := recoverOn(st.FS, in, 1)
		r.close()
		if err != nil {
			failed = append(failed, st.String()+": "+err.Error())
		}
	})
	t.Logf("%d operations, %d distinct crash states", len(trace), n)
	if len(failed) > 0 {
		t.Errorf("%d crash states fail to recover; first: %s", len(failed), failed[0])
	}
}
