package integration

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

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

// privKeyCounter is the seam bench/keys.go times the parties through,
// here only counting: every signature and every unseal any party
// computes.
type privKeyCounter struct {
	cryptoutil.Signer
	ops *atomic.Int64
}

func (s privKeyCounter) Sign(msg []byte) ([]byte, error) {
	s.ops.Add(1)
	return s.Signer.Sign(msg)
}

func (s privKeyCounter) Unseal(ciphertext []byte) ([]byte, error) {
	s.ops.Add(1)
	return s.Signer.Unseal(ciphertext)
}

// doneCounter counts the messages a handler has finished with.
type doneCounter struct {
	core.Handler
	n *atomic.Int64
}

func (h doneCounter) Handle(raw []byte) ([]byte, error) {
	defer h.n.Add(1)
	return h.Handler.Handle(raw)
}

// budgetWorld is client, provider and TTP on the in-memory transport,
// all three signing through one privKeyCounter and journaling on one
// recording file system, the provider's blob store beside them. With
// replicas > 1 the provider's journal is quorum-replicated (write
// quorum 2) to replicas-1 in-process followers on the same file
// system.
type budgetWorld struct {
	client   *core.Client
	provider *core.Provider
	conn     transport.Conn // to the provider
	ttpConn  transport.Conn
	ops      atomic.Int64
	// handled counts the messages the provider has finished with.
	handled atomic.Int64
	// fs holds every journal and the blob store; journals lists every
	// party's and follower's WAL.
	fs       *fsys.Mem
	journals []*wal.WAL
	group    *replica.Group // nil unless replicated
	txns     int
}

func newBudgetWorld(t *testing.T, replicas int) *budgetWorld {
	t.Helper()
	w := &budgetWorld{fs: fsys.NewMem()}
	ca := pki.NewAuthority("ca", cryptoutil.InsecureTestKey(0))
	now := time.Now()
	journal := func(name string) *wal.WAL {
		j, err := wal.Open("/"+name, wal.Options{Policy: wal.SyncAlways, FS: w.fs})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { j.Close() })
		w.journals = append(w.journals, j)
		return j
	}
	opts := func(name string, slot int) []core.Option {
		key := cryptoutil.SignerKeyPair(privKeyCounter{cryptoutil.InsecureTestKey(slot).Signer(), &w.ops})
		id, err := pki.NewIdentity(ca, name, key, now.Add(-time.Hour), now.Add(time.Hour))
		if err != nil {
			t.Fatal(err)
		}
		return []core.Option{
			core.WithIdentity(id),
			core.WithCAPublicKey(ca.Key()),
			core.WithDirectory(ca.Lookup),
			// Only the stalled uploads ever wait this long.
			core.WithResponseTimeout(100 * time.Millisecond),
			core.WithJournal(journal(name)),
		}
	}
	store, err := storage.NewDiskFS(w.fs, "/blobs", nil)
	if err != nil {
		t.Fatal(err)
	}
	if w.provider, err = core.NewProvider(append(opts("bob", 2), core.WithTTPID("ttp"), core.WithStore(store))...); err != nil {
		t.Fatal(err)
	}
	if replicas > 1 {
		var dialers []replica.Dialer
		for r := 1; r < replicas; r++ {
			dialers = append(dialers, replica.Loopback(replica.NewFollower(journal(fmt.Sprintf("bob-replica-%02d", r)))))
		}
		w.group = replica.NewGroup(w.provider.Journal(), dialers, replica.Options{Quorum: 2})
		t.Cleanup(func() { w.group.Close() })
		w.provider.SetReplicator(w.group)
	}
	net := transport.NewNetwork()
	ttpServer, err := ttp.New(func(ctx context.Context, party string) (transport.Conn, error) {
		return net.DialContext(ctx, party)
	}, opts("ttp", 3)...)
	if err != nil {
		t.Fatal(err)
	}
	if w.client, err = core.NewClient("bob", "ttp", opts("alice", 1)...); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	for addr, h := range map[string]core.Handler{"bob": doneCounter{w.provider, &w.handled}, "ttp": ttpServer} {
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
		t.Cleanup(func() {
			sctx, scancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer scancel()
			srv.Shutdown(sctx)
			<-done
		})
	}
	if w.conn, err = net.Dial("bob"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.conn.Close() })
	if w.ttpConn, err = net.Dial("ttp"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.ttpConn.Close() })
	return w
}

func (w *budgetWorld) newTxn() string { w.txns++; return fmt.Sprintf("txn-%03d", w.txns) }

func budgetKey(txn string) string { return "obj/" + txn }

var budgetSmall = bytes.Repeat([]byte("x"), 1024)

func (w *budgetWorld) upload(t *testing.T, data []byte) string {
	t.Helper()
	txn := w.newTxn()
	if _, err := w.client.Upload(context.Background(), w.conn, txn, budgetKey(txn), data); err != nil {
		t.Fatal(err)
	}
	return txn
}

// stall uploads to a provider that keeps the NRO and withholds the
// receipt (§4.1). The provider turns honest again only once its
// handler has returned — long before the client gives up, except on a
// busy host — so that upload costs it nothing after stall returns.
func (w *budgetWorld) stall(t *testing.T) string {
	t.Helper()
	txn, handled := w.newTxn(), w.handled.Load()
	w.provider.SetMisbehavior(core.Misbehavior{SilentAfterNRO: true})
	_, err := w.client.Upload(context.Background(), w.conn, txn, budgetKey(txn), budgetSmall)
	if !errors.Is(err, core.ErrTimeout) {
		t.Fatalf("stalled upload: err = %v, want ErrTimeout", err)
	}
	for deadline := time.Now().Add(5 * time.Second); w.handled.Load() == handled; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("provider never finished with the stalled NRO")
		}
	}
	w.provider.SetMisbehavior(core.Misbehavior{})
	return txn
}

func (w *budgetWorld) resolve(txn string) error {
	res, err := w.client.Resolve(context.Background(), w.ttpConn, txn, "no NRR before the time limit")
	if err == nil && (res.PeerEvidence == nil || res.PeerEvidence.Header.Kind != evidence.KindNRR) {
		err = fmt.Errorf("resolve (%q) did not return the provider's NRR", res.Outcome)
	}
	return err
}

// budgetRow is one kind of protocol operation: prepare does the set-up
// that is not counted and returns the operation that is.
type budgetRow struct {
	name    string
	prepare func(t *testing.T, w *budgetWorld) func() error
}

var budgetRows = []budgetRow{
	{"upload", func(t *testing.T, w *budgetWorld) func() error {
		txn := w.newTxn()
		return func() error {
			_, err := w.client.Upload(context.Background(), w.conn, txn, budgetKey(txn), budgetSmall)
			return err
		}
	}},
	{"download", func(t *testing.T, w *budgetWorld) func() error {
		up, txn := w.upload(t, budgetSmall), w.newTxn()
		return func() error {
			res, err := w.client.Download(context.Background(), w.conn, txn, budgetKey(up), up)
			if err == nil && !res.IntegrityOK {
				err = errors.New("download failed the integrity link")
			}
			return err
		}
	}},
	{"audit of 16 leaves", func(t *testing.T, w *budgetWorld) func() error {
		up := w.upload(t, bytes.Repeat([]byte("y"), 16*4096))
		return func() error {
			_, err := w.client.AuditObject(context.Background(), w.conn, up, 16)
			return err
		}
	}},
	{"resolve of a withheld receipt", func(t *testing.T, w *budgetWorld) func() error {
		txn := w.stall(t)
		return func() error { return w.resolve(txn) }
	}},
	{"settle of 16 uploads", func(t *testing.T, w *budgetWorld) func() error {
		ups := make([]string, 16)
		for i := range ups {
			ups[i] = w.upload(t, budgetSmall)
		}
		session := w.newTxn()
		return func() error {
			res, err := w.client.SettleSession(context.Background(), w.conn, session, ups)
			if err == nil && res.Tree.Leaves() != len(ups) {
				err = errors.New("settlement does not cover the uploads")
			}
			return err
		}
	}},
	{"abort of a stalled upload", func(t *testing.T, w *budgetWorld) func() error {
		txn := w.stall(t)
		return func() error {
			res, err := w.client.Abort(context.Background(), w.conn, txn, "no NRR before the time limit")
			if err == nil && !res.Accepted {
				err = errors.New("abort rejected")
			}
			return err
		}
	}},
}

// TestPrivateKeyBudget pins the private-key operations — signatures
// and unseals, summed over client, provider and TTP — that one
// operation of each kind costs. At RSA-2048 one of them is about a
// millisecond and together they are nine tenths of every latency E17
// reports, but E17 is outside tier-1; this makes a count regression
// fail `go test ./...`.
//
// A message costs its sender two signatures and its recipient one
// unseal, except that Sign(H(data)) of a message carrying no object
// data is a constant per key that each party's evidence builder signs
// once: such a message costs its sender one. The table is that steady
// state.
func TestPrivateKeyBudget(t *testing.T) {
	w := newBudgetWorld(t, 1)
	want := map[string]int64{
		// NRO and NRR sign real digests: the paper's six.
		"upload": 6,
		// The request carries no data (1 + 1), the response does (2 + 1).
		"download": 5,
		// Challenge and response carry no object data (1 + 1 each); the
		// provider signs its proof (1).
		"audit of 16 leaves": 5,
		// Four messages without object data (1 + 1 each) and the receipt
		// the provider issues over the upload's real digests (2).
		"resolve of a withheld receipt": 10,
		// Request and response sign the digests of their payloads (2 + 1
		// each); one signature covers the 16 receipts.
		"settle of 16 uploads": 7,
		// Request and receipt carry no object data (1 + 1 each).
		"abort of a stalled upload": 4,
	}
	count := func(t *testing.T, op func() error) int64 {
		t.Helper()
		before := w.ops.Load()
		if err := op(); err != nil {
			t.Fatal(err)
		}
		return w.ops.Load() - before
	}
	// In the first resolve client, TTP and provider each send their first
	// message without object data: the steady state's 10 and three fills.
	first := w.stall(t)
	if got := count(t, func() error { return w.resolve(first) }); got != 13 {
		t.Fatalf("first resolve: %d private-key operations, want 13", got)
	}
	for _, row := range budgetRows {
		t.Run(row.name, func(t *testing.T) {
			if got := count(t, row.prepare(t, w)); got != want[row.name] {
				t.Errorf("%d private-key operations, want %d", got, want[row.name])
			}
		})
	}
}

// TestFsyncBudget pins the flushes one operation of each kind costs,
// in two columns: the journal fsyncs (WAL.Syncs over every party's and
// follower's journal — what E17's fsyncs_per_op counts) and every file
// and directory sync the recording file system sees, blob store
// included. The second column keeps a flush from moving to a site the
// first does not see.
//
// Each side flushes once per message it sends, and once more when an
// operation ends at the client: a two-message operation costs 3 —
// client before its request, provider before its answer, client before
// it returns. A provider flush costs one more per follower at R=3. The
// blob store adds its two temp-file syncs and one directory sync per
// stored object. The crash-state enumerator (internal/crashenum) shows
// each of these flushes carries load.
func TestFsyncBudget(t *testing.T) {
	type budget struct{ wal, seam uint64 }
	want := map[string]budget{
		"upload":   {3, 6},
		"download": {3, 3},
		// Challenge and response: the same three flushes as download.
		"audit of 16 leaves": {3, 3},
		// Client, TTP, provider, TTP, client: one flush per message sent
		// and one when Resolve returns.
		"resolve of a withheld receipt": {5, 5},
		"settle of 16 uploads":          {3, 3},
		"abort of a stalled upload":     {3, 3},
	}
	rows := append([]budgetRow(nil), budgetRows...)
	rows = append(rows, budgetRow{"replicated upload, R=3", budgetRows[0].prepare})
	want["replicated upload, R=3"] = budget{5, 8}

	worlds := map[int]*budgetWorld{1: newBudgetWorld(t, 1), 3: newBudgetWorld(t, 3)}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			w := worlds[1]
			if strings.HasPrefix(row.name, "replicated") {
				w = worlds[3]
			}
			op := row.prepare(t, w)
			before := w.flushes(t)
			if err := op(); err != nil {
				t.Fatal(err)
			}
			after := w.flushes(t)
			got := budget{after.wal - before.wal, after.seam - before.seam}
			if got != want[row.name] {
				t.Errorf("flushes (journal, all) = %v, want %v", got, want[row.name])
			}
		})
	}
}

// flushes reads both budget columns once every follower has caught up
// (an operation returns when the quorum acked, maybe before the last
// follower's flush).
func (w *budgetWorld) flushes(t *testing.T) (b struct{ wal, seam uint64 }) {
	for deadline := time.Now().Add(5 * time.Second); w.group != nil && !w.group.Converged(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("followers never caught up")
		}
	}
	for _, j := range w.journals {
		b.wal += j.Syncs()
	}
	files, dirs := w.fs.Syncs()
	b.seam = uint64(files + dirs)
	return b
}
