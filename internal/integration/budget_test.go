package integration

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cryptoutil"
	"repro/internal/evidence"
	"repro/internal/pki"
	"repro/internal/transport"
	"repro/internal/ttp"
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
// all three signing through one privKeyCounter.
type budgetWorld struct {
	client   *core.Client
	provider *core.Provider
	conn     transport.Conn // to the provider
	ttpConn  transport.Conn
	ops      atomic.Int64
	// handled counts the messages the provider has finished with.
	handled atomic.Int64
}

func newBudgetWorld(t *testing.T) *budgetWorld {
	t.Helper()
	w := &budgetWorld{}
	ca := pki.NewAuthority("ca", cryptoutil.InsecureTestKey(0))
	now := time.Now()
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
		}
	}
	var err error
	if w.provider, err = core.NewProvider(append(opts("bob", 2), core.WithTTPID("ttp"))...); err != nil {
		t.Fatal(err)
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
	w := newBudgetWorld(t)
	ctx := context.Background()

	var txns int
	newTxn := func() string { txns++; return fmt.Sprintf("txn-%03d", txns) }
	key := func(txn string) string { return "obj/" + txn }
	small := bytes.Repeat([]byte("x"), 1024)
	upload := func(t *testing.T, data []byte) string {
		t.Helper()
		txn := newTxn()
		if _, err := w.client.Upload(ctx, w.conn, txn, key(txn), data); err != nil {
			t.Fatal(err)
		}
		return txn
	}
	// stall uploads to a provider that keeps the NRO and withholds the
	// receipt (§4.1). The provider turns honest again only once its
	// handler has returned — long before the client gives up, except on a
	// busy host — so that upload costs it nothing after stall returns.
	stall := func(t *testing.T) string {
		t.Helper()
		txn, handled := newTxn(), w.handled.Load()
		w.provider.SetMisbehavior(core.Misbehavior{SilentAfterNRO: true})
		_, err := w.client.Upload(ctx, w.conn, txn, key(txn), small)
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
	resolve := func(txn string) error {
		res, err := w.client.Resolve(ctx, w.ttpConn, txn, "no NRR before the time limit")
		if err == nil && (res.PeerEvidence == nil || res.PeerEvidence.Header.Kind != evidence.KindNRR) {
			err = fmt.Errorf("resolve (%q) did not return the provider's NRR", res.Outcome)
		}
		return err
	}

	rows := []struct {
		name string
		want int64
		// prepare does the set-up that is not counted and returns the
		// operation that is.
		prepare func(t *testing.T) func() error
	}{
		// NRO and NRR sign real digests: the paper's six.
		{"upload", 6, func(t *testing.T) func() error {
			txn := newTxn()
			return func() error {
				_, err := w.client.Upload(ctx, w.conn, txn, key(txn), small)
				return err
			}
		}},
		// The request carries no data (1 + 1), the response does (2 + 1).
		{"download", 5, func(t *testing.T) func() error {
			up, txn := upload(t, small), newTxn()
			return func() error {
				res, err := w.client.Download(ctx, w.conn, txn, key(up), up)
				if err == nil && !res.IntegrityOK {
					err = errors.New("download failed the integrity link")
				}
				return err
			}
		}},
		// Challenge and response carry no object data (1 + 1 each); the
		// provider signs its proof (1).
		{"audit of 16 leaves", 5, func(t *testing.T) func() error {
			up := upload(t, bytes.Repeat([]byte("y"), 16*4096))
			return func() error {
				_, err := w.client.AuditObject(ctx, w.conn, up, 16)
				return err
			}
		}},
		// Four messages without object data (1 + 1 each) and the receipt
		// the provider issues over the upload's real digests (2).
		{"resolve of a withheld receipt", 10, func(t *testing.T) func() error {
			txn := stall(t)
			return func() error { return resolve(txn) }
		}},
		// Request and response sign the digests of their payloads (2 + 1
		// each); one signature covers the 16 receipts.
		{"settle of 16 uploads", 7, func(t *testing.T) func() error {
			ups := make([]string, 16)
			for i := range ups {
				ups[i] = upload(t, small)
			}
			session := newTxn()
			return func() error {
				res, err := w.client.SettleSession(ctx, w.conn, session, ups)
				if err == nil && res.Tree.Leaves() != len(ups) {
					err = errors.New("settlement does not cover the uploads")
				}
				return err
			}
		}},
		// Request and receipt carry no object data (1 + 1 each).
		{"abort of a stalled upload", 4, func(t *testing.T) func() error {
			txn := stall(t)
			return func() error {
				res, err := w.client.Abort(ctx, w.conn, txn, "no NRR before the time limit")
				if err == nil && !res.Accepted {
					err = errors.New("abort rejected")
				}
				return err
			}
		}},
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
	first := stall(t)
	if got := count(t, func() error { return resolve(first) }); got != 13 {
		t.Fatalf("first resolve: %d private-key operations, want 13", got)
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			if got := count(t, row.prepare(t)); got != row.want {
				t.Errorf("%d private-key operations, want %d", got, row.want)
			}
		})
	}
}
