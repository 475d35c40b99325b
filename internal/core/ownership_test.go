package core_test

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/arbitrator"
	"repro/internal/archive"
	"repro/internal/core"
	"repro/internal/deploy"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/wal"
)

// serveFrames fronts h on n under name in place of core.Server: each
// connection receives, handles and replies in turn, as serveConn does.
// With poison set, the inbound frame is overwritten with 0xA5 as soon
// as Handle returns — what a recycled buffer holds once the next Recv
// has reused it — so anything a handler kept of the frame (a decoded
// Message.Payload is a view into it) turns to garbage before it is
// used again.
func serveFrames(t *testing.T, n *transport.Network, name string, h core.Handler, poison bool) {
	t.Helper()
	l, err := n.Listen(name)
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu     sync.Mutex
		conns  []transport.Conn
		closed bool
		wg     sync.WaitGroup
	)
	serve := func(c transport.Conn) {
		defer wg.Done()
		for {
			raw, err := c.Recv()
			if err != nil {
				return
			}
			reply, _ := h.Handle(raw)
			if poison {
				for i := range raw {
					raw[i] = 0xA5
				}
			}
			if reply != nil && c.Send(reply) != nil {
				return
			}
		}
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			if closed {
				c.Close()
			}
			conns = append(conns, c)
			mu.Unlock()
			wg.Add(1)
			go serve(c)
		}
	}()
	t.Cleanup(func() {
		l.Close()
		mu.Lock()
		closed = true
		for _, c := range conns {
			c.Close()
		}
		mu.Unlock()
		wg.Wait()
	})
}

// ownershipOutcome is what a run of runOwnershipScenario leaves behind
// that a handler keeping a recycled frame could corrupt.
type ownershipOutcome struct {
	Resolve      string
	Sessions     []string
	NeedsResolve []string
	Verdicts     map[string]string
}

// journaledParties opens the client's and the provider's journal and
// cold archive under dir, closed at the end of the test.
type journaledParties struct {
	cfg                deploy.Config
	clientArc, provArc *archive.Store
	wals               []*wal.WAL
}

func openJournaledParties(t *testing.T, dir string, store storage.Store) *journaledParties {
	t.Helper()
	p := &journaledParties{}
	w := func(party string) *wal.WAL {
		j, err := wal.Open(filepath.Join(dir, party, "wal"), wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		p.wals = append(p.wals, j)
		return j
	}
	a := func(party string) *archive.Store {
		s, err := archive.Open(filepath.Join(dir, party, "archive"))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	p.clientArc, p.provArc = a("client"), a("provider")
	p.cfg = deploy.Config{
		TestKeys:        true,
		ResponseTimeout: 5 * time.Second,
		ProviderStore:   store,
		ClientOpts:      []core.Option{core.WithJournal(w("client")), core.WithArchive(p.clientArc)},
		ProviderOpts:    []core.Option{core.WithJournal(w("provider")), core.WithArchive(p.provArc)},
	}
	t.Cleanup(p.close)
	return p
}

func (p *journaledParties) close() {
	for _, j := range p.wals {
		j.Close()
	}
	p.clientArc.Close()
	p.provArc.Close()
}

// runOwnershipScenario drives every handler that receives a payload —
// the provider's upload, audit-challenge, settle and resolve, and the
// TTP's resolve — then checks what each left behind once the frames
// are gone: every object downloads byte-equal, a provider restarted on
// the same journal recovers its sessions, and the arbitrator rules on
// every upload from the parties' cold archives.
func runOwnershipScenario(t *testing.T, poison bool) ownershipOutcome {
	ctx := context.Background()
	dir := t.TempDir()
	store, err := storage.NewDisk(filepath.Join(dir, "blobs"), time.Now)
	if err != nil {
		t.Fatal(err)
	}
	first := openJournaledParties(t, dir, store)
	d, err := deploy.New(first.cfg)
	if err != nil {
		t.Fatal(err)
	}
	d.Close() // frees the provider and TTP names for serveFrames
	serveFrames(t, d.Net, deploy.ProviderName, d.Engine, poison)
	serveFrames(t, d.Net, deploy.TTPName, d.TTPServer, poison)
	conn := mustDial(t, d)

	rng := rand.New(rand.NewSource(27))
	objects := map[string][]byte{}
	upload := func(ctx context.Context, conn transport.Conn, txn string, n int) error {
		data := make([]byte, n)
		rng.Read(data)
		objects[txn] = data
		_, err := d.Client.Upload(ctx, conn, txn, "own/"+txn, data)
		return err
	}
	if err := upload(ctx, conn, "txn-own-audited", 64<<10); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Client.AuditObject(ctx, conn, "txn-own-audited", 4); err != nil {
		t.Fatalf("audit: %v", err)
	}
	settled := []string{"txn-own-s0", "txn-own-s1", "txn-own-s2"}
	for _, txn := range settled {
		if err := upload(ctx, conn, txn, 4<<10); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.Client.SettleSession(ctx, conn, "sess-own", settled); err != nil {
		t.Fatalf("settle: %v", err)
	}

	// A withheld receipt, recovered through the TTP: the resolve frame
	// reaches the TTP's handler and, forwarded, the provider's.
	d.Engine.SetMisbehavior(core.Misbehavior{SilentAfterNRO: true})
	stallCtx, cancel := context.WithTimeout(ctx, 200*time.Millisecond)
	err = upload(stallCtx, mustDial(t, d), "txn-own-stalled", 4<<10)
	cancel()
	if err == nil {
		t.Fatal("upload to a silent provider got a receipt")
	}
	d.Engine.SetMisbehavior(core.Misbehavior{})
	ttpConn, err := d.DialTTP()
	if err != nil {
		t.Fatal(err)
	}
	defer ttpConn.Close()
	res, err := d.Client.Resolve(ctx, ttpConn, "txn-own-stalled", "no NRR")
	if err != nil {
		t.Fatalf("resolve: %v", err)
	}
	out := ownershipOutcome{Resolve: res.Outcome, Verdicts: map[string]string{}}

	for txn, data := range objects {
		got, err := d.Client.Download(ctx, conn, "dl-"+txn, "own/"+txn, txn)
		if err != nil {
			t.Fatalf("download %s: %v", txn, err)
		}
		if !bytes.Equal(got.Data, data) {
			t.Fatalf("%s downloads different bytes than were uploaded", txn)
		}
	}

	// Restart on the same disk: a fresh provider and client recover from
	// the journals, then compact into the cold archives the arbitrator
	// reads.
	first.close()
	second := openJournaledParties(t, dir, store)
	d2, err := deploy.New(second.cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d2.Close)
	prep, err := d2.Provider.Recover(ctx)
	if err != nil {
		t.Fatalf("provider recover: %v", err)
	}
	if _, err := d2.Client.Recover(ctx); err != nil {
		t.Fatalf("client recover: %v", err)
	}
	out.Sessions = append([]string(nil), prep.Transactions...)
	out.NeedsResolve = append([]string(nil), prep.NeedsResolve...)
	sort.Strings(out.Sessions)
	sort.Strings(out.NeedsResolve)
	if _, err := d2.Client.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := d2.Provider.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	arb := arbitrator.NewWithKey(d2.CA.Key(), d2.CA.Lookup, nil)
	for txn := range objects {
		cb, err := second.clientArc.Get(txn)
		if err != nil {
			t.Fatalf("client cold bundle for %s: %v", txn, err)
		}
		pb, err := second.provArc.Get(txn)
		if errors.Is(err, archive.ErrNotFound) {
			pb = nil // the provider's side of the resolved upload is still live
		} else if err != nil {
			t.Fatal(err)
		}
		obj, err := store.Get("own/" + txn)
		if err != nil {
			t.Fatal(err)
		}
		c, err := arbitrator.CaseFromBundles(cb, pb, obj.Data)
		if err != nil {
			t.Fatal(err)
		}
		out.Verdicts[txn] = arb.Decide(c).Verdict.String()
	}
	return out
}

// TestHandlersDoNotKeepPayload pins the ownership rule DecodeMessage's
// zero-copy payload rests on: handlers are done with the inbound frame
// when they return. Poisoning every frame right after its handler
// returns must leave the objects, the recovered sessions and the
// verdicts exactly as an unpoisoned run leaves them.
func TestHandlersDoNotKeepPayload(t *testing.T) {
	want := runOwnershipScenario(t, false)
	got := runOwnershipScenario(t, true)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("poisoned frames changed the outcome:\n got  %+v\n want %+v", got, want)
	}
	if want.Resolve != "continue" || len(want.Sessions) == 0 {
		t.Fatalf("scenario did not run as scripted: %+v", want)
	}
	for txn, v := range want.Verdicts {
		if v != arbitrator.VerdictClaimFalse.String() {
			t.Errorf("%s: verdict %s, want %s", txn, v, arbitrator.VerdictClaimFalse)
		}
	}
}
