package core_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/auditlog"
	"repro/internal/core"
	"repro/internal/deploy"
	"repro/internal/evidence"
	"repro/internal/obs"
	"repro/internal/transport"
)

// TestServerConcurrent32InMemory hammers the deployment's core.Server
// with 32 goroutines mixing uploads, downloads, aborts and resolves
// over the in-memory transport. Afterwards every stored object must
// hold exactly the bytes its own transaction uploaded (no cross-talk),
// the evidence archive must hold every NRR, and the server must not
// have absorbed any panic.
func TestServerConcurrent32InMemory(t *testing.T) {
	d := newDeploy(t, 5*time.Second)
	ctx := context.Background()
	const n = 32
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conn, err := d.DialProvider()
			if err != nil {
				errs <- err
				return
			}
			defer conn.Close()
			key := fmt.Sprintf("c32/obj-%02d", i)
			data := bytes.Repeat([]byte{byte(i + 1)}, 256+i)
			upTxn := fmt.Sprintf("c32-up-%02d", i)
			up, err := d.Client.Upload(ctx, conn, upTxn, key, data)
			if err != nil {
				errs <- fmt.Errorf("upload %d: %w", i, err)
				return
			}
			if up.NRR == nil || up.NRR.Header.TxnID != upTxn {
				errs <- fmt.Errorf("upload %d: NRR for wrong txn", i)
				return
			}
			switch i % 4 {
			case 0, 1:
				res, err := d.Client.Download(ctx, conn, fmt.Sprintf("c32-dl-%02d", i), key, upTxn)
				if err != nil {
					errs <- fmt.Errorf("download %d: %w", i, err)
					return
				}
				if !bytes.Equal(res.Data, data) || !res.IntegrityOK {
					errs <- fmt.Errorf("download %d: wrong bytes (cross-talk?)", i)
					return
				}
			case 2:
				res, err := d.Client.Abort(ctx, conn, fmt.Sprintf("c32-ab-%02d", i), "concurrent abort")
				if err != nil {
					errs <- fmt.Errorf("abort %d: %w", i, err)
					return
				}
				if !res.Accepted {
					errs <- fmt.Errorf("abort %d: rejected", i)
					return
				}
			case 3:
				ttpConn, err := d.DialTTP()
				if err != nil {
					errs <- err
					return
				}
				defer ttpConn.Close()
				res, err := d.Client.Resolve(ctx, ttpConn, upTxn, "concurrent probe")
				if err != nil {
					errs <- fmt.Errorf("resolve %d: %w", i, err)
					return
				}
				if res.Outcome != "continue" || res.PeerEvidence == nil {
					errs <- fmt.Errorf("resolve %d: outcome %q", i, res.Outcome)
					return
				}
				if res.PeerEvidence.Header.TxnID != upTxn {
					errs <- fmt.Errorf("resolve %d: evidence for txn %q", i, res.PeerEvidence.Header.TxnID)
					return
				}
			}
			errs <- nil
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("c32/obj-%02d", i)
		obj, err := d.Store.Get(key)
		if err != nil {
			t.Fatalf("object %s missing: %v", key, err)
		}
		if want := bytes.Repeat([]byte{byte(i + 1)}, 256+i); !bytes.Equal(obj.Data, want) {
			t.Fatalf("object %s: stored bytes differ (cross-talk)", key)
		}
	}
	if p := d.ProviderServer.Panics(); p != 0 {
		t.Fatalf("provider server absorbed %d panics", p)
	}
	if p := d.TTPRuntime.Panics(); p != 0 {
		t.Fatalf("TTP runtime absorbed %d panics", p)
	}
}

// TestSetMisbehaviorDuringServe is the -race regression for the
// provider's runtime toggles: SetMisbehavior and SetAuditLog must be
// safe while 32 goroutines drive sessions through Serve.
func TestSetMisbehaviorDuringServe(t *testing.T) {
	d := newDeploy(t, 5*time.Second)
	ctx := context.Background()
	const n = 32
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conn, err := d.DialProvider()
			if err != nil {
				t.Error(err)
				return
			}
			defer conn.Close()
			txn := fmt.Sprintf("race-%02d", i)
			if _, err := d.Client.Upload(ctx, conn, txn, "race/"+txn, []byte("v")); err != nil {
				t.Errorf("upload %d: %v", i, err)
			}
		}(i)
	}
	// Flip the toggles concurrently with the sessions above. The
	// misbehavior stays benign so every upload still succeeds; the race
	// detector is the assertion.
	log := auditlog.New(nil)
	flip := make(chan struct{})
	go func() {
		defer close(flip)
		for j := 0; j < 200; j++ {
			d.Provider.SetMisbehavior(core.Misbehavior{})
			if j%2 == 0 {
				d.Provider.SetAuditLog(log)
			} else {
				d.Provider.SetAuditLog(nil)
			}
		}
	}()
	wg.Wait()
	<-flip
}

// slowHandler is a Handler stub whose processing takes a fixed time;
// finished flips once the in-flight handling completed, so tests can
// observe whether Shutdown actually drained it.
type slowHandler struct {
	delay    time.Duration
	finished atomic.Bool
}

func (h *slowHandler) Handle(raw []byte) ([]byte, error) {
	time.Sleep(h.delay)
	h.finished.Store(true)
	return []byte("done"), nil
}

// TestServerShutdownDrainsInflight: Shutdown must wait for a handling
// already in progress before tearing connections down.
func TestServerShutdownDrainsInflight(t *testing.T) {
	h := &slowHandler{delay: 300 * time.Millisecond}
	srv := core.NewServer(h)
	net := transport.NewNetwork()
	l, err := net.Listen("slow")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(context.Background(), l)

	conn, err := net.Dial("slow")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Send([]byte("work")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // let the handling start
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if !h.finished.Load() {
		t.Fatal("Shutdown returned before the in-flight handling completed")
	}
}

// TestServerShutdownDeadline: a Shutdown context that expires before
// the drain completes reports ErrCancelled instead of hanging.
func TestServerShutdownDeadline(t *testing.T) {
	h := &slowHandler{delay: 2 * time.Second}
	srv := core.NewServer(h)
	net := transport.NewNetwork()
	l, err := net.Listen("stuck")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(context.Background(), l)

	conn, err := net.Dial("stuck")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Send([]byte("work")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); !errors.Is(err, core.ErrCancelled) {
		t.Fatalf("shutdown err = %v, want ErrCancelled", err)
	}
}

// panicHandler panics on a marker payload and echoes everything else.
type panicHandler struct{}

func (panicHandler) Handle(raw []byte) ([]byte, error) {
	if bytes.Equal(raw, []byte("boom")) {
		panic("injected handler failure")
	}
	return raw, nil
}

// TestServerPanicIsolation: a handler panic kills at most its own
// connection; other connections keep working and the panic is counted.
func TestServerPanicIsolation(t *testing.T) {
	srv := core.NewServer(panicHandler{})
	net := transport.NewNetwork()
	l, err := net.Listen("panicky")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(context.Background(), l)
	defer srv.Shutdown(context.Background())

	bad, err := net.Dial("panicky")
	if err != nil {
		t.Fatal(err)
	}
	defer bad.Close()
	good, err := net.Dial("panicky")
	if err != nil {
		t.Fatal(err)
	}
	defer good.Close()

	if err := bad.Send([]byte("boom")); err != nil {
		t.Fatal(err)
	}
	// The healthy connection must still round-trip.
	if err := good.Send([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	reply, err := good.Recv()
	if err != nil || !bytes.Equal(reply, []byte("hello")) {
		t.Fatalf("healthy conn broken after sibling panic: %v %q", err, reply)
	}
	deadline := time.Now().Add(2 * time.Second)
	for srv.Panics() == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if srv.Panics() == 0 {
		t.Fatal("panic not counted")
	}
}

// TestSessionPoolConcurrentUploads drives 32 concurrent protocol runs
// through a pool bounded to 4 connections: all succeed, all bytes are
// stored intact.
func TestSessionPoolConcurrentUploads(t *testing.T) {
	d := newDeploy(t, 5*time.Second)
	pool := d.NewPool(core.PoolMaxConns(4))
	defer pool.Close()
	ctx := context.Background()
	const n = 32
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			txn := fmt.Sprintf("pool-%02d", i)
			data := bytes.Repeat([]byte{byte(i + 1)}, 128)
			if _, err := pool.Upload(ctx, txn, "pool/"+txn, data); err != nil {
				t.Errorf("pool upload %d: %v", i, err)
				return
			}
			res, err := pool.Download(ctx, txn+"-dl", "pool/"+txn, txn)
			if err != nil {
				t.Errorf("pool download %d: %v", i, err)
				return
			}
			if !bytes.Equal(res.Data, data) {
				t.Errorf("pool download %d: wrong bytes", i)
			}
		}(i)
	}
	wg.Wait()
}

// TestSessionPoolRetriesTransientDialFaults: the first dials fail, the
// retry path (fresh connection + backoff) recovers without surfacing
// the fault.
func TestSessionPoolRetriesTransientDialFaults(t *testing.T) {
	d := newDeploy(t, 5*time.Second)
	var fails atomic.Int32
	fails.Store(2)
	dial := func(ctx context.Context) (transport.Conn, error) {
		if fails.Add(-1) >= 0 {
			return nil, errors.New("transient network blip")
		}
		return d.Net.DialContext(ctx, deploy.ProviderName)
	}
	pool := core.NewSessionPool(d.Client, dial,
		core.PoolRetries(3), core.PoolBackoff(time.Millisecond))
	defer pool.Close()
	if _, err := pool.Upload(context.Background(), "pool-retry", "k", []byte("v")); err != nil {
		t.Fatalf("upload with transient dial faults: %v", err)
	}
}

// TestSessionPoolExhaustsRetries: a dialer that always fails surfaces
// ErrRetriesExhausted (no TTP configured, so no escalation).
func TestSessionPoolExhaustsRetries(t *testing.T) {
	d := newDeploy(t, time.Second)
	dial := func(ctx context.Context) (transport.Conn, error) {
		return nil, errors.New("network down")
	}
	pool := core.NewSessionPool(d.Client, dial,
		core.PoolRetries(2), core.PoolBackoff(time.Millisecond))
	defer pool.Close()
	if _, err := pool.Upload(context.Background(), "pool-dead", "k", []byte("v")); !errors.Is(err, core.ErrRetriesExhausted) {
		t.Fatalf("err = %v, want ErrRetriesExhausted", err)
	}
}

// TestSessionPoolEscalatesToResolve: the provider goes silent after
// the NRO, the pooled upload times out and escalates per §4.3 — and
// because the TTP relays Bob's NRR, the caller still receives a
// complete UploadResult.
func TestSessionPoolEscalatesToResolve(t *testing.T) {
	d := newDeploy(t, 400*time.Millisecond)
	d.Provider.SetMisbehavior(core.Misbehavior{SilentAfterNRO: true})
	pool := d.NewPool()
	defer pool.Close()
	res, err := pool.Upload(context.Background(), "pool-esc", "k", []byte("v"))
	if err != nil {
		t.Fatalf("escalated upload: %v", err)
	}
	if res.NRO == nil || res.NRR == nil {
		t.Fatal("escalated result incomplete")
	}
	if res.NRR.Header.TxnID != "pool-esc" {
		t.Fatalf("relayed NRR for txn %q", res.NRR.Header.TxnID)
	}
}

// TestContextCancellationMapsToErrCancelled: a cancelled context
// surfaces as core.ErrCancelled from every public entry point.
func TestContextCancellationMapsToErrCancelled(t *testing.T) {
	d := newDeploy(t, 5*time.Second)
	conn := mustDial(t, d)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := d.Client.Upload(ctx, conn, "ctx-up", "k", []byte("v")); !errors.Is(err, core.ErrCancelled) {
		t.Fatalf("Upload err = %v, want ErrCancelled", err)
	}
	if _, err := d.Client.Download(ctx, conn, "ctx-dl", "k", ""); !errors.Is(err, core.ErrCancelled) {
		t.Fatalf("Download err = %v, want ErrCancelled", err)
	}
	if _, err := d.Client.Abort(ctx, conn, "ctx-ab", "x"); !errors.Is(err, core.ErrCancelled) {
		t.Fatalf("Abort err = %v, want ErrCancelled", err)
	}
	pool := d.NewPool()
	defer pool.Close()
	if _, err := pool.Upload(ctx, "ctx-pool", "k", []byte("v")); !errors.Is(err, core.ErrCancelled) {
		t.Fatalf("pool Upload err = %v, want ErrCancelled", err)
	}
}

// TestContextCancelUnblocksMidProtocol: cancelling while the client
// waits for the provider's NRR returns promptly with ErrCancelled
// instead of waiting out the response timeout.
func TestContextCancelUnblocksMidProtocol(t *testing.T) {
	d := newDeploy(t, 30*time.Second) // timeout long enough to hang without ctx
	d.Provider.SetMisbehavior(core.Misbehavior{SilentAfterNRO: true})
	conn := mustDial(t, d)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := d.Client.Upload(ctx, conn, "ctx-hang", "k", []byte("v"))
	if !errors.Is(err, core.ErrCancelled) {
		t.Fatalf("err = %v, want ErrCancelled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v, should be prompt", elapsed)
	}
}

// TestServerGarbageFrameMidConnection: an undecodable frame between
// two uploads on one connection is counted as exactly one protocol
// error and otherwise ignored. The serial loop handles frames in
// arrival order, so the second upload can only succeed if the garbage
// drew no reply (its reply would be read as the upload's answer) and
// left the connection open.
func TestServerGarbageFrameMidConnection(t *testing.T) {
	d := newDeploy(t, 5*time.Second)
	ctx := context.Background()
	conn := mustDial(t, d)
	if _, err := d.Client.Upload(ctx, conn, "txn-ok-1", "a", []byte("a")); err != nil {
		t.Fatal(err)
	}
	protoErrs := obs.Default().Counter(obs.Labeled("server_handler_errors_total", "class", "protocol"))
	before := protoErrs.Value()
	if err := conn.Send([]byte("not a tpnr message")); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Client.Upload(ctx, conn, "txn-ok-2", "b", []byte("b")); err != nil {
		t.Fatalf("upload after garbage frame: %v", err)
	}
	if got := protoErrs.Value() - before; got != 1 {
		t.Errorf("protocol handler errors rose by %d, want 1", got)
	}
	for _, txn := range []string{"txn-ok-1", "txn-ok-2"} {
		if _, err := d.Provider.Archive().ByKind(txn, evidence.RolePeer, evidence.KindNRO); err != nil {
			t.Errorf("%s: NRO not archived: %v", txn, err)
		}
	}
}
