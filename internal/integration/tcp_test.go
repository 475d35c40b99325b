// Package integration runs whole-system tests: the TPNR deployment
// over real TCP sockets, and the command-line binaries driven end to
// end exactly as an operator would.
package integration

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cryptoutil"
	"repro/internal/keystore"
	"repro/internal/metrics"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/ttp"
)

// tcpWorld wires client, provider and TTP over real TCP listeners on
// loopback, sharing a PKI from a keystore directory (the same material
// the CLIs use). Both server processes run on the concurrent
// core.Server runtime, exactly as the CLIs do.
type tcpWorld struct {
	client   *core.Client
	provider *core.Provider
	provSrv  *core.Server
	ttpAddr  string
	provAddr string
	store    *storage.Mem
}

func newTCPWorld(t *testing.T) *tcpWorld {
	t.Helper()
	dir := t.TempDir()
	if err := keystore.InitScheme(dir, []string{"alice", "bob", "ttp"}, 1024, time.Hour, cryptoutil.SchemeRSA); err != nil {
		t.Fatal(err)
	}
	world, err := keystore.LoadWorld(dir)
	if err != nil {
		t.Fatal(err)
	}
	opts := func(name string) []core.Option {
		id, err := keystore.LoadIdentity(dir, name)
		if err != nil {
			t.Fatal(err)
		}
		return []core.Option{
			core.WithIdentity(id),
			core.WithCAPublicKey(world.CAPublicKey()),
			core.WithDirectory(world.Lookup),
			core.WithCounters(&metrics.Counters{}),
			core.WithResponseTimeout(2 * time.Second),
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)

	store := storage.NewMem(nil)
	provider, err := core.NewProvider(append(opts("bob"),
		core.WithStore(store), core.WithTTPID("ttp"))...)
	if err != nil {
		t.Fatal(err)
	}
	provL, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	provSrv := core.NewServer(provider)
	go provSrv.Serve(ctx, provL)

	ttpServer, err := ttp.New(func(ctx context.Context, partyID string) (transport.Conn, error) {
		if partyID == "bob" {
			return transport.DialTCPContext(ctx, provL.Addr())
		}
		return nil, errors.New("no route to " + partyID)
	}, opts("ttp")...)
	if err != nil {
		t.Fatal(err)
	}
	ttpL, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ttpSrv := core.NewServer(ttpServer)
	go ttpSrv.Serve(ctx, ttpL)

	t.Cleanup(func() {
		sctx, scancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer scancel()
		provSrv.Shutdown(sctx)
		ttpSrv.Shutdown(sctx)
	})

	client, err := core.NewClient("bob", "ttp", opts("alice")...)
	if err != nil {
		t.Fatal(err)
	}
	return &tcpWorld{
		client:   client,
		provider: provider,
		provSrv:  provSrv,
		ttpAddr:  ttpL.Addr(),
		provAddr: provL.Addr(),
		store:    store,
	}
}

func TestTCPUploadDownload(t *testing.T) {
	w := newTCPWorld(t)
	ctx := context.Background()
	conn, err := transport.DialTCP(w.provAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	data := bytes.Repeat([]byte("tcp payload "), 1000)
	if _, err := w.client.Upload(ctx, conn, "tcp-1", "obj", data); err != nil {
		t.Fatal(err)
	}
	res, err := w.client.Download(ctx, conn, "tcp-2", "obj", "tcp-1")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Data, data) || !res.IntegrityOK {
		t.Fatal("TCP round trip failed integrity")
	}
}

func TestTCPTamperDetection(t *testing.T) {
	w := newTCPWorld(t)
	ctx := context.Background()
	conn, err := transport.DialTCP(w.provAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := w.client.Upload(ctx, conn, "tcp-t1", "obj", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := w.store.Tamper("obj", true, func([]byte) []byte { return []byte("v2") }); err != nil {
		t.Fatal(err)
	}
	if _, err := w.client.Download(ctx, conn, "tcp-t2", "obj", "tcp-t1"); !errors.Is(err, core.ErrIntegrity) {
		t.Fatalf("err = %v, want ErrIntegrity", err)
	}
}

func TestTCPResolveThroughTTP(t *testing.T) {
	w := newTCPWorld(t)
	ctx := context.Background()
	conn, err := transport.DialTCP(w.provAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	w.provider.SetMisbehavior(core.Misbehavior{SilentAfterNRO: true})
	if _, err := w.client.Upload(ctx, conn, "tcp-r", "obj", []byte("v")); !errors.Is(err, core.ErrTimeout) {
		t.Fatalf("setup: %v", err)
	}
	w.provider.SetMisbehavior(core.Misbehavior{})

	ttpConn, err := transport.DialTCP(w.ttpAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer ttpConn.Close()
	res, err := w.client.Resolve(ctx, ttpConn, "tcp-r", "no NRR over TCP")
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != "continue" || res.PeerEvidence == nil {
		t.Fatalf("resolve over TCP: %+v", res)
	}
}

// TestTCPConcurrent32Goroutines hammers one core.Server over real TCP
// sockets with 32 goroutines mixing uploads, downloads, aborts and
// resolves. Every result must be correct, every object's bytes must be
// intact afterwards, and no transaction may bleed into another.
func TestTCPConcurrent32Goroutines(t *testing.T) {
	w := newTCPWorld(t)
	ctx := context.Background()
	const n = 32
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conn, err := transport.DialTCP(w.provAddr)
			if err != nil {
				errs <- err
				return
			}
			defer conn.Close()
			key := fmt.Sprintf("obj-%02d", i)
			data := bytes.Repeat([]byte{byte(i)}, 1024+i)
			upTxn := fmt.Sprintf("tcp-up-%02d", i)
			if _, err := w.client.Upload(ctx, conn, upTxn, key, data); err != nil {
				errs <- fmt.Errorf("upload %d: %w", i, err)
				return
			}
			switch i % 4 {
			case 0, 1: // verified download of what this goroutine stored
				res, err := w.client.Download(ctx, conn, fmt.Sprintf("tcp-dl-%02d", i), key, upTxn)
				if err != nil {
					errs <- fmt.Errorf("download %d: %w", i, err)
					return
				}
				if !bytes.Equal(res.Data, data) {
					errs <- fmt.Errorf("download %d: cross-talk, got %d bytes", i, len(res.Data))
					return
				}
			case 2: // abort a fresh never-completed transaction
				res, err := w.client.Abort(ctx, conn, fmt.Sprintf("tcp-ab-%02d", i), "integration abort")
				if err != nil {
					errs <- fmt.Errorf("abort %d: %w", i, err)
					return
				}
				if !res.Accepted {
					errs <- fmt.Errorf("abort %d: not accepted", i)
					return
				}
			case 3: // resolve the completed upload through the TTP
				ttpConn, err := transport.DialTCP(w.ttpAddr)
				if err != nil {
					errs <- err
					return
				}
				defer ttpConn.Close()
				res, err := w.client.Resolve(ctx, ttpConn, upTxn, "concurrent integration probe")
				if err != nil {
					errs <- fmt.Errorf("resolve %d: %w", i, err)
					return
				}
				if res.Outcome != "continue" || res.PeerEvidence == nil {
					errs <- fmt.Errorf("resolve %d: outcome %q", i, res.Outcome)
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
	// Every upload stored exactly its own bytes: no txn cross-talk.
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("obj-%02d", i)
		obj, err := w.store.Get(key)
		if err != nil {
			t.Fatalf("object %s missing: %v", key, err)
		}
		want := bytes.Repeat([]byte{byte(i)}, 1024+i)
		if !bytes.Equal(obj.Data, want) {
			t.Fatalf("object %s: stored bytes differ from upload", key)
		}
	}
	if p := w.provSrv.Panics(); p != 0 {
		t.Fatalf("server recovered %d panics", p)
	}
}

// TestMixedIdentityRejectedOverTCP: a client using a key from a
// different keystore (different CA) is rejected by the provider.
func TestMixedIdentityRejectedOverTCP(t *testing.T) {
	w := newTCPWorld(t)
	// Build an impostor with its own CA.
	otherDir := t.TempDir()
	if err := keystore.InitScheme(otherDir, []string{"alice", "bob", "ttp"}, 1024, time.Hour, cryptoutil.SchemeRSA); err != nil {
		t.Fatal(err)
	}
	otherWorld, err := keystore.LoadWorld(otherDir)
	if err != nil {
		t.Fatal(err)
	}
	id, err := keystore.LoadIdentity(otherDir, "alice")
	if err != nil {
		t.Fatal(err)
	}
	impostor, err := core.NewClient("bob", "ttp",
		core.WithIdentity(id),
		core.WithCAPublicKey(otherWorld.CAPublicKey()),
		core.WithDirectory(otherWorld.Lookup),
		core.WithResponseTimeout(500*time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := transport.DialTCP(w.provAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_, err = impostor.Upload(context.Background(), conn, "imp-1", "obj", []byte("v"))
	if err == nil {
		t.Fatal("impostor upload accepted")
	}
	if _, serr := w.store.Get("obj"); serr == nil {
		t.Fatal("impostor data stored")
	}
}
