package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/arbitrator"
	"repro/internal/archive"
	"repro/internal/core"
	"repro/internal/evidence"
	"repro/internal/metrics"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/wal"
)

const (
	settleK      = 16 // uploads per settled session
	settleGroups = 4
	stalledCount = 32
	stallClients = 8 // stalled uploads in flight at once during preparation

	// The recovery fixture: a provider that checkpointed fxArchived
	// sessions and then acked fxTail more before it died.
	fxArchived = 32
	fxTail     = 500
)

// disputeRound is one round of the aftermath path. Preparation is
// untimed: honest uploads to settle and arbitrate, and uploads a silent
// provider never acknowledged. The timed sections are what a client or
// an arbitrator does afterwards.
func disputeRound(e *env, r *roundRec) error {
	honestN := e.n(settleGroups) * settleK
	stalledN := e.n(stalledCount)
	// Distinct keys within the round, so the bytes a provider would
	// produce for an honest upload are still the ones it acknowledged.
	perm := e.rng.Perm(len(e.slots))[:honestN+stalledN]
	prep := newPrepRec(e)
	honest := make([]job, honestN)
	for i := range honest {
		honest[i] = e.plan(perm[i])
		e.upload(prep, honest[i])
	}
	if prep.failed > 0 {
		return fmt.Errorf("dispute prep: %d of %d uploads failed: %v", prep.failed, prep.ops, prep.failures)
	}
	stalled := make([]job, stalledN)
	for i := range stalled {
		stalled[i] = e.plan(perm[honestN+i])
		e.fill(stalled[i])
	}
	if err := e.stall(stalled); err != nil {
		return err
	}

	// Settle needs the uploads' evidence hot, so it runs before the
	// checkpoint; arbitration needs it cold, so it runs after.
	if err := r.timed(func() {
		for g := 0; g < honestN/settleK; g++ {
			e.settle(r, honest[g*settleK:(g+1)*settleK])
		}
	}); err != nil {
		return err
	}
	if err := r.timed(func() {
		for _, j := range stalled {
			e.resolve(r, j)
		}
	}); err != nil {
		return err
	}
	if err := e.t.checkpoint(); err != nil {
		return err
	}
	tampered := make(map[int]bool, honestN/2)
	for _, i := range e.rng.Perm(honestN)[:honestN/2] {
		tampered[i] = true
	}
	if err := r.timed(func() {
		for i, j := range honest {
			e.arbitrate(r, j, tampered[i])
		}
	}); err != nil {
		return err
	}
	return e.recoverProvider(r)
}

// stall uploads each job to a provider that stores the object, keeps
// the NRO and withholds the receipt (§4.1). Each client waits until the
// provider holds its NRO, so that what a later resolve finds does not
// depend on timing.
func (e *env) stall(jobs []job) error {
	e.t.engine.SetMisbehavior(core.Misbehavior{SilentAfterNRO: true})
	defer e.t.engine.SetMisbehavior(core.Misbehavior{})
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
	)
	for w := 0; w < stallClients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(jobs); i += stallClients {
				if err := e.stallOne(jobs[i]); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()
	return first
}

func (e *env) stallOne(j job) error {
	conn, err := transport.DialTCPContext(bg, e.t.providerAddr)
	if err != nil {
		return err
	}
	defer conn.Close()
	// The client gives up once the provider holds its NRO, and not
	// after a fixed wait: a wait short enough to keep preparation brief
	// can end before a busy host has let the NRO leave.
	ctx, cancel := context.WithCancel(bg)
	defer cancel()
	s := &e.slots[j.slot]
	done := make(chan error, 1)
	go func() {
		_, err := e.t.client.Upload(ctx, conn, j.txn, s.key, s.data)
		done <- err
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := e.t.engine.EvidenceByKind(j.txn, evidence.RolePeer, evidence.KindNRO); err == nil {
			break
		}
		select {
		case err := <-done:
			return fmt.Errorf("dispute prep: upload %s ended before the provider held its NRO: %v", j.txn, err)
		case <-time.After(200 * time.Microsecond):
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("dispute prep: provider never journaled the NRO of %s", j.txn)
		}
	}
	cancel()
	if err := <-done; err == nil {
		return fmt.Errorf("dispute prep: silent provider acknowledged %s", j.txn)
	}
	if _, err := e.t.client.PendingNRO(j.txn); err != nil {
		return fmt.Errorf("dispute prep: no NRO to resolve %s with: %w", j.txn, err)
	}
	return nil
}

// settle asks for one aggregate receipt over a session of uploads.
func (e *env) settle(r *roundRec, jobs []job) {
	session := e.newTxn()
	txns := make([]string, len(jobs))
	for i, j := range jobs {
		txns[i] = j.txn
	}
	var res *core.SettleResult
	r.op(kSettle, session, func() (err error) {
		res, err = e.t.client.SettleSession(bg, e.t.conn, session, txns)
		return err
	}, func() error {
		if res.Receipt == nil || res.Tree.Leaves() != len(txns) {
			return fmt.Errorf("settlement does not cover the %d uploads", len(txns))
		}
		return nil
	})
}

// resolve escalates a stalled upload to the TTP: the answer must be the
// provider's NRR over the digests the client committed to.
func (e *env) resolve(r *roundRec, j job) {
	var res *core.ResolveResult
	r.op(kResolve, j.txn, func() (err error) {
		res, err = e.t.client.Resolve(bg, e.t.ttpConn, j.txn, "no NRR before the time limit")
		return err
	}, func() error {
		nro, err := e.t.client.PendingNRO(j.txn)
		if err != nil {
			return err
		}
		pe := res.PeerEvidence
		if pe == nil || pe.Header.Kind != evidence.KindNRR || pe.Header.TxnID != j.txn ||
			!pe.Header.DataSHA256.Equal(nro.Header.DataSHA256) {
			return fmt.Errorf("resolve (%q) did not return the provider's NRR", res.Outcome)
		}
		return nil
	})
}

// arbitrate decides a dispute over an honest upload from the two cold
// archives alone. When the produced bytes are tampered the provider
// must be found at fault; otherwise the claim must be found false.
func (e *env) arbitrate(r *roundRec, j job, tamper bool) {
	produced := e.slots[j.slot].data
	want := arbitrator.VerdictClaimFalse
	if tamper {
		produced = append([]byte(nil), produced...)
		produced[len(produced)/2] ^= 0xFF
		want = arbitrator.VerdictProviderFault
	}
	var dec *arbitrator.Decision
	tr := e.t.tr
	r.op(kArbitrate, j.txn, func() error {
		start := tr.now()
		cb, err := e.t.clientArc.Get(j.txn)
		if err != nil {
			return err
		}
		pb, err := e.t.providerArcs[e.t.shardOf(j.txn)].Get(j.txn)
		if err != nil {
			return err
		}
		mid := tr.now()
		c, err := arbitrator.CaseFromBundles(cb, pb, produced)
		if err != nil {
			return err
		}
		dec = e.arb.Decide(c)
		if tr.on.Load() {
			root := tr.rootOf(j.txn)
			tr.add(root, j.txn, spanArchive, start, mid)
			tr.add(root, j.txn, spanDecide, mid, tr.now())
		}
		return nil
	}, func() error {
		if dec.Verdict != want {
			return fmt.Errorf("verdict %s, want %s: %v", dec.Verdict, want, dec.Findings)
		}
		return nil
	})
}

// fixture is what a crashed provider left on disk.
type fixture struct {
	dir      string   // holds wal/ and archive/
	tail     []string // transactions acked after the snapshot; each must come back
	archived int
}

// buildFixture runs a provider through fxArchived uploads, a
// checkpoint and fxTail more uploads, and keeps its journal and
// archive. Closing a journal adds nothing to it, so the copy is what a
// crash after the last acknowledgement would have left.
func (e *env) buildFixture(dir string) error {
	src := filepath.Join(dir, "src")
	t, err := boot(topoConfig{shards: 1, replicas: 1}, src, e.keys, newTracer())
	if err != nil {
		return err
	}
	live := e.t
	e.t = t
	defer func() { e.t = live }()
	t.store.allow(e.ringKeys())
	fx := &fixture{dir: dir, archived: e.n(fxArchived)}
	r := newPrepRec(e)
	for i := 0; i < fx.archived; i++ {
		e.upload(r, e.plan(i%len(e.slots)))
	}
	if err := t.checkpoint(); err != nil {
		t.close()
		return err
	}
	for i := 0; i < e.n(fxTail); i++ {
		j := e.plan(i % len(e.slots))
		e.upload(r, j)
		fx.tail = append(fx.tail, j.txn)
	}
	t.close()
	if r.failed > 0 {
		return fmt.Errorf("recovery fixture: %d of %d uploads failed: %v", r.failed, r.ops, r.failures)
	}
	for _, sub := range []string{"wal", "archive"} {
		if err := copyTree(filepath.Join(src, "provider", sub), filepath.Join(dir, sub)); err != nil {
			return err
		}
	}
	e.fx = fx
	return os.RemoveAll(src)
}

// recoverProvider restarts the crashed provider the way cmd/nrserver
// starts: open the journal and the archive, build the engine, replay.
// Every session the dead provider acknowledged must be back with its
// receipt. Copying the fixture first and removing the copy afterwards
// are outside the timed section; closing the journal is inside it, after
// the operation, because the journal-bytes gauge counts a journal from
// the moment it is opened until it is closed.
func (e *env) recoverProvider(r *roundRec) error {
	dir := filepath.Join(e.t.dir, "recover")
	defer os.RemoveAll(dir)
	for _, sub := range []string{"wal", "archive"} {
		if err := copyTree(filepath.Join(e.fx.dir, sub), filepath.Join(dir, sub)); err != nil {
			return fmt.Errorf("copy recovery fixture: %w", err)
		}
	}
	var (
		w   *wal.WAL
		a   *archive.Store
		p   *core.Provider
		rep *core.RecoveryReport
		ctr metrics.Counters
	)
	return r.timed(func() {
		defer func() {
			if w != nil {
				w.Close()
			}
			if a != nil {
				a.Close()
			}
		}()
		r.op(kRecover, "", func() (err error) {
			if w, err = wal.Open(filepath.Join(dir, "wal"), wal.Options{Policy: wal.SyncAlways}); err != nil {
				return err
			}
			if a, err = archive.Open(filepath.Join(dir, "archive")); err != nil {
				return err
			}
			opts := append(e.t.partyOpts(e.t.ids[providerName], &ctr, w, a),
				core.WithStore(storage.NewMem(nil)), core.WithTTPID(ttpName))
			if p, err = core.NewProvider(opts...); err != nil {
				return err
			}
			rep, err = p.Recover(bg)
			return err
		}, func() error {
			if len(rep.Transactions) != len(e.fx.tail) || rep.ArchivedSessions != e.fx.archived {
				return fmt.Errorf("recovered %d live and %d archived sessions, want %d and %d",
					len(rep.Transactions), rep.ArchivedSessions, len(e.fx.tail), e.fx.archived)
			}
			for _, txn := range e.fx.tail {
				if _, err := p.EvidenceByKind(txn, evidence.RoleOwn, evidence.KindNRR); err != nil {
					return fmt.Errorf("acknowledged session %s lost its receipt: %w", txn, err)
				}
			}
			e.recovered = rep.TailRecords
			return nil
		})
	})
}

// copyTree copies the regular files under src to dst.
func copyTree(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}
