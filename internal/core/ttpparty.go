package core

import (
	"context"
	"sort"
	"sync"
	"time"

	"repro/internal/archive"
	"repro/internal/cryptoutil"
	"repro/internal/evidence"
	"repro/internal/metrics"
	"repro/internal/session"
	"repro/internal/transport"
)

// TTPParty exposes the shared party plumbing to the ttp package, which
// lives outside core but participates in the protocol with the same
// identity, guard, archive and instrumentation machinery.
type TTPParty struct {
	p *party

	// openRes tracks resolve procedures opened but not yet closed. It
	// is the TTP's in-memory mirror of the jrResolve journal records:
	// Recover rebuilds it, checkpoints snapshot it (per-transaction flag
	// in the snapshot extras), and compaction refuses to archive a
	// session while its resolve is still open.
	resMu   sync.Mutex
	openRes map[string]bool
}

// NewTTPParty constructs the plumbing for a TTP server from functional
// options.
func NewTTPParty(opts ...Option) (*TTPParty, error) {
	p, err := newParty(buildOptions(opts))
	if err != nil {
		return nil, err
	}
	t := &TTPParty{p: p, openRes: make(map[string]bool)}
	// The TTP writes no tracker state of its own, so the default
	// "tracker state is terminal" compaction rule would never fire.
	// Its rule instead: any session whose evidence has stopped moving
	// (no open resolve) may be compacted; sessions with an open resolve
	// stay hot because the claimant's retry will need them.
	p.eligible = func(txn string) (session.State, bool) {
		t.resMu.Lock()
		open := t.openRes[txn]
		t.resMu.Unlock()
		if open {
			return 0, false
		}
		if st, err := p.tracker.Get(txn); err == nil {
			if !session.Terminal(st) {
				return 0, false
			}
			return st, true
		}
		return session.StateCompleted, true
	}
	p.snapExtra = func(txn string) (string, bool) {
		t.resMu.Lock()
		open := t.openRes[txn]
		t.resMu.Unlock()
		return "", open
	}
	p.restoreExtra = func(txn, _ string, flag bool) {
		if !flag {
			return
		}
		t.resMu.Lock()
		t.openRes[txn] = true
		t.resMu.Unlock()
	}
	return t, nil
}

// ID returns the TTP's party name.
func (t *TTPParty) ID() string { return t.p.ID() }

// Archive exposes the evidence store.
func (t *TTPParty) Archive() *evidence.Store { return t.p.Archive() }

// Counters exposes the metrics counters.
func (t *TTPParty) Counters() *metrics.Counters { return t.p.Counters() }

// PeerPublicKey resolves and authenticates a party's public key as a
// scheme handle (cached per certificate).
func (t *TTPParty) PeerPublicKey(name string) (cryptoutil.PublicKey, error) {
	return t.p.peerKey(name)
}

// NewHeader assembles an outbound header with the TTP as sender.
func (t *TTPParty) NewHeader(kind evidence.Kind, txn, recipient, ttp string, seq uint64) *evidence.Header {
	return t.p.newHeader(kind, txn, recipient, ttp, seq)
}

// NextSeq issues the next outbound sequence number for a transaction.
func (t *TTPParty) NextSeq(txn string) uint64 { return t.p.nextSeq(txn) }

// BumpSeqTo advances the outbound counter past an observed inbound
// sequence.
func (t *TTPParty) BumpSeqTo(txn string, seen uint64) uint64 { return t.p.bumpSeqTo(txn, seen) }

// BuildMessageFor signs and seals evidence for a header, addressed to
// a recipient key handle.
func (t *TTPParty) BuildMessageFor(h *evidence.Header, payload []byte, recipientKey cryptoutil.PublicKey) (*Message, *evidence.Evidence, error) {
	return t.p.buildMessage(h, payload, recipientKey)
}

// CheckInbound runs the generic inbound validation sequence.
func (t *TTPParty) CheckInbound(m *Message) (*evidence.Header, *evidence.Evidence, error) {
	return t.p.checkInbound(m)
}

// VerifyCache exposes the party's verification cache so the ttp
// package can route its own explicit evidence checks (the resolve
// claim verification) through the same memo the inbound path uses.
func (t *TTPParty) VerifyCache() *evidence.VerifyCache { return t.p.vcache }

// RecvTimeout waits the party's response timeout for one message on
// conn, returning early with ErrCancelled when ctx terminates.
func (t *TTPParty) RecvTimeout(ctx context.Context, conn transport.Conn) ([]byte, error) {
	return t.p.pumpFor(conn).recv(ctx, t.p.clk, t.p.timeout)
}

// ResponseTimeout reports the configured peer-response deadline.
func (t *TTPParty) ResponseTimeout() time.Duration { return t.p.timeout }

// PutEvidence journals (when a WAL is attached) and archives an
// evidence item — the TTP's durable record of what passed through it.
func (t *TTPParty) PutEvidence(txn string, role evidence.Role, ev *evidence.Evidence) error {
	return t.p.putEvidence(txn, role, ev)
}

// OpenResolve durably records, in one journal flush before the peer
// query goes out, the claimant's request evidence and the opened
// resolve; the ledger sees the resolve open once the flush is done.
func (t *TTPParty) OpenResolve(txn string, claim *evidence.Evidence, note string) error {
	return t.p.newBatch(txn).evidence(evidence.RolePeer, claim).
		record(journalRecord{Kind: jrResolve, Txn: txn, Aux: jrResolveOpen, Note: note}, func() {
			t.resMu.Lock()
			t.openRes[txn] = true
			t.resMu.Unlock()
		}).commit()
}

// CloseResolve durably records, in one journal flush before the
// statement is sent to the claimant, the peer's answer (nil when the
// peer did not answer), the TTP's own statement and the closed
// resolve: once the claimant holds the statement the TTP must be able
// to reproduce it.
func (t *TTPParty) CloseResolve(txn string, answer, statement *evidence.Evidence, note string) error {
	b := t.p.newBatch(txn)
	if answer != nil {
		b.evidence(evidence.RolePeer, answer)
	}
	return b.evidence(evidence.RoleOwn, statement).
		record(journalRecord{Kind: jrResolve, Txn: txn, Aux: jrResolveClosed, Note: note}, func() {
			t.resMu.Lock()
			delete(t.openRes, txn)
			t.resMu.Unlock()
		}).commit()
}

// Checkpoint compacts settled sessions into the cold archive (when one
// is attached) and snapshots the TTP's live state into the journal.
func (t *TTPParty) Checkpoint() (*CheckpointReport, error) { return t.p.Checkpoint() }

// ColdArchive exposes the attached cold archive (nil when absent).
func (t *TTPParty) ColdArchive() *archive.Store { return t.p.ColdArchive() }

// EvidenceByKind returns the latest matching evidence, reading through
// to the cold archive for compacted sessions.
func (t *TTPParty) EvidenceByKind(txn string, role evidence.Role, kind evidence.Kind) (*evidence.Evidence, error) {
	return t.p.EvidenceByKind(txn, role, kind)
}

// Recover replays the TTP's journal after a restart: the evidence
// archive, replay guard and sequence counters are rebuilt, and resolve
// procedures that were opened but never closed are listed in
// OpenResolves — the claimant never got its statement, so it will
// retry, and the journal guarantees the retry sees the archived
// evidence from the first attempt.
func (t *TTPParty) Recover(ctx context.Context) (*RecoveryReport, error) {
	rep, err := t.p.recoverBase(ctx, func(r *journalRecord) error {
		if r.Kind == jrResolve {
			t.resMu.Lock()
			switch r.Aux {
			case jrResolveOpen:
				t.openRes[r.Txn] = true
			case jrResolveClosed:
				delete(t.openRes, r.Txn)
			}
			t.resMu.Unlock()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// The TTP holds no sessions of its own: NeedsResolve (derived from
	// tracker state the TTP never writes) is meaningless here.
	rep.NeedsResolve = nil
	t.resMu.Lock()
	for txn := range t.openRes {
		rep.OpenResolves = append(rep.OpenResolves, txn)
	}
	t.resMu.Unlock()
	sort.Strings(rep.OpenResolves)
	return rep, nil
}
