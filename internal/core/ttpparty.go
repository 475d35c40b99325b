package core

import (
	"context"
	"time"

	"repro/internal/archive"
	"repro/internal/cryptoutil"
	"repro/internal/evidence"
	"repro/internal/metrics"
	"repro/internal/transport"
)

// TTPParty exposes the shared party plumbing to the ttp package, which
// lives outside core but participates in the protocol with the same
// identity, nonce window, transaction records and instrumentation.
type TTPParty struct {
	p *party
}

// NewTTPParty constructs the plumbing for a TTP server from functional
// options.
func NewTTPParty(opts ...Option) (*TTPParty, error) {
	p, err := newParty(buildOptions(opts))
	if err != nil {
		return nil, err
	}
	p.stateless = true
	return &TTPParty{p: p}, nil
}

// ID returns the TTP's party name.
func (t *TTPParty) ID() string { return t.p.ID() }

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

// PutEvidence journals (when a WAL is attached) and files an evidence
// item — the TTP's durable record of what passed through it.
func (t *TTPParty) PutEvidence(txn string, role evidence.Role, ev *evidence.Evidence) error {
	return t.p.putEvidence(txn, role, ev)
}

// OpenResolve durably records, in one journal flush before the peer
// query goes out, the claimant's request evidence and the opened
// resolve; the record shows the resolve open once the flush is done,
// and compaction keeps it hot until the resolve closes.
func (t *TTPParty) OpenResolve(txn string, claim *evidence.Evidence, note string) error {
	return t.p.newBatch(txn).evidence(evidence.RolePeer, claim).
		record(journalRecord{Kind: jrResolve, Txn: txn, Aux: jrResolveOpen, Note: note}, func(r *txnRecord) {
			r.openRes = true
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
		record(journalRecord{Kind: jrResolve, Txn: txn, Aux: jrResolveClosed, Note: note}, func(r *txnRecord) {
			r.openRes = false
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

// HotTxns lists, sorted, the transactions the TTP holds a record for.
func (t *TTPParty) HotTxns() []string { return t.p.HotTxns() }

// Recover replays the TTP's journal after a restart: the records —
// evidence, sequence floors, open-resolve flags — are rebuilt, and
// resolve procedures that were opened but never closed are listed in
// OpenResolves — the claimant never got its statement, so it will
// retry, and the journal guarantees the retry sees the archived
// evidence from the first attempt.
func (t *TTPParty) Recover(ctx context.Context) (*RecoveryReport, error) {
	return t.p.recoverBase(ctx)
}
