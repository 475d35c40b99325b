package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/auditlog"
	"repro/internal/cryptoutil"
	"repro/internal/evidence"
	"repro/internal/faultpoint"
	"repro/internal/metrics"
	"repro/internal/session"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/wal"
)

// Provider is Bob: the cloud storage service running the TPNR protocol
// over a blob store. One Provider serves many client connections
// concurrently.
type Provider struct {
	*party
	store storage.Store
	// ttpID names the TTP this provider escalates to in Resolve
	// (configured with WithTTPID).
	ttpID string

	txnMu sync.Mutex
	// txnObject remembers which object each upload transaction stored,
	// for abort and resolve handling.
	txnObject map[string]string

	// Behaviour switches used by experiments and the attack lab to
	// model a malicious or broken provider. All default to honest.
	behaviorMu sync.Mutex
	behavior   Misbehavior

	// audit, when set, receives a hash-chained record of every protocol
	// event — the provider's own tamper-evident defense material.
	audit *auditlog.Log
}

// Misbehavior flags let experiments instantiate a dishonest Bob — the
// §2.4 threat analysis and the E7/E9 experiments need an executable
// adversary, not just an honest implementation.
type Misbehavior struct {
	// SilentAfterNRO: accept and store the upload but never send the
	// NRR — the unfairness scenario that motivates Resolve (§4.1:
	// "if Bob ... does not respond after he has received the NRO from
	// Alice, then Alice will be in a disadvantage position").
	SilentAfterNRO bool
	// IgnoreResolve: also refuse to answer the TTP (forces the TTP
	// unresponsiveness statement path).
	IgnoreResolve bool
	// TamperOnDownload mutates served bytes (the provider serves
	// corrupted data but must still sign it — showing the client
	// catches the digest mismatch against the agreed upload digest).
	TamperOnDownload func([]byte) []byte
	// IgnoreAudit: the lazy provider of the storage-dwell threat model.
	// It completes uploads honestly (and may even have discarded the
	// data afterwards) but never answers KindAuditChallenge — the
	// journaled unanswered challenge becomes the claimant's conviction
	// material.
	IgnoreAudit bool
	// CorruptAuditProof: answer audit challenges with proofs built over
	// a mutated copy of the object — the "stale proof" adversary whose
	// response root can no longer match the NRR commitment.
	CorruptAuditProof bool
}

// NewProvider constructs a provider engine from functional options.
// The blob store arrives via WithStore (a fresh in-memory store when
// omitted) and the escalation TTP via WithTTPID.
func NewProvider(opts ...Option) (*Provider, error) {
	o := buildOptions(opts)
	p, err := newParty(o)
	if err != nil {
		return nil, err
	}
	store := o.store
	if store == nil {
		store = storage.NewMem(p.clk.Now)
	}
	b := &Provider{party: p, store: store, ttpID: o.ttpID, txnObject: make(map[string]string)}
	b.initCheckpointHooks()
	return b, nil
}

// initCheckpointHooks wires the provider's role-specific state — the
// transaction → object-key map — into the checkpoint snapshot: each
// live transaction's binding rides the snapshot's note field, so a
// recovery that never replays the pre-checkpoint journal still knows
// which blob each session stored.
func (b *Provider) initCheckpointHooks() {
	b.snapExtra = func(txn string) (string, bool) {
		b.txnMu.Lock()
		key := b.txnObject[txn]
		b.txnMu.Unlock()
		return key, false
	}
	b.restoreExtra = func(txn, note string, _ bool) {
		if note == "" {
			return
		}
		b.txnMu.Lock()
		b.txnObject[txn] = note
		b.txnMu.Unlock()
	}
}

// SetMisbehavior swaps the provider's behaviour at runtime.
func (b *Provider) SetMisbehavior(m Misbehavior) {
	b.behaviorMu.Lock()
	b.behavior = m
	b.behaviorMu.Unlock()
}

func (b *Provider) misbehavior() Misbehavior {
	b.behaviorMu.Lock()
	defer b.behaviorMu.Unlock()
	return b.behavior
}

// Store exposes the provider's blob store (insider view).
func (b *Provider) Store() storage.Store { return b.store }

// SetAuditLog attaches a tamper-evident event log; every subsequent
// protocol event is appended to it.
func (b *Provider) SetAuditLog(l *auditlog.Log) {
	b.behaviorMu.Lock()
	b.audit = l
	b.behaviorMu.Unlock()
}

// auditAppend records an event if an audit log is attached.
func (b *Provider) auditAppend(kind, txn, detail string) {
	b.behaviorMu.Lock()
	l := b.audit
	b.behaviorMu.Unlock()
	if l != nil {
		l.Append(kind, txn, detail)
	}
}

// Handle processes one encoded message and returns the encoded reply
// (nil when the protocol calls for silence) together with the handling
// error. A non-nil reply can accompany a non-nil error: the reply is
// then the signed Error message the peer receives while the error
// explains the rejection to the embedding server.
func (b *Provider) Handle(raw []byte) ([]byte, error) {
	b.ctr.Inc(metrics.MsgsRecv, 1)
	reply, err := b.handle(raw)
	if reply == nil {
		return nil, err
	}
	enc := reply.Encode()
	b.ctr.Inc(metrics.MsgsSent, 1)
	b.ctr.Inc(metrics.BytesSent, int64(len(enc)))
	return enc, err
}

func (b *Provider) handle(raw []byte) (*Message, error) {
	m, err := DecodeMessage(raw)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrProtocol, err)
	}
	h, ev, err := b.checkInbound(m)
	if err != nil {
		// If the header at least decodes we can answer with a signed
		// error message; otherwise stay silent. The validation error
		// rides alongside the reply so Handle reports why.
		if hdr, herr := m.Header(); herr == nil && hdr.SenderID != "" {
			reply, rerr := b.errorReply(hdr, err.Error())
			if rerr != nil {
				return nil, err
			}
			return reply, err
		}
		return nil, err
	}
	return b.dispatch(h, ev, m.Payload)
}

// dispatch routes one validated inbound message to its per-kind
// handler.
func (b *Provider) dispatch(h *evidence.Header, ev *evidence.Evidence, payload []byte) (*Message, error) {
	if b.expireIfStale(h) {
		// The session blew its step deadline; it has just been driven to
		// its abort state, so this late message is answered with a signed
		// expiry rejection the client maps to ErrExpired and resolves.
		reply, rerr := b.errorReply(h, expiredNotePrefix+"session exceeded its step deadline")
		if rerr != nil {
			return nil, fmt.Errorf("%w: %s", ErrExpired, h.TxnID)
		}
		return reply, fmt.Errorf("%w: %s", ErrExpired, h.TxnID)
	}
	switch h.Kind {
	case evidence.KindNRO:
		return b.handleUpload(h, ev, payload)
	case evidence.KindDownloadRequest:
		return b.handleDownload(h, ev)
	case evidence.KindAbortRequest:
		return b.handleAbort(h, ev)
	case evidence.KindResolveRequest:
		return b.handleResolve(h, ev, payload)
	case evidence.KindSettleRequest:
		return b.handleSettle(h, ev, payload)
	case evidence.KindAuditChallenge:
		return b.handleAuditChallenge(h, ev, payload)
	default:
		return b.errorReply(h, fmt.Sprintf("unsupported message kind %s", h.Kind))
	}
}

// errorReply builds a signed Error message toward the sender of h.
//
// Cost note: answering costs the provider one signature (over the
// header; the data-hash signature of an empty payload comes from the
// evidence builder's memo) and one hybrid encryption, so a flood of
// bogus-but-well-formed messages is an asymmetric-work amplifier.
// Production deployments should rate-limit error replies per peer; the
// protocol itself is unaffected (silence is always a safe fallback, and
// the client treats it as a timeout).
func (b *Provider) errorReply(h *evidence.Header, note string) (*Message, error) {
	senderKey, err := b.peerKey(h.SenderID)
	if err != nil {
		return nil, err // cannot even address the peer: silence
	}
	rh := b.newHeader(evidence.KindError, h.TxnID, h.SenderID, h.TTPID, b.bumpSeqTo(h.TxnID, h.Seq))
	rh.Note = note
	rh.SetDigests(nil)
	msg, _, err := b.buildMessage(rh, nil, senderKey)
	return msg, err
}

// handleUpload is step 2 of the Normal uploading session: verify the
// NRO and data, store the object, archive the NRO, reply with the NRR.
func (b *Provider) handleUpload(h *evidence.Header, ev *evidence.Evidence, data []byte) (*Message, error) {
	if herr := b.Health(); herr != nil {
		if _, serr := b.tracker.Get(h.TxnID); serr != nil {
			// Degraded mode: the journal cannot promise durability (or —
			// quorum-unavailable — cannot promise it survives losing a
			// node), so a NEW session must not bind evidence here:
			// accepting the NRO and crashing would leave the client
			// provably bound to an upload we cannot prove we received.
			// Known transactions (and downloads, aborts, resolves) keep
			// being served. The note prefix types the rejection for the
			// client's retry classification: quorum loss is transient
			// (anti-entropy repairs it), a sticky journal fault is not.
			note := degradedNotePrefix + "journal unavailable; not accepting new sessions"
			sentinel := ErrDegraded
			if errors.Is(herr, ErrQuorumUnavailable) {
				note = quorumNotePrefix + "replication quorum unavailable; not accepting new sessions"
				sentinel = ErrQuorumUnavailable
			}
			reply, rerr := b.errorReply(h, note)
			if rerr != nil {
				return nil, fmt.Errorf("%w: %v", sentinel, herr)
			}
			return reply, fmt.Errorf("%w: %v", sentinel, herr)
		}
	}
	// One pass over the payload per digest: SHA-256 here, MD5 inside the
	// store's Content-MD5 check (§2.2). Put skips that check for a zero
	// digest, so the MD5 field must be a whole MD5 before the store sees
	// it. HashOps counts the pass this party runs.
	mismatch := func() (*Message, error) {
		b.ctr.Inc(metrics.AuthFailures, 1)
		return b.errorReply(h, "data does not match NRO digests")
	}
	if h.DataMD5.Alg != cryptoutil.MD5 || len(h.DataMD5.Sum) != cryptoutil.MD5.Size() {
		return mismatch()
	}
	b.ctr.Inc(metrics.HashOps, 1)
	if !cryptoutil.Sum(cryptoutil.SHA256, data).Equal(h.DataSHA256) {
		return mismatch()
	}
	if _, err := b.store.Put(h.ObjectKey, data, h.DataMD5); errors.Is(err, storage.ErrChecksum) {
		return mismatch()
	} else if err != nil {
		return b.errorReply(h, "storage error: "+err.Error())
	}
	faultpoint.Hit(fpProviderUploadBeforeJournal)
	// Journal the NRO and the object binding before anything is acked: a
	// crash past this line leaves the provider bound (it holds Alice's
	// NRO durably) and recovery must know which blob that binds.
	if err := b.putEvidence(h.TxnID, evidence.RolePeer, ev); err != nil {
		return nil, err // no ack; the client times out and resolves
	}
	if err := b.journalObject(h.TxnID, h.ObjectKey); err != nil {
		return nil, err
	}
	b.setState(h.TxnID, session.StateEvidenceReceived)
	b.auditAppend("upload", h.TxnID, fmt.Sprintf("stored %q (%d bytes, md5 %s)", h.ObjectKey, len(data), h.DataMD5.Hex()))
	faultpoint.Hit(fpProviderUploadBeforeNRR)

	if b.misbehavior().SilentAfterNRO {
		// Malicious Bob keeps the data and the NRO but withholds the
		// receipt.
		return nil, nil
	}
	return b.buildNRR(h, auditRootNote(data))
}

// buildNRR constructs the receipt for an upload header and archives
// the provider's own copy. auditNote, when non-empty, is the signed
// storage-dwell commitment (audit.RootNote over the object's chunk
// tree) that later KindAuditChallenge responses must prove against.
func (b *Provider) buildNRR(h *evidence.Header, auditNote string) (*Message, error) {
	senderKey, err := b.peerKey(h.SenderID)
	if err != nil {
		return nil, err
	}
	rh := b.newHeader(evidence.KindNRR, h.TxnID, h.SenderID, h.TTPID, b.bumpSeqTo(h.TxnID, h.Seq))
	rh.ObjectKey = h.ObjectKey
	rh.ObjectLen = h.ObjectLen
	rh.Note = auditNote
	// The NRR commits to the digests from the NRO: both sides now hold
	// a signature from the other over the same agreed value.
	rh.DataMD5 = h.DataMD5.Clone()
	rh.DataSHA256 = h.DataSHA256.Clone()
	msg, own, err := b.buildMessage(rh, nil, senderKey)
	if err != nil {
		return nil, err
	}
	if err := b.putEvidence(h.TxnID, evidence.RoleOwn, own); err != nil {
		return nil, err
	}
	b.setState(h.TxnID, session.StateCompleted)
	b.ctr.Inc(metrics.Rounds, 1)
	faultpoint.Hit(fpProviderUploadNRRBeforeSend)
	return msg, nil
}

// issueNRR (re)creates the receipt evidence for an upload whose NRO we
// hold, archiving the provider's own copy. Used by the resolve path
// when the direct NRR was withheld or lost.
func (b *Provider) issueNRR(nroHeader *evidence.Header) (*evidence.Evidence, error) {
	clientKey, err := b.peerKey(nroHeader.SenderID)
	if err != nil {
		return nil, err
	}
	rh := b.newHeader(evidence.KindNRR, nroHeader.TxnID, nroHeader.SenderID, nroHeader.TTPID, b.bumpSeqTo(nroHeader.TxnID, nroHeader.Seq))
	rh.ObjectKey = nroHeader.ObjectKey
	rh.ObjectLen = nroHeader.ObjectLen
	// Recompute the storage-dwell commitment from the stored copy: a
	// re-issued receipt carries the same auditable root as a direct one
	// (the upload path verified the bytes against the NRO digests, so
	// the recomputed root equals the one the direct NRR would carry).
	if obj, gerr := b.store.Get(nroHeader.ObjectKey); gerr == nil {
		rh.Note = auditRootNote(obj.Data)
	}
	rh.DataMD5 = nroHeader.DataMD5.Clone()
	rh.DataSHA256 = nroHeader.DataSHA256.Clone()
	_, own, err := b.buildMessage(rh, nil, clientKey)
	if err != nil {
		return nil, err
	}
	if err := b.putEvidence(nroHeader.TxnID, evidence.RoleOwn, own); err != nil {
		return nil, err
	}
	return own, nil
}

// handleDownload serves the downloading session: return the object
// with a signed receipt over the served bytes.
func (b *Provider) handleDownload(h *evidence.Header, ev *evidence.Evidence) (*Message, error) {
	obj, err := b.store.Get(h.ObjectKey)
	if err != nil {
		return b.errorReply(h, "no such object: "+h.ObjectKey)
	}
	data := obj.Data
	if mut := b.misbehavior().TamperOnDownload; mut != nil {
		data = mut(data)
	}
	if err := b.putEvidence(h.TxnID, evidence.RolePeer, ev); err != nil {
		return nil, err
	}

	senderKey, err := b.peerKey(h.SenderID)
	if err != nil {
		return nil, err
	}
	rh := b.newHeader(evidence.KindDownloadResponse, h.TxnID, h.SenderID, h.TTPID, b.bumpSeqTo(h.TxnID, h.Seq))
	rh.ObjectKey = h.ObjectKey
	rh.SetDigests(data)
	b.ctr.Inc(metrics.HashOps, 2)
	msg, own, err := b.buildMessage(rh, data, senderKey)
	if err != nil {
		return nil, err
	}
	if err := b.putEvidence(h.TxnID, evidence.RoleOwn, own); err != nil {
		return nil, err
	}
	b.ctr.Inc(metrics.Rounds, 1)
	b.auditAppend("download", h.TxnID, fmt.Sprintf("served %q (%d bytes)", h.ObjectKey, len(data)))
	return msg, nil
}

// handleAbort implements §4.2: on a consistent abort request, answer
// Accept (dropping the transaction's stored object) or Reject (when
// the transaction already completed); the checkInbound validation
// failing would instead have produced the Error reply inviting a
// corrected resubmission.
func (b *Provider) handleAbort(h *evidence.Header, ev *evidence.Evidence) (*Message, error) {
	if err := b.putEvidence(h.TxnID, evidence.RolePeer, ev); err != nil {
		return nil, err
	}
	senderKey, err := b.peerKey(h.SenderID)
	if err != nil {
		return nil, err
	}
	state, serr := b.tracker.Get(h.TxnID)
	kind := evidence.KindAbortAccept
	note := "transaction aborted"
	switch {
	case serr != nil:
		// Unknown transaction: nothing to abort; accepting is safe and
		// gives Alice her evidence of cancellation.
		note = "transaction unknown; abort recorded"
	case state == session.StateCompleted:
		kind = evidence.KindAbortReject
		note = "transaction already completed; abort rejected"
	default:
		// Journal the aborted state before dropping the blob: a crash in
		// between leaves a durable abort that recovery honors by
		// re-deleting the object, whereas the reverse order would leave a
		// deleted object behind a transaction recovery still thinks is
		// live.
		b.setState(h.TxnID, session.StateAborted)
		b.txnMu.Lock()
		objKey := b.txnObject[h.TxnID]
		b.txnMu.Unlock()
		if objKey != "" {
			b.store.Delete(objKey)
		}
	}
	rh := b.newHeader(kind, h.TxnID, h.SenderID, h.TTPID, b.bumpSeqTo(h.TxnID, h.Seq))
	rh.Note = note
	rh.SetDigests(nil)
	msg, own, err := b.buildMessage(rh, nil, senderKey)
	if err != nil {
		return nil, err
	}
	if err := b.putEvidence(h.TxnID, evidence.RoleOwn, own); err != nil {
		return nil, err
	}
	b.ctr.Inc(metrics.Aborts, 1)
	b.auditAppend("abort", h.TxnID, note)
	faultpoint.Hit(fpProviderAbortBeforeAck)
	return msg, nil
}

// handleResolve answers a TTP-forwarded resolve query (§4.3). The
// payload carries the claimant's original NRO (encoded). The provider
// responds to the TTP with its NRR for the transaction (re-signed, to
// be relayed) or asks for a session restart when it never received the
// data.
func (b *Provider) handleResolve(h *evidence.Header, ev *evidence.Evidence, payload []byte) (*Message, error) {
	if mb := b.misbehavior(); mb.IgnoreResolve {
		return nil, nil
	}
	if h.SenderID != h.TTPID {
		// Resolve queries must come through the TTP.
		return b.errorReply(h, "resolve not sent by TTP")
	}
	if err := b.putEvidence(h.TxnID, evidence.RolePeer, ev); err != nil {
		return nil, err
	}
	ttpKey, err := b.peerKey(h.SenderID)
	if err != nil {
		return nil, err
	}
	rh := b.newHeader(evidence.KindResolveResponse, h.TxnID, h.SenderID, h.TTPID, b.bumpSeqTo(h.TxnID, h.Seq))
	rh.SetDigests(nil)

	var relay []byte
	if st, serr := b.tracker.Get(h.TxnID); serr == nil && st == session.StateAborted {
		// The transaction was aborted — possibly honored again during
		// crash recovery. Re-presenting (or newly issuing) an NRR here
		// would re-bind us to a blob we deleted; relay the abort receipt
		// instead so the claimant gains its counter-evidence.
		rh.Note = "aborted"
		if own, err := b.EvidenceByKind(h.TxnID, evidence.RoleOwn, evidence.KindAbortAccept); err == nil {
			relay = own.Encode()
		}
	} else if own, err := b.EvidenceByKind(h.TxnID, evidence.RoleOwn, evidence.KindNRR); err == nil {
		// We completed our side before: re-present the receipt; the
		// transaction can continue. EvidenceByKind reads through to the
		// cold archive, so a resolve against a checkpointed session still
		// finds the receipt.
		rh.Note = "continue"
		relay = own.Encode()
	} else if nro, err := b.EvidenceByKind(h.TxnID, evidence.RolePeer, evidence.KindNRO); err == nil {
		// We hold the claimant's NRO and (if honest storage) the data,
		// but never issued the NRR — issue it now so the transaction
		// continues. This is the §4.3 case where Bob's receipt was
		// withheld or lost.
		nrr, err := b.issueNRR(nro.Header)
		if err != nil {
			return b.errorReply(h, "cannot issue receipt: "+err.Error())
		}
		rh.Note = "continue"
		relay = nrr.Encode()
	} else if nroBytes := payload; len(nroBytes) > 0 {
		// We never saw this transaction. Verify the claimant's NRO; if
		// genuine, the data never arrived (the TTP does not forward
		// bulk data in the cloud setting, §4.3) — ask for a restart.
		claimed, derr := evidence.Decode(nroBytes)
		if derr != nil {
			return b.errorReply(h, "resolve carries malformed evidence")
		}
		claimantKey, kerr := b.peerKey(claimed.Header.SenderID)
		if kerr != nil || claimed.VerifyWith(claimantKey) != nil {
			return b.errorReply(h, "resolve evidence does not verify")
		}
		b.ctr.Inc(metrics.VerifyOps, 2)
		rh.Note = "restart"
	} else {
		return b.errorReply(h, "resolve without evidence for unknown transaction")
	}
	msg, own, err := b.buildMessage(rh, relay, ttpKey)
	if err != nil {
		return nil, err
	}
	if err := b.putEvidence(h.TxnID, evidence.RoleOwn, own); err != nil {
		return nil, err
	}
	b.ctr.Inc(metrics.Resolves, 1)
	b.ctr.Inc(metrics.TTPMsgs, 1)
	b.auditAppend("resolve", h.TxnID, rh.Note)
	return msg, nil
}

// Resolve lets the PROVIDER initiate the §4.3 procedure: "Only when
// there is no further response or specified following activities after
// he has sent NRR, Bob needs to initiate the Resolve procedure in case
// disputation happens." Bob submits his NRR for the transaction; the
// TTP relays the query to the client or issues a statement (typically
// "peer-unreachable" for an offline client) that Bob archives as proof
// he attempted completion.
//
// The TTP's identity comes from WithTTPID, making the signature
// identical to the Client's — both sides satisfy the Resolver
// interface.
func (b *Provider) Resolve(ctx context.Context, ttpConn transport.Conn, txnID, report string) (*ResolveResult, error) {
	if err := CheckContext(ctx); err != nil {
		return nil, err
	}
	ttpID := b.ttpID
	if ttpID == "" {
		return nil, fmt.Errorf("core: provider has no TTP configured (construct with WithTTPID)")
	}
	defer applyDeadline(ctx, ttpConn)()
	own, err := b.EvidenceByKind(txnID, evidence.RoleOwn, evidence.KindNRR)
	if err != nil {
		return nil, fmt.Errorf("core: provider has no NRR for %s: %w", txnID, err)
	}
	h := b.newHeader(evidence.KindResolveRequest, txnID, ttpID, ttpID, b.nextSeq(txnID))
	h.Note = report
	h.SetDigests(nil)
	ttpKey, err := b.peerKey(ttpID)
	if err != nil {
		return nil, err
	}
	msg, _, err := b.buildMessage(h, own.Encode(), ttpKey)
	if err != nil {
		return nil, err
	}
	if err := b.send(ttpConn, msg); err != nil {
		return nil, fmt.Errorf("core: sending provider resolve: %w", err)
	}
	b.ctr.Inc(metrics.Resolves, 1)
	b.ctr.Inc(metrics.TTPMsgs, 1)

	pu := b.pumpFor(ttpConn)
	raw, err := pu.recv(ctx, b.clk, 4*b.timeout)
	if err != nil {
		return nil, err
	}
	m, err := DecodeMessage(raw)
	if err != nil {
		return nil, wrapProto(err)
	}
	rh, ev, err := b.checkInbound(m)
	if err != nil {
		return nil, err
	}
	b.ctr.Inc(metrics.MsgsRecv, 1)
	if rh.Kind != evidence.KindResolveResponse || rh.SenderID != ttpID {
		return nil, fmt.Errorf("%w: unexpected resolve answer %s from %s", ErrProtocol, rh.Kind, rh.SenderID)
	}
	res := &ResolveResult{TxnID: txnID, Outcome: rh.Note, TTPStatement: ev}
	if err := b.putEvidence(txnID, evidence.RolePeer, ev); err != nil {
		return nil, err
	}
	b.auditAppend("resolve-initiated", txnID, rh.Note)
	return res, nil
}

// journalObject records the transaction → object-key binding — journal
// record plus in-memory map, bracketed by ckptMu's read side like every
// journal+mutate pair — so recovery knows which blob an abort must
// drop.
func (b *Provider) journalObject(txn, objectKey string) error {
	b.ckptMu.RLock()
	defer b.ckptMu.RUnlock()
	if err := b.journalAppend(&journalRecord{Kind: jrObject, Txn: txn, Note: objectKey}); err != nil {
		return err
	}
	b.txnMu.Lock()
	b.txnObject[txn] = objectKey
	b.txnMu.Unlock()
	return nil
}

// Health returns nil while the provider is fully serving, or a named
// reason while it is degraded (new sessions refused; downloads, aborts
// and resolves still served): the journal's sticky I/O error, or —
// wrapped in ErrQuorumUnavailable — the replication group's quorum
// outage. Wire it into the /healthz endpoint: the handler answers 503
// with the reason text.
func (b *Provider) Health() error {
	if b.journal == nil {
		return nil
	}
	if err := b.journal.Healthy(); err != nil {
		return err
	}
	if b.repl != nil {
		if err := b.repl.Quorum(); err != nil {
			return fmt.Errorf("%w: %v", ErrQuorumUnavailable, err)
		}
	}
	return nil
}

// Degraded reports whether the provider is refusing new sessions
// because its journal can no longer accept appends (or replicate them
// to a write quorum).
func (b *Provider) Degraded() bool { return b.Health() != nil }

// Journal exposes the provider's WAL so a deployment can attach a
// replication group to it (the group's streamers read the journal by
// LSN range). Nil without WithJournal.
func (b *Provider) Journal() *wal.WAL { return b.journal }

// SetReplicator attaches the quorum replication group after
// construction — deployments build providers first, then the per-shard
// groups over the providers' journals. Must be called before the
// provider starts serving; it is not synchronized with in-flight
// handlers.
func (b *Provider) SetReplicator(r Replicator) { b.repl = r }

// ExpireStale drives every live transaction whose step deadline is at
// or before now to its abort state, returning how many were expired.
// Wire it to a core.Server reaper (ServerExpiry) or call it directly;
// it is a no-op without WithDeadlinePolicy because no deadlines are
// ever stamped.
func (b *Provider) ExpireStale(now time.Time) int {
	n := 0
	for _, txn := range b.tracker.ExpireBefore(now) {
		if err := b.expireTxn(txn); err == nil {
			n++
		}
	}
	return n
}

// expireIfStale lazily expires the transaction behind an inbound
// message when its deadline has passed but the reaper has not swept
// yet. Only session-advancing kinds are gated: an abort or resolve on
// an overdue transaction must still be served — those are exactly the
// messages that drain it.
func (b *Provider) expireIfStale(h *evidence.Header) bool {
	if !b.deadline.enabled() {
		return false
	}
	if h.Kind != evidence.KindNRO && h.Kind != evidence.KindDownloadRequest {
		return false
	}
	dl := b.tracker.Deadline(h.TxnID)
	if dl.IsZero() || b.clk.Now().Before(dl) {
		return false
	}
	b.tracker.ClearDeadline(h.TxnID)
	return b.expireTxn(h.TxnID) == nil
}

// expireTxn drives one overdue transaction to its §4.2 abort outcome:
// claim the terminal transition (first-wins against a concurrently
// completing handler — setState refuses transitions out of terminal
// states), issue and archive the abort receipt the resolve path will
// relay to the client, and drop the stored blob so the abort means
// what it says.
func (b *Provider) expireTxn(txn string) error {
	if err := b.setState(txn, session.StateAborted); err != nil {
		return err // lost the race to a completing handler: nothing to expire
	}
	note := expiredNotePrefix + "step deadline exceeded"
	if nro, err := b.EvidenceByKind(txn, evidence.RolePeer, evidence.KindNRO); err == nil {
		if _, rerr := b.issueAbortReceipt(nro.Header, note); rerr != nil {
			return rerr
		}
	}
	b.txnMu.Lock()
	objKey := b.txnObject[txn]
	b.txnMu.Unlock()
	if objKey != "" {
		b.store.Delete(objKey)
	}
	b.ctr.Inc(metrics.Aborts, 1)
	b.auditAppend("expire", txn, note)
	return nil
}

// issueAbortReceipt creates and archives the signed abort-accept the
// expiry path issues toward the NRO's sender; the resolve path relays
// it exactly like a client-requested abort receipt.
func (b *Provider) issueAbortReceipt(nroHeader *evidence.Header, note string) (*evidence.Evidence, error) {
	clientKey, err := b.peerKey(nroHeader.SenderID)
	if err != nil {
		return nil, err
	}
	rh := b.newHeader(evidence.KindAbortAccept, nroHeader.TxnID, nroHeader.SenderID, nroHeader.TTPID, b.bumpSeqTo(nroHeader.TxnID, nroHeader.Seq))
	rh.Note = note
	rh.SetDigests(nil)
	_, own, err := b.buildMessage(rh, nil, clientKey)
	if err != nil {
		return nil, err
	}
	if err := b.putEvidence(nroHeader.TxnID, evidence.RoleOwn, own); err != nil {
		return nil, err
	}
	return own, nil
}

// Recover replays the provider's journal after a restart: the evidence
// archive, session tracker, replay guard, sequence counters and the
// transaction → object map are rebuilt, and acked aborts are honored by
// re-deleting their stored objects (a crash may have hit between
// journaling the abort and dropping the blob). Transactions the crash
// left non-terminal are listed in NeedsResolve; per §4.3 the provider
// may escalate them itself (Resolve) or simply wait — its journaled
// evidence already answers any TTP query about them.
func (b *Provider) Recover(ctx context.Context) (*RecoveryReport, error) {
	rep, err := b.recoverBase(ctx, func(r *journalRecord) error {
		if r.Kind == jrObject {
			b.txnMu.Lock()
			b.txnObject[r.Txn] = r.Note
			b.txnMu.Unlock()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, txn := range rep.Transactions {
		st, serr := b.tracker.Get(txn)
		if serr != nil || st != session.StateAborted {
			continue
		}
		b.txnMu.Lock()
		objKey := b.txnObject[txn]
		b.txnMu.Unlock()
		if objKey == "" {
			continue
		}
		if err := b.store.Delete(objKey); err == nil {
			rep.HonoredAborts = append(rep.HonoredAborts, txn)
		} else if errors.Is(err, storage.ErrNotFound) {
			// Already gone — the delete landed before the crash.
			rep.HonoredAborts = append(rep.HonoredAborts, txn)
		} else {
			return rep, fmt.Errorf("core: honoring abort of %s: %w", txn, err)
		}
	}
	b.auditAppend("recover", "", fmt.Sprintf("replayed %d records, %d txns, %d unfinished, %d aborts honored, torn tail: %v",
		rep.Records, len(rep.Transactions), len(rep.NeedsResolve), len(rep.HonoredAborts), rep.TornTail))
	return rep, nil
}
