package core

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/evidence"
	"repro/internal/faultpoint"
	"repro/internal/metrics"
	"repro/internal/session"
	"repro/internal/transport"
)

// Client is Alice: the storage customer running the TPNR protocol
// against a Provider, escalating to the TTP when the provider does not
// answer in time.
type Client struct {
	*party
	// ProviderID and TTPID name the counterparties for header fields.
	ProviderID string
	TTPID      string
}

// NewClient constructs a client engine from functional options.
func NewClient(providerID, ttpID string, opts ...Option) (*Client, error) {
	p, err := newParty(buildOptions(opts))
	if err != nil {
		return nil, err
	}
	return &Client{party: p, ProviderID: providerID, TTPID: ttpID}, nil
}

// UploadResult carries the outcome of a completed upload: the client's
// own NRO (what it committed to) and the provider's NRR (what it can
// show an arbitrator).
type UploadResult struct {
	TxnID string
	NRO   *evidence.Evidence
	NRR   *evidence.Evidence
}

// Upload runs the Normal-mode uploading session (Fig. 6b):
//
//	step 1  Alice → Bob: data + sealed NRO
//	step 2  Bob → Alice: sealed NRR
//
// On ErrTimeout the caller still holds the transaction (see
// PendingNRO) and should escalate with Resolve. The context cancels
// the session mid-protocol (mapped to ErrCancelled) and its deadline
// propagates onto deadline-capable transports.
func (c *Client) Upload(ctx context.Context, conn transport.Conn, txnID, objectKey string, data []byte) (*UploadResult, error) {
	if err := CheckContext(ctx); err != nil {
		return nil, err
	}
	defer applyDeadline(ctx, conn)()
	h := c.newHeader(evidence.KindNRO, txnID, c.ProviderID, c.TTPID, c.nextSeq(txnID))
	h.ObjectKey = objectKey
	h.SetDigests(data)
	c.ctr.Inc(metrics.HashOps, 2)

	providerKey, err := c.peerKey(c.ProviderID)
	if err != nil {
		return nil, err
	}
	msg, nro, err := c.buildMessage(h, data, providerKey)
	if err != nil {
		return nil, err
	}
	c.tracker.Begin(txnID)
	faultpoint.Hit(fpClientUploadBeforeJournal)
	// Journal the NRO before it leaves: once Bob holds it Alice is
	// committed, so the commitment must survive an immediate crash.
	if err := c.putEvidence(txnID, evidence.RoleOwn, nro); err != nil {
		return nil, err
	}
	faultpoint.Hit(fpClientUploadBeforeSend)
	if err := c.send(conn, msg); err != nil {
		return nil, fmt.Errorf("core: sending NRO: %w", err)
	}
	c.setState(txnID, session.StateEvidenceSent)
	c.ctr.Inc(metrics.Rounds, 1)
	faultpoint.Hit(fpClientUploadBeforeAck)

	pu := c.pumpFor(conn)
	nrr, err := c.awaitNRR(ctx, pu, txnID, h)
	if err != nil {
		return nil, err
	}
	c.setState(txnID, session.StateCompleted)
	return &UploadResult{TxnID: txnID, NRO: nro, NRR: nrr}, nil
}

// awaitNRR waits for and validates the provider's NRR matching the
// sent NRO header.
func (c *Client) awaitNRR(ctx context.Context, pu *pump, txnID string, sent *evidence.Header) (*evidence.Evidence, error) {
	raw, err := pu.recv(ctx, c.clk, c.timeout)
	if err != nil {
		if errors.Is(err, ErrTimeout) {
			return nil, fmt.Errorf("%w: no NRR for %s", ErrTimeout, txnID)
		}
		return nil, fmt.Errorf("core: receiving NRR: %w", err)
	}
	m, err := DecodeMessage(raw)
	if err != nil {
		return nil, wrapProto(err)
	}
	h, ev, err := c.checkInbound(m)
	if err != nil {
		return nil, err
	}
	c.ctr.Inc(metrics.MsgsRecv, 1)
	if h.Kind == evidence.KindError {
		return nil, peerErr(h.Note)
	}
	if h.Kind != evidence.KindNRR {
		return nil, fmt.Errorf("%w: expected NRR, got %s", ErrProtocol, h.Kind)
	}
	if h.TxnID != txnID || h.SenderID != c.ProviderID {
		return nil, fmt.Errorf("%w: NRR transaction/sender mismatch", ErrProtocol)
	}
	// The receipt must commit to exactly the digests Alice sent: this
	// is the agreed digest the dispute procedure relies on.
	if !h.DataMD5.Equal(sent.DataMD5) || !h.DataSHA256.Equal(sent.DataSHA256) {
		return nil, fmt.Errorf("%w: NRR digests differ from uploaded data", ErrProtocol)
	}
	if err := c.putEvidence(txnID, evidence.RolePeer, ev); err != nil {
		return nil, err
	}
	return ev, nil
}

// DownloadResult carries a completed download.
type DownloadResult struct {
	TxnID string
	Data  []byte
	// Receipt is the provider's evidence over the served bytes.
	Receipt *evidence.Evidence
	// AgreedUpload, when the client archived an upload NRR for the same
	// object, is that original receipt; IntegrityOK reports whether the
	// served data matches it — the upload-to-download integrity link
	// the paper's §2.4 asks for.
	AgreedUpload *evidence.Evidence
	IntegrityOK  bool
}

// Download runs the downloading session: a signed request, then the
// provider's data + receipt. uploadTxn optionally names the upload
// transaction whose agreed digest the data must match; empty means
// "verify against any archived receipt for the object key, if one
// exists".
func (c *Client) Download(ctx context.Context, conn transport.Conn, txnID, objectKey, uploadTxn string) (*DownloadResult, error) {
	if err := CheckContext(ctx); err != nil {
		return nil, err
	}
	defer applyDeadline(ctx, conn)()
	h := c.newHeader(evidence.KindDownloadRequest, txnID, c.ProviderID, c.TTPID, c.nextSeq(txnID))
	h.ObjectKey = objectKey
	h.SetDigests(nil) // request carries no data; digests cover the empty string
	c.ctr.Inc(metrics.HashOps, 2)

	providerKey, err := c.peerKey(c.ProviderID)
	if err != nil {
		return nil, err
	}
	msg, own, err := c.buildMessage(h, nil, providerKey)
	if err != nil {
		return nil, err
	}
	c.tracker.Begin(txnID)
	if err := c.putEvidence(txnID, evidence.RoleOwn, own); err != nil {
		return nil, err
	}
	if err := c.send(conn, msg); err != nil {
		return nil, fmt.Errorf("core: sending download request: %w", err)
	}
	c.ctr.Inc(metrics.Rounds, 1)

	pu := c.pumpFor(conn)
	raw, err := pu.recv(ctx, c.clk, c.timeout)
	if err != nil {
		if errors.Is(err, ErrTimeout) {
			return nil, fmt.Errorf("%w: no download response for %s", ErrTimeout, txnID)
		}
		return nil, err
	}
	m, err := DecodeMessage(raw)
	if err != nil {
		return nil, wrapProto(err)
	}
	rh, ev, err := c.checkInbound(m)
	if err != nil {
		return nil, err
	}
	c.ctr.Inc(metrics.MsgsRecv, 1)
	if rh.Kind == evidence.KindError {
		return nil, peerErr(rh.Note)
	}
	if rh.Kind != evidence.KindDownloadResponse || rh.TxnID != txnID {
		return nil, fmt.Errorf("%w: expected download response for %s, got %s for %s", ErrProtocol, txnID, rh.Kind, rh.TxnID)
	}
	// The served payload must match the digests the provider signed.
	if !rh.MatchesData(m.Payload) {
		c.ctr.Inc(metrics.AuthFailures, 1)
		return nil, fmt.Errorf("%w: served data does not match provider-signed digests", ErrProtocol)
	}
	c.ctr.Inc(metrics.HashOps, 2)
	if err := c.putEvidence(txnID, evidence.RolePeer, ev); err != nil {
		return nil, err
	}

	res := &DownloadResult{TxnID: txnID, Data: m.Payload, Receipt: ev, IntegrityOK: true}
	// Upload-to-download integrity: compare against the archived
	// agreed digest from the uploading session.
	if agreed := c.agreedReceipt(uploadTxn, objectKey); agreed != nil {
		res.AgreedUpload = agreed
		res.IntegrityOK = agreed.Header.DataMD5.Equal(rh.DataMD5) &&
			agreed.Header.DataSHA256.Equal(rh.DataSHA256)
		if !res.IntegrityOK {
			c.setState(txnID, session.StateFailed)
			return res, fmt.Errorf("%w: object %q, upload txn %s", ErrIntegrity, objectKey, agreed.Header.TxnID)
		}
	}
	c.setState(txnID, session.StateCompleted)
	return res, nil
}

// agreedReceipt finds the upload NRR fixing the object's agreed
// digest. Compacted upload sessions are consulted in the cold archive —
// without the fallback, downloading an object whose upload session was
// checkpointed away would silently skip the upload-to-download
// integrity check.
func (c *Client) agreedReceipt(uploadTxn, objectKey string) *evidence.Evidence {
	if uploadTxn != "" {
		if ev, err := c.EvidenceByKind(uploadTxn, evidence.RolePeer, evidence.KindNRR); err == nil {
			return ev
		}
		return nil
	}
	for _, txn := range c.archive.Transactions() {
		if ev, err := c.archive.ByKind(txn, evidence.RolePeer, evidence.KindNRR); err == nil && ev.Header.ObjectKey == objectKey {
			return ev
		}
	}
	if c.cold != nil {
		for _, txn := range c.cold.Transactions() {
			if ev, err := c.coldByKind(txn, evidence.RolePeer, evidence.KindNRR); err == nil && ev.Header.ObjectKey == objectKey {
				return ev
			}
		}
	}
	return nil
}

// AbortResult reports the provider's answer to an abort.
type AbortResult struct {
	TxnID string
	// Accepted is true when the provider agreed to cancel.
	Accepted bool
	// Receipt is the provider's NRR over the abort decision.
	Receipt *evidence.Evidence
}

// Abort cancels an ongoing transaction (§4.2, off-line TTP): Alice
// sends the transaction ID with an abort NRO; Bob responds Accept or
// Reject with an NRR. An Error answer (inconsistent request) surfaces
// as ErrPeerRejected, inviting the caller to regenerate and resubmit.
func (c *Client) Abort(ctx context.Context, conn transport.Conn, txnID, reason string) (*AbortResult, error) {
	if err := CheckContext(ctx); err != nil {
		return nil, err
	}
	defer applyDeadline(ctx, conn)()
	h := c.newHeader(evidence.KindAbortRequest, txnID, c.ProviderID, c.TTPID, c.nextSeq(txnID))
	h.Note = reason
	h.SetDigests(nil)
	providerKey, err := c.peerKey(c.ProviderID)
	if err != nil {
		return nil, err
	}
	msg, own, err := c.buildMessage(h, nil, providerKey)
	if err != nil {
		return nil, err
	}
	if err := c.putEvidence(txnID, evidence.RoleOwn, own); err != nil {
		return nil, err
	}
	if err := c.send(conn, msg); err != nil {
		return nil, fmt.Errorf("core: sending abort: %w", err)
	}
	c.ctr.Inc(metrics.Aborts, 1)
	c.ctr.Inc(metrics.Rounds, 1)

	pu := c.pumpFor(conn)
	raw, err := pu.recv(ctx, c.clk, c.timeout)
	if err != nil {
		return nil, err
	}
	m, err := DecodeMessage(raw)
	if err != nil {
		return nil, wrapProto(err)
	}
	rh, ev, err := c.checkInbound(m)
	if err != nil {
		return nil, err
	}
	c.ctr.Inc(metrics.MsgsRecv, 1)
	switch rh.Kind {
	case evidence.KindAbortAccept:
		if err := c.putEvidence(txnID, evidence.RolePeer, ev); err != nil {
			return nil, err
		}
		c.setState(txnID, session.StateAborted)
		return &AbortResult{TxnID: txnID, Accepted: true, Receipt: ev}, nil
	case evidence.KindAbortReject:
		if err := c.putEvidence(txnID, evidence.RolePeer, ev); err != nil {
			return nil, err
		}
		return &AbortResult{TxnID: txnID, Accepted: false, Receipt: ev}, nil
	case evidence.KindError:
		return nil, peerErr(rh.Note)
	default:
		return nil, fmt.Errorf("%w: unexpected %s to abort", ErrProtocol, rh.Kind)
	}
}

// ResolveResult reports the outcome of a TTP-mediated resolve (§4.3).
type ResolveResult struct {
	TxnID string
	// Outcome is the provider's action ("continue", "restart") or the
	// TTP's statement ("peer-unresponsive").
	Outcome string
	// PeerEvidence is the provider's NRR relayed through the TTP, when
	// the provider answered.
	PeerEvidence *evidence.Evidence
	// TTPStatement is the TTP's signed statement when the provider did
	// not answer — Alice's proof that "this session is failed and Bob
	// did not respond".
	TTPStatement *evidence.Evidence
}

// Resolver is the unified §4.3 escalation interface: either
// disadvantaged party — Client or Provider — submits a stalled
// transaction with its own evidence to the in-line TTP and receives
// the peer's relayed evidence or a signed TTP statement.
type Resolver interface {
	Resolve(ctx context.Context, ttpConn transport.Conn, txnID, report string) (*ResolveResult, error)
}

// Resolve escalates a stalled transaction to the in-line TTP: Alice
// sends the transaction ID, her NRO, and a report of anomalies; the
// TTP queries Bob and relays his evidence, or issues a signed
// unresponsiveness statement after the timeout.
func (c *Client) Resolve(ctx context.Context, ttpConn transport.Conn, txnID, report string) (*ResolveResult, error) {
	if err := CheckContext(ctx); err != nil {
		return nil, err
	}
	defer applyDeadline(ctx, ttpConn)()
	nro, err := c.archive.Get(txnID, evidence.RoleOwn)
	if err != nil {
		return nil, fmt.Errorf("core: no own evidence for %s: %w", txnID, err)
	}
	h := c.newHeader(evidence.KindResolveRequest, txnID, c.TTPID, c.TTPID, c.nextSeq(txnID))
	h.Note = report
	h.SetDigests(nil)
	ttpKey, err := c.peerKey(c.TTPID)
	if err != nil {
		return nil, err
	}
	// The original NRO travels in the payload so the TTP can verify
	// the claim's genuineness (§4.3).
	msg, own, err := c.buildMessage(h, nro.Encode(), ttpKey)
	if err != nil {
		return nil, err
	}
	if err := c.putEvidence(txnID, evidence.RoleOwn, own); err != nil {
		return nil, err
	}
	if err := c.send(ttpConn, msg); err != nil {
		return nil, fmt.Errorf("core: sending resolve request: %w", err)
	}
	c.ctr.Inc(metrics.Resolves, 1)
	c.ctr.Inc(metrics.TTPMsgs, 1)
	c.setState(txnID, session.StateResolving)
	faultpoint.Hit(fpClientResolveBeforeCompletion)

	pu := c.pumpFor(ttpConn)
	raw, err := pu.recv(ctx, c.clk, 4*c.timeout) // TTP needs its own round to Bob
	if err != nil {
		return nil, err
	}
	m, err := DecodeMessage(raw)
	if err != nil {
		return nil, wrapProto(err)
	}
	rh, ev, err := c.checkInbound(m)
	if err != nil {
		return nil, err
	}
	c.ctr.Inc(metrics.MsgsRecv, 1)
	if rh.Kind != evidence.KindResolveResponse {
		return nil, fmt.Errorf("%w: unexpected %s from TTP", ErrProtocol, rh.Kind)
	}
	res := &ResolveResult{TxnID: txnID, Outcome: rh.Note}
	if rh.SenderID == c.TTPID {
		// TTP's own statement (provider unresponsive, or relayed
		// verdict).
		res.TTPStatement = ev
		if err := c.putEvidence(txnID, evidence.RolePeer, ev); err != nil {
			return nil, err
		}
		if len(m.Payload) > 0 {
			// Relayed provider evidence rides in the payload.
			peer, err := evidence.Decode(m.Payload)
			if err == nil {
				provKey, kerr := c.peerKey(c.ProviderID)
				if kerr == nil && peer.VerifyWith(provKey) == nil {
					res.PeerEvidence = peer
					if err := c.putEvidence(txnID, evidence.RolePeer, peer); err != nil {
						return nil, err
					}
					if peer.Header.Kind == evidence.KindAbortAccept {
						// The provider honored an abort (possibly during its
						// own crash recovery): the relayed receipt closes the
						// transaction as aborted, not completed.
						c.setState(txnID, session.StateAborted)
					} else {
						c.setState(txnID, session.StateCompleted)
					}
				}
			}
		}
		return res, nil
	}
	return nil, fmt.Errorf("%w: resolve response from %q, want TTP %q", ErrProtocol, rh.SenderID, c.TTPID)
}

// PendingNRO returns the archived own-NRO for a transaction, used when
// escalating to Resolve after a timeout. Reads through to the cold
// archive for compacted sessions.
func (c *Client) PendingNRO(txnID string) (*evidence.Evidence, error) {
	return c.EvidenceByKind(txnID, evidence.RoleOwn, evidence.KindNRO)
}

// Recover replays the client's journal after a restart, rebuilding the
// evidence archive, session tracker, replay guard and sequence
// counters. Transactions the crash left non-terminal (NRO sent but no
// NRR archived, or a resolve opened but not concluded) are listed in
// NeedsResolve; the caller escalates each via Resolve, per §4.3.
func (c *Client) Recover(ctx context.Context) (*RecoveryReport, error) {
	return c.recoverBase(ctx, nil)
}
