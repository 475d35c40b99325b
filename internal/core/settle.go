package core

import (
	"context"
	"fmt"

	"repro/internal/cryptoutil"
	"repro/internal/evidence"
	"repro/internal/merkle"
	"repro/internal/metrics"
	"repro/internal/session"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Aggregated session settlement.
//
// A session of K uploads normally leaves the client with K individual
// NRRs — K provider signatures issued and K client verifications spent.
// Settlement replaces the per-upload receipts' role in bulk disputes:
// the client lists the session's transactions, the provider builds a
// Merkle tree over the K archived NRO evidence digests and signs ONE
// aggregate receipt over the root. Both sides hold byte-identical
// evidence encodings (the sender its own copy, the recipient the opened
// one), so the client recomputes the same leaves from its own archive
// and checks the signed root locally — no per-leaf signatures travel.
// Any single upload is later provable to the arbitrator as (receipt,
// inclusion proof, evidence).

// maxSettleTxns bounds one settlement request; a session larger than
// this settles in chunks.
const maxSettleTxns = 4096

// encodeSettleRequest serializes the transaction list a settle request
// carries in its payload. The session ID rides in the header's TxnID.
func encodeSettleRequest(txns []string) []byte {
	e := wire.NewEncoder(24 + 24*len(txns))
	e.String("tpnr-settle-req-v1")
	e.U32(uint32(len(txns)))
	for _, t := range txns {
		e.String(t)
	}
	return e.Bytes()
}

// decodeSettleRequest reverses encodeSettleRequest.
func decodeSettleRequest(b []byte) ([]string, error) {
	d := wire.NewDecoder(b)
	if err := d.Magic("tpnr-settle-req-v1"); err != nil {
		return nil, fmt.Errorf("bad settle request: %w", err)
	}
	n := d.U32()
	if n == 0 || n > maxSettleTxns {
		return nil, fmt.Errorf("settle request lists %d transactions (max %d)", n, maxSettleTxns)
	}
	txns := make([]string, 0, n)
	for i := uint32(0); i < n; i++ {
		txns = append(txns, d.String())
	}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return txns, nil
}

// SettleResult is a verified session settlement held by the client.
type SettleResult struct {
	// SessionID names the settled session.
	SessionID string
	// Receipt is the provider's one signature over all K uploads.
	Receipt *evidence.AggregateReceipt
	// Tree is the Merkle tree the client rebuilt from its OWN archived
	// evidence; its root equals the signed receipt root. Inclusion
	// proofs for individual uploads come from Tree.Prove.
	Tree *merkle.Tree
}

// Proof returns the inclusion proof for the i'th settled transaction,
// ready for EncodeProof / the arbitrator's leaf check.
func (r *SettleResult) Proof(i int) (*merkle.Proof, error) { return r.Tree.Prove(i) }

// SettleSession asks the provider to settle a session of completed
// uploads with one aggregated receipt. txnIDs lists upload transactions
// whose NROs this client sent (and archived); sessionID names the
// settlement and serves as its transaction ID on the wire.
//
// The returned result is fully verified: the receipt signature checks
// under the provider's authenticated key, and the signed Merkle root
// equals the root the client recomputed from its own archived evidence
// — the provider has non-repudiably acknowledged every listed upload.
func (c *Client) SettleSession(ctx context.Context, conn transport.Conn, sessionID string, txnIDs []string) (*SettleResult, error) {
	if err := CheckContext(ctx); err != nil {
		return nil, err
	}
	if len(txnIDs) == 0 || len(txnIDs) > maxSettleTxns {
		return nil, fmt.Errorf("core: settle of %d transactions (want 1..%d)", len(txnIDs), maxSettleTxns)
	}
	defer applyDeadline(ctx, conn)()

	// Recompute the expected leaves from this side's archive before
	// anything goes on the wire: a transaction we never committed to
	// cannot be settled.
	leaves := make([]cryptoutil.Digest, 0, len(txnIDs))
	for _, txn := range txnIDs {
		nro, err := c.EvidenceByKind(txn, evidence.RoleOwn, evidence.KindNRO)
		if err != nil {
			return nil, fmt.Errorf("core: no archived NRO for %s: %w", txn, err)
		}
		leaves = append(leaves, evidence.LeafDigest(nro))
	}
	tree, err := merkle.FromLeaves(leaves)
	if err != nil {
		return nil, fmt.Errorf("core: building settle tree: %w", err)
	}

	payload := encodeSettleRequest(txnIDs)
	h := c.newHeader(evidence.KindSettleRequest, sessionID, c.ProviderID, c.TTPID, c.nextSeq(sessionID))
	h.SetDigests(payload)
	c.ctr.Inc(metrics.HashOps, 2)
	providerKey, err := c.peerKey(c.ProviderID)
	if err != nil {
		return nil, err
	}
	msg, own, err := c.buildMessage(h, payload, providerKey)
	if err != nil {
		return nil, err
	}
	c.begin(sessionID)
	if err := c.putEvidence(sessionID, evidence.RoleOwn, own); err != nil {
		return nil, err
	}
	if err := c.send(conn, msg); err != nil {
		return nil, fmt.Errorf("core: sending settle request: %w", err)
	}
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
	rh, rev, err := c.checkInbound(m)
	if err != nil {
		return nil, err
	}
	c.ctr.Inc(metrics.MsgsRecv, 1)
	if rh.Kind == evidence.KindError {
		return nil, peerErr(rh.Note)
	}
	if rh.Kind != evidence.KindSettleResponse || rh.TxnID != sessionID || rh.SenderID != c.ProviderID {
		return nil, fmt.Errorf("%w: expected settle response for %s, got %s for %s from %s",
			ErrProtocol, sessionID, rh.Kind, rh.TxnID, rh.SenderID)
	}
	if !rh.MatchesData(m.Payload) {
		c.ctr.Inc(metrics.AuthFailures, 1)
		return nil, fmt.Errorf("%w: settle payload does not match signed digests", ErrProtocol)
	}
	c.ctr.Inc(metrics.HashOps, 2)
	r, err := evidence.DecodeAggregateReceipt(m.Payload)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrProtocol, err)
	}
	if r.SessionID != sessionID || r.SignerID != c.ProviderID {
		return nil, fmt.Errorf("%w: receipt names session %q signer %q", ErrProtocol, r.SessionID, r.SignerID)
	}
	if len(r.TxnIDs) != len(txnIDs) {
		return nil, fmt.Errorf("%w: receipt settles %d txns, requested %d", ErrProtocol, len(r.TxnIDs), len(txnIDs))
	}
	for i := range txnIDs {
		if r.TxnIDs[i] != txnIDs[i] {
			return nil, fmt.Errorf("%w: receipt leaf %d is %q, requested %q", ErrProtocol, i, r.TxnIDs[i], txnIDs[i])
		}
	}
	if err := r.VerifySig(providerKey); err != nil {
		c.ctr.Inc(metrics.AuthFailures, 1)
		return nil, fmt.Errorf("%w: %v", ErrProtocol, err)
	}
	c.ctr.Inc(metrics.VerifyOps, 1)
	// The signed root must be the root over OUR archived evidence.
	if !tree.Root().Equal(r.Root) {
		c.ctr.Inc(metrics.AuthFailures, 1)
		return nil, fmt.Errorf("%w: receipt root does not match this side's evidence", ErrProtocol)
	}
	if err := c.newBatch(sessionID).evidence(evidence.RolePeer, rev).state(session.StateCompleted).commit(); err != nil {
		return nil, err
	}
	return &SettleResult{SessionID: sessionID, Receipt: r, Tree: tree}, nil
}

// handleSettle answers a settle request: one aggregate signature over
// the Merkle root of the session's archived NRO evidence digests,
// replacing K per-upload receipt signatures in bulk disputes.
func (b *Provider) handleSettle(h *evidence.Header, ev *evidence.Evidence, payload []byte) (*Message, error) {
	txns, err := decodeSettleRequest(payload)
	if err != nil {
		return b.errorReply(h, "malformed settle request: "+err.Error())
	}
	if !h.MatchesData(payload) {
		b.ctr.Inc(metrics.AuthFailures, 1)
		return b.errorReply(h, "settle payload does not match signed digests")
	}
	b.ctr.Inc(metrics.HashOps, 2)
	leaves := make([]cryptoutil.Digest, 0, len(txns))
	for _, txn := range txns {
		nro, aerr := b.EvidenceByKind(txn, evidence.RolePeer, evidence.KindNRO)
		if aerr != nil {
			return b.errorReply(h, fmt.Sprintf("cannot settle %s: no archived evidence", txn))
		}
		if nro.Header.SenderID != h.SenderID {
			return b.errorReply(h, fmt.Sprintf("cannot settle %s: not this client's upload", txn))
		}
		leaves = append(leaves, evidence.LeafDigest(nro))
	}
	bt := b.newBatch(h.TxnID).evidence(evidence.RolePeer, ev)
	r, _, err := evidence.BuildAggregateReceipt(b.signer, h.TxnID, b.id.Name, txns, leaves, b.clk.Now())
	if err != nil {
		if err := bt.commit(); err != nil {
			return nil, err
		}
		return b.errorReply(h, "cannot build aggregate receipt: "+err.Error())
	}
	enc := r.Encode()

	senderKey, err := b.peerKey(h.SenderID)
	if err != nil {
		return nil, err
	}
	rh := b.newHeader(evidence.KindSettleResponse, h.TxnID, h.SenderID, h.TTPID, b.bumpSeqTo(h.TxnID, h.Seq))
	rh.SetDigests(enc)
	b.ctr.Inc(metrics.HashOps, 2)
	msg, own, err := b.buildMessage(rh, enc, senderKey)
	if err != nil {
		return nil, err
	}
	if err := bt.evidence(evidence.RoleOwn, own).state(session.StateCompleted).commit(); err != nil {
		return nil, err
	}
	b.ctr.Inc(metrics.Rounds, 1)
	b.auditAppend("settle", h.TxnID, fmt.Sprintf("settled %d txns under one receipt", len(txns)))
	return msg, nil
}
