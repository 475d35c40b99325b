package evidence

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/merkle"
	"repro/internal/wire"
)

// Aggregated session receipts.
//
// The paper issues one NRR per upload, so a session of K uploads costs
// the provider K signatures and the client K verifications. An
// aggregated receipt settles the whole session with ONE signature: the
// provider builds a Merkle tree over the K evidence digests and signs
// the root. Any single upload's receipt is then (receipt, inclusion
// proof, evidence) — verifiable leaf-by-leaf by the arbitrator without
// the other K-1 items, and the provider cannot later repudiate any
// leaf under the signed root.

// Aggregate receipt errors.
var (
	ErrBadReceiptSig = errors.New("evidence: aggregate receipt signature invalid")
	ErrBadLeafProof  = errors.New("evidence: aggregate receipt leaf proof invalid")
)

// LeafDigest is the Merkle leaf for one evidence item: the SHA-256 of
// its canonical plain encoding. Both sides hold byte-identical encoded
// evidence (the sender its own copy, the recipient the opened one), so
// both derive the same leaf independently.
func LeafDigest(ev *Evidence) cryptoutil.Digest {
	return cryptoutil.Sum(cryptoutil.SHA256, ev.Encode())
}

// AggregateReceipt is one signature settling a session of K uploads.
type AggregateReceipt struct {
	// SessionID names the settled session (the client proposes it).
	SessionID string
	// SignerID is the issuing party (the provider).
	SignerID string
	// TxnIDs lists the settled transactions in leaf order: leaf i of
	// the tree is the evidence of TxnIDs[i].
	TxnIDs []string
	// Root is the Merkle root over the K evidence leaf digests.
	Root cryptoutil.Digest
	// Timestamp is the settlement time.
	Timestamp time.Time
	// Nonce prevents replaying a settlement into another session.
	Nonce []byte
	// Sig signs CanonicalBytes under the issuer's key.
	Sig []byte
}

// CanonicalBytes is the byte string Sig covers.
func (r *AggregateReceipt) CanonicalBytes() []byte {
	e := wire.NewEncoder(128 + 24*len(r.TxnIDs))
	e.String("tpnr-agg-receipt-v1")
	e.String(r.SessionID)
	e.String(r.SignerID)
	e.U32(uint32(len(r.TxnIDs)))
	for _, t := range r.TxnIDs {
		e.String(t)
	}
	e.U8(uint8(r.Root.Alg))
	e.Bytes32(r.Root.Sum)
	e.Time(r.Timestamp)
	e.Bytes32(r.Nonce)
	return e.Bytes()
}

// BuildAggregateReceipt signs one receipt over the session's evidence
// leaves (LeafDigest of each settled item, in txn order) and returns
// it with the tree, from which the caller extracts per-leaf inclusion
// proofs (Tree.Prove).
func BuildAggregateReceipt(signer cryptoutil.Signer, sessionID, signerID string, txnIDs []string, leaves []cryptoutil.Digest, now time.Time) (*AggregateReceipt, *merkle.Tree, error) {
	if signer == nil {
		return nil, nil, fmt.Errorf("evidence: nil receipt signer")
	}
	if len(txnIDs) != len(leaves) || len(leaves) == 0 {
		return nil, nil, fmt.Errorf("evidence: %d txn ids for %d leaves", len(txnIDs), len(leaves))
	}
	tree, err := merkle.FromLeaves(leaves)
	if err != nil {
		return nil, nil, fmt.Errorf("evidence: building receipt tree: %w", err)
	}
	r := &AggregateReceipt{
		SessionID: sessionID,
		SignerID:  signerID,
		TxnIDs:    append([]string(nil), txnIDs...),
		Root:      tree.Root(),
		Timestamp: now,
		Nonce:     cryptoutil.MustNonce(),
	}
	sig, err := signer.Sign(r.CanonicalBytes())
	if err != nil {
		return nil, nil, fmt.Errorf("evidence: signing aggregate receipt: %w", err)
	}
	r.Sig = sig
	return r, tree, nil
}

// VerifySig checks the receipt signature under the issuer's key.
func (r *AggregateReceipt) VerifySig(signerPub cryptoutil.PublicKey) error {
	if signerPub == nil {
		return fmt.Errorf("%w: nil signer key", ErrBadReceiptSig)
	}
	if err := signerPub.Verify(r.CanonicalBytes(), r.Sig); err != nil {
		return fmt.Errorf("%w: %v", ErrBadReceiptSig, err)
	}
	return nil
}

// VerifyLeaf checks that ev is covered by this receipt: its leaf
// digest must prove into the signed root at the proof's index, and
// that index must name the evidence's transaction. Callers verify the
// receipt signature (VerifySig) and the evidence signatures
// (VerifyWith) separately — this method binds the two together.
func (r *AggregateReceipt) VerifyLeaf(ev *Evidence, proof *merkle.Proof) error {
	if ev == nil || proof == nil {
		return fmt.Errorf("%w: missing evidence or proof", ErrBadLeafProof)
	}
	if proof.Index < 0 || proof.Index >= len(r.TxnIDs) {
		return fmt.Errorf("%w: proof index %d outside %d settled txns", ErrBadLeafProof, proof.Index, len(r.TxnIDs))
	}
	if got, want := ev.Header.TxnID, r.TxnIDs[proof.Index]; got != want {
		return fmt.Errorf("%w: leaf %d settles txn %q, evidence is for %q", ErrBadLeafProof, proof.Index, want, got)
	}
	if proof.LeafCount != len(r.TxnIDs) {
		return fmt.Errorf("%w: proof built for %d leaves, receipt settles %d", ErrBadLeafProof, proof.LeafCount, len(r.TxnIDs))
	}
	if err := proof.VerifyLeaf(r.Root, LeafDigest(ev)); err != nil {
		return fmt.Errorf("%w: %v", ErrBadLeafProof, err)
	}
	return nil
}

// Encode serializes the receipt (canonical bytes plus signature).
func (r *AggregateReceipt) Encode() []byte {
	canon := r.CanonicalBytes()
	e := wire.NewEncoder(len(canon) + len(r.Sig) + 16)
	e.String("tpnr-agg-receipt-signed-v1")
	e.Bytes32(canon)
	e.Bytes32(r.Sig)
	return e.Bytes()
}

// DecodeAggregateReceipt reverses Encode without verifying.
func DecodeAggregateReceipt(b []byte) (*AggregateReceipt, error) {
	d := wire.NewDecoder(b)
	if err := d.Magic("tpnr-agg-receipt-signed-v1"); err != nil {
		return nil, fmt.Errorf("%w: receipt: %w", ErrMalformed, err)
	}
	canon := d.Bytes32()
	sig := d.Bytes32()
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	cd := wire.NewDecoder(canon)
	if err := cd.Magic("tpnr-agg-receipt-v1"); err != nil {
		return nil, fmt.Errorf("%w: receipt body: %w", ErrMalformed, err)
	}
	r := &AggregateReceipt{Sig: sig}
	r.SessionID = cd.String()
	r.SignerID = cd.String()
	n := cd.U32()
	if n > 1<<20 {
		return nil, fmt.Errorf("%w: absurd txn count %d", ErrMalformed, n)
	}
	r.TxnIDs = make([]string, 0, n)
	for i := uint32(0); i < n; i++ {
		r.TxnIDs = append(r.TxnIDs, cd.String())
	}
	r.Root = cryptoutil.Digest{Alg: cryptoutil.HashAlg(cd.U8()), Sum: cd.Bytes32()}
	r.Timestamp = cd.Time()
	r.Nonce = cd.Bytes32()
	if err := cd.Finish(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	return r, nil
}

// EncodeProof serializes a Merkle inclusion proof for the wire (the
// merkle package itself stays wire-agnostic).
func EncodeProof(p *merkle.Proof) []byte {
	e := wire.NewEncoder(16 + 40*len(p.Steps))
	e.String("tpnr-merkle-proof-v1")
	e.U32(uint32(p.Index))
	e.U32(uint32(p.LeafCount))
	e.U32(uint32(len(p.Steps)))
	for _, s := range p.Steps {
		e.U8(uint8(s.Sibling.Alg))
		e.Bytes32(s.Sibling.Sum)
		e.Bool(s.Left)
	}
	return e.Bytes()
}

// DecodeProof reverses EncodeProof.
func DecodeProof(b []byte) (*merkle.Proof, error) {
	d := wire.NewDecoder(b)
	if err := d.Magic("tpnr-merkle-proof-v1"); err != nil {
		return nil, fmt.Errorf("%w: proof: %w", ErrMalformed, err)
	}
	p := &merkle.Proof{}
	p.Index = int(d.U32())
	p.LeafCount = int(d.U32())
	n := d.U32()
	if n > 64 {
		return nil, fmt.Errorf("%w: absurd proof depth %d", ErrMalformed, n)
	}
	p.Steps = make([]merkle.ProofStep, 0, n)
	for i := uint32(0); i < n; i++ {
		st := merkle.ProofStep{}
		st.Sibling = cryptoutil.Digest{Alg: cryptoutil.HashAlg(d.U8()), Sum: d.Bytes32()}
		st.Left = d.Bool()
		p.Steps = append(p.Steps, st)
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	return p, nil
}
