// Package audit implements the continuous storage-dwell audit
// sub-protocol (ROADMAP item 2; Proofs-of-Retrievability, arXiv
// 1711.06039, and VICOS-style verify-don't-trust object auditing,
// arXiv 1502.04496). TPNR proves integrity only at transfer
// boundaries — nothing checks the data *while it sits in storage*, so
// a lazy or failing provider is indistinguishable from an honest one
// until the next download. This package closes that gap:
//
//   - At upload-binding time the provider commits to a Merkle root
//     over the object's chunks inside the signed NRR header (the Note
//     field carries RootNote), so the commitment itself is
//     non-repudiable.
//   - Over the dwell time the client or TTP issues
//     KindAuditChallenge messages carrying crypto/rand leaf indices
//     and a fresh nonce (a predictable challenge would let a lazy
//     provider precompute responses and discard the data).
//   - The provider answers with KindAuditResponse: the challenged
//     chunk BYTES, their inclusion proofs, and a signature over
//     (txn, nonce, root, chunks, proofs). The response must carry the
//     data itself, not its leaf hashes: leaf hashes plus proofs are
//     computable from a stored Merkle tree (~32 bytes per 4 KiB
//     chunk), so a hash-only response would let a provider discard
//     the object, keep the tree, and pass every audit. The verifier
//     recomputes each leaf hash from the returned chunk, which only a
//     party holding the challenged chunks can produce.
//
// Both the challenge and the response ride inside the evidence
// header's Note field (base64 of their canonical encodings), so the
// journaled evidence alone — no payload, no download — lets the
// arbitrator re-verify a response or convict a provider that never
// produced one.
package audit

import (
	"crypto/rand"
	"encoding/base64"
	"errors"
	"fmt"
	"math/big"
	"strconv"
	"strings"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/evidence"
	"repro/internal/merkle"
	"repro/internal/wire"
)

// Proof bytes reuse the evidence package's pinned
// "tpnr-merkle-proof-v1" encoding, so one proof codec serves both the
// aggregated receipts and the audit responses.
func encodeProof(p *merkle.Proof) []byte          { return evidence.EncodeProof(p) }
func decodeProof(b []byte) (*merkle.Proof, error) { return evidence.DecodeProof(b) }

// ChunkSize is the audit chunking granularity: every object is split
// into ChunkSize-byte leaves for the upload-time commitment and every
// later challenge. The root note records the size used, so it can
// evolve without breaking old commitments.
const ChunkSize = 4096

// MaxChallengeIndices bounds one challenge; a verifier rejects
// anything larger before allocating.
const MaxChallengeIndices = 256

// Encoding magics. The response codec is v2: v1 carried only leaf
// hashes, which a provider can precompute and serve without holding
// the data, so v1 responses are rejected outright.
const (
	challengeMagic  = "tpnr-audit-chal-v1"
	responseMagic   = "tpnr-audit-resp-v2"
	signedRespMagic = "tpnr-audit-resp-signed-v2"
)

// Note prefixes: the header Note field distinguishes the three audit
// artifacts it can carry.
const (
	rootNotePrefix      = "tpnr-audit-root:"
	challengeNotePrefix = "tpnr-audit-chal:"
	responseNotePrefix  = "tpnr-audit-resp:"
)

// Errors.
var (
	ErrMalformed     = errors.New("audit: malformed encoding")
	ErrNoCommitment  = errors.New("audit: no root commitment in note")
	ErrNonceMismatch = errors.New("audit: response nonce does not match challenge")
	ErrRootMismatch  = errors.New("audit: response root does not match commitment")
	ErrBadProof      = errors.New("audit: inclusion proof does not verify")
	ErrBadSig        = errors.New("audit: response signature invalid")
	ErrIndexMismatch = errors.New("audit: response does not cover the challenged indices")
)

// ObjectTree chunks data at ChunkSize and builds its Merkle tree.
// Empty data is one empty leaf, matching merkle.Split.
func ObjectTree(data []byte) (*merkle.Tree, [][]byte, error) {
	chunks := merkle.Split(data, ChunkSize)
	t, err := merkle.New(chunks)
	if err != nil {
		return nil, nil, err
	}
	return t, chunks, nil
}

// LeafCount is the number of ChunkSize leaves an object of objectLen
// bytes commits to (empty objects commit to a single empty leaf).
func LeafCount(objectLen uint64) uint32 { return LeafCountFor(objectLen, ChunkSize) }

// LeafCountFor is LeafCount under an explicit chunk size (the size
// recorded in the NRR's root note), so a challenger stays correct if
// the commitment granularity ever changes.
func LeafCountFor(objectLen uint64, chunkSize int) uint32 {
	if objectLen == 0 {
		return 1
	}
	n := (objectLen + uint64(chunkSize) - 1) / uint64(chunkSize)
	return uint32(n)
}

// RootNote renders the upload-time commitment for the NRR header's
// Note field: the Merkle root plus the chunk size it was built with.
func RootNote(root cryptoutil.Digest) string {
	return rootNotePrefix + root.String() + ";chunk=" + strconv.Itoa(ChunkSize)
}

// ParseRootNote reverses RootNote. It returns ErrNoCommitment when
// the note carries no audit commitment at all (old NRRs), so callers
// can distinguish "provider never committed" from a malformed note.
func ParseRootNote(note string) (cryptoutil.Digest, int, error) {
	if !strings.HasPrefix(note, rootNotePrefix) {
		return cryptoutil.Digest{}, 0, ErrNoCommitment
	}
	rest := strings.TrimPrefix(note, rootNotePrefix)
	i := strings.Index(rest, ";chunk=")
	if i < 0 {
		return cryptoutil.Digest{}, 0, fmt.Errorf("%w: root note missing chunk size", ErrMalformed)
	}
	root, err := cryptoutil.ParseDigest(rest[:i])
	if err != nil {
		return cryptoutil.Digest{}, 0, fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	size, err := strconv.Atoi(rest[i+len(";chunk="):])
	if err != nil || size <= 0 {
		return cryptoutil.Digest{}, 0, fmt.Errorf("%w: bad chunk size", ErrMalformed)
	}
	return root, size, nil
}

// Challenge is one storage-dwell spot check: prove possession of
// these leaves, bound to this nonce.
type Challenge struct {
	// TxnID names the audited transaction.
	TxnID string
	// ChunkSize echoes the commitment's chunking so the prover
	// rebuilds the identical tree.
	ChunkSize uint32
	// LeafCount is the challenger's view of the committed leaf count
	// (derived from the NRR's ObjectLen).
	LeafCount uint32
	// Indices are the challenged leaves, drawn from crypto/rand — a
	// predictable challenge lets a lazy provider precompute responses.
	Indices []uint32
	// Nonce binds the response to this challenge (crypto/rand).
	Nonce []byte
}

// NewChallenge draws n distinct leaf indices in [0, leafCount) and a
// fresh nonce, both from crypto/rand. n is clamped to leafCount and
// MaxChallengeIndices.
func NewChallenge(txnID string, leafCount uint32, n int) (*Challenge, error) {
	if leafCount == 0 {
		return nil, fmt.Errorf("audit: challenge over zero leaves")
	}
	if n < 1 {
		n = 1
	}
	if n > MaxChallengeIndices {
		n = MaxChallengeIndices
	}
	if uint32(n) > leafCount {
		n = int(leafCount)
	}
	seen := make(map[uint32]bool, n)
	indices := make([]uint32, 0, n)
	max := big.NewInt(int64(leafCount))
	for len(indices) < n {
		v, err := rand.Int(rand.Reader, max)
		if err != nil {
			return nil, fmt.Errorf("audit: drawing challenge index: %w", err)
		}
		idx := uint32(v.Int64())
		if seen[idx] {
			continue
		}
		seen[idx] = true
		indices = append(indices, idx)
	}
	nonce, err := cryptoutil.Nonce(cryptoutil.NonceSize)
	if err != nil {
		return nil, fmt.Errorf("audit: drawing challenge nonce: %w", err)
	}
	return &Challenge{
		TxnID:     txnID,
		ChunkSize: ChunkSize,
		LeafCount: leafCount,
		Indices:   indices,
		Nonce:     nonce,
	}, nil
}

// Encode renders the canonical challenge bytes.
func (c *Challenge) Encode() []byte {
	e := wire.NewEncoder(64 + 4*len(c.Indices))
	e.String(challengeMagic)
	e.String(c.TxnID)
	e.U32(c.ChunkSize)
	e.U32(c.LeafCount)
	e.U32(uint32(len(c.Indices)))
	for _, idx := range c.Indices {
		e.U32(idx)
	}
	e.Bytes32(c.Nonce)
	return e.Bytes()
}

// DecodeChallenge reverses Encode.
func DecodeChallenge(b []byte) (*Challenge, error) {
	d := wire.NewDecoder(b)
	if err := d.Magic(challengeMagic); err != nil {
		return nil, fmt.Errorf("%w: challenge: %w", ErrMalformed, err)
	}
	c := &Challenge{}
	c.TxnID = d.String()
	c.ChunkSize = d.U32()
	c.LeafCount = d.U32()
	n := d.U32()
	if d.Err() == nil && n > MaxChallengeIndices {
		return nil, fmt.Errorf("%w: %d challenge indices (max %d)", ErrMalformed, n, MaxChallengeIndices)
	}
	c.Indices = make([]uint32, 0, n)
	for i := uint32(0); i < n && d.Err() == nil; i++ {
		c.Indices = append(c.Indices, d.U32())
	}
	c.Nonce = append([]byte(nil), d.Bytes32()...)
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return c, nil
}

// Note renders the challenge for an evidence header's Note field, so
// the journaled challenge evidence is self-contained.
func (c *Challenge) Note() string {
	return challengeNotePrefix + base64.StdEncoding.EncodeToString(c.Encode())
}

// ParseChallengeNote reverses Note. ErrNoCommitment reports a note
// that is not an audit challenge at all.
func ParseChallengeNote(note string) (*Challenge, error) {
	if !strings.HasPrefix(note, challengeNotePrefix) {
		return nil, ErrNoCommitment
	}
	raw, err := base64.StdEncoding.DecodeString(strings.TrimPrefix(note, challengeNotePrefix))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	return DecodeChallenge(raw)
}

// Entry is one challenged leaf in a response: the chunk's BYTES and
// the inclusion proof tying it to the committed root. Carrying the
// bytes (not their hash) is what makes the audit a proof of
// possession — the verifier recomputes merkle.LeafHash over the
// chunk, and a prover that kept only the tree cannot fabricate the
// preimage.
type Entry struct {
	Chunk []byte
	Proof *merkle.Proof
}

// Response is the prover's signed answer to a Challenge.
type Response struct {
	TxnID    string
	SignerID string
	// Nonce echoes the challenge nonce.
	Nonce []byte
	// Root is the Merkle root the proofs verify against; the verifier
	// checks it equals the NRR commitment.
	Root cryptoutil.Digest
	// Entries answer the challenge indices in order.
	Entries   []Entry
	Timestamp time.Time
	// Sig is the prover's signature over CanonicalBytes — the §4.1-style
	// non-repudiable binding of (txn, nonce, root, chunks, proofs).
	Sig []byte
}

// CanonicalBytes is what Sig covers.
func (r *Response) CanonicalBytes() []byte {
	e := wire.NewEncoder(128 + (ChunkSize+128)*len(r.Entries))
	e.String(responseMagic)
	e.String(r.TxnID)
	e.String(r.SignerID)
	e.Bytes32(r.Nonce)
	e.U8(uint8(r.Root.Alg))
	e.Bytes32(r.Root.Sum)
	e.U32(uint32(len(r.Entries)))
	for _, ent := range r.Entries {
		e.Bytes32(ent.Chunk)
		e.Bytes32(encodeProof(ent.Proof))
	}
	e.Time(r.Timestamp)
	return e.Bytes()
}

// Encode renders the signed response.
func (r *Response) Encode() []byte {
	canonical := r.CanonicalBytes()
	e := wire.NewEncoder(64 + len(canonical) + len(r.Sig))
	e.String(signedRespMagic)
	e.Bytes32(canonical)
	e.Bytes32(r.Sig)
	return e.Bytes()
}

// DecodeResponse reverses Encode.
func DecodeResponse(b []byte) (*Response, error) {
	d := wire.NewDecoder(b)
	if err := d.Magic(signedRespMagic); err != nil {
		return nil, fmt.Errorf("%w: response: %w", ErrMalformed, err)
	}
	canonical := d.Bytes32()
	sig := append([]byte(nil), d.Bytes32()...)
	if err := d.Finish(); err != nil {
		return nil, err
	}
	r, err := decodeCanonical(canonical)
	if err != nil {
		return nil, err
	}
	r.Sig = sig
	return r, nil
}

func decodeCanonical(b []byte) (*Response, error) {
	d := wire.NewDecoder(b)
	if err := d.Magic(responseMagic); err != nil {
		return nil, fmt.Errorf("%w: canonical response: %w", ErrMalformed, err)
	}
	r := &Response{}
	r.TxnID = d.String()
	r.SignerID = d.String()
	r.Nonce = append([]byte(nil), d.Bytes32()...)
	r.Root.Alg = cryptoutil.HashAlg(d.U8())
	r.Root.Sum = append([]byte(nil), d.Bytes32()...)
	n := d.U32()
	if d.Err() == nil && n > MaxChallengeIndices {
		return nil, fmt.Errorf("%w: %d response entries (max %d)", ErrMalformed, n, MaxChallengeIndices)
	}
	r.Entries = make([]Entry, 0, n)
	for i := uint32(0); i < n && d.Err() == nil; i++ {
		var ent Entry
		ent.Chunk = append([]byte(nil), d.Bytes32()...)
		p, err := decodeProof(d.Bytes32())
		if err != nil {
			return nil, err
		}
		ent.Proof = p
		r.Entries = append(r.Entries, ent)
	}
	r.Timestamp = d.Time()
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return r, nil
}

// Note renders the response for an evidence header's Note field.
func (r *Response) Note() string {
	return responseNotePrefix + base64.StdEncoding.EncodeToString(r.Encode())
}

// ParseResponseNote reverses Note.
func ParseResponseNote(note string) (*Response, error) {
	if !strings.HasPrefix(note, responseNotePrefix) {
		return nil, ErrNoCommitment
	}
	raw, err := base64.StdEncoding.DecodeString(strings.TrimPrefix(note, responseNotePrefix))
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	return DecodeResponse(raw)
}

// BuildResponse answers ch from the prover's current copy of the
// object: it rebuilds the tree, returns each challenged chunk with
// its inclusion proof, and signs (txn, nonce, root, chunks, proofs).
func BuildResponse(signer cryptoutil.Signer, signerID string, ch *Challenge, tree *merkle.Tree, chunks [][]byte, now time.Time) (*Response, error) {
	r := &Response{
		TxnID:     ch.TxnID,
		SignerID:  signerID,
		Nonce:     append([]byte(nil), ch.Nonce...),
		Root:      tree.Root(),
		Entries:   make([]Entry, 0, len(ch.Indices)),
		Timestamp: now,
	}
	for _, idx := range ch.Indices {
		if int(idx) >= len(chunks) {
			return nil, fmt.Errorf("audit: challenged leaf %d outside object (%d leaves)", idx, len(chunks))
		}
		p, err := tree.Prove(int(idx))
		if err != nil {
			return nil, err
		}
		r.Entries = append(r.Entries, Entry{Chunk: append([]byte(nil), chunks[idx]...), Proof: p})
	}
	sig, err := signer.Sign(r.CanonicalBytes())
	if err != nil {
		return nil, fmt.Errorf("audit: signing response: %w", err)
	}
	r.Sig = sig
	return r, nil
}

// Verify checks a response against the challenge it should answer and
// the committed root: the nonce must echo, the root must match the
// commitment, every challenged index must carry the chunk bytes whose
// recomputed leaf hash opens the committed root through its inclusion
// proof, and the signature must verify under the prover's key.
// Recomputing the leaf hash from the returned bytes is the possession
// proof — a prover holding only the tree's hashes cannot pass.
func (r *Response) Verify(pub cryptoutil.PublicKey, ch *Challenge, committed cryptoutil.Digest) error {
	if r.TxnID != ch.TxnID {
		return fmt.Errorf("%w: txn %q answers %q", ErrIndexMismatch, r.TxnID, ch.TxnID)
	}
	if len(r.Nonce) == 0 || string(r.Nonce) != string(ch.Nonce) {
		return ErrNonceMismatch
	}
	if !r.Root.Equal(committed) {
		return ErrRootMismatch
	}
	if len(r.Entries) != len(ch.Indices) {
		return fmt.Errorf("%w: %d entries for %d indices", ErrIndexMismatch, len(r.Entries), len(ch.Indices))
	}
	for i, ent := range r.Entries {
		if ent.Proof == nil || ent.Proof.Index != int(ch.Indices[i]) {
			return fmt.Errorf("%w: entry %d proves wrong leaf", ErrIndexMismatch, i)
		}
		if ch.ChunkSize > 0 && uint32(len(ent.Chunk)) > ch.ChunkSize {
			return fmt.Errorf("%w: entry %d carries %d bytes, chunk size is %d", ErrMalformed, i, len(ent.Chunk), ch.ChunkSize)
		}
		if err := ent.Proof.VerifyLeaf(committed, merkle.LeafHash(ent.Chunk)); err != nil {
			return fmt.Errorf("%w: leaf %d: %v", ErrBadProof, ch.Indices[i], err)
		}
	}
	if err := pub.Verify(r.CanonicalBytes(), r.Sig); err != nil {
		return fmt.Errorf("%w: %v", ErrBadSig, err)
	}
	return nil
}
