// Package evidence implements the paper's non-repudiation evidence
// (§4.1). Each transmission attaches evidence — for the originator
// (Alice) the Non-Repudiation of Origin (NRO), for the recipient (Bob)
// the Non-Repudiation of Receipt (NRR):
//
//	evidence = Encrypt_pk(recipient){ Sign(HashOfData), Sign(Plaintext) }
//
// The plaintext header carries, per the paper: a flag labeling the
// process, the IDs of sender, recipient and TTP, a random number and a
// strictly increasing sequence number (replay protection, §5.4), a
// time limit (timeliness, §5.5), and the hash of the data. The sender
// signs with its private key, so it "makes it impossible for the
// sender to deny his/her activity"; encrypting under the recipient's
// public key keeps the evidence confidential in transit.
package evidence

import (
	"bytes"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/wire"
)

// Kind is the header flag labeling which protocol step a message and
// its evidence belong to.
type Kind uint8

// Protocol message kinds. NRO/NRR are the §4.1 evidence roles; the
// remaining kinds serve the Abort (§4.2), Resolve (§4.3), settlement
// and storage-dwell audit sub-protocols.
const (
	KindNRO Kind = iota + 1
	KindNRR
	KindDownloadRequest
	KindDownloadResponse
	KindAbortRequest
	KindAbortAccept
	KindAbortReject
	KindResolveRequest
	KindResolveResponse
	KindError
	KindSettleRequest
	KindSettleResponse
	KindAuditChallenge
	KindAuditResponse
)

// String names the kind for transcripts.
func (k Kind) String() string {
	switch k {
	case KindNRO:
		return "NRO"
	case KindNRR:
		return "NRR"
	case KindDownloadRequest:
		return "download-request"
	case KindDownloadResponse:
		return "download-response"
	case KindAbortRequest:
		return "abort-request"
	case KindAbortAccept:
		return "abort-accept"
	case KindAbortReject:
		return "abort-reject"
	case KindResolveRequest:
		return "resolve-request"
	case KindResolveResponse:
		return "resolve-response"
	case KindError:
		return "error"
	case KindSettleRequest:
		return "settle-request"
	case KindSettleResponse:
		return "settle-response"
	case KindAuditChallenge:
		return "audit-challenge"
	case KindAuditResponse:
		return "audit-response"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Validation errors.
var (
	ErrBadHeaderSig   = errors.New("evidence: header signature invalid")
	ErrBadDataSig     = errors.New("evidence: data-hash signature invalid")
	ErrDigestMismatch = errors.New("evidence: data does not match header digests")
	ErrHeaderMismatch = errors.New("evidence: sealed header differs from plaintext header")
	ErrMalformed      = errors.New("evidence: malformed encoding")
)

// Header is the plaintext part of a protocol message; its canonical
// encoding is what Sign(Plaintext) covers.
type Header struct {
	Kind        Kind
	TxnID       string
	Seq         uint64
	Nonce       []byte
	SenderID    string
	RecipientID string
	TTPID       string
	// Timestamp is the sender's send time.
	Timestamp time.Time
	// TimeLimit bounds when the message may be accepted (§5.5); zero
	// means no limit.
	TimeLimit time.Time
	// ObjectKey and ObjectLen describe the stored blob the transaction
	// concerns.
	ObjectKey string
	ObjectLen uint64
	// Note carries sub-protocol annotations: the abort reason, the
	// resolve report of anomalies (§4.3), a TTP statement, or a
	// provider action ("continue", "restart").
	Note string
	// DataMD5 is the paper's digest; DataSHA256 rides alongside (the
	// modern choice, ablated in experiment E10).
	DataMD5    cryptoutil.Digest
	DataSHA256 cryptoutil.Digest
}

// Encode returns the canonical header bytes.
func (h *Header) Encode() []byte {
	e := wire.NewEncoder(128 + len(h.ObjectKey))
	e.String("tpnr-header-v1")
	e.U8(uint8(h.Kind))
	e.String(h.TxnID)
	e.U64(h.Seq)
	e.Bytes32(h.Nonce)
	e.String(h.SenderID)
	e.String(h.RecipientID)
	e.String(h.TTPID)
	e.Time(h.Timestamp)
	e.Time(h.TimeLimit)
	e.String(h.ObjectKey)
	e.U64(h.ObjectLen)
	e.String(h.Note)
	e.U8(uint8(h.DataMD5.Alg))
	e.Bytes32(h.DataMD5.Sum)
	e.U8(uint8(h.DataSHA256.Alg))
	e.Bytes32(h.DataSHA256.Sum)
	return e.Bytes()
}

// DecodeHeader reverses Encode.
func DecodeHeader(b []byte) (*Header, error) {
	d := wire.NewDecoder(b)
	if magic := d.String(); magic != "tpnr-header-v1" {
		return nil, fmt.Errorf("%w: bad magic %q", ErrMalformed, magic)
	}
	h := &Header{}
	h.Kind = Kind(d.U8())
	h.TxnID = d.String()
	h.Seq = d.U64()
	h.Nonce = d.Bytes32()
	h.SenderID = d.String()
	h.RecipientID = d.String()
	h.TTPID = d.String()
	h.Timestamp = d.Time()
	h.TimeLimit = d.Time()
	h.ObjectKey = d.String()
	h.ObjectLen = d.U64()
	h.Note = d.String()
	h.DataMD5 = cryptoutil.Digest{Alg: cryptoutil.HashAlg(d.U8()), Sum: d.Bytes32()}
	h.DataSHA256 = cryptoutil.Digest{Alg: cryptoutil.HashAlg(d.U8()), Sum: d.Bytes32()}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	return h, nil
}

// PeekTxnID extracts just the transaction ID from an encoded header
// without decoding (or copying) the rest — the server's routing path
// needs only this one field to pick a transaction lock. Returns false
// on anything unparseable.
func PeekTxnID(headerBytes []byte) (string, bool) {
	d := wire.NewDecoder(headerBytes)
	if string(d.View32()) != "tpnr-header-v1" {
		return "", false
	}
	d.U8() // kind
	txn := d.String()
	if d.Err() != nil {
		return "", false
	}
	return txn, true
}

// SetDigests computes and installs both data digests and the length.
// The two hash passes run concurrently for large payloads (SumParallel
// degrades to sequential below its threshold or on one core).
func (h *Header) SetDigests(data []byte) {
	ds := cryptoutil.SumParallel(data, cryptoutil.MD5, cryptoutil.SHA256)
	h.DataMD5 = ds[0]
	h.DataSHA256 = ds[1]
	h.ObjectLen = uint64(len(data))
}

// digestBytes is the canonical byte string Sign(HashOfData) covers:
// both digests, tagged.
func (h *Header) digestBytes() []byte {
	e := wire.NewEncoder(80)
	e.String("tpnr-datahash-v1")
	e.U8(uint8(h.DataMD5.Alg))
	e.Bytes32(h.DataMD5.Sum)
	e.U8(uint8(h.DataSHA256.Alg))
	e.Bytes32(h.DataSHA256.Sum)
	return e.Bytes()
}

// MatchesData reports whether data hashes to the header's digests.
func (h *Header) MatchesData(data []byte) bool {
	return cryptoutil.Sum(cryptoutil.MD5, data).Equal(h.DataMD5) &&
		cryptoutil.Sum(cryptoutil.SHA256, data).Equal(h.DataSHA256)
}

// Evidence is the opened (verified or verifiable) evidence content.
type Evidence struct {
	// Header is the plaintext the signatures cover.
	Header *Header
	// DataSig is Sign(HashOfData) under the sender's key.
	DataSig []byte
	// HeaderSig is Sign(Plaintext) under the sender's key.
	HeaderSig []byte
}

// emptyDigest is what Sign(HashOfData) covers when a message carries no
// object data: the tagged digest pair of the empty string. Never
// written after package initialisation.
var emptyDigest = func() []byte {
	var h Header
	h.SetDigests(nil)
	return h.digestBytes()
}()

// Builder constructs evidence under one sender's signer. It memoizes
// Sign(emptyDigest): resolve, abort, audit, error and request messages
// all carry that same digest pair, so under one key the signature over
// it is a constant every peer has already seen. Freshness never came
// from it — the nonce, sequence number and timestamp sit under the
// header signature, which is computed for every message. Safe for
// concurrent use.
type Builder struct {
	signer cryptoutil.Signer
	// emptySig is nil until a signing attempt succeeds; the slice it
	// points to is never modified.
	emptySig atomic.Pointer[[]byte]
}

// NewBuilder returns a builder signing as sender. The memo has no
// invalidation, so a builder must not outlive its signer's key.
func NewBuilder(sender cryptoutil.Signer) *Builder { return &Builder{signer: sender} }

// Build constructs evidence for header and seals it for the recipient's
// public key, whatever scheme either uses. Returns the evidence (the
// sender's own copy) and the sealed ciphertext to transmit.
//
// The header must already carry the data digests (SetDigests).
func (b *Builder) Build(recipient cryptoutil.PublicKey, h *Header) (*Evidence, []byte, error) {
	if b.signer == nil {
		return nil, nil, fmt.Errorf("evidence: nil sender signer")
	}
	dataSig, err := b.signDataHash(h.digestBytes())
	if err != nil {
		return nil, nil, fmt.Errorf("evidence: signing data hash: %w", err)
	}
	headerBytes := h.Encode()
	headerSig, err := b.signer.Sign(headerBytes)
	if err != nil {
		return nil, nil, fmt.Errorf("evidence: signing header: %w", err)
	}
	ev := &Evidence{Header: h, DataSig: dataSig, HeaderSig: headerSig}

	e := wire.NewEncoder(len(headerBytes) + len(dataSig) + len(headerSig) + 32)
	e.String("tpnr-evidence-v1")
	e.Bytes32(headerBytes)
	e.Bytes32(dataSig)
	e.Bytes32(headerSig)
	sealed, err := recipient.Seal(e.Bytes())
	if err != nil {
		return nil, nil, fmt.Errorf("evidence: sealing: %w", err)
	}
	return ev, sealed, nil
}

// signDataHash is the one place Sign(HashOfData) is computed. The memo
// is taken only when the bytes to be signed equal emptyDigest — not
// when ObjectLen, the payload or the message kind suggest they might —
// and each caller gets its own copy. Goroutines racing to fill it each
// sign once; both registered schemes are deterministic, so they store
// the same bytes.
func (b *Builder) signDataHash(digest []byte) ([]byte, error) {
	if !bytes.Equal(digest, emptyDigest) {
		return b.signer.Sign(digest)
	}
	sig := b.emptySig.Load()
	if sig == nil {
		fresh, err := b.signer.Sign(digest)
		if err != nil {
			return nil, err // not memoized: the next message tries again
		}
		sig = &fresh
		b.emptySig.CompareAndSwap(nil, sig)
	}
	return bytes.Clone(*sig), nil
}

// BuildFor is Build without a memo: a builder made for one message.
func BuildFor(sender cryptoutil.Signer, recipient cryptoutil.PublicKey, h *Header) (*Evidence, []byte, error) {
	return NewBuilder(sender).Build(recipient, h)
}

// OpenWith is OpenCachedWith without a cache.
func OpenWith(recipient cryptoutil.Signer, senderPub cryptoutil.PublicKey, sealed []byte, plainHeader *Header) (*Evidence, error) {
	return OpenCachedWith(recipient, senderPub, sealed, plainHeader, nil)
}

// open decrypts and decodes sealed evidence without verifying the
// signatures; OpenCachedWith layers the verification on top.
func open(recipient cryptoutil.Signer, sealed []byte, plainHeader *Header) (*Evidence, error) {
	if recipient == nil {
		return nil, fmt.Errorf("evidence: nil recipient signer")
	}
	plain, err := recipient.Unseal(sealed)
	if err != nil {
		return nil, fmt.Errorf("evidence: unsealing: %w", err)
	}
	d := wire.NewDecoder(plain)
	if magic := d.String(); magic != "tpnr-evidence-v1" {
		return nil, fmt.Errorf("%w: bad magic %q", ErrMalformed, magic)
	}
	headerBytes := d.Bytes32()
	dataSig := d.Bytes32()
	headerSig := d.Bytes32()
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	h, err := DecodeHeader(headerBytes)
	if err != nil {
		return nil, err
	}
	if plainHeader != nil && !bytes.Equal(plainHeader.Encode(), headerBytes) {
		return nil, ErrHeaderMismatch
	}
	return &Evidence{Header: h, DataSig: dataSig, HeaderSig: headerSig}, nil
}

// VerifyWith is VerifyCachedWith without a cache.
func (ev *Evidence) VerifyWith(senderPub cryptoutil.PublicKey) error {
	return ev.VerifyCachedWith(senderPub, nil)
}

// VerifyAgainstDataWith additionally checks that data matches the
// header's digests — the full check a downloader runs before accepting
// content.
func (ev *Evidence) VerifyAgainstDataWith(senderPub cryptoutil.PublicKey, data []byte) error {
	if err := ev.VerifyWith(senderPub); err != nil {
		return err
	}
	if !ev.Header.MatchesData(data) {
		return fmt.Errorf("%w: object %q", ErrDigestMismatch, ev.Header.ObjectKey)
	}
	return nil
}

// Encode serializes opened evidence (for storage and for submission to
// the arbitrator — at that point confidentiality no longer applies,
// only the signatures matter).
func (ev *Evidence) Encode() []byte {
	e := wire.NewEncoder(256)
	e.String("tpnr-evidence-plain-v1")
	e.Bytes32(ev.Header.Encode())
	e.Bytes32(ev.DataSig)
	e.Bytes32(ev.HeaderSig)
	return e.Bytes()
}

// Decode reverses Encode without verifying signatures (the arbitrator
// verifies explicitly).
func Decode(b []byte) (*Evidence, error) {
	d := wire.NewDecoder(b)
	if magic := d.String(); magic != "tpnr-evidence-plain-v1" {
		return nil, fmt.Errorf("%w: bad magic %q", ErrMalformed, magic)
	}
	headerBytes := d.Bytes32()
	dataSig := d.Bytes32()
	headerSig := d.Bytes32()
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrMalformed, err)
	}
	h, err := DecodeHeader(headerBytes)
	if err != nil {
		return nil, err
	}
	return &Evidence{Header: h, DataSig: dataSig, HeaderSig: headerSig}, nil
}
