package cryptoutil

// Scheme-agnostic signing.
//
// The paper's protocol is written against RSA (2010-era platform
// crypto), and RSA remains the default for fidelity — but nothing in
// the evidence construction depends on WHICH signature scheme binds a
// party to a message. This file makes the scheme pluggable: a Signer
// produces signatures and opens sealed evidence, a PublicKey verifies
// and seals, and both are opaque handles with a stable marshal form
// and fingerprint. Two schemes are registered:
//
//   - SchemeRSA: RSA PKCS#1 v1.5 over SHA-256 signatures, RSA-OAEP
//     hybrid sealing. Paper fidelity; the default everywhere.
//   - SchemeEd25519: Ed25519 signatures, X25519 hybrid sealing. An
//     Ed25519 key cannot encrypt, so an ed25519 identity carries a
//     companion X25519 key; both halves live inside one opaque handle
//     and one marshal form.
//
// Wire compatibility: the RSA marshal form is exactly the PKIX DER the
// repository has always used (same bytes, same fingerprints), so
// certificates, keystores and archived evidence from earlier versions
// parse and verify unchanged. Ed25519 handles marshal to a magic-
// prefixed fixed-size envelope that PKIX parsers cannot mistake for
// DER.

import (
	"bytes"
	"crypto"
	"crypto/ecdh"
	"crypto/ed25519"
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha256"
	"crypto/x509"
	"errors"
	"fmt"
	"io"
	"sync"
)

// Scheme identifies a registered signature (and sealing) scheme.
type Scheme uint8

const (
	// SchemeRSA is RSA PKCS#1 v1.5 / SHA-256 with RSA-OAEP sealing —
	// the paper's scheme and the default.
	SchemeRSA Scheme = iota + 1
	// SchemeEd25519 is Ed25519 with X25519 hybrid sealing — the fast
	// alternative for deployments that do not need paper fidelity.
	SchemeEd25519
)

// String names the scheme as used in flags, env vars and key files.
func (s Scheme) String() string {
	switch s {
	case SchemeRSA:
		return "rsa"
	case SchemeEd25519:
		return "ed25519"
	default:
		return fmt.Sprintf("scheme(%d)", uint8(s))
	}
}

// Valid reports whether s names a registered scheme.
func (s Scheme) Valid() bool { return s == SchemeRSA || s == SchemeEd25519 }

// ParseScheme parses the String form ("rsa", "ed25519").
func ParseScheme(name string) (Scheme, error) {
	switch name {
	case "rsa", "":
		return SchemeRSA, nil
	case "ed25519":
		return SchemeEd25519, nil
	default:
		return 0, fmt.Errorf("cryptoutil: unknown scheme %q (want rsa or ed25519)", name)
	}
}

// ErrSchemeMismatch reports a signature (or key) whose scheme does not
// match the verifying key — e.g. an Ed25519 signature presented to an
// RSA key. Check with errors.Is.
var ErrSchemeMismatch = errors.New("cryptoutil: signature scheme does not match key scheme")

// PublicKey is an opaque handle on one party's verification (and
// sealing) key. Handles are immutable and safe for concurrent use;
// Marshal and Fingerprint are computed once and cached.
type PublicKey interface {
	// Scheme identifies the key's scheme.
	Scheme() Scheme
	// Verify checks sig over msg (hashing is the scheme's concern).
	Verify(msg, sig []byte) error
	// Marshal returns the stable serialized form: PKIX DER for RSA,
	// the magic-prefixed envelope for Ed25519. The returned slice is
	// shared — callers must not mutate it.
	Marshal() []byte
	// Fingerprint is the SHA-256 digest of Marshal — the stable name
	// of the key in certificates, caches and revocation lists.
	Fingerprint() Digest
	// Seal encrypts plaintext so only the matching Signer can open it
	// (the paper's "encrypt the evidence with the recipient's public
	// key", §4.1).
	Seal(plaintext []byte) ([]byte, error)
	// Equal reports whether two handles name the same key.
	Equal(PublicKey) bool
}

// Signer is an opaque handle on one party's signing (and unsealing)
// key. Safe for concurrent use.
type Signer interface {
	// Scheme identifies the key's scheme.
	Scheme() Scheme
	// Public returns the verification half. The handle is stable: the
	// same Signer always returns the same PublicKey instance, so
	// fingerprint caching holds across calls.
	Public() PublicKey
	// Sign signs msg: the "Sign(...)" of the paper's evidence
	// construction Encrypt{Sign(HashOfData), Sign(Plaintext)} (§4.1),
	// committing the signer so it cannot later deny the message.
	Sign(msg []byte) ([]byte, error)
	// Unseal decrypts a blob produced by the matching PublicKey's Seal.
	Unseal(ciphertext []byte) ([]byte, error)
}

// GenerateSignerBits creates a fresh key for the scheme; bits applies
// to RSA only (0 = DefaultRSABits) and is ignored by Ed25519.
func GenerateSignerBits(s Scheme, bits int) (Signer, error) {
	switch s {
	case SchemeRSA:
		if bits == 0 {
			bits = DefaultRSABits
		}
		priv, err := rsa.GenerateKey(rand.Reader, bits)
		if err != nil {
			return nil, fmt.Errorf("cryptoutil: generating %d-bit RSA key: %w", bits, err)
		}
		return newRSASigner(priv), nil
	case SchemeEd25519:
		_, edPriv, err := ed25519.GenerateKey(rand.Reader)
		if err != nil {
			return nil, fmt.Errorf("cryptoutil: generating ed25519 key: %w", err)
		}
		kem, err := ecdh.X25519().GenerateKey(rand.Reader)
		if err != nil {
			return nil, fmt.Errorf("cryptoutil: generating x25519 key: %w", err)
		}
		return newEd25519Signer(edPriv, kem)
	default:
		return nil, fmt.Errorf("cryptoutil: cannot generate key for %s", s)
	}
}

// --- RSA ---------------------------------------------------------------------

type rsaPublic struct {
	k    *rsa.PublicKey
	once sync.Once
	der  []byte
	fp   Digest
}

func (p *rsaPublic) Scheme() Scheme { return SchemeRSA }

func (p *rsaPublic) materialize() {
	p.once.Do(func() {
		der, err := x509.MarshalPKIXPublicKey(p.k)
		if err != nil {
			// MarshalPKIXPublicKey fails only on unsupported key types,
			// which *rsa.PublicKey is not.
			panic(fmt.Sprintf("cryptoutil: marshaling RSA public key: %v", err))
		}
		p.der = der
		p.fp = Sum(SHA256, der)
	})
}

func (p *rsaPublic) Marshal() []byte { p.materialize(); return p.der }

func (p *rsaPublic) Fingerprint() Digest { p.materialize(); return p.fp }

func (p *rsaPublic) Verify(msg, sig []byte) error {
	if len(sig) != p.k.Size() {
		return fmt.Errorf("%w: %d-byte signature against a %d-byte RSA modulus", ErrSchemeMismatch, len(sig), p.k.Size())
	}
	sum := sha256.Sum256(msg)
	if err := rsa.VerifyPKCS1v15(p.k, crypto.SHA256, sum[:], sig); err != nil {
		return fmt.Errorf("cryptoutil: signature verification failed: %w", err)
	}
	return nil
}

func (p *rsaPublic) Seal(plaintext []byte) ([]byte, error) {
	session, err := newSessionKey()
	if err != nil {
		return nil, err
	}
	wrapped, err := rsa.EncryptOAEP(sha256.New(), rand.Reader, p.k, session, []byte("tpnr-evidence"))
	if err != nil {
		return nil, fmt.Errorf("cryptoutil: wrapping session key: %w", err)
	}
	return sealWithSession(session, wrapped, plaintext)
}

func (p *rsaPublic) Equal(o PublicKey) bool {
	op, ok := o.(*rsaPublic)
	return ok && p.k.Equal(op.k)
}

type rsaSigner struct {
	priv *rsa.PrivateKey
	pub  *rsaPublic
}

func newRSASigner(priv *rsa.PrivateKey) *rsaSigner {
	return &rsaSigner{priv: priv, pub: &rsaPublic{k: &priv.PublicKey}}
}

func (s *rsaSigner) Scheme() Scheme    { return SchemeRSA }
func (s *rsaSigner) Public() PublicKey { return s.pub }

func (s *rsaSigner) Sign(msg []byte) ([]byte, error) {
	sum := sha256.Sum256(msg)
	sig, err := rsa.SignPKCS1v15(rand.Reader, s.priv, crypto.SHA256, sum[:])
	if err != nil {
		return nil, fmt.Errorf("cryptoutil: signing %d-byte message: %w", len(msg), err)
	}
	return sig, nil
}

func (s *rsaSigner) Unseal(ciphertext []byte) ([]byte, error) {
	wrapped, rest, err := splitSealed(ciphertext)
	if err != nil {
		return nil, err
	}
	session, err := rsa.DecryptOAEP(sha256.New(), rand.Reader, s.priv, wrapped, []byte("tpnr-evidence"))
	if err != nil {
		return nil, fmt.Errorf("cryptoutil: unwrapping session key: %w", err)
	}
	return openWithSession(session, rest)
}

// --- Ed25519 (+ X25519 sealing) ----------------------------------------------

// Envelope magics. Fixed-length prefixes followed by fixed-length key
// material keep parsing trivial and unmistakable for PKIX DER (DER
// starts with an ASN.1 SEQUENCE tag 0x30; these start with 't').
var (
	ed25519PubMagic  = []byte("tpnr-pk-ed25519-v1\x00")
	ed25519PrivMagic = []byte("tpnr-sk-ed25519-v1\x00")
)

const x25519KeyLen = 32

type ed25519Public struct {
	ed   ed25519.PublicKey
	kem  *ecdh.PublicKey
	once sync.Once
	enc  []byte
	fp   Digest
}

func (p *ed25519Public) Scheme() Scheme { return SchemeEd25519 }

func (p *ed25519Public) materialize() {
	p.once.Do(func() {
		enc := make([]byte, 0, len(ed25519PubMagic)+ed25519.PublicKeySize+x25519KeyLen)
		enc = append(enc, ed25519PubMagic...)
		enc = append(enc, p.ed...)
		enc = append(enc, p.kem.Bytes()...)
		p.enc = enc
		p.fp = Sum(SHA256, enc)
	})
}

func (p *ed25519Public) Marshal() []byte { p.materialize(); return p.enc }

func (p *ed25519Public) Fingerprint() Digest { p.materialize(); return p.fp }

func (p *ed25519Public) Verify(msg, sig []byte) error {
	if len(sig) != ed25519.SignatureSize {
		return fmt.Errorf("%w: %d-byte signature against an ed25519 key (want %d)", ErrSchemeMismatch, len(sig), ed25519.SignatureSize)
	}
	if !ed25519.Verify(p.ed, msg, sig) {
		return fmt.Errorf("cryptoutil: signature verification failed: ed25519 signature invalid")
	}
	return nil
}

func (p *ed25519Public) Seal(plaintext []byte) ([]byte, error) {
	eph, err := ecdh.X25519().GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("cryptoutil: generating ephemeral x25519 key: %w", err)
	}
	shared, err := eph.ECDH(p.kem)
	if err != nil {
		return nil, fmt.Errorf("cryptoutil: x25519 key agreement: %w", err)
	}
	session := deriveKEMSession(eph.PublicKey().Bytes(), p.kem.Bytes(), shared)
	// The ephemeral public key rides in the "wrapped key" slot of the
	// shared hybrid framing.
	return sealWithSession(session, eph.PublicKey().Bytes(), plaintext)
}

func (p *ed25519Public) Equal(o PublicKey) bool {
	op, ok := o.(*ed25519Public)
	return ok && bytes.Equal(p.ed, op.ed) && p.kem.Equal(op.kem)
}

type ed25519Signer struct {
	priv ed25519.PrivateKey
	kem  *ecdh.PrivateKey
	pub  *ed25519Public
}

func newEd25519Signer(priv ed25519.PrivateKey, kem *ecdh.PrivateKey) (*ed25519Signer, error) {
	pub, ok := priv.Public().(ed25519.PublicKey)
	if !ok {
		return nil, fmt.Errorf("cryptoutil: ed25519 private key has no ed25519 public half")
	}
	return &ed25519Signer{priv: priv, kem: kem, pub: &ed25519Public{ed: pub, kem: kem.PublicKey()}}, nil
}

func (s *ed25519Signer) Scheme() Scheme    { return SchemeEd25519 }
func (s *ed25519Signer) Public() PublicKey { return s.pub }

func (s *ed25519Signer) Sign(msg []byte) ([]byte, error) {
	return ed25519.Sign(s.priv, msg), nil
}

func (s *ed25519Signer) Unseal(ciphertext []byte) ([]byte, error) {
	ephPub, rest, err := splitSealed(ciphertext)
	if err != nil {
		return nil, err
	}
	if len(ephPub) != x25519KeyLen {
		return nil, fmt.Errorf("%w: %d-byte wrapped key against an x25519 sealing key", ErrSchemeMismatch, len(ephPub))
	}
	eph, err := ecdh.X25519().NewPublicKey(ephPub)
	if err != nil {
		return nil, fmt.Errorf("cryptoutil: parsing ephemeral x25519 key: %w", err)
	}
	shared, err := s.kem.ECDH(eph)
	if err != nil {
		return nil, fmt.Errorf("cryptoutil: x25519 key agreement: %w", err)
	}
	session := deriveKEMSession(ephPub, s.kem.PublicKey().Bytes(), shared)
	return openWithSession(session, rest)
}

// deriveKEMSession derives the symmetric session key from an X25519
// agreement, binding both public values so a transcript substitution
// changes the key.
func deriveKEMSession(ephPub, recipientPub, shared []byte) []byte {
	h := sha256.New()
	h.Write([]byte("tpnr-x25519-kem-v1"))
	h.Write(ephPub)
	h.Write(recipientPub)
	h.Write(shared)
	return h.Sum(nil)
}

// --- Parsing and serialization -----------------------------------------------

// ParseAnyPublicKey parses a public key handle from its Marshal form:
// the Ed25519 envelope, or PKIX DER for RSA (the historical encoding,
// so every certificate and keystore written before schemes existed
// still parses).
func ParseAnyPublicKey(b []byte) (PublicKey, error) {
	if bytes.HasPrefix(b, ed25519PubMagic) {
		material := b[len(ed25519PubMagic):]
		if len(material) != ed25519.PublicKeySize+x25519KeyLen {
			return nil, fmt.Errorf("cryptoutil: ed25519 public key envelope has %d key bytes, want %d",
				len(material), ed25519.PublicKeySize+x25519KeyLen)
		}
		kem, err := ecdh.X25519().NewPublicKey(material[ed25519.PublicKeySize:])
		if err != nil {
			return nil, fmt.Errorf("cryptoutil: parsing x25519 half: %w", err)
		}
		ed := ed25519.PublicKey(append([]byte(nil), material[:ed25519.PublicKeySize]...))
		return &ed25519Public{ed: ed, kem: kem}, nil
	}
	k, err := x509.ParsePKIXPublicKey(b)
	if err != nil {
		return nil, fmt.Errorf("cryptoutil: parsing public key: %w", err)
	}
	pub, ok := k.(*rsa.PublicKey)
	if !ok {
		return nil, fmt.Errorf("cryptoutil: public key is %T, want *rsa.PublicKey", k)
	}
	return &rsaPublic{k: pub}, nil
}

// MarshalSigner serializes a signer's private material: PKCS#1 DER for
// RSA (the historical keystore encoding), the magic envelope (seed +
// x25519 scalar) for Ed25519.
func MarshalSigner(s Signer) ([]byte, error) {
	switch sk := s.(type) {
	case *rsaSigner:
		return x509.MarshalPKCS1PrivateKey(sk.priv), nil
	case *ed25519Signer:
		out := make([]byte, 0, len(ed25519PrivMagic)+ed25519.SeedSize+x25519KeyLen)
		out = append(out, ed25519PrivMagic...)
		out = append(out, sk.priv.Seed()...)
		out = append(out, sk.kem.Bytes()...)
		return out, nil
	default:
		return nil, fmt.Errorf("cryptoutil: cannot marshal signer of type %T", s)
	}
}

// ParseSigner reverses MarshalSigner.
func ParseSigner(b []byte) (Signer, error) {
	if bytes.HasPrefix(b, ed25519PrivMagic) {
		material := b[len(ed25519PrivMagic):]
		if len(material) != ed25519.SeedSize+x25519KeyLen {
			return nil, fmt.Errorf("cryptoutil: ed25519 private key envelope has %d key bytes, want %d",
				len(material), ed25519.SeedSize+x25519KeyLen)
		}
		priv := ed25519.NewKeyFromSeed(material[:ed25519.SeedSize])
		kem, err := ecdh.X25519().NewPrivateKey(material[ed25519.SeedSize:])
		if err != nil {
			return nil, fmt.Errorf("cryptoutil: parsing x25519 half: %w", err)
		}
		return newEd25519Signer(priv, kem)
	}
	priv, err := x509.ParsePKCS1PrivateKey(b)
	if err != nil {
		return nil, fmt.Errorf("cryptoutil: parsing private key: %w", err)
	}
	return newRSASigner(priv), nil
}

// newSessionKey returns a fresh random symmetric session key.
func newSessionKey() ([]byte, error) {
	session := make([]byte, sessionKeyLen)
	if _, err := io.ReadFull(rand.Reader, session); err != nil {
		return nil, fmt.Errorf("cryptoutil: generating session key: %w", err)
	}
	return session, nil
}
