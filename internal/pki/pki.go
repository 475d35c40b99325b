// Package pki implements the public-key infrastructure the paper
// assumes as ambient: §5.1 notes that MITM "can be prevented by the
// authentication — when the party gets the other's public key, they
// should authenticate the validity". This package makes that
// authentication executable: a certificate authority binds party IDs to
// public keys, a directory serves certificates, and a revocation list
// invalidates compromised identities.
//
// Certificates here are deliberately minimal (ID, key, validity window,
// CA signature over a canonical encoding) rather than full X.509: the
// paper needs only "validated binding from identity to key".
package pki

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/cryptoutil"
)

// Common error conditions, distinguishable by errors.Is.
var (
	ErrUnknownIdentity = errors.New("pki: unknown identity")
	ErrBadSignature    = errors.New("pki: certificate signature invalid")
	ErrExpired         = errors.New("pki: certificate outside validity window")
	ErrRevoked         = errors.New("pki: certificate revoked")
	ErrDuplicate       = errors.New("pki: identity already enrolled")
)

// Certificate binds a party identity to a public key (of any
// registered scheme) for a validity window, under the CA's signature.
type Certificate struct {
	// Serial is the CA-assigned monotonically increasing serial number.
	Serial uint64
	// Subject is the party identity, e.g. "alice" or "provider-eve".
	Subject string
	// PublicKeyDER is the subject key's stable marshal form: PKIX DER
	// for RSA (the historical encoding), the magic envelope for
	// Ed25519. The field name predates schemes and is kept for
	// compatibility.
	PublicKeyDER []byte
	// NotBefore and NotAfter bound the validity window.
	NotBefore, NotAfter time.Time
	// Signature is the CA's signature over CanonicalBytes.
	Signature []byte
}

// Key decodes the certified public key as a scheme handle.
func (c *Certificate) Key() (cryptoutil.PublicKey, error) {
	return cryptoutil.ParseAnyPublicKey(c.PublicKeyDER)
}

// CanonicalBytes returns the deterministic byte string the CA signs.
func (c *Certificate) CanonicalBytes() []byte {
	var buf bytes.Buffer
	buf.WriteString("tpnr-cert-v1\x00")
	binary.Write(&buf, binary.BigEndian, c.Serial)
	binary.Write(&buf, binary.BigEndian, uint32(len(c.Subject)))
	buf.WriteString(c.Subject)
	binary.Write(&buf, binary.BigEndian, uint32(len(c.PublicKeyDER)))
	buf.Write(c.PublicKeyDER)
	binary.Write(&buf, binary.BigEndian, c.NotBefore.UnixNano())
	binary.Write(&buf, binary.BigEndian, c.NotAfter.UnixNano())
	return buf.Bytes()
}

// Clone returns a deep copy so callers cannot mutate registry state.
func (c *Certificate) Clone() *Certificate {
	d := *c
	d.PublicKeyDER = append([]byte(nil), c.PublicKeyDER...)
	d.Signature = append([]byte(nil), c.Signature...)
	return &d
}

// Authority is a certificate authority plus directory plus revocation
// list: the "third authorities certified (TAC)" role of paper §3 and
// the key-validation oracle of §5.1.
type Authority struct {
	name string
	key  cryptoutil.KeyPair

	mu         sync.RWMutex
	nextSerial uint64
	bySubject  map[string]*Certificate
	revoked    map[uint64]time.Time
}

// NewAuthority creates a CA with its own signing key.
func NewAuthority(name string, key cryptoutil.KeyPair) *Authority {
	return &Authority{
		name:       name,
		key:        key,
		nextSerial: 1,
		bySubject:  make(map[string]*Certificate),
		revoked:    make(map[uint64]time.Time),
	}
}

// Name returns the CA's name.
func (a *Authority) Name() string { return a.name }

// Key returns the CA verification key handle that relying parties pin.
func (a *Authority) Key() cryptoutil.PublicKey {
	if s := a.key.Signer(); s != nil {
		return s.Public()
	}
	return nil
}

// EnrollKey certifies subject's public key handle for the given
// validity window and records the certificate in the directory.
// Enrolling an already enrolled subject fails with ErrDuplicate; use
// RenewKey to rotate keys.
func (a *Authority) EnrollKey(subject string, pub cryptoutil.PublicKey, notBefore, notAfter time.Time) (*Certificate, error) {
	if subject == "" {
		return nil, fmt.Errorf("pki: empty subject")
	}
	if pub == nil {
		return nil, fmt.Errorf("pki: nil public key for %q", subject)
	}
	if !notAfter.After(notBefore) {
		return nil, fmt.Errorf("pki: validity window ends (%v) before it begins (%v)", notAfter, notBefore)
	}
	der := pub.Marshal()
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, ok := a.bySubject[subject]; ok {
		return nil, fmt.Errorf("%w: %q", ErrDuplicate, subject)
	}
	cert, err := a.issueLocked(subject, der, notBefore, notAfter)
	if err != nil {
		return nil, err
	}
	a.bySubject[subject] = cert
	return cert.Clone(), nil
}

// RenewKey issues a fresh certificate for an already enrolled subject,
// revoking the previous one. The new key may use a different scheme
// than the old (that is how a deployment migrates schemes in place).
func (a *Authority) RenewKey(subject string, pub cryptoutil.PublicKey, notBefore, notAfter time.Time) (*Certificate, error) {
	if pub == nil {
		return nil, fmt.Errorf("pki: nil public key for %q", subject)
	}
	der := pub.Marshal()
	a.mu.Lock()
	defer a.mu.Unlock()
	old, ok := a.bySubject[subject]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownIdentity, subject)
	}
	a.revoked[old.Serial] = notBefore
	cert, err := a.issueLocked(subject, der, notBefore, notAfter)
	if err != nil {
		return nil, err
	}
	a.bySubject[subject] = cert
	return cert.Clone(), nil
}

func (a *Authority) issueLocked(subject string, der []byte, notBefore, notAfter time.Time) (*Certificate, error) {
	cert := &Certificate{
		Serial:       a.nextSerial,
		Subject:      subject,
		PublicKeyDER: der,
		NotBefore:    notBefore,
		NotAfter:     notAfter,
	}
	signer := a.key.Signer()
	if signer == nil {
		return nil, fmt.Errorf("pki: authority %q has no signing key", a.name)
	}
	sig, err := signer.Sign(cert.CanonicalBytes())
	if err != nil {
		return nil, fmt.Errorf("pki: signing certificate for %q: %w", subject, err)
	}
	cert.Signature = sig
	a.nextSerial++
	return cert, nil
}

// Revoke marks a certificate invalid from t onward.
func (a *Authority) Revoke(serial uint64, t time.Time) {
	a.mu.Lock()
	a.revoked[serial] = t
	a.mu.Unlock()
}

// Lookup returns the current certificate for subject (directory query).
func (a *Authority) Lookup(subject string) (*Certificate, error) {
	a.mu.RLock()
	defer a.mu.RUnlock()
	cert, ok := a.bySubject[subject]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownIdentity, subject)
	}
	return cert.Clone(), nil
}

// Subjects lists enrolled identities in sorted order.
func (a *Authority) Subjects() []string {
	a.mu.RLock()
	defer a.mu.RUnlock()
	out := make([]string, 0, len(a.bySubject))
	for s := range a.bySubject {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// Verify checks a certificate against the CA key, its validity window
// at time now, and the revocation list. This is the §5.1 "authenticate
// the validity [of the public key]" step.
func (a *Authority) Verify(cert *Certificate, now time.Time) error {
	return VerifyCertificateWith(a.Key(), cert, now, a.isRevoked)
}

func (a *Authority) isRevoked(serial uint64, now time.Time) bool {
	a.mu.RLock()
	defer a.mu.RUnlock()
	at, ok := a.revoked[serial]
	return ok && !now.Before(at)
}

// VerifyCertificateWith validates cert under the given CA public key
// handle at time now. revoked may be nil when no revocation source is
// available. Relying parties that only hold the CA key (no live
// directory) use this directly.
func VerifyCertificateWith(caKey cryptoutil.PublicKey, cert *Certificate, now time.Time, revoked func(serial uint64, now time.Time) bool) error {
	if cert == nil {
		return fmt.Errorf("pki: nil certificate")
	}
	if caKey == nil {
		return fmt.Errorf("%w: nil CA key", ErrBadSignature)
	}
	if err := caKey.Verify(cert.CanonicalBytes(), cert.Signature); err != nil {
		return fmt.Errorf("%w: %v", ErrBadSignature, err)
	}
	if now.Before(cert.NotBefore) || now.After(cert.NotAfter) {
		return fmt.Errorf("%w: now=%v window=[%v,%v]", ErrExpired, now, cert.NotBefore, cert.NotAfter)
	}
	if revoked != nil && revoked(cert.Serial, now) {
		return fmt.Errorf("%w: serial %d", ErrRevoked, cert.Serial)
	}
	return nil
}

// Identity bundles everything one protocol party holds: its name, key
// pair, and CA-issued certificate.
type Identity struct {
	Name string
	Key  cryptoutil.KeyPair
	Cert *Certificate
}

// NewIdentity enrolls key's public half with the CA for the given
// validity window. The key may use any registered scheme.
func NewIdentity(a *Authority, name string, key cryptoutil.KeyPair, notBefore, notAfter time.Time) (*Identity, error) {
	signer := key.Signer()
	if signer == nil {
		return nil, fmt.Errorf("pki: identity %q has no private key", name)
	}
	cert, err := a.EnrollKey(name, signer.Public(), notBefore, notAfter)
	if err != nil {
		return nil, err
	}
	return &Identity{Name: name, Key: key, Cert: cert}, nil
}
