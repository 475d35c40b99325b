package cryptoutil

import (
	"crypto/rand"
	"fmt"
	"io"
)

// DefaultRSABits is the key size used for RSA party identities. 2048
// is the contemporary recommendation; tests use smaller keys via
// GenerateKeyPair to stay fast.
const DefaultRSABits = 2048

// KeyPair carries a party's private key together with its public half,
// as one scheme handle. Identities in this repository (Alice, Bob, the
// TTP, the CA) are each bound to one KeyPair through the pki package.
// The zero KeyPair holds no key.
type KeyPair struct {
	signer Signer
}

// SignerKeyPair wraps a Signer in a KeyPair.
func SignerKeyPair(s Signer) KeyPair { return KeyPair{signer: s} }

// Signer returns the pair's scheme handle — the same instance on every
// call — or nil for a zero KeyPair.
func (k KeyPair) Signer() Signer { return k.signer }

// Scheme reports the pair's scheme; zero for an empty pair.
func (k KeyPair) Scheme() Scheme {
	if k.signer == nil {
		return 0
	}
	return k.signer.Scheme()
}

// GenerateKeyPair is GenerateSignerBits wrapped in a KeyPair.
func GenerateKeyPair(s Scheme, bits int) (KeyPair, error) {
	sg, err := GenerateSignerBits(s, bits)
	if err != nil {
		return KeyPair{}, err
	}
	return SignerKeyPair(sg), nil
}

// Nonce returns n cryptographically random bytes. The paper's evidence
// format includes "a random number ... to prevent replay attacks"
// (§4.1); NonceSize is the size used there.
func Nonce(n int) ([]byte, error) {
	b := make([]byte, n)
	if _, err := io.ReadFull(rand.Reader, b); err != nil {
		return nil, fmt.Errorf("cryptoutil: reading %d random bytes: %w", n, err)
	}
	return b, nil
}

// NonceSize is the length of protocol nonces in bytes.
const NonceSize = 16

// MustNonce returns a NonceSize-byte random nonce, panicking if the
// system randomness source fails (which is unrecoverable anyway).
func MustNonce() []byte {
	b, err := Nonce(NonceSize)
	if err != nil {
		panic(err)
	}
	return b
}
