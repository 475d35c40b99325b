package cryptoutil

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
)

// Hybrid public-key encryption.
//
// The paper requires evidence to be "encrypted with the recipient's
// public key" (§4.1). Evidence blobs exceed what a public-key
// primitive can encrypt directly, so we use the standard hybrid
// construction: a fresh AES-256 session key encrypts the payload with
// CTR mode, an HMAC-SHA256 tag (encrypt-then-MAC, key derived from the
// session key) authenticates the ciphertext, and the recipient
// scheme's KEM wraps the session key — RSA-OAEP for SchemeRSA, an
// ephemeral X25519 agreement for SchemeEd25519 (the ephemeral public
// key travels in the wrapped-key slot).
//
// Ciphertext layout (all lengths big-endian uint32), identical across
// schemes:
//
//	| keyLen | wrappedKey | iv (16) | tagLen | tag | payload |

const sessionKeyLen = 32

// sealWithSession performs the symmetric half of hybrid sealing:
// AES-256-CTR under session, HMAC-SHA256 over iv+ciphertext, framed
// after the scheme-specific wrapped key.
func sealWithSession(session, wrapped, plaintext []byte) ([]byte, error) {
	block, err := aes.NewCipher(session)
	if err != nil {
		return nil, fmt.Errorf("cryptoutil: building AES cipher: %w", err)
	}
	iv := make([]byte, aes.BlockSize)
	if _, err := io.ReadFull(rand.Reader, iv); err != nil {
		return nil, fmt.Errorf("cryptoutil: generating IV: %w", err)
	}
	ct := make([]byte, len(plaintext))
	cipher.NewCTR(block, iv).XORKeyStream(ct, plaintext)

	mac := HMACSHA256(macKey(session), append(append([]byte(nil), iv...), ct...))

	out := make([]byte, 0, 4+len(wrapped)+len(iv)+4+len(mac)+len(ct))
	out = binary.BigEndian.AppendUint32(out, uint32(len(wrapped)))
	out = append(out, wrapped...)
	out = append(out, iv...)
	out = binary.BigEndian.AppendUint32(out, uint32(len(mac)))
	out = append(out, mac...)
	out = append(out, ct...)
	return out, nil
}

// splitSealed peels the scheme-specific wrapped key off a sealed blob,
// returning it and the remaining symmetric frame.
func splitSealed(ciphertext []byte) (wrapped, rest []byte, err error) {
	if len(ciphertext) < 4 {
		return nil, nil, fmt.Errorf("cryptoutil: ciphertext too short (%d bytes)", len(ciphertext))
	}
	keyLen := binary.BigEndian.Uint32(ciphertext)
	rest = ciphertext[4:]
	if uint32(len(rest)) < keyLen {
		return nil, nil, fmt.Errorf("cryptoutil: truncated wrapped key")
	}
	return rest[:keyLen], rest[keyLen:], nil
}

// openWithSession reverses sealWithSession given the recovered session
// key and the frame remainder returned by splitSealed.
func openWithSession(session, rest []byte) ([]byte, error) {
	if len(rest) < aes.BlockSize+4 {
		return nil, fmt.Errorf("cryptoutil: truncated IV or tag length")
	}
	iv, rest := rest[:aes.BlockSize], rest[aes.BlockSize:]
	tagLen := binary.BigEndian.Uint32(rest)
	rest = rest[4:]
	if uint32(len(rest)) < tagLen {
		return nil, fmt.Errorf("cryptoutil: truncated tag")
	}
	tag, ct := rest[:tagLen], rest[tagLen:]

	if !VerifyHMACSHA256(macKey(session), append(append([]byte(nil), iv...), ct...), tag) {
		return nil, fmt.Errorf("cryptoutil: ciphertext authentication failed")
	}
	block, err := aes.NewCipher(session)
	if err != nil {
		return nil, fmt.Errorf("cryptoutil: building AES cipher: %w", err)
	}
	pt := make([]byte, len(ct))
	cipher.NewCTR(block, iv).XORKeyStream(pt, ct)
	return pt, nil
}

// macKey derives the authentication key from the session key so the
// same secret is never reused across primitives.
func macKey(session []byte) []byte {
	k := sha256.Sum256(append([]byte("tpnr-mac:"), session...))
	return k[:]
}
