package cryptoutil

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestEncryptDecryptRoundTrip(t *testing.T) {
	eachScheme(t, func(t *testing.T, s Scheme) {
		key := InsecureTestKeyScheme(0, s).Signer()
		for _, size := range []int{0, 1, 15, 16, 17, 1024, 1 << 16} {
			pt := bytes.Repeat([]byte{0xA5}, size)
			ct, err := key.Public().Seal(pt)
			if err != nil {
				t.Fatalf("size %d: %v", size, err)
			}
			got, err := key.Unseal(ct)
			if err != nil {
				t.Fatalf("size %d: %v", size, err)
			}
			if !bytes.Equal(got, pt) {
				t.Fatalf("size %d: round trip mismatch", size)
			}
		}
	})
}

func TestDecryptWrongRecipientFails(t *testing.T) {
	eachScheme(t, func(t *testing.T, s Scheme) {
		alice, eve := InsecureTestKeyScheme(0, s).Signer(), InsecureTestKeyScheme(1, s).Signer()
		ct, err := alice.Public().Seal([]byte("for alice only"))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eve.Unseal(ct); err == nil {
			t.Fatal("eve decrypted a message addressed to alice")
		}
	})
}

func TestDecryptDetectsTampering(t *testing.T) {
	eachScheme(t, func(t *testing.T, s Scheme) {
		key := InsecureTestKeyScheme(0, s).Signer()
		ct, err := key.Public().Seal([]byte("evidence: Sign(H(data))"))
		if err != nil {
			t.Fatal(err)
		}
		// Flip one bit at several positions, including in the payload tail
		// where CTR malleability would otherwise go unnoticed.
		for _, i := range []int{4, len(ct) / 2, len(ct) - 1} {
			bad := append([]byte(nil), ct...)
			bad[i] ^= 1
			if _, err := key.Unseal(bad); err == nil {
				t.Fatalf("tampered ciphertext (byte %d) accepted", i)
			}
		}
	})
}

func TestDecryptRejectsTruncation(t *testing.T) {
	eachScheme(t, func(t *testing.T, s Scheme) {
		key := InsecureTestKeyScheme(0, s).Signer()
		ct, err := key.Public().Seal([]byte("payload"))
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{0, 3, 4, 20, len(ct) - 1} {
			if _, err := key.Unseal(ct[:n]); err == nil {
				t.Fatalf("truncated ciphertext of %d bytes accepted", n)
			}
		}
	})
}

func TestEncryptionIsRandomized(t *testing.T) {
	eachScheme(t, func(t *testing.T, s Scheme) {
		pub := InsecureTestKeyScheme(0, s).Signer().Public()
		a, err := pub.Seal([]byte("same plaintext"))
		if err != nil {
			t.Fatal(err)
		}
		b, err := pub.Seal([]byte("same plaintext"))
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(a, b) {
			t.Fatal("two encryptions of the same plaintext are identical")
		}
	})
}

func TestEncryptDecryptQuick(t *testing.T) {
	eachScheme(t, func(t *testing.T, s Scheme) {
		key := InsecureTestKeyScheme(0, s).Signer()
		f := func(pt []byte) bool {
			ct, err := key.Public().Seal(pt)
			if err != nil {
				return false
			}
			got, err := key.Unseal(ct)
			return err == nil && bytes.Equal(got, pt)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
			t.Error(err)
		}
	})
}
