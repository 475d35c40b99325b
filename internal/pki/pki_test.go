package pki

import (
	"errors"
	"testing"
	"time"

	"repro/internal/cryptoutil"
)

var (
	t0 = time.Date(2010, 6, 12, 0, 0, 0, 0, time.UTC) // paper submission date
	t1 = t0.Add(365 * 24 * time.Hour)
)

// eachScheme runs f once per registered scheme, as a subtest named
// after it, with a CA of that scheme.
func eachScheme(t *testing.T, f func(t *testing.T, s cryptoutil.Scheme, ca *Authority)) {
	t.Helper()
	for _, s := range []cryptoutil.Scheme{cryptoutil.SchemeRSA, cryptoutil.SchemeEd25519} {
		t.Run(s.String(), func(t *testing.T) {
			f(t, s, NewAuthority("test-ca", cryptoutil.InsecureTestKeyScheme(10, s)))
		})
	}
}

// pubKey is the public half of test key slot under scheme s.
func pubKey(slot int, s cryptoutil.Scheme) cryptoutil.PublicKey {
	return cryptoutil.InsecureTestKeyScheme(slot, s).Signer().Public()
}

func TestEnrollAndVerify(t *testing.T) {
	eachScheme(t, func(t *testing.T, s cryptoutil.Scheme, ca *Authority) {
		cert, err := ca.EnrollKey("alice", pubKey(11, s), t0, t1)
		if err != nil {
			t.Fatal(err)
		}
		if cert.Subject != "alice" || cert.Serial == 0 {
			t.Fatalf("bad cert: %+v", cert)
		}
		if err := ca.Verify(cert, t0.Add(time.Hour)); err != nil {
			t.Fatalf("fresh certificate rejected: %v", err)
		}
		pub, err := cert.Key()
		if err != nil {
			t.Fatal(err)
		}
		if !pub.Equal(pubKey(11, s)) {
			t.Fatal("certified key differs from enrolled key")
		}
	})
}

func TestEnrollValidation(t *testing.T) {
	eachScheme(t, func(t *testing.T, s cryptoutil.Scheme, ca *Authority) {
		key := pubKey(11, s)
		if _, err := ca.EnrollKey("", key, t0, t1); err == nil {
			t.Error("empty subject accepted")
		}
		if _, err := ca.EnrollKey("x", key, t1, t0); err == nil {
			t.Error("inverted validity window accepted")
		}
		if _, err := ca.EnrollKey("x", nil, t0, t1); err == nil {
			t.Error("nil key accepted")
		}
		if _, err := ca.EnrollKey("alice", key, t0, t1); err != nil {
			t.Fatal(err)
		}
		if _, err := ca.EnrollKey("alice", key, t0, t1); !errors.Is(err, ErrDuplicate) {
			t.Errorf("duplicate enrollment: err = %v, want ErrDuplicate", err)
		}
	})
}

func TestVerifyRejectsForgedCertificate(t *testing.T) {
	eachScheme(t, func(t *testing.T, s cryptoutil.Scheme, ca *Authority) {
		cert, err := ca.EnrollKey("alice", pubKey(11, s), t0, t1)
		if err != nil {
			t.Fatal(err)
		}
		// An attacker substitutes their own key but cannot re-sign.
		forged := cert.Clone()
		forged.PublicKeyDER = pubKey(12, s).Marshal()
		if err := ca.Verify(forged, t0.Add(time.Hour)); !errors.Is(err, ErrBadSignature) {
			t.Errorf("forged cert: err = %v, want ErrBadSignature", err)
		}
		// Subject substitution must also fail.
		forged2 := cert.Clone()
		forged2.Subject = "mallory"
		if err := ca.Verify(forged2, t0.Add(time.Hour)); !errors.Is(err, ErrBadSignature) {
			t.Errorf("renamed cert: err = %v, want ErrBadSignature", err)
		}
		// A relying party that pins a different CA key rejects it too.
		if err := VerifyCertificateWith(pubKey(13, s), cert, t0.Add(time.Hour), nil); !errors.Is(err, ErrBadSignature) {
			t.Errorf("foreign CA key: err = %v, want ErrBadSignature", err)
		}
	})
}

func TestVerifyWindow(t *testing.T) {
	eachScheme(t, func(t *testing.T, s cryptoutil.Scheme, ca *Authority) {
		cert, err := ca.EnrollKey("alice", pubKey(11, s), t0, t1)
		if err != nil {
			t.Fatal(err)
		}
		if err := ca.Verify(cert, t0.Add(-time.Second)); !errors.Is(err, ErrExpired) {
			t.Errorf("before window: err = %v, want ErrExpired", err)
		}
		if err := ca.Verify(cert, t1.Add(time.Second)); !errors.Is(err, ErrExpired) {
			t.Errorf("after window: err = %v, want ErrExpired", err)
		}
	})
}

func TestRevocation(t *testing.T) {
	eachScheme(t, func(t *testing.T, s cryptoutil.Scheme, ca *Authority) {
		cert, err := ca.EnrollKey("alice", pubKey(11, s), t0, t1)
		if err != nil {
			t.Fatal(err)
		}
		revokeAt := t0.Add(10 * 24 * time.Hour)
		ca.Revoke(cert.Serial, revokeAt)
		if err := ca.Verify(cert, revokeAt.Add(-time.Hour)); err != nil {
			t.Errorf("before revocation: %v", err)
		}
		if err := ca.Verify(cert, revokeAt.Add(time.Hour)); !errors.Is(err, ErrRevoked) {
			t.Errorf("after revocation: err = %v, want ErrRevoked", err)
		}
	})
}

func TestRenewRotatesKeyAndRevokesOld(t *testing.T) {
	eachScheme(t, func(t *testing.T, s cryptoutil.Scheme, ca *Authority) {
		old, err := ca.EnrollKey("alice", pubKey(11, s), t0, t1)
		if err != nil {
			t.Fatal(err)
		}
		rotateAt := t0.Add(24 * time.Hour)
		renewed, err := ca.RenewKey("alice", pubKey(12, s), rotateAt, t1)
		if err != nil {
			t.Fatal(err)
		}
		if renewed.Serial == old.Serial {
			t.Error("renewal reused the serial")
		}
		if err := ca.Verify(old, rotateAt.Add(time.Hour)); !errors.Is(err, ErrRevoked) {
			t.Errorf("old cert after renew: err = %v, want ErrRevoked", err)
		}
		if err := ca.Verify(renewed, rotateAt.Add(time.Hour)); err != nil {
			t.Errorf("renewed cert rejected: %v", err)
		}
		if _, err := ca.RenewKey("nobody", pubKey(12, s), t0, t1); !errors.Is(err, ErrUnknownIdentity) {
			t.Errorf("renew unknown: err = %v, want ErrUnknownIdentity", err)
		}
	})
}

func TestLookupAndSubjects(t *testing.T) {
	eachScheme(t, func(t *testing.T, s cryptoutil.Scheme, ca *Authority) {
		for i, name := range []string{"carol", "alice", "bob"} {
			if _, err := ca.EnrollKey(name, pubKey(11+i, s), t0, t1); err != nil {
				t.Fatal(err)
			}
		}
		got := ca.Subjects()
		want := []string{"alice", "bob", "carol"}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("Subjects = %v, want %v", got, want)
			}
		}
		cert, err := ca.Lookup("bob")
		if err != nil {
			t.Fatal(err)
		}
		if cert.Subject != "bob" {
			t.Fatalf("Lookup returned %q", cert.Subject)
		}
		if _, err := ca.Lookup("mallory"); !errors.Is(err, ErrUnknownIdentity) {
			t.Errorf("lookup unknown: err = %v, want ErrUnknownIdentity", err)
		}
	})
}

func TestLookupReturnsCopy(t *testing.T) {
	eachScheme(t, func(t *testing.T, s cryptoutil.Scheme, ca *Authority) {
		if _, err := ca.EnrollKey("alice", pubKey(11, s), t0, t1); err != nil {
			t.Fatal(err)
		}
		c1, _ := ca.Lookup("alice")
		c1.Signature[0] ^= 0xff
		c2, _ := ca.Lookup("alice")
		if err := ca.Verify(c2, t0.Add(time.Hour)); err != nil {
			t.Fatalf("mutating a looked-up cert corrupted the registry: %v", err)
		}
	})
}

func TestVerifyCertificateNil(t *testing.T) {
	eachScheme(t, func(t *testing.T, s cryptoutil.Scheme, ca *Authority) {
		if err := ca.Verify(nil, t0); err == nil {
			t.Fatal("nil certificate accepted")
		}
	})
}

func TestNewIdentity(t *testing.T) {
	eachScheme(t, func(t *testing.T, s cryptoutil.Scheme, ca *Authority) {
		id, err := NewIdentity(ca, "alice", cryptoutil.InsecureTestKeyScheme(11, s), t0, t1)
		if err != nil {
			t.Fatal(err)
		}
		if id.Name != "alice" || id.Cert == nil {
			t.Fatalf("bad identity: %+v", id)
		}
		if err := ca.Verify(id.Cert, t0.Add(time.Minute)); err != nil {
			t.Fatal(err)
		}
		if _, err := NewIdentity(ca, "nokey", cryptoutil.KeyPair{}, t0, t1); err == nil {
			t.Error("identity without a private key accepted")
		}
	})
}
