package cryptoutil

import (
	"bytes"
	"encoding/hex"
	"errors"
	"testing"
)

// Golden fixtures: fixed key material so the marshal forms, fingerprints
// and (deterministic) signatures are pinned across releases. Both
// PKCS#1 v1.5 and Ed25519 are deterministic signature schemes, so the
// signature bytes themselves are stable.
const (
	// goldenRSAPKCS1 is a fixed 1024-bit RSA private key, PKCS#1 DER —
	// the historical keystore encoding, parsed by ParseSigner.
	goldenRSAPKCS1 = "3082025c02010002818100c4577980fc66863a018e7b8c2a216fe18cd7f50fd33da445321506520f42d8388f8683587821daad292b27bfacff8872c01497b35c176ddb33b29fa341ab71a6c57188e5cfb733a1391eb75e64b80520b8595d7b6fd8ee43502ea01d110c6297f42ffa8016f25b0d353cc747504b1acad49f3832d272446b5d430e4ab02cd72702030100010281800eb6dd88c0a1b05a85865794fc0d5074af58f9e92b3419ed03a156bd6c9e5e54f2d0aa6445708812651cf258278f68faec913e83371a1c660a9c4ee16dc8faf5da3eb992e94300e5d00e783dce3d09b320b589ee31446f43951e0aa37cfc22fba1957c7d7d190bda97a674e023080c03684c2a569f7cebfad792b2885d1dc37d024100ff905c16fa292810a58108c2c50334261a1122c4bdf6176da9871de4cd96f030acbc8ad66a5278949f78fb1e4db7514e126a85fd42147fdbf72aa6ec3692d02b024100c4ad3e8c704900222847e61aa5c96870438083b3028a054d0b3e9295afd0a9be5f57ceaefc79790bc0bcc275e54d07414543a5f205aa71192143f259c6b5daf502400c07b29e0e4693b13ce9370d5c12cb88a39f7ce08004ae93a5f04b52f2ee90fde993b281675ddc793a8c8a5da1d0e84de1860c2aa0cab03e1d836f7a1d138a23024100a65b8bceaaa374d36f92f15594e9b9c74bb186b481ef50f08c144f5501b3d4004d112ea7e0b2b6ea740ab5c9973d0267f938714337fba552864abcd1a73ce78902406615e2eba30b4f3ea6fb5dd0a3c81a134298b243399a57bcf9368bf4f4e7e4cdc5a90c5b18aedde979dda948f04b2f2a7e9c4a1a2ac322c15b820c951a59723c"
	// goldenEdSeed / goldenXPriv are the fixed Ed25519 seed and X25519
	// scalar packed into the private envelope.
	goldenEdSeed = "030a11181f262d343b424950575e656c737a81888f969da4abb2b9c0c7ced5dc"
	goldenXPriv  = "05121f2c394653606d7a8794a1aebbc8d5e2effc091623303d4a5764717e8b98"

	goldenMsg = "tpnr golden fixture message"

	// Pinned outputs. If any of these change, archived evidence and
	// certificates stop verifying — that is a wire-format break, not a
	// test to update.
	goldenRSAFP  = "27234c18bc52625f29620bf4a4e176242a0cc52571f54339fae30e6335f3e8b5"
	goldenRSASig = "5bceb984550f64b0bf6d2179f0845c78dbb9acc0e35980a5d16a6260302a508f1c40a2d9a968b1cd00b71158044da901562b77abdf62a25a9b30097b2c77192078fae592adf72d616a22efcd1f1292fbbdd9f61cc420bdc94921e336926cce52f799d4ac760e5e954647b89c9f9d9d9ecf71fd59f7e379a94f1c485e5c243cf1"
	goldenEdEnv  = "74706e722d706b2d656432353531392d763100755c4cb9256ca7cdc4acfdc6cfeeda849017e5b9f9514e99191bd67e0b0d4276c25e8b84378b21071d603dfce3f947b162b6e715240344db0a18d99259a6de23"
	goldenEdFP   = "e395b594789b1071f9d646d68e16fb11dd2fa0d58062dc1e8aeb7f998ee706dc"
	goldenEdSig  = "662d6c9569a6838d540bf591565b84f805e87a0c96324d4a6cb282152fd1674edf8ab5bcd01af392e9f71b4981f35839d517d17c21392fb136784378c9658d0d"
)

func unhex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatalf("bad hex fixture: %v", err)
	}
	return b
}

// goldenSigner parses the fixed signer for a scheme from its marshal
// form, exercising ParseSigner on both encodings.
func goldenSigner(t *testing.T, s Scheme) Signer {
	t.Helper()
	var b []byte
	switch s {
	case SchemeRSA:
		b = unhex(t, goldenRSAPKCS1)
	case SchemeEd25519:
		b = append(append([]byte(nil), ed25519PrivMagic...), unhex(t, goldenEdSeed)...)
		b = append(b, unhex(t, goldenXPriv)...)
	default:
		t.Fatalf("no golden signer for %v", s)
	}
	sg, err := ParseSigner(b)
	if err != nil {
		t.Fatalf("ParseSigner(%v): %v", s, err)
	}
	if sg.Scheme() != s {
		t.Fatalf("parsed scheme = %v, want %v", sg.Scheme(), s)
	}
	return sg
}

// TestGoldenCrossScheme is the cross-scheme golden round-trip: for each
// scheme, sign → marshal the public key → re-parse it → verify, with
// the marshal bytes, fingerprint and signature pinned to golden hex.
func TestGoldenCrossScheme(t *testing.T) {
	cases := []struct {
		scheme   Scheme
		fp, sig  string
		pinnedPK string // "" when the marshal form is not pinned here
	}{
		{SchemeRSA, goldenRSAFP, goldenRSASig, ""},
		{SchemeEd25519, goldenEdFP, goldenEdSig, goldenEdEnv},
	}
	for _, tc := range cases {
		t.Run(tc.scheme.String(), func(t *testing.T) {
			sg := goldenSigner(t, tc.scheme)
			pub := sg.Public()

			if got := hex.EncodeToString(pub.Fingerprint().Sum); got != tc.fp {
				t.Errorf("fingerprint = %s, want %s", got, tc.fp)
			}
			if tc.pinnedPK != "" {
				if got := hex.EncodeToString(pub.Marshal()); got != tc.pinnedPK {
					t.Errorf("marshal = %s, want %s", got, tc.pinnedPK)
				}
			}

			sig, err := sg.Sign([]byte(goldenMsg))
			if err != nil {
				t.Fatalf("Sign: %v", err)
			}
			if got := hex.EncodeToString(sig); got != tc.sig {
				t.Errorf("signature = %s, want %s", got, tc.sig)
			}

			// Marshal → ParseAnyPublicKey → verify: the parsed handle must
			// accept the signature and reproduce the fingerprint.
			reparsed, err := ParseAnyPublicKey(pub.Marshal())
			if err != nil {
				t.Fatalf("ParseAnyPublicKey: %v", err)
			}
			if reparsed.Scheme() != tc.scheme {
				t.Fatalf("reparsed scheme = %v, want %v", reparsed.Scheme(), tc.scheme)
			}
			if !reparsed.Fingerprint().Equal(pub.Fingerprint()) {
				t.Errorf("fingerprint changed across marshal round-trip")
			}
			if !reparsed.Equal(pub) || !pub.Equal(reparsed) {
				t.Errorf("Equal is false across marshal round-trip")
			}
			if err := reparsed.Verify([]byte(goldenMsg), sig); err != nil {
				t.Errorf("reparsed key rejects golden signature: %v", err)
			}
			if err := reparsed.Verify([]byte(goldenMsg+"!"), sig); err == nil {
				t.Errorf("reparsed key accepts signature over wrong message")
			}

			// Signer marshal round-trip: serialize the private material,
			// re-parse, and check the key identity survived.
			der, err := MarshalSigner(sg)
			if err != nil {
				t.Fatalf("MarshalSigner: %v", err)
			}
			sg2, err := ParseSigner(der)
			if err != nil {
				t.Fatalf("ParseSigner(round-trip): %v", err)
			}
			if !sg2.Public().Fingerprint().Equal(pub.Fingerprint()) {
				t.Errorf("fingerprint changed across signer round-trip")
			}
		})
	}
}

// TestSealUnsealBothSchemes checks the hybrid sealing round-trip per
// scheme, plus tamper rejection, through re-parsed handles (the path
// evidence actually takes: recipient key arrives marshaled).
func TestSealUnsealBothSchemes(t *testing.T) {
	for _, s := range []Scheme{SchemeRSA, SchemeEd25519} {
		t.Run(s.String(), func(t *testing.T) {
			sg := goldenSigner(t, s)
			pub, err := ParseAnyPublicKey(sg.Public().Marshal())
			if err != nil {
				t.Fatalf("ParseAnyPublicKey: %v", err)
			}
			plaintext := bytes.Repeat([]byte("evidence "), 100)
			sealed, err := pub.Seal(plaintext)
			if err != nil {
				t.Fatalf("Seal: %v", err)
			}
			got, err := sg.Unseal(sealed)
			if err != nil {
				t.Fatalf("Unseal: %v", err)
			}
			if !bytes.Equal(got, plaintext) {
				t.Fatalf("unsealed plaintext differs")
			}
			// Flip one payload byte: the MAC must catch it.
			bad := append([]byte(nil), sealed...)
			bad[len(bad)-1] ^= 0x01
			if _, err := sg.Unseal(bad); err == nil {
				t.Fatalf("Unseal accepted tampered ciphertext")
			}
			// Sealing for the other scheme's key must not unseal here.
			other := SchemeEd25519
			if s == SchemeEd25519 {
				other = SchemeRSA
			}
			crossSealed, err := goldenSigner(t, other).Public().Seal(plaintext)
			if err != nil {
				t.Fatalf("cross Seal: %v", err)
			}
			if _, err := sg.Unseal(crossSealed); err == nil {
				t.Fatalf("Unseal accepted ciphertext sealed for a %v key", other)
			}
		})
	}
}

// TestSchemeMismatchTyped checks that presenting a signature of the
// wrong scheme yields ErrSchemeMismatch (errors.Is-matchable), the
// typed error pkitool reports for mixed-scheme verification.
func TestSchemeMismatchTyped(t *testing.T) {
	rsaS := goldenSigner(t, SchemeRSA)
	edS := goldenSigner(t, SchemeEd25519)
	msg := []byte(goldenMsg)
	rsaSig, _ := rsaS.Sign(msg)
	edSig, _ := edS.Sign(msg)

	if err := rsaS.Public().Verify(msg, edSig); !errors.Is(err, ErrSchemeMismatch) {
		t.Errorf("RSA key + ed25519 sig: got %v, want ErrSchemeMismatch", err)
	}
	if err := edS.Public().Verify(msg, rsaSig); !errors.Is(err, ErrSchemeMismatch) {
		t.Errorf("ed25519 key + RSA sig: got %v, want ErrSchemeMismatch", err)
	}
	// Same-scheme wrong-key failures must NOT claim a scheme mismatch.
	other, err := GenerateSignerBits(SchemeRSA, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if err := other.Public().Verify(msg, rsaSig); err == nil || errors.Is(err, ErrSchemeMismatch) {
		t.Errorf("wrong RSA key: got %v, want plain verification failure", err)
	}
}

// TestParseSchemeAndString pins the flag/env vocabulary.
func TestParseSchemeAndString(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Scheme
		ok   bool
	}{
		{"rsa", SchemeRSA, true},
		{"", SchemeRSA, true}, // empty = default, paper fidelity
		{"ed25519", SchemeEd25519, true},
		{"dsa", 0, false},
	} {
		got, err := ParseScheme(tc.in)
		if tc.ok != (err == nil) || got != tc.want {
			t.Errorf("ParseScheme(%q) = %v, %v; want %v, ok=%v", tc.in, got, err, tc.want, tc.ok)
		}
	}
	if SchemeRSA.String() != "rsa" || SchemeEd25519.String() != "ed25519" {
		t.Errorf("Scheme.String vocabulary changed")
	}
	if Scheme(9).Valid() {
		t.Errorf("Scheme(9).Valid() = true")
	}
}

// TestKeyPairBridge checks KeyPair against the handle it wraps: it
// reports the signer's scheme, and the zero pair holds nothing.
func TestKeyPairBridge(t *testing.T) {
	eachScheme(t, func(t *testing.T, s Scheme) {
		sg := goldenSigner(t, s)
		pair := SignerKeyPair(sg)
		if pair.Signer() != sg || pair.Scheme() != s {
			t.Fatalf("pair = (%v, %v), want the wrapped %v signer", pair.Signer(), pair.Scheme(), s)
		}
	})
	var zero KeyPair
	if zero.Signer() != nil || zero.Scheme() != 0 {
		t.Errorf("zero KeyPair must have no signer and zero scheme")
	}
}

// TestKeyPairSignerStable pins KeyPair's single representation: however
// a pair was made, Signer() hands back the one handle it holds — same
// Signer, same PublicKey (so the fingerprint memo inside it survives) —
// and constructs nothing.
func TestKeyPairSignerStable(t *testing.T) {
	eachScheme(t, func(t *testing.T, s Scheme) {
		generated, err := GenerateKeyPair(s, 1024)
		if err != nil {
			t.Fatal(err)
		}
		for name, kp := range map[string]KeyPair{
			"InsecureTestKey": InsecureTestKeyScheme(3, s),
			"GenerateKeyPair": generated,
			"SignerKeyPair":   SignerKeyPair(goldenSigner(t, s)),
		} {
			if kp.Signer() != kp.Signer() {
				t.Errorf("%s: Signer() returned two different handles", name)
			}
			if kp.Signer().Public() != kp.Signer().Public() {
				t.Errorf("%s: Signer().Public() returned two different handles", name)
			}
			if n := testing.AllocsPerRun(100, func() { _ = kp.Signer() }); n != 0 {
				t.Errorf("%s: Signer() allocates %.1f/op, want 0", name, n)
			}
		}
	})
}
