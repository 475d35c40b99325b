package evidence

import (
	"bytes"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/cryptoutil"
)

// countingSigner counts Sign calls and can be told to fail the next one.
type countingSigner struct {
	cryptoutil.Signer
	signs    atomic.Int64
	failNext atomic.Bool
}

var errSignerDown = errors.New("signer down")

func (s *countingSigner) Sign(msg []byte) ([]byte, error) {
	s.signs.Add(1)
	if s.failNext.CompareAndSwap(true, false) {
		return nil, errSignerDown
	}
	return s.Signer.Sign(msg)
}

var bothSchemes = []cryptoutil.Scheme{cryptoutil.SchemeRSA, cryptoutil.SchemeEd25519}

// schemeKeys returns a sender wrapped in a countingSigner and a
// recipient, both of scheme.
func schemeKeys(scheme cryptoutil.Scheme) (*countingSigner, cryptoutil.Signer) {
	return &countingSigner{Signer: cryptoutil.InsecureTestKeyScheme(0, scheme).Signer()},
		cryptoutil.InsecureTestKeyScheme(1, scheme).Signer()
}

// TestBuilderMatchesBuildFor: for a fixed header and key, a builder
// whose memo is already filled and stateless BuildFor produce the same
// evidence bytes, on the sender's side and after the recipient opens it.
func TestBuilderMatchesBuildFor(t *testing.T) {
	for _, scheme := range bothSchemes {
		t.Run(scheme.String(), func(t *testing.T) {
			sender, recipient := schemeKeys(scheme)
			b := NewBuilder(sender)
			if _, _, err := b.Build(recipient.Public(), testHeader(nil)); err != nil {
				t.Fatal(err)
			}
			for _, data := range [][]byte{nil, []byte("the stored object")} {
				h := testHeader(data)
				got, gotSealed, err := b.Build(recipient.Public(), h)
				if err != nil {
					t.Fatal(err)
				}
				want, wantSealed, err := BuildFor(sender, recipient.Public(), h)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got.Encode(), want.Encode()) {
					t.Fatalf("len(data)=%d: builder evidence differs from BuildFor's", len(data))
				}
				gotOpen, err := OpenWith(recipient, sender.Public(), gotSealed, h)
				if err != nil {
					t.Fatalf("len(data)=%d: opening builder evidence: %v", len(data), err)
				}
				wantOpen, err := OpenWith(recipient, sender.Public(), wantSealed, h)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(gotOpen.Encode(), wantOpen.Encode()) || !bytes.Equal(gotOpen.Encode(), want.Encode()) {
					t.Fatalf("len(data)=%d: opened evidence differs", len(data))
				}
			}
		})
	}
}

// TestBuilderSignCounts pins what the memo saves and what it must not
// touch: N empty-digest headers cost N+1 signatures, N headers with
// real digests cost 2N, and the memo is keyed on the digest bytes — a
// header that merely says ObjectLen 0 is signed for real.
func TestBuilderSignCounts(t *testing.T) {
	const n = 5
	for _, scheme := range bothSchemes {
		t.Run(scheme.String(), func(t *testing.T) {
			sender, recipient := schemeKeys(scheme)
			b := NewBuilder(sender)
			build := func(h *Header) *Evidence {
				t.Helper()
				ev, _, err := b.Build(recipient.Public(), h)
				if err != nil {
					t.Fatal(err)
				}
				if err := ev.VerifyWith(sender.Public()); err != nil {
					t.Fatal(err)
				}
				return ev
			}

			for i := 0; i < n; i++ {
				build(testHeader(nil))
			}
			if got := sender.signs.Load(); got != n+1 {
				t.Fatalf("%d empty-digest headers cost %d signatures, want %d", n, got, n+1)
			}

			sender.signs.Store(0)
			for i := 0; i < n; i++ {
				build(testHeader([]byte{byte(i)}))
			}
			if got := sender.signs.Load(); got != 2*n {
				t.Fatalf("%d real-digest headers cost %d signatures, want %d", n, got, 2*n)
			}

			sender.signs.Store(0)
			h := testHeader([]byte("not empty"))
			h.ObjectLen = 0
			ev := build(h)
			if got := sender.signs.Load(); got != 2 {
				t.Fatalf("ObjectLen 0 over real digests cost %d signatures, want 2", got)
			}
			if empty := build(testHeader(nil)); bytes.Equal(ev.DataSig, empty.DataSig) {
				t.Fatal("ObjectLen 0 over real digests got the memoized signature")
			}
		})
	}
}

// TestBuilderRetriesFailedSign: a failed attempt to sign the constant
// is reported and not memoized.
func TestBuilderRetriesFailedSign(t *testing.T) {
	sender, recipient := schemeKeys(cryptoutil.SchemeEd25519)
	b := NewBuilder(sender)
	sender.failNext.Store(true)
	if _, _, err := b.Build(recipient.Public(), testHeader(nil)); !errors.Is(err, errSignerDown) {
		t.Fatalf("err = %v, want the signer's error", err)
	}
	ev, _, err := b.Build(recipient.Public(), testHeader(nil))
	if err != nil {
		t.Fatalf("build after a failed signing attempt: %v", err)
	}
	if err := ev.VerifyWith(sender.Public()); err != nil {
		t.Fatal(err)
	}
	if got := sender.signs.Load(); got != 3 {
		t.Fatalf("signer saw %d calls, want 3 (one failed, two for the retry)", got)
	}
}

// TestBuilderReturnsCopies: callers own the DataSig they are handed
// (tests and attack code flip its bytes in place).
func TestBuilderReturnsCopies(t *testing.T) {
	sender, recipient := schemeKeys(cryptoutil.SchemeRSA)
	b := NewBuilder(sender)
	for i := 0; i < 3; i++ {
		ev, _, err := b.Build(recipient.Public(), testHeader(nil))
		if err != nil {
			t.Fatal(err)
		}
		if err := ev.VerifyWith(sender.Public()); err != nil {
			t.Fatalf("build %d: a previous caller's mutation reached the memo: %v", i, err)
		}
		ev.DataSig[0] ^= 0xFF
	}
}

// TestBuilderConcurrent shares one builder between 32 goroutines, as a
// provider's handlers share their party's. Goroutines that find the
// memo empty may each fill it, so the count has a range, not a value.
func TestBuilderConcurrent(t *testing.T) {
	const workers, each = 32, 4
	sender, recipient := schemeKeys(cryptoutil.SchemeEd25519)
	b := NewBuilder(sender)
	want, _, err := BuildFor(sender.Signer, recipient.Public(), testHeader(nil))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				ev, _, err := b.Build(recipient.Public(), testHeader(nil))
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(ev.DataSig, want.DataSig) {
					t.Error("memoized data-hash signature differs from a stateless one")
				}
				ev.DataSig[0] ^= 0xFF
				if _, _, err := b.Build(recipient.Public(), testHeader([]byte{byte(i)})); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	const n = workers * each
	if got := sender.signs.Load(); got < 3*n+1 || got > 3*n+workers {
		t.Fatalf("%d empty and %d real headers cost %d signatures, want %d..%d", n, n, got, 3*n+1, 3*n+workers)
	}
}
