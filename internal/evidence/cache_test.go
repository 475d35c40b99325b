package evidence

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/cryptoutil"
)

func TestVerifyCachedHitsOnRepeat(t *testing.T) {
	k := castOf(cryptoutil.SchemeRSA)
	h := testHeader([]byte("cached object"))
	ev, _, err := BuildFor(k.alice, k.bob.Public(), h)
	if err != nil {
		t.Fatal(err)
	}
	c := NewVerifyCache(64)
	for i := 0; i < 5; i++ {
		if err := ev.VerifyCachedWith(k.alice.Public(), c); err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
	}
	hits, misses := c.Stats()
	// Two signatures per evidence: first round misses both, the other
	// four rounds hit both.
	if misses != 2 {
		t.Fatalf("misses = %d, want 2", misses)
	}
	if hits != 8 {
		t.Fatalf("hits = %d, want 8", hits)
	}
	if n := c.Len(); n != 2 {
		t.Fatalf("Len() = %d, want 2", n)
	}
}

// TestVerifyCachedNilCache: every verification entry point gives the
// same answer with a cache and without one — the evidence verifies
// under the sender's key, and a nil sender key is ErrBadHeaderSig, not
// a panic.
func TestVerifyCachedNilCache(t *testing.T) {
	eachScheme(t, func(t *testing.T, k cast) {
		h := testHeader([]byte("d"))
		ev, sealed, err := BuildFor(k.alice, k.bob.Public(), h)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			name   string
			sender cryptoutil.PublicKey
			cache  *VerifyCache
			want   error
		}{
			{"key, no cache", k.alice.Public(), nil, nil},
			{"key, cache", k.alice.Public(), NewVerifyCache(64), nil},
			{"nil key, no cache", nil, nil, ErrBadHeaderSig},
			{"nil key, cache", nil, NewVerifyCache(64), ErrBadHeaderSig},
		} {
			if err := ev.VerifyCachedWith(tc.sender, tc.cache); !errors.Is(err, tc.want) {
				t.Errorf("%s: VerifyCachedWith = %v, want %v", tc.name, err, tc.want)
			}
			if _, err := OpenCachedWith(k.bob, tc.sender, sealed, h, tc.cache); !errors.Is(err, tc.want) {
				t.Errorf("%s: OpenCachedWith = %v, want %v", tc.name, err, tc.want)
			}
			if tc.cache != nil {
				continue
			}
			if err := ev.VerifyWith(tc.sender); !errors.Is(err, tc.want) {
				t.Errorf("%s: VerifyWith = %v, want %v", tc.name, err, tc.want)
			}
			if _, err := OpenWith(k.bob, tc.sender, sealed, h); !errors.Is(err, tc.want) {
				t.Errorf("%s: OpenWith = %v, want %v", tc.name, err, tc.want)
			}
		}
	})
}

// TestVerifyCacheNeverCachesFailures checks the security property: a
// failed verification leaves no trace, so repeat failures re-verify
// every time and the bounded LRU cannot be flushed by garbage.
func TestVerifyCacheNeverCachesFailures(t *testing.T) {
	eachScheme(t, func(t *testing.T, k cast) {
		h := testHeader([]byte("d"))
		ev, _, err := BuildFor(k.alice, k.bob.Public(), h)
		if err != nil {
			t.Fatal(err)
		}
		c := NewVerifyCache(64)
		// Wrong sender key: both attempts must fail and cache nothing.
		for i := 0; i < 2; i++ {
			if err := ev.VerifyCachedWith(k.eve.Public(), c); err == nil {
				t.Fatal("verified under the wrong key")
			}
		}
		if n := c.Len(); n != 0 {
			t.Fatalf("failed verifications cached %d entries", n)
		}
		hits, _ := c.Stats()
		if hits != 0 {
			t.Fatalf("failed verifications produced %d hits", hits)
		}
		// The right key must still verify (no poisoned negative entry).
		if err := ev.VerifyCachedWith(k.alice.Public(), c); err != nil {
			t.Fatalf("correct key after failures: %v", err)
		}
	})
}

func TestVerifyCacheBounded(t *testing.T) {
	const capacity = 32
	k := castOf(cryptoutil.SchemeRSA)
	c := NewVerifyCache(capacity)
	for i := 0; i < 3*capacity; i++ {
		h := testHeader([]byte(fmt.Sprintf("object-%d", i)))
		ev, _, err := BuildFor(k.alice, k.bob.Public(), h)
		if err != nil {
			t.Fatal(err)
		}
		if err := ev.VerifyCachedWith(k.alice.Public(), c); err != nil {
			t.Fatal(err)
		}
	}
	// Sharding rounds capacity up to shard granularity; the bound to
	// enforce is "capacity-ish, far below everything inserted".
	if n := c.Len(); n > 2*capacity {
		t.Fatalf("Len() = %d after %d inserts, cap %d: LRU not evicting", n, 6*capacity, capacity)
	}
}

// TestVerifyCacheConcurrent is the race test from the issue: 32
// goroutines hammering a shared cache with a mix of repeat evidence
// (hits), distinct evidence (inserts + eviction), and bad keys
// (failures that must not cache), under -race.
func TestVerifyCacheConcurrent(t *testing.T) {
	const verifiers = 32
	k := castOf(cryptoutil.SchemeRSA)
	shared := make([]*Evidence, 4)
	for i := range shared {
		h := testHeader([]byte(fmt.Sprintf("shared-%d", i)))
		ev, _, err := BuildFor(k.alice, k.bob.Public(), h)
		if err != nil {
			t.Fatal(err)
		}
		shared[i] = ev
	}
	c := NewVerifyCache(16) // small: force concurrent eviction too
	var wg sync.WaitGroup
	for g := 0; g < verifiers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				ev := shared[(g+i)%len(shared)]
				if err := ev.VerifyCachedWith(k.alice.Public(), c); err != nil {
					t.Errorf("g%d round %d: %v", g, i, err)
					return
				}
				if err := ev.VerifyCachedWith(k.eve.Public(), c); err == nil {
					t.Errorf("g%d round %d: wrong key verified", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	hits, misses := c.Stats()
	if hits == 0 {
		t.Fatal("no cache hits under concurrent repeat verification")
	}
	if misses == 0 {
		t.Fatal("no misses recorded")
	}
}

func TestOpenCachedMatchesOpen(t *testing.T) {
	eachScheme(t, func(t *testing.T, k cast) {
		data := []byte("the stored object")
		h := testHeader(data)
		_, sealed, err := BuildFor(k.alice, k.bob.Public(), h)
		if err != nil {
			t.Fatal(err)
		}
		c := NewVerifyCache(64)
		for i := 0; i < 3; i++ {
			ev, err := OpenCachedWith(k.bob, k.alice.Public(), sealed, h, c)
			if err != nil {
				t.Fatalf("OpenCachedWith round %d: %v", i, err)
			}
			if err := ev.VerifyAgainstDataWith(k.alice.Public(), data); err != nil {
				t.Fatal(err)
			}
		}
		hits, _ := c.Stats()
		if hits == 0 {
			t.Fatal("repeat OpenCachedWith produced no cache hits")
		}
		// Wrong sender key must still fail through the cached path.
		if _, err := OpenCachedWith(k.bob, k.eve.Public(), sealed, h, c); err == nil {
			t.Fatal("OpenCachedWith verified under the wrong key")
		}
	})
}
