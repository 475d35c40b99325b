package auditlog

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/cryptoutil"
)

func TestAppendAndChain(t *testing.T) {
	l := New(nil)
	for i := 0; i < 10; i++ {
		e := l.Append("upload", fmt.Sprintf("txn-%d", i), "ok")
		if e.Index != uint64(i) {
			t.Fatalf("entry %d has index %d", i, e.Index)
		}
	}
	if l.Len() != 10 {
		t.Fatalf("Len = %d", l.Len())
	}
	if err := Verify(l.Entries()); err != nil {
		t.Fatalf("honest chain fails verification: %v", err)
	}
}

func TestVerifyEmptyChain(t *testing.T) {
	if err := Verify(nil); err != nil {
		t.Fatalf("empty chain: %v", err)
	}
}

func TestRewriteDetected(t *testing.T) {
	l := New(nil)
	for i := 0; i < 5; i++ {
		l.Append("upload", "t", fmt.Sprintf("v%d", i))
	}
	entries := l.Entries()

	// Content rewrite.
	mutated := append([]Entry(nil), entries...)
	mutated[2].Detail = "rewritten history"
	if err := Verify(mutated); !errors.Is(err, ErrBrokenChain) {
		t.Fatalf("content rewrite: %v", err)
	}

	// Deletion.
	deleted := append(append([]Entry(nil), entries[:2]...), entries[3:]...)
	if err := Verify(deleted); !errors.Is(err, ErrBrokenChain) {
		t.Fatalf("deletion: %v", err)
	}

	// Reorder.
	swapped := append([]Entry(nil), entries...)
	swapped[1], swapped[2] = swapped[2], swapped[1]
	if err := Verify(swapped); !errors.Is(err, ErrBrokenChain) {
		t.Fatalf("reorder: %v", err)
	}

	// Truncation alone passes Verify (a prefix is a valid chain) — the
	// checkpoint is what catches it; see TestCheckpointDetectsTruncation.
	if err := Verify(entries[:3]); err != nil {
		t.Fatalf("prefix: %v", err)
	}
}

func TestRewriteWithRecomputedHashesDetected(t *testing.T) {
	// A smarter forger recomputes the hash of the entry they changed —
	// but not the chain after it.
	l := New(nil)
	for i := 0; i < 4; i++ {
		l.Append("upload", "t", fmt.Sprintf("v%d", i))
	}
	entries := l.Entries()
	entries[1].Detail = "rewritten"
	entries[1].Hash = cryptoutil.Sum(cryptoutil.SHA256, entries[1].canonical())
	if err := Verify(entries); !errors.Is(err, ErrBrokenChain) {
		t.Fatalf("recomputed rewrite: %v", err)
	}
}

func TestByTxn(t *testing.T) {
	l := New(nil)
	l.Append("upload", "t1", "a")
	l.Append("upload", "t2", "b")
	l.Append("download", "t1", "c")
	got := l.ByTxn("t1")
	if len(got) != 2 || got[0].Detail != "a" || got[1].Detail != "c" {
		t.Fatalf("ByTxn = %+v", got)
	}
	if len(l.ByTxn("ghost")) != 0 {
		t.Fatal("ByTxn(ghost) nonempty")
	}
}

func TestEntryAccess(t *testing.T) {
	l := New(nil)
	l.Append("k", "t", "d")
	if _, err := l.Entry(0); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Entry(1); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("out of range: %v", err)
	}
	if _, err := l.Entry(-1); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("negative: %v", err)
	}
}

// eachScheme runs f once per registered scheme, as a subtest named
// after it, with a checkpoint key of that scheme and an unrelated one.
func eachScheme(t *testing.T, f func(t *testing.T, key, other cryptoutil.KeyPair)) {
	t.Helper()
	for _, s := range []cryptoutil.Scheme{cryptoutil.SchemeRSA, cryptoutil.SchemeEd25519} {
		t.Run(s.String(), func(t *testing.T) {
			f(t, cryptoutil.InsecureTestKeyScheme(130, s), cryptoutil.InsecureTestKeyScheme(131, s))
		})
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	eachScheme(t, func(t *testing.T, key, _ cryptoutil.KeyPair) {
		l := New(nil)
		for i := 0; i < 6; i++ {
			l.Append("upload", "t", "x")
		}
		cp, err := l.Checkpoint(key)
		if err != nil {
			t.Fatal(err)
		}
		if err := VerifyCheckpointWith(key.Signer().Public(), cp, l.Entries()); err != nil {
			t.Fatalf("honest checkpoint: %v", err)
		}
		// Appending after the checkpoint stays valid.
		l.Append("download", "t", "later")
		if err := VerifyCheckpointWith(key.Signer().Public(), cp, l.Entries()); err != nil {
			t.Fatalf("append after checkpoint: %v", err)
		}
	})
}

func TestCheckpointDetectsTruncation(t *testing.T) {
	eachScheme(t, func(t *testing.T, key, _ cryptoutil.KeyPair) {
		l := New(nil)
		for i := 0; i < 6; i++ {
			l.Append("upload", "t", fmt.Sprintf("v%d", i))
		}
		cp, err := l.Checkpoint(key)
		if err != nil {
			t.Fatal(err)
		}
		trunc := l.Entries()[:4]
		if err := VerifyCheckpointWith(key.Signer().Public(), cp, trunc); !errors.Is(err, ErrBrokenChain) {
			t.Fatalf("truncation: %v", err)
		}
	})
}

func TestCheckpointForgedSignature(t *testing.T) {
	eachScheme(t, func(t *testing.T, key, other cryptoutil.KeyPair) {
		l := New(nil)
		l.Append("upload", "t", "x")
		cp, err := l.Checkpoint(other) // signed by the wrong key
		if err != nil {
			t.Fatal(err)
		}
		if err := VerifyCheckpointWith(key.Signer().Public(), cp, l.Entries()); !errors.Is(err, ErrBadCheckpoint) {
			t.Fatalf("forged checkpoint: %v", err)
		}
	})
}

func TestCheckpointEmptyLog(t *testing.T) {
	eachScheme(t, func(t *testing.T, key, _ cryptoutil.KeyPair) {
		l := New(nil)
		cp, err := l.Checkpoint(key)
		if err != nil {
			t.Fatal(err)
		}
		if err := VerifyCheckpointWith(key.Signer().Public(), cp, nil); err != nil {
			t.Fatalf("empty-log checkpoint: %v", err)
		}
	})
}

func TestConcurrentAppend(t *testing.T) {
	l := New(nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				l.Append("k", fmt.Sprintf("g%d", g), "x")
			}
		}(g)
	}
	wg.Wait()
	if l.Len() != 800 {
		t.Fatalf("Len = %d", l.Len())
	}
	if err := Verify(l.Entries()); err != nil {
		t.Fatalf("concurrent chain invalid: %v", err)
	}
}

func TestQuickChainAlwaysVerifies(t *testing.T) {
	f := func(kinds []string) bool {
		l := New(func() time.Time { return time.Unix(42, 0) })
		for i, k := range kinds {
			l.Append(k, fmt.Sprintf("t%d", i%3), k+"-detail")
		}
		return Verify(l.Entries()) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
