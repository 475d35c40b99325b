package evidence

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/cryptoutil"
)

func buildKind(t *testing.T, kind Kind, txn string) *Evidence {
	t.Helper()
	h := testHeader([]byte("data"))
	h.Kind = kind
	h.TxnID = txn
	k := castOf(cryptoutil.SchemeRSA)
	ev, _, err := BuildFor(k.alice, k.bob.Public(), h)
	if err != nil {
		t.Fatal(err)
	}
	return ev
}

func TestStorePutGet(t *testing.T) {
	s := NewStore()
	ev := buildKind(t, KindNRO, "t1")
	s.Put("t1", RoleOwn, ev)

	got, err := s.Get("t1", RoleOwn)
	if err != nil {
		t.Fatal(err)
	}
	if got.Header.TxnID != "t1" {
		t.Fatalf("got txn %s", got.Header.TxnID)
	}
	if _, err := s.Get("t1", RolePeer); !errors.Is(err, ErrNoEvidence) {
		t.Fatalf("missing role: %v", err)
	}
	if _, err := s.Get("ghost", RoleOwn); !errors.Is(err, ErrNoEvidence) {
		t.Fatalf("missing txn: %v", err)
	}
}

func TestStoreLatestWins(t *testing.T) {
	s := NewStore()
	first := buildKind(t, KindNRO, "t1")
	second := buildKind(t, KindNRR, "t1")
	s.Put("t1", RolePeer, first)
	s.Put("t1", RolePeer, second)
	got, err := s.Get("t1", RolePeer)
	if err != nil {
		t.Fatal(err)
	}
	if got.Header.Kind != KindNRR {
		t.Fatalf("latest = %v, want NRR", got.Header.Kind)
	}
	if all := s.All("t1", RolePeer); len(all) != 2 || all[0].Header.Kind != KindNRO {
		t.Fatalf("All = %d items", len(all))
	}
}

func TestStoreByKind(t *testing.T) {
	s := NewStore()
	s.Put("t1", RolePeer, buildKind(t, KindNRO, "t1"))
	s.Put("t1", RolePeer, buildKind(t, KindAbortAccept, "t1"))

	got, err := s.ByKind("t1", RolePeer, KindNRO)
	if err != nil || got.Header.Kind != KindNRO {
		t.Fatalf("ByKind NRO: %v %v", got, err)
	}
	if _, err := s.ByKind("t1", RolePeer, KindNRR); !errors.Is(err, ErrNoEvidence) {
		t.Fatalf("absent kind: %v", err)
	}
}

func TestStoreTransactions(t *testing.T) {
	s := NewStore()
	for _, txn := range []string{"t-c", "t-a", "t-b"} {
		s.Put(txn, RoleOwn, buildKind(t, KindNRO, txn))
	}
	got := s.Transactions()
	want := []string{"t-a", "t-b", "t-c"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Transactions = %v", got)
		}
	}
}

func TestStoreConcurrent(t *testing.T) {
	s := NewStore()
	ev := buildKind(t, KindNRO, "t1")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				s.Put("t1", RoleOwn, ev)
				s.Get("t1", RoleOwn)
				s.Transactions()
			}
		}()
	}
	wg.Wait()
	if n := len(s.All("t1", RoleOwn)); n != 800 {
		t.Fatalf("stored %d items, want 800", n)
	}
}

func TestRoleString(t *testing.T) {
	if RoleOwn.String() == RolePeer.String() {
		t.Fatal("roles stringify identically")
	}
	_ = cryptoutil.MustNonce() // keep import used consistently with helpers
}
