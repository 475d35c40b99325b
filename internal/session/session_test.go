package session

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/cryptoutil"
)

func TestNewTransactionIDUnique(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 128; i++ {
		id := NewTransactionID()
		if seen[id] {
			t.Fatalf("duplicate transaction ID %s", id)
		}
		seen[id] = true
	}
}

// admit runs the two halves of the guard as a party does: the pure
// check, then the admission.
func admit(g *Guard, nonce []byte, limit, now time.Time) error {
	if err := g.Check(nonce, limit, now); err != nil {
		return err
	}
	return g.Admit(nonce)
}

func TestGuardRejectsNonceReplay(t *testing.T) {
	g := NewGuard(0)
	nonce := cryptoutil.MustNonce()
	if err := admit(g, nonce, time.Time{}, time.Now()); err != nil {
		t.Fatal(err)
	}
	// The window is party-wide: the same nonce in any message is a replay.
	if err := g.Check(nonce, time.Time{}, time.Now()); !errors.Is(err, ErrReplay) {
		t.Fatalf("err = %v, want ErrReplay", err)
	}
	// Admit is the atomic half: it refuses the second copy on its own.
	if err := g.Admit(nonce); !errors.Is(err, ErrReplay) {
		t.Fatalf("Admit of a remembered nonce: err = %v, want ErrReplay", err)
	}
}

func TestGuardTimeLimit(t *testing.T) {
	g := NewGuard(0)
	now := time.Date(2010, 9, 13, 12, 0, 0, 0, time.UTC)
	limit := now.Add(-time.Second)
	err := admit(g, cryptoutil.MustNonce(), limit, now)
	if !errors.Is(err, ErrExpired) {
		t.Fatalf("expired message: %v", err)
	}
	// At or before the limit is fine.
	if err := admit(g, cryptoutil.MustNonce(), now, now); err != nil {
		t.Fatalf("at limit: %v", err)
	}
	// Zero limit means no deadline.
	if err := admit(g, cryptoutil.MustNonce(), time.Time{}, now); err != nil {
		t.Fatalf("no limit: %v", err)
	}
}

func TestGuardFailureLeavesStateUnchanged(t *testing.T) {
	g := NewGuard(0)
	nonce := cryptoutil.MustNonce()
	now := time.Now()
	// Expired message carrying a fresh nonce: rejected and NOT recorded.
	if err := admit(g, nonce, now.Add(-time.Hour), now); !errors.Is(err, ErrExpired) {
		t.Fatal(err)
	}
	// The same nonce must now be accepted with a valid limit.
	if err := admit(g, nonce, time.Time{}, now); err != nil {
		t.Fatalf("state leaked from rejected message: %v", err)
	}
	// Check alone records nothing either.
	fresh := cryptoutil.MustNonce()
	for i := 0; i < 2; i++ {
		if err := g.Check(fresh, time.Time{}, now); err != nil {
			t.Fatalf("check %d of an unadmitted nonce: %v", i, err)
		}
	}
}

func TestGuardWindowEviction(t *testing.T) {
	g := NewGuard(4)
	nonces := make([][]byte, 6)
	for i := range nonces {
		nonces[i] = cryptoutil.MustNonce()
		if err := admit(g, nonces[i], time.Time{}, time.Now()); err != nil {
			t.Fatal(err)
		}
	}
	if g.NonceCount() != 4 {
		t.Fatalf("NonceCount = %d, want 4", g.NonceCount())
	}
	// The oldest nonce fell out of the window — its replay is no longer
	// detected (the documented window/memory trade-off)...
	if err := admit(g, nonces[0], time.Time{}, time.Now()); err != nil {
		t.Fatalf("evicted nonce still tracked: %v", err)
	}
	// ...but a recent one still is.
	if err := admit(g, nonces[5], time.Time{}, time.Now()); !errors.Is(err, ErrReplay) {
		t.Fatalf("recent nonce not tracked: %v", err)
	}
}

func TestTerminalStates(t *testing.T) {
	for s, want := range map[State]bool{
		StateInit: false, StateEvidenceSent: false, StateEvidenceReceived: false,
		StateResolving: false, StateCompleted: true, StateAborted: true, StateFailed: true,
	} {
		if Terminal(s) != want {
			t.Errorf("Terminal(%v) = %v, want %v", s, !want, want)
		}
	}
}

func TestStateStrings(t *testing.T) {
	seen := map[string]bool{}
	for s := StateInit; s <= StateFailed; s++ {
		str := fmt.Sprint(s)
		if seen[str] {
			t.Errorf("duplicate state string %q", str)
		}
		seen[str] = true
	}
}
