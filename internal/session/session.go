// Package session provides the transaction bookkeeping the TPNR
// protocol's anti-replay and timeliness mechanisms share across a
// party (paper §4.1, §5.4, §5.5): transaction IDs, the lifecycle
// states, and a bounded window of recently accepted nonces. The
// per-transaction parts — sequence floors and counters, state and
// deadline — live in the protocol engine's transaction record.
package session

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/cryptoutil"
)

// Validation errors.
var (
	ErrReplay       = errors.New("session: replayed message")
	ErrOutOfOrder   = errors.New("session: sequence number not increasing")
	ErrExpired      = errors.New("session: message past its time limit")
	ErrTxncompleted = errors.New("session: transaction already completed")
)

// NewTransactionID mints a globally unique transaction identifier.
func NewTransactionID() string {
	return fmt.Sprintf("txn-%x", cryptoutil.MustNonce())
}

// Guard is one receiving endpoint's window of recently accepted
// nonces, with the §5.5 time-limit check. The window is party-wide:
// a nonce is unique across every transaction the party receives.
type Guard struct {
	mu     sync.Mutex
	nonces map[string]struct{}
	order  []string
	window int
}

// NewGuard creates a Guard remembering up to window nonces (0 means a
// generous default). The window bounds memory; experiment E10 ablates
// its size.
func NewGuard(window int) *Guard {
	if window <= 0 {
		window = 1 << 16
	}
	return &Guard{nonces: make(map[string]struct{}), window: window}
}

// Check reports whether a message is fresh at now: timeLimit (if
// nonzero) is not before now, and nonce is not in the window. It
// changes nothing, so it may run before the message is authenticated.
func (g *Guard) Check(nonce []byte, timeLimit, now time.Time) error {
	if !timeLimit.IsZero() && now.After(timeLimit) {
		return fmt.Errorf("%w: limit %v, now %v", ErrExpired, timeLimit, now)
	}
	g.mu.Lock()
	_, seen := g.nonces[string(nonce)]
	g.mu.Unlock()
	if seen {
		return fmt.Errorf("%w: nonce reuse", ErrReplay)
	}
	return nil
}

// Admit records nonce in the window, refusing it when it is already
// there: of two copies of one message, exactly one is admitted.
func (g *Guard) Admit(nonce []byte) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, seen := g.nonces[string(nonce)]; seen {
		return fmt.Errorf("%w: nonce reuse", ErrReplay)
	}
	n := string(nonce)
	g.nonces[n] = struct{}{}
	g.order = append(g.order, n)
	for len(g.order) > g.window {
		delete(g.nonces, g.order[0])
		g.order = g.order[1:]
	}
	return nil
}

// NonceCount reports how many nonces are currently remembered.
func (g *Guard) NonceCount() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.nonces)
}

// State is a transaction's lifecycle position at one party.
type State int

// Transaction states, in normal progression order.
const (
	StateInit State = iota
	StateEvidenceSent
	StateEvidenceReceived
	StateCompleted
	StateAborted
	StateResolving
	StateFailed
)

// String names the state for transcripts.
func (s State) String() string {
	switch s {
	case StateInit:
		return "init"
	case StateEvidenceSent:
		return "evidence-sent"
	case StateEvidenceReceived:
		return "evidence-received"
	case StateCompleted:
		return "completed"
	case StateAborted:
		return "aborted"
	case StateResolving:
		return "resolving"
	case StateFailed:
		return "failed"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Terminal reports whether a state admits no further transitions.
func Terminal(s State) bool {
	return s == StateCompleted || s == StateAborted || s == StateFailed
}
