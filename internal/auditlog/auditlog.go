// Package auditlog is a hash-chained, optionally signed, append-only
// event log for the provider side. The paper's dispute story rests on
// evidence exchanged with the client; a provider that ALSO keeps a
// tamper-evident log of every protocol event can strengthen its own
// defense ("Eve also needs certain evidence to prove her innocence",
// §2.4): entries are chained so that rewriting history breaks every
// subsequent link, and periodic signed checkpoints pin the chain to a
// point in time.
package auditlog

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/wire"
)

// Errors.
var (
	ErrBrokenChain   = errors.New("auditlog: hash chain broken")
	ErrBadCheckpoint = errors.New("auditlog: checkpoint signature invalid")
	ErrOutOfRange    = errors.New("auditlog: entry index out of range")
)

// Entry is one logged event.
type Entry struct {
	// Index is the entry's position, starting at 0.
	Index uint64
	// At is the append time.
	At time.Time
	// Kind labels the event ("upload", "download", "abort", ...).
	Kind string
	// TxnID is the transaction concerned.
	TxnID string
	// Detail is free-form context.
	Detail string
	// PrevHash chains to the previous entry (zeros for the first).
	PrevHash cryptoutil.Digest
	// Hash covers this entry's canonical encoding including PrevHash.
	Hash cryptoutil.Digest
}

// canonical returns the bytes Hash covers.
func (e *Entry) canonical() []byte {
	enc := wire.NewEncoder(96 + len(e.Detail))
	enc.String("auditlog-entry-v1")
	enc.U64(e.Index)
	enc.Time(e.At)
	enc.String(e.Kind)
	enc.String(e.TxnID)
	enc.String(e.Detail)
	enc.Bytes32(e.PrevHash.Sum)
	return enc.Bytes()
}

// Log is the append-only chained log. Safe for concurrent use. A Log
// opened with OpenFile additionally persists every entry to disk,
// optionally fsyncing each append (see Sync, Close, Err).
type Log struct {
	mu      sync.RWMutex
	entries []Entry
	now     func() time.Time

	// File sink state; all nil/zero for a purely in-memory Log.
	file      *os.File
	syncEach  bool
	truncated bool
	ferr      error
}

// New creates an empty log stamping entries with now (nil = time.Now).
func New(now func() time.Time) *Log {
	if now == nil {
		now = time.Now
	}
	return &Log{now: now}
}

// Append adds an event and returns the new entry.
func (l *Log) Append(kind, txnID, detail string) Entry {
	l.mu.Lock()
	defer l.mu.Unlock()
	e := Entry{
		Index:  uint64(len(l.entries)),
		At:     l.now(),
		Kind:   kind,
		TxnID:  txnID,
		Detail: detail,
	}
	if len(l.entries) > 0 {
		e.PrevHash = l.entries[len(l.entries)-1].Hash.Clone()
	} else {
		e.PrevHash = cryptoutil.Digest{Alg: cryptoutil.SHA256, Sum: make([]byte, 32)}
	}
	e.Hash = cryptoutil.Sum(cryptoutil.SHA256, e.canonical())
	l.entries = append(l.entries, e)
	l.persist(e)
	return e
}

// Len returns the number of entries.
func (l *Log) Len() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.entries)
}

// Entry returns one entry by index.
func (l *Log) Entry(i int) (Entry, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if i < 0 || i >= len(l.entries) {
		return Entry{}, fmt.Errorf("%w: %d of %d", ErrOutOfRange, i, len(l.entries))
	}
	return l.entries[i], nil
}

// Entries returns a copy of all entries.
func (l *Log) Entries() []Entry {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return append([]Entry(nil), l.entries...)
}

// ByTxn returns the entries for one transaction, in order.
func (l *Log) ByTxn(txnID string) []Entry {
	l.mu.RLock()
	defer l.mu.RUnlock()
	var out []Entry
	for _, e := range l.entries {
		if e.TxnID == txnID {
			out = append(out, e)
		}
	}
	return out
}

// Verify walks the chain and fails at the first broken link — any
// historical rewrite (content, order, deletion, insertion) breaks
// every hash from that point on.
func Verify(entries []Entry) error {
	prev := cryptoutil.Digest{Alg: cryptoutil.SHA256, Sum: make([]byte, 32)}
	for i := range entries {
		e := entries[i]
		if e.Index != uint64(i) {
			return fmt.Errorf("%w: entry %d carries index %d", ErrBrokenChain, i, e.Index)
		}
		if !e.PrevHash.Equal(prev) {
			return fmt.Errorf("%w: entry %d prev-hash mismatch", ErrBrokenChain, i)
		}
		want := cryptoutil.Sum(cryptoutil.SHA256, e.canonical())
		if !e.Hash.Equal(want) {
			return fmt.Errorf("%w: entry %d content hash mismatch", ErrBrokenChain, i)
		}
		prev = e.Hash
	}
	return nil
}

// Checkpoint is a signed commitment to the log's state at a point in
// time: (length, head hash) under the operator's key.
type Checkpoint struct {
	At        time.Time
	Length    uint64
	HeadHash  cryptoutil.Digest
	Signature []byte
}

func checkpointBytes(at time.Time, length uint64, head cryptoutil.Digest) []byte {
	e := wire.NewEncoder(64)
	e.String("auditlog-checkpoint-v1")
	e.Time(at)
	e.U64(length)
	e.Bytes32(head.Sum)
	return e.Bytes()
}

// Checkpoint signs the current head under the operator's key.
func (l *Log) Checkpoint(key cryptoutil.KeyPair) (*Checkpoint, error) {
	l.mu.RLock()
	length := uint64(len(l.entries))
	var head cryptoutil.Digest
	if length > 0 {
		head = l.entries[length-1].Hash.Clone()
	} else {
		head = cryptoutil.Digest{Alg: cryptoutil.SHA256, Sum: make([]byte, 32)}
	}
	at := l.now()
	l.mu.RUnlock()

	signer := key.Signer()
	if signer == nil {
		return nil, fmt.Errorf("auditlog: key pair holds no private key")
	}
	sig, err := signer.Sign(checkpointBytes(at, length, head))
	if err != nil {
		return nil, fmt.Errorf("auditlog: signing checkpoint: %w", err)
	}
	return &Checkpoint{At: at, Length: length, HeadHash: head, Signature: sig}, nil
}

// VerifyCheckpointWith checks a checkpoint's signature under the
// signer's public key, and that entries is a chain consistent with it:
// the chain verifies, has at least cp.Length entries, and entry
// cp.Length-1 carries the committed head hash. Extra entries after the
// checkpoint are fine (append-only); fewer, or a different head, mean
// history was rewritten.
func VerifyCheckpointWith(pub cryptoutil.PublicKey, cp *Checkpoint, entries []Entry) error {
	if err := pub.Verify(checkpointBytes(cp.At, cp.Length, cp.HeadHash), cp.Signature); err != nil {
		return fmt.Errorf("%w: %v", ErrBadCheckpoint, err)
	}
	if err := Verify(entries); err != nil {
		return err
	}
	if uint64(len(entries)) < cp.Length {
		return fmt.Errorf("%w: log shrank below checkpoint (%d < %d)", ErrBrokenChain, len(entries), cp.Length)
	}
	if cp.Length > 0 {
		if !entries[cp.Length-1].Hash.Equal(cp.HeadHash) {
			return fmt.Errorf("%w: entry %d does not match checkpointed head", ErrBrokenChain, cp.Length-1)
		}
	}
	return nil
}
