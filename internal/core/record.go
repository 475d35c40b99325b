package core

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/evidence"
	"repro/internal/session"
)

// txnRecord is everything a party holds about one live transaction
// (paper §4.1: an ID, a sequence number per sender, a time limit and
// the evidence). Checkpoint compaction deletes it, after which only the
// cold archive knows the transaction, and a late message re-seeds a
// record from the archived bundle (coldRecord).
type txnRecord struct {
	state    session.State
	hasState bool      // a transition (or a begun session) set state
	deadline time.Time // step deadline; zero when none is due
	// outSeq is the highest sequence number in this party's outbound
	// messages and in the record's evidence: the next outbound message
	// exceeds everything either side has used for the transaction.
	outSeq uint64
	floors []senderFloor // highest accepted inbound sequence per sender
	// ev holds the hot evidence by role (RoleOwn, RolePeer), each in
	// arrival order.
	ev       [2][]*evidence.Evidence
	object   string // provider: the object key the upload stored
	openRes  bool   // TTP: a resolve is open
	archived bool   // the cold archive holds an earlier bundle to merge into
}

type senderFloor struct {
	sender string
	seq    uint64
}

func roleIndex(role evidence.Role) int {
	if role == evidence.RoleOwn {
		return 0
	}
	return 1
}

// above reports whether h's sequence number exceeds its sender's floor.
func (r *txnRecord) above(h *evidence.Header) error {
	for _, f := range r.floors {
		if f.sender == h.SenderID && h.Seq <= f.seq {
			return fmt.Errorf("%w: txn %s|%s seq %d <= last %d",
				session.ErrOutOfOrder, h.TxnID, h.SenderID, h.Seq, f.seq)
		}
	}
	return nil
}

// raise lifts the outbound floor past h and, for peer evidence, the
// sender's inbound floor to h.
func (r *txnRecord) raise(role evidence.Role, h *evidence.Header) {
	r.outSeq = max(r.outSeq, h.Seq)
	if role != evidence.RolePeer {
		return
	}
	for i := range r.floors {
		if r.floors[i].sender == h.SenderID {
			r.floors[i].seq = max(r.floors[i].seq, h.Seq)
			return
		}
	}
	r.floors = append(r.floors, senderFloor{h.SenderID, h.Seq})
}

// add files an evidence item unless an identical one (same kind,
// sequence and nonce) is already there, so replaying one history twice
// — snapshot plus tail, or a second Recover — duplicates nothing.
func (r *txnRecord) add(role evidence.Role, ev *evidence.Evidence) {
	r.raise(role, ev.Header)
	i := roleIndex(role)
	for _, old := range r.ev[i] {
		if old.Header.Kind == ev.Header.Kind && old.Header.Seq == ev.Header.Seq &&
			bytes.Equal(old.Header.Nonce, ev.Header.Nonce) {
			return
		}
	}
	r.ev[i] = append(r.ev[i], ev)
}

// byKind returns the latest hot item of the role and kind, or nil.
func (r *txnRecord) byKind(role evidence.Role, kind evidence.Kind) *evidence.Evidence {
	list := r.ev[roleIndex(role)]
	for i := len(list) - 1; i >= 0; i-- {
		if list[i].Header.Kind == kind {
			return list[i]
		}
	}
	return nil
}

func (r *txnRecord) hot() bool { return len(r.ev[0])+len(r.ev[1]) > 0 }

// recShards sizes the sharded record map.
const recShards = 64

// recShard is one stripe of a party's records.
type recShard struct {
	mu   sync.Mutex
	recs map[string]*txnRecord
	// commit serialises journal batches for the stripe's transactions:
	// see batch.commit. It is held across journal I/O, mu never is.
	commit sync.Mutex
}

// shard returns the stripe txn maps to.
func (p *party) shard(txn string) *recShard {
	h := uint32(2166136261) // FNV-1a
	for i := 0; i < len(txn); i++ {
		h = (h ^ uint32(txn[i])) * 16777619
	}
	return &p.recs[h%recShards]
}

// view runs f on txn's record under its stripe lock and reports whether
// the record exists; it never creates one.
func (p *party) view(txn string, f func(*txnRecord)) bool {
	sh := p.shard(txn)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	r, ok := sh.recs[txn]
	if ok {
		f(r)
	}
	return ok
}

// update runs f on txn's record under its stripe lock, creating the
// record first — seeded from the cold archive when a checkpoint
// compacted the transaction. The bundle is read outside the lock.
func (p *party) update(txn string, f func(*txnRecord)) {
	sh := p.shard(txn)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	r, ok := sh.recs[txn]
	if !ok && p.cold != nil && p.cold.Has(txn) {
		sh.mu.Unlock()
		seed := p.coldRecord(txn)
		sh.mu.Lock()
		if r, ok = sh.recs[txn]; !ok {
			r = seed // nil when the bundle does not read back
		}
	}
	if !ok {
		if r == nil {
			r = &txnRecord{}
		}
		if sh.recs == nil {
			sh.recs = make(map[string]*txnRecord)
		}
		sh.recs[txn] = r
	}
	f(r)
}

// coldRecord rebuilds what a compacted transaction still needs from its
// archived bundle: the terminal state, each sender's floor, the
// outbound floor and the object key the upload bound. Nil when the
// bundle does not read back: a crash before the archive's sync can
// leave an index entry over bytes that never landed.
func (p *party) coldRecord(txn string) *txnRecord {
	b, err := p.cold.Get(txn)
	if err != nil {
		return nil
	}
	r := &txnRecord{state: session.State(b.State), hasState: true, archived: true}
	for _, it := range b.Items {
		h, err := evidence.PeekHeader(it.Blob)
		if err != nil {
			continue
		}
		role := evidence.Role(it.Role)
		r.raise(role, h)
		if role == evidence.RolePeer && h.Kind == evidence.KindNRO && r.object == "" {
			r.object = h.ObjectKey
		}
	}
	return r
}

// HotTxns lists, sorted, every transaction this party holds a record
// for: the live set a checkpoint snapshots, and what compaction has not
// yet moved to the cold archive.
func (p *party) HotTxns() []string {
	var out []string
	for i := range p.recs {
		sh := &p.recs[i]
		sh.mu.Lock()
		for txn := range sh.recs {
			out = append(out, txn)
		}
		sh.mu.Unlock()
	}
	slices.Sort(out)
	return out
}

// txnsHolding lists, sorted, the transactions — live or compacted —
// that hold evidence of the role and kind: the candidate sets of the
// storage-dwell sweeps.
func (p *party) txnsHolding(role evidence.Role, kind evidence.Kind) []string {
	txns := p.HotTxns()
	if p.cold != nil {
		txns = append(txns, p.cold.Transactions()...)
		slices.Sort(txns)
		txns = slices.Compact(txns)
	}
	out := txns[:0]
	for _, txn := range txns {
		if _, err := p.EvidenceByKind(txn, role, kind); err == nil {
			out = append(out, txn)
		}
	}
	return out
}

// fresh is the pure half of the inbound check: the sender's floor in
// the transaction's record, the time limit and nonce freshness. It
// changes nothing, so it runs before the seal is opened and a frame
// that never authenticates leaves no trace.
func (p *party) fresh(h *evidence.Header) error {
	var err error
	p.view(h.TxnID, func(r *txnRecord) { err = r.above(h) })
	if err != nil {
		return err
	}
	return p.guard.Check(h.Nonce, h.TimeLimit, p.clk.Now())
}

// admit is the commit half, run only after the seal opened: under the
// record's lock it re-checks the floor, admits the nonce and raises
// the floor, so of two copies of one valid message exactly one passes.
func (p *party) admit(h *evidence.Header) error {
	var err error
	p.update(h.TxnID, func(r *txnRecord) {
		if err = r.above(h); err == nil {
			if err = p.guard.Admit(h.Nonce); err == nil {
				r.raise(evidence.RolePeer, h)
			}
		}
	})
	return err
}

// nextSeq issues the next outbound sequence number for a transaction.
func (p *party) nextSeq(txn string) uint64 { return p.bumpSeqTo(txn, 0) }

// bumpSeqTo issues the next outbound sequence number past an observed
// inbound one, so replies always exceed what the peer sent. Constant
// time whatever the gap: a peer-supplied number never bounds a loop.
func (p *party) bumpSeqTo(txn string, seen uint64) uint64 {
	var seq uint64
	p.update(txn, func(r *txnRecord) {
		r.outSeq = max(r.outSeq, seen) + 1
		seq = r.outSeq
	})
	return seq
}

// stateOf returns txn's state and whether it has one.
func (p *party) stateOf(txn string) (st session.State, known bool) {
	p.view(txn, func(r *txnRecord) { st, known = r.state, r.hasState })
	return st, known
}

// begin registers txn in StateInit unless it already has a state.
func (p *party) begin(txn string) {
	p.update(txn, func(r *txnRecord) { r.hasState = true })
}

// objectOf returns the object key txn's upload bound, or "".
func (p *party) objectOf(txn string) (key string) {
	p.view(txn, func(r *txnRecord) { key = r.object })
	return key
}

// hotByKind returns the latest hot evidence of the role and kind.
func (p *party) hotByKind(txn string, role evidence.Role, kind evidence.Kind) (ev *evidence.Evidence) {
	p.view(txn, func(r *txnRecord) { ev = r.byKind(role, kind) })
	return ev
}

// overdue returns the non-terminal transactions whose step deadline is
// at or before now, consuming their deadlines so each expiry is
// reported exactly once. The caller drives them to their abort state.
func (p *party) overdue(now time.Time) []string {
	if !p.deadline.enabled() {
		return nil
	}
	var out []string
	for i := range p.recs {
		sh := &p.recs[i]
		sh.mu.Lock()
		for txn, r := range sh.recs {
			if r.deadline.IsZero() || r.deadline.After(now) {
				continue
			}
			r.deadline = time.Time{}
			if r.hasState && !session.Terminal(r.state) {
				out = append(out, txn)
			}
		}
		sh.mu.Unlock()
	}
	return out
}
