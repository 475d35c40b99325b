package core

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/evidence"
	"repro/internal/session"
	"repro/internal/wire"
)

// Journal record kinds. One record per protocol transition; the union
// of replayed records reconstructs a party's archive, tracker, replay
// guard and sequence counters after a crash.
const (
	jrEvidence uint8 = iota + 1 // an archived evidence item (own or peer)
	jrState                     // a tracker state transition
	jrObject                    // provider: txn → stored object key binding
	jrResolve                   // TTP: a resolve opened (aux=1) or closed (aux=2)
)

// Resolve phases carried in journalRecord.Aux for jrResolve.
const (
	jrResolveOpen   uint8 = 1
	jrResolveClosed uint8 = 2
)

// journalRecord is the decoded form of one WAL payload.
type journalRecord struct {
	Kind uint8
	Txn  string
	// Aux is kind-dependent: the evidence.Role for jrEvidence, the
	// session.State for jrState, the phase for jrResolve.
	Aux uint8
	// Note is kind-dependent: the object key for jrObject, the outcome
	// note for jrResolve.
	Note string
	// Blob is the encoded evidence for jrEvidence.
	Blob []byte
}

const journalMagic = "tpnr-journal-v1"

func (r *journalRecord) encode() []byte {
	e := wire.NewEncoder(64 + len(r.Note) + len(r.Blob))
	e.String(journalMagic)
	e.U8(r.Kind)
	e.String(r.Txn)
	e.U8(r.Aux)
	e.String(r.Note)
	e.Bytes32(r.Blob)
	return e.Bytes()
}

func decodeJournalRecord(b []byte) (*journalRecord, error) {
	d := wire.NewDecoder(b)
	if err := d.Magic(journalMagic); err != nil {
		return nil, fmt.Errorf("core: bad journal record: %w", err)
	}
	r := &journalRecord{}
	r.Kind = d.U8()
	r.Txn = d.String()
	r.Aux = d.U8()
	r.Note = d.String()
	r.Blob = d.Bytes32()
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("core: malformed journal record: %v", err)
	}
	return r, nil
}

// Replicator is the evidence-journal replication hook (implemented by
// replica.Group): after a record lands in the local WAL at lsn,
// Replicate blocks until a write quorum of followers holds it durably
// — only then may the party ack the protocol step that journaled it
// (journal-on-quorum-before-ack). Quorum reports nil while the write
// quorum is reachable; a non-nil result is folded into the provider's
// Health so admission refuses NEW sessions until anti-entropy repair
// restores the quorum.
type Replicator interface {
	Replicate(lsn uint64) error
	Quorum() error
}

// journalAppend appends one protocol step's encoded records as one
// journal batch — one write, one flush — and, with a Replicator
// attached, waits once for the last record's LSN to reach the write
// quorum; a nil journal is a no-op (parties without a WAL run exactly
// as before). On a journal already poisoned by a sticky I/O error the
// append is skipped rather than failed: degraded mode refuses NEW
// bindings at admission (handleUpload), and failing every in-flight
// transition here would also break the abort/resolve paths that must
// keep working to drain existing sessions.
//
// The quorum wait extends journal-before-ack across machines: the NRR
// at upload-binding is not sent until quorum nodes could each prove
// the binding after losing any single node. A quorum timeout fails
// THIS append (its step is correctly not acked) and degrades the
// group; while degraded, Replicate drains without waiting — mirroring
// the local degraded-skip policy above — and admission refuses new
// sessions via Health until repair restores the quorum.
func (p *party) journalAppend(recs [][]byte) error {
	if p.journal == nil {
		return nil
	}
	if p.journal.Healthy() != nil {
		coreDegradedSkips.Inc()
		return nil
	}
	lsn, err := p.journal.AppendBatch(recs)
	if err != nil {
		return fmt.Errorf("core: journaling %s transition: %w", p.id.Name, err)
	}
	if p.repl != nil {
		if err := p.repl.Replicate(lsn); err != nil {
			return fmt.Errorf("%w: %s journal LSN %d not on quorum: %v",
				ErrQuorumUnavailable, p.id.Name, lsn, err)
		}
	}
	return nil
}

// batch is one protocol step's journal records for one transaction
// and the in-memory effects they license. A step queues what it must
// make durable before its message leaves — evidence, tracker
// transitions, role-specific bindings — and commits once: one journal
// write, one flush, one quorum wait. The effects (archive, tracker,
// maps) become visible only after the commit made the records durable,
// so no other goroutine can act on state a crash could still take
// back.
type batch struct {
	p     *party
	txn   string
	steps []batchStep
	// stateErr is the first queued transition the tracker refused at
	// commit (out of a terminal state): it was neither journaled nor
	// applied.
	stateErr error
	// buf backs steps for the common step sizes (an upload's provider
	// side queues five), so queueing allocates nothing.
	buf [6]batchStep
}

// batchStep is one queued record — encoded — with its effect: an
// evidence item for the archive, a tracker transition (checked against
// the tracker at commit), or a role-specific apply func.
type batchStep struct {
	rec   []byte
	kind  uint8
	role  evidence.Role
	ev    *evidence.Evidence
	state session.State
	apply func()
}

func (p *party) newBatch(txn string) *batch {
	b := &batch{p: p, txn: txn}
	b.steps = b.buf[:0]
	return b
}

// evidence queues an evidence item for the journal and the archive.
func (b *batch) evidence(role evidence.Role, ev *evidence.Evidence) *batch {
	r := journalRecord{Kind: jrEvidence, Txn: b.txn, Aux: uint8(role), Blob: ev.Encode()}
	b.steps = append(b.steps, batchStep{rec: r.encode(), kind: jrEvidence, role: role, ev: ev})
	return b
}

// state queues a tracker transition. Replay applies journaled
// transitions unconditionally, so an illegal one (out of a terminal
// state) must not be journaled: commit checks each against the
// tracker, in order, and drops the ones it refuses (see stateErr).
func (b *batch) state(next session.State) *batch {
	r := journalRecord{Kind: jrState, Txn: b.txn, Aux: uint8(next)}
	b.steps = append(b.steps, batchStep{rec: r.encode(), kind: jrState, state: next})
	return b
}

// record queues a role-specific record (an object binding, a resolve
// phase) with the effect it licenses.
func (b *batch) record(r journalRecord, apply func()) *batch {
	b.steps = append(b.steps, batchStep{rec: r.encode(), kind: r.Kind, apply: apply})
	return b
}

// commit journals the queued records as one batch and then applies
// their effects. It holds ckptMu's read side across both, so a
// checkpoint can never snapshot between the records and their effects,
// and the transaction's commit lock, so the tracker check, the journal
// write and the tracker update are one step against every other
// commit for the transaction (the expiry reaper's included). On a
// journal failure nothing is applied and the caller must not ack.
func (b *batch) commit() error {
	p := b.p
	p.ckptMu.RLock()
	defer p.ckptMu.RUnlock()
	mu := p.commitLock(b.txn)
	mu.Lock()
	defer mu.Unlock()

	cur, gerr := p.tracker.Get(b.txn)
	known := gerr == nil
	recs := make([][]byte, 0, len(b.steps))
	keep := b.steps[:0]
	for _, st := range b.steps {
		if st.kind == jrState {
			if known && session.Terminal(cur) {
				if b.stateErr == nil {
					b.stateErr = fmt.Errorf("%w: %s is %s", session.ErrTxncompleted, b.txn, cur)
				}
				continue
			}
			cur, known = st.state, true
		}
		recs = append(recs, st.rec)
		keep = append(keep, st)
	}
	b.steps = keep
	if len(recs) > 0 {
		if err := p.journalAppend(recs); err != nil {
			return err
		}
	}
	for _, st := range b.steps {
		switch {
		case st.kind == jrEvidence:
			p.archive.Put(b.txn, st.role, st.ev)
		case st.kind == jrState:
			p.applyState(b.txn, st.state)
		case st.apply != nil:
			st.apply()
		}
	}
	return nil
}

// commitShards sizes the striped per-transaction commit lock.
const commitShards = 64

// commitLock returns the stripe of the commit lock that txn maps to.
func (p *party) commitLock(txn string) *sync.Mutex {
	h := uint32(2166136261) // FNV-1a
	for i := 0; i < len(txn); i++ {
		h = (h ^ uint32(txn[i])) * 16777619
	}
	return &p.commitMu[h%commitShards]
}

// applyState applies a transition commit has already checked and
// journaled, with the step-deadline bookkeeping: every accepted
// transition restamps the transaction's deadline; reaching a terminal
// state clears it. Only parties configured with WithDeadlinePolicy pay
// for the deadlines.
func (p *party) applyState(txn string, next session.State) {
	if _, err := p.tracker.Get(txn); err != nil {
		p.tracker.Begin(txn)
	}
	p.tracker.Transition(txn, next)
	if p.deadline.enabled() {
		if session.Terminal(next) {
			p.tracker.ClearDeadline(txn)
		} else {
			p.tracker.SetDeadline(txn, p.clk.Now().Add(p.deadline.Step))
		}
	}
}

// putEvidence journals an evidence item and then archives it — a batch
// of one, for the steps that have nothing else to make durable with
// it. On journal failure the item is not archived and the caller must
// not ack.
func (p *party) putEvidence(txn string, role evidence.Role, ev *evidence.Evidence) error {
	return p.newBatch(txn).evidence(role, ev).commit()
}

// setState journals and applies one tracker transition — a batch of
// one. It reports the tracker's refusal of a transition out of a
// terminal state (first-wins for the expiry reaper's abort claim).
func (p *party) setState(txn string, next session.State) error {
	b := p.newBatch(txn).state(next)
	if err := b.commit(); err != nil {
		return err
	}
	return b.stateErr
}

// RecoveryReport summarizes a journal replay for the operator and the
// recovery driver.
type RecoveryReport struct {
	// Records is how many journal records were replayed.
	Records int
	// TornTail is true when the WAL dropped a torn final record — the
	// crash hit mid-append, so the corresponding message was never
	// acked.
	TornTail bool
	// Transactions is every transaction seen in the journal.
	Transactions []string
	// NeedsResolve lists transactions left non-terminal by the crash;
	// per §4.3 the party should escalate them to the TTP.
	NeedsResolve []string
	// HonoredAborts lists aborted transactions whose stored objects were
	// re-deleted during recovery (provider only).
	HonoredAborts []string
	// OpenResolves lists resolve procedures opened but not closed (TTP
	// only).
	OpenResolves []string
	// SnapshotLSN is the journal position the loaded checkpoint covers;
	// zero when recovery replayed from genesis (no usable snapshot).
	SnapshotLSN uint64
	// TailRecords is how many journal records sat past the snapshot —
	// the bounded portion recovery actually replayed.
	TailRecords int
	// ArchivedSessions counts terminal sessions resident in the cold
	// archive after recovery.
	ArchivedSessions int
	// SkippedArchived counts tail records ignored because their
	// transaction was already compacted into the cold archive.
	SkippedArchived int
}

// recoverBase rebuilds the state every party shares — evidence archive,
// tracker, replay guard and outbound sequence counters — from the
// newest usable checkpoint snapshot plus the journal tail past it. With
// no snapshot the tail IS the whole journal, which degrades to the old
// full-replay behaviour. extra (may be nil) sees each tail record for
// role-specific state (the provider's object map, the TTP's resolve
// ledger); records for transactions already compacted into the cold
// archive are skipped — their evidence is served from the archive, not
// re-materialised hot. Every restore path is idempotent (PutIfAbsent,
// Restore, SkipTo, Observe), so calling Recover twice yields the state
// of calling it once.
func (p *party) recoverBase(ctx context.Context, extra func(*journalRecord) error) (*RecoveryReport, error) {
	rep := &RecoveryReport{}
	if p.journal == nil {
		return rep, nil
	}
	seen := make(map[string]bool)
	if payload, lsn, ok := p.journal.LoadCheckpoint(); ok {
		if err := p.restoreSnapshot(payload, rep, seen); err != nil {
			return nil, err
		}
		rep.SnapshotLSN = lsn
	}
	err := p.journal.ReplayTail(func(raw []byte) error {
		if err := CheckContext(ctx); err != nil {
			return err
		}
		r, err := decodeJournalRecord(raw)
		if err != nil {
			return err
		}
		rep.TailRecords++
		if p.isArchived(r.Txn) {
			// Post-compaction record for an archived session (late resolve
			// traffic): the archive already serves this session's evidence.
			rep.SkippedArchived++
			return nil
		}
		rep.Records++
		if r.Txn != "" && !seen[r.Txn] {
			seen[r.Txn] = true
			rep.Transactions = append(rep.Transactions, r.Txn)
		}
		switch r.Kind {
		case jrEvidence:
			ev, err := evidence.Decode(r.Blob)
			if err != nil {
				return fmt.Errorf("core: journal evidence for %s: %w", r.Txn, err)
			}
			role := evidence.Role(r.Aux)
			p.archive.PutIfAbsent(r.Txn, role, ev)
			h := ev.Header
			if role == evidence.RoleOwn && h.SenderID == p.id.Name {
				// Our own outbound message: the counter must never reuse
				// its sequence number.
				p.seqMu.Lock()
				c, ok := p.seqs[r.Txn]
				if !ok {
					c = &session.Counter{}
					p.seqs[r.Txn] = c
				}
				p.seqMu.Unlock()
				c.SkipTo(h.Seq)
			} else if role == evidence.RolePeer {
				// A peer message we accepted: the guard must keep
				// rejecting replays of it.
				p.guard.Observe(h.TxnID+"|"+h.SenderID, h.Seq, h.Nonce)
			}
		case jrState:
			p.tracker.Restore(r.Txn, session.State(r.Aux))
		}
		if extra != nil {
			return extra(r)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	rep.TornTail = p.journal.Truncated()
	rep.ArchivedSessions = p.archivedCount()
	for _, txn := range rep.Transactions {
		st, err := p.tracker.Get(txn)
		if err != nil {
			// Evidence without any state transition: the crash hit between
			// archiving and the first transition — treat as unfinished.
			rep.NeedsResolve = append(rep.NeedsResolve, txn)
			continue
		}
		if !session.Terminal(st) {
			rep.NeedsResolve = append(rep.NeedsResolve, txn)
		}
	}
	return rep, nil
}
