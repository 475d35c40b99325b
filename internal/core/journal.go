package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/evidence"
	"repro/internal/session"
	"repro/internal/wire"
)

// Journal record kinds. One record per protocol transition; the union
// of replayed records reconstructs a party's transaction records after
// a crash.
const (
	jrEvidence uint8 = iota + 1 // an archived evidence item (own or peer)
	jrState                     // a session state transition
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
// make durable before its message leaves — evidence, state
// transitions, role-specific bindings — and commits once: one journal
// write, one flush, one quorum wait. The effects on the transaction's
// record become visible only after the commit made the records
// durable, so no other goroutine can act on state a crash could still
// take back.
type batch struct {
	p     *party
	txn   string
	steps []batchStep
	// stateErr is the first queued transition commit refused (out of a
	// terminal state): it was neither journaled nor applied.
	stateErr error
	// buf backs steps for the common step sizes (an upload's provider
	// side queues five), so queueing allocates nothing.
	buf [6]batchStep
}

// batchStep is one queued record — encoded — with its effect on the
// record: an evidence item, a state transition (checked against the
// record's state at commit), or a role-specific apply func.
type batchStep struct {
	rec   []byte
	kind  uint8
	role  evidence.Role
	ev    *evidence.Evidence
	state session.State
	apply func(*txnRecord)
}

func (p *party) newBatch(txn string) *batch {
	b := &batch{p: p, txn: txn}
	b.steps = b.buf[:0]
	return b
}

// evidence queues an evidence item for the journal and the record.
func (b *batch) evidence(role evidence.Role, ev *evidence.Evidence) *batch {
	r := journalRecord{Kind: jrEvidence, Txn: b.txn, Aux: uint8(role), Blob: ev.Encode()}
	b.steps = append(b.steps, batchStep{rec: r.encode(), kind: jrEvidence, role: role, ev: ev})
	return b
}

// state queues a state transition. Replay applies journaled
// transitions unconditionally, so an illegal one (out of a terminal
// state) must not be journaled: commit checks each against the
// record's state, in order, and drops the ones it refuses (see
// stateErr).
func (b *batch) state(next session.State) *batch {
	r := journalRecord{Kind: jrState, Txn: b.txn, Aux: uint8(next)}
	b.steps = append(b.steps, batchStep{rec: r.encode(), kind: jrState, state: next})
	return b
}

// record queues a role-specific record (an object binding, a resolve
// phase) with the effect it licenses.
func (b *batch) record(r journalRecord, apply func(*txnRecord)) *batch {
	b.steps = append(b.steps, batchStep{rec: r.encode(), kind: r.Kind, apply: apply})
	return b
}

// commit journals the queued records as one batch and then applies
// their effects to the transaction's record. It holds ckptMu's read
// side across both, so a checkpoint can never snapshot between the
// records and their effects, and the transaction's commit stripe, so
// the state check, the journal write and the state update are one step
// against every other commit for the transaction (the expiry reaper's
// included). On a journal failure nothing is applied and the caller
// must not ack.
func (b *batch) commit() error {
	p := b.p
	p.ckptMu.RLock()
	defer p.ckptMu.RUnlock()
	sh := p.shard(b.txn)
	sh.commit.Lock()
	defer sh.commit.Unlock()

	var cur session.State
	var known bool
	p.update(b.txn, func(r *txnRecord) { cur, known = r.state, r.hasState })
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
	p.update(b.txn, func(r *txnRecord) {
		for _, st := range b.steps {
			switch {
			case st.kind == jrEvidence:
				r.add(st.role, st.ev)
			case st.kind == jrState:
				p.applyState(r, st.state)
			case st.apply != nil:
				st.apply(r)
			}
		}
	})
	return nil
}

// applyState applies a transition commit has already checked and
// journaled, with the step-deadline bookkeeping: every accepted
// transition restamps the transaction's deadline; reaching a terminal
// state clears it. Only parties configured with WithDeadlinePolicy pay
// for the deadlines.
func (p *party) applyState(r *txnRecord, next session.State) {
	r.state, r.hasState = next, true
	if p.deadline.enabled() {
		if session.Terminal(next) {
			r.deadline = time.Time{}
		} else {
			r.deadline = p.clk.Now().Add(p.deadline.Step)
		}
	}
}

// putEvidence journals an evidence item and then files it in the
// record — a batch of one, for the steps that have nothing else to
// make durable with it. On journal failure the item is not filed and
// the caller must not ack.
func (p *party) putEvidence(txn string, role evidence.Role, ev *evidence.Evidence) error {
	return p.newBatch(txn).evidence(role, ev).commit()
}

// setState journals and applies one state transition — a batch of
// one. It reports the refusal of a transition out of a terminal state
// (first-wins for the expiry reaper's abort claim).
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
}

// recoverBase rebuilds the party's transaction records from the newest
// usable checkpoint snapshot plus the journal tail past it. With no
// snapshot the tail IS the whole journal, which degrades to a full
// replay. Every tail record replays, also for a transaction the cold
// archive holds: the tail may carry late traffic the bundle lacks (a
// resolve answered after the compaction), or, when a crash came
// between a checkpoint's compaction and its snapshot, what the bundle
// already holds, which the next compaction does not add twice. A
// record seeded from a bundle keeps the bundle's terminal state: a
// record compacts only once terminal, and a terminal state never
// changes. Every restore path is idempotent (add deduplicates; states,
// floors and flags are set, not stepped), so calling Recover twice
// yields the state of calling it once.
func (p *party) recoverBase(ctx context.Context) (*RecoveryReport, error) {
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
		rep.Records++
		if r.Txn != "" && !seen[r.Txn] {
			seen[r.Txn] = true
			rep.Transactions = append(rep.Transactions, r.Txn)
		}
		var ev *evidence.Evidence
		if r.Kind == jrEvidence {
			if ev, err = evidence.Decode(r.Blob); err != nil {
				return fmt.Errorf("core: journal evidence for %s: %w", r.Txn, err)
			}
		}
		p.update(r.Txn, func(tr *txnRecord) {
			switch r.Kind {
			case jrEvidence:
				p.restoreEvidence(tr, evidence.Role(r.Aux), ev)
			case jrState:
				if !tr.archived {
					tr.state, tr.hasState = session.State(r.Aux), true
				}
			case jrObject:
				tr.object = r.Note
			case jrResolve:
				tr.openRes = r.Aux == jrResolveOpen
			}
		})
		return nil
	})
	if err != nil {
		return nil, err
	}
	rep.TornTail = p.journal.Truncated()
	if p.cold != nil {
		rep.ArchivedSessions = p.cold.Sessions()
	}
	if p.stateless {
		// The TTP holds no sessions of its own; what a crash leaves it
		// owing is the statements of the resolves it opened.
		for _, txn := range p.HotTxns() {
			p.view(txn, func(r *txnRecord) {
				if r.openRes {
					rep.OpenResolves = append(rep.OpenResolves, txn)
				}
			})
		}
		return rep, nil
	}
	for _, txn := range rep.Transactions {
		// Evidence without any state transition means the crash hit
		// between journaling and the first transition: unfinished too.
		if st, known := p.stateOf(txn); !known || !session.Terminal(st) {
			rep.NeedsResolve = append(rep.NeedsResolve, txn)
		}
	}
	return rep, nil
}

// restoreEvidence files a journaled or snapshotted evidence item in its
// record; a peer's nonce goes back into the window so the party keeps
// rejecting replays of what it accepted before the crash.
func (p *party) restoreEvidence(r *txnRecord, role evidence.Role, ev *evidence.Evidence) {
	r.add(role, ev)
	if role == evidence.RolePeer {
		_ = p.guard.Admit(ev.Header.Nonce) // refused only when already there
	}
}
