package core

import (
	"context"
	"fmt"

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

// journalAppend encodes and appends one record; a nil journal is a
// no-op (parties without a WAL run exactly as before). On a journal
// already poisoned by a sticky I/O error the append is skipped rather
// than failed: degraded mode refuses NEW bindings at admission
// (handleUpload), and failing every in-flight transition here would
// also break the abort/resolve paths that must keep working to drain
// existing sessions.
//
// With a Replicator attached the append only returns once the record
// is durable on the write quorum, extending journal-before-ack across
// machines: the NRR at upload-binding is not signed until quorum nodes
// could each prove the binding after losing any single node. A quorum
// timeout fails THIS append (its step is correctly not acked) and
// degrades the group; while degraded, Replicate drains without waiting
// — mirroring the local degraded-skip policy above — and admission
// refuses new sessions via Health until repair restores the quorum.
func (p *party) journalAppend(r *journalRecord) error {
	if p.journal == nil {
		return nil
	}
	if p.journal.Healthy() != nil {
		coreDegradedSkips.Inc()
		return nil
	}
	lsn, err := p.journal.AppendLSN(r.encode())
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

// putEvidence journals an evidence item and then archives it. The
// journal write comes FIRST: once the item is in the in-memory archive
// the engine will act on it (send the ack, issue the receipt), and an
// acked transition that is not durable is exactly the half-bound state
// recovery exists to prevent. On journal failure the item is not
// archived and the caller must not ack.
// The journal+archive pair holds ckptMu's read side so a concurrent
// Checkpoint cannot snapshot between the two: the record would land in
// the truncated prefix while its effect missed the snapshot.
func (p *party) putEvidence(txn string, role evidence.Role, ev *evidence.Evidence) error {
	p.ckptMu.RLock()
	defer p.ckptMu.RUnlock()
	if err := p.journalAppend(&journalRecord{
		Kind: jrEvidence, Txn: txn, Aux: uint8(role), Blob: ev.Encode(),
	}); err != nil {
		return err
	}
	p.archive.Put(txn, role, ev)
	return nil
}

// setState journals and applies a tracker transition. The transition is
// attempted first — an illegal transition (e.g. out of a terminal
// state) must not be journaled, because replay applies journaled
// transitions unconditionally. Callers that previously ignored
// Transition errors keep doing so; the journal mirrors exactly what the
// tracker accepted.
//
// Like putEvidence, the mutate+journal pair is bracketed by ckptMu's
// read side — a snapshot built mid-pair would capture the transition
// while the record lands past the checkpoint boundary (harmless), or
// miss the transition while the record is truncated (lost) depending on
// interleaving; the bracket forbids both.
func (p *party) setState(txn string, next session.State) error {
	p.ckptMu.RLock()
	defer p.ckptMu.RUnlock()
	if _, err := p.tracker.Get(txn); err != nil {
		p.tracker.Begin(txn)
	}
	if err := p.tracker.Transition(txn, next); err != nil {
		return err
	}
	// Step-deadline bookkeeping: every accepted transition restamps the
	// transaction's deadline; reaching a terminal state clears it. Only
	// parties configured with WithDeadlinePolicy pay this.
	if p.deadline.enabled() {
		if session.Terminal(next) {
			p.tracker.ClearDeadline(txn)
		} else {
			p.tracker.SetDeadline(txn, p.clk.Now().Add(p.deadline.Step))
		}
	}
	return p.journalAppend(&journalRecord{Kind: jrState, Txn: txn, Aux: uint8(next)})
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
