package core

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/archive"
	"repro/internal/evidence"
	"repro/internal/session"
	"repro/internal/wire"
)

// snapshotMagic versions the checkpoint payload a party hands the WAL.
const snapshotMagic = "tpnr-snapshot-v1"

// CheckpointReport summarises one Checkpoint call.
type CheckpointReport struct {
	// LSN is the journal position the snapshot covers: every record at
	// or below it is subsumed by the snapshot (and, for archived
	// sessions, by the cold archive).
	LSN uint64
	// Archived counts terminal sessions compacted into the cold archive
	// by this checkpoint.
	Archived int
	// Retained counts live (non-archived) sessions captured in the
	// snapshot.
	Retained int
}

// Checkpoint compacts terminal sessions into the cold archive (when one
// is attached), snapshots the remaining live-session state, and hands
// the snapshot to the journal — which truncates every sealed segment
// the snapshot covers. After a crash, Recover loads the snapshot and
// replays only the journal tail, so recovery time is bounded by the
// checkpoint interval instead of the journal's lifetime length.
//
// Ordering is what makes a crash at any point safe: evidence moves to
// the archive (appended, synced) strictly BEFORE the journal forgets
// it. If the process dies after archiving but before the snapshot
// rename, the old snapshot plus the still-intact tail re-materialise
// the sessions hot, and the next checkpoint re-appends them — the
// archive's last-wins reads make the re-append idempotent.
func (p *party) Checkpoint() (*CheckpointReport, error) {
	if p.journal == nil {
		return nil, errors.New("core: checkpoint requires a journal (WithJournal)")
	}
	// Writer side of ckptMu: no journal+mutate pair may straddle the
	// snapshot while it is built.
	p.ckptMu.Lock()
	defer p.ckptMu.Unlock()

	rep := &CheckpointReport{}
	if p.cold != nil {
		n, err := p.compactTerminalLocked()
		if err != nil {
			return nil, err
		}
		rep.Archived = n
	}
	snap, retained, err := p.encodeSnapshotLocked()
	if err != nil {
		return nil, err
	}
	rep.Retained = retained
	lsn, err := p.journal.Checkpoint(snap)
	if err != nil {
		return nil, err
	}
	rep.LSN = lsn
	return rep, nil
}

// eligibleFor reports whether txn may be compacted, and with which
// terminal state. The default rule — tracker state exists and is
// terminal — is overridden by roles with extra liveness (the TTP keeps
// sessions with open resolves hot).
func (p *party) eligibleFor(txn string) (session.State, bool) {
	if p.eligible != nil {
		return p.eligible(txn)
	}
	st, err := p.tracker.Get(txn)
	if err != nil || !session.Terminal(st) {
		return 0, false
	}
	return st, true
}

// compactTerminalLocked moves every eligible terminal session's
// evidence from the hot store into the cold archive. Caller holds
// ckptMu.
func (p *party) compactTerminalLocked() (int, error) {
	n := 0
	for _, txn := range p.archive.Transactions() {
		st, ok := p.eligibleFor(txn)
		if !ok {
			continue
		}
		b := &archive.Bundle{Txn: txn, State: uint8(st)}
		if p.isArchived(txn) {
			// Late evidence for an already-compacted session (a resolve
			// query, say) landed hot again. The re-append below replaces
			// the cold bundle last-wins, so it must carry the original
			// items too or the session's NRO/NRR would be destroyed.
			if old, err := p.cold.Get(txn); err == nil {
				b.Items = old.Items
			}
		}
		for _, role := range []evidence.Role{evidence.RoleOwn, evidence.RolePeer} {
			for _, ev := range p.archive.All(txn, role) {
				b.Items = append(b.Items, archive.Item{Role: uint8(role), Blob: ev.Encode()})
			}
		}
		if err := p.cold.Append(b); err != nil {
			return n, fmt.Errorf("core: archiving %s: %w", txn, err)
		}
		p.archive.Drop(txn)
		p.markArchived(txn, st)
		n++
	}
	if n > 0 {
		// One sync for the whole batch: the WAL still holds every record
		// for these sessions until the snapshot lands, so the archive
		// write needs no per-bundle durability.
		if err := p.cold.Sync(); err != nil {
			return n, fmt.Errorf("core: syncing archive: %w", err)
		}
	}
	return n, nil
}

func (p *party) isArchived(txn string) bool {
	p.archMu.Lock()
	defer p.archMu.Unlock()
	_, ok := p.archived[txn]
	return ok
}

func (p *party) markArchived(txn string, st session.State) {
	p.archMu.Lock()
	p.archived[txn] = st
	p.archMu.Unlock()
}

func (p *party) archivedCount() int {
	p.archMu.Lock()
	defer p.archMu.Unlock()
	return len(p.archived)
}

// archivedSorted returns the archived set as (txn, state) pairs in
// deterministic order for the snapshot.
func (p *party) archivedSorted() ([]string, map[string]session.State) {
	p.archMu.Lock()
	defer p.archMu.Unlock()
	txns := make([]string, 0, len(p.archived))
	states := make(map[string]session.State, len(p.archived))
	for txn, st := range p.archived {
		txns = append(txns, txn)
		states[txn] = st
	}
	sort.Strings(txns)
	return txns, states
}

// encodeSnapshotLocked serialises the party's live-session state — hot
// evidence, tracker states, outbound sequence counters, role extras —
// plus the terminal-session index. Caller holds ckptMu, so no
// journal+mutate pair is in flight.
func (p *party) encodeSnapshotLocked() ([]byte, int, error) {
	live := make(map[string]bool)
	for _, txn := range p.archive.Transactions() {
		live[txn] = true
	}
	for _, txn := range p.tracker.Transactions() {
		if !p.isArchived(txn) {
			live[txn] = true
		}
	}
	txns := make([]string, 0, len(live))
	for txn := range live {
		txns = append(txns, txn)
	}
	sort.Strings(txns)

	e := wire.NewEncoder(1024)
	e.String(snapshotMagic)
	e.U32(uint32(len(txns)))
	for _, txn := range txns {
		e.String(txn)
		st, serr := p.tracker.Get(txn)
		e.Bool(serr == nil)
		e.U8(uint8(st))
		p.seqMu.Lock()
		c := p.seqs[txn]
		p.seqMu.Unlock()
		var cur uint64
		if c != nil {
			cur = c.Current()
		}
		e.U64(cur)
		note, flag := "", false
		if p.snapExtra != nil {
			note, flag = p.snapExtra(txn)
		}
		e.String(note)
		e.Bool(flag)
		for _, role := range []evidence.Role{evidence.RoleOwn, evidence.RolePeer} {
			items := p.archive.All(txn, role)
			e.U32(uint32(len(items)))
			for _, ev := range items {
				e.Bytes32(ev.Encode())
			}
		}
	}
	archTxns, archStates := p.archivedSorted()
	e.U32(uint32(len(archTxns)))
	for _, txn := range archTxns {
		e.String(txn)
		e.U8(uint8(archStates[txn]))
	}
	return e.Bytes(), len(txns), nil
}

// restoreSnapshot rebuilds party state from a checkpoint payload. Items
// land via PutIfAbsent so restoring over an already-warm party (a
// second Recover call) changes nothing.
func (p *party) restoreSnapshot(payload []byte, rep *RecoveryReport, seen map[string]bool) error {
	d := wire.NewDecoder(payload)
	if err := d.Magic(snapshotMagic); err != nil {
		return fmt.Errorf("core: unrecognised snapshot format: %w", err)
	}
	nLive := int(d.U32())
	for i := 0; i < nLive && d.Err() == nil; i++ {
		txn := d.String()
		hasState := d.Bool()
		st := session.State(d.U8())
		seqCur := d.U64()
		note := d.String()
		flag := d.Bool()
		if d.Err() != nil {
			break
		}
		if hasState {
			p.tracker.Restore(txn, st)
		}
		if seqCur > 0 {
			p.seqMu.Lock()
			c, ok := p.seqs[txn]
			if !ok {
				c = &session.Counter{}
				p.seqs[txn] = c
			}
			p.seqMu.Unlock()
			c.SkipTo(seqCur)
		}
		for _, role := range []evidence.Role{evidence.RoleOwn, evidence.RolePeer} {
			n := int(d.U32())
			for j := 0; j < n && d.Err() == nil; j++ {
				ev, err := evidence.Decode(d.Bytes32())
				if err != nil {
					return fmt.Errorf("core: snapshot evidence for %s: %w", txn, err)
				}
				p.archive.PutIfAbsent(txn, role, ev)
				if role == evidence.RolePeer {
					h := ev.Header
					p.guard.Observe(h.TxnID+"|"+h.SenderID, h.Seq, h.Nonce)
				}
			}
		}
		if p.restoreExtra != nil {
			p.restoreExtra(txn, note, flag)
		}
		if txn != "" && !seen[txn] {
			seen[txn] = true
			rep.Transactions = append(rep.Transactions, txn)
		}
	}
	nArch := int(d.U32())
	for i := 0; i < nArch && d.Err() == nil; i++ {
		txn := d.String()
		st := session.State(d.U8())
		if d.Err() != nil {
			break
		}
		p.markArchived(txn, st)
		// The tracker keeps the terminal state so resolve handlers can
		// still consult it for compacted sessions.
		p.tracker.Restore(txn, st)
	}
	return d.Finish()
}

// EvidenceByKind returns the latest evidence of the given role and kind
// for txn, consulting the hot store first and falling back to the cold
// archive for compacted sessions. This is the dispute read path: it
// never replays the journal.
func (p *party) EvidenceByKind(txn string, role evidence.Role, kind evidence.Kind) (*evidence.Evidence, error) {
	if ev, err := p.archive.ByKind(txn, role, kind); err == nil {
		return ev, nil
	}
	if ev, err := p.coldByKind(txn, role, kind); err == nil {
		return ev, nil
	}
	return nil, fmt.Errorf("%w: %s (%s, %s)", evidence.ErrNoEvidence, txn, role, kind)
}

// coldByKind searches the cold archive bundle for txn, newest item
// first (compaction appends in arrival order).
func (p *party) coldByKind(txn string, role evidence.Role, kind evidence.Kind) (*evidence.Evidence, error) {
	if p.cold == nil {
		return nil, fmt.Errorf("%w: %s (no cold archive)", evidence.ErrNoEvidence, txn)
	}
	b, err := p.cold.Get(txn)
	if err != nil {
		return nil, err
	}
	for i := len(b.Items) - 1; i >= 0; i-- {
		it := b.Items[i]
		if evidence.Role(it.Role) != role {
			continue
		}
		ev, derr := evidence.Decode(it.Blob)
		if derr != nil {
			return nil, fmt.Errorf("core: cold evidence for %s: %w", txn, derr)
		}
		if ev.Header.Kind == kind {
			return ev, nil
		}
	}
	return nil, fmt.Errorf("%w: %s (%s, %s)", evidence.ErrNoEvidence, txn, role, kind)
}

// ColdArchive exposes the attached cold archive (nil when absent).
func (p *party) ColdArchive() *archive.Store { return p.cold }
