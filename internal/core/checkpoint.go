package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"repro/internal/archive"
	"repro/internal/evidence"
	"repro/internal/session"
	"repro/internal/wire"
)

// snapshotMagic versions the checkpoint payload a party hands the WAL.
// v2 is v1 without the archived-transaction list that followed the
// live records.
const (
	snapshotMagic   = "tpnr-snapshot-v2"
	snapshotMagicV1 = "tpnr-snapshot-v1"
)

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
// rename, recovery loads the old snapshot and replays the still-intact
// tail over records seeded from the bundles' terminal states, and the
// next checkpoint merges them back, adding only what each bundle lacks.
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

// compactable reports whether r may be compacted, and with which
// terminal state: a transaction whose state is terminal, or — at the
// TTP, which writes no state — one whose evidence has stopped moving.
// A session with an open resolve stays hot: the claimant's retry needs
// it.
func (p *party) compactable(r *txnRecord) (session.State, bool) {
	switch {
	case r.openRes:
		return 0, false
	case r.hasState:
		return r.state, session.Terminal(r.state)
	case p.stateless:
		return session.StateCompleted, true
	}
	return 0, false
}

// compactTerminalLocked moves every compactable session's evidence from
// its record into the cold archive and deletes the record. Caller holds
// ckptMu, whose write side keeps every commit out, so a candidate's
// evidence cannot move while its bundle is written: the archive I/O
// runs outside the stripe lock, and the inbound checks that take it go
// on meanwhile.
func (p *party) compactTerminalLocked() (int, error) {
	type candidate struct {
		txn   string
		r     *txnRecord
		st    session.State
		ev    [2][]*evidence.Evidence
		filed int // hot items when collected
	}
	n := 0
	for i := range p.recs {
		sh := &p.recs[i]
		var cands []candidate
		sh.mu.Lock()
		for txn, r := range sh.recs {
			st, ok := p.compactable(r)
			if !ok {
				continue
			}
			if !r.hot() {
				// A late message re-seeded the record of an archived
				// session and left nothing new: the bundle already says it.
				if r.archived {
					delete(sh.recs, txn)
				}
				continue
			}
			cands = append(cands, candidate{txn, r, st, r.ev, len(r.ev[0]) + len(r.ev[1])})
		}
		sh.mu.Unlock()
		for _, c := range cands {
			appended, err := p.archiveBundle(c.txn, c.st, c.ev, c.r.archived)
			if err != nil {
				return n, fmt.Errorf("core: archiving %s: %w", c.txn, err)
			}
			if appended {
				n++
			}
		}
		sh.mu.Lock()
		for _, c := range cands {
			// A record ImportEvidence grew meanwhile (it takes no ckptMu)
			// stays for the next pass.
			if len(c.r.ev[0])+len(c.r.ev[1]) == c.filed {
				delete(sh.recs, c.txn)
			}
		}
		sh.mu.Unlock()
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

// archiveBundle appends txn's bundle: its terminal state and its hot
// evidence. With merge, the record was seeded from an earlier bundle —
// late evidence for a compacted session (a resolve query, say), or a
// session recovery rebuilt after a crash beat the snapshot to disk. The
// append replaces that bundle last-wins, so it carries the earlier
// items first, or the session's NRO/NRR would be destroyed, and skips
// a hot item the bundle already holds; when that leaves nothing new it
// writes nothing and reports false.
func (p *party) archiveBundle(txn string, st session.State, ev [2][]*evidence.Evidence, merge bool) (bool, error) {
	b := &archive.Bundle{Txn: txn, State: uint8(st)}
	if merge {
		if old, err := p.cold.Get(txn); err == nil {
			b.Items = old.Items
		}
	}
	held := len(b.Items)
	for role, list := range ev {
		for _, e := range list {
			it := archive.Item{Role: uint8(role + 1), Blob: e.Encode()}
			if !slices.ContainsFunc(b.Items[:held], func(o archive.Item) bool {
				return o.Role == it.Role && bytes.Equal(o.Blob, it.Blob)
			}) {
				b.Items = append(b.Items, it)
			}
		}
	}
	if merge && len(b.Items) == held {
		return false, nil
	}
	return true, p.cold.Append(b)
}

// encodeSnapshotLocked serialises every live record — state, outbound
// sequence, object key, open-resolve flag and hot evidence. Compacted
// sessions are not listed: the cold archive's index knows them. Caller
// holds ckptMu, so no journal+mutate pair is in flight.
func (p *party) encodeSnapshotLocked() ([]byte, int, error) {
	e := wire.NewEncoder(1024)
	e.String(snapshotMagic)
	count := e.Len()
	e.U32(0)
	n := 0
	for _, txn := range p.HotTxns() {
		p.view(txn, func(r *txnRecord) {
			if !r.hasState && !r.hot() && r.object == "" && !r.openRes {
				return // only floors: nothing a snapshot restores
			}
			n++
			e.String(txn)
			e.Bool(r.hasState)
			e.U8(uint8(r.state))
			e.U64(r.outSeq)
			e.String(r.object)
			e.Bool(r.openRes)
			for _, list := range r.ev {
				e.U32(uint32(len(list)))
				for _, ev := range list {
					e.Bytes32(ev.Encode())
				}
			}
		})
	}
	b := e.Bytes()
	binary.BigEndian.PutUint32(b[count:], uint32(n))
	return b, n, nil
}

// restoreSnapshot rebuilds records from a checkpoint payload. Restoring
// over an already-warm party (a second Recover call) changes nothing.
// A tpnr-snapshot-v1 payload still loads: its trailing archived-txn
// list is read past, because the archive index now answers that.
func (p *party) restoreSnapshot(payload []byte, rep *RecoveryReport, seen map[string]bool) error {
	d := wire.NewDecoder(payload)
	v1 := false
	if err := d.Magic(snapshotMagic); err != nil {
		if d = wire.NewDecoder(payload); d.Magic(snapshotMagicV1) != nil {
			return fmt.Errorf("core: unrecognised snapshot format: %w", err)
		}
		v1 = true
	}
	nLive := int(d.U32())
	for i := 0; i < nLive && d.Err() == nil; i++ {
		txn := d.String()
		hasState := d.Bool()
		st := session.State(d.U8())
		outSeq := d.U64()
		object := d.String()
		openRes := d.Bool()
		var items [2][]*evidence.Evidence
		for role := range items {
			n := int(d.U32())
			for j := 0; j < n && d.Err() == nil; j++ {
				ev, err := evidence.Decode(d.Bytes32())
				if err != nil {
					return fmt.Errorf("core: snapshot evidence for %s: %w", txn, err)
				}
				items[role] = append(items[role], ev)
			}
		}
		if d.Err() != nil {
			break
		}
		p.update(txn, func(r *txnRecord) {
			if hasState && !r.archived {
				// A seeded record keeps the bundle's terminal state.
				r.state, r.hasState = st, true
			}
			r.outSeq = max(r.outSeq, outSeq)
			if object != "" {
				r.object = object
			}
			r.openRes = r.openRes || openRes
			for role, list := range items {
				for _, ev := range list {
					p.restoreEvidence(r, evidence.Role(role+1), ev)
				}
			}
		})
		if txn != "" && !seen[txn] {
			seen[txn] = true
			rep.Transactions = append(rep.Transactions, txn)
		}
	}
	if v1 {
		for n := int(d.U32()); n > 0 && d.Err() == nil; n-- {
			d.View32()
			d.U8()
		}
	}
	return d.Finish()
}

// EvidenceByKind returns the latest evidence of the given role and kind
// for txn, consulting the transaction's record first and falling back
// to the cold archive for compacted sessions. This is the dispute read
// path: it never replays the journal.
func (p *party) EvidenceByKind(txn string, role evidence.Role, kind evidence.Kind) (*evidence.Evidence, error) {
	if ev := p.hotByKind(txn, role, kind); ev != nil {
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
