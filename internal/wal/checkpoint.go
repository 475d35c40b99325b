package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/faultpoint"
	"repro/internal/wire"
)

// Checkpoint/compaction faultpoints: the chaos suite kills the process
// at each of them and proves recovery still resolves every in-flight
// dispute. pre-rename leaves only a tmp file (the snapshot never
// happened); post-rename leaves a durable snapshot with the covered
// segments still on disk; mid-truncate leaves the covered segments
// partially removed.
var (
	fpCheckpointPreRename  = faultpoint.Register("wal.checkpoint.pre-rename")
	fpCheckpointPostRename = faultpoint.Register("wal.checkpoint.post-rename")
	fpCompactMidTruncate   = faultpoint.Register("wal.compact.mid-truncate")
)

const (
	// ckptMagic heads every checkpoint file.
	ckptMagic = "TPNRCKP1"
	// ckptFmt names checkpoint files by the tail segment index their
	// snapshot points at, so names are monotonic and self-ordering.
	ckptFmt = "ckpt-%08d.snap"
	// ckptTmp is the atomic-write staging name. At most one checkpoint
	// is in flight per journal (w.mu serializes them), and a stale tmp
	// from a crashed checkpoint is removed at Open.
	ckptTmp = "ckpt.tmp"
)

// Checkpoint is one durable snapshot of the journal owner's state.
//
// LSN semantics: a record's LSN is its 1-based position in the journal
// since genesis — truncated segments keep counting, so LSNs never
// reuse. A checkpoint covers exactly the records with LSN <= its LSN;
// because Checkpoint rotates the segment before writing the snapshot,
// that boundary is also a segment boundary: every record in segments
// >= TailSeg has LSN > the snapshot LSN, and segments < TailSeg are
// fully covered and safe to truncate.
type Checkpoint struct {
	// LSN is the last record covered by the snapshot.
	LSN uint64
	// TailSeg is the first segment whose records the snapshot does NOT
	// cover — recovery replays segments >= TailSeg over the snapshot.
	TailSeg int
	// Taken is the wall time the snapshot was written (drives the
	// wal_snapshot_age_seconds gauge).
	Taken time.Time

	payload []byte
}

// encodeCheckpoint frames a checkpoint file: magic, then a CRC-guarded
// body. One CRC over the whole body is enough — a checkpoint file is
// all-or-nothing, unlike the record-granular journal segments.
func encodeCheckpoint(ck *Checkpoint) []byte {
	e := wire.NewEncoder(32 + len(ck.payload))
	e.U64(ck.LSN)
	e.U64(uint64(ck.TailSeg))
	e.I64(ck.Taken.UnixNano())
	e.Bytes32(ck.payload)
	body := e.Bytes()
	buf := make([]byte, 0, len(ckptMagic)+8+len(body))
	buf = append(buf, ckptMagic...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(body)))
	buf = binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(body))
	return append(buf, body...)
}

// readCheckpointFile parses and validates one checkpoint file. Any
// damage — short file, bad magic, CRC mismatch, malformed body — is an
// error; the caller discards the file and falls back.
func (w *WAL) readCheckpointFile(path string) (*Checkpoint, error) {
	b, err := w.fs.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(b) < len(ckptMagic)+8 || string(b[:len(ckptMagic)]) != ckptMagic {
		return nil, fmt.Errorf("wal: %s: bad checkpoint header", filepath.Base(path))
	}
	n := binary.BigEndian.Uint32(b[len(ckptMagic):])
	crc := binary.BigEndian.Uint32(b[len(ckptMagic)+4:])
	body := b[len(ckptMagic)+8:]
	if uint32(len(body)) != n {
		return nil, fmt.Errorf("wal: %s: truncated checkpoint body", filepath.Base(path))
	}
	if crc32.ChecksumIEEE(body) != crc {
		return nil, fmt.Errorf("wal: %s: checkpoint checksum mismatch", filepath.Base(path))
	}
	d := wire.NewDecoder(body)
	ck := &Checkpoint{}
	ck.LSN = d.U64()
	ck.TailSeg = int(d.U64())
	ck.Taken = time.Unix(0, d.I64())
	ck.payload = d.Bytes32()
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("wal: %s: malformed checkpoint: %v", filepath.Base(path), err)
	}
	return ck, nil
}

func (w *WAL) ckptPath(tailSeg int) string {
	return filepath.Join(w.dir, fmt.Sprintf(ckptFmt, tailSeg))
}

// Checkpoint makes state the journal's durable snapshot and compacts
// the segments it covers. The sequence is crash-safe at every step:
//
//  1. fsync whatever was appended but is not yet durable (the snapshot
//     must not claim records that are not durable; under SyncAlways
//     nothing is pending and no fsync is issued);
//  2. rotate to a fresh segment, so the snapshot boundary is a segment
//     boundary;
//  3. write the checkpoint file via tmp + fsync + rename + dir fsync —
//     a crash leaves either the old snapshot or the new one, never a
//     half-written current one;
//  4. truncate segments older than the boundary — a crash mid-way, or
//     one that loses the unsynced removals, leaves covered segments
//     that the next Open removes, so the removals need no directory
//     sync.
//
// The previous checkpoint file is retained as the fall-back for a torn
// current one; older files are pruned. Returns the snapshot LSN.
//
// The caller owns snapshot consistency: state must describe everything
// the records with LSN <= the returned value built up, which in
// practice means the owner quiesces its own journal-and-mutate paths
// around Checkpoint (core does this with a party-level RWMutex).
func (w *WAL) Checkpoint(state []byte) (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0, ErrClosed
	}
	if w.ioErr != nil {
		return 0, w.ioErr
	}
	if w.syncErr != nil {
		return 0, w.syncErr
	}
	w.waitFlush()
	if w.closed {
		return 0, ErrClosed
	}
	if err := w.flushPendingLocked(); err != nil {
		return 0, fmt.Errorf("wal: checkpoint fsync: %w", err)
	}
	snapLSN := w.lsn
	if err := w.f.Close(); err != nil {
		w.setErrLocked(fmt.Errorf("wal: closing segment for checkpoint: %w", err))
		return 0, w.ioErr
	}
	if err := w.newSegment(w.segIndex + 1); err != nil {
		w.setErrLocked(err)
		return 0, w.ioErr
	}
	walRotations.Inc()

	ck := &Checkpoint{
		LSN:     snapLSN,
		TailSeg: w.segIndex,
		Taken:   time.Now(),
		payload: append([]byte(nil), state...),
	}
	if err := w.writeCheckpointFile(ck); err != nil {
		return 0, err
	}
	prev := w.ckpt
	w.ckpt = ck
	w.index = w.index[:0]
	walCheckpoints.Inc()
	w.pruneCheckpoints(ck, prev)
	if err := w.truncateCoveredLocked(ck.TailSeg); err != nil {
		return 0, err
	}
	return snapLSN, nil
}

// writeCheckpointFile stages, fsyncs and atomically publishes one
// checkpoint file, then fsyncs the directory so the rename survives a
// crash; a failed directory sync poisons the journal and is returned,
// so the caller never truncates behind a rename that may be lost.
// Callers hold w.mu.
func (w *WAL) writeCheckpointFile(ck *Checkpoint) error {
	tmp := filepath.Join(w.dir, ckptTmp)
	f, err := w.fs.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC)
	if err != nil {
		return fmt.Errorf("wal: staging checkpoint: %w", err)
	}
	if _, err := f.Write(encodeCheckpoint(ck)); err != nil {
		f.Close()
		return fmt.Errorf("wal: writing checkpoint: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("wal: syncing checkpoint: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("wal: closing checkpoint: %w", err)
	}
	faultpoint.Hit(fpCheckpointPreRename)
	if err := w.fs.Rename(tmp, w.ckptPath(ck.TailSeg)); err != nil {
		return fmt.Errorf("wal: publishing checkpoint: %w", err)
	}
	if err := w.syncDir(); err != nil {
		return err
	}
	faultpoint.Hit(fpCheckpointPostRename)
	return nil
}

// pruneCheckpoints removes checkpoint files other than the current one
// and its predecessor (kept as the torn-snapshot fall-back). Callers
// hold w.mu.
func (w *WAL) pruneCheckpoints(cur, prev *Checkpoint) {
	keep := map[int]bool{cur.TailSeg: true}
	if prev != nil {
		keep[prev.TailSeg] = true
	}
	for _, tailSeg := range w.checkpointFiles() {
		if !keep[tailSeg] {
			w.fs.Remove(w.ckptPath(tailSeg))
		}
	}
}

// checkpointFiles lists on-disk checkpoint tail-segment indices in
// ascending order.
func (w *WAL) checkpointFiles() []int {
	names, err := w.fs.ReadDir(w.dir)
	if err != nil {
		return nil
	}
	var out []int
	for _, name := range names {
		var idx int
		if _, err := fmt.Sscanf(name, ckptFmt, &idx); err == nil {
			out = append(out, idx)
		}
	}
	sort.Ints(out)
	return out
}

// truncateCoveredLocked removes segments fully covered by the snapshot
// pointing at tailSeg. The checkpoint file is already durable, so a
// crash anywhere in here — or one that loses removals the directory
// never synced — merely leaves covered segments behind for the next
// Open to finish removing; no directory sync is needed, and the
// crash-state enumerator (internal/crashenum) shows none carries load.
// Callers hold w.mu.
func (w *WAL) truncateCoveredLocked(tailSeg int) error {
	segs, err := w.segments()
	if err != nil {
		return err
	}
	for _, idx := range segs {
		if idx >= tailSeg {
			break
		}
		if err := w.fs.Remove(w.segPath(idx)); err != nil {
			return fmt.Errorf("wal: truncating covered segment: %w", err)
		}
		delete(w.segBytes, idx)
		walCompactedSegs.Inc()
		faultpoint.Hit(fpCompactMidTruncate)
	}
	return nil
}

// loadCheckpoint selects the newest usable snapshot at Open: files are
// tried newest-first; a torn or corrupt file is discarded (counted in
// wal_checkpoint_discarded_total) and the previous one is tried — its
// longer tail still covers the gap, because a newer checkpoint's
// covered segments are only removed AFTER its file is durable. A
// checkpoint whose tail segment no longer exists cannot be used and is
// skipped. Callers hold no locks (Open).
func (w *WAL) loadCheckpoint(segs []int) {
	have := make(map[int]bool, len(segs))
	for _, idx := range segs {
		have[idx] = true
	}
	files := w.checkpointFiles()
	for i := len(files) - 1; i >= 0; i-- {
		path := w.ckptPath(files[i])
		ck, err := w.readCheckpointFile(path)
		if err != nil {
			w.fs.Remove(path)
			walCkptDiscarded.Inc()
			continue
		}
		if !have[ck.TailSeg] {
			continue
		}
		w.ckpt = ck
		return
	}
}

// LoadCheckpoint returns the snapshot payload recovered at Open (and
// updated by successful Checkpoint calls) with its LSN. ok is false
// when the journal has no usable snapshot — the owner replays from
// genesis.
func (w *WAL) LoadCheckpoint() (payload []byte, lsn uint64, ok bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.ckpt == nil {
		return nil, 0, false
	}
	return append([]byte(nil), w.ckpt.payload...), w.ckpt.LSN, true
}

// LSN reports the log sequence number of the last appended record —
// records since genesis, surviving compaction.
func (w *WAL) LSN() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.lsn
}

// TailRecords reports how many records the current snapshot does not
// cover — the replay work a recovery pays after restoring the snapshot,
// and the length of the journal's offset index. Without a snapshot it
// equals Records().
func (w *WAL) TailRecords() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.index)
}

// ReplayTail is Replay restricted to records the current snapshot does
// not cover: the owner restores the snapshot first, then replays only
// this tail. Without a snapshot it replays everything.
func (w *WAL) ReplayTail(fn func(rec []byte) error) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	minSeg := 0
	if w.ckpt != nil {
		minSeg = w.ckpt.TailSeg
	}
	return w.replayLocked(minSeg, fn)
}

// checkpointTime reports when the current snapshot was taken (gauge
// callback).
func (w *WAL) checkpointTime() (time.Time, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.ckpt == nil {
		return time.Time{}, false
	}
	return w.ckpt.Taken, true
}

// segmentCount and activeBytes feed the process-wide size gauges.
func (w *WAL) segmentCount() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.segBytes)
}

func (w *WAL) activeBytes() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	var total int64
	for _, n := range w.segBytes {
		total += n
	}
	return total
}
