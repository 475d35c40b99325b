package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"time"
)

// ErrCompacted reports an LSN-ranged read that starts below the
// journal's checkpoint boundary: the records were truncated away and
// only the snapshot covers them. A replication leader seeing this must
// ship the snapshot itself (InstallSnapshot on the follower) and then
// stream the tail.
var ErrCompacted = errors.New("wal: requested records compacted into the checkpoint")

// ReadBatchFromLSN copies up to max (≥ 0) records with LSN strictly
// greater than `after` out of the journal — oldest first, contiguous,
// so the i-th record returned has LSN after+1+i — and reports whether
// more records remain past the batch. It is the replication read path:
// a leader streams a follower everything past the follower's durable
// high-water mark, and the same call serves live streaming, restart
// catch-up and anti-entropy backfill — they differ only in how far
// behind `after` is.
//
// The read costs O(batch), not O(tail): the journal's offset index
// names each live record's segment, offset and length, so the batch is
// located by arithmetic and read with one ReadAt per segment it
// touches. Each record's length and CRC are checked again on the way
// out (ErrCorrupt if the disk changed under the journal), and the
// records are capped sub-slices of one fresh buffer, aliasing nothing
// the journal keeps. Records written but not yet durable (SyncBatch,
// SyncGroup) are flushed first, so a follower never acks a record the
// leader could still lose.
//
// The copies are taken under one lock acquisition and the lock is
// released before the caller touches them: this is the replication
// send path, and network writes must never happen under the journal
// lock (a stalled follower connection would otherwise block every
// concurrent Append).
//
// When `after` precedes the checkpoint boundary the requested records
// no longer exist as records and ErrCompacted is returned; the caller
// bootstraps the follower from the snapshot instead (LoadCheckpoint +
// InstallSnapshot) and retries from the snapshot LSN.
func (w *WAL) ReadBatchFromLSN(after uint64, max int) (recs [][]byte, more bool, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil, false, ErrClosed
	}
	if err := w.syncForReadLocked(); err != nil {
		return nil, false, err
	}
	base := w.lsn - uint64(len(w.index))
	if after < base {
		return nil, false, fmt.Errorf("%w: tail starts after LSN %d, requested after %d", ErrCompacted, base, after)
	}
	if after >= w.lsn {
		return nil, false, nil
	}
	slots := w.index[after-base:]
	if len(slots) > max {
		slots, more = slots[:max], true
	}
	if recs, err = w.readSlotsLocked(slots); err != nil {
		return nil, false, err
	}
	return recs, more, nil
}

// syncForReadLocked makes every record written so far durable before a
// read ships it to a follower, whose ack must carry the same promise
// as the leader's own append. Under SyncAlways every written record is
// already synced, so it issues no fsync; under SyncBatch and SyncGroup
// it flushes through fsyncLocked, so the flush is counted. SyncNever
// ships what the OS has. Callers hold w.mu; it is released while an
// in-flight group fsync finishes.
func (w *WAL) syncForReadLocked() error {
	if w.opt.Policy == SyncNever || w.appendSeq == w.syncedSeq {
		return nil
	}
	w.waitFlush()
	switch {
	case w.closed:
		return ErrClosed
	case w.ioErr != nil:
		return w.ioErr
	case w.syncErr != nil:
		return w.syncErr
	case w.appendSeq > w.syncedSeq:
		if err := w.fsyncLocked(); err != nil {
			return fmt.Errorf("wal: fsync before read: %w", err)
		}
	}
	return nil
}

// readSlotsLocked reads the records slots locate (consecutive LSNs)
// into one buffer, with one ReadAt per segment they touch — a
// segment's records sit back to back on disk — and verifies each
// header against its slot and each payload against its CRC. Callers
// hold w.mu.
func (w *WAL) readSlotsLocked(slots []recSlot) ([][]byte, error) {
	if len(slots) == 0 {
		return nil, nil
	}
	size := 0
	for _, s := range slots {
		size += recHeaderLen + int(s.n)
	}
	buf := make([]byte, size)
	recs := make([][]byte, len(slots))
	p := 0
	for i := 0; i < len(slots); {
		j, end := i, p
		for ; j < len(slots) && slots[j].seg == slots[i].seg; j++ {
			end += recHeaderLen + int(slots[j].n)
		}
		if err := w.readSegmentAt(int(slots[i].seg), buf[p:end], slots[i].off); err != nil {
			return nil, err
		}
		for ; i < j; i++ {
			s := slots[i]
			body := p + recHeaderLen
			next := body + int(s.n)
			rec := buf[body:next:next]
			if binary.BigEndian.Uint32(buf[p:]) != s.n || crc32.ChecksumIEEE(rec) != binary.BigEndian.Uint32(buf[p+4:]) {
				return nil, fmt.Errorf("%w: %s: record at offset %d changed on disk", ErrCorrupt, segName(int(s.seg)), s.off)
			}
			recs[i] = rec
			p = next
		}
	}
	return recs, nil
}

// readSegmentAt fills b from segment seg at offset off: the current
// segment through the journal's open handle, an older one through a
// handle opened for this read. Callers hold w.mu, so the current
// segment cannot rotate or close underneath.
func (w *WAL) readSegmentAt(seg int, b []byte, off int64) error {
	f := w.f
	if seg != w.segIndex {
		var err error
		if f, err = os.Open(w.segPath(seg)); err != nil {
			return fmt.Errorf("wal: opening segment for read: %w", err)
		}
		defer f.Close()
	}
	if _, err := f.ReadAt(b, off); err != nil {
		if errors.Is(err, io.EOF) {
			return fmt.Errorf("%w: %s: short read at offset %d", ErrCorrupt, segName(seg), off)
		}
		return fmt.Errorf("wal: reading segment: %w", err)
	}
	return nil
}

// InstallSnapshot makes state the journal's checkpoint at the given
// (leader-assigned) LSN, discarding every local record — the follower
// bootstrap path when its high-water mark fell below the leader's
// compaction horizon. After it returns, the journal's LSN numbering is
// aligned with the leader's: the next appended record gets lsn+1, and
// a recovery over this journal restores the snapshot and replays the
// replicated tail exactly as the leader itself would.
func (w *WAL) InstallSnapshot(state []byte, lsn uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	if w.ioErr != nil {
		return w.ioErr
	}
	if w.syncErr != nil {
		return w.syncErr
	}
	w.waitFlush()
	if w.closed {
		return ErrClosed
	}
	if err := w.fsyncLocked(); err != nil {
		return fmt.Errorf("wal: snapshot-install fsync: %w", err)
	}
	// Rotate so the installed boundary is a segment boundary, exactly
	// like a locally taken checkpoint.
	if err := w.f.Close(); err != nil {
		w.setErrLocked(fmt.Errorf("wal: closing segment for snapshot install: %w", err))
		return w.ioErr
	}
	if err := w.newSegment(w.segIndex + 1); err != nil {
		w.setErrLocked(err)
		return w.ioErr
	}
	walRotations.Inc()

	ck := &Checkpoint{
		LSN:     lsn,
		TailSeg: w.segIndex,
		Taken:   time.Now(),
		payload: append([]byte(nil), state...),
	}
	if err := w.writeCheckpointFile(ck); err != nil {
		return err
	}
	prev := w.ckpt
	w.ckpt = ck
	// The local records are all below the installed boundary now; the
	// truncation below removes them and the counters reset with them.
	w.lsn = lsn
	w.records = 0
	w.index = w.index[:0]
	w.sinceSync = 0
	walCheckpoints.Inc()
	w.pruneCheckpoints(ck, prev)
	return w.truncateCoveredLocked(ck.TailSeg)
}
