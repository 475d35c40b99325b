// Package wal is the durable write-ahead journal under the protocol
// engines' crash recovery. The TPNR dispute story only works if NRO/NRR
// evidence survives until an Arbitrator can see it (§4.4); evidence
// that lives in an in-process map dies with the process, silently
// unbinding both parties. Every protocol transition is therefore
// appended here — length-prefixed, CRC-checksummed, fsynced per the
// configured policy — BEFORE the corresponding message is acked, and
// replayed on startup to rebuild the party's archive and session state.
//
// On-disk layout: dir/wal-%08d.seg, each segment an 8-byte magic header
// followed by records of the form
//
//	u32 payload length | u32 CRC-32 (IEEE) of payload | payload
//
// Appends go to the highest-numbered segment and roll to a new one past
// SegmentSize. A crash mid-append leaves a torn record at the tail of
// the last segment; Open detects it (short read or CRC mismatch) and
// truncates the file back to the last intact record — a torn tail means
// the corresponding message was never acked, so dropping it is exactly
// the §4.3 semantics (the peer escalates to Resolve). Corruption
// anywhere BEFORE the tail is not survivable and surfaces as
// ErrCorrupt: silently skipping interior records could un-bind a party
// that was already acked.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/faultpoint"
	"repro/internal/fsys"
)

// fpAppendENOSPC injects a disk-full/EIO failure at the head of Append
// — the chaos harness uses it to prove degraded mode: a poisoned
// journal refuses new evidence but the provider keeps serving reads.
var fpAppendENOSPC = faultpoint.Register("wal.append.enospc")

// Errors.
var (
	// ErrCorrupt reports a damaged record before the journal tail —
	// unlike a torn tail, interior corruption cannot be safely dropped.
	ErrCorrupt = errors.New("wal: corrupt record before journal tail")
	// ErrClosed is returned from operations on a closed journal.
	ErrClosed = errors.New("wal: journal closed")
	// ErrTooLarge rejects records beyond MaxRecordSize.
	ErrTooLarge = errors.New("wal: record exceeds maximum size")
)

const (
	segMagic = "TPNRWAL1" // 8 bytes at the head of every segment
	segFmt   = "wal-%08d.seg"

	// MaxRecordSize bounds one journal record (evidence plus framing;
	// bulk blob data never enters the journal).
	MaxRecordSize = 16 << 20

	// DefaultSegmentSize is the rotation threshold when Options leaves
	// SegmentSize zero.
	DefaultSegmentSize = 4 << 20

	recHeaderLen = 8 // u32 length + u32 crc
)

// SyncPolicy selects when appended records reach stable storage.
type SyncPolicy int

// Policies, strongest first. SyncAlways is the default: the journal
// exists to survive crashes, so opting OUT of durability is the
// explicit choice.
const (
	// SyncAlways fsyncs after every append — no acked transition can be
	// lost to a crash.
	SyncAlways SyncPolicy = iota
	// SyncBatch fsyncs every Options.BatchSize appends (and on rotation
	// and Close). A crash can lose up to BatchSize-1 acked records.
	SyncBatch
	// SyncNever leaves flushing to the OS. Tests and benchmarks only.
	SyncNever
	// SyncGroup gives the durability of SyncAlways at a fraction of the
	// fsync count: Append returns only once its record is on stable
	// storage, but concurrent appenders coalesce under a single fsync.
	// The first appender to need a flush becomes the leader and fsyncs
	// on behalf of every record written before the flush; followers
	// just wait for the leader's fsync to cover them. N goroutines
	// journaling concurrently pay ~1 fsync instead of N, and the
	// "acked ⇒ synced" guarantee is unchanged.
	SyncGroup
)

// String names the policy for flags and logs.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncBatch:
		return "batch"
	case SyncNever:
		return "none"
	case SyncGroup:
		return "group"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Options tune a journal. The zero value is a safe production default:
// fsync on every append, 4 MiB segments.
type Options struct {
	// SegmentSize is the rotation threshold in bytes (0 means
	// DefaultSegmentSize).
	SegmentSize int64
	// Policy selects the fsync schedule.
	Policy SyncPolicy
	// BatchSize is the append count between fsyncs under SyncBatch
	// (0 means 16). Under SyncGroup it is the max-batch bound: at most
	// BatchSize records may be awaiting one leader fsync (0 means
	// unbounded); an appender past the bound waits for the in-flight
	// flush before writing, trading a little latency for a cap on
	// commit-group size. Other policies ignore it.
	BatchSize int
	// FS is the file system the journal lives on (nil means fsys.OS).
	FS fsys.FS
}

// WAL is an append-only crash-safe record journal. Safe for concurrent
// use.
type WAL struct {
	mu  sync.Mutex
	dir string
	opt Options
	fs  fsys.FS

	f        fsys.File // current (highest) segment, positioned at its end
	segIndex int       // index of the current segment
	segSize  int64     // bytes written to the current segment

	records   int // records appended + replayed-intact at Open
	sinceSync int
	truncated bool
	closed    bool
	syncs     uint64 // fsync syscalls issued (observability)

	// Checkpoint/compaction state. lsn numbers records since genesis —
	// unlike records, it survives compaction, so a snapshot can say
	// exactly which prefix of history it covers. index locates every
	// record the current snapshot does NOT cover, oldest first: index[i]
	// holds the record with LSN lsn-len(index)+1+i. Checkpoint and
	// InstallSnapshot empty it, so it is bounded by the checkpoint cadence
	// exactly as the live segments are; they keep its capacity, so a
	// journal checkpointed at a steady cadence stops allocating for it
	// after the first cycle. segBytes mirrors the size of each live
	// segment for the process gauges.
	lsn      uint64
	index    []recSlot
	ckpt     *Checkpoint
	segBytes map[int]int64

	// Group-commit state (SyncGroup only), guarded by mu. Appends are
	// numbered; the leader fsyncs with mu RELEASED so followers keep
	// appending into the commit window, then advances syncedSeq to
	// everything written before the flush and broadcasts on commitCond.
	commitCond *sync.Cond // lazily initialized, condition variable on mu
	appendSeq  uint64     // records written to the OS
	syncedSeq  uint64     // records known durable
	flushing   bool       // a leader fsync is in flight
	syncErr    error      // sticky: a failed group fsync poisons the journal

	// ioErr is sticky across ALL policies: once a record write or fsync
	// fails (ENOSPC, EIO), no further appends are accepted — an append
	// the journal cannot promise durable must never be acked. Reads
	// (Replay) still work; Healthy surfaces the state so the provider
	// can degrade instead of dying.
	ioErr error
}

// recSlot is one index entry (16 bytes): the segment a live record sits
// in, the offset of its header there, and its payload length.
type recSlot struct {
	off int64
	seg uint32
	n   uint32
}

// cond returns the group-commit condition variable, creating it on
// first use (keeps the zero-value-ish construction in Open simple).
func (w *WAL) cond() *sync.Cond {
	if w.commitCond == nil {
		w.commitCond = sync.NewCond(&w.mu)
	}
	return w.commitCond
}

// Open creates dir if needed, scans existing segments, truncates a torn
// final record, and positions the journal for appending.
func Open(dir string, opt Options) (*WAL, error) {
	if opt.SegmentSize <= 0 {
		opt.SegmentSize = DefaultSegmentSize
	}
	// BatchSize 0 means "unbounded group" under SyncGroup but "default
	// batch of 16" under SyncBatch; normalize only the latter.
	if opt.Policy == SyncBatch && opt.BatchSize <= 0 {
		opt.BatchSize = 16
	}
	w := &WAL{dir: dir, opt: opt, fs: opt.FS, segBytes: make(map[int]int64)}
	if w.fs == nil {
		w.fs = fsys.OS
	}
	if err := w.fs.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("wal: creating %s: %w", dir, err)
	}
	// A tmp file here is a checkpoint that never got renamed into place
	// — the snapshot it staged simply did not happen.
	w.fs.Remove(filepath.Join(dir, ckptTmp))

	segs, err := w.segments()
	if err != nil {
		return nil, err
	}
	if len(segs) == 0 {
		if err := w.newSegment(1); err != nil {
			return nil, err
		}
		trackInstance(w)
		return w, nil
	}
	// Existing segments mean this Open is a recovery (a restart over a
	// prior journal), which operators want to see distinctly from a
	// fresh start.
	walRecoveries.Inc()
	w.loadCheckpoint(segs)
	if w.ckpt != nil {
		w.lsn = w.ckpt.LSN
		// Finish a truncation the crash interrupted: segments below the
		// snapshot boundary are fully covered by the durable snapshot.
		if err := w.truncateCoveredLocked(w.ckpt.TailSeg); err != nil {
			return nil, err
		}
		if segs, err = w.segments(); err != nil {
			return nil, err
		}
	} else if segs[0] > 1 {
		// History was compacted away but no snapshot covers it — replay
		// would silently miss acked records.
		return nil, fmt.Errorf("%w: journal starts at segment %d with no usable checkpoint", ErrCorrupt, segs[0])
	}
	for i, idx := range segs {
		last := i == len(segs)-1
		b, err := w.fs.ReadFile(w.segPath(idx))
		if err != nil {
			return nil, fmt.Errorf("wal: reading segment: %w", err)
		}
		end, err := scanSegment(b, idx, last, func(off int64, rec []byte) error {
			w.index = append(w.index, recSlot{off: off, seg: uint32(idx), n: uint32(len(rec))})
			return nil
		})
		if err != nil {
			return nil, err
		}
		w.segBytes[idx] = end
		if last {
			if end < int64(len(b)) {
				if err := w.fs.Truncate(w.segPath(idx), end); err != nil {
					return nil, fmt.Errorf("wal: truncating torn tail: %w", err)
				}
				w.truncated = true
				walTornTails.Inc()
			}
			f, err := w.fs.OpenFile(w.segPath(idx), os.O_RDWR)
			if err != nil {
				return nil, fmt.Errorf("wal: opening segment: %w", err)
			}
			if _, err := f.Seek(end, io.SeekStart); err != nil {
				f.Close()
				return nil, fmt.Errorf("wal: seeking segment end: %w", err)
			}
			w.f, w.segIndex, w.segSize = f, idx, end
		}
	}
	// After truncation every surviving record is snapshot tail; the LSN
	// of the last record is the snapshot LSN plus the tail length.
	w.records = len(w.index)
	w.lsn += uint64(w.records)
	walRecovered.Add(int64(w.records))
	trackInstance(w)
	return w, nil
}

// segments lists existing segment indices in ascending order.
func (w *WAL) segments() ([]int, error) {
	names, err := w.fs.ReadDir(w.dir)
	if err != nil {
		return nil, fmt.Errorf("wal: reading %s: %w", w.dir, err)
	}
	var out []int
	for _, name := range names {
		var idx int
		if _, err := fmt.Sscanf(name, segFmt, &idx); err == nil {
			out = append(out, idx)
		}
	}
	sort.Ints(out)
	return out, nil
}

func (w *WAL) segPath(idx int) string {
	return filepath.Join(w.dir, segName(idx))
}

func segName(idx int) string { return fmt.Sprintf(segFmt, idx) }

// newSegment creates segment idx with its header and makes it current.
func (w *WAL) newSegment(idx int) error {
	f, err := w.fs.OpenFile(w.segPath(idx), os.O_RDWR|os.O_CREATE|os.O_EXCL)
	if err != nil {
		return fmt.Errorf("wal: creating segment: %w", err)
	}
	if _, err := f.Write([]byte(segMagic)); err != nil {
		f.Close()
		return fmt.Errorf("wal: writing segment header: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("wal: syncing segment header: %w", err)
	}
	// Persist the directory entry so the segment itself survives a
	// crash right after rotation.
	if err := w.syncDir(); err != nil {
		f.Close()
		return err
	}
	w.f, w.segIndex, w.segSize = f, idx, int64(len(segMagic))
	w.segBytes[idx] = w.segSize
	return nil
}

// scanSegment validates segment seg's bytes b, passing each intact
// record to fn with the offset of its header (a non-nil fn error stops
// the scan and is returned), and returns the offset just past the last
// intact record. In the last segment a damaged tail is reported via
// end < len(b); anywhere else it is ErrCorrupt. A last segment whose
// header itself is torn scans as zero records ending at offset 0, so
// Open truncates it to empty and the next append rewrites the header.
func scanSegment(b []byte, seg int, last bool, fn func(off int64, rec []byte) error) (end int64, err error) {
	if len(b) < len(segMagic) || string(b[:len(segMagic)]) != segMagic {
		if last && len(b) < len(segMagic) {
			return 0, nil // torn during creation; truncated + rebuilt by Open
		}
		return 0, fmt.Errorf("%w: %s: bad segment header", ErrCorrupt, segName(seg))
	}
	off := int64(len(segMagic))
	for int64(len(b))-off >= recHeaderLen {
		length := binary.BigEndian.Uint32(b[off:])
		crc := binary.BigEndian.Uint32(b[off+4:])
		// No record is empty (AppendBatch refuses one), so a zero length
		// is a hole: a crash kept a later unsynced write but lost this
		// one, and the CRC-32 of nothing, 0, would pass the check below.
		if length == 0 || length > MaxRecordSize {
			if last {
				return off, nil // hole or garbage length: torn tail
			}
			return 0, fmt.Errorf("%w: %s: record length %d at offset %d", ErrCorrupt, segName(seg), length, off)
		}
		body := off + recHeaderLen
		next := body + int64(length)
		if next > int64(len(b)) {
			if last {
				return off, nil // short payload: torn tail
			}
			return 0, fmt.Errorf("%w: %s: short record at offset %d", ErrCorrupt, segName(seg), off)
		}
		if crc32.ChecksumIEEE(b[body:next]) != crc {
			if last {
				return off, nil // checksum mismatch: torn tail
			}
			return 0, fmt.Errorf("%w: %s: checksum mismatch at offset %d", ErrCorrupt, segName(seg), off)
		}
		if err := fn(off, b[body:next:next]); err != nil {
			return off, err
		}
		off = next
	}
	if off < int64(len(b)) {
		if last {
			return off, nil // trailing partial header: torn tail
		}
		return 0, fmt.Errorf("%w: %s: trailing bytes at offset %d", ErrCorrupt, segName(seg), off)
	}
	return off, nil
}

// recBufPool recycles record-framing buffers: every record of an
// append is framed into one pooled buffer, so an append costs a single
// write(2) and zero per-append allocations.
var recBufPool = sync.Pool{New: func() any { return new([]byte) }}

// Append writes one record and applies the sync policy. The record is
// durable (per the policy) when Append returns — callers ack the
// corresponding protocol message only after that. Under SyncGroup,
// concurrent Append calls coalesce under a shared leader fsync; the
// durability guarantee on return is identical to SyncAlways.
func (w *WAL) Append(payload []byte) error {
	_, err := w.AppendLSN(payload)
	return err
}

// AppendLSN is Append returning the genesis-stable LSN assigned to the
// record. The assignment happens under the journal lock, so concurrent
// appenders each learn exactly which position their record occupies —
// the handle a replication layer needs to wait for a quorum of
// followers to durably ack THIS record (calling LSN() after Append
// would race with other appenders).
func (w *WAL) AppendLSN(payload []byte) (uint64, error) {
	one := [1][]byte{payload}
	return w.AppendBatch(one[:])
}

// AppendBatch appends recs as consecutive records — each keeps its own
// length and CRC frame, so the segment format is exactly that of
// len(recs) single appends — with one write(2) and one application of
// the sync policy, and returns the LSN of the last one. It is how a
// protocol step journals everything it must make durable before its
// message leaves: one flush per step instead of one per record.
//
// A crash can tear the write anywhere; Open keeps the intact prefix of
// the batch (a CRC stops the scan at the first damaged record), which
// is a state the records' writer passed through on its way to the
// flush, never one it acknowledged.
func (w *WAL) AppendBatch(recs [][]byte) (uint64, error) {
	if err := faultpoint.HitErr(fpAppendENOSPC); err != nil {
		err = fmt.Errorf("wal: appending record: %w", err)
		w.mu.Lock()
		w.setErrLocked(err)
		w.mu.Unlock()
		return 0, err
	}
	if len(recs) == 0 {
		return 0, errors.New("wal: empty batch")
	}
	bp := recBufPool.Get().(*[]byte)
	buf := (*bp)[:0]
	for _, payload := range recs {
		if len(payload) == 0 || len(payload) > MaxRecordSize {
			*bp = buf[:0]
			recBufPool.Put(bp)
			if len(payload) == 0 {
				return 0, errors.New("wal: empty record")
			}
			return 0, fmt.Errorf("%w: %d bytes", ErrTooLarge, len(payload))
		}
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(payload)))
		buf = binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
		buf = append(buf, payload...)
	}
	defer func() { *bp = buf[:0]; recBufPool.Put(bp) }()
	n := uint64(len(recs))

	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0, ErrClosed
	}
	if w.ioErr != nil {
		return 0, w.ioErr
	}
	if w.opt.Policy == SyncGroup {
		if w.syncErr != nil {
			return 0, w.syncErr
		}
		// Max-batch backpressure: while a flush is in flight and the
		// pending group is full, hold the records back so one fsync
		// never covers more than BatchSize records (a batch larger than
		// the bound waits for an empty group and goes alone).
		for w.opt.BatchSize > 0 && w.flushing && w.appendSeq > w.syncedSeq &&
			w.appendSeq-w.syncedSeq+n > uint64(w.opt.BatchSize) {
			w.cond().Wait()
			if w.closed {
				return 0, ErrClosed
			}
			if w.syncErr != nil {
				return 0, w.syncErr
			}
		}
	}
	// A last segment whose header was torn scans to size 0; lazily
	// rewrite the header before the first append lands in it.
	if w.segSize == 0 {
		if _, err := w.f.Write([]byte(segMagic)); err != nil {
			return 0, fmt.Errorf("wal: rewriting segment header: %w", err)
		}
		w.segSize = int64(len(segMagic))
	}
	if _, err := w.f.Write(buf); err != nil {
		err = fmt.Errorf("wal: appending record: %w", err)
		w.setErrLocked(err)
		return 0, err
	}
	for _, payload := range recs {
		w.index = append(w.index, recSlot{off: w.segSize, seg: uint32(w.segIndex), n: uint32(len(payload))})
		w.segSize += recHeaderLen + int64(len(payload))
	}
	w.segBytes[w.segIndex] = w.segSize
	w.records += len(recs)
	w.lsn += n
	lsn := w.lsn
	w.sinceSync += len(recs)
	w.appendSeq += n
	walAppends.Add(int64(n))

	switch w.opt.Policy {
	case SyncAlways:
		if err := w.fsyncLocked(); err != nil {
			return 0, fmt.Errorf("wal: fsync: %w", err)
		}
	case SyncBatch:
		if w.sinceSync >= w.opt.BatchSize {
			if err := w.fsyncLocked(); err != nil {
				return 0, fmt.Errorf("wal: fsync: %w", err)
			}
		}
	case SyncGroup:
		if err := w.groupCommit(w.appendSeq); err != nil {
			return 0, err
		}
	}

	// Rotation is skipped while a group leader's fsync is in flight (the
	// leader holds the file outside the lock); the segment overshoots by
	// at most a few records and the next append rotates it.
	if w.segSize >= w.opt.SegmentSize && !w.flushing {
		if err := w.fsyncLocked(); err != nil {
			return 0, fmt.Errorf("wal: fsync before rotation: %w", err)
		}
		if err := w.f.Close(); err != nil {
			return 0, fmt.Errorf("wal: closing rotated segment: %w", err)
		}
		if err := w.newSegment(w.segIndex + 1); err != nil {
			return 0, err
		}
		walRotations.Inc()
	}
	return lsn, nil
}

// syncDir makes the journal directory's entries — a new segment, a
// published checkpoint, removed covered segments — durable. A failure
// poisons the journal exactly as a failed record fsync does: the entry
// may not survive a crash, so nothing that depends on it may be acked,
// and a checkpoint stops before it truncates anything. Callers hold
// w.mu or run inside Open.
func (w *WAL) syncDir() error {
	if err := w.fs.SyncDir(w.dir); err != nil {
		walSyncErrors.Inc()
		err = fmt.Errorf("wal: syncing directory %s: %w", w.dir, err)
		w.setErrLocked(err)
		return err
	}
	return nil
}

// fsyncLocked syncs the current segment with the lock held and marks
// everything written so far durable. Callers hold w.mu.
func (w *WAL) fsyncLocked() error {
	if err := w.f.Sync(); err != nil {
		walSyncErrors.Inc()
		w.setErrLocked(fmt.Errorf("wal: fsync: %w", err))
		return err
	}
	w.syncs++
	walFsyncs.Inc()
	w.sinceSync = 0
	if w.appendSeq > w.syncedSeq {
		w.syncedSeq = w.appendSeq
		if w.commitCond != nil {
			w.commitCond.Broadcast()
		}
	}
	return nil
}

// flushPendingLocked fsyncs only when records were written that are not
// yet durable — never under SyncAlways, where every append already
// flushed. Callers hold w.mu with no group flush in flight.
func (w *WAL) flushPendingLocked() error {
	if w.appendSeq == w.syncedSeq {
		return nil
	}
	return w.fsyncLocked()
}

// groupCommit blocks until record id is durable, electing this
// goroutine as the fsync leader when no flush is in flight. Called
// with w.mu held; the leader releases the lock for the fsync itself so
// followers keep appending into the next commit window.
func (w *WAL) groupCommit(id uint64) error {
	for w.syncedSeq < id {
		if w.syncErr != nil {
			return w.syncErr
		}
		if w.flushing {
			// The in-flight fsync may have started before this record
			// was written; wait for the leader's broadcast and re-check.
			w.cond().Wait()
			continue
		}
		w.flushing = true
		target := w.appendSeq
		prevSynced := w.syncedSeq
		f := w.f
		w.mu.Unlock()
		err := f.Sync()
		w.mu.Lock()
		w.flushing = false
		w.syncs++
		walFsyncs.Inc()
		if err != nil {
			// A record that may not be durable must never be reported
			// synced; poison the journal rather than guess.
			walSyncErrors.Inc()
			w.syncErr = fmt.Errorf("wal: group fsync: %w", err)
			walDegraded.Set(1)
		} else if target > w.syncedSeq {
			// The commit-group size is the fsync amortization SyncGroup
			// buys; its distribution is the policy's health signal.
			walGroupBatch.Observe(int64(target - prevSynced))
			w.syncedSeq = target
			w.sinceSync = 0
		}
		w.cond().Broadcast()
	}
	return nil
}

// Replay reads every intact record oldest-first and passes it to fn;
// a non-nil fn error stops the replay and is returned. Replay reads
// from disk with fresh handles, so it sees exactly what a restarted
// process would.
func (w *WAL) Replay(fn func(rec []byte) error) error {
	return w.replayFrom(0, fn)
}

// replayFrom is Replay restricted to segments >= minSeg — the
// snapshot-tail read path (ReplayTail) shares everything but the lower
// bound with a full replay.
func (w *WAL) replayFrom(minSeg int, fn func(rec []byte) error) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.replayLocked(minSeg, fn)
}

// replayLocked is replayFrom with w.mu already held — ReplayTail must
// pin the checkpoint boundary and walk the segments under ONE lock
// acquisition, or a concurrent Checkpoint could truncate the segments
// it is about to read. Each segment is read once, and its records are
// checked and handed to fn from those same bytes.
func (w *WAL) replayLocked(minSeg int, fn func(rec []byte) error) error {
	if w.closed {
		return ErrClosed
	}
	segs, err := w.segments()
	if err != nil {
		return err
	}
	for i, idx := range segs {
		if idx < minSeg {
			continue
		}
		b, err := w.fs.ReadFile(w.segPath(idx))
		if err != nil {
			return fmt.Errorf("wal: replay: %w", err)
		}
		if _, err := scanSegment(b, idx, i == len(segs)-1, func(_ int64, rec []byte) error {
			return fn(rec)
		}); err != nil {
			return err
		}
	}
	return nil
}

// waitFlush blocks until no group leader fsync is in flight. Called
// with w.mu held; the file must not be synced or closed under the
// leader's feet.
func (w *WAL) waitFlush() {
	for w.flushing {
		w.cond().Wait()
	}
}

// Sync forces buffered appends to stable storage regardless of policy.
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	w.waitFlush()
	if err := w.fsyncLocked(); err != nil {
		return fmt.Errorf("wal: fsync: %w", err)
	}
	return nil
}

// Close syncs and releases the journal. Further operations return
// ErrClosed.
func (w *WAL) Close() error {
	// Before w.mu: the gauge callbacks lock instMu then w.mu, so the
	// reverse order here would deadlock a Close racing a scrape.
	untrackInstance(w)
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.waitFlush()
	w.closed = true
	if w.commitCond != nil {
		w.commitCond.Broadcast() // release any backpressure waiters
	}
	if err := w.fsyncLocked(); err != nil {
		w.f.Close()
		return fmt.Errorf("wal: fsync on close: %w", err)
	}
	return w.f.Close()
}

// setErrLocked makes err the journal's sticky I/O error (first failure
// wins) and raises the process degraded gauge. Callers hold w.mu.
func (w *WAL) setErrLocked(err error) {
	if w.ioErr == nil {
		w.ioErr = err
		walDegraded.Set(1)
	}
}

// Healthy returns nil while the journal can still accept appends, or
// the sticky error (first write/fsync failure) that poisoned it. A
// poisoned journal still replays — degraded mode serves evidence reads
// while refusing new sessions.
func (w *WAL) Healthy() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.ioErr != nil {
		return w.ioErr
	}
	return w.syncErr
}

// Truncated reports whether Open dropped a torn final record.
func (w *WAL) Truncated() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.truncated
}

// Records reports intact records currently in the journal.
func (w *WAL) Records() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.records
}

// Segments reports how many segment files exist.
func (w *WAL) Segments() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	segs, err := w.segments()
	if err != nil {
		return 0
	}
	return len(segs)
}

// Syncs reports fsync syscalls issued so far. Under SyncGroup this is
// the number of commit groups, not appends — the coalescing the policy
// exists for, asserted by tests and surfaced by the benchmark report.
func (w *WAL) Syncs() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.syncs
}

// Dir returns the journal directory.
func (w *WAL) Dir() string { return w.dir }

// ParsePolicy maps a -fsync flag value onto Options fields: "always",
// "none", "batch[:<n>]" (bare "batch" means n=16), or
// "group[:<max-batch>]" (bare "group" means an unbounded commit group).
func ParsePolicy(s string) (SyncPolicy, int, error) {
	switch {
	case s == "always" || s == "":
		return SyncAlways, 0, nil
	case s == "none":
		return SyncNever, 0, nil
	case s == "batch":
		return SyncBatch, 16, nil
	case s == "group":
		return SyncGroup, 0, nil
	default:
		var n int
		if _, err := fmt.Sscanf(s, "batch:%d", &n); err == nil {
			if n <= 0 {
				return 0, 0, fmt.Errorf("wal: fsync policy %q: batch size must be at least 1 (use \"none\" to opt out of fsync entirely)", s)
			}
			return SyncBatch, n, nil
		}
		if _, err := fmt.Sscanf(s, "group:%d", &n); err == nil {
			if n <= 0 {
				return 0, 0, fmt.Errorf("wal: fsync policy %q: group max-batch must be at least 1 (use bare \"group\" for an unbounded group)", s)
			}
			return SyncGroup, n, nil
		}
		return 0, 0, fmt.Errorf("wal: bad fsync policy %q (want always, none, batch[:<n>], or group[:<max-batch>])", s)
	}
}
