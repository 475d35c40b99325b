package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
)

// TestReadBatchFromLSN covers the replication read path: batches are
// bounded, contiguous from after+1, report whether records remain, and
// an `after` below the compaction horizon surfaces ErrCompacted.
func TestReadBatchFromLSN(t *testing.T) {
	w, err := Open(t.TempDir(), Options{Policy: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	recs := fillSegments(t, w, 10)

	// Bounded batch from genesis: the first max records, more pending.
	batch, more, err := w.ReadBatchFromLSN(0, 4)
	if err != nil {
		t.Fatalf("ReadBatchFromLSN(0, 4): %v", err)
	}
	if len(batch) != 4 || !more {
		t.Fatalf("got %d records, more=%v; want 4 records, more=true", len(batch), more)
	}
	for i, rec := range batch {
		if string(rec) != string(recs[i]) {
			t.Fatalf("batch[%d] = %q, want %q", i, rec, recs[i])
		}
	}

	// Resume mid-journal with headroom: the rest, nothing pending.
	batch, more, err = w.ReadBatchFromLSN(4, 100)
	if err != nil {
		t.Fatalf("ReadBatchFromLSN(4, 100): %v", err)
	}
	if len(batch) != 6 || more {
		t.Fatalf("got %d records, more=%v; want 6 records, more=false", len(batch), more)
	}
	if string(batch[0]) != string(recs[4]) {
		t.Fatalf("batch[0] = %q, want %q (LSN contiguity from after+1)", batch[0], recs[4])
	}

	// Caught up: empty batch, no error.
	batch, more, err = w.ReadBatchFromLSN(10, 4)
	if err != nil || len(batch) != 0 || more {
		t.Fatalf("caught-up read = %d records, more=%v, err=%v; want empty", len(batch), more, err)
	}
}

func TestReadBatchFromLSNCompacted(t *testing.T) {
	w, err := Open(t.TempDir(), Options{Policy: SyncNever, SegmentSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	fillSegments(t, w, 8)
	if _, err := w.Checkpoint([]byte("state")); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	var tail [][]byte
	for i := 0; i < 3; i++ {
		rec := []byte(fmt.Sprintf("tail-%d", i))
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
		tail = append(tail, rec)
	}

	// Below the horizon: the records were compacted into the snapshot.
	if _, _, err := w.ReadBatchFromLSN(0, 100); !errors.Is(err, ErrCompacted) {
		t.Fatalf("read below compaction horizon = %v, want ErrCompacted", err)
	}
	// At the snapshot boundary: exactly the live tail.
	batch, more, err := w.ReadBatchFromLSN(8, 100)
	if err != nil {
		t.Fatalf("ReadBatchFromLSN(8, 100): %v", err)
	}
	if len(batch) != len(tail) || more {
		t.Fatalf("got %d records, more=%v; want %d, more=false", len(batch), more, len(tail))
	}
	for i := range tail {
		if string(batch[i]) != string(tail[i]) {
			t.Fatalf("tail[%d] = %q, want %q", i, batch[i], tail[i])
		}
	}
}

// readAll concatenates ReadBatchFromLSN batches of at most max records
// from after until the journal reports nothing more.
func readAll(t *testing.T, w *WAL, after uint64, max int) []string {
	t.Helper()
	var got []string
	for {
		batch, more, err := w.ReadBatchFromLSN(after, max)
		if err != nil {
			t.Fatalf("ReadBatchFromLSN(%d, %d): %v", after, max, err)
		}
		if len(batch) > max || (more && len(batch) != max) {
			t.Fatalf("ReadBatchFromLSN(%d, %d) = %d records, more=%v", after, max, len(batch), more)
		}
		for _, rec := range batch {
			got = append(got, string(rec))
		}
		after += uint64(len(batch))
		if !more {
			return got
		}
	}
}

// checkReadEqualsReplay asserts that the offset index holds one slot per
// record ReplayTail finds on disk, and that for every `after` from the
// compaction horizon to the journal's LSN and every batch size the
// batched read returns exactly Replay's suffix; below the horizon it is
// ErrCompacted.
func checkReadEqualsReplay(t *testing.T, w *WAL) {
	t.Helper()
	all := replayAll(t, w)
	w.mu.Lock()
	slots := len(w.index)
	w.mu.Unlock()
	if tail := replayTail(t, w); slots != len(tail) || w.TailRecords() != len(tail) || len(tail) != len(all) {
		t.Fatalf("index %d slots, TailRecords %d, ReplayTail %d records, Replay %d records",
			slots, w.TailRecords(), len(tail), len(all))
	}
	lsn := w.LSN()
	base := lsn - uint64(len(all))
	for after := base; after <= lsn; after++ {
		for _, max := range []int{1, 3, 256} {
			if got, want := readAll(t, w, after, max), all[after-base:]; !slices.Equal(got, want) {
				t.Fatalf("read after %d in batches of %d = %q, want Replay's suffix %q", after, max, got, want)
			}
		}
	}
	if base > 0 {
		if _, _, err := w.ReadBatchFromLSN(base-1, 1); !errors.Is(err, ErrCompacted) {
			t.Fatalf("read below horizon %d = %v, want ErrCompacted", base, err)
		}
	}
}

func appendN(t *testing.T, w *WAL, prefix string, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := w.Append([]byte(fmt.Sprintf("%s-%02d", prefix, i))); err != nil {
			t.Fatal(err)
		}
	}
}

// TestReadBatchFromLSNEqualsReplay walks one journal that rotates every
// few records through each way its live tail can change — appends, a
// checkpoint, a reopen that rebuilds the index from the scan, a reopen
// that truncates a torn tail, and a snapshot install — and checks the
// batched read against Replay after each.
func TestReadBatchFromLSNEqualsReplay(t *testing.T) {
	dir := t.TempDir()
	opt := Options{Policy: SyncNever, SegmentSize: 64}
	w, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { w.Close() }()
	appendN(t, w, "genesis", 20)
	if w.Segments() < 5 {
		t.Fatalf("journal spans %d segments, want rotation every few records", w.Segments())
	}
	checkReadEqualsReplay(t, w)

	if _, err := w.Checkpoint([]byte("state")); err != nil {
		t.Fatal(err)
	}
	checkReadEqualsReplay(t, w)
	appendN(t, w, "tail", 9)
	checkReadEqualsReplay(t, w)

	reopen := func() {
		t.Helper()
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if w, err = Open(dir, opt); err != nil {
			t.Fatal(err)
		}
	}
	reopen()
	checkReadEqualsReplay(t, w)

	// Tear the tail: half a record header after the last intact record.
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(lastSegment(t, dir), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0, 0, 0, 9, 0xde})
	f.Close()
	if w, err = Open(dir, opt); err != nil {
		t.Fatal(err)
	}
	if !w.Truncated() {
		t.Fatal("torn tail not truncated")
	}
	checkReadEqualsReplay(t, w)
	appendN(t, w, "after-tear", 4)
	checkReadEqualsReplay(t, w)

	if err := w.InstallSnapshot([]byte("leader-state"), w.LSN()+5); err != nil {
		t.Fatal(err)
	}
	checkReadEqualsReplay(t, w)
	appendN(t, w, "replicated", 7)
	checkReadEqualsReplay(t, w)
	reopen()
	checkReadEqualsReplay(t, w)
}

// TestReadBatchFromLSNPreIndexJournal opens a journal written before the
// offset index existed (testdata/pre-index: a checkpoint at LSN 6,
// records 7–16 across two rotated segments, and a torn record at the
// tail) and checks it opens, replays and streams as it always did.
func TestReadBatchFromLSNPreIndexJournal(t *testing.T) {
	dir := t.TempDir()
	ents, err := os.ReadDir("testdata/pre-index")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join("testdata/pre-index", e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	w, err := Open(dir, Options{SegmentSize: 96})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if !w.Truncated() {
		t.Fatal("torn tail of the fixture not truncated")
	}
	payload, lsn, ok := w.LoadCheckpoint()
	if !ok || lsn != 6 || string(payload) != "state-at-6" {
		t.Fatalf("checkpoint = %q at %d (%v), want state-at-6 at 6", payload, lsn, ok)
	}
	var want []string
	for i := 7; i <= 16; i++ {
		want = append(want, fmt.Sprintf("record-%02d", i))
	}
	if got := replayTail(t, w); !slices.Equal(got, want) {
		t.Fatalf("tail = %q, want %q", got, want)
	}
	if got := readAll(t, w, 6, 3); !slices.Equal(got, want) {
		t.Fatalf("streamed tail = %q, want %q", got, want)
	}
	checkReadEqualsReplay(t, w)
	appendN(t, w, "record-new", 3)
	checkReadEqualsReplay(t, w)
}

// TestReadBatchFromLSNCorrupt flips one payload byte of a live record on
// disk — in a rotated segment and in the open one — after the index
// located it: a read that covers the record must fail with ErrCorrupt
// naming the segment and offset and ship nothing, while reads that end
// before it still succeed.
func TestReadBatchFromLSNCorrupt(t *testing.T) {
	for _, target := range []uint64{5, 19} {
		t.Run(fmt.Sprint("lsn-", target), func(t *testing.T) {
			dir := t.TempDir()
			w, err := Open(dir, Options{Policy: SyncNever, SegmentSize: 64})
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			appendN(t, w, "rec", 19)
			s := w.index[target-1]
			if rotated := int(s.seg) != w.segIndex; rotated != (target == 5) {
				t.Fatalf("test setup: LSN %d in segment %d, current %d", target, s.seg, w.segIndex)
			}
			f, err := os.OpenFile(filepath.Join(dir, segName(int(s.seg))), os.O_RDWR, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteAt([]byte{'X'}, s.off+recHeaderLen+1); err != nil {
				t.Fatal(err)
			}
			f.Close()

			for after := uint64(0); after < target; after++ {
				batch, _, err := w.ReadBatchFromLSN(after, int(target-after))
				if !errors.Is(err, ErrCorrupt) || batch != nil {
					t.Fatalf("read after %d covering LSN %d = %d records, %v; want ErrCorrupt and nothing", after, target, len(batch), err)
				}
				if want := fmt.Sprintf("%s: record at offset %d", segName(int(s.seg)), s.off); !strings.Contains(err.Error(), want) {
					t.Fatalf("error %q does not name %q", err, want)
				}
				if after+1 < target {
					if batch, _, err := w.ReadBatchFromLSN(after, int(target-after-1)); err != nil || len(batch) != int(target-after-1) {
						t.Fatalf("read after %d ending before LSN %d = %d records, %v", after, target, len(batch), err)
					}
				}
			}
		})
	}
}

// TestReadBatchFromLSNAllocsConstant pins the read's cost to the batch:
// reading the newest record allocates the same on a 10-record tail as
// on a 10,000-record tail spread over dozens of segments.
func TestReadBatchFromLSNAllocsConstant(t *testing.T) {
	allocs := func(n int) float64 {
		w, err := Open(t.TempDir(), Options{Policy: SyncNever, SegmentSize: 4096})
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		for i := 0; i < n; i++ {
			if err := w.Append([]byte(fmt.Sprintf("record-%05d", i))); err != nil {
				t.Fatal(err)
			}
		}
		if last := w.index[len(w.index)-1]; int(last.seg) != w.segIndex {
			t.Fatalf("test setup: newest record in segment %d, current is %d", last.seg, w.segIndex)
		}
		lsn := w.LSN()
		return testing.AllocsPerRun(50, func() {
			if recs, _, err := w.ReadBatchFromLSN(lsn-1, 1); err != nil || len(recs) != 1 {
				t.Fatalf("ReadBatchFromLSN(%d, 1) = %d records, %v", lsn-1, len(recs), err)
			}
		})
	}
	small, large := allocs(10), allocs(10_000)
	if small != large {
		t.Fatalf("reading one record allocates %.0f times on a 10-record tail but %.0f on a 10,000-record tail", small, large)
	}
}

// TestReadBatchFromLSNSyncs: a record written but not yet flushed is
// made durable, through a counted fsync, before the read returns it;
// a record already durable costs the read no fsync at all.
func TestReadBatchFromLSNSyncs(t *testing.T) {
	for _, tc := range []struct {
		opt Options
		// unflush leaves the newest record written but not yet covered by
		// an fsync. Under SyncGroup an appender is only in that state
		// while it waits for a group leader, so the test rewinds the
		// durable mark to stand for it.
		unflush   func(w *WAL)
		wantSyncs uint64
	}{
		{Options{Policy: SyncAlways}, nil, 0},
		{Options{Policy: SyncNever}, nil, 0},
		{Options{Policy: SyncBatch, BatchSize: 16}, nil, 1},
		{Options{Policy: SyncGroup}, func(w *WAL) {
			w.mu.Lock()
			w.syncedSeq--
			w.mu.Unlock()
		}, 1},
	} {
		t.Run(tc.opt.Policy.String(), func(t *testing.T) {
			w, err := Open(t.TempDir(), tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			appendN(t, w, "rec", 3)
			if tc.unflush != nil {
				tc.unflush(w)
			}
			before := w.Syncs()
			for i := 0; i < 3; i++ {
				if recs, _, err := w.ReadBatchFromLSN(2, 1); err != nil || len(recs) != 1 {
					t.Fatalf("read = %d records, %v", len(recs), err)
				}
				w.mu.Lock()
				pending := w.appendSeq - w.syncedSeq
				w.mu.Unlock()
				if pending != 0 && tc.opt.Policy != SyncNever {
					t.Fatalf("read returned with %d records not yet durable", pending)
				}
			}
			if got := w.Syncs() - before; got != tc.wantSyncs {
				t.Fatalf("three reads issued %d counted fsyncs, want %d", got, tc.wantSyncs)
			}
		})
	}
}

// TestReadBatchFromLSNConcurrent streams a group-committed journal to
// two readers while it is appended to and checkpointed: every batch a
// reader gets is contiguous from its mark and holds exactly the records
// appended at those LSNs, and a reader behind the horizon resumes from
// the snapshot as the replication streamer does.
func TestReadBatchFromLSNConcurrent(t *testing.T) {
	w, err := Open(t.TempDir(), Options{Policy: SyncGroup, SegmentSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	const n = 300
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; i <= n; i++ {
			if _, err := w.AppendLSN([]byte(fmt.Sprintf("lsn-%d", i))); err != nil {
				t.Error(err)
				return
			}
			if i%50 == 0 {
				if _, err := w.Checkpoint(nil); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for sent := uint64(0); sent < n; {
				recs, _, err := w.ReadBatchFromLSN(sent, 3)
				if errors.Is(err, ErrCompacted) {
					_, sent, _ = w.LoadCheckpoint()
					continue
				}
				if err != nil {
					t.Error(err)
					return
				}
				for i, rec := range recs {
					if want := fmt.Sprintf("lsn-%d", sent+1+uint64(i)); string(rec) != want {
						t.Errorf("record at LSN %d = %q, want %q", sent+1+uint64(i), rec, want)
						return
					}
				}
				sent += uint64(len(recs))
			}
		}()
	}
	wg.Wait()
}
