package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/fsys"
)

// TestAppendBatch: a batch is len(recs) ordinary records — same LSNs,
// same replay, same replication read — written with one flush.
func TestAppendBatch(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.AppendLSN([]byte("first")); err != nil {
		t.Fatal(err)
	}
	syncs := w.Syncs()
	lsn, err := w.AppendBatch([][]byte{[]byte("a"), []byte("bb"), []byte("ccc")})
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 4 {
		t.Fatalf("batch LSN = %d, want 4 (its last record)", lsn)
	}
	if got := w.Syncs() - syncs; got != 1 {
		t.Fatalf("batch of 3 cost %d fsyncs, want 1", got)
	}
	recs, _, err := w.ReadBatchFromLSN(1, 10)
	if err != nil || len(recs) != 3 || string(recs[2]) != "ccc" {
		t.Fatalf("ReadBatchFromLSN after the batch = %q, %v", recs, err)
	}
	if _, err := w.AppendBatch(nil); err == nil {
		t.Fatal("empty batch accepted")
	}
	if _, err := w.AppendBatch([][]byte{[]byte("ok"), make([]byte, MaxRecordSize+1)}); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized record in a batch: err = %v, want ErrTooLarge", err)
	}
	w.Close()

	w, err = Open(dir, Options{Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	var got []string
	w.Replay(func(rec []byte) error { got = append(got, string(rec)); return nil })
	if fmt.Sprint(got) != "[first a bb ccc]" || w.LSN() != 4 {
		t.Fatalf("reopened journal = %q at LSN %d, want [first a bb ccc] at 4", got, w.LSN())
	}
}

// TestAppendBatchTornKeepsPrefix: a crash that tears the batch's one
// write keeps its intact records and drops the rest, as Open does for
// any torn tail.
func TestAppendBatchTornKeepsPrefix(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.AppendBatch([][]byte{[]byte("kept"), []byte("torn-away")}); err != nil {
		t.Fatal(err)
	}
	w.Close()
	seg := filepath.Join(dir, segName(1))
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, fi.Size()-3); err != nil {
		t.Fatal(err)
	}
	w, err = Open(dir, Options{Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if w.Records() != 1 || !w.Truncated() {
		t.Fatalf("after a torn batch: %d records (truncated %v), want 1 and a truncated tail", w.Records(), w.Truncated())
	}
}

// TestAppendBatchGroupCommit: concurrent batches under SyncGroup keep
// their records contiguous and share flushes.
func TestAppendBatchGroupCommit(t *testing.T) {
	w, err := Open(t.TempDir(), Options{Policy: SyncGroup})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	const writers, batches = 8, 20
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				tag := fmt.Sprintf("%d/%d", g, b)
				if _, err := w.AppendBatch([][]byte{[]byte(tag + "/0"), []byte(tag + "/1")}); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	var recs []string
	w.Replay(func(rec []byte) error { recs = append(recs, string(rec)); return nil })
	if len(recs) != 2*writers*batches {
		t.Fatalf("%d records, want %d", len(recs), 2*writers*batches)
	}
	for i := 0; i < len(recs); i += 2 {
		if recs[i][:len(recs[i])-1] != recs[i+1][:len(recs[i+1])-1] {
			t.Fatalf("records %d and %d (%q, %q) are not one batch", i, i+1, recs[i], recs[i+1])
		}
	}
	if s := w.Syncs(); s > writers*batches {
		t.Fatalf("%d fsyncs for %d batches", s, writers*batches)
	}
}

// TestAppendAllocs pins the append path at zero allocations per call,
// single record or batch, flushing or not: the pooled framing buffer
// and the amortised offset index are the only memory it touches.
func TestAppendAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop buffers at random")
	}
	for _, pol := range []SyncPolicy{SyncNever, SyncAlways} {
		w, err := Open(t.TempDir(), Options{Policy: pol})
		if err != nil {
			t.Fatal(err)
		}
		rec := make([]byte, 600)
		batch := [][]byte{rec, rec, rec}
		for i := 0; i < 100; i++ {
			w.AppendBatch(batch)
		}
		if n := testing.AllocsPerRun(500, func() { w.AppendLSN(rec) }); n != 0 {
			t.Errorf("policy %v: AppendLSN allocates %v times per call, want 0", pol, n)
		}
		if n := testing.AllocsPerRun(500, func() { w.AppendBatch(batch) }); n != 0 {
			t.Errorf("policy %v: AppendBatch allocates %v times per call, want 0", pol, n)
		}
		w.Close()
	}
}

// failingDirSync is the OS file system with directory syncs that fail
// once armed.
type failingDirSync struct {
	fsys.FS
	armed bool
}

var errDirSync = errors.New("injected directory sync failure")

func (f *failingDirSync) SyncDir(dir string) error {
	if f.armed {
		return errDirSync
	}
	return f.FS.SyncDir(dir)
}

// TestDirSyncFailurePoisons: a directory sync that fails — after a
// checkpoint's rename, after a rotation's create — poisons the journal
// like a failed record fsync, and a checkpoint whose rename may not be
// durable never truncates the segments it covers.
func TestDirSyncFailurePoisons(t *testing.T) {
	t.Run("checkpoint", func(t *testing.T) {
		dir := t.TempDir()
		fs := &failingDirSync{FS: fsys.OS}
		w, err := Open(dir, Options{Policy: SyncAlways, FS: fs})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			w.Append([]byte(fmt.Sprintf("rec-%d", i)))
		}
		fs.armed = true
		if _, err := w.Checkpoint([]byte("state")); !errors.Is(err, errDirSync) {
			t.Fatalf("Checkpoint with a failing directory sync: err = %v, want the injected failure", err)
		}
		if !errors.Is(w.Healthy(), errDirSync) {
			t.Fatalf("Healthy() = %v, want the journal poisoned", w.Healthy())
		}
		if err := w.Append([]byte("after")); err == nil {
			t.Fatal("poisoned journal accepted an append")
		}
		if _, err := os.Stat(filepath.Join(dir, segName(1))); err != nil {
			t.Fatalf("covered segment truncated behind a rename that may be lost: %v", err)
		}
		w.Close()
		w, err = Open(dir, Options{Policy: SyncAlways})
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		if w.LSN() != 3 {
			t.Fatalf("reopened journal at LSN %d, want 3", w.LSN())
		}
	})
	t.Run("rotation", func(t *testing.T) {
		fs := &failingDirSync{FS: fsys.OS}
		w, err := Open(t.TempDir(), Options{Policy: SyncAlways, SegmentSize: 64, FS: fs})
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		fs.armed = true
		if _, err := w.AppendLSN(make([]byte, 100)); !errors.Is(err, errDirSync) {
			t.Fatalf("append that rotates with a failing directory sync: err = %v, want the injected failure", err)
		}
		if !errors.Is(w.Healthy(), errDirSync) {
			t.Fatalf("Healthy() = %v, want the journal poisoned", w.Healthy())
		}
	})
}
