package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

func collect(t *testing.T, w *WAL) [][]byte {
	t.Helper()
	var out [][]byte
	if err := w.Replay(func(rec []byte) error {
		out = append(out, append([]byte(nil), rec...))
		return nil
	}); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return out
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	var want [][]byte
	for i := 0; i < 100; i++ {
		rec := []byte(fmt.Sprintf("record-%03d", i))
		want = append(want, rec)
		if err := w.Append(rec); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
	got := collect(t, w)
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Reopen: same records, no truncation.
	w2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer w2.Close()
	if w2.Truncated() {
		t.Fatal("clean journal reported Truncated")
	}
	if n := w2.Records(); n != len(want) {
		t.Fatalf("Records() = %d, want %d", n, len(want))
	}
	got = collect(t, w2)
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("after reopen record %d = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{SegmentSize: 256, Policy: SyncNever})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	rec := bytes.Repeat([]byte("x"), 100)
	const n = 20
	for i := 0; i < n; i++ {
		if err := w.Append(rec); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if segs := w.Segments(); segs < 2 {
		t.Fatalf("Segments() = %d, want rotation past 1", segs)
	}
	if got := collect(t, w); len(got) != n {
		t.Fatalf("replayed %d, want %d", len(got), n)
	}
	w.Close()

	// Records must replay in order across segments after reopen.
	w2, err := Open(dir, Options{SegmentSize: 256})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer w2.Close()
	if got := collect(t, w2); len(got) != n {
		t.Fatalf("after reopen replayed %d, want %d", len(got), n)
	}
}

// tornTail appends garbage or a truncated record to the last segment,
// simulating a crash mid-write.
func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) == 0 {
		t.Fatal("no segments")
	}
	return filepath.Join(dir, ents[len(ents)-1].Name())
}

func TestTornTailTruncated(t *testing.T) {
	cases := []struct {
		name string
		tear func(t *testing.T, path string)
	}{
		{"partial-header", func(t *testing.T, path string) {
			f, _ := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
			f.Write([]byte{0, 0, 0})
			f.Close()
		}},
		{"short-payload", func(t *testing.T, path string) {
			var hdr [8]byte
			binary.BigEndian.PutUint32(hdr[:4], 1000)
			binary.BigEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE([]byte("whatever")))
			f, _ := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
			f.Write(hdr[:])
			f.Write([]byte("only a little"))
			f.Close()
		}},
		{"bad-crc", func(t *testing.T, path string) {
			payload := []byte("torn payload")
			var hdr [8]byte
			binary.BigEndian.PutUint32(hdr[:4], uint32(len(payload)))
			binary.BigEndian.PutUint32(hdr[4:], 0xdeadbeef)
			f, _ := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
			f.Write(hdr[:])
			f.Write(payload)
			f.Close()
		}},
		{"garbage-length", func(t *testing.T, path string) {
			var hdr [8]byte
			binary.BigEndian.PutUint32(hdr[:4], 0xffffffff)
			f, _ := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
			f.Write(hdr[:])
			f.Close()
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			w, err := Open(dir, Options{})
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			for i := 0; i < 5; i++ {
				if err := w.Append([]byte(fmt.Sprintf("intact-%d", i))); err != nil {
					t.Fatalf("Append: %v", err)
				}
			}
			w.Close()
			tc.tear(t, lastSegment(t, dir))

			w2, err := Open(dir, Options{})
			if err != nil {
				t.Fatalf("Open after tear: %v", err)
			}
			defer w2.Close()
			if !w2.Truncated() {
				t.Fatal("torn tail not reported via Truncated()")
			}
			got := collect(t, w2)
			if len(got) != 5 {
				t.Fatalf("replayed %d records after tear, want 5", len(got))
			}
			// The journal must still accept appends after truncation.
			if err := w2.Append([]byte("post-recovery")); err != nil {
				t.Fatalf("Append after truncation: %v", err)
			}
			if got := collect(t, w2); len(got) != 6 {
				t.Fatalf("replayed %d after post-recovery append, want 6", len(got))
			}
		})
	}
}

func TestInteriorCorruptionIsError(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{SegmentSize: 128, Policy: SyncNever})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := 0; i < 10; i++ {
		if err := w.Append(bytes.Repeat([]byte{byte('a' + i)}, 64)); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if w.Segments() < 2 {
		t.Fatal("test needs multiple segments")
	}
	w.Close()

	// Flip a payload byte in the FIRST segment — not a torn tail.
	first := filepath.Join(dir, fmt.Sprintf(segFmt, 1))
	b, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	b[len(segMagic)+recHeaderLen] ^= 0x01
	if err := os.WriteFile(first, b, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open on interior corruption = %v, want ErrCorrupt", err)
	}
}

func TestSyncPolicies(t *testing.T) {
	for _, opt := range []Options{
		{Policy: SyncAlways},
		{Policy: SyncBatch, BatchSize: 4},
		{Policy: SyncNever},
		{Policy: SyncGroup},
		{Policy: SyncGroup, BatchSize: 4},
	} {
		t.Run(opt.Policy.String(), func(t *testing.T) {
			dir := t.TempDir()
			w, err := Open(dir, opt)
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			for i := 0; i < 10; i++ {
				if err := w.Append([]byte{byte(i)}); err != nil {
					t.Fatalf("Append: %v", err)
				}
			}
			if err := w.Sync(); err != nil {
				t.Fatalf("Sync: %v", err)
			}
			if err := w.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			w2, err := Open(dir, opt)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer w2.Close()
			if n := w2.Records(); n != 10 {
				t.Fatalf("Records() = %d, want 10", n)
			}
		})
	}
}

func TestClosedOperations(t *testing.T) {
	w, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	w.Close()
	if err := w.Append([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Append after Close = %v, want ErrClosed", err)
	}
	if err := w.Replay(func([]byte) error { return nil }); !errors.Is(err, ErrClosed) {
		t.Fatalf("Replay after Close = %v, want ErrClosed", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("double Close = %v, want nil", err)
	}
}

func TestParsePolicy(t *testing.T) {
	cases := []struct {
		in    string
		p     SyncPolicy
		batch int
		ok    bool
	}{
		{"always", SyncAlways, 0, true},
		{"", SyncAlways, 0, true},
		{"none", SyncNever, 0, true},
		{"batch", SyncBatch, 16, true},
		{"batch:8", SyncBatch, 8, true},
		{"batch:1", SyncBatch, 1, true},
		{"batch:0", 0, 0, false},
		{"batch:-3", 0, 0, false},
		{"group", SyncGroup, 0, true},
		{"group:32", SyncGroup, 32, true},
		{"group:0", 0, 0, false},
		{"group:-1", 0, 0, false},
		{"sometimes", 0, 0, false},
		{"batch:", 0, 0, false},
	}
	for _, tc := range cases {
		p, batch, err := ParsePolicy(tc.in)
		if tc.ok != (err == nil) {
			t.Fatalf("ParsePolicy(%q) err = %v, want ok=%v", tc.in, err, tc.ok)
		}
		if tc.ok && (p != tc.p || batch != tc.batch) {
			t.Fatalf("ParsePolicy(%q) = (%v, %d), want (%v, %d)", tc.in, p, batch, tc.p, tc.batch)
		}
	}
}

func TestReplayStopsOnError(t *testing.T) {
	w, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer w.Close()
	for i := 0; i < 5; i++ {
		w.Append([]byte{byte(i)})
	}
	sentinel := errors.New("stop")
	n := 0
	err = w.Replay(func([]byte) error {
		n++
		if n == 3 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("Replay = %v, want sentinel", err)
	}
	if n != 3 {
		t.Fatalf("fn called %d times, want 3", n)
	}
}

// zeroHole appends a run of zero bytes and then one intact record to
// the segment at path: what a crash leaves when it keeps a later
// unsynced write but loses the earlier one in front of it.
func zeroHole(t *testing.T, path string) {
	t.Helper()
	payload := []byte("a later record the crash kept")
	rec := binary.BigEndian.AppendUint32(make([]byte, 24), uint32(len(payload)))
	rec = binary.BigEndian.AppendUint32(rec, crc32.ChecksumIEEE(payload))
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write(append(rec, payload...)); err != nil {
		t.Fatal(err)
	}
}

// TestZeroHoleIsTornTail: a zero length is never a record, so Open
// truncates the open segment at the hole (the intact record behind it
// goes with it) and a sealed segment holding one is ErrCorrupt.
func TestZeroHoleIsTornTail(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, err := w.AppendBatch([][]byte{[]byte("ok"), {}}); err == nil {
		t.Fatal("AppendBatch accepted a zero-length record")
	}
	for i := 0; i < 3; i++ {
		if err := w.Append([]byte(fmt.Sprintf("intact-%d", i))); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	w.Close()
	zeroHole(t, lastSegment(t, dir))

	w2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open over a zero hole: %v", err)
	}
	if !w2.Truncated() {
		t.Fatal("zero hole not reported via Truncated()")
	}
	if got := collect(t, w2); len(got) != 3 {
		t.Fatalf("replayed %d records over a zero hole, want 3", len(got))
	}
	w2.Close()

	// The same hole in a sealed segment is not a tail.
	sealed := t.TempDir()
	w3, err := Open(sealed, Options{SegmentSize: 128, Policy: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	for w3.Segments() < 2 {
		if err := w3.Append(bytes.Repeat([]byte{'x'}, 40)); err != nil {
			t.Fatal(err)
		}
	}
	w3.Close()
	first := filepath.Join(sealed, fmt.Sprintf(segFmt, 1))
	b, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	clear(b[len(segMagic):])
	if err := os.WriteFile(first, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(sealed, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open over a zero hole in a sealed segment = %v, want ErrCorrupt", err)
	}
}
