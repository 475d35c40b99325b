package auditlog

// File sink: a Log can persist its chain to an append-only file so the
// audit trail that backs arbitration survives a crash. Entries are
// length-prefixed frames (wire.Frame); a torn final frame — the only
// damage a crash mid-append can cause — is truncated away on open,
// while any interior damage breaks the hash chain and fails the open.

import (
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/wire"
)

const fileEntryMagic = "auditlog-file-entry-v1"

// ErrFileSink marks a file-sink write failure (see Log.Err).
var ErrFileSink = errors.New("auditlog: file sink write failed")

// encodeEntry renders the full entry, Hash included, for the file sink.
func encodeEntry(e Entry) []byte {
	enc := wire.NewEncoder(128 + len(e.Detail))
	enc.String(fileEntryMagic)
	enc.U64(e.Index)
	enc.Time(e.At)
	enc.String(e.Kind)
	enc.String(e.TxnID)
	enc.String(e.Detail)
	enc.Bytes32(e.PrevHash.Sum)
	enc.Bytes32(e.Hash.Sum)
	return enc.Bytes()
}

func decodeEntry(b []byte) (Entry, error) {
	dec := wire.NewDecoder(b)
	if err := dec.Magic(fileEntryMagic); err != nil {
		return Entry{}, fmt.Errorf("auditlog: bad entry: %w", err)
	}
	e := Entry{
		Index:    dec.U64(),
		At:       dec.Time(),
		Kind:     dec.String(),
		TxnID:    dec.String(),
		Detail:   dec.String(),
		PrevHash: cryptoutil.Digest{Alg: cryptoutil.SHA256, Sum: dec.Bytes32()},
		Hash:     cryptoutil.Digest{Alg: cryptoutil.SHA256, Sum: dec.Bytes32()},
	}
	if err := dec.Finish(); err != nil {
		return Entry{}, fmt.Errorf("auditlog: decoding entry: %w", err)
	}
	return e, nil
}

// OpenFile opens (creating if absent) a file-backed log at path. Any
// existing entries are loaded and chain-verified — a tampered file
// refuses to open. A torn final frame, the signature of a crash during
// an append, is truncated away; Truncated reports whether that
// happened. With syncOnAppend, every Append fsyncs before returning,
// so no logged event can be lost to a crash (the -fsync always of the
// audit trail). now stamps new entries (nil = time.Now).
func OpenFile(path string, now func() time.Time, syncOnAppend bool) (*Log, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("auditlog: opening %s: %w", path, err)
	}
	entries, good, truncated, err := loadEntries(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	if truncated {
		if err := f.Truncate(good); err != nil {
			f.Close()
			return nil, fmt.Errorf("auditlog: truncating torn tail of %s: %w", path, err)
		}
	}
	if err := Verify(entries); err != nil {
		f.Close()
		return nil, fmt.Errorf("auditlog: %s: %w", path, err)
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("auditlog: seeking %s: %w", path, err)
	}
	if now == nil {
		now = time.Now
	}
	return &Log{
		entries:   entries,
		now:       now,
		file:      f,
		syncEach:  syncOnAppend,
		truncated: truncated,
	}, nil
}

// loadEntries reads frames until EOF, returning the decoded entries,
// the offset just past the last good frame, and whether a torn tail
// was found after it.
func loadEntries(f *os.File) ([]Entry, int64, bool, error) {
	var (
		entries []Entry
		good    int64
	)
	for {
		frame, err := wire.ReadFrame(f)
		if err == io.EOF {
			return entries, good, false, nil
		}
		if errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.EOF) {
			// A crash mid-append leaves a partial frame; everything before
			// it is intact (the chain proves so).
			return entries, good, true, nil
		}
		if err != nil {
			return nil, 0, false, fmt.Errorf("auditlog: reading log file: %w", err)
		}
		e, err := decodeEntry(frame)
		if err != nil {
			return nil, 0, false, err
		}
		entries = append(entries, e)
		good += 4 + int64(len(frame))
	}
}

// persist writes e to the file sink, if any. Called with l.mu held.
// A write failure is sticky (Err) — the in-memory chain stays
// authoritative, but the operator must know durability is gone.
func (l *Log) persist(e Entry) {
	if l.file == nil || l.ferr != nil {
		return
	}
	if err := wire.Frame(l.file, encodeEntry(e)); err != nil {
		l.ferr = fmt.Errorf("%w: %v", ErrFileSink, err)
		return
	}
	if l.syncEach {
		if err := l.file.Sync(); err != nil {
			l.ferr = fmt.Errorf("%w: fsync: %v", ErrFileSink, err)
		}
	}
}

// Sync flushes the file sink to stable storage. A no-op for in-memory
// logs.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.file == nil {
		return nil
	}
	if err := l.file.Sync(); err != nil {
		return fmt.Errorf("auditlog: fsync: %w", err)
	}
	return nil
}

// Close syncs and closes the file sink. The in-memory log remains
// readable; further appends are memory-only.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.file == nil {
		return nil
	}
	err := l.file.Sync()
	if cerr := l.file.Close(); err == nil {
		err = cerr
	}
	l.file = nil
	return err
}

// Err returns the first file-sink write failure, if any. Entries keep
// accumulating in memory after a sink failure, so arbitration evidence
// is never silently dropped — but it is no longer crash-durable.
func (l *Log) Err() error {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.ferr
}

// Truncated reports whether OpenFile cut away a torn final frame.
func (l *Log) Truncated() bool {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.truncated
}
