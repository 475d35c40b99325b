// Package archive is the cold tier under the evidence journal:
// an append-only, indexed, CRC-protected store that checkpoint
// compaction moves terminal sessions' evidence into. The WAL answers
// "what happened since the last snapshot"; the archive answers "show me
// the evidence for a session that completed years ago" — in O(1), off a
// file the hot path never rewrites, so an Arbitrator resolving an old
// dispute (§4.4) neither replays history nor competes with live
// traffic.
//
// On-disk layout: dir/evidence.dat holds the bundles, dir/evidence.idx
// maps transaction → (offset, length). Both files carry an 8-byte magic
// and records framed exactly like WAL segments:
//
//	u32 payload length | u32 CRC-32 (IEEE) of payload | payload
//
// The data file is authoritative; the index is derived and
// reconstructible. Append writes data first, index second, fsyncs
// neither (the WAL retains every bundle until the checkpoint that
// follows compaction is durable, so a lost archive suffix is always
// re-compacted) — callers make a batch durable with one Sync. Open
// self-heals every crash shape that ordering can leave: a torn index
// tail is truncated, an index pointing past the data is rebuilt by full
// rescan, data records past the last indexed byte (the crash window
// between the two appends) are re-indexed, and a torn data tail is
// truncated. Re-appending a transaction is last-wins, which makes
// compaction idempotent across crash-replay cycles.
package archive

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/faultpoint"
	"repro/internal/fsys"
	"repro/internal/wire"
)

// fpAppendPartial fires between the data write and the index write of
// one Append — the crash window that leaves an orphan data record for
// Open to re-index.
var fpAppendPartial = faultpoint.Register("archive.append.partial")

// Errors.
var (
	// ErrNotFound reports a transaction absent from the archive.
	ErrNotFound = errors.New("archive: transaction not archived")
	// ErrCorrupt reports a damaged record the self-heal paths cannot
	// explain as a torn tail.
	ErrCorrupt = errors.New("archive: corrupt record")
	// ErrClosed is returned from operations on a closed store.
	ErrClosed = errors.New("archive: store closed")
)

const (
	dataMagic = "TPNRARC1"
	idxMagic  = "TPNRARX1"
	dataName  = "evidence.dat"
	idxName   = "evidence.idx"

	recHeaderLen = 8 // u32 length + u32 crc

	// MaxBundleSize bounds one archived session's evidence (same order
	// as the WAL's record bound; a bundle is a handful of signed
	// receipts, not bulk data).
	MaxBundleSize = 16 << 20
)

// Item is one piece of evidence in a bundle. Role tags whose evidence
// it is (the owner's journal role byte, passed through opaquely); Blob
// is the encoded evidence itself — the archive does not interpret it.
type Item struct {
	Role uint8
	Blob []byte
}

// Bundle is everything one terminal session leaves behind: its final
// state and every evidence blob either side of the exchange produced.
type Bundle struct {
	Txn   string
	State uint8
	Items []Item
}

type idxEntry struct {
	off    int64 // data-file offset of the framed record
	length int64 // framed record length (header + body)
}

// Store is an append-only archive of terminal-session evidence. Safe
// for concurrent use.
type Store struct {
	mu  sync.Mutex
	dir string

	data fsys.File
	idx  fsys.File

	dataSize int64
	idxSize  int64

	index map[string]idxEntry

	// err is sticky: an append that cannot be completed (I/O failure, or
	// a crash-simulating panic between the data and index halves)
	// poisons the store rather than leaving callers to guess which half
	// landed. Reads keep working; the next Open heals the files.
	err    error
	closed bool
}

// Open loads (creating if needed) the archive in dir and heals any
// crash wreckage per the package rules.
func Open(dir string) (*Store, error) { return OpenFS(fsys.OS, dir) }

// OpenFS is Open on the given file system.
func OpenFS(fs fsys.FS, dir string) (*Store, error) {
	if err := fs.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("archive: creating %s: %w", dir, err)
	}
	s := &Store{dir: dir, index: make(map[string]idxEntry)}
	var dataNew, idxNew bool
	var err error
	if s.data, s.dataSize, dataNew, err = openTiered(fs, filepath.Join(dir, dataName), dataMagic); err != nil {
		return nil, err
	}
	if s.idx, s.idxSize, idxNew, err = openTiered(fs, filepath.Join(dir, idxName), idxMagic); err != nil {
		s.data.Close()
		return nil, err
	}
	// A created file's content is synced by openTiered; its directory
	// entry is made durable here, once for both. Without it a crash can
	// lose the file itself after a checkpoint has moved evidence into it
	// and truncated the journal that held it.
	if dataNew || idxNew {
		if err := fs.SyncDir(dir); err != nil {
			s.data.Close()
			s.idx.Close()
			return nil, fmt.Errorf("archive: syncing %s: %w", dir, err)
		}
	}
	if err := s.load(); err != nil {
		s.data.Close()
		s.idx.Close()
		return nil, err
	}
	trackStore(s)
	return s, nil
}

// openTiered opens or creates one archive file, writing and syncing
// the magic on creation and validating it otherwise. Returns the file
// positioned at its end, the current size, and whether the file was
// (re)initialised — its directory entry then still needs a sync.
func openTiered(fs fsys.FS, path, magic string) (fsys.File, int64, bool, error) {
	f, err := fs.OpenFile(path, os.O_RDWR|os.O_CREATE)
	if err != nil {
		return nil, 0, false, fmt.Errorf("archive: opening %s: %w", filepath.Base(path), err)
	}
	size, err := f.Size()
	if err != nil {
		f.Close()
		return nil, 0, false, fmt.Errorf("archive: stat %s: %w", filepath.Base(path), err)
	}
	initHeader := func() (fsys.File, int64, bool, error) {
		if _, err := f.WriteAt([]byte(magic), 0); err != nil {
			f.Close()
			return nil, 0, false, fmt.Errorf("archive: writing %s header: %w", filepath.Base(path), err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, 0, false, fmt.Errorf("archive: syncing %s header: %w", filepath.Base(path), err)
		}
		if _, err := f.Seek(int64(len(magic)), io.SeekStart); err != nil {
			f.Close()
			return nil, 0, false, fmt.Errorf("archive: seeking %s: %w", filepath.Base(path), err)
		}
		return f, int64(len(magic)), true, nil
	}
	if size == 0 {
		return initHeader()
	}
	hdr := make([]byte, len(magic))
	if _, err := f.ReadAt(hdr, 0); err != nil || string(hdr) != magic {
		// A file torn during creation (shorter than the magic) is
		// indistinguishable from an empty store; rebuild it. Anything
		// else with a wrong magic is not ours to overwrite.
		if size < int64(len(magic)) {
			if err := f.Truncate(0); err != nil {
				f.Close()
				return nil, 0, false, fmt.Errorf("archive: truncating torn %s: %w", filepath.Base(path), err)
			}
			return initHeader()
		}
		f.Close()
		return nil, 0, false, fmt.Errorf("%w: %s: bad file header", ErrCorrupt, filepath.Base(path))
	}
	if _, err := f.Seek(size, io.SeekStart); err != nil {
		f.Close()
		return nil, 0, false, fmt.Errorf("archive: seeking %s end: %w", filepath.Base(path), err)
	}
	return f, size, false, nil
}

// load rebuilds the in-memory index and heals the files. Runs at Open,
// before the store is visible to anyone.
func (s *Store) load() error {
	// Pass 1: the index file. A torn tail (the crash window inside the
	// index write itself) is truncated; entries pointing past the end of
	// the data file mean the data was damaged more than its own torn
	// tail explains — fall through to a full rescan.
	entries, idxEnd, err := scanRecords(s.idx, s.idxSize, idxMagic)
	if err != nil {
		return err
	}
	if idxEnd < s.idxSize {
		if err := s.idx.Truncate(idxEnd); err != nil {
			return fmt.Errorf("archive: truncating torn index tail: %w", err)
		}
		if _, err := s.idx.Seek(idxEnd, io.SeekStart); err != nil {
			return err
		}
		s.idxSize = idxEnd
		archiveHeals.Inc()
	}
	maxEnd := int64(len(dataMagic))
	ordered := make([]struct {
		txn string
		e   idxEntry
	}, 0, len(entries))
	rebuild := false
	for _, rec := range entries {
		d := wire.NewDecoder(rec)
		txn := d.String()
		off := int64(d.U64())
		length := int64(d.U64())
		if err := d.Finish(); err != nil {
			rebuild = true
			break
		}
		if off < int64(len(dataMagic)) || length < recHeaderLen || off+length > s.dataSize {
			rebuild = true
			break
		}
		ordered = append(ordered, struct {
			txn string
			e   idxEntry
		}{txn, idxEntry{off, length}})
		if off+length > maxEnd {
			maxEnd = off + length
		}
	}
	if rebuild {
		return s.rebuildIndex()
	}
	for _, it := range ordered {
		s.index[it.txn] = it.e
	}
	// Pass 2: the data suffix past the last indexed byte — orphan
	// records from the crash window between the data and index writes.
	// Each intact one is re-indexed; a torn tail is truncated.
	return s.indexDataFrom(maxEnd)
}

// rebuildIndex derives the index from scratch by scanning the whole
// data file, then rewrites the index file to match. The data file is
// authoritative, so this is always safe — just O(archive) instead of
// O(index).
func (s *Store) rebuildIndex() error {
	archiveRebuilds.Inc()
	s.index = make(map[string]idxEntry)
	if err := s.idx.Truncate(int64(len(idxMagic))); err != nil {
		return fmt.Errorf("archive: resetting index: %w", err)
	}
	if _, err := s.idx.Seek(int64(len(idxMagic)), io.SeekStart); err != nil {
		return err
	}
	s.idxSize = int64(len(idxMagic))
	return s.indexDataFrom(int64(len(dataMagic)))
}

// indexDataFrom scans data records starting at off, adds each intact
// one to the index (appending index records for them), and truncates a
// torn data tail.
func (s *Store) indexDataFrom(off int64) error {
	if off >= s.dataSize {
		return nil
	}
	buf := make([]byte, s.dataSize-off)
	if _, err := s.data.ReadAt(buf, off); err != nil {
		return fmt.Errorf("archive: reading data suffix: %w", err)
	}
	pos := int64(0)
	for int64(len(buf))-pos >= recHeaderLen {
		length := binary.BigEndian.Uint32(buf[pos:])
		crc := binary.BigEndian.Uint32(buf[pos+4:])
		body := pos + recHeaderLen
		if length > MaxBundleSize || body+int64(length) > int64(len(buf)) ||
			crc32.ChecksumIEEE(buf[body:body+int64(length)]) != crc {
			break // torn tail
		}
		rec := buf[body : body+int64(length)]
		d := wire.NewDecoder(rec)
		txn := d.String()
		if txn == "" || d.Err() != nil {
			break // torn tail that happens to checksum? treat as tear
		}
		e := idxEntry{off + pos, recHeaderLen + int64(length)}
		if err := s.appendIdxLocked(txn, e); err != nil {
			return err
		}
		s.index[txn] = e
		archiveRecovered.Inc()
		pos = body + int64(length)
	}
	if off+pos < s.dataSize {
		if err := s.data.Truncate(off + pos); err != nil {
			return fmt.Errorf("archive: truncating torn data tail: %w", err)
		}
		if _, err := s.data.Seek(off+pos, io.SeekStart); err != nil {
			return err
		}
		s.dataSize = off + pos
		archiveHeals.Inc()
	}
	return nil
}

// scanRecords walks the framed records of one file, returning the
// intact payloads and the offset just past the last intact record (a
// smaller offset than size means a torn tail for the caller to
// truncate).
func scanRecords(f fsys.File, size int64, magic string) ([][]byte, int64, error) {
	buf := make([]byte, size-int64(len(magic)))
	if len(buf) > 0 {
		if _, err := f.ReadAt(buf, int64(len(magic))); err != nil {
			return nil, 0, fmt.Errorf("archive: reading records: %w", err)
		}
	}
	var out [][]byte
	pos := int64(0)
	for int64(len(buf))-pos >= recHeaderLen {
		length := binary.BigEndian.Uint32(buf[pos:])
		crc := binary.BigEndian.Uint32(buf[pos+4:])
		body := pos + recHeaderLen
		if length > MaxBundleSize || body+int64(length) > int64(len(buf)) ||
			crc32.ChecksumIEEE(buf[body:body+int64(length)]) != crc {
			break
		}
		out = append(out, buf[body:body+int64(length)])
		pos = body + int64(length)
	}
	return out, int64(len(magic)) + pos, nil
}

// frame wraps body in the shared record framing.
func frame(body []byte) []byte {
	rec := make([]byte, 0, recHeaderLen+len(body))
	rec = binary.BigEndian.AppendUint32(rec, uint32(len(body)))
	rec = binary.BigEndian.AppendUint32(rec, crc32.ChecksumIEEE(body))
	return append(rec, body...)
}

func encodeBundle(b *Bundle) []byte {
	n := 16 + len(b.Txn)
	for _, it := range b.Items {
		n += 5 + len(it.Blob)
	}
	e := wire.NewEncoder(n)
	e.String(b.Txn)
	e.U8(b.State)
	e.U32(uint32(len(b.Items)))
	for _, it := range b.Items {
		e.U8(it.Role)
		e.Bytes32(it.Blob)
	}
	return e.Bytes()
}

// decodeBundle decodes a bundle whose items alias rec: Get reads each
// record into a buffer of its own and hands it over whole.
func decodeBundle(rec []byte) (*Bundle, error) {
	d := wire.NewDecoder(rec)
	b := &Bundle{Txn: d.String(), State: d.U8()}
	n := d.U32()
	for i := uint32(0); i < n && d.Err() == nil; i++ {
		b.Items = append(b.Items, Item{Role: d.U8(), Blob: d.View32()})
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("%w: bundle: %v", ErrCorrupt, err)
	}
	return b, nil
}

// appendIdxLocked writes one index record. Callers hold s.mu (or run
// single-threaded inside Open).
func (s *Store) appendIdxLocked(txn string, e idxEntry) error {
	enc := wire.NewEncoder(24 + len(txn))
	enc.String(txn)
	enc.U64(uint64(e.off))
	enc.U64(uint64(e.length))
	rec := frame(enc.Bytes())
	if _, err := s.idx.Write(rec); err != nil {
		return fmt.Errorf("archive: appending index record: %w", err)
	}
	s.idxSize += int64(len(rec))
	return nil
}

// Append archives one terminal session's bundle: data record first,
// index record second, no fsync (see the package comment for why that
// is safe). Re-appending a transaction supersedes the earlier bundle.
// An append that starts but cannot finish poisons the store.
func (s *Store) Append(b *Bundle) error {
	if b.Txn == "" {
		return fmt.Errorf("archive: bundle without transaction id")
	}
	body := encodeBundle(b)
	if len(body) > MaxBundleSize {
		return fmt.Errorf("archive: bundle %s exceeds maximum size", b.Txn)
	}
	rec := frame(body)

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.err != nil {
		return s.err
	}
	committed := false
	defer func() {
		// Reached on the panic path too (a crash-simulating faultpoint):
		// a half-done append must poison the store so no later Append
		// interleaves with the missing index half.
		if !committed && s.err == nil {
			s.err = fmt.Errorf("archive: interrupted append of %s", b.Txn)
		}
	}()
	if _, err := s.data.Write(rec); err != nil {
		s.err = fmt.Errorf("archive: appending data record: %w", err)
		committed = true
		return s.err
	}
	e := idxEntry{s.dataSize, int64(len(rec))}
	s.dataSize += int64(len(rec))
	faultpoint.Hit(fpAppendPartial)
	if err := s.appendIdxLocked(b.Txn, e); err != nil {
		s.err = err
		committed = true
		return s.err
	}
	s.index[b.Txn] = e
	committed = true
	archiveAppends.Inc()
	return nil
}

// Sync forces everything appended so far to stable storage: data before
// index, so a crash between the two fsyncs leaves at worst an orphan
// data suffix — exactly the shape Open re-indexes.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if err := s.data.Sync(); err != nil {
		s.err = fmt.Errorf("archive: syncing data: %w", err)
		return s.err
	}
	if err := s.idx.Sync(); err != nil {
		s.err = fmt.Errorf("archive: syncing index: %w", err)
		return s.err
	}
	return nil
}

// Get returns the archived bundle for txn — one index lookup, one
// ReadAt, one CRC check; never a scan. The dispute read path for
// compacted sessions.
func (s *Store) Get(txn string) (*Bundle, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	e, ok := s.index[txn]
	f := s.data
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, txn)
	}
	buf := make([]byte, e.length)
	if _, err := f.ReadAt(buf, e.off); err != nil {
		return nil, fmt.Errorf("archive: reading bundle %s: %w", txn, err)
	}
	length := binary.BigEndian.Uint32(buf)
	crc := binary.BigEndian.Uint32(buf[4:])
	if int64(length)+recHeaderLen != e.length {
		return nil, fmt.Errorf("%w: %s: index/record length mismatch", ErrCorrupt, txn)
	}
	body := buf[recHeaderLen:]
	if crc32.ChecksumIEEE(body) != crc {
		return nil, fmt.Errorf("%w: %s: checksum mismatch", ErrCorrupt, txn)
	}
	b, err := decodeBundle(body)
	if err != nil {
		return nil, err
	}
	if b.Txn != txn {
		return nil, fmt.Errorf("%w: %s: bundle names %s", ErrCorrupt, txn, b.Txn)
	}
	return b, nil
}

// Has reports whether txn is archived.
func (s *Store) Has(txn string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.index[txn]
	return ok
}

// Transactions returns every archived transaction id (unordered).
func (s *Store) Transactions() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.index))
	for txn := range s.index {
		out = append(out, txn)
	}
	return out
}

// Sessions reports how many distinct transactions are archived.
func (s *Store) Sessions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// Bytes reports the on-disk footprint (data + index).
func (s *Store) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dataSize + s.idxSize
}

// Healthy returns nil while the store accepts appends, or the sticky
// error that poisoned it.
func (s *Store) Healthy() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Dir returns the archive directory.
func (s *Store) Dir() string { return s.dir }

// Close syncs and releases the store.
func (s *Store) Close() error {
	// Before s.mu: the gauge callbacks lock the instance set then s.mu.
	untrackStore(s)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	err := s.data.Sync()
	if e := s.idx.Sync(); err == nil {
		err = e
	}
	if e := s.data.Close(); err == nil {
		err = e
	}
	if e := s.idx.Close(); err == nil {
		err = e
	}
	return err
}
