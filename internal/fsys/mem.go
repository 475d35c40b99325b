package fsys

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// OpKind names one recorded file-system mutation.
type OpKind uint8

// Recorded operations. Directory entries and file contents are kept
// apart, as the persistence model treats them: an entry op (create,
// rename, remove) becomes durable with a SyncDir of its directory, a
// content op (write, truncate) with a Sync of its inode.
const (
	OpCreate   OpKind = iota + 1 // Dir/Name now names the new empty inode Ino
	OpWrite                      // Data written to Ino at Off
	OpTruncate                   // Ino cut or extended to Size
	OpRename                     // Dir/Name (inode Ino) moved to Dir2/Name2
	OpRemove                     // Dir/Name (inode Ino) unlinked
	OpSync                       // Ino's content made durable
	OpSyncDir                    // Dir's entries made durable
	OpMkdir                      // Dir created (the model treats it as durable)
	OpEvent                      // a protocol event (Label), recorded by Mem.Event
)

var opNames = [...]string{"", "create", "write", "truncate", "rename", "remove", "sync", "syncdir", "mkdir", "event"}

func (k OpKind) String() string {
	if int(k) < len(opNames) {
		return opNames[k]
	}
	return fmt.Sprintf("op(%d)", k)
}

// Op is one recorded mutation (or event). Which fields are set depends
// on Kind; see the constants.
type Op struct {
	Kind        OpKind
	Dir, Name   string
	Dir2, Name2 string
	Ino         int
	Off         int64
	Size        int64
	Data        []byte
	Label       string
}

func (op Op) String() string {
	switch op.Kind {
	case OpCreate, OpRemove:
		return fmt.Sprintf("%s %s (ino %d)", op.Kind, filepath.Join(op.Dir, op.Name), op.Ino)
	case OpRename:
		return fmt.Sprintf("rename %s -> %s (ino %d)", filepath.Join(op.Dir, op.Name), filepath.Join(op.Dir2, op.Name2), op.Ino)
	case OpWrite:
		return fmt.Sprintf("write ino %d [%d,+%d)", op.Ino, op.Off, len(op.Data))
	case OpTruncate:
		return fmt.Sprintf("truncate ino %d to %d", op.Ino, op.Size)
	case OpSync:
		return fmt.Sprintf("sync ino %d", op.Ino)
	case OpSyncDir, OpMkdir:
		return fmt.Sprintf("%s %s", op.Kind, op.Dir)
	case OpEvent:
		return "event " + op.Label
	}
	return op.Kind.String()
}

// Mem is an in-memory file system with POSIX inode semantics (an open
// file keeps its inode across renames and unlinks) that records every
// mutation, in the order it served them, as a trace. Safe for
// concurrent use.
type Mem struct {
	mu      sync.Mutex
	dirs    map[string]map[string]int // directory → entry name → inode
	inodes  map[int][]byte
	nextIno int
	record  bool
	trace   []Op

	fileSyncs, dirSyncs int64
}

// NewMem returns an empty recording file system.
func NewMem() *Mem {
	return &Mem{dirs: map[string]map[string]int{".": {}, "/": {}}, inodes: map[int][]byte{}, record: true}
}

func (m *Mem) log(op Op) {
	if m.record {
		m.trace = append(m.trace, op)
	}
}

// Event records a protocol event (a message leaving a party, say) at
// the current point of the trace.
func (m *Mem) Event(label string) {
	m.mu.Lock()
	m.log(Op{Kind: OpEvent, Label: label})
	m.mu.Unlock()
}

// Trace returns a copy of the operations recorded so far.
func (m *Mem) Trace() []Op {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]Op(nil), m.trace...)
}

// Syncs reports the file and directory syncs served so far.
func (m *Mem) Syncs() (files, dirs int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.fileSyncs, m.dirSyncs
}

// clean normalises a path.
func clean(p string) string { return filepath.Clean(p) }

func pathErr(op, path string, err error) error { return &os.PathError{Op: op, Path: path, Err: err} }

// lookup resolves name to its directory, base and inode (0 when the
// entry is absent). Callers hold m.mu.
func (m *Mem) lookup(name string) (dir, base string, ino int, err error) {
	name = clean(name)
	dir, base = filepath.Dir(name), filepath.Base(name)
	ents, ok := m.dirs[dir]
	if !ok {
		return dir, base, 0, os.ErrNotExist
	}
	return dir, base, ents[base], nil
}

func (m *Mem) MkdirAll(dir string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.mkdirLocked(clean(dir), true)
	return nil
}

func (m *Mem) mkdirLocked(dir string, log bool) {
	for d := dir; ; d = filepath.Dir(d) {
		if _, ok := m.dirs[d]; ok {
			break
		}
		m.dirs[d] = map[string]int{}
		if log {
			m.log(Op{Kind: OpMkdir, Dir: d})
		}
		if d == filepath.Dir(d) {
			break
		}
	}
}

func (m *Mem) OpenFile(name string, flag int) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	dir, base, ino, err := m.lookup(name)
	if err != nil {
		return nil, pathErr("open", name, err)
	}
	if _, isDir := m.dirs[clean(name)]; isDir {
		return nil, pathErr("open", name, errors.New("is a directory"))
	}
	switch {
	case ino != 0 && flag&os.O_CREATE != 0 && flag&os.O_EXCL != 0:
		return nil, pathErr("open", name, os.ErrExist)
	case ino == 0 && flag&os.O_CREATE == 0:
		return nil, pathErr("open", name, os.ErrNotExist)
	case ino == 0:
		m.nextIno++
		ino = m.nextIno
		m.inodes[ino] = nil
		m.dirs[dir][base] = ino
		m.log(Op{Kind: OpCreate, Dir: dir, Name: base, Ino: ino})
	case flag&os.O_TRUNC != 0 && len(m.inodes[ino]) > 0:
		m.truncLocked(ino, 0)
	}
	return &memFile{m: m, ino: ino}, nil
}

func (m *Mem) ReadFile(name string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, _, ino, err := m.lookup(name)
	if err == nil && ino == 0 {
		err = os.ErrNotExist
	}
	if err != nil {
		return nil, pathErr("read", name, err)
	}
	return append([]byte(nil), m.inodes[ino]...), nil
}

func (m *Mem) ReadDir(dir string) ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	dir = clean(dir)
	ents, ok := m.dirs[dir]
	if !ok {
		return nil, pathErr("readdir", dir, os.ErrNotExist)
	}
	names := make([]string, 0, len(ents))
	for n := range ents {
		names = append(names, n)
	}
	for d := range m.dirs {
		if d != dir && filepath.Dir(d) == dir {
			names = append(names, filepath.Base(d))
		}
	}
	sort.Strings(names)
	return names, nil
}

func (m *Mem) Rename(oldpath, newpath string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	dir, base, ino, err := m.lookup(oldpath)
	if err == nil && ino == 0 {
		err = os.ErrNotExist
	}
	if err != nil {
		return pathErr("rename", oldpath, err)
	}
	dir2, base2, _, err := m.lookup(newpath)
	if err != nil {
		return pathErr("rename", newpath, err)
	}
	delete(m.dirs[dir], base)
	m.dirs[dir2][base2] = ino
	m.log(Op{Kind: OpRename, Dir: dir, Name: base, Dir2: dir2, Name2: base2, Ino: ino})
	return nil
}

func (m *Mem) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	dir, base, ino, err := m.lookup(name)
	if err == nil && ino == 0 {
		err = os.ErrNotExist
	}
	if err != nil {
		return pathErr("remove", name, err)
	}
	delete(m.dirs[dir], base)
	m.log(Op{Kind: OpRemove, Dir: dir, Name: base, Ino: ino})
	return nil
}

func (m *Mem) Truncate(name string, size int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, _, ino, err := m.lookup(name)
	if err == nil && ino == 0 {
		err = os.ErrNotExist
	}
	if err != nil {
		return pathErr("truncate", name, err)
	}
	m.truncLocked(ino, size)
	return nil
}

func (m *Mem) SyncDir(dir string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	dir = clean(dir)
	if _, ok := m.dirs[dir]; !ok {
		return pathErr("sync", dir, os.ErrNotExist)
	}
	m.dirSyncs++
	m.log(Op{Kind: OpSyncDir, Dir: dir})
	return nil
}

func (m *Mem) truncLocked(ino int, size int64) {
	m.inodes[ino] = resize(m.inodes[ino], size)
	m.log(Op{Kind: OpTruncate, Ino: ino, Size: size})
}

func (m *Mem) writeLocked(ino int, off int64, p []byte) {
	b := m.inodes[ino]
	if end := off + int64(len(p)); end > int64(len(b)) {
		b = resize(b, end)
	}
	copy(b[off:], p)
	m.inodes[ino] = b
	m.log(Op{Kind: OpWrite, Ino: ino, Off: off, Data: append([]byte(nil), p...)})
}

func resize(b []byte, size int64) []byte {
	if size <= int64(len(b)) {
		return b[:size]
	}
	return append(b, make([]byte, size-int64(len(b)))...)
}

// memFile is an open handle on one inode.
type memFile struct {
	m   *Mem
	ino int
	pos int64
}

func (f *memFile) Write(p []byte) (int, error) {
	f.m.mu.Lock()
	defer f.m.mu.Unlock()
	f.m.writeLocked(f.ino, f.pos, p)
	f.pos += int64(len(p))
	return len(p), nil
}

func (f *memFile) WriteAt(p []byte, off int64) (int, error) {
	f.m.mu.Lock()
	defer f.m.mu.Unlock()
	f.m.writeLocked(f.ino, off, p)
	return len(p), nil
}

func (f *memFile) ReadAt(p []byte, off int64) (int, error) {
	f.m.mu.Lock()
	defer f.m.mu.Unlock()
	b := f.m.inodes[f.ino]
	if off >= int64(len(b)) {
		return 0, io.EOF
	}
	n := copy(p, b[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (f *memFile) Seek(off int64, whence int) (int64, error) {
	f.m.mu.Lock()
	defer f.m.mu.Unlock()
	switch whence {
	case io.SeekStart:
	case io.SeekCurrent:
		off += f.pos
	case io.SeekEnd:
		off += int64(len(f.m.inodes[f.ino]))
	}
	if off < 0 {
		return 0, errors.New("fsys: negative seek")
	}
	f.pos = off
	return off, nil
}

func (f *memFile) Truncate(size int64) error {
	f.m.mu.Lock()
	defer f.m.mu.Unlock()
	f.m.truncLocked(f.ino, size)
	return nil
}

func (f *memFile) Size() (int64, error) {
	f.m.mu.Lock()
	defer f.m.mu.Unlock()
	return int64(len(f.m.inodes[f.ino])), nil
}

func (f *memFile) Sync() error {
	f.m.mu.Lock()
	defer f.m.mu.Unlock()
	f.m.fileSyncs++
	f.m.log(Op{Kind: OpSync, Ino: f.ino})
	return nil
}

func (f *memFile) Close() error { return nil }

// Build returns a fresh, non-recording file system holding what
// applying the selected ops of a trace, in order, leaves on disk: op i
// is applied when keep(i) reports true, and op torn (when ≥ 0) is
// applied with only the first half of its data. Directory creations
// are always applied. An entry op applies to the inode it was recorded
// with, so a rename that survives while the create before it was lost
// still names the renamed inode — and a remove or the source half of a
// rename only unlinks the entry if it still names that inode.
func Build(ops []Op, keep func(i int) bool, torn int) *Mem {
	m := &Mem{dirs: map[string]map[string]int{".": {}, "/": {}}, inodes: map[int][]byte{}}
	inode := func(ino int) {
		if _, ok := m.inodes[ino]; !ok {
			m.inodes[ino] = nil
		}
		if ino > m.nextIno {
			m.nextIno = ino
		}
	}
	for i, op := range ops {
		if op.Kind == OpMkdir {
			m.mkdirLocked(op.Dir, false)
			continue
		}
		if i != torn && !keep(i) {
			continue
		}
		switch op.Kind {
		case OpCreate:
			inode(op.Ino)
			m.dirs[op.Dir][op.Name] = op.Ino
		case OpWrite:
			inode(op.Ino)
			data := op.Data
			if i == torn {
				data = data[:len(data)/2]
			}
			m.writeLocked(op.Ino, op.Off, data)
		case OpTruncate:
			inode(op.Ino)
			m.inodes[op.Ino] = resize(m.inodes[op.Ino], op.Size)
		case OpRename:
			inode(op.Ino)
			if m.dirs[op.Dir][op.Name] == op.Ino {
				delete(m.dirs[op.Dir], op.Name)
			}
			m.dirs[op.Dir2][op.Name2] = op.Ino
		case OpRemove:
			if m.dirs[op.Dir][op.Name] == op.Ino {
				delete(m.dirs[op.Dir], op.Name)
			}
		}
	}
	return m
}

// Fingerprint digests the visible state — every directory, every entry
// and the content of every linked inode — so identical crash states
// are checked once.
func (m *Mem) Fingerprint() [32]byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	dirs := make([]string, 0, len(m.dirs))
	for d := range m.dirs {
		dirs = append(dirs, d)
	}
	sort.Strings(dirs)
	h := sha256.New()
	var n [8]byte
	for _, d := range dirs {
		names := make([]string, 0, len(m.dirs[d]))
		for name := range m.dirs[d] {
			names = append(names, name)
		}
		sort.Strings(names)
		h.Write([]byte(d))
		h.Write([]byte{0})
		for _, name := range names {
			data := m.inodes[m.dirs[d][name]]
			h.Write([]byte(name))
			binary.BigEndian.PutUint64(n[:], uint64(len(data)))
			h.Write(n[:])
			h.Write(data)
		}
		h.Write([]byte{1})
	}
	var sum [32]byte
	h.Sum(sum[:0])
	return sum
}
