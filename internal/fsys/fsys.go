// Package fsys is the file-system seam under every durability site of
// the evidence path: the journal (wal), the cold archive (archive), the
// blob store (storage.Disk) and, through them, checkpointing. It is the
// smallest surface those packages use — create, write, sync, rename,
// remove, readdir and directory sync — with two implementations: OS,
// the default, which is the os package with nothing in between, and
// Mem, an in-memory file system that records every mutation it serves
// as a trace.
//
// The trace is what makes a flush provable: the crash-state enumerator
// (internal/crashenum) replays subsets of it under the POSIX
// persistence model — unsynced writes and unsynced directory entries
// may each be lost — and checks recovery on every state. A flush is
// load-bearing exactly when removing it lets some state fail.
package fsys

import (
	"io"
	"os"
	"sort"
)

// FS is the file-system seam. Paths are ordinary OS-style paths; every
// implementation treats them as already absolute or relative to the
// same base.
type FS interface {
	// MkdirAll creates dir and any missing parents.
	MkdirAll(dir string) error
	// OpenFile opens name with os.OpenFile flags (O_RDWR, O_CREATE,
	// O_EXCL, O_TRUNC, O_WRONLY and O_RDONLY are honoured).
	OpenFile(name string, flag int) (File, error)
	// ReadFile returns the whole content of name.
	ReadFile(name string) ([]byte, error)
	// ReadDir returns the names of dir's entries, sorted.
	ReadDir(dir string) ([]string, error)
	// Rename moves oldpath to newpath, replacing newpath.
	Rename(oldpath, newpath string) error
	// Remove unlinks name.
	Remove(name string) error
	// Truncate sets name's size.
	Truncate(name string, size int64) error
	// SyncDir makes dir's entries (creates, renames, removes) durable.
	SyncDir(dir string) error
}

// File is an open file.
type File interface {
	io.Writer
	io.WriterAt
	io.ReaderAt
	io.Seeker
	// Truncate sets the file's size.
	Truncate(size int64) error
	// Size reports the file's current size.
	Size() (int64, error)
	// Sync makes the file's data durable.
	Sync() error
	Close() error
}

// OS is the default file system: the os package.
var OS FS = osFS{}

type osFS struct{}

type osFile struct{ *os.File }

func (f osFile) Size() (int64, error) {
	fi, err := f.Stat()
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

func (osFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

func (osFS) OpenFile(name string, flag int) (File, error) {
	f, err := os.OpenFile(name, flag, 0o644)
	if err != nil {
		return nil, err
	}
	return osFile{f}, nil
}

func (osFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

func (osFS) ReadDir(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(ents))
	for i, e := range ents {
		names[i] = e.Name()
	}
	sort.Strings(names)
	return names, nil
}

func (osFS) Rename(oldpath, newpath string) error   { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error               { return os.Remove(name) }
func (osFS) Truncate(name string, size int64) error { return os.Truncate(name, size) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
