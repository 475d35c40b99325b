package storage

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/fsys"
)

// Disk is a Store persisting each object as a data file plus a JSON
// metadata sidecar under a root directory. It is what the daemons use;
// it deliberately mirrors Mem's semantics (including Tamper) minus
// version history.
type Disk struct {
	root string
	fs   fsys.FS
	mu   sync.Mutex
	now  func() time.Time
}

// NewDisk opens (creating if needed) a disk store rooted at dir.
func NewDisk(dir string, now func() time.Time) (*Disk, error) {
	return NewDiskFS(fsys.OS, dir, now)
}

// NewDiskFS is NewDisk on the given file system.
func NewDiskFS(fs fsys.FS, dir string, now func() time.Time) (*Disk, error) {
	if now == nil {
		now = time.Now
	}
	if err := fs.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("storage: creating root %s: %w", dir, err)
	}
	return &Disk{root: dir, fs: fs, now: now}, nil
}

type diskMeta struct {
	Key      string    `json:"key"`
	MD5Hex   string    `json:"md5_hex"`
	Version  int       `json:"version"`
	StoredAt time.Time `json:"stored_at"`
}

// encodeKey makes an arbitrary key filesystem-safe.
func encodeKey(key string) string {
	return base64.RawURLEncoding.EncodeToString([]byte(key))
}

func decodeKey(name string) (string, bool) {
	b, err := base64.RawURLEncoding.DecodeString(name)
	if err != nil {
		return "", false
	}
	return string(b), true
}

func (d *Disk) paths(key string) (dataPath, metaPath string) {
	enc := encodeKey(key)
	return filepath.Join(d.root, enc+".blob"), filepath.Join(d.root, enc+".meta")
}

// Put implements Store.
func (d *Disk) Put(key string, data []byte, wantMD5 cryptoutil.Digest) (Object, error) {
	if key == "" {
		return Object{}, ErrEmptyKey
	}
	actual := cryptoutil.Sum(cryptoutil.MD5, data)
	if !wantMD5.IsZero() && !actual.Equal(wantMD5) {
		return Object{}, fmt.Errorf("%w: key %q", ErrChecksum, key)
	}
	d.mu.Lock()
	defer d.mu.Unlock()

	version := 1
	if old, err := d.readMetaLocked(key); err == nil {
		version = old.Version + 1
	}
	// The store's state is the files: Data is the caller's slice, written
	// out before Put returns and not kept, so neither the write nor the
	// returned Object needs a copy of it.
	obj := Object{Key: key, Data: data, StoredMD5: actual, Version: version, StoredAt: d.now()}
	if err := d.writeLocked(obj); err != nil {
		return Object{}, err
	}
	return obj, nil
}

// writeLocked persists blob and metadata, each via write-to-temp +
// fsync + rename, then fsyncs the root directory once so both renames
// are durable before Put returns — and so before the provider journals
// the batch that binds the blob and sends the receipt. Without that
// sync a power loss after the receipt left could bring back the
// previous directory entries: the object would read as its previous
// version.
//
// The two renames are not one atomic step. A crash between them (or
// one that keeps only one of them, before the directory sync) leaves
// the new blob beside the previous metadata, or the reverse. No
// receipt binds that state: Put has not returned, so the upload that
// was writing it was never acknowledged, and its client resolves it.
func (d *Disk) writeLocked(obj Object) error {
	dataPath, metaPath := d.paths(obj.Key)
	if err := d.atomicWrite(dataPath, obj.Data); err != nil {
		return fmt.Errorf("storage: writing blob %q: %w", obj.Key, err)
	}
	meta := diskMeta{Key: obj.Key, MD5Hex: obj.StoredMD5.Hex(), Version: obj.Version, StoredAt: obj.StoredAt}
	raw, err := json.Marshal(meta)
	if err != nil {
		return fmt.Errorf("storage: encoding metadata for %q: %w", obj.Key, err)
	}
	if err := d.atomicWrite(metaPath, raw); err != nil {
		return fmt.Errorf("storage: writing metadata for %q: %w", obj.Key, err)
	}
	if err := d.fs.SyncDir(d.root); err != nil {
		return fmt.Errorf("storage: syncing %s: %w", d.root, err)
	}
	return nil
}

// atomicWrite writes data to path's temp sibling, syncs, and renames
// it over path. Callers hold d.mu, so one temp name per path is enough.
func (d *Disk) atomicWrite(path string, data []byte) error {
	tmpName := path + ".tmp"
	tmp, err := d.fs.OpenFile(tmpName, os.O_WRONLY|os.O_CREATE|os.O_TRUNC)
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		d.fs.Remove(tmpName)
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		d.fs.Remove(tmpName)
		return err
	}
	if err := tmp.Close(); err != nil {
		d.fs.Remove(tmpName)
		return err
	}
	if err := d.fs.Rename(tmpName, path); err != nil {
		d.fs.Remove(tmpName)
		return err
	}
	return nil
}

func (d *Disk) readMetaLocked(key string) (diskMeta, error) {
	_, metaPath := d.paths(key)
	raw, err := d.fs.ReadFile(metaPath)
	if err != nil {
		return diskMeta{}, fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	var meta diskMeta
	if err := json.Unmarshal(raw, &meta); err != nil {
		return diskMeta{}, fmt.Errorf("storage: corrupt metadata for %q: %w", key, err)
	}
	return meta, nil
}

// Get implements Store.
func (d *Disk) Get(key string) (Object, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	meta, err := d.readMetaLocked(key)
	if err != nil {
		return Object{}, err
	}
	dataPath, _ := d.paths(key)
	data, err := d.fs.ReadFile(dataPath)
	if err != nil {
		return Object{}, fmt.Errorf("%w: %q (blob missing)", ErrNotFound, key)
	}
	md5d, err := cryptoutil.ParseDigest("md5:" + meta.MD5Hex)
	if err != nil {
		return Object{}, fmt.Errorf("storage: corrupt digest for %q: %w", key, err)
	}
	return Object{Key: key, Data: data, StoredMD5: md5d, Version: meta.Version, StoredAt: meta.StoredAt}, nil
}

// Delete implements Store.
func (d *Disk) Delete(key string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	dataPath, metaPath := d.paths(key)
	if _, err := d.fs.ReadFile(metaPath); err != nil {
		return fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	if err := d.fs.Remove(dataPath); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("storage: deleting blob %q: %w", key, err)
	}
	if err := d.fs.Remove(metaPath); err != nil {
		return fmt.Errorf("storage: deleting metadata %q: %w", key, err)
	}
	return nil
}

// Keys implements Store.
func (d *Disk) Keys() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	names, err := d.fs.ReadDir(d.root)
	if err != nil {
		return nil
	}
	var out []string
	for _, name := range names {
		if !strings.HasSuffix(name, ".meta") {
			continue
		}
		if key, ok := decodeKey(strings.TrimSuffix(name, ".meta")); ok {
			out = append(out, key)
		}
	}
	sort.Strings(out)
	return out
}

// Tamper implements Tamperer.
func (d *Disk) Tamper(key string, fixDigest bool, mutate func([]byte) []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	meta, err := d.readMetaLocked(key)
	if err != nil {
		return err
	}
	dataPath, _ := d.paths(key)
	data, err := d.fs.ReadFile(dataPath)
	if err != nil {
		return fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	data = mutate(data)
	md5d, err := cryptoutil.ParseDigest("md5:" + meta.MD5Hex)
	if err != nil {
		return fmt.Errorf("storage: corrupt digest for %q: %w", key, err)
	}
	if fixDigest {
		md5d = cryptoutil.Sum(cryptoutil.MD5, data)
	}
	obj := Object{Key: key, Data: data, StoredMD5: md5d, Version: meta.Version + 1, StoredAt: d.now()}
	return d.writeLocked(obj)
}
