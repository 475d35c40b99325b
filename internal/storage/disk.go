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
)

// Disk is a Store persisting each object as a data file plus a JSON
// metadata sidecar under a root directory. It is what the daemons use;
// it deliberately mirrors Mem's semantics (including Tamper) minus
// version history.
type Disk struct {
	root string
	mu   sync.Mutex
	now  func() time.Time
}

// NewDisk opens (creating if needed) a disk store rooted at dir.
func NewDisk(dir string, now func() time.Time) (*Disk, error) {
	if now == nil {
		now = time.Now
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: creating root %s: %w", dir, err)
	}
	return &Disk{root: dir, now: now}, nil
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

// writeLocked persists blob and metadata via write-to-temp + rename so
// a crash mid-write can never leave a new blob paired with stale
// metadata (which would be indistinguishable from insider tampering).
func (d *Disk) writeLocked(obj Object) error {
	dataPath, metaPath := d.paths(obj.Key)
	if err := atomicWrite(dataPath, obj.Data); err != nil {
		return fmt.Errorf("storage: writing blob %q: %w", obj.Key, err)
	}
	meta := diskMeta{Key: obj.Key, MD5Hex: obj.StoredMD5.Hex(), Version: obj.Version, StoredAt: obj.StoredAt}
	raw, err := json.Marshal(meta)
	if err != nil {
		return fmt.Errorf("storage: encoding metadata for %q: %w", obj.Key, err)
	}
	if err := atomicWrite(metaPath, raw); err != nil {
		return fmt.Errorf("storage: writing metadata for %q: %w", obj.Key, err)
	}
	return nil
}

// atomicWrite writes data to a temp file in the same directory, syncs,
// and renames it over path.
func atomicWrite(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return err
	}
	return nil
}

func (d *Disk) readMetaLocked(key string) (diskMeta, error) {
	_, metaPath := d.paths(key)
	raw, err := os.ReadFile(metaPath)
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
	data, err := os.ReadFile(dataPath)
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
	if _, err := os.Stat(metaPath); err != nil {
		return fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	if err := os.Remove(dataPath); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("storage: deleting blob %q: %w", key, err)
	}
	if err := os.Remove(metaPath); err != nil {
		return fmt.Errorf("storage: deleting metadata %q: %w", key, err)
	}
	return nil
}

// Keys implements Store.
func (d *Disk) Keys() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	entries, err := os.ReadDir(d.root)
	if err != nil {
		return nil
	}
	var out []string
	for _, e := range entries {
		name := e.Name()
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
	data, err := os.ReadFile(dataPath)
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
