// Package storage is the blob-store substrate under the cloud platform
// simulators. It stores objects with their upload-time MD5 metadata
// (the way Azure keeps the Content-MD5 "in the database", paper §2.4),
// supports version history, and — crucially for experiment E5 — exposes
// an administrative Tamper interface modeling the provider's power:
// "As the administrator of the storage service, Eve has the capability
// to play with the data in hand" (§2.4).
//
// Two implementations are provided: an in-memory store for tests and
// experiments, and a disk-backed store for the daemons.
package storage

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/cryptoutil"
)

// Store errors.
var (
	ErrNotFound      = errors.New("storage: object not found")
	ErrChecksum      = errors.New("storage: content digest mismatch")
	ErrEmptyKey      = errors.New("storage: empty object key")
	ErrNoSuchVersion = errors.New("storage: no such version")
)

// Object is a stored blob together with its metadata.
type Object struct {
	// Key is the object name.
	Key string
	// Data is the blob content.
	Data []byte
	// StoredMD5 is the digest recorded at upload time. This is the
	// platform's database copy — tampering with Data does NOT update it
	// unless the tamperer chooses to (that asymmetry is the §2.4 gap).
	StoredMD5 cryptoutil.Digest
	// Version is 1 for the first write of a key and increments per
	// overwrite or tamper.
	Version int
	// StoredAt is the server-side write time.
	StoredAt time.Time
}

// Clone deep-copies the object so callers cannot mutate store state.
func (o Object) Clone() Object {
	o.Data = append([]byte(nil), o.Data...)
	o.StoredMD5 = o.StoredMD5.Clone()
	return o
}

// ComputedMD5 recomputes the digest of the current content — what AWS
// does when it returns "the MD5 of the bytes" after a load (§2.1).
func (o Object) ComputedMD5() cryptoutil.Digest {
	return cryptoutil.Sum(cryptoutil.MD5, o.Data)
}

// Store is the minimal blob API the platform simulators build on.
type Store interface {
	// Put writes data under key. If wantMD5 is non-zero the store
	// verifies it against the content before accepting (the Azure
	// behaviour: "The MD5 checksum is checked by the server. If it does
	// not match, an error is returned", §2.2).
	Put(key string, data []byte, wantMD5 cryptoutil.Digest) (Object, error)
	// Get returns the current version of key.
	Get(key string) (Object, error)
	// Delete removes key. Deleting a missing key returns ErrNotFound.
	Delete(key string) error
	// Keys lists all object keys in sorted order.
	Keys() []string
}

// Tamperer is the provider-side capability: mutate stored bytes and
// choose whether the metadata digest is fixed up to match. A tamper
// that fixes the digest is undetectable by any per-session check and
// is exactly the E5 attack.
type Tamperer interface {
	// Tamper applies mutate to the stored content of key. If fixDigest
	// is true, StoredMD5 is recomputed to match the new content
	// (insider covering their tracks); otherwise the stale digest is
	// left in place.
	Tamper(key string, fixDigest bool, mutate func([]byte) []byte) error
}

// Mem is an in-memory Store with version history and tampering.
// The zero value is not usable; construct with NewMem.
type Mem struct {
	mu      sync.RWMutex
	objects map[string][]Object // version history, oldest first
	now     func() time.Time
}

// NewMem returns an empty in-memory store stamping writes with now
// (nil means time.Now).
func NewMem(now func() time.Time) *Mem {
	if now == nil {
		now = time.Now
	}
	return &Mem{objects: make(map[string][]Object), now: now}
}

// Put implements Store.
func (m *Mem) Put(key string, data []byte, wantMD5 cryptoutil.Digest) (Object, error) {
	if key == "" {
		return Object{}, ErrEmptyKey
	}
	actual := cryptoutil.Sum(cryptoutil.MD5, data)
	if !wantMD5.IsZero() && !actual.Equal(wantMD5) {
		return Object{}, fmt.Errorf("%w: key %q: got %s, declared %s", ErrChecksum, key, actual, wantMD5)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	obj := Object{
		Key:       key,
		Data:      append([]byte(nil), data...),
		StoredMD5: actual,
		Version:   len(m.objects[key]) + 1,
		StoredAt:  m.now(),
	}
	m.objects[key] = append(m.objects[key], obj)
	return obj.Clone(), nil
}

// Get implements Store.
func (m *Mem) Get(key string) (Object, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	hist := m.objects[key]
	if len(hist) == 0 {
		return Object{}, fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	return hist[len(hist)-1].Clone(), nil
}

// Delete implements Store.
func (m *Mem) Delete(key string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.objects[key]) == 0 {
		return fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	delete(m.objects, key)
	return nil
}

// Keys implements Store.
func (m *Mem) Keys() []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]string, 0, len(m.objects))
	for k := range m.objects {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Tamper implements Tamperer.
func (m *Mem) Tamper(key string, fixDigest bool, mutate func([]byte) []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	hist := m.objects[key]
	if len(hist) == 0 {
		return fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	cur := hist[len(hist)-1].Clone()
	cur.Data = mutate(cur.Data)
	if fixDigest {
		cur.StoredMD5 = cryptoutil.Sum(cryptoutil.MD5, cur.Data)
	}
	cur.Version++
	cur.StoredAt = m.now()
	m.objects[key] = append(hist, cur)
	return nil
}

// GetVersion returns a historical version of key (1-based).
func (m *Mem) GetVersion(key string, version int) (Object, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	hist := m.objects[key]
	if len(hist) == 0 {
		return Object{}, fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	if version < 1 || version > len(hist) {
		return Object{}, fmt.Errorf("%w: %q v%d (have %d)", ErrNoSuchVersion, key, version, len(hist))
	}
	return hist[version-1].Clone(), nil
}

// Versions returns the number of versions of key.
func (m *Mem) Versions(key string) (int, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	hist := m.objects[key]
	if len(hist) == 0 {
		return 0, fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	return len(hist), nil
}
