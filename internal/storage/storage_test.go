package storage

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/cryptoutil"
)

// stores returns every Store implementation under test, so the same
// behaviours are checked across Mem and Disk.
func stores(t *testing.T) map[string]Store {
	t.Helper()
	disk, err := NewDisk(t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Store{
		"mem":  NewMem(nil),
		"disk": disk,
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			data := []byte("company financial data")
			put, err := s.Put("finance/q3.xls", data, cryptoutil.Digest{})
			if err != nil {
				t.Fatal(err)
			}
			if put.Version != 1 {
				t.Errorf("first Put version = %d", put.Version)
			}
			got, err := s.Get("finance/q3.xls")
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Data, data) {
				t.Error("data round trip mismatch")
			}
			if !got.StoredMD5.Equal(cryptoutil.Sum(cryptoutil.MD5, data)) {
				t.Error("stored MD5 wrong")
			}
		})
	}
}

func TestPutChecksumValidation(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			data := []byte("payload")
			right := cryptoutil.Sum(cryptoutil.MD5, data)
			if _, err := s.Put("k", data, right); err != nil {
				t.Fatalf("matching MD5 rejected: %v", err)
			}
			wrong := cryptoutil.Sum(cryptoutil.MD5, []byte("other"))
			if _, err := s.Put("k2", data, wrong); !errors.Is(err, ErrChecksum) {
				t.Fatalf("mismatched MD5: err = %v, want ErrChecksum", err)
			}
		})
	}
}

func TestPutEmptyKey(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			if _, err := s.Put("", []byte("x"), cryptoutil.Digest{}); !errors.Is(err, ErrEmptyKey) {
				t.Fatalf("err = %v, want ErrEmptyKey", err)
			}
		})
	}
}

func TestGetMissing(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			if _, err := s.Get("nope"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("err = %v, want ErrNotFound", err)
			}
		})
	}
}

func TestDelete(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			if _, err := s.Put("k", []byte("x"), cryptoutil.Digest{}); err != nil {
				t.Fatal(err)
			}
			if err := s.Delete("k"); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Get("k"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("get after delete: %v", err)
			}
			if err := s.Delete("k"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("double delete: %v", err)
			}
		})
	}
}

func TestKeysSorted(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			for _, k := range []string{"zeta", "alpha", "mid/dle"} {
				if _, err := s.Put(k, []byte(k), cryptoutil.Digest{}); err != nil {
					t.Fatal(err)
				}
			}
			got := s.Keys()
			want := []string{"alpha", "mid/dle", "zeta"}
			if len(got) != len(want) {
				t.Fatalf("Keys = %v", got)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("Keys = %v, want %v", got, want)
				}
			}
		})
	}
}

func TestOverwriteBumpsVersion(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			if _, err := s.Put("k", []byte("v1"), cryptoutil.Digest{}); err != nil {
				t.Fatal(err)
			}
			obj, err := s.Put("k", []byte("v2"), cryptoutil.Digest{})
			if err != nil {
				t.Fatal(err)
			}
			if obj.Version != 2 {
				t.Fatalf("version after overwrite = %d", obj.Version)
			}
		})
	}
}

// TestTamperWithoutDigestFix models the clumsy insider: data changes
// but the database MD5 goes stale, so a digest check WOULD catch it.
func TestTamperWithoutDigestFix(t *testing.T) {
	for name, s := range stores(t) {
		tam, ok := s.(Tamperer)
		if !ok {
			t.Fatalf("%s does not implement Tamperer", name)
		}
		t.Run(name, func(t *testing.T) {
			orig := []byte("ledger: 1000")
			if _, err := s.Put("ledger", orig, cryptoutil.Digest{}); err != nil {
				t.Fatal(err)
			}
			if err := tam.Tamper("ledger", false, func(b []byte) []byte {
				return bytes.Replace(b, []byte("1000"), []byte("9999"), 1)
			}); err != nil {
				t.Fatal(err)
			}
			obj, err := s.Get("ledger")
			if err != nil {
				t.Fatal(err)
			}
			if bytes.Equal(obj.Data, orig) {
				t.Fatal("tamper did not change data")
			}
			if obj.StoredMD5.Equal(obj.ComputedMD5()) {
				t.Fatal("stored digest should be stale after fixDigest=false")
			}
		})
	}
}

// TestTamperWithDigestFix models the careful insider: both data and
// metadata change, so no platform-side check can ever notice — the E5
// vulnerability.
func TestTamperWithDigestFix(t *testing.T) {
	for name, s := range stores(t) {
		tam := s.(Tamperer)
		t.Run(name, func(t *testing.T) {
			if _, err := s.Put("ledger", []byte("ledger: 1000"), cryptoutil.Digest{}); err != nil {
				t.Fatal(err)
			}
			if err := tam.Tamper("ledger", true, func(b []byte) []byte {
				return append(b, []byte(" [adjusted]")...)
			}); err != nil {
				t.Fatal(err)
			}
			obj, err := s.Get("ledger")
			if err != nil {
				t.Fatal(err)
			}
			if !obj.StoredMD5.Equal(obj.ComputedMD5()) {
				t.Fatal("fixDigest=true must leave metadata consistent")
			}
		})
	}
}

func TestTamperMissingKey(t *testing.T) {
	for name, s := range stores(t) {
		tam := s.(Tamperer)
		t.Run(name, func(t *testing.T) {
			err := tam.Tamper("ghost", true, func(b []byte) []byte { return b })
			if !errors.Is(err, ErrNotFound) {
				t.Fatalf("err = %v, want ErrNotFound", err)
			}
		})
	}
}

func TestMemVersionHistory(t *testing.T) {
	now := time.Date(2010, 1, 1, 0, 0, 0, 0, time.UTC)
	m := NewMem(func() time.Time { return now })
	m.Put("k", []byte("v1"), cryptoutil.Digest{})
	m.Put("k", []byte("v2"), cryptoutil.Digest{})
	m.Tamper("k", true, func(b []byte) []byte { return []byte("v3-tampered") })

	n, err := m.Versions("k")
	if err != nil || n != 3 {
		t.Fatalf("Versions = %d, %v", n, err)
	}
	v1, err := m.GetVersion("k", 1)
	if err != nil || string(v1.Data) != "v1" {
		t.Fatalf("v1 = %q, %v", v1.Data, err)
	}
	v3, err := m.GetVersion("k", 3)
	if err != nil || string(v3.Data) != "v3-tampered" {
		t.Fatalf("v3 = %q, %v", v3.Data, err)
	}
	if _, err := m.GetVersion("k", 4); !errors.Is(err, ErrNoSuchVersion) {
		t.Fatalf("v4: %v", err)
	}
	if _, err := m.GetVersion("ghost", 1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("ghost: %v", err)
	}
	if _, err := m.Versions("ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("ghost versions: %v", err)
	}
}

func TestGetReturnsCopy(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			s.Put("k", []byte("immutable"), cryptoutil.Digest{})
			a, _ := s.Get("k")
			a.Data[0] = 'X'
			b, _ := s.Get("k")
			if string(b.Data) != "immutable" {
				t.Fatal("Get result aliases store memory")
			}
		})
	}
}

// TestPutKeepsNoCallerMemory: what Get reads back is what Put was given,
// whatever the caller does afterwards to its own slice or to the Object
// Put returned. Mem must copy to promise that; Disk has written the
// bytes out by the time Put returns and copies nothing.
func TestPutKeepsNoCallerMemory(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			data := []byte("immutable")
			put, err := s.Put("k", data, cryptoutil.Digest{})
			if err != nil {
				t.Fatal(err)
			}
			data[0] = 'X'
			put.Data[1] = 'Y'
			got, err := s.Get("k")
			if err != nil {
				t.Fatal(err)
			}
			if string(got.Data) != "immutable" {
				t.Fatalf("Get read back %q after the caller changed its slice", got.Data)
			}
		})
	}
}

func TestDiskSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	d1, err := NewDisk(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d1.Put("persist/me", []byte("durable"), cryptoutil.Digest{}); err != nil {
		t.Fatal(err)
	}
	d2, err := NewDisk(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := d2.Get("persist/me")
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Data) != "durable" {
		t.Fatalf("reopened store returned %q", got.Data)
	}
	keys := d2.Keys()
	if len(keys) != 1 || keys[0] != "persist/me" {
		t.Fatalf("Keys after reopen = %v", keys)
	}
}

func TestMemPutGetQuick(t *testing.T) {
	m := NewMem(nil)
	f := func(key string, data []byte) bool {
		if key == "" {
			key = "k"
		}
		if _, err := m.Put(key, data, cryptoutil.Digest{}); err != nil {
			return false
		}
		got, err := m.Get(key)
		return err == nil && bytes.Equal(got.Data, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
