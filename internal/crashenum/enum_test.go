package crashenum

import (
	"os"
	"testing"

	"repro/internal/fsys"
)

// TestEnumerateModel checks the persistence model on the classic
// atomic-replace sequence — write a temp file, sync it, rename it over
// the target — with and without the directory sync that ends it: the
// rename may be lost until the directory is synced, the synced temp
// file's content never is, and a torn write leaves only half of it.
func TestEnumerateModel(t *testing.T) {
	replace := func(syncDir bool) []fsys.Op {
		m := fsys.NewMem()
		m.MkdirAll("/d")
		f, _ := m.OpenFile("/d/target", os.O_RDWR|os.O_CREATE)
		f.Write([]byte("old"))
		f.Sync()
		m.SyncDir("/d")
		m.Event("ready")
		tmp, _ := m.OpenFile("/d/target.tmp", os.O_RDWR|os.O_CREATE)
		tmp.Write([]byte("new!"))
		tmp.Sync()
		m.Rename("/d/target.tmp", "/d/target")
		if syncDir {
			m.SyncDir("/d")
		}
		m.Event("replaced")
		return m.Trace()
	}
	for _, syncDir := range []bool{false, true} {
		ops := replace(syncDir)
		seen := map[string]bool{}
		Enumerate(ops, func(st State) {
			replaced := false
			for _, op := range ops[:st.At] {
				replaced = replaced || op.Label == "replaced"
			}
			if !replaced {
				return
			}
			b, err := st.FS.ReadFile("/d/target")
			if err != nil {
				t.Fatalf("%s: target lost: %v", st, err)
			}
			seen[string(b)] = true
		})
		if want := !syncDir; seen["old"] != want || !seen["new!"] {
			t.Errorf("directory synced %v: after the replace the target read %v, want new! and old=%v", syncDir, seen, want)
		}
	}

	ops := replace(true)
	write := -1
	for i, op := range ops {
		if op.Kind == fsys.OpWrite && string(op.Data) == "new!" {
			write = i
		}
	}
	torn := 0
	Enumerate(ops, func(st State) {
		if st.Shape == "torn" && st.Dropped == write {
			torn++
			if b, _ := st.FS.ReadFile("/d/target.tmp"); string(b) != "ne" {
				t.Errorf("%s: torn write left %q, want its first half", st, b)
			}
		}
	})
	if torn != 1 {
		t.Errorf("%d torn states of the temp file's write, want 1", torn)
	}
}
