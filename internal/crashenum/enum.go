// Package crashenum enumerates the crash states a recorded file-system
// trace can leave behind, after ALICE (Pillai et al., "All File Systems
// Are Not Created Equal", OSDI 2014): instead of killing a process at a
// handful of named points, it takes the whole sequence of file
// operations a protocol run issued (fsys.Mem records it), and builds
// every on-disk state the persistence model allows a crash to leave at
// every point of that sequence. A test then recovers the parties on
// each state and checks the dispute invariant against the protocol
// events (messages sent, operations returned) that preceded the crash.
//
// The persistence model is POSIX's, without the guarantees particular
// file systems add:
//
//   - a write or truncate is durable once its file was synced after it;
//   - a create, rename or remove is durable once its directory was
//     synced after it (a file sync does not persist its name);
//   - anything not yet durable may be lost, and independently of the
//     rest: any one pending operation may be missing while later ones
//     survive (reordering), all pending content or all pending entries
//     may be missing, and the last write may be torn (only its first
//     half on disk).
//
// What it does not model: directory creation (treated as durable — a
// deployment creates its tree once, before serving), a disk that lies
// about a completed sync, file-system bugs, and media corruption
// beyond a torn write. Two pending losses at once are covered only in
// the "all pending content" and "all pending entries" shapes, not in
// every pair.
package crashenum

import (
	"fmt"

	"repro/internal/fsys"
)

// State is one crash state: the file system a crash after the first At
// operations of the trace can leave, and how it was built.
type State struct {
	// At is the crash point: operations [0, At) were issued.
	At int
	// Shape names the loss: "prefix" (everything issued survived),
	// "durable" (only what was synced), "drop" (one pending operation,
	// Dropped, lost), "torn" (the last write half-written), "content"
	// (every pending write and truncate lost), "entries" (every pending
	// create, rename and remove lost).
	Shape string
	// Dropped is the index of the lost operation for Shape "drop", or
	// of the torn write for Shape "torn"; -1 otherwise.
	Dropped int
	// Op describes operation Dropped.
	Op string
	// FS is the state itself.
	FS *fsys.Mem
}

func (s State) String() string {
	if s.Dropped >= 0 {
		return fmt.Sprintf("crash at op %d, %s op %d (%s)", s.At, s.Shape, s.Dropped, s.Op)
	}
	return fmt.Sprintf("crash at op %d, %s", s.At, s.Shape)
}

func isContent(k fsys.OpKind) bool { return k == fsys.OpWrite || k == fsys.OpTruncate }

func isEntry(k fsys.OpKind) bool {
	return k == fsys.OpCreate || k == fsys.OpRename || k == fsys.OpRemove
}

// durableAt returns, for each operation, the index of the first later
// sync that makes it durable (len(ops) when none does): the file's own
// sync for a write or truncate, the directory's sync for an entry
// operation (both directories' for a rename across two).
func durableAt(ops []fsys.Op) []int {
	n := len(ops)
	at := make([]int, n)
	for i, op := range ops {
		at[i] = -1
		switch {
		case isContent(op.Kind):
			at[i] = n
			for j := i + 1; j < n; j++ {
				if ops[j].Kind == fsys.OpSync && ops[j].Ino == op.Ino {
					at[i] = j
					break
				}
			}
		case isEntry(op.Kind):
			dirs := []string{op.Dir}
			if op.Kind == fsys.OpRename && op.Dir2 != op.Dir {
				dirs = append(dirs, op.Dir2)
			}
			for _, d := range dirs {
				j := i + 1
				for ; j < n; j++ {
					if ops[j].Kind == fsys.OpSyncDir && ops[j].Dir == d {
						break
					}
				}
				if j > at[i] {
					at[i] = j
				}
			}
		}
	}
	return at
}

// Enumerate calls fn for every distinct crash state of ops at every
// crash point from 0 to len(ops), in trace order. A state that leaves
// the same files, after the same protocol events, as one already
// visited is skipped. It returns how many states fn saw.
func Enumerate(ops []fsys.Op, fn func(State)) int {
	at := durableAt(ops)
	type key struct {
		files  [32]byte
		events int
	}
	seen := make(map[key]bool)
	events := 0
	visit := func(k int, shape string, dropped int, keep func(i int) bool, torn int) {
		m := fsys.Build(ops[:k], keep, torn)
		id := key{m.Fingerprint(), events}
		if seen[id] {
			return
		}
		seen[id] = true
		st := State{At: k, Shape: shape, Dropped: dropped, FS: m}
		if dropped >= 0 {
			st.Op = ops[dropped].String()
		}
		fn(st)
	}
	for k := 0; k <= len(ops); k++ {
		if k > 0 && ops[k-1].Kind == fsys.OpEvent {
			events++
		}
		pending := func(i int) bool { return at[i] >= k }
		visit(k, "prefix", -1, func(int) bool { return true }, -1)
		var pend []int
		for i := 0; i < k; i++ {
			if at[i] >= 0 && pending(i) {
				pend = append(pend, i)
			}
		}
		if len(pend) == 0 {
			continue
		}
		visit(k, "durable", -1, func(i int) bool { return at[i] < 0 || !pending(i) }, -1)
		visit(k, "content", -1, func(i int) bool { return !isContent(ops[i].Kind) || !pending(i) }, -1)
		visit(k, "entries", -1, func(i int) bool { return !isEntry(ops[i].Kind) || !pending(i) }, -1)
		for _, d := range pend {
			visit(k, "drop", d, func(i int) bool { return i != d }, -1)
		}
		if last := k - 1; ops[last].Kind == fsys.OpWrite && pending(last) && len(ops[last].Data) > 1 {
			visit(k, "torn", last, func(i int) bool { return i != last }, last)
		}
	}
	return len(seen)
}
