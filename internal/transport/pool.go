package transport

import "sync"

// Message buffers are pooled by size class so the per-message copy in
// the in-memory pipe and the frame bodies the TCP transport reads reuse
// memory instead of allocating per message.
//
// Ownership rules (see Conn for the caller-facing contract):
//   - grab(n) hands out a buffer of length n whose ownership transfers
//     to the caller.
//   - Recycle(buf) gives a buffer back. It is OPTIONAL — a buffer that
//     is never recycled is ordinary garbage — but a buffer must not be
//     used after recycling, and must not be recycled twice.
//
// Classes are powers of two from 512 B to 4 MiB; requests past the top
// class fall through to plain make and Recycle drops them (pooling
// rare huge buffers would pin their memory forever).
const (
	poolMinClass = 9  // 512 B
	poolMaxClass = 22 // 4 MiB
)

var bufPools [poolMaxClass - poolMinClass + 1]sync.Pool

// boxPool recycles the *[]byte headers that carry buffers through
// bufPools. Without it every Recycle would heap-allocate a fresh box
// for the slice header, costing one allocation per message on the
// very path the pools exist to keep allocation-free; with it the
// boxes circulate alongside the buffers and the steady state is
// zero allocs per send/recv/recycle cycle.
var boxPool = sync.Pool{New: func() any { return new([]byte) }}

// classFor returns the pool index whose buffers hold n bytes, or -1
// when n is outside the pooled range.
func classFor(n int) int {
	if n > 1<<poolMaxClass {
		return -1
	}
	c := poolMinClass
	for 1<<c < n {
		c++
	}
	return c - poolMinClass
}

// grab returns a buffer of length n, pooled when possible.
func grab(n int) []byte {
	obsPoolGets.Inc()
	c := classFor(n)
	if c < 0 {
		return make([]byte, n)
	}
	if v := bufPools[c].Get(); v != nil {
		box := v.(*[]byte)
		buf := (*box)[:n]
		*box = nil
		boxPool.Put(box)
		return buf
	}
	return make([]byte, n, 1<<(c+poolMinClass))
}

// Recycle returns a message buffer obtained from Conn.Recv (or any
// pool-backed API documenting Recycle) for reuse. Optional; safe to
// call with buffers of any origin (foreign sizes are simply dropped).
// The caller must not touch buf afterwards.
func Recycle(buf []byte) {
	c := cap(buf)
	if c < 1<<poolMinClass || c > 1<<poolMaxClass || c&(c-1) != 0 {
		// Not one of ours (wrong size class); let the GC have it rather
		// than poison a pool with odd capacities.
		return
	}
	box := boxPool.Get().(*[]byte)
	*box = buf[:0]
	bufPools[classFor(c)].Put(box)
	obsPoolPuts.Inc()
}
