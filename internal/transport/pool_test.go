package transport

import (
	"bytes"
	"sync"
	"testing"
)

func TestGrabRecycleClasses(t *testing.T) {
	for _, n := range []int{0, 1, 511, 512, 513, 4096, 1 << 20, 4 << 20, (4 << 20) + 1} {
		b := grab(n)
		if len(b) != n {
			t.Fatalf("grab(%d) len = %d", n, len(b))
		}
		Recycle(b)
	}
	// Foreign buffers (odd capacities) must be silently dropped.
	Recycle(make([]byte, 0, 777))
	Recycle(nil)
}

func TestPipeSendCopies(t *testing.T) {
	a, b := Pipe(4)
	msg := []byte("original payload")
	if err := a.Send(msg); err != nil {
		t.Fatal(err)
	}
	// The Conn contract: Send copied, so the sender may scribble.
	for i := range msg {
		msg[i] = 'X'
	}
	got, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte("original payload")) {
		t.Fatalf("received %q, want the pre-scribble payload", got)
	}
	Recycle(got)
	a.Close()
}

// TestPipeSendRecvAllocs: with the receiver recycling what it takes,
// a send through the in-memory pipe reuses a pooled buffer and the
// queue's slot, so the steady state allocates nothing.
func TestPipeSendRecvAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop buffers at random")
	}
	x, y := Pipe(64)
	defer x.Close()
	msg := make([]byte, 4096)
	allocs := testing.AllocsPerRun(200, func() {
		if err := x.Send(msg); err != nil {
			t.Fatal(err)
		}
		buf, err := y.Recv()
		if err != nil {
			t.Fatal(err)
		}
		Recycle(buf)
	})
	if allocs != 0 {
		t.Fatalf("a 4 KiB send, receive and recycle allocates %.1f times, want 0", allocs)
	}
}

// TestPipeConcurrentRecycle hammers send/recv/recycle from both ends
// under -race: pooled buffers must never be visible to two owners.
func TestPipeConcurrentRecycle(t *testing.T) {
	a, b := Pipe(16)
	const msgs = 500
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		payload := bytes.Repeat([]byte("m"), 1024)
		for i := 0; i < msgs; i++ {
			payload[0] = byte(i)
			if err := a.Send(payload); err != nil {
				t.Errorf("Send: %v", err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < msgs; i++ {
			got, err := b.Recv()
			if err != nil {
				t.Errorf("Recv: %v", err)
				return
			}
			if len(got) != 1024 || got[0] != byte(i) {
				t.Errorf("msg %d: len %d first byte %d", i, len(got), got[0])
				return
			}
			Recycle(got)
		}
	}()
	wg.Wait()
	a.Close()
}
