package replica

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/wire"
)

// TestDecodeFrameJunkMagicBounded: a follower decodes whatever reaches
// its listener before any authentication, so the leading string of a
// frame is chosen by anyone who can connect. Rejecting a 1 MiB magic
// must neither copy it nor quote it into the error.
func TestDecodeFrameJunkMagicBounded(t *testing.T) {
	e := wire.NewEncoder(1<<20 + 8)
	e.String(string(bytes.Repeat([]byte{0xff}, 1<<20)))
	raw := e.Bytes()
	_, err := decodeFrame(raw)
	if err == nil {
		t.Fatal("junk magic decoded")
	}
	if n := len(err.Error()); n >= 256 {
		t.Fatalf("error for a 1 MiB junk magic is %d bytes, want < 256", n)
	}

	const rounds = 8
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		decodeFrame(raw)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / rounds; per >= 64<<10 {
		t.Fatalf("rejecting a 1 MiB junk magic allocates %d bytes, want < 64 KiB", per)
	}
}

// FuzzDecodeFrame feeds arbitrary input to the replication frame
// decoder, which a follower runs on unauthenticated input. It must not
// panic, and what it accepts must re-encode to exactly the input: the
// encoding is canonical. The seed corpus (testdata/fuzz/FuzzDecodeFrame)
// holds one frame of each kind, a truncated append, an append whose
// record count runs past the frame and a magic whose declared length
// runs past the frame.
func FuzzDecodeFrame(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		fr, err := decodeFrame(b)
		if err != nil {
			if fr != nil {
				t.Fatal("decodeFrame returned a frame with its error")
			}
			return
		}
		if got := encodeFrame(fr); !bytes.Equal(got, b) {
			t.Fatalf("decoded frame re-encodes to %x, want %x", got, b)
		}
	})
}
