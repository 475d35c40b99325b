package core

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/wire"
)

// checkDecoded asserts DecodeMessage's buffer contract for a message m
// it decoded from frame: re-encoding gives frame back; Payload is nil
// when empty and otherwise a view into frame whose capacity ends with
// it; HeaderBytes and Sealed share no memory with frame. frame is
// overwritten (every byte inverted) to prove the last two.
func checkDecoded(t *testing.T, frame []byte, m *Message) {
	t.Helper()
	if !bytes.Equal(m.Encode(), frame) {
		t.Fatal("re-encoding the decoded message does not reproduce the frame")
	}
	if len(m.Payload) == 0 {
		if m.Payload != nil {
			t.Fatal("empty payload decoded as a non-nil slice")
		}
	} else {
		off := 4 + len("tpnr-msg-v1") + 4 + len(m.HeaderBytes) + 4
		if &m.Payload[0] != &frame[off] {
			t.Fatal("payload is not a view into the frame")
		}
		if cap(m.Payload) != len(m.Payload) {
			t.Fatalf("payload cap %d != len %d: an append would overwrite the frame", cap(m.Payload), len(m.Payload))
		}
	}
	header := append([]byte(nil), m.HeaderBytes...)
	sealed := append([]byte(nil), m.Sealed...)
	for i := range frame {
		frame[i] ^= 0xFF
	}
	if !bytes.Equal(m.HeaderBytes, header) || !bytes.Equal(m.Sealed, sealed) {
		t.Fatal("HeaderBytes or Sealed changed with the frame: they alias it")
	}
}

// TestDecodeMessageAliasing pins the buffer contract handlers rely on,
// for a message with a payload and one without.
func TestDecodeMessageAliasing(t *testing.T) {
	for _, m := range []*Message{
		{HeaderBytes: []byte("hdr"), Payload: []byte("object bytes"), Sealed: []byte("sealed")},
		{HeaderBytes: []byte("hdr"), Sealed: []byte("sealed")},
	} {
		frame := m.Encode()
		got, err := DecodeMessage(frame)
		if err != nil {
			t.Fatal(err)
		}
		checkDecoded(t, frame, got)
	}
}

// FuzzDecodeMessage feeds arbitrary frames to the decoder every server
// runs on unauthenticated input. It must not panic; what it accepts
// must honour the buffer contract (checkDecoded); and a frame carrying
// the control magic must come back as a typed error. The seed corpus
// (testdata/fuzz/FuzzDecodeMessage) holds a real upload NRO, an
// empty-payload NRR, an overload control frame, a truncated NRO and a
// magic whose declared length runs past the frame.
func FuzzDecodeMessage(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		frame := append([]byte(nil), b...)
		m, err := DecodeMessage(frame)
		if err != nil {
			if m != nil {
				t.Fatal("DecodeMessage returned a message with its error")
			}
			d := wire.NewDecoder(b)
			if string(d.View32()) == ctlMagic && !errors.Is(err, ErrOverloaded) && !errors.Is(err, ErrProtocol) {
				t.Fatalf("control frame decoded to an untyped error: %v", err)
			}
			return
		}
		checkDecoded(t, frame, m)
	})
}
