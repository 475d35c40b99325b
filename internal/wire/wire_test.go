package wire

import (
	"bytes"
	"errors"
	"io"
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	when := time.Date(2010, 9, 13, 10, 30, 25, 123456789, time.UTC)
	e := NewEncoder(64)
	e.U8(7).U32(0xDEADBEEF).U64(1<<40 + 9).I64(-42).Bool(true).Bool(false).
		Bytes32([]byte{1, 2, 3}).String("alice→bob").Time(when).Time(time.Time{})

	d := NewDecoder(e.Bytes())
	if got := d.U8(); got != 7 {
		t.Errorf("U8 = %d", got)
	}
	if got := d.U32(); got != 0xDEADBEEF {
		t.Errorf("U32 = %#x", got)
	}
	if got := d.U64(); got != 1<<40+9 {
		t.Errorf("U64 = %d", got)
	}
	if got := d.I64(); got != -42 {
		t.Errorf("I64 = %d", got)
	}
	if !d.Bool() || d.Bool() {
		t.Error("Bool round trip failed")
	}
	if got := d.Bytes32(); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Errorf("Bytes32 = %v", got)
	}
	if got := d.String(); got != "alice→bob" {
		t.Errorf("String = %q", got)
	}
	if got := d.Time(); !got.Equal(when) {
		t.Errorf("Time = %v, want %v", got, when)
	}
	if got := d.Time(); !got.IsZero() {
		t.Errorf("zero Time = %v", got)
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
}

func TestDecoderStickyError(t *testing.T) {
	d := NewDecoder([]byte{1, 2}) // too short for a u32
	_ = d.U32()
	if d.Err() == nil {
		t.Fatal("no error after short read")
	}
	first := d.Err()
	_ = d.U64()
	_ = d.String()
	if d.Err() != first {
		t.Error("error was overwritten; decoder errors must be sticky")
	}
}

func TestDecoderTrailingBytes(t *testing.T) {
	e := NewEncoder(0)
	e.U8(1).U8(2)
	d := NewDecoder(e.Bytes())
	_ = d.U8()
	if err := d.Finish(); err == nil {
		t.Fatal("Finish accepted trailing bytes")
	}
}

func TestDecoderNonCanonicalBool(t *testing.T) {
	d := NewDecoder([]byte{2})
	_ = d.Bool()
	if d.Err() == nil {
		t.Fatal("bool byte 2 accepted")
	}
}

func TestBytes32CopiesData(t *testing.T) {
	e := NewEncoder(0)
	e.Bytes32([]byte{10, 20})
	raw := e.Bytes()
	d := NewDecoder(raw)
	got := d.Bytes32()
	raw[5] = 99 // mutate the underlying buffer after decode
	if got[0] != 10 {
		t.Fatal("decoded bytes alias the input buffer")
	}
}

func TestBytes32HugeLengthRejected(t *testing.T) {
	// A frame claiming a 4 GiB body must not cause a huge allocation.
	e := NewEncoder(0)
	e.U32(math.MaxUint32)
	d := NewDecoder(e.Bytes())
	if got := d.Bytes32(); got != nil {
		t.Fatalf("got %d bytes for truncated body", len(got))
	}
	if d.Err() == nil {
		t.Fatal("oversized length accepted")
	}
}

func TestMagic(t *testing.T) {
	ok := NewEncoder(0).String("m-v1").U8(7).Bytes()
	d := NewDecoder(ok)
	if err := d.Magic("m-v1"); err != nil || d.U8() != 7 || d.Finish() != nil {
		t.Fatalf("matching magic: err = %v", err)
	}
	// A mismatch is sticky and names only the length and a prefix.
	junk := NewEncoder(0).String(string(bytes.Repeat([]byte("x"), 1000))).Bytes()
	d = NewDecoder(junk)
	err := d.Magic("m-v1")
	if err == nil || d.Err() != err || len(err.Error()) >= 100 {
		t.Fatalf("junk magic: err = %v", err)
	}
	// Short input reports the short buffer, as every other getter does.
	if err := NewDecoder([]byte{0, 0, 0, 9, 'm'}).Magic("m-v1"); !errors.Is(err, ErrShortBuffer) {
		t.Fatalf("short magic: err = %v, want ErrShortBuffer", err)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	msgs := [][]byte{[]byte("first"), {}, []byte("third message")}
	for _, m := range msgs {
		if err := Frame(&buf, m); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range msgs {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d = %q, want %q", i, got, want)
		}
	}
	if _, err := ReadFrame(&buf); err != io.EOF {
		t.Fatalf("after last frame: err = %v, want io.EOF", err)
	}
}

func TestFrameTooLarge(t *testing.T) {
	var buf bytes.Buffer
	if err := Frame(&buf, make([]byte, MaxFrameSize+1)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
	// A hostile peer announcing an oversized frame must be rejected
	// before allocation.
	hostile := []byte{0xFF, 0xFF, 0xFF, 0xFF}
	if _, err := ReadFrame(bytes.NewReader(hostile)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("hostile header: err = %v, want ErrFrameTooLarge", err)
	}
}

func TestReadFrameTruncatedBody(t *testing.T) {
	var buf bytes.Buffer
	if err := Frame(&buf, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-2]
	if _, err := ReadFrame(bytes.NewReader(trunc)); err == nil {
		t.Fatal("truncated frame accepted")
	}
}

func TestCanonicalDeterminism(t *testing.T) {
	enc := func() []byte {
		e := NewEncoder(0)
		e.String("tx-1").U64(42).Time(time.Unix(5, 5)).Bytes32([]byte{9})
		return e.Bytes()
	}
	if !bytes.Equal(enc(), enc()) {
		t.Fatal("encoding is not deterministic")
	}
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(a uint64, b int64, s string, blob []byte, flag bool) bool {
		e := NewEncoder(0)
		e.U64(a).I64(b).String(s).Bytes32(blob).Bool(flag)
		d := NewDecoder(e.Bytes())
		ga, gb, gs, gblob, gflag := d.U64(), d.I64(), d.String(), d.Bytes32(), d.Bool()
		if d.Finish() != nil {
			return false
		}
		return ga == a && gb == b && gs == s && bytes.Equal(gblob, blob) && gflag == flag
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickFrameRoundTrip(t *testing.T) {
	f := func(msg []byte) bool {
		var buf bytes.Buffer
		if err := Frame(&buf, msg); err != nil {
			return false
		}
		got, err := ReadFrame(&buf)
		return err == nil && bytes.Equal(got, msg)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestDecoderNeverPanics: arbitrary bytes through every getter must
// fail cleanly, never panic — decoders sit on the network boundary.
func TestDecoderNeverPanics(t *testing.T) {
	f := func(raw []byte) bool {
		d := NewDecoder(raw)
		_ = d.U8()
		_ = d.U32()
		_ = d.Bytes32()
		_ = d.String()
		_ = d.Bool()
		_ = d.Time()
		_ = d.I64()
		_ = d.Finish()
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
