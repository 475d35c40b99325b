// Package wire provides deterministic binary encoding and message
// framing for every protocol message in the repository.
//
// Non-repudiation evidence is a signature over message bytes, so the
// encoding must be canonical: the same logical message always encodes
// to the same bytes, with no map iteration order, optional field, or
// floating-point ambiguity. Encoder/Decoder implement a strict
// field-by-field scheme (big-endian fixed-width integers,
// length-prefixed byte strings); Frame/ReadFrame add length-prefixed
// framing for stream transports.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"time"
)

// MaxFrameSize bounds a single framed message (metadata and evidence,
// not bulk blob content, which streams separately). 64 MiB accommodates
// the largest inline payloads used by the experiments.
const MaxFrameSize = 64 << 20

// Frame errors.
var (
	ErrFrameTooLarge = errors.New("wire: frame exceeds maximum size")
	ErrShortBuffer   = errors.New("wire: decode past end of buffer")
)

// Encoder accumulates a canonical byte encoding.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an Encoder, optionally with capacity hint n.
func NewEncoder(n int) *Encoder { return &Encoder{buf: make([]byte, 0, n)} }

// Bytes returns the encoded bytes. The returned slice aliases the
// encoder's buffer; callers that keep encoding must copy first.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the number of bytes encoded so far.
func (e *Encoder) Len() int { return len(e.buf) }

// U8 appends one byte.
func (e *Encoder) U8(v uint8) *Encoder { e.buf = append(e.buf, v); return e }

// U32 appends a big-endian uint32.
func (e *Encoder) U32(v uint32) *Encoder {
	e.buf = binary.BigEndian.AppendUint32(e.buf, v)
	return e
}

// U64 appends a big-endian uint64.
func (e *Encoder) U64(v uint64) *Encoder {
	e.buf = binary.BigEndian.AppendUint64(e.buf, v)
	return e
}

// I64 appends a big-endian int64 (two's complement).
func (e *Encoder) I64(v int64) *Encoder { return e.U64(uint64(v)) }

// Bool appends 0 or 1.
func (e *Encoder) Bool(v bool) *Encoder {
	if v {
		return e.U8(1)
	}
	return e.U8(0)
}

// Bytes32 appends a uint32 length prefix followed by b.
func (e *Encoder) Bytes32(b []byte) *Encoder {
	if len(b) > math.MaxUint32 {
		panic("wire: byte string exceeds uint32 length")
	}
	e.U32(uint32(len(b)))
	e.buf = append(e.buf, b...)
	return e
}

// String appends a length-prefixed UTF-8 string.
func (e *Encoder) String(s string) *Encoder { return e.Bytes32([]byte(s)) }

// Time appends a time as UnixNano. The zero time encodes as the
// sentinel math.MinInt64 so it round-trips exactly.
func (e *Encoder) Time(t time.Time) *Encoder {
	if t.IsZero() {
		return e.I64(math.MinInt64)
	}
	return e.I64(t.UnixNano())
}

// Decoder consumes a canonical byte encoding. All getters record the
// first error; callers check Err once at the end (the sticky-error
// pattern, mirroring bufio.Scanner).
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder wraps b for decoding. The decoder does not copy b.
func NewDecoder(b []byte) *Decoder { return &Decoder{buf: b} }

// Err returns the first decoding error, if any.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the number of unconsumed bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

// Finish returns an error if decoding failed or bytes remain; a strict
// decode of a complete message must consume everything.
func (d *Decoder) Finish() error {
	if d.err != nil {
		return d.err
	}
	if d.Remaining() != 0 {
		return fmt.Errorf("wire: %d trailing bytes after message", d.Remaining())
	}
	return nil
}

func (d *Decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: reading %s at offset %d", ErrShortBuffer, what, d.off)
	}
}

func (d *Decoder) take(n int, what string) []byte {
	if d.err != nil {
		return nil
	}
	if d.Remaining() < n {
		d.fail(what)
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// U8 reads one byte.
func (d *Decoder) U8() uint8 {
	b := d.take(1, "u8")
	if b == nil {
		return 0
	}
	return b[0]
}

// U32 reads a big-endian uint32.
func (d *Decoder) U32() uint32 {
	b := d.take(4, "u32")
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

// U64 reads a big-endian uint64.
func (d *Decoder) U64() uint64 {
	b := d.take(8, "u64")
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// I64 reads a big-endian int64.
func (d *Decoder) I64() int64 { return int64(d.U64()) }

// Bool reads a byte and requires it to be exactly 0 or 1 (canonical
// encodings must decode strictly).
func (d *Decoder) Bool() bool {
	v := d.U8()
	if d.err == nil && v > 1 {
		d.err = fmt.Errorf("wire: non-canonical bool byte %#x at offset %d", v, d.off-1)
	}
	return v == 1
}

// Bytes32 reads a uint32-length-prefixed byte string, copying it out of
// the underlying buffer.
func (d *Decoder) Bytes32() []byte {
	n := d.U32()
	if d.err != nil {
		return nil
	}
	if uint64(n) > uint64(d.Remaining()) {
		d.fail("bytes32 body")
		return nil
	}
	return append([]byte(nil), d.take(int(n), "bytes32 body")...)
}

// View32 reads a uint32-length-prefixed byte string WITHOUT copying:
// the result aliases the decoder's buffer and is valid only as long as
// that buffer is. Hot paths use it to peek at fields (magic strings,
// routing keys) before committing to a full copying decode.
func (d *Decoder) View32() []byte {
	n := d.U32()
	if d.err != nil {
		return nil
	}
	if uint64(n) > uint64(d.Remaining()) {
		d.fail("bytes32 body")
		return nil
	}
	return d.take(int(n), "bytes32 body")
}

// Magic reads a length-prefixed magic string and checks it is want,
// comparing in place. The magic is whatever the sender wrote, up to
// MaxFrameSize of it, so a mismatch is reported by its length and at
// most its first 16 bytes, never copied whole. The mismatch becomes the
// decoder's sticky error; on short input that error is ErrShortBuffer.
// Magic returns the sticky error, nil when the magic matched.
func (d *Decoder) Magic(want string) error {
	got := d.View32()
	if d.err == nil && string(got) != want {
		head := got[:min(len(got), 16)]
		d.err = fmt.Errorf("wire: bad magic (%d bytes, starts %q), want %q", len(got), head, want)
	}
	return d.err
}

// String reads a length-prefixed string.
func (d *Decoder) String() string { return string(d.View32()) }

// Time reads a time encoded by Encoder.Time.
func (d *Decoder) Time() time.Time {
	ns := d.I64()
	if d.err != nil || ns == math.MinInt64 {
		return time.Time{}
	}
	return time.Unix(0, ns).UTC()
}

// Frame writes a length-prefixed message to w.
func Frame(w io.Writer, msg []byte) error {
	if len(msg) > MaxFrameSize {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, len(msg))
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(msg)))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("wire: writing frame header: %w", err)
	}
	if _, err := w.Write(msg); err != nil {
		return fmt.Errorf("wire: writing frame body: %w", err)
	}
	return nil
}

// AppendFrame appends the length-prefixed framing of msg to dst and
// returns the extended slice. Assembling header+body in one buffer lets
// a transport issue a single write per message (Frame costs two) and
// reuse a pooled buffer for the assembly.
func AppendFrame(dst, msg []byte) ([]byte, error) {
	if len(msg) > MaxFrameSize {
		return dst, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, len(msg))
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(msg)))
	return append(dst, msg...), nil
}

// ReadFrame reads one length-prefixed message from r.
func ReadFrame(r io.Reader) ([]byte, error) {
	return ReadFrameInto(r, func(n int) []byte { return make([]byte, n) })
}

// ReadFrameInto reads one length-prefixed message from r, obtaining
// the body buffer from alloc (which receives the exact body length and
// must return a slice of at least that length). Transports use it to
// read into pool-backed buffers; ownership of the returned slice
// follows whatever contract the alloc source defines.
func ReadFrameInto(r io.Reader, alloc func(n int) []byte) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("wire: reading frame header: %w", err)
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrameSize {
		return nil, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	msg := alloc(int(n))[:n]
	if _, err := io.ReadFull(r, msg); err != nil {
		return nil, fmt.Errorf("wire: reading %d-byte frame body: %w", n, err)
	}
	return msg, nil
}
