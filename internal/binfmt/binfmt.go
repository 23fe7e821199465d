// Package binfmt is the one binary codec behind the control plane's small
// state blobs (the controller snapshot and the policy state that rides in
// it). Every blob has the same envelope — magic, version, body, CRC-64/ECMA
// trailer — and the same body primitives: fixed-width little-endian scalars,
// one-byte booleans, and length-prefixed vectors. The layout is deterministic
// (no map iteration), so equal state encodes to equal bytes.
//
// Blobs are built and parsed in memory. internal/checkpoint keeps its own
// streaming file codec on purpose: a model-sized payload must not be
// buffered a second time just to share these few primitives.
package binfmt

import (
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"math"
)

var crcTable = crc64.MakeTable(crc64.ECMA)

// Writer appends to an in-memory blob.
type Writer struct{ buf []byte }

// NewWriter starts a blob with its magic and version; sizeHint presizes the
// buffer.
func NewWriter(magic, version uint32, sizeHint int) *Writer {
	w := &Writer{buf: make([]byte, 0, sizeHint)}
	w.U32(magic)
	w.U32(version)
	return w
}

func (w *Writer) U32(v uint32)  { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }
func (w *Writer) U64(v uint64)  { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }
func (w *Writer) I64(v int)     { w.U64(uint64(int64(v))) }
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }
func (w *Writer) Bool(v bool) {
	if v {
		w.buf = append(w.buf, 1)
	} else {
		w.buf = append(w.buf, 0)
	}
}

// Ints, Bools, Floats and Bytes write a length (I64), then the elements.
func (w *Writer) Ints(v []int)       { writeVec(w, v, (*Writer).I64) }
func (w *Writer) Bools(v []bool)     { writeVec(w, v, (*Writer).Bool) }
func (w *Writer) Floats(v []float64) { writeVec(w, v, (*Writer).F64) }
func (w *Writer) Bytes(v []byte) {
	w.I64(len(v))
	w.buf = append(w.buf, v...)
}

func writeVec[T any](w *Writer, v []T, put func(*Writer, T)) {
	w.I64(len(v))
	for _, x := range v {
		put(w, x)
	}
}

// Seal appends the CRC of everything written and returns the finished blob.
func (w *Writer) Seal() []byte {
	w.U64(crc64.Checksum(w.buf, crcTable))
	return w.buf
}

// Reader parses a blob's body. The first failure sticks: later reads return
// zero values, so a decoder reads straight through and checks Err (or Done)
// once. It never panics on corrupt input.
type Reader struct {
	what string // names the blob in errors ("controller: snapshot")
	buf  []byte
	off  int
	err  error
}

// Open verifies blob's envelope — minimum length, CRC trailer, magic,
// version — and returns a Reader positioned at the body.
func Open(what string, blob []byte, magic, version uint32) (*Reader, error) {
	if len(blob) < 16 {
		return nil, fmt.Errorf("%s too short (%d bytes)", what, len(blob))
	}
	body, sum := blob[:len(blob)-8], binary.LittleEndian.Uint64(blob[len(blob)-8:])
	if crc64.Checksum(body, crcTable) != sum {
		return nil, fmt.Errorf("%s checksum mismatch", what)
	}
	if m := binary.LittleEndian.Uint32(body); m != magic {
		return nil, fmt.Errorf("%s: bad magic %#x", what, m)
	}
	if v := binary.LittleEndian.Uint32(body[4:]); v != version {
		return nil, fmt.Errorf("%s: unsupported version %d (want %d)", what, v, version)
	}
	return &Reader{what: what, buf: body, off: 8}, nil
}

// Fail records a decoding error found by the caller (a value out of range);
// like the Reader's own errors it is kept only if it is the first.
func (r *Reader) Fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(r.what+": "+format, args...)
	}
}

// Err returns the first failure, nil while decoding is still sound.
func (r *Reader) Err() error { return r.err }

// Done returns the first failure, or an error if body bytes remain unread.
func (r *Reader) Done() error {
	if r.err == nil && r.off != len(r.buf) {
		r.Fail("%d trailing bytes", len(r.buf)-r.off)
	}
	return r.err
}

// take returns the next n body bytes, or nil after recording truncation.
func (r *Reader) take(n int) []byte {
	if r.err == nil && n > len(r.buf)-r.off {
		r.Fail("truncated")
	}
	if r.err != nil {
		return nil
	}
	r.off += n
	return r.buf[r.off-n : r.off]
}

func (r *Reader) U64() uint64 {
	if b := r.take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

func (r *Reader) I64() int     { return int(int64(r.U64())) }
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }
func (r *Reader) Bool() bool {
	b := r.take(1)
	return b != nil && b[0] != 0
}

// Count reads a length and rejects one outside [0, max]: a corrupt header
// must not size an allocation.
func (r *Reader) Count(max int) int {
	n := r.I64()
	if r.err == nil && (n < 0 || n > max) {
		r.Fail("implausible length %d", n)
	}
	if r.err != nil {
		return 0
	}
	return n
}

// Ints, Bools and Floats read a length-prefixed vector of at most max
// elements; an empty vector decodes as nil. Bytes reads a byte string the
// same way; its result aliases the blob, so copy it to keep it.
func (r *Reader) Ints(max int) []int       { return readVec(r, max, 8, (*Reader).I64) }
func (r *Reader) Bools(max int) []bool     { return readVec(r, max, 1, (*Reader).Bool) }
func (r *Reader) Floats(max int) []float64 { return readVec(r, max, 8, (*Reader).F64) }
func (r *Reader) Bytes(max int) []byte     { return r.take(r.Count(max)) }

// readVec checks that the body still holds n elements of size bytes before
// allocating room for them.
func readVec[T any](r *Reader, max, size int, get func(*Reader) T) []T {
	n := r.Count(max)
	if n > (len(r.buf)-r.off)/size {
		r.Fail("truncated")
	}
	if r.err != nil || n == 0 {
		return nil
	}
	out := make([]T, n)
	for i := range out {
		out[i] = get(r)
	}
	return out
}
