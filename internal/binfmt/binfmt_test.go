package binfmt

import (
	"bytes"
	"encoding/binary"
	"hash/crc64"
	"reflect"
	"strings"
	"testing"
)

const (
	testMagic   uint32 = 0x54455354
	testVersion uint32 = 7
)

// record exercises every primitive once.
type record struct {
	u64 uint64
	i   int
	f   float64
	b   bool
	is  []int
	bs  []bool
	fs  []float64
	raw []byte
}

var sample = record{
	u64: 1 << 63, i: -42, f: -0.5, b: true,
	is: []int{3, -1, 1 << 40}, bs: []bool{true, false, true},
	fs: []float64{0.25, 1e300}, raw: []byte("adaptive-p"),
}

func encode(rec record) []byte {
	w := NewWriter(testMagic, testVersion, 0)
	w.U64(rec.u64)
	w.I64(rec.i)
	w.F64(rec.f)
	w.Bool(rec.b)
	w.Ints(rec.is)
	w.Bools(rec.bs)
	w.Floats(rec.fs)
	w.Bytes(rec.raw)
	return w.Seal()
}

func decode(blob []byte, max int) (record, error) {
	r, err := Open("test: blob", blob, testMagic, testVersion)
	if err != nil {
		return record{}, err
	}
	rec := record{
		u64: r.U64(), i: r.I64(), f: r.F64(), b: r.Bool(),
		is: r.Ints(max), bs: r.Bools(max), fs: r.Floats(max),
	}
	rec.raw = append([]byte(nil), r.Bytes(max)...)
	return rec, r.Done()
}

// reseal recomputes the CRC trailer over body so a test can reach the
// structural checks behind the checksum.
func reseal(body []byte) []byte {
	return binary.LittleEndian.AppendUint64(append([]byte(nil), body...), crc64.Checksum(body, crcTable))
}

func TestRoundTrip(t *testing.T) {
	blob := encode(sample)
	got, err := decode(blob, 64)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, sample) {
		t.Fatalf("decoded %+v, want %+v", got, sample)
	}
	if again := encode(got); !bytes.Equal(again, blob) {
		t.Fatal("encode∘decode is not the identity on bytes")
	}
	// Empty vectors decode as nil and re-encode identically.
	empty, err := decode(encode(record{}), 64)
	if err != nil || empty.is != nil || empty.bs != nil || empty.fs != nil {
		t.Fatalf("empty record: %+v, %v", empty, err)
	}
}

// TestTruncationAtEveryOffset cuts the body at every byte offset, with the
// CRC recomputed so the cut reaches the Reader: each prefix must fail with
// an error (envelope or "truncated"), never panic, never decode.
func TestTruncationAtEveryOffset(t *testing.T) {
	blob := encode(sample)
	body := blob[:len(blob)-8]
	for cut := 0; cut < len(body); cut++ {
		if _, err := decode(reseal(body[:cut]), 64); err == nil {
			t.Fatalf("body cut at %d of %d decoded", cut, len(body))
		}
		// The raw prefix (no valid trailer) must fail too.
		if _, err := decode(blob[:cut], 64); err == nil {
			t.Fatalf("blob cut at %d decoded", cut)
		}
	}
	if _, err := decode(reseal(append(append([]byte(nil), body...), 0)), 64); err == nil ||
		!strings.Contains(err.Error(), "trailing") {
		t.Fatalf("trailing byte: %v", err)
	}
}

func TestEnvelopeAndBounds(t *testing.T) {
	blob := encode(sample)
	cases := []struct {
		name string
		blob []byte
		max  int
		want string
	}{
		{"nil", nil, 64, "too short"},
		{"bit flip", func() []byte { b := append([]byte(nil), blob...); b[20] ^= 1; return b }(), 64, "checksum"},
		{"magic", reseal(append([]byte{1, 2, 3, 4}, blob[4:len(blob)-8]...)), 64, "bad magic"},
		{"version", reseal(append(append(append([]byte(nil), blob[:4]...), 6, 0, 0, 0), blob[8:len(blob)-8]...)), 64, "unsupported version 6"},
		{"count above bound", blob, 2, "implausible length 3"},
		{"negative count", func() []byte {
			w := NewWriter(testMagic, testVersion, 0)
			w.U64(0)
			w.I64(0)
			w.F64(0)
			w.Bool(false)
			w.I64(-1)
			return w.Seal()
		}(), 64, "implausible length -1"},
		{"count beyond body", func() []byte {
			w := NewWriter(testMagic, testVersion, 0)
			w.U64(0)
			w.I64(0)
			w.F64(0)
			w.Bool(false)
			w.I64(1 << 20) // claims a megaword, carries none
			return w.Seal()
		}(), 1 << 24, "truncated"},
	}
	for _, tc := range cases {
		_, err := decode(tc.blob, tc.max)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want error containing %q", tc.name, err, tc.want)
		}
	}
}

// TestFirstErrorSticks: after a failure every read returns zero and the
// first message survives later Fail calls.
func TestFirstErrorSticks(t *testing.T) {
	r, err := Open("test: blob", NewWriter(testMagic, testVersion, 0).Seal(), testMagic, testVersion)
	if err != nil {
		t.Fatal(err)
	}
	if r.U64() != 0 || r.Err() == nil {
		t.Fatal("read past the body succeeded")
	}
	r.Fail("second")
	if r.Bool() || r.Ints(4) != nil || r.Bytes(4) != nil || !strings.Contains(r.Done().Error(), "test: blob: truncated") {
		t.Fatalf("sticky error lost: %v", r.Done())
	}
}
