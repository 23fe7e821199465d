package transport

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"net"
	"testing"
	"testing/iotest"
	"time"
)

// TestFrameGoldenBytes pins the wire format itself, not a round trip through
// the codec under test: tag, count, CRC-32C and payload words, little-endian.
// The literal was produced by the per-element encoder this codec replaced, so
// an endpoint built before the change and one built after it interoperate.
func TestFrameGoldenBytes(t *testing.T) {
	const golden = "2a00000000000000" + // tag 42
		"03000000" + // 3 elements
		"5d2487eb" + // CRC-32C(payload) = 0xeb87245d
		"000000000000f03f" + // 1
		"00000000000004c0" + // -2.5
		"355800662deb517e" // 3e300
	want, err := hex.DecodeString(golden)
	if err != nil {
		t.Fatal(err)
	}
	payload := []float64{1, -2.5, 3e300}
	if got := EncodeFrameInto(nil, 42, payload); !bytes.Equal(got, want) {
		t.Fatalf("wire format drifted:\n got  %x\n want %x", got, want)
	}
	if len(want) != FrameLen(payload) {
		t.Fatalf("FrameLen = %d, golden frame is %d bytes", FrameLen(payload), len(want))
	}
	tag, got, used, err := decodeOne(want, len(payload))
	if err != nil || tag != 42 || used != len(want) {
		t.Fatalf("golden frame: tag=%d used=%d err=%v", tag, used, err)
	}
	if err := sameBits(got, payload); err != nil {
		t.Fatal(err)
	}
}

// refEncodeFrame is the reference the view codec is checked against: the
// frame built one element at a time from the layout's definition, with no
// assumption about how a float64 sits in memory.
func refEncodeFrame(dst []byte, tag uint64, payload []float64) []byte {
	start := len(dst)
	dst = binary.LittleEndian.AppendUint64(dst, tag)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, 0) // CRC placeholder
	for _, v := range payload {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	crc := crc32.Checksum(dst[start+frameHeaderSize:], frameCRCTable)
	binary.LittleEndian.PutUint32(dst[start+12:start+16], crc)
	return dst
}

// refDecodeFrame is refEncodeFrame's inverse, element by element.
func refDecodeFrame(buf []byte, maxElems int) (tag uint64, payload []float64, err error) {
	if len(buf) < frameHeaderSize {
		return 0, nil, io.ErrUnexpectedEOF
	}
	tag, count, crc := parseFrameHeader(buf)
	if err := checkFrameCount(count, maxElems); err != nil {
		return 0, nil, err
	}
	body := buf[frameHeaderSize:]
	if len(body) < 8*int(count) {
		return 0, nil, io.ErrUnexpectedEOF
	}
	body = body[:8*count]
	if err := checkFrameCRC(body, crc); err != nil {
		return 0, nil, err
	}
	payload = make([]float64, count)
	for i := range payload {
		payload[i] = math.Float64frombits(binary.LittleEndian.Uint64(body[8*i:]))
	}
	return tag, payload, nil
}

// sameBits compares two payloads word for word (== would call NaN unequal to
// itself and +0 equal to -0).
func sameBits(got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("payload length %d, want %d", len(got), len(want))
	}
	for i := range want {
		if g, w := math.Float64bits(got[i]), math.Float64bits(want[i]); g != w {
			return fmt.Errorf("element %d: bits %#016x, want %#016x", i, g, w)
		}
	}
	return nil
}

// checkAgainstReference asserts view codec ≡ reference codec on one frame, in
// both directions, including when the body reaches readFrame a byte at a time
// (partial reads then land inside a float64 word).
func checkAgainstReference(t *testing.T, tag uint64, payload []float64) {
	t.Helper()
	ref := refEncodeFrame(nil, tag, payload)
	prefix := []byte{0xAA, 0xBB, 0xCC}
	got := EncodeFrameInto(prefix, tag, payload)
	if !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], ref) {
		t.Fatalf("encode differs from reference (n=%d):\n got  %x\n want %x", len(payload), got[len(prefix):], ref)
	}

	refTag, refPayload, err := refDecodeFrame(ref, len(payload))
	if err != nil {
		t.Fatalf("reference decode (n=%d): %v", len(payload), err)
	}
	hdr := make([]byte, frameHeaderSize)
	for _, c := range []struct {
		name string
		r    io.Reader
	}{
		{"whole", bytes.NewReader(ref)},
		{"byte-by-byte", iotest.OneByteReader(bytes.NewReader(ref))},
	} {
		gotTag, gotPayload, err := readFrame(c.r, hdr, len(payload))
		if err != nil {
			t.Fatalf("%s decode (n=%d): %v", c.name, len(payload), err)
		}
		if gotTag != tag || gotTag != refTag {
			t.Fatalf("%s decode: tag %d, reference %d, want %d", c.name, gotTag, refTag, tag)
		}
		if err := sameBits(gotPayload, refPayload); err != nil {
			t.Fatalf("%s decode differs from reference (n=%d): %v", c.name, len(payload), err)
		}
		if err := sameBits(gotPayload, payload); err != nil {
			t.Fatalf("%s decode differs from input (n=%d): %v", c.name, len(payload), err)
		}
	}
}

// awkwardPayload returns n words cycling through the bit patterns a codec
// that went through float64 values (not bits) would damage: quiet, signalling
// and negative NaNs with payload bits, signed zeros, denormals, infinities.
func awkwardPayload(n int) []float64 {
	patterns := []uint64{
		0x7ff8000000000001, // quiet NaN with a payload bit
		0x7ff0000000000001, // signalling NaN
		0xfff8deadbeef0042, // negative NaN, busy payload
		0x0000000000000000, // +0
		0x8000000000000000, // -0
		0x0000000000000001, // smallest denormal
		0x800fffffffffffff, // largest negative denormal
		0x7ff0000000000000, // +Inf
		0xfff0000000000000, // -Inf
		math.Float64bits(1), math.Float64bits(-2.5), math.Float64bits(math.MaxFloat64),
		0x0102030405060708, // every byte distinct: a byte-order slip shows
	}
	p := make([]float64, n)
	for i := range p {
		// Past the first cycle, mix the index in so no two words repeat.
		p[i] = math.Float64frombits(patterns[i%len(patterns)] ^ uint64(i/len(patterns))<<16)
	}
	return p
}

func TestViewCodecMatchesReference(t *testing.T) {
	for _, n := range []int{0, 1, 7, 4096, 4097} {
		checkAgainstReference(t, uint64(n)<<24|7, awkwardPayload(n))
	}
	checkAgainstReference(t, hbTag, nil)
}

// rawPeerWorld starts rank 0 of a 2-rank world for real and returns it with
// the raw socket a fake rank 1 holds to it.
func rawPeerWorld(t *testing.T) (*TCP, net.Conn) {
	t.Helper()
	var c net.Conn
	eps := startPartialTCPWorld(t, 2, 1, TCPOptions{}, func(addrs []string) {
		c = fakePeer(t, 1, map[int]string{0: addrs[0]})[0]
	})
	c.SetDeadline(time.Now().Add(20 * time.Second))
	return eps[0], c
}

// TestTCPSendWireBytes checks the socket against the frame definition in both
// directions, with a fake peer holding the raw connection.
func TestTCPSendWireBytes(t *testing.T) {
	t.Run("sent", testSentWireBytes)
	t.Run("dribbled", testDribbledFrame)
}

// What Send puts on the socket — header and payload view in one vectored
// write, or the header alone — is byte for byte the frame EncodeFrameInto
// defines, and nothing else.
func testSentWireBytes(t *testing.T) {
	ep, c := rawPeerWorld(t)
	for i, n := range []int{0, 1, 4097} {
		payload := awkwardPayload(n)
		tag := uint64(i+1)<<24 | 5
		want := EncodeFrameInto(nil, tag, payload)
		if err := ep.Send(1, tag, payload); err != nil {
			t.Fatalf("send n=%d: %v", n, err)
		}
		// The slice is the caller's again: Send keeps no view of it, and
		// overwriting it cannot reach bytes already handed to the kernel.
		if tc := ep.conns[1]; tc.iov[1] != nil || tc.bufs != nil {
			t.Fatalf("n=%d: Send retained a view of the caller's payload", n)
		}
		clear(payload)
		got := make([]byte, len(want))
		if _, err := io.ReadFull(c, got); err != nil {
			t.Fatalf("read n=%d: %v", n, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("n=%d: socket bytes differ from EncodeFrameInto (first 32: %x vs %x)",
				n, got[:min(32, len(got))], want[:min(32, len(want))])
		}
	}
	ep.Close()
	if rest, _ := io.ReadAll(c); len(rest) != 0 {
		t.Fatalf("%d stray bytes after the last frame", len(rest))
	}
}

// The converse: a valid frame arriving in writes that split float64 words
// (partial reads land in the payload view at byte offsets that are not
// multiples of 8) is delivered bit-identically.
func testDribbledFrame(t *testing.T) {
	ep, c := rawPeerWorld(t)
	payload := awkwardPayload(4097)
	dst := make([]float64, len(payload))
	for i, chunk := range []int{1, 7, 4093} {
		tag := uint64(i+1)<<24 | 9
		frame := EncodeFrameInto(nil, tag, payload)
		for len(frame) > 0 {
			k := min(chunk, len(frame))
			if _, err := c.Write(frame[:k]); err != nil {
				t.Fatalf("chunk %d: write: %v", chunk, err)
			}
			frame = frame[k:]
		}
		clear(dst)
		n, err := ep.RecvIntoTimeout(1, tag, dst, 20*time.Second)
		if err != nil {
			t.Fatalf("chunk %d: recv: %v", chunk, err)
		}
		if err := sameBits(dst[:n], payload); err != nil {
			t.Fatalf("chunk %d: %v", chunk, err)
		}
	}
}
