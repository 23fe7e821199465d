package transport

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"unsafe"

	"partialreduce/internal/bufpool"
)

// Wire frame layout (little-endian): 8-byte tag, 4-byte element count,
// 4-byte CRC32-Castagnoli of the payload bytes, then count float64 payload
// words. The count bound protects the reader from hostile allocations; the
// payload CRC protects the math from silent bit rot — a flipped payload bit
// would otherwise aggregate a corrupt gradient into every member of a
// group. A frame whose tag is hbTag and whose count is zero is a heartbeat;
// it refreshes peer liveness and is never delivered.
//
// On a little-endian host a []float64's memory already is that payload, so
// the codec never converts it: both sides checksum and move a byte view
// (f64Bytes) of the float slice. NewTCPOpts refuses big-endian hosts rather
// than keep a per-element path no test host would execute.
const (
	frameHeaderSize = 16
	// hbTag marks heartbeat frames. Collective tags are op<<24|phase<<16|step
	// with a uint32 op, and control-plane tags the 0xC0-0xC4 prefixes (most
	// with Stream); neither can ever equal ^uint64(0).
	hbTag = ^uint64(0)
	// DefaultMaxFrameElems bounds the element count the reader accepts
	// (128 MiB of payload). The wire field is attacker/corruption-controlled:
	// without a bound, a flipped bit in the count field makes the reader
	// allocate up to 32 GiB.
	DefaultMaxFrameElems = 1 << 24
)

// frameCRCTable is the Castagnoli polynomial — hardware-accelerated on
// amd64/arm64, and detects all single- and double-bit payload errors.
var frameCRCTable = crc32.MakeTable(crc32.Castagnoli)

// f64Bytes returns p's memory as bytes. The view aliases p and must not
// outlive the caller's ownership of p; a nil or empty p gives an empty view.
func f64Bytes(p []float64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(p))), 8*len(p))
}

// payloadCRC is the checksum a frame header carries for body.
func payloadCRC(body []byte) uint32 { return crc32.Checksum(body, frameCRCTable) }

// putFrameHeader writes tag, count, and payload checksum into hdr
// (len >= frameHeaderSize).
func putFrameHeader(hdr []byte, tag uint64, count, crc uint32) {
	binary.LittleEndian.PutUint64(hdr[0:8], tag)
	binary.LittleEndian.PutUint32(hdr[8:12], count)
	binary.LittleEndian.PutUint32(hdr[12:16], crc)
}

// parseFrameHeader reads tag, count, and payload checksum back out of hdr.
func parseFrameHeader(hdr []byte) (tag uint64, count, crc uint32) {
	return binary.LittleEndian.Uint64(hdr[0:8]),
		binary.LittleEndian.Uint32(hdr[8:12]),
		binary.LittleEndian.Uint32(hdr[12:16])
}

// EncodeFrameInto appends one frame to dst and returns the extended slice
// (append semantics: nothing is allocated when dst has FrameLen(payload)
// spare capacity). It is the contiguous form of what TCP.Send writes as
// header + payload view: same header, same checksum, same bytes.
func EncodeFrameInto(dst []byte, tag uint64, payload []float64) []byte {
	body := f64Bytes(payload)
	var hdr [frameHeaderSize]byte
	putFrameHeader(hdr[:], tag, uint32(len(payload)), payloadCRC(body))
	return append(append(dst, hdr[:]...), body...)
}

// FrameLen returns the encoded size of a frame carrying payload.
func FrameLen(payload []float64) int { return frameHeaderSize + 8*len(payload) }

// readFrame reads and verifies one frame from r: the element count is
// bounded by maxElems before a buffer is sized from it, the body is read into
// a pooled payload's bytes (over TCP, r is the read loop's page-sized
// buffered reader: what it holds is copied out, the rest of a large body is
// read directly), and nothing is returned before it matches the header's
// checksum. hdr is frameHeaderSize bytes of caller-owned scratch, so a read
// loop allocates nothing per frame. The payload is the caller's to hand on or
// recycle; on an error it is already back in the pool and nothing further
// from r is usable: frame boundaries are lost.
func readFrame(r io.Reader, hdr []byte, maxElems int) (tag uint64, payload []float64, err error) {
	if _, err := io.ReadFull(r, hdr[:frameHeaderSize]); err != nil {
		return 0, nil, err
	}
	tag, count, crc := parseFrameHeader(hdr)
	if err := checkFrameCount(count, maxElems); err != nil {
		return 0, nil, err
	}
	payload = bufpool.GetFloat64(int(count))
	body := f64Bytes(payload)
	if _, err = io.ReadFull(r, body); err == nil {
		err = checkFrameCRC(body, crc)
	}
	if err != nil {
		bufpool.PutFloat64(payload)
		return 0, nil, err
	}
	return tag, payload, nil
}

// checkFrameCount rejects element counts that cannot be legitimate: the wire
// field is untrusted, and a corrupt value would otherwise drive a giant
// allocation in the read loop.
func checkFrameCount(count uint32, maxElems int) error {
	if int64(count) > int64(maxElems) {
		return fmt.Errorf("transport: frame count %d exceeds limit %d (corrupt or hostile frame)",
			count, maxElems)
	}
	return nil
}

// checkFrameCRC verifies the payload checksum carried in the header against
// the received payload bytes.
func checkFrameCRC(body []byte, crc uint32) error {
	if got := payloadCRC(body); got != crc {
		return fmt.Errorf("transport: frame payload checksum mismatch (got %#x, header %#x)", got, crc)
	}
	return nil
}
