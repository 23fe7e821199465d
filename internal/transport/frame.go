package transport

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"partialreduce/internal/bufpool"
)

// Wire frame layout (little-endian): 8-byte tag, 4-byte element count,
// 4-byte CRC32-Castagnoli of the payload bytes, then count float64 payload
// words. The count bound protects the reader from hostile allocations; the
// payload CRC protects the math from silent bit rot — a flipped payload bit
// would otherwise aggregate a corrupt gradient into every member of a
// group. A frame whose tag is hbTag and whose count is zero is a heartbeat;
// it refreshes peer liveness and is never delivered.
const (
	frameHeaderSize = 16
	// hbTag marks heartbeat frames. Collective tags are op<<24|phase<<16|step
	// with a uint32 op, and control-plane tags use the 0xC0-0xC5 prefixes;
	// neither can ever equal ^uint64(0).
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

// EncodeFrameInto appends one encoded frame to dst and returns the extended
// slice (append semantics: the result may share dst's backing array). The
// payload CRC is computed over the appended payload bytes and patched into
// the header afterwards, so the hot path makes no extra pass buffer.
// Callers on the hot path pass a pooled buffer with sufficient capacity —
// bufpool.GetBytes(FrameLen(payload))[:0] — so no allocation occurs.
func EncodeFrameInto(dst []byte, tag uint64, payload []float64) []byte {
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

// FrameLen returns the encoded size of a frame carrying payload.
func FrameLen(payload []float64) int { return frameHeaderSize + 8*len(payload) }

// readFrame reads and verifies one frame from r: the element count is
// bounded by maxElems before anything is allocated for it, and the payload
// must match the header's checksum. hdr is frameHeaderSize bytes of
// caller-owned scratch, so a read loop allocates nothing per frame. Both the
// wire buffer and the decoded payload come from the pool; the wire buffer is
// recycled here, the payload is the caller's to hand on or recycle. After an
// error nothing further from r is usable: frame boundaries are lost.
func readFrame(r io.Reader, hdr []byte, maxElems int) (tag uint64, payload []float64, err error) {
	if _, err := io.ReadFull(r, hdr[:frameHeaderSize]); err != nil {
		return 0, nil, err
	}
	tag, count, crc := parseFrameHeader(hdr)
	if err := checkFrameCount(count, maxElems); err != nil {
		return 0, nil, err
	}
	buf := bufpool.GetBytes(8 * int(count))
	defer bufpool.PutBytes(buf)
	if _, err := io.ReadFull(r, buf); err != nil {
		return 0, nil, err
	}
	if err := checkFrameCRC(buf, crc); err != nil {
		return 0, nil, err
	}
	payload = bufpool.GetFloat64(int(count))
	for i := range payload {
		payload[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
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
	if got := crc32.Checksum(body, frameCRCTable); got != crc {
		return fmt.Errorf("transport: frame payload checksum mismatch (got %#x, header %#x)", got, crc)
	}
	return nil
}
