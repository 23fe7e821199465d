package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"partialreduce/internal/bufpool"
)

// --- frame codec fuzzing -------------------------------------------------

// fuzzMaxElems bounds what the fuzzed reader may allocate per input: the
// reader sizes its buffers from the header's count before the body arrives
// (as it must on a socket), and fuzz inputs are far smaller than this anyway.
const fuzzMaxElems = 1 << 12

// decodeOne runs the read loop's decoder over buf and returns the frame and
// how many bytes it consumed.
func decodeOne(buf []byte, maxElems int) (tag uint64, payload []float64, used int, err error) {
	r := bytes.NewReader(buf)
	tag, payload, err = readFrame(r, make([]byte, frameHeaderSize), maxElems)
	return tag, payload, len(buf) - r.Len(), err
}

// FuzzFrameCodec checks the wire codec on arbitrary bytes: the decoder the
// TCP read loop runs never panics, never consumes more than one frame, and
// every frame it accepts re-encodes to exactly the bytes it consumed (the
// codec has one canonical form, so decode∘encode = id).
func FuzzFrameCodec(f *testing.F) {
	f.Add(EncodeFrameInto(nil, 0, nil))
	f.Add(EncodeFrameInto(nil, 42, []float64{1, -2.5, 3e300}))
	f.Add(EncodeFrameInto(nil, ^uint64(0), []float64{0}))
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})
	// Truncated header.
	f.Add(EncodeFrameInto(nil, 7, nil)[:frameHeaderSize-1])
	// Header advertising a giant count with no body.
	hostile := make([]byte, frameHeaderSize)
	putFrameHeader(hostile, 9, ^uint32(0), 0)
	f.Add(hostile)
	// Bit-flipped payloads: single-bit corruption in the body and in the
	// checksum field itself, both of which the payload CRC must reject.
	flipped := EncodeFrameInto(nil, 3, []float64{1, 2, 3})
	flipped[frameHeaderSize+5] ^= 0x10
	f.Add(flipped)
	crcFlipped := EncodeFrameInto(nil, 3, []float64{4, 5})
	crcFlipped[13] ^= 0x01
	f.Add(crcFlipped)
	// Bytes after a complete frame belong to the next one.
	f.Add(append(EncodeFrameInto(nil, 5, []float64{6}), 0xAB, 0xCD))

	f.Fuzz(func(t *testing.T, data []byte) {
		tag, payload, used, err := decodeOne(data, fuzzMaxElems)
		if err != nil {
			return
		}
		if len(payload) > fuzzMaxElems {
			t.Fatalf("decoder accepted %d elements past the limit", len(payload))
		}
		if got := EncodeFrameInto(nil, tag, payload); !bytes.Equal(got, data[:used]) {
			t.Fatalf("decode/encode not canonical:\n in  %x\n out %x", data[:used], got)
		}
	})
}

// FuzzFrameStream checks the decoder on the stream the TCP read loop reads:
// frames one after another through one tcpReadBufBytes buffered reader, so
// frames share reads and straddle the buffer's edge. Decoding stops at the
// first error; every frame accepted before it re-encodes to exactly the bytes
// it consumed, and those frames, concatenated, are the consumed prefix.
func FuzzFrameStream(f *testing.F) {
	// A header that straddles the buffer's edge, then a body that does.
	edge := (tcpReadBufBytes - frameHeaderSize) / 8
	f.Add(EncodeFrameInto(EncodeFrameInto(EncodeFrameInto(nil, 0, nil), 1, make([]float64, edge-3)), 2, []float64{1}))
	f.Add(EncodeFrameInto(EncodeFrameInto(nil, 3, []float64{2}), 4, make([]float64, edge)))
	f.Add(append(EncodeFrameInto(EncodeFrameInto(nil, hbTag, nil), 5, []float64{6}), 0xAB))
	corrupt := EncodeFrameInto(EncodeFrameInto(nil, 1, []float64{1, 2}), 2, []float64{3})
	corrupt[len(corrupt)-1] ^= 0x01
	f.Add(corrupt)
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		src := bytes.NewReader(data)
		br := bufio.NewReaderSize(src, tcpReadBufBytes)
		hdr := make([]byte, frameHeaderSize)
		var accepted []byte
		used := 0
		for {
			tag, payload, err := readFrame(br, hdr, fuzzMaxElems)
			if err != nil {
				break
			}
			if len(payload) > fuzzMaxElems {
				t.Fatalf("decoder accepted %d elements past the limit", len(payload))
			}
			end := len(data) - src.Len() - br.Buffered()
			if got := EncodeFrameInto(nil, tag, payload); !bytes.Equal(got, data[used:end]) {
				t.Fatalf("frame at byte %d not canonical:\n in  %x\n out %x", used, data[used:end], got)
			}
			accepted = EncodeFrameInto(accepted, tag, payload)
			bufpool.PutFloat64(payload)
			used = end
		}
		if !bytes.Equal(accepted, data[:used]) {
			t.Fatalf("accepted frames (%d bytes) differ from the %d-byte consumed prefix", len(accepted), used)
		}
	})
}

// FuzzFrameRoundTrip drives the codec from the value side: any (tag,
// payload) survives an encode/decode round trip bit-exactly, including NaN
// payloads (the codec must not canonicalize floats), and the view codec
// agrees with the per-element reference on it.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add(uint64(0), []byte{})
	f.Add(uint64(1)<<24|uint64(2)<<16|3, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Fuzz(func(t *testing.T, tag uint64, raw []byte) {
		// Reinterpret the fuzz bytes as float64 words (8 bytes each), so
		// arbitrary bit patterns — NaNs, infinities, denormals — all appear.
		payload := make([]float64, 0, len(raw)/8)
		for len(raw) >= 8 {
			payload = append(payload, math.Float64frombits(binary.LittleEndian.Uint64(raw)))
			raw = raw[8:]
		}
		enc1 := EncodeFrameInto(nil, tag, payload)
		gotTag, gotPayload, used, err := decodeOne(enc1, len(payload))
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if gotTag != tag || len(gotPayload) != len(payload) || used != len(enc1) {
			t.Fatalf("round trip changed shape: tag %d->%d len %d->%d, %d of %d bytes consumed",
				tag, gotTag, len(payload), len(gotPayload), used, len(enc1))
		}
		enc2 := EncodeFrameInto(nil, gotTag, gotPayload)
		if !bytes.Equal(enc1, enc2) {
			t.Fatal("payload bits changed across round trip")
		}
		checkAgainstReference(t, tag, payload)
	})
}

func TestReadFrameRejectsOversizedCount(t *testing.T) {
	buf := EncodeFrameInto(nil, 5, []float64{0})
	if _, _, _, err := decodeOne(buf, 1); err != nil {
		t.Fatalf("legal frame rejected: %v", err)
	}
	putFrameHeader(buf, 5, 2, 0)
	if _, _, _, err := decodeOne(buf, 1); err == nil {
		t.Fatal("count above limit accepted")
	}
	putFrameHeader(buf, 5, ^uint32(0), 0)
	if _, _, _, err := decodeOne(buf, DefaultMaxFrameElems); err == nil {
		t.Fatal("giant count accepted under default limit")
	}
}

// TestReadFrameRejectsBitFlips flips every bit of a valid frame beyond the
// tag field — the element count, the checksum, and the payload — and
// asserts the decoder rejects each corruption. (CRC32 detects all
// single-bit errors, so this check is exhaustive, not probabilistic. The
// tag is routing metadata, deliberately outside the payload checksum.)
func TestReadFrameRejectsBitFlips(t *testing.T) {
	orig := EncodeFrameInto(nil, 42, []float64{1.5, -2.25, 3e9, 0})
	if _, _, _, err := decodeOne(orig, fuzzMaxElems); err != nil {
		t.Fatalf("pristine frame rejected: %v", err)
	}
	buf := make([]byte, len(orig))
	for byteIdx := 8; byteIdx < len(orig); byteIdx++ {
		for bit := 0; bit < 8; bit++ {
			copy(buf, orig)
			buf[byteIdx] ^= 1 << bit
			if _, _, _, err := decodeOne(buf, fuzzMaxElems); err == nil {
				t.Fatalf("flip of byte %d bit %d went undetected", byteIdx, bit)
			}
		}
	}
}

// --- zero-fault FaultyTransport ≡ Mem ------------------------------------

// exchange runs a fixed deterministic message program over a 4-endpoint
// world and returns every received payload in a fixed order.
func exchange(t *testing.T, eps []Transport) [][]float64 {
	t.Helper()
	n := len(eps)
	var wg sync.WaitGroup
	out := make([][]float64, n*n)
	for r := 0; r < n; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			for to := 0; to < n; to++ {
				payload := []float64{float64(r), float64(to), float64(r*n + to)}
				if err := eps[r].Send(to, uint64(r*n+to), payload); err != nil {
					t.Errorf("send %d->%d: %v", r, to, err)
					return
				}
			}
			for from := 0; from < n; from++ {
				got, err := recv(eps[r], from, uint64(from*n+r))
				if err != nil {
					t.Errorf("recv %d->%d: %v", from, r, err)
					return
				}
				out[from*n+r] = got
			}
		}()
	}
	wg.Wait()
	return out
}

// TestFaultyZeroPlanTransparent pins the property all collective tests rely
// on: with a zero FaultPlan, a Faulty world behaves exactly like the Mem
// world it wraps — same deliveries, bit-identical payloads.
func TestFaultyZeroPlanTransparent(t *testing.T) {
	const n = 4
	plain := NewMem(n)
	plainT := make([]Transport, n)
	for i, ep := range plain {
		plainT[i] = ep
	}
	wrappedInner := NewMem(n)
	inner := make([]Transport, n)
	for i, ep := range wrappedInner {
		inner[i] = ep
	}
	faulty, err := NewFaultyWorld(inner, FaultPlan{})
	if err != nil {
		t.Fatal(err)
	}
	wrapped := make([]Transport, n)
	for i, ep := range faulty {
		wrapped[i] = ep
	}

	a := exchange(t, plainT)
	b := exchange(t, wrapped)
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Fatalf("delivery %d: lengths %d vs %d", i, len(a[i]), len(b[i]))
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("delivery %d element %d: %v vs %v", i, j, a[i][j], b[i][j])
			}
		}
	}
}

// --- seeded fault determinism --------------------------------------------

// TestFaultyKillIsolation: killing one rank fails exactly the traffic that
// touches it; the rest of the world keeps flowing.
func TestFaultyKillIsolation(t *testing.T) {
	mems := NewMem(3)
	inner := make([]Transport, 3)
	for i, ep := range mems {
		inner[i] = ep
	}
	eps, err := NewFaultyWorld(inner, FaultPlan{})
	if err != nil {
		t.Fatal(err)
	}
	eps[0].Kill(2)

	var pd *PeerDownError
	if err := eps[0].Send(2, 1, []float64{1}); !errors.As(err, &pd) || pd.Peer != 2 {
		t.Fatalf("send to dead rank: %v", err)
	}
	if err := eps[2].Send(0, 2, []float64{1}); !errors.As(err, &pd) {
		t.Fatalf("send from dead rank: %v", err)
	}
	if _, err := recv(eps[0], 2, 3); !errors.As(err, &pd) || pd.Peer != 2 {
		t.Fatalf("recv from dead rank: %v", err)
	}
	// Survivors are unaffected.
	if err := eps[0].Send(1, 4, []float64{42}); err != nil {
		t.Fatalf("survivor send: %v", err)
	}
	if got, err := recv(eps[1], 0, 4); err != nil || got[0] != 42 {
		t.Fatalf("survivor recv: %v %v", got, err)
	}
}

// TestFaultyCrashAfterSends: the scheduled crash fires on the (limit+1)-th
// send and every endpoint observes the rank as down.
func TestFaultyCrashAfterSends(t *testing.T) {
	mems := NewMem(2)
	inner := make([]Transport, 2)
	for i, ep := range mems {
		inner[i] = ep
	}
	eps, err := NewFaultyWorld(inner, FaultPlan{CrashAfterSends: map[int]int{0: 3}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := eps[0].Send(1, uint64(i), nil); err != nil {
			t.Fatalf("send %d before crash: %v", i, err)
		}
	}
	var pd *PeerDownError
	if err := eps[0].Send(1, 3, nil); !errors.As(err, &pd) || pd.Peer != 0 {
		t.Fatalf("crash send: %v", err)
	}
	if err := eps[1].Send(0, 4, nil); !errors.As(err, &pd) || pd.Peer != 0 {
		t.Fatalf("peer view after crash: %v", err)
	}
}

// TestFaultPlanValidate: malformed plans are rejected up front.
func TestFaultPlanValidate(t *testing.T) {
	bad := []FaultPlan{
		{CrashAfterSends: map[int]int{1: -1}},
		{CrashAfterSends: map[int]int{2: 1}},
	}
	for i, p := range bad {
		if err := p.Validate(2); err == nil {
			t.Fatalf("bad plan %d accepted: %+v", i, p)
		}
	}
	if err := (FaultPlan{CrashAfterSends: map[int]int{1: 0}}).Validate(2); err != nil {
		t.Fatalf("good plan rejected: %v", err)
	}
	if _, err := NewFaultyWorld(nil, FaultPlan{}); err == nil {
		t.Fatal("empty world accepted")
	}
}

// --- TCP failure-path tests ----------------------------------------------

func startTCPWorldOpts(t *testing.T, n int, opts TCPOptions) []*TCP {
	t.Helper()
	addrs := freeAddrs(t, n)
	eps := make([]*TCP, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			eps[i], errs[i] = NewTCPOpts(i, addrs, opts)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", i, err)
		}
	}
	t.Cleanup(func() {
		for _, ep := range eps {
			ep.Close()
		}
	})
	return eps
}

// TestTCPMissingPeerTimesOut: mesh formation with an absent rank fails after
// MeshTimeout instead of hanging forever.
func TestTCPMissingPeerTimesOut(t *testing.T) {
	addrs := freeAddrs(t, 2)
	start := time.Now()
	_, err := NewTCPOpts(0, addrs, TCPOptions{MeshTimeout: 300 * time.Millisecond})
	if err == nil {
		t.Fatal("mesh formed without rank 1")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("timeout took %v", elapsed)
	}
}

// TestTCPOversizedFrameFailsPeer: a frame advertising more elements than
// MaxFrameElems is treated as corruption from that peer — the receiver marks
// the sender down rather than allocating the advertised payload.
func TestTCPOversizedFrameFailsPeer(t *testing.T) {
	eps := startTCPWorldOpts(t, 2, TCPOptions{MaxFrameElems: 8})
	// Within the bound: delivered.
	if err := eps[0].Send(1, 1, make([]float64, 8)); err != nil {
		t.Fatal(err)
	}
	if got, err := recv(eps[1], 0, 1); err != nil || len(got) != 8 {
		t.Fatalf("legal frame: %v %v", len(got), err)
	}
	// Beyond the bound: the receiver fails rank 0.
	if err := eps[0].Send(1, 2, make([]float64, 9)); err != nil {
		t.Fatalf("oversized send errored locally: %v", err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := recv(eps[1], 0, 2)
		done <- err
	}()
	select {
	case err := <-done:
		var pd *PeerDownError
		if !errors.As(err, &pd) || pd.Peer != 0 {
			t.Fatalf("oversized frame: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("receiver hung on oversized frame")
	}
}

// TestTCPHeartbeatKeepsIdlePeersAlive: with heartbeats on, a long idle gap
// (many multiples of the heartbeat timeout) must not false-positive the
// failure detector.
func TestTCPHeartbeatKeepsIdlePeersAlive(t *testing.T) {
	eps := startTCPWorldOpts(t, 2, TCPOptions{
		HeartbeatInterval: 20 * time.Millisecond,
		HeartbeatTimeout:  80 * time.Millisecond,
	})
	time.Sleep(400 * time.Millisecond) // 5× the timeout, zero data traffic
	if down := eps[0].DownPeers(); len(down) != 0 {
		t.Fatalf("idle peers declared down: %v", down)
	}
	if err := eps[0].Send(1, 11, []float64{3.5}); err != nil {
		t.Fatalf("send after idle: %v", err)
	}
	if got, err := recv(eps[1], 0, 11); err != nil || got[0] != 3.5 {
		t.Fatalf("recv after idle: %v %v", got, err)
	}
}

// TestTCPPeerLossIsolated: closing one endpoint fails only that peer; the
// surviving pair keeps exchanging messages.
func TestTCPPeerLossIsolated(t *testing.T) {
	eps := startTCPWorldOpts(t, 3, TCPOptions{})
	eps[2].Close()

	// Rank 0 eventually sees rank 2 down on recv.
	done := make(chan error, 1)
	go func() {
		_, err := recv(eps[0], 2, 21)
		done <- err
	}()
	select {
	case err := <-done:
		if !IsFailure(err) {
			t.Fatalf("recv from closed peer: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("recv from closed peer hung")
	}

	// 0 <-> 1 still works.
	if err := eps[0].Send(1, 22, []float64{1}); err != nil {
		t.Fatalf("survivor send: %v", err)
	}
	if got, err := recv(eps[1], 0, 22); err != nil || got[0] != 1 {
		t.Fatalf("survivor recv: %v %v", got, err)
	}
}
