package transport

import (
	"bytes"
	"testing"

	"partialreduce/internal/bufpool"
)

// BenchmarkEncodeFrame measures the contiguous frame encoder on a
// ring-segment-sized payload with a recycled buffer (checksum + one copy; the
// TCP send path makes the same checksum pass and leaves the copy to the
// kernel); steady state must not allocate.
func BenchmarkEncodeFrame(b *testing.B) {
	payload := make([]float64, 4096)
	for i := range payload {
		payload[i] = float64(i)
	}
	buf := make([]byte, 0, FrameLen(payload))
	b.SetBytes(int64(FrameLen(payload)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = EncodeFrameInto(buf[:0], 42, payload)
	}
	_ = buf
}

// BenchmarkReadFrame measures the read loop's decoder on the same frame from
// memory: header parse, count bound, read into the pooled payload, checksum.
func BenchmarkReadFrame(b *testing.B) {
	payload := make([]float64, 4096)
	for i := range payload {
		payload[i] = float64(i)
	}
	frame := EncodeFrameInto(nil, 42, payload)
	hdr := make([]byte, frameHeaderSize)
	r := bytes.NewReader(frame)
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Reset(frame)
		_, got, err := readFrame(r, hdr, len(payload))
		if err != nil {
			b.Fatal(err)
		}
		bufpool.PutFloat64(got)
	}
}

// BenchmarkSendRecvInto measures one pooled Send/RecvInto round trip over
// the in-process transport.
func BenchmarkSendRecvInto(b *testing.B) {
	eps := NewMem(2)
	payload := make([]float64, 4096)
	dst := make([]float64, 4096)
	b.SetBytes(int64(8 * len(payload)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := eps[0].Send(1, 7, payload); err != nil {
			b.Fatal(err)
		}
		if _, err := eps[1].RecvInto(0, 7, dst); err != nil {
			b.Fatal(err)
		}
	}
}
