package transport

import (
	"bytes"
	"fmt"
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

// BenchmarkSendRecvInto measures one Send/RecvInto round trip over the
// in-process transport, whose receiver is not yet waiting: the send cells
// copy each payload into a pooled buffer and out again, the lend cells park
// a reference that RecvInto copies out once, then Settle. 4 Ki is the frame
// of a ring of up to four members, 32 Ki the segment of a wider one.
func BenchmarkSendRecvInto(b *testing.B) {
	for _, n := range []int{memFrameElems, memWideSegElems} {
		for _, lend := range []bool{false, true} {
			name := fmt.Sprintf("send/elems=%d", n)
			if lend {
				name = fmt.Sprintf("lend/elems=%d", n)
			}
			b.Run(name, func(b *testing.B) {
				eps := NewMem(2)
				payload := make([]float64, n)
				dst := make([]float64, n)
				var loans Loans
				b.SetBytes(int64(8 * len(payload)))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					var err error
					if lend {
						err = eps[0].Lend(1, 7, payload, &loans)
					} else {
						err = eps[0].Send(1, 7, payload)
					}
					if err != nil {
						b.Fatal(err)
					}
					if _, err := eps[1].RecvInto(0, 7, dst); err != nil {
						b.Fatal(err)
					}
					loans.Settle(0)
				}
			})
		}
	}
}

// BenchmarkTCPRoundTrip measures one ping-pong over a 2-rank loopback mesh:
// rank 0 sends, rank 1 echoes, rank 0 receives. 3 elements is a control
// signal, 36 a ctrl_tcp P = 3 ring segment (both one read in the read loop),
// 32 Ki a comm_tcp frame (the transport's FrameElems). Add -cpuprofile to see
// the read loop's syscalls per frame.
func BenchmarkTCPRoundTrip(b *testing.B) {
	for _, n := range []int{3, 36, tcpFrameElems} {
		b.Run(fmt.Sprintf("elems=%d", n), func(b *testing.B) {
			eps := startTCPWorld(b, 2)
			payload := make([]float64, n)
			dst := make([]float64, n)
			echo := make([]float64, n)
			errc := make(chan error, 1)
			go func() {
				for i := 0; i < b.N; i++ {
					if _, err := eps[1].RecvInto(0, 7, echo); err != nil {
						errc <- err
						return
					}
					if err := eps[1].Send(0, 7, echo); err != nil {
						errc <- err
						return
					}
				}
				errc <- nil
			}()
			b.SetBytes(int64(2 * 8 * n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := eps[0].Send(1, 7, payload); err != nil {
					b.Fatal(err)
				}
				if _, err := eps[0].RecvInto(1, 7, dst); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if err := <-errc; err != nil {
				b.Fatal(err)
			}
		})
	}
}
