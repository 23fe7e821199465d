package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"time"
)

// This file is the benchmark's reference job: a small data-parallel trainer
// that shares no code with the product and never changes when the product
// does. It has the product's shape on purpose — eight rank goroutines on two
// threads, each streaming over parameter-sized buffers and then running a
// ring all-reduce in 4096-element segments over in-process channels or
// loopback TCP — because the review host's speed on exactly that kind of
// work (cache-hungry, hand-off heavy) moves by up to 2x within seconds and
// by tens of percent over minutes, while plain arithmetic hardly moves. A
// reference rep runs next to every product rep, and the end-to-end rates are
// reported relative to it (see normalizeRates); README.md has the
// measurements behind that decision.

// refSegment is the ring's segment size in elements, the product's default.
const refSegment = 4096

// refEdge is one directed ring edge as a rank sees it: send to the
// successor, receive from the predecessor.
type refEdge interface {
	send(seg []float64) error
	// recv hands the next n-element segment to use; the slice is only valid
	// during the call.
	recv(n int, use func(seg []float64)) error
}

// errRingReleased ends a rank whose ring was taken down under it, which
// happens when another rank failed.
var errRingReleased = errors.New("reference ring: released")

// chanEdge moves segments through a channel, recycling two buffers per edge
// the way a mailbox with a pool would. done is the ring's: once closed,
// nothing blocks on the edge any more.
type chanEdge struct {
	data, free chan []float64
	done       <-chan struct{}
}

func newChanEdge(done <-chan struct{}) *chanEdge {
	// Both channels hold at most the edge's two buffers, so returning one to
	// free never blocks and a sender runs at most two segments ahead.
	e := &chanEdge{data: make(chan []float64, 2), free: make(chan []float64, 2), done: done}
	e.free <- make([]float64, refSegment)
	e.free <- make([]float64, refSegment)
	return e
}

// put copies n elements into a free buffer with fill and queues it.
func (e *chanEdge) put(n int, fill func(buf []float64)) error {
	var buf []float64
	select {
	case buf = <-e.free:
	case <-e.done:
		return errRingReleased
	}
	buf = buf[:n]
	fill(buf)
	select {
	case e.data <- buf:
		return nil
	case <-e.done:
		return errRingReleased
	}
}

// take hands the next queued segment to use and recycles its buffer.
func (e *chanEdge) take(n int, use func(seg []float64)) error {
	select {
	case buf := <-e.data:
		if len(buf) != n {
			return fmt.Errorf("reference ring: segment of %d elements, want %d", len(buf), n)
		}
		use(buf)
		e.free <- buf[:refSegment] // never blocks: the edge owns two buffers
		return nil
	case <-e.done:
		return errRingReleased
	}
}

// chanRank is one rank's pair of channel edges.
type chanRank struct{ out, in *chanEdge }

func (r chanRank) send(seg []float64) error {
	return r.out.put(len(seg), func(buf []float64) { copy(buf, seg) })
}

func (r chanRank) recv(n int, use func([]float64)) error { return r.in.take(n, use) }

// tcpRank is one rank's pair of loopback connections. A frame is an 8-byte
// element count followed by the elements, little-endian, written with one
// Write. Incoming frames are decoded by a read loop of the connection's own
// and handed to the rank through a chanEdge — the hop every transport has
// whose ranks may hear from any peer at any time.
type tcpRank struct {
	out  net.Conn
	wbuf []byte
	in   *chanEdge
}

func newTCPRank(out, in net.Conn, done <-chan struct{}, readers *sync.WaitGroup) *tcpRank {
	inbox := newChanEdge(done)
	readers.Add(1)
	go func() {
		defer readers.Done()
		rbuf := make([]byte, 8*refSegment)
		var head [8]byte
		for {
			if _, err := io.ReadFull(in, head[:]); err != nil {
				return // the ring was released
			}
			n := binary.LittleEndian.Uint64(head[:])
			if n > refSegment {
				return
			}
			b := rbuf[:8*n]
			if _, err := io.ReadFull(in, b); err != nil {
				return
			}
			err := inbox.put(int(n), func(buf []float64) {
				for i := range buf {
					buf[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
				}
			})
			if err != nil {
				return
			}
		}
	}()
	return &tcpRank{out: out, wbuf: make([]byte, 8+8*refSegment), in: inbox}
}

func (r *tcpRank) send(seg []float64) error {
	b := r.wbuf[:8+8*len(seg)]
	binary.LittleEndian.PutUint64(b, uint64(len(seg)))
	for i, v := range seg {
		binary.LittleEndian.PutUint64(b[8+8*i:], math.Float64bits(v))
	}
	_, err := r.out.Write(b)
	return err
}

func (r *tcpRank) recv(n int, use func([]float64)) error { return r.in.take(n, use) }

// refRing connects n ranks in a ring and returns each rank's edge plus a
// function that takes the ring down: it unblocks every rank still on an
// edge, closes the sockets and waits for the read loops. Calling it again
// does nothing.
func refRing(n int, tcp bool) ([]refEdge, func(), error) {
	edges := make([]refEdge, n)
	done := make(chan struct{})
	var listeners []net.Listener
	var conns []net.Conn
	var readers sync.WaitGroup
	var once sync.Once
	release := func() {
		once.Do(func() {
			close(done)
			for _, ln := range listeners {
				ln.Close()
			}
			for _, c := range conns {
				c.Close()
			}
			readers.Wait()
		})
	}
	if !tcp {
		links := make([]*chanEdge, n) // links[r] carries r -> r+1
		for r := range links {
			links[r] = newChanEdge(done)
		}
		for r := range edges {
			edges[r] = chanRank{out: links[r], in: links[(r+n-1)%n]}
		}
		return edges, release, nil
	}

	for r := 0; r < n; r++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			release()
			return nil, nil, err
		}
		listeners = append(listeners, ln)
	}
	// Rank r dials r+1; the kernel completes the handshake into the backlog,
	// so dialling everything before accepting anything cannot block.
	outs := make([]net.Conn, n)
	for r := 0; r < n; r++ {
		c, err := net.Dial("tcp", listeners[(r+1)%n].Addr().String())
		if err != nil {
			release()
			return nil, nil, err
		}
		conns = append(conns, c)
		outs[r] = c
	}
	for r := 0; r < n; r++ {
		c, err := listeners[r].Accept()
		if err != nil {
			release()
			return nil, nil, err
		}
		conns = append(conns, c)
		edges[r] = newTCPRank(outs[r], c, done, &readers)
	}
	return edges, release, nil
}

// refJob is the reference for one workload: the workload's rank count,
// payload size and transport kind, and a fixed number of iterations per rep.
type refJob struct {
	n, d, iters int
	tcp         bool
}

// rep runs one fresh-ring rep and returns its steps (rank-iterations) and
// wall time. It fails unless every rank ends with bit-identical, finite
// parameters: every rank applies the same all-reduced update to the same
// start, and each chunk's sum is formed on one rank and copied round.
func (j *refJob) rep() (steps int64, wall time.Duration, err error) {
	params, wall, err := j.run()
	if err != nil {
		return 0, 0, err
	}
	for r := range params {
		for i, v := range params[r] {
			if math.Float64bits(v) != math.Float64bits(params[0][i]) || math.IsNaN(v) || math.IsInf(v, 0) {
				return 0, 0, fmt.Errorf("reference ring: rank %d element %d is %v, rank 0 has %v", r, i, v, params[0][i])
			}
		}
	}
	return int64(j.n * j.iters), wall, nil
}

// run trains on a fresh ring and returns every rank's parameters. Ring
// construction and teardown sit outside the timed region, as world
// construction does for the product's reps.
func (j *refJob) run() (params [][]float64, wall time.Duration, err error) {
	edges, release, err := refRing(j.n, j.tcp)
	if err != nil {
		return nil, 0, err
	}
	defer release()

	// Three parameter-sized buffers per rank, as the product's replica,
	// velocity and gradient are.
	params = make([][]float64, j.n)
	scratch := make([][2][]float64, j.n)
	for r := range params {
		params[r] = make([]float64, j.d)
		for i := range params[r] {
			params[r][i] = float64(i%13) * 0.01
		}
		scratch[r] = [2][]float64{make([]float64, j.d), make([]float64, j.d)}
	}
	errs := make([]error, j.n)
	var wg sync.WaitGroup
	start := time.Now()
	for r := 0; r < j.n; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			if errs[r] = j.rank(r, edges[r], params[r], scratch[r][0], scratch[r][1]); errs[r] != nil {
				release() // or the other ranks wait on this one for ever
			}
		}(r)
	}
	wg.Wait()
	wall = time.Since(start)
	for _, err := range errs {
		if err != nil && !errors.Is(err, errRingReleased) {
			return nil, 0, err
		}
	}
	if err := errors.Join(errs...); err != nil {
		return nil, 0, err
	}
	return params, wall, nil
}

// rank is one rank's loop: a "gradient" pass over the parameters (rank- and
// iteration-dependent so the ranks disagree before reducing), a ring
// all-reduce of the gradient (reduce-scatter, then all-gather), and a
// momentum update.
func (j *refJob) rank(r int, edge refEdge, params, grad, velocity []float64) error {
	n := j.n
	bound := func(chunk int) int { return chunk * j.d / n }
	for it := 0; it < j.iters; it++ {
		x := 0.5 + 0.01*float64(r) + 0.001*float64(it%100)
		for i, p := range params {
			grad[i] = x * p
		}
		for phase := 0; phase < 2; phase++ {
			for step := 0; step < n-1; step++ {
				sendChunk, recvChunk := (r-step+n)%n, (r-step-1+n)%n
				if phase == 1 {
					sendChunk, recvChunk = (r+1-step+n)%n, (r-step+n)%n
				}
				so, se := bound(sendChunk), bound(sendChunk+1)
				ro, re := bound(recvChunk), bound(recvChunk+1)
				// One segment out, one segment in, alternately: never more
				// than a segment in flight per edge, so no edge can fill up.
				for so < se || ro < re {
					if so < se {
						end := min(so+refSegment, se)
						if err := edge.send(grad[so:end]); err != nil {
							return err
						}
						so = end
					}
					if ro < re {
						end := min(ro+refSegment, re)
						dst := grad[ro:end]
						err := edge.recv(len(dst), func(seg []float64) {
							if phase == 1 {
								copy(dst, seg)
								return
							}
							for i, v := range seg {
								dst[i] += v
							}
						})
						if err != nil {
							return err
						}
						ro = end
					}
				}
			}
		}
		mean := 1 / float64(n)
		for i := range params {
			velocity[i] = 0.9*velocity[i] + mean*grad[i]
			params[i] -= 1e-4 * velocity[i]
		}
	}
	return nil
}
