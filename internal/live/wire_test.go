package live

import (
	"encoding/binary"
	"math"
	"reflect"
	"strings"
	"testing"

	"partialreduce/internal/controller"
	"partialreduce/internal/engine"
)

// bootOpBase is the service core's first bootstrap op id, so the frames
// below carry op ids of the size a join puts on the wire.
const bootOpBase uint32 = 0x40000000

// roundTrip encodes d as a reply frame and decodes it in an n-rank world;
// the frame's seq must come back too.
func roundTrip(t *testing.T, d engine.Directive, n int) (engine.Directive, error) {
	t.Helper()
	p, err := appendDirective(nil, 41, d)
	if err != nil {
		t.Fatalf("encode %+v: %v", d, err)
	}
	seq, got, err := decodeDirective(p, n, nil, nil)
	if err == nil && seq != 41 {
		t.Fatalf("reply seq %d, want 41", seq)
	}
	return got, err
}

func TestGroupCodec(t *testing.T) {
	const n = 16
	g := controller.Group{
		Members:    []int{3, 1, 4},
		Weights:    []float64{0.5, 0.25, 0.25},
		InitWeight: 0.1,
		Iter:       17,
	}
	got, err := roundTrip(t, engine.Directive{Group: g, OpID: 9, Epoch: 5}, n)
	if err != nil || got.Skip || got.OpID != 9 || got.Epoch != 5 {
		t.Fatalf("decode: %v %+v", err, got)
	}
	if got.Group.Iter != 17 || got.Group.InitWeight != 0.1 || len(got.Group.Members) != 3 || got.Group.Members[0] != 3 {
		t.Fatalf("round trip: %+v", got.Group)
	}
	got, err = roundTrip(t, engine.Directive{Skip: true, Epoch: 2}, n)
	if err != nil || !got.Skip || got.Epoch != 2 {
		t.Fatalf("skip reply: %v %+v", err, got)
	}
	got, err = roundTrip(t, engine.Directive{Drain: true, Epoch: 7}, n)
	if err != nil || !got.Drain || got.Epoch != 7 {
		t.Fatalf("drain reply: %v %+v", err, got)
	}
	got, err = roundTrip(t, engine.Directive{Refresh: true, Epoch: 3}, n)
	if err != nil || !got.Refresh || got.Epoch != 3 {
		t.Fatalf("refresh reply: %v %+v", err, got)
	}
	got, err = roundTrip(t, engine.Directive{
		Bootstrap: true, BootstrapFor: 11, BootstrapOp: bootOpBase + 4, Epoch: 9,
	}, n)
	if err != nil || !got.Bootstrap || got.BootstrapFor != 11 || got.BootstrapOp != bootOpBase+4 || got.Epoch != 9 {
		t.Fatalf("bootstrap reply: %v %+v", err, got)
	}
	if _, _, err := decodeDirective([]float64{1}, n, nil, nil); err == nil {
		t.Fatal("short payload accepted")
	}
	if _, _, err := decodeDirective([]float64{0, 1, 2, 0, 1, 0, 2, 0, 0}, n, nil, nil); err == nil {
		t.Fatal("wrong length accepted")
	}
	if _, _, err := decodeDirective([]float64{9, 0, 0, 0, 0, 0, 0, 0}, n, nil, nil); err == nil {
		t.Fatal("unknown mode accepted")
	}
}

// TestControlCodecRejectsMalformed pins the validated decode: every stream
// turns a non-integral, negative, non-finite or out-of-world field into an
// error. The first case used to panic a worker (makeslice: len out of range).
func TestControlCodecRejectsMalformed(t *testing.T) {
	const n = 4
	nan, inf := math.NaN(), math.Inf(1)
	group := func(mut func(p []float64)) []float64 {
		p := []float64{modeGroup, 7, 3, 0, 2, 0, 2, 5, 0, 1, 0.5, 0.5}
		mut(p)
		return p
	}
	directives := map[string][]float64{
		"NaN group size":       {0, 0, 0, 0, 0, 0, nan, 0},
		"Inf group size":       {0, 0, 0, 0, 0, 0, inf, 0},
		"negative group size":  {0, 0, 0, 0, 0, 0, -1, 0},
		"P > N":                group(func(p []float64) { p[6] = n + 1 }),
		"member rank >= N":     group(func(p []float64) { p[9] = n }),
		"negative member":      group(func(p []float64) { p[8] = -1 }),
		"fractional member":    group(func(p []float64) { p[8] = 0.5 }),
		"NaN weight":           group(func(p []float64) { p[10] = nan }),
		"negative seq":         group(func(p []float64) { p[7] = -1 }),
		"fractional seq":       group(func(p []float64) { p[7] = 2.5 }),
		"seq beyond 2^53":      group(func(p []float64) { p[7] = 1 << 54 }),
		"Inf init weight":      group(func(p []float64) { p[3] = inf }),
		"fractional op":        group(func(p []float64) { p[1] = 1.5 }),
		"op beyond uint32":     group(func(p []float64) { p[1] = 1 << 32 }),
		"epoch beyond 2^53":    group(func(p []float64) { p[4] = 1 << 54 }),
		"negative iteration":   group(func(p []float64) { p[2] = -3 }),
		"NaN mode":             {nan, 0, 0, 0, 0, 0, 0, 0},
		"skip with members":    {modeSkip, 0, 0, 0, 0, 0, 1, 0, 0, 1},
		"joiner rank >= N":     {modeBootstrap, float64(bootOpBase), 0, 0, 1, n, 0, 0},
		"truncated group":      group(func(p []float64) { p[6] = 3 }),
		"fractional joiner":    {modeBootstrap, float64(bootOpBase), 0, 0, 1, 0.25, 0, 0},
		"negative epoch":       {modeSkip, 0, 0, 0, -1, 0, 0, 0},
		"negative group op id": group(func(p []float64) { p[1] = -1 }),
	}
	for name, p := range directives {
		if _, d, err := decodeDirective(p, n, nil, nil); err == nil {
			t.Errorf("directive %s accepted: %+v", name, d)
		}
	}
	readies := map[string][]float64{
		"empty":             {},
		"NaN iteration":     {nan, 0, 0},
		"fractional iter":   {1.5, 0, 0},
		"missing epoch":     {4},
		"NaN epoch":         {4, nan, 0},
		"epoch beyond 2^53": {4, 1 << 54, 0},
		"missing seq":       {4, 0},
		"negative seq":      {4, 0, -1},
		"seq beyond 2^53":   {4, 0, 1 << 54},
		"unknown marker":    {-4},
		"dead rank >= N":    {markFailure, n, 1},
		"short failure":     {markFailure, 1},
		"negative op":       {markFailure, 1, -1},
		"finished + junk":   {markFinished, 0},
	}
	for name, p := range readies {
		if m, err := decodeReady(p, n); err == nil {
			t.Errorf("ready frame %s accepted: %+v", name, m)
		}
	}
	opRanks := map[string][]float64{
		"rank N":        {1, n},
		"rank -2":       {1, -2},
		"NaN op":        {nan, 0},
		"fractional op": {1.5, 0},
		"three slots":   {1, 0, 0},
	}
	for name, p := range opRanks {
		if op, rank, err := decodeOpRank(p, n); err == nil {
			t.Errorf("abort/join frame %s accepted: op %d rank %d", name, op, rank)
		}
	}
}

// Epochs and seqs a float64 slot would round are refused at encode, on both
// streams.
func TestControlCodecRefusesInexactEpoch(t *testing.T) {
	const big = uint64(1)<<53 + 1
	if _, err := appendReady(nil, readyMsg{kind: evReady, ReadyFrame: engine.ReadyFrame{Iter: 1, Epoch: big}}); err == nil {
		t.Error("ready signal with epoch 2^53+1 encoded")
	}
	if _, err := appendReady(nil, readyMsg{kind: evReady, ReadyFrame: engine.ReadyFrame{Iter: 1, Seq: big}}); err == nil {
		t.Error("ready signal with seq 2^53+1 encoded")
	}
	if _, err := appendDirective(nil, 0, engine.Directive{Skip: true, Epoch: big}); err == nil {
		t.Error("directive with epoch 2^53+1 encoded")
	}
	if _, err := appendDirective(nil, big, engine.Directive{Skip: true}); err == nil {
		t.Error("directive with seq 2^53+1 encoded")
	}
	if p, err := appendReady(nil, readyMsg{kind: evReady, ReadyFrame: engine.ReadyFrame{Iter: 1, Epoch: 1 << 53, Seq: 1 << 53}}); err != nil {
		t.Errorf("epoch and seq 2^53 refused: %v", err)
	} else if m, err := decodeReady(p, 2); err != nil || m.Epoch != 1<<53 || m.Seq != 1<<53 {
		t.Errorf("epoch and seq 2^53 round trip: %v %+v", err, m)
	}
}

func floatsToBytes(p []float64) []byte {
	b := make([]byte, 8*len(p))
	for i, v := range p {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
	}
	return b
}

// FuzzControlCodec feeds arbitrary float64 payloads to every control-stream
// decoder: none may panic, and whatever a decoder accepts must survive
// encode → decode unchanged.
func FuzzControlCodec(f *testing.F) {
	seed := func(p []float64, err error) {
		if err != nil {
			f.Fatal(err)
		}
		f.Add(floatsToBytes(p), uint8(8))
	}
	seed(appendDirective(nil, 17, engine.Directive{OpID: 3, Epoch: 2, Group: controller.Group{
		Members: []int{2, 0, 5}, Weights: []float64{0.5, 0.25, 0.25}, InitWeight: 0.1, Iter: 9}}))
	seed(appendDirective(nil, 0, engine.Directive{Bootstrap: true, BootstrapFor: 6, BootstrapOp: bootOpBase + 1, Epoch: 4}))
	seed(appendDirective(nil, 1<<53, engine.Directive{Refresh: true, Epoch: 1 << 53}))
	seed(appendReady(nil, readyMsg{kind: evReady, ReadyFrame: engine.ReadyFrame{Iter: 12, Epoch: 3, Seq: 18}}))
	seed([]float64{12, 3, -1}, nil) // a ready signal whose seq is out of range
	seed(appendReady(nil, readyMsg{kind: evDeath, dead: 2, op: 77}))
	seed(appendReady(nil, readyMsg{kind: evStuck, op: 78}))
	seed(appendReady(nil, readyMsg{kind: evFinished}))
	seed(encodeOpRank(5, -1), nil)
	seed(encodeOpRank(bootOpBase+2, 1), nil)
	seed(encodeOpRank(0, -1), nil) // the shutdown sentinel
	seed([]float64{0, 0, 0, 0, 0, 0, math.NaN(), 0}, nil)

	f.Fuzz(func(t *testing.T, data []byte, worldSize uint8) {
		n := 2 + int(worldSize%31)
		p := make([]float64, len(data)/8)
		for i := range p {
			p[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		same := func(stream string, a, b any, err error) {
			if err != nil || !reflect.DeepEqual(a, b) {
				t.Fatalf("%s: %v does not survive re-encoding: %+v -> %+v (%v)", stream, p, a, b, err)
			}
		}
		if seq, d, err := decodeDirective(p, n, nil, nil); err == nil {
			q, err := appendDirective(nil, seq, d)
			if err != nil {
				t.Fatalf("accepted directive %+v does not encode: %v", d, err)
			}
			seq2, d2, err := decodeDirective(q, n, nil, nil)
			same("reply", []any{seq, d}, []any{seq2, d2}, err)
		}
		if m, err := decodeReady(p, n); err == nil {
			q, err := appendReady(nil, m)
			if err != nil {
				t.Fatalf("accepted ready message %+v does not encode: %v", m, err)
			}
			m2, err := decodeReady(q, n)
			same("ready", m, m2, err)
		}
		if op, rank, err := decodeOpRank(p, n); err == nil {
			op2, rank2, err := decodeOpRank(encodeOpRank(op, rank), n)
			same("abort/join", [2]int{int(op), rank}, [2]int{int(op2), rank2}, err)
		}
	})
}

// A malformed reply frame reaches a worker as an error from Signal, naming
// the bad field, not as a panic.
func TestDecodeDirectiveNaNCountIsAnError(t *testing.T) {
	_, _, err := decodeDirective([]float64{0, 0, 0, 0, 0, 0, math.NaN(), 0}, 8, nil, nil)
	if err == nil || !strings.Contains(err.Error(), "group size") {
		t.Fatalf("NaN group size: err = %v, want a group-size error", err)
	}
}

// TestDecodeDirectiveReusesGroupSlices pins the worker's steady state: a
// group reply decodes into the slices the worker owns, so answering a signal
// allocates nothing, whatever the group's size up to the whole world.
func TestDecodeDirectiveReusesGroupSlices(t *testing.T) {
	const n = 8
	members, weights := make([]int, n), make([]float64, n)
	var frames [][]float64
	for _, g := range []controller.Group{
		{Members: []int{5, 0, 2}, Weights: []float64{0.5, 0.25, 0.25}, Iter: 40},
		{Members: []int{7, 6, 5, 4, 3, 2, 1, 0}, Weights: []float64{1, 1, 1, 1, 1, 1, 1, 1}, Iter: 41},
	} {
		p, err := appendDirective(nil, 9, engine.Directive{Group: g, OpID: 3, Epoch: 1})
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, p)
	}
	frames = append(frames, []float64{modeSkip, 0, 0, 0, 1, 0, 0, 9})
	for _, p := range frames {
		var d engine.Directive
		allocs := testing.AllocsPerRun(50, func() {
			var err error
			if _, d, err = decodeDirective(p, n, members, weights); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 0 {
			t.Fatalf("decoding a %d-slot reply allocates %.1f times", len(p), allocs)
		}
		if len(d.Group.Members) > 0 && &d.Group.Members[0] != &members[0] {
			t.Fatalf("group of %d decoded into fresh slices", len(d.Group.Members))
		}
	}
}
