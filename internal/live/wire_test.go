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

// roundTrip encodes d as a reply frame and decodes it in an n-rank world.
func roundTrip(t *testing.T, d engine.Directive, n int) (engine.Directive, error) {
	t.Helper()
	p, err := appendDirective(nil, d)
	if err != nil {
		t.Fatalf("encode %+v: %v", d, err)
	}
	return decodeDirective(p, n)
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
	if _, err := decodeDirective([]float64{1}, n); err == nil {
		t.Fatal("short payload accepted")
	}
	if _, err := decodeDirective([]float64{0, 1, 2, 0, 1, 0, 2, 0}, n); err == nil {
		t.Fatal("wrong length accepted")
	}
	if _, err := decodeDirective([]float64{9, 0, 0, 0, 0, 0, 0}, n); err == nil {
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
		p := []float64{modeGroup, 7, 3, 0, 2, 0, 2, 0, 1, 0.5, 0.5}
		mut(p)
		return p
	}
	directives := map[string][]float64{
		"NaN group size":       {0, 0, 0, 0, 0, 0, nan},
		"Inf group size":       {0, 0, 0, 0, 0, 0, inf},
		"negative group size":  {0, 0, 0, 0, 0, 0, -1},
		"P > N":                group(func(p []float64) { p[6] = n + 1 }),
		"member rank >= N":     group(func(p []float64) { p[8] = n }),
		"negative member":      group(func(p []float64) { p[7] = -1 }),
		"fractional member":    group(func(p []float64) { p[7] = 0.5 }),
		"NaN weight":           group(func(p []float64) { p[9] = nan }),
		"Inf init weight":      group(func(p []float64) { p[3] = inf }),
		"fractional op":        group(func(p []float64) { p[1] = 1.5 }),
		"op beyond uint32":     group(func(p []float64) { p[1] = 1 << 32 }),
		"epoch beyond 2^53":    group(func(p []float64) { p[4] = 1 << 54 }),
		"negative iteration":   group(func(p []float64) { p[2] = -3 }),
		"NaN mode":             {nan, 0, 0, 0, 0, 0, 0},
		"skip with members":    {modeSkip, 0, 0, 0, 0, 0, 1, 0, 1},
		"joiner rank >= N":     {modeBootstrap, float64(bootOpBase), 0, 0, 1, n, 0},
		"truncated group":      group(func(p []float64) { p[6] = 3 }),
		"fractional joiner":    {modeBootstrap, float64(bootOpBase), 0, 0, 1, 0.25, 0},
		"negative epoch":       {modeSkip, 0, 0, 0, -1, 0, 0},
		"negative group op id": group(func(p []float64) { p[1] = -1 }),
	}
	for name, p := range directives {
		if d, err := decodeDirective(p, n); err == nil {
			t.Errorf("directive %s accepted: %+v", name, d)
		}
	}
	readies := map[string][]float64{
		"empty":             {},
		"NaN iteration":     {nan, 0},
		"fractional iter":   {1.5, 0},
		"missing epoch":     {4},
		"NaN epoch":         {4, nan},
		"epoch beyond 2^53": {4, 1 << 54},
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
	if _, err := decodeRoster([]float64{0, 2, 2}, n); err == nil {
		t.Error("roster with a duplicate accepted")
	}
	if _, err := decodeRoster([]float64{0, n}, n); err == nil {
		t.Error("roster naming rank N accepted")
	}
}

// Epochs a float64 slot would round are refused at encode, on both streams.
func TestControlCodecRefusesInexactEpoch(t *testing.T) {
	const big = uint64(1)<<53 + 1
	if _, err := appendReady(nil, readyMsg{kind: evReady, iter: 1, epoch: big}); err == nil {
		t.Error("ready signal with epoch 2^53+1 encoded")
	}
	if _, err := appendDirective(nil, engine.Directive{Skip: true, Epoch: big}); err == nil {
		t.Error("directive with epoch 2^53+1 encoded")
	}
	if p, err := appendReady(nil, readyMsg{kind: evReady, iter: 1, epoch: 1 << 53}); err != nil {
		t.Errorf("epoch 2^53 refused: %v", err)
	} else if m, err := decodeReady(p, 2); err != nil || m.epoch != 1<<53 {
		t.Errorf("epoch 2^53 round trip: %v %+v", err, m)
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
	seed(appendDirective(nil, engine.Directive{OpID: 3, Epoch: 2, Group: controller.Group{
		Members: []int{2, 0, 5}, Weights: []float64{0.5, 0.25, 0.25}, InitWeight: 0.1, Iter: 9}}))
	seed(appendDirective(nil, engine.Directive{Bootstrap: true, BootstrapFor: 6, BootstrapOp: bootOpBase + 1, Epoch: 4}))
	seed(appendDirective(nil, engine.Directive{Refresh: true, Epoch: 1 << 53}))
	seed(appendReady(nil, readyMsg{kind: evReady, iter: 12, epoch: 3}))
	seed(appendReady(nil, readyMsg{kind: evDeath, dead: 2, op: 77}))
	seed(appendReady(nil, readyMsg{kind: evStuck, op: 78}))
	seed(appendReady(nil, readyMsg{kind: evFinished}))
	seed(encodeOpRank(5, -1), nil)
	seed(encodeOpRank(bootOpBase+2, 1), nil)
	seed(encodeRoster([]int{0, 1, 3}), nil)
	seed([]float64{0, 0, 0, 0, 0, 0, math.NaN()}, nil)

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
		if d, err := decodeDirective(p, n); err == nil {
			q, err := appendDirective(nil, d)
			if err != nil {
				t.Fatalf("accepted directive %+v does not encode: %v", d, err)
			}
			d2, err := decodeDirective(q, n)
			same("reply", d, d2, err)
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
		if r, err := decodeRoster(p, n); err == nil {
			r2, err := decodeRoster(encodeRoster(r), n)
			same("roster", r, r2, err)
		}
	})
}

// A malformed reply frame reaches a worker as an error from Signal, naming
// the bad field, not as a panic.
func TestDecodeDirectiveNaNCountIsAnError(t *testing.T) {
	_, err := decodeDirective([]float64{0, 0, 0, 0, 0, 0, math.NaN()}, 8)
	if err == nil || !strings.Contains(err.Error(), "group size") {
		t.Fatalf("NaN group size: err = %v, want a group-size error", err)
	}
}
