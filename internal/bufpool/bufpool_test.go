package bufpool

import (
	"testing"
)

func TestClassFor(t *testing.T) {
	cases := []struct{ n, want int }{
		{0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3},
		{1 << 10, 10}, {(1 << 10) + 1, 11},
		{1 << maxClass, maxClass}, {(1 << maxClass) + 1, -1},
	}
	for _, c := range cases {
		if got := classFor(c.n); got != c.want {
			t.Errorf("classFor(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestGetFloat64LenCap(t *testing.T) {
	for _, n := range []int{0, 1, 3, 100, 4096, 5000} {
		buf := GetFloat64(n)
		if len(buf) != n {
			t.Fatalf("len = %d, want %d", len(buf), n)
		}
		if c := cap(buf); c&(c-1) != 0 || c < n {
			t.Fatalf("cap = %d for n = %d: want power of two >= n", c, n)
		}
		PutFloat64(buf)
	}
}

func TestRoundTripReuse(t *testing.T) {
	// After a Put, the next same-class Get must hit the pool. sync.Pool may
	// theoretically drop entries under GC pressure, so retry a few times
	// before declaring failure.
	ok := false
	for attempt := 0; attempt < 5 && !ok; attempt++ {
		buf := GetFloat64(1000)
		buf[0] = 42
		PutFloat64(buf)
		before := Float64Misses()
		again := GetFloat64(900) // same class (1024)
		ok = Float64Misses() == before
		PutFloat64(again)
	}
	if !ok {
		t.Error("GetFloat64 after PutFloat64 of the same class kept missing the pool")
	}
}

func TestPutRejectsForeignCapacities(t *testing.T) {
	// A non-power-of-two capacity must not enter the pool.
	PutFloat64(make([]float64, 3000)) // cap 3000: dropped
	PutFloat64(nil)
	// Oversized buffers are also dropped.
	PutFloat64(make([]float64, 0, 1<<maxClass*2))
}

func TestSteadyStateGetPutAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates")
	}
	// Warm one class, then measure: Get+Put of a warm class must not allocate.
	warm := GetFloat64(1 << 12)
	PutFloat64(warm)
	avg := testing.AllocsPerRun(100, func() {
		b := GetFloat64(1 << 12)
		PutFloat64(b)
	})
	if avg > 0.5 {
		t.Errorf("steady-state Get/Put allocates %.1f times per run, want 0", avg)
	}
}
