package sim

import (
	"sort"
	"testing"
	"testing/quick"
)

func TestEventsFireInTimeOrder(t *testing.T) {
	var e Engine
	var got []float64
	e.At(3, func() { got = append(got, 3) })
	e.At(1, func() { got = append(got, 1) })
	e.At(2, func() { got = append(got, 2) })
	if n := e.Run(); n != 3 {
		t.Fatalf("Run processed %d events", n)
	}
	if !sort.Float64sAreSorted(got) || len(got) != 3 {
		t.Fatalf("order: %v", got)
	}
	if e.Now() != 3 {
		t.Fatalf("clock at %v, want 3", e.Now())
	}
}

func TestTieBreakIsInsertionOrder(t *testing.T) {
	var e Engine
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("tie order: %v", got)
		}
	}
}

func TestAfterAndNestedScheduling(t *testing.T) {
	var e Engine
	var trace []Time
	e.After(1, func() {
		trace = append(trace, e.Now())
		e.After(2, func() { trace = append(trace, e.Now()) })
	})
	e.Run()
	if len(trace) != 2 || trace[0] != 1 || trace[1] != 3 {
		t.Fatalf("trace: %v", trace)
	}
}

func TestPastSchedulingPanics(t *testing.T) {
	var e Engine
	e.At(5, func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic scheduling in the past")
			}
		}()
		e.At(4, func() {})
	})
	e.Run()
}

func TestStopResume(t *testing.T) {
	var e Engine
	count := 0
	for i := 1; i <= 5; i++ {
		e.At(Time(i), func() {
			count++
			if count == 2 {
				e.Stop()
			}
		})
	}
	if n := e.Run(); n != 2 {
		t.Fatalf("first Run processed %d", n)
	}
	if !e.Stopped() {
		t.Fatal("Stop did not stick")
	}
	if n := e.Run(); n != 3 {
		t.Fatalf("resume processed %d", n)
	}
	if count != 5 {
		t.Fatalf("count=%d", count)
	}
}

func TestStreamDeterminismAndIndependence(t *testing.T) {
	a := Stream(1, 2)
	b := Stream(1, 2)
	for i := 0; i < 10; i++ {
		if a.Int63() != b.Int63() {
			t.Fatal("same (base,id) stream diverged")
		}
	}
	c := Stream(1, 3)
	d := Stream(2, 2)
	same13, same22 := true, true
	e := Stream(1, 2)
	for i := 0; i < 10; i++ {
		v := e.Int63()
		if c.Int63() != v {
			same13 = false
		}
		if d.Int63() != v {
			same22 = false
		}
	}
	if same13 || same22 {
		t.Fatal("distinct streams produced identical sequences")
	}
}

// Property: any multiset of event times fires sorted.
func TestQuickOrdering(t *testing.T) {
	f := func(times []uint16) bool {
		var e Engine
		var got []Time
		for _, raw := range times {
			at := Time(raw) / 100
			e.At(at, func() { got = append(got, at) })
		}
		e.Run()
		return sort.Float64sAreSorted(got) && len(got) == len(times)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: interleaving At and After calls from within handlers preserves
// global time ordering and processes every scheduled event exactly once.
func TestQuickNestedScheduling(t *testing.T) {
	f := func(delays []uint8) bool {
		var e Engine
		fired := 0
		expected := len(delays)
		var last Time = -1
		for _, d := range delays {
			d := Time(d) / 50
			e.After(d, func() {
				if e.Now() < last {
					expected = -1 // ordering violation
				}
				last = e.Now()
				fired++
			})
		}
		e.Run()
		return fired == expected
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
