package collective

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"partialreduce/internal/transport"
)

// runGroup calls f concurrently for every member of group and waits.
func runGroup(t *testing.T, eps []*transport.Mem, group []int, f func(tr transport.Transport) error) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make([]error, len(group))
	for i, r := range group {
		i, r := i, r
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = f(eps[r])
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("member %d (rank %d): %v", i, group[i], err)
		}
	}
}

func TestChunkPartition(t *testing.T) {
	for n := 0; n < 30; n++ {
		for g := 1; g <= 8; g++ {
			covered := 0
			prevHi := 0
			for c := 0; c < g; c++ {
				lo, hi := chunk(n, g, c)
				if lo != prevHi {
					t.Fatalf("n=%d g=%d c=%d: gap/overlap lo=%d prevHi=%d", n, g, c, lo, prevHi)
				}
				covered += hi - lo
				prevHi = hi
			}
			if covered != n {
				t.Fatalf("n=%d g=%d: covered %d", n, g, covered)
			}
		}
	}
}

func TestAllReduceSumFullGroup(t *testing.T) {
	const n, d = 4, 10
	eps := transport.NewMem(n)
	group := []int{0, 1, 2, 3}
	datas := make([][]float64, n)
	want := make([]float64, d)
	for r := range datas {
		datas[r] = make([]float64, d)
		for i := range datas[r] {
			datas[r][i] = float64(r*100 + i)
			want[i] += datas[r][i]
		}
	}
	runGroup(t, eps, group, func(tr transport.Transport) error {
		return AllReduceSumOpts(tr, group, 1, datas[tr.Rank()], Options{})
	})
	for r := range datas {
		for i := range want {
			if math.Abs(datas[r][i]-want[i]) > 1e-9 {
				t.Fatalf("rank %d elem %d: %v want %v", r, i, datas[r][i], want[i])
			}
		}
	}
}

func TestAllReduceSubgroup(t *testing.T) {
	// Only ranks {1,3,4} of a 6-rank world participate.
	eps := transport.NewMem(6)
	group := []int{1, 3, 4}
	datas := map[int][]float64{
		1: {1, 2, 3, 4, 5},
		3: {10, 20, 30, 40, 50},
		4: {100, 200, 300, 400, 500},
	}
	runGroup(t, eps, group, func(tr transport.Transport) error {
		return AllReduceSumOpts(tr, group, 2, datas[tr.Rank()], Options{})
	})
	want := []float64{111, 222, 333, 444, 555}
	for _, r := range group {
		for i := range want {
			if datas[r][i] != want[i] {
				t.Fatalf("rank %d: %v", r, datas[r])
			}
		}
	}
}

func TestConcurrentDisjointGroups(t *testing.T) {
	// Two disjoint groups all-reduce simultaneously — the P-Reduce pattern.
	eps := transport.NewMem(6)
	g1, g2 := []int{0, 1, 2}, []int{3, 4, 5}
	datas := make([][]float64, 6)
	for r := range datas {
		datas[r] = []float64{float64(r + 1)}
	}
	var wg sync.WaitGroup
	for _, spec := range []struct {
		group []int
		op    uint32
	}{{g1, 10}, {g2, 11}} {
		spec := spec
		for _, r := range spec.group {
			r := r
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := AllReduceSumOpts(eps[r], spec.group, spec.op, datas[r], Options{}); err != nil {
					t.Errorf("rank %d: %v", r, err)
				}
			}()
		}
	}
	wg.Wait()
	for _, r := range g1 {
		if datas[r][0] != 6 { // 1+2+3
			t.Fatalf("g1 rank %d: %v", r, datas[r])
		}
	}
	for _, r := range g2 {
		if datas[r][0] != 15 { // 4+5+6
			t.Fatalf("g2 rank %d: %v", r, datas[r])
		}
	}
}

func TestAllReduceGroupOfOne(t *testing.T) {
	eps := transport.NewMem(1)
	data := []float64{7}
	if err := AllReduceSumOpts(eps[0], []int{0}, 1, data, Options{}); err != nil {
		t.Fatal(err)
	}
	if data[0] != 7 {
		t.Fatalf("got %v", data)
	}
}

func TestAllReduceNotInGroup(t *testing.T) {
	eps := transport.NewMem(3)
	if err := AllReduceSumOpts(eps[2], []int{0, 1}, 1, []float64{1}, Options{}); err == nil {
		t.Fatal("non-member accepted")
	}
}

func TestAllReduceMean(t *testing.T) {
	eps := transport.NewMem(2)
	datas := [][]float64{{2, 4}, {4, 8}}
	group := []int{0, 1}
	runGroup(t, eps, group, func(tr transport.Transport) error {
		return AllReduceMeanOpts(tr, group, 3, datas[tr.Rank()], Options{})
	})
	for r := range datas {
		if datas[r][0] != 3 || datas[r][1] != 6 {
			t.Fatalf("rank %d: %v", r, datas[r])
		}
	}
}

func TestWeightedAverage(t *testing.T) {
	eps := transport.NewMem(2)
	datas := [][]float64{{10}, {20}}
	weights := []float64{0.25, 0.75}
	group := []int{0, 1}
	runGroup(t, eps, group, func(tr transport.Transport) error {
		return WeightedAverageOpts(tr, group, 4, datas[tr.Rank()], weights[tr.Rank()], Options{})
	})
	want := 0.25*10 + 0.75*20
	for r := range datas {
		if math.Abs(datas[r][0]-want) > 1e-12 {
			t.Fatalf("rank %d: %v want %v", r, datas[r][0], want)
		}
	}
}

// Property: for random group sizes, vector lengths (including lengths
// smaller than the group), and values, ring all-reduce matches the
// sequential sum on every member.
func TestQuickAllReduceMatchesSequential(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := 2 + rng.Intn(7)
		d := 1 + rng.Intn(12) // may be < g: some chunks are empty
		eps := transport.NewMem(g)
		group := make([]int, g)
		for i := range group {
			group[i] = i
		}
		datas := make([][]float64, g)
		want := make([]float64, d)
		for r := range datas {
			datas[r] = make([]float64, d)
			for i := range datas[r] {
				datas[r][i] = rng.NormFloat64()
				want[i] += datas[r][i]
			}
		}
		var wg sync.WaitGroup
		ok := true
		var mu sync.Mutex
		for _, r := range group {
			r := r
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := AllReduceSumOpts(eps[r], group, 1, datas[r], Options{}); err != nil {
					mu.Lock()
					ok = false
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		if !ok {
			return false
		}
		for r := range datas {
			for i := range want {
				if math.Abs(datas[r][i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
