package hetero

import "testing"

func TestPartitionEventSplits(t *testing.T) {
	e := PartitionEvent{Ranks: []int{2, 5}}
	for _, c := range []struct {
		name    string
		members []int
		want    bool
	}{
		{"no members", nil, false},
		{"all inside", []int{5, 2}, false},
		{"one inside", []int{2}, false},
		{"all outside", []int{0, 1, 3}, false},
		{"straddles, inside first", []int{2, 0}, true},
		{"straddles, outside first", []int{7, 1, 5}, true},
		{"straddles at the end", []int{0, 1, 3, 4, 2}, true},
		{"a frame across the cut", []int{5, 4}, true},
		{"a frame inside the cut", []int{5, 2}, false},
	} {
		if got := e.Splits(c.members); got != c.want {
			t.Errorf("%s: Splits(%v) = %v, want %v", c.name, c.members, got, c.want)
		}
	}
}

func TestPartitionScheduleSplitsAt(t *testing.T) {
	s := PartitionSchedule{
		{Ranks: []int{1}, From: 2, Until: 4},
		{Ranks: []int{3}, From: 6}, // never heals
	}
	for _, c := range []struct {
		members []int
		at      float64
		want    bool
	}{
		{[]int{0, 1}, 1.9, false},
		{[]int{0, 1}, 2, true},
		{[]int{0, 1}, 4, false}, // healed: Until is exclusive
		{[]int{0, 2}, 3, false}, // active, but nobody inside
		{[]int{2, 3}, 5, false},
		{[]int{2, 3}, 1e9, true},
	} {
		if got := s.SplitsAt(c.members, c.at); got != c.want {
			t.Errorf("SplitsAt(%v, %v) = %v, want %v", c.members, c.at, got, c.want)
		}
	}
}
