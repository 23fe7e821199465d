package experiments

import (
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// The registry is the one list of experiments: the CLI's -exp values, its
// "all" order and its CSV file names all derive from it.
func TestRegistry(t *testing.T) {
	want := []string{"fig4", "table1", "fig7a", "fig7b", "fig8", "fig9", "fig10", "fig11",
		"geo", "seeds", "crash", "partition", "adaptive", "elastic", "ablations"}
	if got := IDs(); !reflect.DeepEqual(got, want) {
		t.Fatalf("registry order:\n got  %v\n want %v", got, want)
	}
	all, err := Select("all")
	if err != nil || len(all) != len(want) {
		t.Fatalf("Select(all): %d experiments, err %v", len(all), err)
	}

	seen := map[string]bool{}
	for _, e := range Registry {
		if seen[e.ID] || e.ID == "all" {
			t.Fatalf("experiment ID %q is duplicated or reserved", e.ID)
		}
		seen[e.ID] = true
		if e.Run == nil {
			t.Fatalf("%s has no Run", e.ID)
		}
		one, err := Select(e.ID)
		if err != nil || len(one) != 1 || one[0].ID != e.ID {
			t.Fatalf("Select(%s) = %v, %v", e.ID, one, err)
		}
	}
	// CSV names are "<id>.csv" or "<id>-<i>.csv", so they are unique as long
	// as no ID reads as another ID's numbered export.
	numbered := regexp.MustCompile(`^(.+)-[0-9]+$`)
	for id := range seen {
		if m := numbered.FindStringSubmatch(id); m != nil && seen[m[1]] {
			t.Fatalf("experiment %q would share CSV names with %q", id, m[1])
		}
	}

	_, err = Select("fig12")
	if err == nil {
		t.Fatal("unknown experiment accepted")
	}
	for _, id := range append(want, "all") {
		if !strings.Contains(err.Error(), id) {
			t.Fatalf("unknown-ID error does not name %q: %v", id, err)
		}
	}
}
