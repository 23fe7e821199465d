package policy

import (
	"encoding/hex"
	"reflect"
	"testing"
)

// stateGoldenV1 is goldenState as the pre-binfmt EncodeState of commit
// 33c1c22 wrote it (closure-based codec, version 1).
const stateGoldenV1 = "" +
	"53505250010000000a0000000000000061646170746976652d70030000000000" +
	"000011000000000000000300000000000000000000000000f0bf000000000000" +
	"e03f000000000000024003000000000000000000000000000000000000000000" +
	"f83f000000000000e83fa811375d899640ee"

var goldenState = State{
	Kind: NameAdaptiveP, Cur: 3, LastAdapt: 17,
	LastSeen: []float64{-1, 0.5, 2.25}, Gap: []float64{0, 1.5, 0.75},
}

// TestStateGolden pins the policy-state blob's byte layout (it rides the
// controller snapshot across failover) in both directions.
func TestStateGolden(t *testing.T) {
	if got := hex.EncodeToString(EncodeState(goldenState)); got != stateGoldenV1 {
		t.Fatalf("policy state bytes changed:\n got %s\nwant %s", got, stateGoldenV1)
	}
	blob, _ := hex.DecodeString(stateGoldenV1)
	st, err := DecodeState(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st, goldenState) {
		t.Fatalf("decoded %+v, want %+v", st, goldenState)
	}
}
