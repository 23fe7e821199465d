package policy

// Policy-state codec: the serialized form a policy's state takes inside
// the controller snapshot, in the same envelope and primitives as the
// snapshot itself (internal/binfmt) and canonical (decode ∘ encode is the
// identity on valid blobs — FuzzPolicyStateCodec pins this). State is a
// policy-neutral bag: every shipped policy round-trips through it, and a
// restored controller can hold the blob until a Policy is attached without
// knowing its shape.

import (
	"fmt"

	"partialreduce/internal/binfmt"
)

// stateMagic identifies a policy-state blob ("PRPS").
const stateMagic uint32 = 0x50525053

// stateVersion is the current encoding version.
const stateVersion uint32 = 1

// maxStateLen bounds decoded lengths against corrupt headers.
const maxStateLen = 1 << 20

// State is the policy-neutral serialized state. Static and
// straggler-bias are stateless (Kind only); adaptive-p carries its
// group-size controller and per-worker cadence estimates.
type State struct {
	Kind      string
	Cur       int
	LastAdapt int
	LastSeen  []float64
	Gap       []float64
}

// validateFor checks a decoded state against the owning policy's
// identity and worker count. Empty vectors are accepted as "no cadence
// data" (a fresh policy's snapshot).
func (st State) validateFor(kind string, n int) error {
	if st.Kind != kind {
		return fmt.Errorf("policy: state blob is for %q, want %q", st.Kind, kind)
	}
	if len(st.LastSeen) != 0 && len(st.LastSeen) != n {
		return fmt.Errorf("policy: state has %d cadence slots, want %d", len(st.LastSeen), n)
	}
	if len(st.Gap) != len(st.LastSeen) {
		return fmt.Errorf("policy: state gap/lastSeen length mismatch (%d vs %d)", len(st.Gap), len(st.LastSeen))
	}
	return nil
}

// EncodeState serializes st. Equal states produce byte-identical blobs.
func EncodeState(st State) []byte {
	w := binfmt.NewWriter(stateMagic, stateVersion, 64+16*len(st.LastSeen))
	w.Bytes([]byte(st.Kind))
	w.I64(st.Cur)
	w.I64(st.LastAdapt)
	w.Floats(st.LastSeen)
	w.Floats(st.Gap)
	return w.Seal()
}

// DecodeState parses a blob produced by EncodeState, verifying the CRC,
// magic, version, and length sanity. It never panics on corrupt input.
func DecodeState(blob []byte) (State, error) {
	r, err := binfmt.Open("policy: state blob", blob, stateMagic, stateVersion)
	if err != nil {
		return State{}, err
	}
	st := State{
		Kind:      string(r.Bytes(maxStateLen)),
		Cur:       r.I64(),
		LastAdapt: r.I64(),
		LastSeen:  r.Floats(maxStateLen),
		Gap:       r.Floats(maxStateLen),
	}
	if err := r.Done(); err != nil {
		return State{}, err
	}
	return st, nil
}
