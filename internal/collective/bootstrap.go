package collective

import (
	"fmt"

	"partialreduce/internal/transport"
)

// Bootstrap is the elastic scale-out transfer: a joining rank fetches the
// freshest checkpointed model from a live donor over the transport before
// it signals ready for its first group. It is a two-frame point-to-point
// protocol under the standard collective tag scheme (phase 7, unused by the
// ring ops): a header frame carrying the donor's iteration/step counters
// and payload sizes, then the concatenated parameter and velocity vectors.
// Counters and lengths ride as float64s — exact for any value below 2⁵³,
// far beyond any iteration count or model size the transport accepts.

// phaseBootstrap extends the phase space (the ring's phases sit below it;
// 7 is the last value that fits the 3-bit phase field).
const phaseBootstrap = 7

const (
	bootstrapStepHeader  = 0
	bootstrapStepPayload = 1
	bootstrapHeaderLen   = 4 // iter, step, nParams, nVelocity
)

// BootstrapState is the model state a donor serves and a joiner installs.
type BootstrapState struct {
	// Params is the flat parameter vector.
	Params []float64
	// Velocity is the optimizer momentum buffer; empty for stateless
	// optimizers (the joiner then starts with zero momentum).
	Velocity []float64
	// Iter is the donor's iteration counter at checkpoint time; the joiner
	// resumes from it.
	Iter int
	// Step is the donor's optimizer update counter (LR schedules).
	Step int
}

// BootstrapSend transfers state to the joining rank. The donor calls it
// when the runtime picks it as the join donor; opID must match the
// joiner's BootstrapRecv.
func BootstrapSend(t transport.Transport, joiner int, opID uint32, state BootstrapState, opt Options) error {
	if len(state.Params) == 0 {
		return fmt.Errorf("collective: bootstrap: empty parameter vector")
	}
	if len(state.Velocity) != 0 && len(state.Velocity) != len(state.Params) {
		return fmt.Errorf("collective: bootstrap: velocity length %d != params length %d",
			len(state.Velocity), len(state.Params))
	}
	hdr := [bootstrapHeaderLen]float64{
		float64(state.Iter), float64(state.Step),
		float64(len(state.Params)), float64(len(state.Velocity)),
	}
	if err := t.Send(joiner, tag(opID, phaseBootstrap, bootstrapStepHeader), hdr[:]); err != nil {
		return err
	}
	body := make([]float64, 0, len(state.Params)+len(state.Velocity))
	body = append(body, state.Params...)
	body = append(body, state.Velocity...)
	if err := t.Send(joiner, tag(opID, phaseBootstrap, bootstrapStepPayload), body); err != nil {
		return err
	}
	if opt.Stats != nil {
		opt.Stats.Ops++
		opt.Stats.BytesSent += int64(8 * (bootstrapHeaderLen + len(body)))
	}
	return nil
}

// BootstrapRecv receives a donor's model state. The joiner blocks until
// the transfer lands or Options.Timeout expires (zero waits forever); on
// timeout the caller typically picks another donor and retries with a
// fresh opID.
func BootstrapRecv(t transport.Transport, donor int, opID uint32, opt Options) (BootstrapState, error) {
	var st BootstrapState
	hdr := make([]float64, bootstrapHeaderLen)
	n, err := t.RecvIntoTimeout(donor, tag(opID, phaseBootstrap, bootstrapStepHeader), hdr, opt.Timeout)
	if err != nil {
		return st, err
	}
	if n != bootstrapHeaderLen {
		return st, fmt.Errorf("collective: bootstrap header %d elems, want %d", n, bootstrapHeaderLen)
	}
	nParams, nVel := int(hdr[2]), int(hdr[3])
	if nParams <= 0 || nParams > transport.DefaultMaxFrameElems || nVel < 0 || (nVel != 0 && nVel != nParams) {
		return st, fmt.Errorf("collective: bootstrap header sizes %d/%d implausible", nParams, nVel)
	}
	body := make([]float64, nParams+nVel)
	n, err = t.RecvIntoTimeout(donor, tag(opID, phaseBootstrap, bootstrapStepPayload), body, opt.Timeout)
	if err != nil {
		return st, err
	}
	if n != len(body) {
		return st, fmt.Errorf("collective: bootstrap payload %d elems, want %d", n, len(body))
	}
	st = BootstrapState{
		Params:   body[:nParams:nParams],
		Velocity: body[nParams:],
		Iter:     int(hdr[0]),
		Step:     int(hdr[1]),
	}
	if opt.Stats != nil {
		opt.Stats.Ops++
		opt.Stats.BytesRecv += int64(8 * (bootstrapHeaderLen + len(body)))
	}
	return st, nil
}
