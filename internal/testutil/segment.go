package testutil

import "partialreduce/internal/transport"

// Segmented is an endpoint whose rings move Elems-element segments and whose
// frames hold Elems elements, so a test reaches the segmented ring and the
// exchange bound with a small tensor. Everything else is the wrapped
// endpoint's.
type Segmented struct {
	transport.Transport
	Elems int
}

// SegmentElems implements transport.Transport.
func (s Segmented) SegmentElems(int) int { return s.Elems }

// FrameElems implements transport.Transport.
func (s Segmented) FrameElems() int { return s.Elems }
