package controller

// Read-only introspection accessors. The tracer and the telemetry
// endpoint (and tests) read controller state through these instead of
// reaching into fields; none of them mutate the controller, and all are
// O(1) except the contact-age scan, which is O(N²) and intended for
// sampling, not hot paths.

// QueueDepth returns the number of waiting ready signals — the quantity
// the controller's KReady trace events and queue-depth time series
// report.
func (c *Controller) QueueDepth() int { return len(c.queue) }

// MaxContactAge returns the contact age of the most estranged alive
// pair: the maximum over alive pairs (i,j) of groups formed since i and
// j last synced. It returns -1 when some alive pair has never met (the
// cold-start state, and the state after a partition outlives the
// window), and 0 when fewer than two workers are alive. This is the
// scalar the sync-graph connectivity gauge exports: the paper's
// group-frozen avoidance exists precisely to bound it.
func (c *Controller) MaxContactAge() int {
	seq := c.stats.GroupsFormed
	maxAge := 0
	for i := 0; i < c.cfg.N; i++ {
		if !c.alive[i] {
			continue
		}
		for j := i + 1; j < c.cfg.N; j++ {
			if !c.alive[j] {
				continue
			}
			last := c.lastTog[i][j]
			if last < 0 {
				return -1
			}
			if age := seq - last; age > maxAge {
				maxAge = age
			}
		}
	}
	return maxAge
}
