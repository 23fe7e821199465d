//go:build race

package tensor

// raceEnabled keeps race builds on the Go loops, whose every access the
// detector sees; it cannot see the assembly's.
const raceEnabled = true
