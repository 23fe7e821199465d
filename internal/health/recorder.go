package health

// Recorder is the flight-recorder half of the health plane: it owns the
// capture sources (the always-on trace ring, the live instruments and the
// run config) and writes postmortem bundles atomically into its directory.
// A nil *Recorder is the disabled form — Capture is a nil-safe no-op — so
// hosts wire it unconditionally and gate on flags.

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"partialreduce/internal/metrics"
	"partialreduce/internal/trace"
)

// maxBundles bounds a recorder's lifetime captures: once reached, further
// captures are dropped so a firing storm cannot fill the disk.
const maxBundles = 32

// Recorder captures postmortem bundles into a directory.
type Recorder struct {
	mu     sync.Mutex
	dir    string
	tracer *trace.Tracer
	ins    *metrics.Instruments
	config []byte

	seq     int
	written []string
}

// NewRecorder returns a recorder writing bundles into dir, snapshotting
// tracer and ins at capture time, and embedding config (run-config
// JSON) verbatim in every bundle. dir is created on first capture.
func NewRecorder(dir string, tr *trace.Tracer, ins *metrics.Instruments, config []byte) *Recorder {
	return &Recorder{dir: dir, tracer: tr, ins: ins, config: config}
}

// slugify maps a capture reason onto a file-name-safe slug.
func slugify(reason string) string {
	out := make([]byte, 0, len(reason))
	for i := 0; i < len(reason); i++ {
		c := reason[i]
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9', c == '-':
			out = append(out, c)
		case c >= 'A' && c <= 'Z':
			out = append(out, c+'a'-'A')
		default:
			out = append(out, '-')
		}
	}
	if len(out) == 0 {
		return "capture"
	}
	return string(out)
}

// Capture writes one postmortem bundle directory for reason at clock time
// at, carrying breaches and st, and returns its path. The bundle snapshots
// the recorder's trace ring, instruments and config at this moment. Writes
// are atomic: the parts go into a temporary directory, which is then
// renamed. Once maxBundles captures have been written, further captures are
// dropped and return ("", nil). Nil-safe: a nil recorder returns ("", nil).
func (r *Recorder) Capture(reason string, at float64, breaches []Breach, st State) (string, error) {
	if r == nil {
		return "", nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.seq >= maxBundles {
		return "", nil
	}
	b := &Bundle{
		Reason:   reason,
		At:       at,
		Breaches: breaches,
		State:    st,
		Snap:     r.ins.Snapshot(),
		Events:   r.tracer.Events(),
		Dropped:  r.tracer.Dropped(), // after Events: never understates
		Config:   r.config,
	}
	name := fmt.Sprintf("postmortem-%03d-%s", r.seq, slugify(reason))
	if err := os.MkdirAll(r.dir, 0755); err != nil {
		return "", fmt.Errorf("health: recorder dir: %w", err)
	}
	path := filepath.Join(r.dir, name)
	tmp, err := os.MkdirTemp(r.dir, ".tmp-postmortem-*")
	if err != nil {
		return "", fmt.Errorf("health: recorder temp: %w", err)
	}
	werr := WriteBundle(tmp, b)
	if werr == nil {
		werr = os.Rename(tmp, path)
	}
	if werr != nil {
		os.RemoveAll(tmp)
		return "", fmt.Errorf("health: capture %s: %w", name, werr)
	}
	r.seq++
	r.written = append(r.written, path)
	return path, nil
}

// Written returns the paths of every bundle captured so far (oldest
// first). Nil-safe.
func (r *Recorder) Written() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, len(r.written))
	copy(out, r.written)
	return out
}
