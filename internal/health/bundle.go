package health

// Postmortem bundle format: one directory of deterministic parts, indexed
// by a manifest that carries each part's size and CRC32. Parts are
// rendered in a fixed order by deterministic writers, so the same capture
// inputs produce byte-identical part files.
//
// Files, manifest first:
//
//	manifest.json   version, reason, firing rules, part index with CRC32s
//	watchdog.json   the breaches that triggered capture + full rule state
//	metrics.prom    the instruments snapshot, as /metrics renders it
//	scoreboard.txt  the straggler scoreboard, as -scoreboard prints it
//	trace.jsonl     the flight-recorder ring, trace.WriteJSONL format
//	config.json     host-supplied run config (verbatim; "{}" when absent)
//
// Version 2 dropped version 1's controller.bin and version 3 replaced
// version 2's metrics.json and scoreboard.csv with the renderings above:
// none of the dropped schemas had a reader. ReadBundle refuses an older
// bundle by its version.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"partialreduce/internal/metrics"
	"partialreduce/internal/trace"
)

// BundleVersion is the manifest schema version this package writes.
const BundleVersion = 3

// Part names, in manifest order (the manifest itself first).
const (
	PartManifest   = "manifest.json"
	PartWatchdog   = "watchdog.json"
	PartMetrics    = "metrics.prom"
	PartScoreboard = "scoreboard.txt"
	PartTrace      = "trace.jsonl"
	PartConfig     = "config.json"
)

// partOrder is the order of the non-manifest parts.
var partOrder = []string{PartWatchdog, PartMetrics, PartScoreboard, PartTrace, PartConfig}

// PartInfo is one part's manifest entry.
type PartInfo struct {
	Name  string `json:"name"`
	Size  int64  `json:"size"`
	CRC32 uint32 `json:"crc32"` // IEEE
}

// Manifest indexes a bundle: schema version, why and when it was
// captured, which rules were involved, and the CRC-guarded part list.
type Manifest struct {
	Version int        `json:"version"`
	Reason  string     `json:"reason"`
	At      float64    `json:"at"`
	Rules   []string   `json:"rules"`
	Parts   []PartInfo `json:"parts"`
}

// WatchdogPart is the watchdog.json schema: the breaches that triggered
// this capture plus the full rule state at capture time.
type WatchdogPart struct {
	Reason   string        `json:"reason"`
	At       float64       `json:"at"`
	Breaches []BreachEntry `json:"breaches"`
	State    State         `json:"state"`
}

// BreachEntry is a Breach with its rule rendered as the stable slug.
type BreachEntry struct {
	Rule      string  `json:"rule"`
	Value     float64 `json:"value"`
	Threshold float64 `json:"threshold"`
	At        float64 `json:"at"`
	Seq       uint64  `json:"seq"`
}

// Bundle is the in-memory form of one postmortem capture, ready to be
// written by WriteBundle.
type Bundle struct {
	Reason   string
	At       float64
	Breaches []Breach
	State    State
	Snap     *metrics.InstrumentsSnapshot
	Events   []trace.Event
	Dropped  uint64 // events the ring overwrote before Events[0]
	Config   []byte // run config JSON, verbatim; nil renders as "{}"
}

// parts renders every non-manifest part in partOrder.
func (b *Bundle) parts() (names []string, blobs [][]byte, err error) {
	snap := b.Snap
	if snap == nil {
		snap = (*metrics.Instruments)(nil).Snapshot()
	}
	entries := make([]BreachEntry, 0, len(b.Breaches))
	for _, br := range b.Breaches {
		entries = append(entries, BreachEntry{
			Rule: br.Rule.String(), Value: br.Value, Threshold: br.Threshold, At: br.At, Seq: br.Seq,
		})
	}
	wd, err := json.Marshal(WatchdogPart{Reason: b.Reason, At: b.At, Breaches: entries, State: b.State})
	if err != nil {
		return nil, nil, err
	}
	var prom, board, tb bytes.Buffer
	if err := metrics.WritePrometheus(&prom, snap); err != nil {
		return nil, nil, err
	}
	if err := metrics.WriteScoreboard(&board, snap); err != nil {
		return nil, nil, err
	}
	if err := trace.WriteJSONL(&tb, b.Events, b.Dropped); err != nil {
		return nil, nil, err
	}
	cfg := b.Config
	if len(cfg) == 0 {
		cfg = []byte("{}")
	}
	return partOrder, [][]byte{wd, prom.Bytes(), board.Bytes(), tb.Bytes(), cfg}, nil
}

// WriteBundle writes b into the existing directory dir: the manifest and
// one file per part.
func WriteBundle(dir string, b *Bundle) error {
	names, blobs, err := b.parts()
	if err != nil {
		return fmt.Errorf("health: render bundle: %w", err)
	}
	man := &Manifest{Version: BundleVersion, Reason: b.Reason, At: b.At}
	for _, br := range b.Breaches {
		man.Rules = append(man.Rules, br.Rule.String())
	}
	for i, name := range names {
		man.Parts = append(man.Parts, PartInfo{
			Name: name, Size: int64(len(blobs[i])), CRC32: crc32.ChecksumIEEE(blobs[i]),
		})
	}
	manJSON, err := json.Marshal(man)
	if err != nil {
		return fmt.Errorf("health: render manifest: %w", err)
	}
	names, blobs = append([]string{PartManifest}, names...), append([][]byte{manJSON}, blobs...)
	for i, name := range names {
		if err := os.WriteFile(filepath.Join(dir, name), blobs[i], 0o644); err != nil {
			return fmt.Errorf("health: write bundle: %w", err)
		}
	}
	return nil
}

// ReadBundle reads the bundle in directory dir and checks it in full: the
// schema version, the exact part list, every part's size and CRC32 against
// the manifest, and no file the manifest does not list. It returns the
// manifest and every part's bytes.
func ReadBundle(dir string) (*Manifest, map[string][]byte, error) {
	manJSON, err := os.ReadFile(filepath.Join(dir, PartManifest))
	if err != nil {
		return nil, nil, fmt.Errorf("health: read bundle: %w", err)
	}
	man := &Manifest{}
	if err := json.Unmarshal(manJSON, man); err != nil {
		return nil, nil, fmt.Errorf("health: parse manifest: %w", err)
	}
	if man.Version != BundleVersion {
		return nil, nil, fmt.Errorf("health: bundle version %d, want %d", man.Version, BundleVersion)
	}
	if len(man.Parts) != len(partOrder) {
		return nil, nil, fmt.Errorf("health: manifest lists %d parts, want %d", len(man.Parts), len(partOrder))
	}
	parts := make(map[string][]byte, len(partOrder))
	for i, want := range partOrder {
		pi := man.Parts[i]
		if pi.Name != want {
			return nil, nil, fmt.Errorf("health: manifest part %d is %s, want %s", i, pi.Name, want)
		}
		blob, err := os.ReadFile(filepath.Join(dir, pi.Name))
		if err != nil {
			return nil, nil, fmt.Errorf("health: bundle part %s: %w", pi.Name, err)
		}
		if int64(len(blob)) != pi.Size {
			return nil, nil, fmt.Errorf("health: part %s is %d bytes, manifest says %d", pi.Name, len(blob), pi.Size)
		}
		if crc := crc32.ChecksumIEEE(blob); crc != pi.CRC32 {
			return nil, nil, fmt.Errorf("health: part %s CRC32 %08x, manifest says %08x", pi.Name, crc, pi.CRC32)
		}
		parts[pi.Name] = blob
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("health: read bundle: %w", err)
	}
	for _, f := range files {
		if _, listed := parts[f.Name()]; !listed && f.Name() != PartManifest {
			return nil, nil, fmt.Errorf("health: bundle holds %s, which the manifest does not list", f.Name())
		}
	}
	return man, parts, nil
}
