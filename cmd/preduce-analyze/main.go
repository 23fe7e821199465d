// Command preduce-analyze is the one reader for every artifact the
// runtime writes. Each argument is read by its kind:
//
//	*.jsonl  a trace: every .jsonl argument (one sim trace, or per-rank
//	         live traces) is merged onto one aligned timeline, and the
//	         critical-path / blame analysis is printed as a report
//	*.json   a Chrome trace export: schema-checked (trace.ValidateChrome),
//	         printing "ok (N events)"
//	DIR      a postmortem bundle when DIR holds a manifest.json: every
//	         part checked against the manifest's sizes and CRCs, then
//	         rendered (manifest, breaches, watchdog rules, scoreboard, run
//	         config), and its trace ring analysed like a .jsonl file;
//	         any other directory: every postmortem-* bundle inside, in name
//	         (capture) order
//
//	preduce-analyze [flags] file|dir ...
//
// Flags:
//
//	-top N        groups shown in the "top groups" tables (default 10)
//	-csv DIR      also write iters.csv, groups.csv, blame.csv of the
//	              merged .jsonl timeline to DIR
//	-chrome FILE  also export the merged .jsonl timeline as a Chrome trace
//	-validate     run the merged-timeline structural checks and fail on
//	              violation
//	-slack SEC    clock-error slack for -validate (default 0.005)
//
// Any unreadable argument fails the run: a bad .json, a bundle whose parts
// do not check out against its manifest. Output is deterministic: identical
// input bytes produce identical output bytes.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"partialreduce/internal/analyze"
	"partialreduce/internal/health"
	"partialreduce/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "preduce-analyze:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("preduce-analyze", flag.ContinueOnError)
	top := fs.Int("top", 10, "groups shown in the top-groups tables")
	csvDir := fs.String("csv", "", "directory to write iters/groups/blame CSVs of the merged .jsonl timeline (created if missing)")
	chrome := fs.String("chrome", "", "write the merged .jsonl timeline as a Chrome trace to this file")
	validate := fs.Bool("validate", false, "run merged-timeline structural checks and fail on violation")
	slack := fs.Float64("slack", 0, "clock-error slack in seconds for -validate (default 0.005)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("usage: preduce-analyze [flags] trace.jsonl|chrome.json|bundle-dir|dir ...")
	}

	var tracks []analyze.RankTrace
	var bundles []string
	for _, path := range fs.Args() {
		info, err := os.Stat(path)
		switch {
		case err != nil:
			return err
		case info.IsDir():
			if _, err := os.Stat(filepath.Join(path, health.PartManifest)); err == nil {
				bundles = append(bundles, path)
				continue
			}
			matches, err := filepath.Glob(filepath.Join(path, "postmortem-*"))
			if err != nil {
				return err
			}
			if len(matches) == 0 {
				return fmt.Errorf("%s: no postmortem-* bundles", path)
			}
			slices.Sort(matches) // the recorder numbers bundles: name order is capture order
			bundles = append(bundles, matches...)
		case strings.HasSuffix(path, ".jsonl"):
			t, err := analyze.ReadTraceFile(path)
			if err != nil {
				return err
			}
			tracks = append(tracks, t)
		case strings.HasSuffix(path, ".json"):
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			n, err := trace.ValidateChrome(data)
			if err != nil {
				return fmt.Errorf("%s: %w", path, err)
			}
			fmt.Fprintf(stdout, "%s: ok (%d events)\n", path, n)
		default:
			return fmt.Errorf("%s: not a .jsonl trace, .json Chrome trace or bundle directory", path)
		}
	}

	if len(tracks) > 0 {
		report, err := analyse(stdout, tracks, *top, *validate, *slack)
		if err != nil {
			return err
		}
		if err := writeExports(report, *csvDir, *chrome); err != nil {
			return err
		}
	}
	for _, path := range bundles {
		if err := renderBundle(stdout, path, *top); err != nil {
			return err
		}
	}
	return nil
}

// analyse is the one path a trace takes, from a file or a bundle: merge
// onto one timeline, optionally validate it, analyse, write the report.
func analyse(w io.Writer, tracks []analyze.RankTrace, top int, validate bool, slack float64) (*analyze.Report, error) {
	m, err := analyze.Merge(tracks)
	if err != nil {
		return nil, err
	}
	if validate {
		if _, err := analyze.ValidateMerged(m, slack); err != nil {
			return nil, err
		}
	}
	report, err := analyze.Analyze(m)
	if err != nil {
		return nil, err
	}
	return report, analyze.WriteReport(w, report, top)
}

// writeExports writes the merged timeline's CSVs and Chrome export when
// their flags ask for them.
func writeExports(report *analyze.Report, csvDir, chrome string) error {
	if csvDir != "" {
		if err := os.MkdirAll(csvDir, 0o755); err != nil {
			return err
		}
		for _, f := range []struct {
			name  string
			write func(*os.File) error
		}{
			{"iters.csv", func(f *os.File) error { return analyze.WriteIterCSV(f, report) }},
			{"groups.csv", func(f *os.File) error { return analyze.WriteGroupCSV(f, report) }},
			{"blame.csv", func(f *os.File) error { return analyze.WriteBlameCSV(f, report) }},
		} {
			if err := writeFile(filepath.Join(csvDir, f.name), f.write); err != nil {
				return err
			}
		}
	}
	if chrome != "" {
		return writeFile(chrome, func(f *os.File) error { return trace.WriteChrome(f, report.Merged.Events) })
	}
	return nil
}

// renderBundle prints one validated postmortem bundle: the manifest, the
// breaches and rule table from watchdog.json, the scoreboard, the run
// config, and the blame report of its trace ring.
func renderBundle(w io.Writer, path string, top int) error {
	man, parts, ring, err := analyze.ReadBundle(path)
	if err != nil {
		return err
	}
	rules := strings.Join(man.Rules, ",")
	if rules == "" {
		rules = "(none)"
	}
	fmt.Fprintf(w, "\npostmortem bundle %s\n", path)
	fmt.Fprintf(w, "  version %d  reason %s  at %.3fs  rules %s\n", man.Version, man.Reason, man.At, rules)
	for _, pi := range man.Parts {
		fmt.Fprintf(w, "  part %-15s %7d bytes  crc32 %08x\n", pi.Name, pi.Size, pi.CRC32)
	}

	var wp health.WatchdogPart
	if err := json.Unmarshal(parts[health.PartWatchdog], &wp); err != nil {
		return fmt.Errorf("%s: parse %s: %w", path, health.PartWatchdog, err)
	}
	if len(wp.Breaches) > 0 {
		fmt.Fprintln(w, "\nbreaches:")
		for _, b := range wp.Breaches {
			fmt.Fprintf(w, "  %-18s value %.3f >= threshold %.3f at %.3fs (eval #%d)\n",
				b.Rule, b.Value, b.Threshold, b.At, b.Seq)
		}
	}
	fmt.Fprintf(w, "\nwatchdog state (%d evaluations, last at %.3fs):\n", wp.State.Evals, wp.State.LastEvalAt)
	fmt.Fprintf(w, "  %-18s %-8s %-7s %10s %10s %6s\n", "rule", "enabled", "firing", "value", "threshold", "fires")
	for _, rs := range wp.State.Rules {
		fmt.Fprintf(w, "  %-18s %-8t %-7t %10.3f %10.3f %6d\n",
			rs.Rule, rs.Enabled, rs.Firing, rs.Value, rs.Threshold, rs.Fires)
	}

	fmt.Fprintln(w)
	indent(w, strings.TrimRight(string(parts[health.PartScoreboard]), "\n"))
	if cfg := strings.TrimSpace(string(parts[health.PartConfig])); cfg != "" && cfg != "{}" {
		fmt.Fprintln(w, "\nrun config:")
		indent(w, cfg)
	}

	if len(ring.Events) == 0 {
		fmt.Fprintln(w, "\n(no trace events in the ring; no blame report)")
		return nil
	}
	fmt.Fprintln(w)
	_, err = analyse(w, []analyze.RankTrace{ring}, top, false, 0)
	return err
}

func indent(w io.Writer, text string) {
	for _, line := range strings.Split(text, "\n") {
		fmt.Fprintln(w, "  "+line)
	}
}

func writeFile(path string, write func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
