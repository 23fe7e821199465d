package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the summary needs.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// summarizeFile reads a repeat.sh log — one "<set> <workload> <result JSON>"
// line per run, sets A and B alternating — and prints, per workload and
// end-to-end metric, each set's median and quartiles, each set's spread
// (quartile distance over median, the driver's steadiness measure) and how
// much worse set B's median is than set A's. It returns an error when a
// median moved by more than the metric's bound, or a spread exceeds it
// (setup_s spread is exempt, as in the driver's rule).
func summarizeFile(path, boundsPath string, w io.Writer) error {
	raw, err := os.ReadFile(boundsPath)
	if err != nil {
		return err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("%s: %w", boundsPath, err)
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	values, err := readRepeatLog(f)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}

	var names []string
	for wl := range values {
		names = append(names, wl)
	}
	sort.Strings(names)

	fmt.Fprintf(w, "%-9s %-22s %3s %12s %12s %12s %7s | %12s %12s %12s %7s | %7s %6s %s\n",
		"workload", "metric", "n", "A.q1", "A.median", "A.q3", "A.iqr%", "B.q1", "B.median", "B.q3", "B.iqr%", "B-A%", "bound%", "")
	var bad []string
	for _, wl := range names {
		for _, m := range bf.EndToEnd {
			a, b := values[wl]["A"][m.Name], values[wl]["B"][m.Name]
			if len(a) == 0 || len(b) == 0 {
				bad = append(bad, fmt.Sprintf("%s/%s: no values in one set", wl, m.Name))
				continue
			}
			aq1, aq3 := quartiles(a)
			bq1, bq3 := quartiles(b)
			am, bm := median(a), median(b)
			aSpread, bSpread := (aq3-aq1)/am, (bq3-bq1)/bm
			// Positive means B is worse than A in the metric's own direction.
			worse := (am - bm) / am
			if m.Better == "lower" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case math.Abs(worse) > m.Bound:
				verdict = "FAIL median moved"
			case m.Name != "setup_s" && math.Max(aSpread, bSpread) > m.Bound:
				verdict = "FAIL spread over bound"
			case m.Name != "setup_s" && math.Max(aSpread, bSpread) > m.Bound/3:
				verdict = "wide (spread over a third of the bound)"
			}
			if strings.HasPrefix(verdict, "FAIL") {
				bad = append(bad, fmt.Sprintf("%s/%s: %s", wl, m.Name, verdict))
			}
			fmt.Fprintf(w, "%-9s %-22s %3d %12.6g %12.6g %12.6g %6.2f%% | %12.6g %12.6g %12.6g %6.2f%% | %+6.2f%% %5.0f%% %s\n",
				wl, m.Name, len(a), aq1, am, aq3, 100*aSpread, bq1, bm, bq3, 100*bSpread, 100*worse, 100*m.Bound, verdict)
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("not repeatable within bounds: %s", strings.Join(bad, "; "))
	}
	return nil
}

// readRepeatLog returns values[workload][set][metric]; runs whose result is
// not correct are an error (a repeatability table over failed runs would be
// meaningless).
func readRepeatLog(r io.Reader) (map[string]map[string]map[string][]float64, error) {
	values := map[string]map[string]map[string][]float64{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for line := 1; sc.Scan(); line++ {
		fields := strings.SplitN(strings.TrimSpace(sc.Text()), " ", 3)
		if len(fields) != 3 {
			continue
		}
		set, wl := fields[0], fields[1]
		var res result
		if err := json.Unmarshal([]byte(fields[2]), &res); err != nil {
			return nil, fmt.Errorf("line %d: %w", line, err)
		}
		if !res.Correct {
			return nil, fmt.Errorf("line %d: %s run of set %s failed %d of %d checks", line, wl, set, res.Failed, res.Attempted)
		}
		if values[wl] == nil {
			values[wl] = map[string]map[string][]float64{}
		}
		if values[wl][set] == nil {
			values[wl][set] = map[string][]float64{}
		}
		for name, mv := range res.Metrics {
			values[wl][set][name] = append(values[wl][set][name], mv.Value)
		}
	}
	return values, sc.Err()
}
