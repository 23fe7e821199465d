package experiments

import (
	"fmt"
	"io"
	"strings"

	"partialreduce/internal/metrics"
)

// Report is what an experiment produces: it renders itself in the paper's
// layout. A report with plot-ready data also implements Exporter.
type Report interface {
	Format(w io.Writer)
}

// Export is one CSV of a report: accuracy curves, or else one summary row
// per result, in printed order. The file is named after the experiment —
// "<id>.csv", or "<id>-<i>.csv" when the report has several — so two
// experiments cannot claim one file.
type Export struct {
	Curves  bool
	Results []*metrics.Result
}

// Exporter is implemented by reports that have CSV exports.
type Exporter interface {
	Exports() []Export
}

// Panels is a multi-panel figure: one report per panel, rendered and
// exported in order.
type Panels[R Report] []R

// Format renders every panel.
func (ps Panels[R]) Format(w io.Writer) {
	for _, p := range ps {
		p.Format(w)
	}
}

// Exports collects the panels' exports (none when the panels have none).
func (ps Panels[R]) Exports() []Export {
	var out []Export
	for _, p := range ps {
		if ex, ok := Report(p).(Exporter); ok {
			out = append(out, ex.Exports()...)
		}
	}
	return out
}

// Experiment is one table, figure or sweep of the evaluation.
type Experiment struct {
	ID  string
	Run func(Options) (Report, error)
}

// Registry lists every experiment, in the order "all" runs them. The sweep
// sizes (seed counts, crash rates, partition lengths) are the evaluation's,
// fixed here.
var Registry = []Experiment{
	{"fig4", func(o Options) (Report, error) { return Fig4(o) }},
	{"table1", func(o Options) (Report, error) { return Table1(o) }},
	{"fig7a", func(o Options) (Report, error) { return Fig7a(o) }},
	{"fig7b", func(o Options) (Report, error) { return Fig7b(o) }},
	{"fig8", func(o Options) (Report, error) { return Fig8(o) }},
	{"fig9", func(o Options) (Report, error) { return Fig9(o) }},
	{"fig10", func(o Options) (Report, error) { return Fig10(o) }},
	{"fig11", func(o Options) (Report, error) { return Fig11(o) }},
	{"geo", func(o Options) (Report, error) { return GeoStudy(o) }},
	{"seeds", func(o Options) (Report, error) { return Robustness(o, 5) }},
	{"crash", func(o Options) (Report, error) { return RobustnessCrash(o, []float64{0, 0.15, 0.3, 0.45}) }},
	{"partition", func(o Options) (Report, error) { return RobustnessPartition(o, []float64{0, 4, 12}) }},
	{"adaptive", func(o Options) (Report, error) { return RobustnessAdaptive(o, 6) }},
	{"elastic", func(o Options) (Report, error) { return RobustnessElastic(o) }},
	{"ablations", func(o Options) (Report, error) { return Ablations(o) }},
}

// IDs returns the registry's experiment IDs in order.
func IDs() []string {
	ids := make([]string, len(Registry))
	for i, e := range Registry {
		ids[i] = e.ID
	}
	return ids
}

// Select resolves an experiment ID: "all" is the whole registry in order.
func Select(id string) ([]Experiment, error) {
	if id == "all" {
		return Registry, nil
	}
	for _, e := range Registry {
		if e.ID == id {
			return []Experiment{e}, nil
		}
	}
	return nil, fmt.Errorf("unknown experiment %q (valid: %s, all)", id, strings.Join(IDs(), ", "))
}
