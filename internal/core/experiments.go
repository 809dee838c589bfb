package core

import "io"

// Result is what every experiment produces: a rendered table, the
// headline quantities that summarise it and a CSV dump of the full
// dataset. Results of figures that are curves also have a Plot method
// returning an ASCII chart.
type Result interface {
	// Table renders the dataset as aligned text.
	Table() string
	// Headlines reduces the dataset to the few numbers the paper's
	// text argues from, in a fixed order. A headline whose rows are
	// missing from the dataset, or whose denominator is not positive,
	// is left out.
	Headlines() []Headline
	// WriteCSV dumps the full dataset for external plotting.
	WriteCSV(io.Writer) error
}

// Headline is one summary quantity of an experiment: a difference of
// objectives or a ratio of throughputs or delays between two of its
// rows. IDs are unique across Experiments.
type Headline struct {
	ID    string  // what the quantity is, e.g. "narrow-minus-broad-in-range"
	Value float64 // in the units of the table it is read off
}

// appendRatio appends the headline num/den unless den is not positive.
func appendRatio(out []Headline, id string, num, den float64) []Headline {
	if den > 0 {
		out = append(out, Headline{id, num / den})
	}
	return out
}

// Experiment is one runnable study of the paper.
type Experiment struct {
	ID    string // what cmd/learnability -exp calls it
	Title string // heading printed above its table
	// Run trains what the study needs and evaluates it; log may be
	// nil.
	Run func(e Effort, log func(string, ...any)) Result
}

// runner adapts an experiment's typed entry point to Experiment.Run.
func runner[R Result](run func(Effort, func(string, ...any)) R) func(Effort, func(string, ...any)) Result {
	return func(e Effort, log func(string, ...any)) Result { return run(e, log) }
}

// Experiments lists every study in the order the paper presents them;
// cmd/learnability's usage text and -exp validation are generated
// from it.
var Experiments = []Experiment{
	{"fig1", "Calibration (Table 1 / Figure 1)", runner(RunCalibration)},
	{"fig2", "Knowledge of link speed (Table 2 / Figure 2) — normalized objective", runner(RunLinkSpeed)},
	{"fig3", "Knowledge of the degree of multiplexing (Table 3 / Figure 3)", runner(RunMultiplexing)},
	{"fig4", "Knowledge of propagation delay (Table 4 / Figure 4)", runner(RunPropDelay)},
	{"fig6", "Structural knowledge (Table 5 / Figures 5-6) — flow 1 throughput", runner(RunStructure)},
	{"fig7", "Knowledge about incumbent endpoints (Table 6 / Figure 7)", runner(RunTCPAware)},
	{"fig8", "Time-domain behavior (Figure 8)", runner(RunTimeDomain)},
	{"fig9", "The price of sender diversity (Table 7 / Figure 9)", runner(RunDiversity)},
	{"knockout", "Value of congestion signals (§3.4)", runner(RunKnockout)},
	{"vegas", "Vegas squeeze-out premise (§4.5)", runner(RunVegasSqueeze)},
	{"unified", "One-size-fits-all Tao across all axes (extension; §5 open question)", runner(RunUnified)},
}
