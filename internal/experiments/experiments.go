// Package experiments is the single registry of runnable experiments,
// served by the one experiment CLI, cmd/repro: an experiment (id, title,
// run function, option plumbing) is declared exactly once here — the same
// consolidation the device package applies to drivers.
package experiments

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/bench"
	"repro/internal/core"
)

// Options carries the CLI knobs an experiment may honour. Zero values mean
// "use the experiment's default", so the CLI can pass its flag set
// straight through.
type Options struct {
	Quick bool
	Seed  int64

	// Fleet experiments (scalesweep).
	ReplicasMin int
	ReplicasMax int
	LBPolicy    string // round-robin | least-conns (also rr | lc)

	// Storage experiments (kvsweep).
	ValueBytes int
	ReadPct    int
	QDMax      int

	// DomStat appends the per-domain accounting table (virtual xentop) to
	// the output of experiments that boot a platform.
	DomStat bool

	// MemStats lets experiments that sample the process heap (connsweep's
	// bytes-per-connection appendix) do so. Off by default because the
	// numbers are host-dependent: default output stays byte-comparable
	// across machines and serial/parallel runs.
	MemStats bool

	// Run is how the experiment's kernels and platforms are built:
	// sharding, bridge faults, tracer and registry. It is not a
	// per-experiment knob, so it has no entry in the params table; each
	// CLI fills it from its own flags.
	Run core.RunConfig
}

// Output is one experiment's product: structured results (what -json
// serialises) plus free-form extra lines printed after them.
type Output struct {
	Results []*bench.Result
	Extra   []string
}

// Text renders the output as the CLIs print it.
func (o Output) Text() string {
	var b strings.Builder
	for _, r := range o.Results {
		b.WriteString(r.Format())
	}
	for _, l := range o.Extra {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	return b.String()
}

// Experiment is one registered experiment. Run must be deterministic for a
// fixed Options value. Params names the declared knobs (see params.go)
// the experiment honours beyond ignoring them — the CLIs print them in
// their listings, so usage is self-describing.
type Experiment struct {
	ID     string
	Title  string
	Params []string
	Run    func(Options) (Output, error)
}

var registry []Experiment

// Register adds an experiment at init time; duplicate ids and undeclared
// parameter names panic.
func Register(e Experiment) {
	for _, x := range registry {
		if x.ID == e.ID {
			panic(fmt.Sprintf("experiments: duplicate id %q", e.ID))
		}
	}
	for _, p := range e.Params {
		if !knownParam(p) {
			panic(fmt.Sprintf("experiments: %s names unknown param %q", e.ID, p))
		}
	}
	registry = append(registry, e)
}

// ListLine renders one experiment for a CLI listing: id, title and the
// knobs it honours.
func (e Experiment) ListLine() string {
	s := fmt.Sprintf("%-10s %s", e.ID, e.Title)
	if len(e.Params) > 0 {
		s += fmt.Sprintf("  [-%s]", strings.Join(e.Params, " -"))
	}
	return s
}

// All returns the experiments in registration order.
func All() []Experiment { return append([]Experiment(nil), registry...) }

// Get finds an experiment by id.
func Get(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// IDs returns every registered id, sorted.
func IDs() []string {
	var ids []string
	for _, e := range registry {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return ids
}
