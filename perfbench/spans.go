package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"slices"
	"sort"

	"repro/internal/sim"
)

// span is one virtual-time interval the benchmark recorded around a call into
// a layer. parent is the causing span's index+1 in the same log (0 for a
// root); trace groups the spans of one session or operation.
type span struct {
	name       string
	parent     int
	trace      int
	start, end sim.Time
}

// spanLog is one guest's span buffer. Each load generator or appliance
// owns its own, so a sharded drive never shares one between OS threads.
// A nil log records nothing: untraced repetitions pay one nil check.
type spanLog struct {
	spans []span
}

// begin opens a span and returns its handle (0 on a nil log).
func (l *spanLog) begin(name string, parent, trace int, at sim.Time) int {
	if l == nil {
		return 0
	}
	l.spans = append(l.spans, span{name: name, parent: parent, trace: trace, start: at, end: -1})
	return len(l.spans)
}

// end closes the span with handle h.
func (l *spanLog) end(h int, at sim.Time) {
	if l == nil || h == 0 {
		return
	}
	l.spans[h-1].end = at
}

// layerRun is what one traced repetition records: span logs kept in
// memory until the run ends, and a CPU profile of the timed phase. Span
// queries see only spans opened in the timed phase (from on).
type layerRun struct {
	logs    []*spanLog
	profile bytes.Buffer
	from    sim.Time
}

// timed reports whether s is a closed span of the timed phase.
func (lr *layerRun) timed(s span) bool { return s.end >= 0 && s.start >= lr.from }

func newLayerRun() *layerRun { return &layerRun{} }

// addLog registers a guest's span log once the repetition has finished
// (logs are kept in deployment order).
func (lr *layerRun) addLog(l *spanLog) { lr.logs = append(lr.logs, l) }

func (lr *layerRun) startProfile() error {
	lr.profile.Reset()
	if err := pprof.StartCPUProfile(&lr.profile); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	return nil
}

func (lr *layerRun) stopProfile() { pprof.StopCPUProfile() }

// durations returns the closed spans named name, as sorted durations in
// microseconds.
func (lr *layerRun) durations(name string) []float64 {
	var out []float64
	for _, l := range lr.logs {
		for _, s := range l.spans {
			if s.name == name && lr.timed(s) {
				out = append(out, float64(s.end-s.start)/1e3)
			}
		}
	}
	sort.Float64s(out)
	return out
}

// interval is a half-open virtual-time range.
type interval struct{ start, end sim.Time }

// union merges the timed-phase spans with any of names into disjoint
// sorted intervals.
func (lr *layerRun) union(names ...string) []interval {
	var iv []interval
	for _, l := range lr.logs {
		for _, s := range l.spans {
			if lr.timed(s) && slices.Contains(names, s.name) {
				iv = append(iv, interval{s.start, s.end})
			}
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i].start < iv[j].start })
	var out []interval
	for _, x := range iv {
		if n := len(out); n > 0 && x.start <= out[n-1].end {
			if x.end > out[n-1].end {
				out[n-1].end = x.end
			}
			continue
		}
		out = append(out, x)
	}
	return out
}

// busy is the total length of a disjoint interval set, in seconds.
func busy(iv []interval) float64 {
	var t sim.Time
	for _, x := range iv {
		t += x.end - x.start
	}
	return float64(t) / 1e9
}

// covered is how much of [start,end) the disjoint sorted set iv covers.
func covered(iv []interval, start, end sim.Time) sim.Time {
	i := sort.Search(len(iv), func(i int) bool { return iv[i].end > start })
	var t sim.Time
	for ; i < len(iv) && iv[i].start < end; i++ {
		lo, hi := iv[i].start, iv[i].end
		if lo < start {
			lo = start
		}
		if hi > end {
			hi = end
		}
		t += hi - lo
	}
	return t
}

// selfTimes returns, sorted and in microseconds, each span named name
// minus the part of its interval covered by the spans named child. Child
// spans need not be causal children: a group-committed device write serves
// every Set waiting on it, so it counts against each of them.
func (lr *layerRun) selfTimes(name, child string) []float64 {
	iv := lr.union(child)
	var out []float64
	for _, l := range lr.logs {
		for _, s := range l.spans {
			if s.name == name && lr.timed(s) {
				out = append(out, float64(s.end-s.start-covered(iv, s.start, s.end))/1e3)
			}
		}
	}
	sort.Float64s(out)
	return out
}

// write stores the repetition's spans (one JSON object a line) and CPU
// profile (readable with go tool pprof) under dir.
func (lr *layerRun) write(dir, workload string, seed int64, index int) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d-rep%d", workload, seed, index))
	if err := os.WriteFile(base+".cpu.pprof", lr.profile.Bytes(), 0o644); err != nil {
		return err
	}
	f, err := os.Create(base + ".spans.jsonl")
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for li, l := range lr.logs {
		for si, s := range l.spans {
			fmt.Fprintf(w, "{\"log\":%d,\"id\":%d,\"parent\":%d,\"trace\":%d,\"name\":%q,\"start_ns\":%d,\"end_ns\":%d}\n",
				li, si+1, s.parent, s.trace, s.name, s.start, s.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
