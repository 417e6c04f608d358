package experiments

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/netback"
	"repro/internal/obs"
)

// TestParallelExperimentsWithOwnRunConfigs runs two experiments at once in
// one process, each under its own RunConfig — a sharded layout for one, a
// lossy bridge for the other, a private registry each — and checks that
// neither sees the other's configuration: each concurrent run must print
// and count exactly what it does alone.
func TestParallelExperimentsWithOwnRunConfigs(t *testing.T) {
	type job struct {
		id  string
		run core.RunConfig
	}
	jobs := []job{
		{"scalesweep", core.RunConfig{PCPUs: 4}},
		{"fig8", core.RunConfig{Faults: netback.Faults{Drop: 0.01}}},
	}
	// run executes one job against a fresh registry and returns its output
	// text and metrics dump.
	run := func(j job) (string, string, error) {
		e, ok := Get(j.id)
		if !ok {
			t.Fatalf("experiment %q not registered", j.id)
		}
		reg := obs.NewRegistry()
		opts := Options{Quick: true, Run: j.run}
		opts.Run.Metrics = reg
		out, err := e.Run(opts)
		return out.Text(), reg.Snapshot().Format(), err
	}

	type result struct{ text, metrics string }
	solo := make([]result, len(jobs))
	for i, j := range jobs {
		text, metrics, err := run(j)
		if err != nil {
			t.Fatalf("%s solo: %v", j.id, err)
		}
		solo[i] = result{text, metrics}
	}

	both := make([]result, len(jobs))
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	for i, j := range jobs {
		wg.Add(1)
		go func(i int, j job) {
			defer wg.Done()
			both[i].text, both[i].metrics, errs[i] = run(j)
		}(i, j)
	}
	wg.Wait()

	for i, j := range jobs {
		if errs[i] != nil {
			t.Fatalf("%s concurrent: %v", j.id, errs[i])
		}
		if both[i].text != solo[i].text {
			t.Errorf("%s: output differs when run alongside another experiment:\nsolo:\n%s\nconcurrent:\n%s",
				j.id, solo[i].text, both[i].text)
		}
		if both[i].metrics != solo[i].metrics {
			t.Errorf("%s: metrics differ when run alongside another experiment", j.id)
		}
	}
}
