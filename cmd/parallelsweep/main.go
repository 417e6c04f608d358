// Command parallelsweep regenerates BENCH_parallel.json: the wall-clock
// record for the sharded simulation drivers plus the adaptive-lookahead
// barrier counters.
//
//	go run ./cmd/parallelsweep                  # full regen (~16 runs)
//	go run ./cmd/parallelsweep -counters-only   # refresh counters, keep walls
//
// The scalesweep experiment (-replicas-max 8) runs in-process under three
// drivers — the classic single kernel, the sharded layout single-threaded,
// and the sharded layout on OS threads — several times each, recording
// per-run and median wall seconds. Counters come from one deterministic
// sharded run with a private metrics registry, so the recorded
// sim_cluster_* values (epochs, clamped sends, elided barriers, delivery
// rounds, ...) are exactly reproducible and `benchjson -delta` can
// regression-gate them; wall times stay host-dependent and are only ever
// self-delta'd in CI.
//
// The host note is honest about the container: on a single core the
// parallel driver cannot beat the serial sharded one, so the recorded
// speedup measures coordination overhead, not parallelism.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/obs"
)

// pr7StaticEpochs is the scalesweep sim_cluster_epochs_total recorded at
// pcpus=4 under the static lookahead-W driver (pre adaptive widths), kept
// in the baseline section as the reference for the barrier-reduction claim.
const pr7StaticEpochs = 139260

type hostInfo struct {
	PhysicalCores int    `json:"physical_cores"`
	Note          string `json:"note"`
}

type doc struct {
	Experiment string               `json:"experiment"`
	Args       string               `json:"args"`
	Host       hostInfo             `json:"host"`
	Wall       map[string][]float64 `json:"wall_seconds"`
	Median     map[string]float64   `json:"median_wall_seconds"`
	Speedup    float64              `json:"speedup_parallel_vs_serial_sharded"`
	Counters   map[string]float64   `json:"counters"`
	Baseline   map[string]float64   `json:"baseline"`
}

const hostNote = "single-core container: the parallel driver cannot speed up here, so " +
	"speedup_parallel_vs_serial_sharded measures coordination overhead, not parallelism. " +
	"Adaptive epoch widths cut the barrier count ~6x and closed the gap from 0.86 (static " +
	"epochs) to ~1.0; a >=2x speedup still requires >=4 physical cores. Byte-identity " +
	"between the serial and parallel drivers holds regardless (make paritycheck)."

func main() {
	out := flag.String("out", "BENCH_parallel.json", "output JSON file")
	runs := flag.Int("runs", 4, "wall-clock runs per driver")
	replicasMax := flag.Int("replicas-max", 8, "scalesweep fleet size")
	countersOnly := flag.Bool("counters-only", false, "refresh only the deterministic counters section, preserving recorded wall times")
	flag.Parse()

	exp, ok := experiments.Get("scalesweep")
	if !ok {
		fatal(fmt.Errorf("scalesweep experiment not registered"))
	}
	opts := experiments.Options{ReplicasMax: *replicasMax}

	d := doc{
		Experiment: "scalesweep",
		Args:       fmt.Sprintf("-replicas-max %d", *replicasMax),
		Host:       hostInfo{PhysicalCores: runtime.NumCPU(), Note: hostNote},
		Wall:       map[string][]float64{},
		Median:     map[string]float64{},
		Baseline:   map[string]float64{"pr7_static_pcpus4_sim_cluster_epochs_total": pr7StaticEpochs},
	}
	if *countersOnly {
		if b, err := os.ReadFile(*out); err == nil {
			prev := doc{}
			if err := json.Unmarshal(b, &prev); err != nil {
				fatal(fmt.Errorf("parse existing %s: %w", *out, err))
			}
			d.Host = prev.Host
			d.Wall = prev.Wall
			d.Median = prev.Median
			d.Speedup = prev.Speedup
		}
	}

	// Deterministic counters: one sharded run against a private registry.
	// Same seed, same layout, single-threaded — every recorded value is
	// exactly reproducible, so benchjson -delta can gate regressions.
	registry := obs.NewRegistry()
	counted := opts
	counted.Run = core.RunConfig{PCPUs: 4, Metrics: registry}
	if _, err := exp.Run(counted); err != nil {
		fatal(fmt.Errorf("counters run: %w", err))
	}
	d.Counters = map[string]float64{}
	for _, row := range registry.Snapshot().Filter("sim_cluster_").Rows {
		switch row.Kind {
		case "counter":
			d.Counters[row.ID] = float64(row.N)
		case "gauge":
			d.Counters[row.ID] = row.F
		}
	}
	fmt.Fprintf(os.Stderr, "parallelsweep: counters (pcpus=4, adaptive):\n")
	for _, id := range sortedKeys(d.Counters) {
		fmt.Fprintf(os.Stderr, "  %-40s %12.0f\n", id, d.Counters[id])
	}

	if !*countersOnly {
		drivers := []struct {
			name     string
			pcpus    int
			parallel bool
		}{
			{"pcpus1_serial_legacy", 1, false},
			{"pcpus4_serial_sharded", 4, false},
			{"pcpus4_parallel", 4, true},
		}
		for _, drv := range drivers {
			timed := opts
			timed.Run = core.RunConfig{PCPUs: drv.pcpus, Parallel: drv.parallel}
			for i := 0; i < *runs; i++ {
				start := time.Now()
				if _, err := exp.Run(timed); err != nil {
					fatal(fmt.Errorf("%s run %d: %w", drv.name, i, err))
				}
				sec := math.Round(time.Since(start).Seconds()*1000) / 1000
				d.Wall[drv.name] = append(d.Wall[drv.name], sec)
				fmt.Fprintf(os.Stderr, "parallelsweep: %s run %d: %.3fs\n", drv.name, i+1, sec)
			}
			d.Median[drv.name] = median(d.Wall[drv.name])
		}
	}
	if s, p := d.Median["pcpus4_serial_sharded"], d.Median["pcpus4_parallel"]; s > 0 && p > 0 {
		d.Speedup = math.Round(s/p*100) / 100
	}

	b, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "parallelsweep: wrote %s (speedup %.2f, %d counters)\n",
		*out, d.Speedup, len(d.Counters))
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	m := s[n/2]
	if n%2 == 0 {
		m = (s[n/2-1] + s[n/2]) / 2
	}
	return math.Round(m*10000) / 10000
}

func sortedKeys(m map[string]float64) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "parallelsweep:", err)
	os.Exit(1)
}
