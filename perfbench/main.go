// Command perfbench is the repository's end-to-end benchmark. It drives
// four seeded workloads through the public packages of the simulated Xen
// fleet and reports two kinds of numbers: host metrics (what the simulator
// costs on this machine) and virtual metrics (what the modelled appliance
// would take). See README.md for the workloads, the metrics and the layer
// map.
//
//	perfbench --workload web-fleet --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end ones; with --trace 1 they are the per-layer ones, taken
// from a CPU profile, spans the benchmark records around its calls into the
// layers, and deltas of the program's own metric registry.
//
// Each repetition runs in a child process of its own. The simulator's
// parked procs are goroutines that outlive a run, so repetitions sharing a
// process would each inherit the previous platforms' heap.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "measuring time per run")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for the traced repetitions' spans and CPU profiles")
	child := fs.String("child", "", "internal: run one repetition (plain, traced or serial) and print it as JSON")
	index := fs.Int("index", 0, "internal: repetition index, names the trace files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := lookupWorkload(*name)
	if w == nil {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *child != "" {
		r, err := runRep(w, w.inputs(*seed, fullSize), repKind(*child), *out, *seed, *index)
		if err == nil {
			err = json.NewEncoder(stdout).Encode(r)
		}
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		return 0
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	spawn := func(kind repKind, i int) (*rep, error) {
		return spawnRep(self, []string{"--workload", w.name, "--seed", strconv.FormatInt(*seed, 10),
			"--out", *out, "--child", string(kind), "--index", strconv.Itoa(i)}, stderr)
	}
	res, err := measure(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, spawn)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	res.print(stdout)
	return 0
}

// fullSize is the workload scale the benchmark runs at; tests use smaller
// ones.
const fullSize = 1.0

// minReps is the least number of repetitions a run makes of each kind
// (untraced, traced), so every reported host number is a median.
const minReps = 3

// maxReps caps repetitions when a workload is much cheaper than --seconds.
const maxReps = 100

// childTimeout bounds one repetition; a hung child is killed.
const childTimeout = 150 * time.Second

// spawnRep runs one repetition in a child process and waits for it.
func spawnRep(self string, args []string, stderr io.Writer) (*rep, error) {
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, self, args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("repetition %v: %w", args, err)
	}
	var r rep
	if err := json.Unmarshal(out.Bytes(), &r); err != nil {
		return nil, fmt.Errorf("repetition %v: %w", args, err)
	}
	return &r, nil
}

// result is what one benchmark run reports.
type result struct {
	workload string
	seed     int64
	traced   bool
	correct  bool
	problems []string
	virt     virtResult
	host     map[string]float64 // end-to-end host metrics
	walls    []float64          // wall_s of each untraced repetition, sorted
	layers   map[string]float64 // per-layer metrics (traced runs)
	reps     int
	tracedN  int
}

// measure runs repetitions for about budget and folds them into medians.
// Every repetition uses the same inputs, so all of them must report
// identical virtual results; a difference is an output failure. A traced
// run alternates untraced and traced repetitions: the untraced ones give
// the host baseline for trace.overhead_s.
func measure(w *workload, seed int64, budget time.Duration, traced bool, spawn func(repKind, int) (*rep, error)) (*result, error) {
	res := &result{workload: w.name, seed: seed, traced: traced, correct: true}
	fail := func(msg string) {
		res.correct = false
		res.problems = append(res.problems, msg)
	}
	accept := func(r *rep) {
		if r.Check != "" {
			fail(r.Check)
		}
		if res.virt.Key == "" {
			res.virt = r.Virt
		} else if r.Virt.Key != res.virt.Key {
			fail(fmt.Sprintf("virtual results differ between repetitions of one seed (or between serial and parallel drives):\n    %s\n    %s", res.virt.Key, r.Virt.Key))
		}
	}
	if w.shards > 1 {
		// Parity: the same two-shard layout driven on one thread must
		// report byte-identical virtual results.
		r, err := spawn(repSerial, 0)
		if err != nil {
			return nil, err
		}
		accept(r)
	}
	var plain, withTrace []*rep
	start := time.Now()
	for i := 0; ; i++ {
		enough := len(plain) >= minReps && (!traced || len(withTrace) >= minReps)
		if (enough && time.Since(start) >= budget) || len(plain)+len(withTrace) >= maxReps {
			break
		}
		kind := repPlain
		if traced && i%2 == 1 {
			kind = repTraced
		}
		r, err := spawn(kind, i)
		if err != nil {
			return nil, err
		}
		accept(r)
		if kind == repTraced {
			withTrace = append(withTrace, r)
		} else {
			plain = append(plain, r)
		}
	}
	if res.virt.Attempted < 1 {
		fail("the workload attempted no operations")
	}
	res.reps, res.tracedN = len(plain), len(withTrace)
	res.host = hostMetrics(plain)
	for _, r := range plain {
		res.walls = append(res.walls, float64(r.WallNS)/1e9)
	}
	sort.Float64s(res.walls)
	if traced {
		layers, err := foldLayers(res, plain, withTrace)
		if err != nil {
			return nil, err
		}
		res.layers = layers
	}
	return res, nil
}

// hostMetrics takes the median of each host metric over the repetitions.
func hostMetrics(reps []*rep) map[string]float64 {
	pick := func(f func(*rep) float64) float64 {
		vs := make([]float64, len(reps))
		for i, r := range reps {
			vs[i] = f(r)
		}
		return median(vs)
	}
	return map[string]float64{
		"wall_s":     pick(func(r *rep) float64 { return float64(r.WallNS) / 1e9 }),
		"cpu_s":      pick(func(r *rep) float64 { return float64(r.CPUNS) / 1e9 }),
		"setup_s":    pick(func(r *rep) float64 { return float64(r.SetupNS) / 1e9 }),
		"alloc_mb":   pick(func(r *rep) float64 { return float64(r.AllocBytes) / (1 << 20) }),
		"allocs_m":   pick(func(r *rep) float64 { return float64(r.Allocs) / 1e6 }),
		"max_rss_mb": pick(func(r *rep) float64 { return float64(r.MaxRSSKB) / 1024 }),
	}
}

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// metricDef describes one reported metric.
type metricDef struct {
	name, unit string
	clock      string // "host" or "virtual"
	help       string
}

// endToEnd lists the end-to-end metrics in the order they print.
var endToEnd = []metricDef{
	{"wall_s", "s", "host", "wall time of the timed phase (median over repetitions)"},
	{"cpu_s", "s", "host", "user+system CPU time of the timed phase (median)"},
	{"setup_s", "s", "host", "platform construction to first timed request (median)"},
	{"alloc_mb", "MiB", "host", "heap bytes allocated in the timed phase (median)"},
	{"allocs_m", "millions", "host", "heap allocations in the timed phase (median)"},
	{"max_rss_mb", "MiB", "host", "peak resident set size of a repetition's process (median)"},
	{"latency_p50_us", "virtual-us", "virtual", "median operation latency"},
	{"latency_p99_us", "virtual-us", "virtual", "99th-percentile operation latency"},
	{"throughput_ops", "ops/virtual-s", "virtual", "completed operations per virtual second"},
	{"replica_s", "replica-virt-s", "virtual", "live server domains integrated over the timed phase"},
}

func (r *result) endToEndValue(name string) float64 {
	switch name {
	case "latency_p50_us":
		return r.virt.P50us
	case "latency_p99_us":
		return r.virt.P99us
	case "throughput_ops":
		return r.virt.Throughput
	case "replica_s":
		return r.virt.ReplicaS
	}
	return r.host[name]
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// print writes the human-readable report and, last, the JSON line.
func (r *result) print(w io.Writer) {
	mode := "untraced"
	if r.traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "perfbench %s seed=%d (%s): %d untraced + %d traced repetitions, one process each\n",
		r.workload, r.seed, mode, r.reps, r.tracedN)
	fmt.Fprintf(w, "  ops: %d attempted, %d failed, failed_ratio %.6f; %d latency samples\n",
		r.virt.Attempted, r.virt.Failed, r.virt.failedRatio(), r.virt.Samples)
	if n := len(r.walls); n > 0 {
		fmt.Fprintf(w, "  wall_s over %d repetitions: min %.4f, q1 %.4f, median %.4f, q3 %.4f, max %.4f\n",
			n, r.walls[0], r.walls[n/4], median(r.walls), r.walls[(3*n)/4], r.walls[n-1])
	}
	for _, n := range r.virt.Notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
	for _, p := range r.problems {
		fmt.Fprintf(w, "  CHECK FAILED: %s\n", p)
	}
	js := jsonResult{Correct: r.correct, Attempted: r.virt.Attempted, Failed: r.virt.Failed, Metrics: map[string]jsonMetric{}}
	for _, m := range endToEnd {
		v := r.endToEndValue(m.name)
		fmt.Fprintf(w, "  %-16s %16.6f %-14s [%s] %s\n", m.name, v, m.unit, m.clock, m.help)
		if !r.traced {
			js.Metrics[m.name] = jsonMetric{v, m.unit}
		}
	}
	if r.traced {
		for _, m := range perLayer {
			v := r.layers[m.name]
			fmt.Fprintf(w, "  %-34s %16.6f %-14s [%s]\n", m.name, v, m.unit, m.clock)
			js.Metrics[m.name] = jsonMetric{v, m.unit}
		}
	}
	b, err := json.Marshal(js)
	if err != nil {
		// Only a NaN or an infinity can fail here, and every ratio guards
		// its denominator.
		panic(err)
	}
	fmt.Fprintln(w, string(b))
}

// errCheck marks output-check failures, as opposed to runs that could not
// complete.
var errCheck = errors.New("output check failed")

func isCheck(err error) bool { return errors.Is(err, errCheck) }
