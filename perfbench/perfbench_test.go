package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
)

// tinySize scales every workload down so a repetition takes milliseconds.
const tinySize = 0.02

// inProcess runs repetitions in the test process instead of child
// processes.
func inProcess(w *workload, seed int64, size float64) func(repKind, int) (*rep, error) {
	in := w.inputs(seed, size)
	return func(kind repKind, i int) (*rep, error) { return runRep(w, in, kind, "", seed, i) }
}

// lastJSON parses the last line of a report.
func lastJSON(t *testing.T, out string) jsonResult {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var js jsonResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &js); err != nil {
		t.Fatalf("last line is not the JSON result: %v\n%s", err, out)
	}
	return js
}

type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func TestEveryMetricPrintsWithItsUnit(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	want := func(defs []struct{ Name, Unit string }) map[string]string {
		m := map[string]string{}
		for _, d := range defs {
			m[d.Name] = d.Unit
		}
		return m
	}
	got := func(js jsonResult) map[string]string {
		m := map[string]string{}
		for n, v := range js.Metrics {
			m[n] = v.Unit
		}
		return m
	}
	for _, bw := range bf.Workloads {
		w := lookupWorkload(bw.Name)
		if w == nil {
			t.Fatalf("BENCHMARK.json names unknown workload %q", bw.Name)
		}
		res, err := measure(w, 1, 0, false, inProcess(w, 1, tinySize))
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		res.print(&b)
		js := lastJSON(t, b.String())
		if !js.Correct || js.Attempted < 1 || js.Failed != 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d\n%s", w.name, js.Correct, js.Attempted, js.Failed, b.String())
		}
		if g, e := got(js), want(bf.EndToEnd); !reflect.DeepEqual(g, e) {
			t.Errorf("%s: end-to-end metrics %v, BENCHMARK.json lists %v", w.name, g, e)
		}
		for _, m := range endToEnd {
			if !strings.Contains(b.String(), m.name) || !strings.Contains(b.String(), "["+m.clock+"]") {
				t.Errorf("%s: report lacks %s labelled [%s]", w.name, m.name, m.clock)
			}
			if v := js.Metrics[m.name].Value; v <= 0 {
				t.Errorf("%s: %s = %v, want > 0", w.name, m.name, v)
			}
		}
	}

	w := lookupWorkload("web-fleet")
	res, err := measure(w, 1, 0, true, inProcess(w, 1, 0.1))
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	res.print(&b)
	js := lastJSON(t, b.String())
	if g, e := got(js), want(bf.PerLayer); !reflect.DeepEqual(g, e) {
		t.Errorf("per-layer metrics %v, BENCHMARK.json lists %v", g, e)
	}
	sum := 0.0
	for n, m := range js.Metrics {
		if strings.HasSuffix(n, "_share") {
			sum += m.Value
		}
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("CPU shares sum to %v, want 1", sum)
	}
}

func TestSameSeedSameVirtualResults(t *testing.T) {
	for _, w := range workloads {
		if w.shards > 1 {
			continue // covered by the parity check, see TestParityMismatchFailsTheRun
		}
		in := w.inputs(7, tinySize)
		a, err := runRep(w, in, repPlain, "", 7, 0)
		if err != nil {
			t.Fatal(err)
		}
		b, err := runRep(w, in, repTraced, "", 7, 1)
		if err != nil {
			t.Fatal(err)
		}
		if a.Check != "" || b.Check != "" {
			t.Errorf("%s: output checks failed: %q %q", w.name, a.Check, b.Check)
		}
		if a.Virt.Key != b.Virt.Key {
			t.Errorf("%s: same seed, different virtual results:\n%s\n%s", w.name, a.Virt.Key, b.Virt.Key)
		}
	}
}

func TestSeedChangesInputs(t *testing.T) {
	for _, w := range workloads {
		if !reflect.DeepEqual(w.inputs(3, tinySize), w.inputs(3, tinySize)) {
			t.Errorf("%s: one seed gave two different inputs", w.name)
		}
		if reflect.DeepEqual(w.inputs(3, tinySize), w.inputs(4, tinySize)) {
			t.Errorf("%s: seeds 3 and 4 gave the same inputs", w.name)
		}
	}
}

func TestWrongKVValueIsCaught(t *testing.T) {
	in := kvInputs(5, tinySize).(*kvIn)
	corrupted := false
	out, err := runKVWith(in, runCfg{}, func(op int, got []byte) []byte {
		if corrupted {
			return got
		}
		corrupted = true
		bad := append([]byte(nil), got...)
		bad[len(bad)-1] ^= 0xff
		return bad
	})
	if err != nil {
		t.Fatal(err)
	}
	if !corrupted {
		t.Fatal("the workload issued no Get")
	}
	if !errors.Is(out.err, errCheck) {
		t.Fatalf("a wrong Get value passed the check (err = %v)", out.err)
	}
}

func TestParityMismatchFailsTheRun(t *testing.T) {
	w := lookupWorkload("web-fleet-sharded")
	spawn := func(kind repKind, i int) (*rep, error) {
		r := &rep{Virt: virtResult{Attempted: 1, Key: "parallel"}}
		if kind == repSerial {
			r.Virt.Key = "serial"
		}
		return r, nil
	}
	res, err := measure(w, 1, 0, false, spawn)
	if err != nil {
		t.Fatal(err)
	}
	if res.correct {
		t.Fatal("serial and parallel drives disagreed, yet the run reports correct")
	}
}

func TestBuckets(t *testing.T) {
	cases := []struct {
		stack []frame
		want  string
	}{
		{[]frame{{name: "runtime.scanobject"}, {name: "runtime.gcBgMarkWorker"}}, "runtime.gc"},
		{[]frame{{name: "runtime.mallocgc"}, {name: "repro/internal/tcp.(*Conn).send"}}, "runtime.malloc"},
		{[]frame{{name: "runtime.chansend1"}, {name: "repro/internal/sim.(*Proc).park"}}, "runtime.sched"},
		{[]frame{{name: "runtime.memmove"}, {name: "repro/internal/storage.(*WAL).flush"}}, "storage"},
		{[]frame{{name: "repro/internal/sim.(*Cluster).runEpochs", file: "/x/internal/sim/shard.go"}}, "sim_cluster"},
		{[]frame{{name: "repro/internal/sim.(*Kernel).step", file: "/x/internal/sim/sim.go"}}, "sim"},
		{[]frame{{name: "repro/internal/ipv4.Parse"}}, "netstack"},
		{[]frame{{name: "sort.Float64s"}, {name: "main.sortedCopy"}, {name: "repro/internal/lwt.Bind"}}, "bench"},
		{[]frame{{name: "runtime.nanotime"}}, "other"},
	}
	for _, c := range cases {
		if got := bucketOf(c.stack); got != c.want {
			t.Errorf("bucketOf(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

func TestSelfTimeSubtractsCoveredDeviceTime(t *testing.T) {
	lr := newLayerRun()
	l := new(spanLog)
	set := l.begin("storage.set", 0, 0, 0)
	l.end(set, 100)
	for _, iv := range [][2]sim.Time{{10, 30}, {20, 50}, {80, 120}} {
		h := l.begin("blkif.write", 0, 0, iv[0])
		l.end(h, iv[1])
	}
	lr.addLog(l)
	// Device busy inside [0,100): [10,50) and [80,100) = 60 ns.
	if got := lr.selfTimes("storage.set", "blkif.write"); len(got) != 1 || got[0] != 0.04 {
		t.Fatalf("self time = %v µs, want [0.04]", got)
	}
	if got := busy(lr.union("blkif.write")); got != 80e-9 {
		t.Fatalf("device busy = %v s, want 8e-08", got)
	}
}
