package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/hypervisor"
	"repro/internal/obs"
)

// workload is one seeded traffic mix.
type workload struct {
	name string
	// shards > 1 shards the platform across that many pCPU kernels,
	// driven on as many OS threads (0 = the classic single kernel).
	shards int
	// inputs generates everything the workload sends from the seed; size
	// scales the amount of work (1 = the benchmark's size).
	inputs func(seed int64, size float64) any
	// run executes one repetition on the inputs.
	run func(in any, cfg runCfg) (*runOut, error)
}

// runCfg selects how one repetition is driven.
type runCfg struct {
	shards   int
	parallel bool
	trace    *layerRun // nil for untraced repetitions
}

// runOut is one repetition's outcome. err reports an output check that
// failed; the returned error of workload.run reports a run that could not
// complete at all.
type runOut struct {
	rep
	err error
}

var workloads = []*workload{
	{name: "web-fleet", inputs: webInputs, run: runWeb},
	{name: "kv-mixed", inputs: kvInputs, run: runKV},
	{name: "ping-flood", inputs: pingInputs, run: runPing},
	{name: "web-fleet-sharded", shards: 2, inputs: webInputs, run: runWeb},
}

func lookupWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// newPlatform builds the platform a repetition runs on.
func newPlatform(seed int64, cfg runCfg) *core.Platform {
	if cfg.shards > 1 {
		core.SetDefaultSharding(cfg.shards, cfg.parallel)
		defer core.SetDefaultSharding(1, false)
	}
	return core.NewPlatform(seed)
}

// virtResult holds everything a repetition reports in virtual time. All
// of it must repeat exactly for one seed.
type virtResult struct {
	Attempted, Failed int
	Samples           int // latency samples behind P50us and P99us
	P50us, P99us      float64
	Throughput        float64 // ops per virtual second
	ReplicaS          float64 // server domains x virtual seconds
	// Layer holds virtual per-layer values: registry deltas over the timed
	// phase plus the workload's own counts.
	Layer map[string]float64
	// Notes are human-readable per-step details (web workloads).
	Notes []string
	// Key renders every value above canonically, for the identity checks.
	Key string
}

func (v *virtResult) failedRatio() float64 {
	if v.Attempted == 0 {
		return 0
	}
	return float64(v.Failed) / float64(v.Attempted)
}

// seal computes the canonical key once every field is set.
func (v *virtResult) seal() {
	var b strings.Builder
	fmt.Fprintf(&b, "attempted=%d failed=%d samples=%d p50=%g p99=%g tput=%g replica_s=%g",
		v.Attempted, v.Failed, v.Samples, v.P50us, v.P99us, v.Throughput, v.ReplicaS)
	names := make([]string, 0, len(v.Layer))
	for n := range v.Layer {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		b.WriteString(" " + n + "=" + strconv.FormatFloat(v.Layer[n], 'g', -1, 64))
	}
	for _, n := range v.Notes {
		b.WriteString(" | " + n)
	}
	v.Key = b.String()
}

// percentile picks the q-quantile of sorted samples (nearest rank).
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func sortedCopy(vs []float64) []float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return s
}

// layerMap initialises and returns a repetition's virtual per-layer map.
func layerMap(v *virtResult) map[string]float64 {
	v.Layer = map[string]float64{}
	return v.Layer
}

// phase drives one repetition: the set-up phase up to the virtual instant
// setupFor (untimed on the virtual side, timed as setup_s on the host),
// then the timed phase for timedFor. It records host costs into clk.rep
// and the registry deltas of the timed phase into layer.
func phase(pl *core.Platform, clk *hostClock, setupFor, timedFor time.Duration, layer map[string]float64) error {
	if _, err := pl.RunFor(setupFor); err != nil {
		return fmt.Errorf("set-up phase: %w", err)
	}
	clk.rep.SetupNS = int64(time.Since(clk.t0))
	if clk.profiler != nil {
		clk.profiler.from = pl.K.Now()
	}
	before := pl.K.Metrics().Snapshot()
	domBefore := domTotals(pl)
	busyBefore := dom0Busy(pl)
	if err := clk.beginTimed(); err != nil {
		return err
	}
	if _, err := pl.RunFor(timedFor); err != nil {
		return fmt.Errorf("timed phase: %w", err)
	}
	clk.endTimed()
	registryLayers(pl.K.Metrics().Snapshot().Diff(before), layer)
	dom := domTotals(pl)
	layer["lwt.wakes"] = float64(dom.Wakes - domBefore.Wakes)
	layer["hypervisor.runq_wait_s"] = (dom.RunqWait - domBefore.RunqWait).Seconds()
	layer["hypervisor.dom0_busy_s"] = (dom0Busy(pl) - busyBefore).Seconds()
	layer["sim.heap_peak"] = float64(pl.K.EventHeapPeak())
	if err := pl.Check(); err != nil {
		return fmt.Errorf("%w: Platform.Check: %v", errCheck, err)
	}
	return nil
}

// domTotals sums domain accounting over every domain on every host.
func domTotals(pl *core.Platform) hypervisor.DomStat {
	var t hypervisor.DomStat
	for _, s := range pl.Sites() {
		for _, d := range s.Host.DomStats() {
			t.Wakes += d.Wakes
			t.RunqWait += d.RunqWait
		}
	}
	return t
}

// dom0Busy is the busy time of the control domain's CPUs (its pCPU and the
// netback worker).
func dom0Busy(pl *core.Platform) time.Duration {
	var t time.Duration
	for _, c := range pl.K.CPUs() {
		if strings.Contains(c.Name(), "dom0") {
			t += c.BusyTime()
		}
	}
	return t
}

// registryLayers folds a registry delta into per-layer counts.
func registryLayers(d obs.Snapshot, layer map[string]float64) {
	sum := func(family string) float64 {
		t := 0.0
		for _, r := range d.Rows {
			if r.Kind == "counter" && rowFamily(r.ID) == family {
				t += float64(r.N)
			}
		}
		return t
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	layer["sim.proc_wakes"] = sum("sim_proc_wakes_total")
	layer["sim.wheel_fired"] = sum("sim_wheel_fired_total")
	layer["sim.events_cancelled"] = sum("sim_events_cancelled_total")
	layer["sim_cluster.epochs"] = sum("sim_cluster_epochs_total")
	layer["sim_cluster.rounds"] = sum("sim_cluster_rounds_total")
	layer["sim_cluster.barriers_elided"] = sum("sim_cluster_barriers_elided_total")
	layer["sim_cluster.late_deliveries"] = sum("sim_cluster_late_deliveries_total")
	layer["hypervisor.evtchn_notifies"] = sum("hv_evtchn_notifies_total")
	layer["hypervisor.hypercalls"] = sum("hv_hypercalls_total")
	layer["grant.ops"] = sum("grant_ops_total")
	layer["grant.copy_bytes"] = sum("grant_copy_bytes_total")
	layer["netif.tx_ring_full"] = sum("net_tx_ring_full_total")
	frames, notifies := sum("bridge_frames_total"), sum("bridge_notifications_total")
	layer["netback.frames"] = frames
	layer["netback.notifications"] = notifies
	layer["netback.frames_per_notify"] = ratio(frames, notifies)
	layer["tcp.segments"] = sum("tcp_segments_total")
	layer["tcp.retransmits"] = sum("tcp_retransmits_total")
	layer["tcp.rto_timeouts"] = sum("tcp_rto_timeouts_total")
	layer["tcp.syn_backlog_drops"] = sum("tcp_syn_backlog_drops_total")
	layer["fleet.summons"] = sum("fleet_summons_total")
	layer["fleet.scale_actions"] = sum("fleet_scale_actions_total")
	layer["fleet.slo_alerts"] = sum("slo_alerts_total")
	layer["fleet.lb_steered"] = sum("lb_steered_conns_total")
	layer["fleet.lb_no_backend"] = sum("lb_no_backend_total")
	reqs := sum("blk_requests_total")
	layer["blkif.requests"] = reqs
	layer["blkif.merged"] = sum("blk_merged_requests_total")
	layer["blkif.indirect"] = sum("blk_indirect_requests_total")
	layer["blkif.segments_per_request"] = ratio(sum("blk_segments_total"), reqs)

	var batchSum, batchN, occP99, httpdP99 float64
	for _, r := range d.Rows {
		if r.Kind != "histogram" {
			continue
		}
		switch rowFamily(r.ID) {
		case "ring_batch_size":
			batchSum += r.Sum
			batchN += float64(r.N)
		case "ring_occupancy":
			occP99 = math.Max(occP99, obs.QuantileFromBuckets(r.Bounds, r.Buckets, r.N, 0.99))
		case "httpd_request_us":
			// The fleet-wide histogram; per-replica mirrors carry a
			// replica label.
			if !strings.Contains(r.ID, "replica=") {
				httpdP99 = obs.QuantileFromBuckets(r.Bounds, r.Buckets, r.N, 0.99)
			}
		}
	}
	layer["ring.batch_size_mean"] = ratio(batchSum, batchN)
	layer["ring.occupancy_p99"] = occP99
	layer["httpd.request_p99_us"] = httpdP99
}

// rowFamily strips the label set from a registry row ID.
func rowFamily(id string) string {
	if i := strings.IndexByte(id, '{'); i >= 0 {
		return id[:i]
	}
	return id
}
