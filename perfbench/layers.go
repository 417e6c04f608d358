package main

import "fmt"

// perLayer lists the per-layer metrics of a traced run, in print order.
// Each is printed for every workload; one a workload does not exercise
// reads 0. README.md maps each to the end-to-end metric it should move.
var perLayer = []metricDef{
	{name: "sim.cpu_share", unit: "ratio", clock: "host"},
	{name: "sim.proc_wakes", unit: "count", clock: "virtual"},
	{name: "sim.host_ns_per_wake", unit: "ns", clock: "host"},
	{name: "sim.heap_peak", unit: "events", clock: "virtual"},
	{name: "sim.wheel_fired", unit: "count", clock: "virtual"},
	{name: "sim.events_cancelled", unit: "count", clock: "virtual"},
	{name: "runtime.sched_share", unit: "ratio", clock: "host"},
	{name: "runtime.malloc_share", unit: "ratio", clock: "host"},
	{name: "runtime.gc_share", unit: "ratio", clock: "host"},
	{name: "runtime.alloc_bytes_per_op", unit: "B/op", clock: "host"},
	{name: "sim_cluster.epochs", unit: "count", clock: "virtual"},
	{name: "sim_cluster.rounds", unit: "count", clock: "virtual"},
	{name: "sim_cluster.barriers_elided", unit: "count", clock: "virtual"},
	{name: "sim_cluster.late_deliveries", unit: "count", clock: "virtual"},
	{name: "sim_cluster.cpu_share", unit: "ratio", clock: "host"},
	{name: "lwt.cpu_share", unit: "ratio", clock: "host"},
	{name: "lwt.wakes", unit: "count", clock: "virtual"},
	{name: "hypervisor.evtchn_notifies", unit: "count", clock: "virtual"},
	{name: "hypervisor.hypercalls", unit: "count", clock: "virtual"},
	{name: "hypervisor.runq_wait_s", unit: "virtual-s", clock: "virtual"},
	{name: "hypervisor.dom0_busy_s", unit: "virtual-s", clock: "virtual"},
	{name: "hypervisor.cpu_share", unit: "ratio", clock: "host"},
	{name: "grant.ops", unit: "count", clock: "virtual"},
	{name: "grant.copy_bytes", unit: "B", clock: "virtual"},
	{name: "grant.cpu_share", unit: "ratio", clock: "host"},
	{name: "ring.batch_size_mean", unit: "frames", clock: "virtual"},
	{name: "ring.occupancy_p99", unit: "slots", clock: "virtual"},
	{name: "ring.cpu_share", unit: "ratio", clock: "host"},
	{name: "netif.tx_ring_full", unit: "count", clock: "virtual"},
	{name: "netif.cpu_share", unit: "ratio", clock: "host"},
	{name: "netback.frames", unit: "count", clock: "virtual"},
	{name: "netback.notifications", unit: "count", clock: "virtual"},
	{name: "netback.frames_per_notify", unit: "ratio", clock: "virtual"},
	{name: "netback.cpu_share", unit: "ratio", clock: "host"},
	{name: "netstack.cpu_share", unit: "ratio", clock: "host"},
	{name: "tcp.segments", unit: "count", clock: "virtual"},
	{name: "tcp.retransmits", unit: "count", clock: "virtual"},
	{name: "tcp.rto_timeouts", unit: "count", clock: "virtual"},
	{name: "tcp.syn_backlog_drops", unit: "count", clock: "virtual"},
	{name: "tcp.connect_p99_us", unit: "virtual-us", clock: "virtual"},
	{name: "tcp.cpu_share", unit: "ratio", clock: "host"},
	{name: "httpd.request_p99_us", unit: "virtual-us", clock: "virtual"},
	{name: "httpd.response_p99_us", unit: "virtual-us", clock: "virtual"},
	{name: "httpd.cpu_share", unit: "ratio", clock: "host"},
	{name: "fleet.summons", unit: "count", clock: "virtual"},
	{name: "fleet.scale_actions", unit: "count", clock: "virtual"},
	{name: "fleet.slo_alerts", unit: "count", clock: "virtual"},
	{name: "fleet.boot_to_first_byte_ms", unit: "virtual-ms", clock: "virtual"},
	{name: "fleet.lb_steered", unit: "count", clock: "virtual"},
	{name: "fleet.lb_no_backend", unit: "count", clock: "virtual"},
	{name: "fleet.slo_rate_rps", unit: "req/virtual-s", clock: "virtual"},
	{name: "fleet.cpu_share", unit: "ratio", clock: "host"},
	{name: "loadgen.late_p99_us", unit: "virtual-us", clock: "virtual"},
	{name: "storage.set_p99_us", unit: "virtual-us", clock: "virtual"},
	{name: "storage.get_p99_us", unit: "virtual-us", clock: "virtual"},
	{name: "storage.set_self_us_p50", unit: "virtual-us", clock: "virtual"},
	{name: "storage.wal_flushes", unit: "count", clock: "virtual"},
	{name: "storage.records_per_flush", unit: "ratio", clock: "virtual"},
	{name: "storage.checkpoints", unit: "count", clock: "virtual"},
	{name: "storage.cpu_share", unit: "ratio", clock: "host"},
	{name: "blkif.dev_ops", unit: "count", clock: "virtual"},
	{name: "blkif.dev_write_p99_us", unit: "virtual-us", clock: "virtual"},
	{name: "blkif.dev_busy_s", unit: "virtual-s", clock: "virtual"},
	{name: "blkif.requests", unit: "count", clock: "virtual"},
	{name: "blkif.merged", unit: "count", clock: "virtual"},
	{name: "blkif.indirect", unit: "count", clock: "virtual"},
	{name: "blkif.segments_per_request", unit: "ratio", clock: "virtual"},
	{name: "blkif.cpu_share", unit: "ratio", clock: "host"},
	{name: "blkback.cpu_share", unit: "ratio", clock: "host"},
	{name: "obs.cpu_share", unit: "ratio", clock: "host"},
	{name: "bench.cpu_share", unit: "ratio", clock: "host"},
	{name: "other.cpu_share", unit: "ratio", clock: "host"},
	{name: "trace.overhead_s", unit: "s", clock: "host"},
}

// foldLayers computes the per-layer metrics of a traced run from its
// untraced (plain) and traced repetitions.
func foldLayers(res *result, plain, traced []*rep) (map[string]float64, error) {
	out := map[string]float64{}
	for _, m := range perLayer {
		out[m.name] = 0
	}
	for n, v := range res.virt.Layer {
		out[n] = v
	}

	// CPU shares over every traced repetition's profile.
	ns := map[string]int64{}
	var total int64
	for _, r := range traced {
		for b, v := range r.BucketNS {
			ns[b] += v
			total += v
		}
	}
	if total == 0 {
		return nil, fmt.Errorf("traced run of %s: the CPU profiles hold no samples", res.workload)
	}
	for _, b := range cpuBuckets {
		share := float64(ns[b]) / float64(total)
		switch b {
		case "runtime.sched", "runtime.malloc", "runtime.gc":
			out[b+"_share"] = share
		default:
			out[b+".cpu_share"] = share
		}
	}

	// Host figures per unit of virtual work, from the untraced repetitions.
	host := hostMetrics(plain)
	if wakes := res.virt.Layer["sim.proc_wakes"]; wakes > 0 {
		out["sim.host_ns_per_wake"] = host["wall_s"] * 1e9 / wakes
	}
	out["runtime.alloc_bytes_per_op"] = host["alloc_mb"] * (1 << 20) / float64(res.virt.Attempted)
	out["trace.overhead_s"] = hostMetrics(traced)["wall_s"] - host["wall_s"]

	// Spans are virtual, so every traced repetition reports the same.
	for n, v := range traced[len(traced)-1].Spans {
		out[n] = v
	}
	return out, nil
}

// spanMetrics folds one traced repetition's spans into per-layer values.
func (lr *layerRun) spanMetrics() map[string]float64 {
	reads, writes := lr.durations("blkif.read"), lr.durations("blkif.write")
	return map[string]float64{
		"tcp.connect_p99_us":      percentile(lr.durations("tcp.connect"), 0.99),
		"httpd.response_p99_us":   percentile(lr.durations("httpd.response"), 0.99),
		"storage.set_p99_us":      percentile(lr.durations("storage.set"), 0.99),
		"storage.get_p99_us":      percentile(lr.durations("storage.get"), 0.99),
		"storage.set_self_us_p50": percentile(lr.selfTimes("storage.set", "blkif.write"), 0.50),
		"blkif.dev_ops":           float64(len(reads) + len(writes)),
		"blkif.dev_write_p99_us":  percentile(writes, 0.99),
		"blkif.dev_busy_s":        busy(lr.union("blkif.read", "blkif.write")),
	}
}
