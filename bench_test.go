package repro

// One Go benchmark per table and figure of the paper's evaluation (§4).
// Wall-clock b.N timing measures the simulator itself; the paper-comparable
// numbers are simulated-time metrics attached via b.ReportMetric (and
// printed in full by `go run ./cmd/repro`).

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dns"
)

// reportLast attaches the final Y of each series as a custom metric.
func reportSeries(b *testing.B, r *bench.Result, unit string) {
	b.Helper()
	for _, s := range r.Series {
		b.ReportMetric(s.Y[len(s.Y)-1], s.Name+"_"+unit)
	}
}

// BenchmarkFig05BootTime regenerates Figure 5 (domain boot time vs memory,
// synchronous toolstack).
func BenchmarkFig05BootTime(b *testing.B) {
	var r *bench.Result
	for i := 0; i < b.N; i++ {
		r = bench.Fig5BootTime(core.RunConfig{}, []int{64, 512, 3072})
	}
	reportSeries(b, r, "s_at_3072MiB")
}

// BenchmarkFig06BootAsync regenerates Figure 6 (VM startup, parallel
// toolstack; Mirage under 50 ms).
func BenchmarkFig06BootAsync(b *testing.B) {
	var r *bench.Result
	for i := 0; i < b.N; i++ {
		r = bench.Fig6BootAsync(nil)
	}
	reportSeries(b, r, "s_at_2048MiB")
}

// BenchmarkFig07aThreads regenerates Figure 7a (thread construction under
// four memory systems). Uses 1M/5M threads per iteration; pass -timeout
// headroom for the paper's full 20M.
func BenchmarkFig07aThreads(b *testing.B) {
	var r *bench.Result
	for i := 0; i < b.N; i++ {
		r = bench.Fig7aThreads([]int{1_000_000, 5_000_000})
	}
	reportSeries(b, r, "s_at_5M")
}

// BenchmarkFig07bJitter regenerates Figure 7b (wakeup jitter CDF).
func BenchmarkFig07bJitter(b *testing.B) {
	var stats []bench.JitterStats
	for i := 0; i < b.N; i++ {
		_, stats = bench.Fig7bJitter(200_000)
	}
	for _, s := range stats {
		b.ReportMetric(float64(s.P99)/1e6, s.Name+"_p99_ms")
	}
}

// BenchmarkPingLatency regenerates the §4.1.3 flood-ping comparison.
func BenchmarkPingLatency(b *testing.B) {
	var r *bench.Result
	for i := 0; i < b.N; i++ {
		r = bench.PingLatency(core.RunConfig{}, 2_000)
	}
	reportSeries(b, r, "rtt_us")
}

// BenchmarkFig08TCP regenerates the Figure 8 throughput table.
func BenchmarkFig08TCP(b *testing.B) {
	var r *bench.Result
	for i := 0; i < b.N; i++ {
		r = bench.Fig8TCP(core.RunConfig{}, 2<<20)
	}
	reportSeries(b, r, "Mbps_10flows")
}

// BenchmarkFig09BlockRead regenerates Figure 9 (sequential block read
// throughput vs block size at queue depth 32, through a real guest).
func BenchmarkFig09BlockRead(b *testing.B) {
	var r *bench.Result
	for i := 0; i < b.N; i++ {
		r = bench.Fig9BlockRead(core.RunConfig{}, []int{4, 64, 1024, 4096}, 256)
	}
	reportSeries(b, r, "MiBps_at_4MiB")
}

// BenchmarkFig10DNS regenerates Figure 10 (DNS throughput vs zone size).
func BenchmarkFig10DNS(b *testing.B) {
	var r *bench.Result
	for i := 0; i < b.N; i++ {
		r = bench.Fig10DNS(core.RunConfig{}, []int{100, 1000, 10000}, 5_000)
	}
	reportSeries(b, r, "kqps_at_10k")
}

// BenchmarkFig11OpenFlow regenerates Figure 11 (controller throughput,
// batch and single).
func BenchmarkFig11OpenFlow(b *testing.B) {
	var r *bench.Result
	for i := 0; i < b.N; i++ {
		r = bench.Fig11OpenFlow(50_000)
	}
	for _, s := range r.Series {
		b.ReportMetric(s.Y[0], s.Name+"_batch_kreqs")
		b.ReportMetric(s.Y[1], s.Name+"_single_kreqs")
	}
}

// BenchmarkFig12DynWeb regenerates Figure 12 (dynamic web appliance).
func BenchmarkFig12DynWeb(b *testing.B) {
	var r *bench.Result
	for i := 0; i < b.N; i++ {
		r = bench.Fig12DynWeb(nil)
	}
	reportSeries(b, r, "replies_at_100sess")
}

// BenchmarkFig13StaticWeb regenerates Figure 13 (static page serving).
func BenchmarkFig13StaticWeb(b *testing.B) {
	var r *bench.Result
	for i := 0; i < b.N; i++ {
		r = bench.Fig13StaticWeb()
	}
	reportSeries(b, r, "conns")
}

// BenchmarkFig14LoC regenerates Figure 14a (lines of code).
func BenchmarkFig14LoC(b *testing.B) {
	var r *bench.Result
	for i := 0; i < b.N; i++ {
		r = bench.Fig14LoC()
	}
	reportSeries(b, r, "kloc_ofctrl")
}

// BenchmarkTable2ImageSize regenerates Table 2 (image sizes before/after
// dead-code elimination).
func BenchmarkTable2ImageSize(b *testing.B) {
	var r *bench.Result
	for i := 0; i < b.N; i++ {
		r = bench.Table2Sizes()
	}
	reportSeries(b, r, "KB_ofctrl")
}

// BenchmarkDNSLabelCompression is the §4.2 compression ablation: the
// size-first functional map vs the naive hashtable, both over real
// encoding. Unlike the simulated metrics, these sub-benchmarks measure
// real CPU time — the difference is purely algorithmic.
func BenchmarkDNSLabelCompression(b *testing.B) {
	msg := bench.CompressionWorkload(20)
	b.Run("tree-size-first", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dns.EncodeMessage(msg, dns.NewTreeCompressor())
		}
	})
	b.Run("hashtable", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dns.EncodeMessage(msg, dns.NewHashCompressor())
		}
	})
	b.Run("uncompressed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dns.EncodeMessage(msg, nil)
		}
	})
}

// BenchmarkAblationSeal measures the seal hypercall's boot-path cost.
func BenchmarkAblationSeal(b *testing.B) {
	var r *bench.Result
	for i := 0; i < b.N; i++ {
		r = bench.AblationSeal(core.RunConfig{})
	}
	reportSeries(b, r, "us_sealed")
}

// BenchmarkAblationVchan measures notification suppression on vchan.
func BenchmarkAblationVchan(b *testing.B) {
	var r *bench.Result
	for i := 0; i < b.N; i++ {
		r = bench.AblationVchan(core.RunConfig{})
	}
	reportSeries(b, r, "notifies")
}

// BenchmarkAblationToolstack compares sync vs parallel batch creation.
func BenchmarkAblationToolstack(b *testing.B) {
	var r *bench.Result
	for i := 0; i < b.N; i++ {
		r = bench.AblationToolstack(core.RunConfig{}, 4, 256)
	}
	reportSeries(b, r, "s")
}
