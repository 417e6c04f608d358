package sim

import (
	"bytes"
	"fmt"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// clusterRun drives a fixed cross-shard workload on a fresh 4-shard
// cluster and returns everything observable about the run: the per-shard
// execution logs (concatenated in shard order), the final virtual time,
// the metrics snapshot and the merged trace. Serial and parallel drivers
// must produce byte-identical results.
func clusterRun(t *testing.T, parallel bool) (string, Time, string, string) {
	return clusterRunShards(t, parallel, 4)
}

func clusterRunShards(t *testing.T, parallel bool, shards int) (string, Time, string, string) {
	t.Helper()
	tr := obs.NewTracer(obs.DefaultCap)
	tr.Enable()
	reg := obs.NewRegistry()

	c := NewCluster(7, shards, 10*time.Microsecond, Obs{Trace: tr, Metrics: reg})
	c.SetParallel(parallel)
	logs := make([][]string, shards)
	for i := 0; i < shards; i++ {
		i := i
		k := c.Kernel(i)
		k.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			for j := 0; j < 40; j++ {
				p.Sleep(time.Duration(1+k.Rand().Intn(5000)) * time.Nanosecond)
				logs[i] = append(logs[i], fmt.Sprintf("s%d j%d @%v", i, j, k.Now()))
				src, hop := i, j
				dst := c.Kernel((i + 1) % shards)
				// The posted fn runs on dst's shard thread, so appending
				// to dst's log is single-threaded.
				k.Post(dst, time.Duration(k.Rand().Intn(20))*time.Microsecond, func() {
					logs[(src+1)%shards] = append(logs[(src+1)%shards],
						fmt.Sprintf("s%d <- s%d hop%d @%v", (src+1)%shards, src, hop, dst.Now()))
				})
				if j%8 == 0 {
					k.SpawnTo(dst, fmt.Sprintf("x%d-%d", i, j), 0, func(p *Proc) {
						p.Sleep(time.Microsecond)
						logs[(src+1)%shards] = append(logs[(src+1)%shards],
							fmt.Sprintf("s%d spawn from s%d @%v", (src+1)%shards, src, dst.Now()))
					})
				}
			}
		})
	}
	end, err := c.Run()
	if err != nil {
		t.Fatalf("cluster run (parallel=%v): %v", parallel, err)
	}
	var all bytes.Buffer
	for i := range logs {
		for _, l := range logs[i] {
			fmt.Fprintln(&all, l)
		}
	}
	var trOut bytes.Buffer
	if err := tr.WriteJSON(&trOut); err != nil {
		t.Fatalf("trace: %v", err)
	}
	return all.String(), end, reg.Snapshot().Format(), trOut.String()
}

func TestParallelByteIdentity(t *testing.T) {
	sLog, sEnd, sMet, sTr := clusterRun(t, false)
	pLog, pEnd, pMet, pTr := clusterRun(t, true)
	if sEnd != pEnd {
		t.Errorf("final time: serial %v, parallel %v", sEnd, pEnd)
	}
	if sLog != pLog {
		t.Errorf("execution logs differ:\nserial:\n%s\nparallel:\n%s", sLog, pLog)
	}
	if sMet != pMet {
		t.Errorf("metrics differ:\nserial:\n%s\nparallel:\n%s", sMet, pMet)
	}
	if sTr != pTr {
		os.WriteFile("/tmp/sim_trace_serial.json", []byte(sTr), 0o644)
		os.WriteFile("/tmp/sim_trace_parallel.json", []byte(pTr), 0o644)
		t.Errorf("traces differ (serial %d bytes, parallel %d bytes)", len(sTr), len(pTr))
	}
}

// TestParallelHostShardRunsFirst pins the order the parallel driver keeps
// within a round: shard 0's window completes before any other shard's
// starts, as on the serial driver. Host-side control code on shard 0 reads
// state guest shards write (the fleet's SLO watchdog reads replica latency
// histograms), so overlapping the two made those reads depend on thread
// timing.
func TestParallelHostShardRunsFirst(t *testing.T) {
	run := func(parallel bool) string {
		c := NewCluster(23, 3, 10*time.Microsecond)
		c.SetParallel(parallel)
		var written atomic.Int64 // guest-side state the host side samples
		k0, k1 := c.Kernel(0), c.Kernel(1)
		k1.Spawn("guest-writer", func(p *Proc) {
			for i := 0; i < 4000; i++ {
				p.Sleep(time.Microsecond)
				written.Add(1)
			}
		})
		var seen []int64
		k0.Spawn("host-reader", func(p *Proc) {
			for i := 0; i < 80; i++ {
				p.Sleep(50 * time.Microsecond)
				seen = append(seen, written.Load())
			}
		})
		if _, err := c.Run(); err != nil {
			t.Fatalf("parallel=%v: %v", parallel, err)
		}
		return fmt.Sprint(seen)
	}
	want := run(false)
	for i := 0; i < 5; i++ {
		if got := run(true); got != want {
			t.Fatalf("parallel run %d: host shard saw guest state\n%s\nserial saw\n%s", i, got, want)
		}
	}
}

func TestParallelPanicPropagation(t *testing.T) {
	for _, parallel := range []bool{false, true} {
		c := NewCluster(3, 3, 10*time.Microsecond)
		c.SetParallel(parallel)
		c.Kernel(2).Spawn("boom", func(p *Proc) {
			p.Sleep(time.Millisecond)
			panic("shard 2 exploded")
		})
		got := func() (v any) {
			defer func() { v = recover() }()
			c.Run()
			return nil
		}()
		if got == nil {
			t.Fatalf("parallel=%v: expected panic to propagate", parallel)
		}
		if s := fmt.Sprint(got); s != `sim: proc "boom" panicked: shard 2 exploded` {
			t.Errorf("parallel=%v: panic = %q", parallel, s)
		}
	}
}

// TestParallelStopWithPendingMailbox stops the cluster while a cross-shard
// send is still parked in a mailbox, then restarts: the send must survive
// the stop and run at its original timestamp.
func TestParallelStopWithPendingMailbox(t *testing.T) {
	for _, parallel := range []bool{false, true} {
		c := NewCluster(5, 2, 10*time.Microsecond)
		c.SetParallel(parallel)
		k0, k1 := c.Kernel(0), c.Kernel(1)
		var deliveredAt Time
		k0.Spawn("sender", func(p *Proc) {
			p.Sleep(time.Millisecond)
			k0.Post(k1, 500*time.Microsecond, func() { deliveredAt = k1.Now() })
		})
		end, err := c.RunFor(1100 * time.Microsecond)
		if err != nil {
			t.Fatalf("parallel=%v: first leg: %v", parallel, err)
		}
		if end != Time(1100*time.Microsecond) {
			t.Errorf("parallel=%v: first leg ended at %v, want 1.1ms", parallel, end)
		}
		if deliveredAt != 0 {
			t.Errorf("parallel=%v: cross-shard send ran before its timestamp (at %v)", parallel, deliveredAt)
		}
		end, err = c.RunFor(time.Millisecond)
		if err != nil {
			t.Fatalf("parallel=%v: second leg: %v", parallel, err)
		}
		if deliveredAt != Time(1500*time.Microsecond) {
			t.Errorf("parallel=%v: send delivered at %v, want 1.5ms", parallel, deliveredAt)
		}
		if end != Time(2100*time.Microsecond) {
			t.Errorf("parallel=%v: clock after restart %v, want 2.1ms", parallel, end)
		}
		// Every shard clock must agree after RunFor (consistent restart).
		for i := 0; i < c.Shards(); i++ {
			if n := c.Kernel(i).Now(); n != end {
				t.Errorf("parallel=%v: shard %d clock %v, want %v", parallel, i, n, end)
			}
		}
	}
}

// TestStopAtExactEventTime pins the inclusive-limit semantics: an event
// scheduled exactly at the StopAt timestamp still runs, on both the plain
// kernel and the cluster.
func TestStopAtExactEventTime(t *testing.T) {
	k := NewKernel(1)
	var ran []string
	k.At(Time(time.Millisecond), func() { ran = append(ran, "at-limit") })
	k.At(Time(time.Millisecond)+1, func() { ran = append(ran, "past-limit") })
	k.StopAt(Time(time.Millisecond))
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(ran) != 1 || ran[0] != "at-limit" {
		t.Errorf("plain kernel ran %v, want [at-limit]", ran)
	}

	for _, parallel := range []bool{false, true} {
		c := NewCluster(1, 2, 10*time.Microsecond)
		c.SetParallel(parallel)
		ran = nil
		c.Kernel(1).At(Time(time.Millisecond), func() { ran = append(ran, "at-limit") })
		c.Kernel(1).At(Time(time.Millisecond)+1, func() { ran = append(ran, "past-limit") })
		c.Kernel(0).StopAt(Time(time.Millisecond))
		if _, err := c.Run(); err != nil {
			t.Fatal(err)
		}
		if len(ran) != 1 || ran[0] != "at-limit" {
			t.Errorf("parallel=%v: cluster ran %v, want [at-limit]", parallel, ran)
		}
	}
}

func TestParallelStopMidRun(t *testing.T) {
	for _, parallel := range []bool{false, true} {
		c := NewCluster(9, 3, 10*time.Microsecond)
		c.SetParallel(parallel)
		k1 := c.Kernel(1)
		ticks := 0
		k1.Spawn("ticker", func(p *Proc) {
			for {
				p.Sleep(100 * time.Microsecond)
				ticks++
				if ticks == 5 {
					k1.Stop()
					return
				}
			}
		})
		if _, err := c.Run(); err != nil {
			t.Fatalf("parallel=%v: %v", parallel, err)
		}
		if ticks != 5 {
			t.Errorf("parallel=%v: %d ticks, want 5", parallel, ticks)
		}
		if n := k1.Now(); n != Time(500*time.Microsecond) {
			t.Errorf("parallel=%v: stopped at %v, want 500µs", parallel, n)
		}
	}
}

func TestEventCancel(t *testing.T) {
	reg := obs.NewRegistry()
	k := NewKernel(1, Obs{Metrics: reg})
	fired := 0
	ev := k.After(time.Millisecond, func() { fired++ })
	if !ev.Pending() {
		t.Error("freshly scheduled event not Pending")
	}
	if !ev.Cancel() {
		t.Error("Cancel of pending event returned false")
	}
	if ev.Pending() {
		t.Error("cancelled event still Pending")
	}
	if ev.Cancel() {
		t.Error("second Cancel returned true")
	}
	keep := k.After(2*time.Millisecond, func() { fired += 10 })
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 10 {
		t.Errorf("fired = %d, want 10 (cancelled event must not run)", fired)
	}
	if keep.Cancel() {
		t.Error("Cancel after firing returned true")
	}
	if got := reg.Counter("sim_events_cancelled_total").Value(); got != 1 {
		t.Errorf("sim_events_cancelled_total = %d, want 1", got)
	}
}

// TestEventCancelReuse guards the generation check: once a cancelled
// event's slot is recycled into a new event, the stale handle must not be
// able to cancel the new occupant.
func TestEventCancelReuse(t *testing.T) {
	k := NewKernel(1)
	fired := 0
	ev := k.After(time.Millisecond, func() { fired++ })
	ev.Cancel()
	var evs []Event
	for i := 0; i < 8; i++ {
		evs = append(evs, k.After(time.Duration(i+1)*time.Millisecond, func() { fired++ }))
	}
	if ev.Cancel() || ev.Pending() {
		t.Error("stale handle still controls a recycled event")
	}
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 8 {
		t.Errorf("fired = %d, want 8", fired)
	}
	for _, e := range evs {
		if e.Pending() {
			t.Error("fired event still Pending")
		}
	}
}

// TestAdaptiveByteIdentityShardCounts pins serial/parallel byte-identity of
// the adaptive driver at the shard counts repro's -pcpus 1/2/4 produce
// (pcpus + the dom0 shard).
func TestAdaptiveByteIdentityShardCounts(t *testing.T) {
	for _, shards := range []int{2, 3, 5} {
		sLog, sEnd, sMet, sTr := clusterRunShards(t, false, shards)
		pLog, pEnd, pMet, pTr := clusterRunShards(t, true, shards)
		if sEnd != pEnd {
			t.Errorf("shards=%d: final time: serial %v, parallel %v", shards, sEnd, pEnd)
		}
		if sLog != pLog {
			t.Errorf("shards=%d: execution logs differ", shards)
		}
		if sMet != pMet {
			t.Errorf("shards=%d: metrics differ:\nserial:\n%s\nparallel:\n%s", shards, sMet, pMet)
		}
		if sTr != pTr {
			t.Errorf("shards=%d: traces differ (serial %d bytes, parallel %d bytes)", shards, len(sTr), len(pTr))
		}
	}
}

// TestAdaptiveWidthRampAndClamp drives the width controller through both
// regimes at the default caps: a quiet stretch of local-only timers long
// enough to widen the epochs past DefaultBusyCap, then a cross-shard burst
// mid-run that must clamp them straight back to it.
func TestAdaptiveWidthRampAndClamp(t *testing.T) {
	for _, parallel := range []bool{false, true} {
		reg := obs.NewRegistry()
		c := NewCluster(11, 2, 10*time.Microsecond, Obs{Metrics: reg})
		c.SetParallel(parallel)
		k0, k1 := c.Kernel(0), c.Kernel(1)

		const quietTicks = 500
		ticks := 0
		k1.Spawn("local-ticker", func(p *Proc) {
			for i := 0; i < quietTicks; i++ {
				p.Sleep(20 * time.Microsecond)
				ticks++
			}
		})
		if _, err := c.RunFor(quietTicks*20*time.Microsecond + time.Microsecond); err != nil {
			t.Fatalf("parallel=%v: quiet leg: %v", parallel, err)
		}
		if ticks != quietTicks {
			t.Errorf("parallel=%v: %d local ticks, want %d", parallel, ticks, quietTicks)
		}
		if m := c.WidthMult(); m <= DefaultBusyCap {
			t.Errorf("parallel=%v: width mult %d after quiet stretch, want > busy cap %d", parallel, m, DefaultBusyCap)
		}
		if w := reg.Counter("sim_cluster_width_widenings_total").Value(); w == 0 {
			t.Errorf("parallel=%v: no widenings recorded over a quiet stretch", parallel)
		}

		// A sustained burst: long enough to span many epochs, with the
		// RunFor limit landing while traffic is still flowing so the
		// clamped width is observable at the leg boundary.
		delivered := 0
		k0.Spawn("burster", func(p *Proc) {
			for i := 0; i < 200; i++ {
				p.Sleep(30 * time.Microsecond)
				k0.Post(k1, 0, func() { delivered++ })
			}
		})
		if _, err := c.RunFor(3 * time.Millisecond); err != nil {
			t.Fatalf("parallel=%v: burst leg: %v", parallel, err)
		}
		if delivered == 0 || delivered >= 200 {
			t.Errorf("parallel=%v: %d cross-shard sends delivered at the limit, want mid-burst", parallel, delivered)
		}
		if m := c.WidthMult(); m != DefaultBusyCap {
			t.Errorf("parallel=%v: width mult %d after burst, want clamp to busy cap %d", parallel, m, DefaultBusyCap)
		}
		if cl := reg.Counter("sim_cluster_width_clamps_total").Value(); cl == 0 {
			t.Errorf("parallel=%v: no clamps recorded across a quiet->traffic transition", parallel)
		}
	}
}

// TestAdaptiveElisionTimerPastHorizon parks one timer on an otherwise-idle
// shard well past the first epochs' horizon. The shard must be elided from
// early barriers (it has provably nothing to run), yet once the widened
// window reaches the timer the shard must be granted again and the timer
// must fire at exactly its natural timestamp.
func TestAdaptiveElisionTimerPastHorizon(t *testing.T) {
	for _, parallel := range []bool{false, true} {
		reg := obs.NewRegistry()
		c := NewCluster(3, 3, 10*time.Microsecond, Obs{Metrics: reg})
		c.SetParallel(parallel)

		k1, k2 := c.Kernel(1), c.Kernel(2)
		k1.Spawn("dense", func(p *Proc) {
			for i := 0; i < 100; i++ {
				p.Sleep(5 * time.Microsecond)
			}
		})
		var firedAt Time
		k2.At(Time(300*time.Microsecond), func() { firedAt = k2.Now() })

		if _, err := c.Run(); err != nil {
			t.Fatalf("parallel=%v: %v", parallel, err)
		}
		if firedAt != Time(300*time.Microsecond) {
			t.Errorf("parallel=%v: parked timer fired at %v, want exactly 300µs", parallel, firedAt)
		}
		if el := reg.Counter("sim_cluster_barriers_elided_total").Value(); el == 0 {
			t.Errorf("parallel=%v: quiet shard was never elided from a barrier", parallel)
		}
	}
}

// TestAdaptiveStopAtInsideWidenedEpoch lets the quiet controller widen the
// windows, then checks a RunFor limit landing mid-window: events up to the
// limit run, events past it stay parked, and every shard clock aligns on
// the limit so the next leg resumes consistently.
func TestAdaptiveStopAtInsideWidenedEpoch(t *testing.T) {
	for _, parallel := range []bool{false, true} {
		c := NewCluster(13, 3, 10*time.Microsecond)
		c.SetParallel(parallel)
		k1 := c.Kernel(1)
		ticks := 0
		k1.Spawn("ticker", func(p *Proc) {
			for i := 0; i < 100; i++ {
				p.Sleep(20 * time.Microsecond)
				ticks++
			}
		})
		end, err := c.RunFor(1010 * time.Microsecond)
		if err != nil {
			t.Fatalf("parallel=%v: first leg: %v", parallel, err)
		}
		if c.WidthMult() <= 1 {
			t.Fatalf("parallel=%v: width never widened (mult %d); limit did not land inside a widened epoch", parallel, c.WidthMult())
		}
		if ticks != 50 {
			t.Errorf("parallel=%v: %d ticks at the limit, want 50", parallel, ticks)
		}
		if end != Time(1010*time.Microsecond) {
			t.Errorf("parallel=%v: first leg ended at %v, want 1.01ms", parallel, end)
		}
		for i := 0; i < c.Shards(); i++ {
			if n := c.Kernel(i).Now(); n != end {
				t.Errorf("parallel=%v: shard %d clock %v, want %v", parallel, i, n, end)
			}
		}
		if _, err := c.RunFor(time.Millisecond); err != nil {
			t.Fatalf("parallel=%v: second leg: %v", parallel, err)
		}
		if ticks != 100 {
			t.Errorf("parallel=%v: %d ticks after resume, want 100", parallel, ticks)
		}
	}
}

// TestMailboxSliceReuse pins the allocation fix: after the first barrier a
// mailbox drain must recycle the previous drain's backing array, counted in
// sim_cluster_mailbox_reuse_total.
func TestMailboxSliceReuse(t *testing.T) {
	reg := obs.NewRegistry()
	c := NewCluster(17, 2, 10*time.Microsecond, Obs{Metrics: reg})
	k0 := c.Kernel(0)
	k1 := c.Kernel(1)
	k0.Spawn("sender", func(p *Proc) {
		for i := 0; i < 20; i++ {
			p.Sleep(200 * time.Microsecond) // separate epochs: one drain each
			k0.Post(k1, 0, func() {})
		}
	})
	if _, err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("sim_cluster_mailbox_reuse_total").Value(); got == 0 {
		t.Error("sim_cluster_mailbox_reuse_total = 0, want recycled drains")
	}
}

// TestStaticScheduleConservative pins the SetAdaptive(false) escape hatch:
// the static conservative windows never produce a late delivery, never
// widen, never need delivery rounds — and stay byte-identical between the
// serial and parallel drivers.
func TestStaticScheduleConservative(t *testing.T) {
	run := func(parallel bool) (string, string) {
		tr := obs.NewTracer(obs.DefaultCap)
		tr.Enable()
		reg := obs.NewRegistry()
		c := NewCluster(19, 3, 10*time.Microsecond, Obs{Trace: tr, Metrics: reg})
		c.SetParallel(parallel)
		c.SetAdaptive(false)
		for i := 0; i < 3; i++ {
			i := i
			k := c.Kernel(i)
			k.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				for j := 0; j < 30; j++ {
					p.Sleep(time.Duration(1+k.Rand().Intn(40)) * time.Microsecond)
					k.Post(c.Kernel((i+1)%3), time.Duration(k.Rand().Intn(15))*time.Microsecond, func() {})
				}
			})
		}
		if _, err := c.Run(); err != nil {
			t.Fatalf("parallel=%v: %v", parallel, err)
		}
		for _, name := range []string{
			"sim_cluster_late_deliveries_total",
			"sim_cluster_width_widenings_total",
			"sim_cluster_rounds_total",
		} {
			if v := reg.Counter(name).Value(); v != 0 {
				t.Errorf("parallel=%v: %s = %d, want 0 under the static schedule", parallel, name, v)
			}
		}
		return reg.Snapshot().Format(), fmt.Sprint(c.Now())
	}
	sMet, sEnd := run(false)
	pMet, pEnd := run(true)
	if sMet != pMet || sEnd != pEnd {
		t.Errorf("static serial/parallel diverge:\nserial end %s\n%s\nparallel end %s\n%s", sEnd, sMet, pEnd, pMet)
	}
}
