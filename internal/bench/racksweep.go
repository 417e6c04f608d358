package bench

import (
	"fmt"
	"time"

	"repro/internal/build"
	"repro/internal/core"
	"repro/internal/datacenter"
	"repro/internal/fleet"
	"repro/internal/sim"
)

// RackSweep exercises the multi-host failure domains the paper's fleet
// story depends on (§5.2, §6): three hosts — clients and the balancer on
// h0, web replicas spread across h1 and h2 behind a ToR/spine fabric —
// under steady load through three phases:
//
//	phase 0  steady state, replicas split across both hosts
//	phase 1  live migration: one replica moves h1 -> h2 (cross-rack, so
//	         the snapshot copy crosses the spine) under load; the
//	         freeze-to-serving blackout is measured
//	phase 2  whole-host kill: h1 dies with everything on it; the fleet
//	         heals onto the survivor and serving capacity recovers
//
// Everything runs on virtual time, so the per-phase latencies, the
// blackout and the fabric counters are byte-identical across same-seed
// serial and parallel runs.

// rkConfig sizes one racksweep run.
type rkConfig struct {
	sessPerSec int
	reqs       int
	think      time.Duration
	durs       [3]time.Duration // per-phase lengths
	migInto    time.Duration    // migration instant, offset into phase 1
	killInto   time.Duration    // host-kill instant, offset into phase 2
	tail       time.Duration
}

func rkConfigFor(quick bool) rkConfig {
	if quick {
		return rkConfig{
			sessPerSec: 16, reqs: 8, think: 25 * time.Millisecond,
			durs:    [3]time.Duration{1500 * time.Millisecond, 1500 * time.Millisecond, 2500 * time.Millisecond},
			migInto: 500 * time.Millisecond, killInto: 300 * time.Millisecond,
			tail: 6 * time.Second,
		}
	}
	return rkConfig{
		sessPerSec: 40, reqs: 8, think: 25 * time.Millisecond,
		durs:    [3]time.Duration{3 * time.Second, 3 * time.Second, 4 * time.Second},
		migInto: time.Second, killInto: 500 * time.Millisecond,
		tail: 8 * time.Second,
	}
}

// RackSweep runs the three-phase rack scenario and reports per-phase
// client-observed latency and goodput, the live-replica envelope (the
// kill's dip and the heal's recovery), the measured migration blackout and
// the fabric's forwarding accounting.
func RackSweep(rc core.RunConfig, seed int64, quick bool) *Result {
	cfg := rkConfigFor(quick)

	pl := core.NewPlatform(seed, rc)
	pl.AddHost("h1")
	pl.AddHost("h2")
	// Default topology: two hosts per rack, so h0+h1 share a ToR and h2
	// sits in the second rack — the h1->h2 migration crosses the spine.
	dc := datacenter.New(pl, datacenter.Topology{})
	before := pl.K.Metrics().Snapshot()

	handlerCost := time.Millisecond
	if quick {
		handlerCost = 2 * time.Millisecond
	}
	f := fleet.New(pl, fleet.Spec{
		Name:          "web",
		Build:         build.WebAppliance(),
		Memory:        64 << 20,
		Main:          fleet.WebMain(handlerCost, []byte("<html>unikernel rack</html>"), 250*time.Millisecond),
		VIP:           swVIP,
		BaseIP:        swBaseIP,
		Netmask:       benchMask,
		LBIP:          swLBIP,
		MACBase:       0x40,
		Min:           3,
		Max:           5,
		Policy:        fleet.LeastConns,
		Hosts:         []string{"h1", "h2"}, // web-0 h1, web-1 h2, web-2 h1
		ScaleUpConns:  16,
		Interval:      250 * time.Millisecond,
		ProbeInterval: 50 * time.Millisecond,
	})

	const warmup = 2 * time.Second
	const nClients = 4
	phases := []swPhase{
		{sessPerSec: cfg.sessPerSec, reqs: cfg.reqs, think: cfg.think, dur: cfg.durs[0]},
		{sessPerSec: cfg.sessPerSec, reqs: cfg.reqs, think: cfg.think, dur: cfg.durs[1]},
		{sessPerSec: cfg.sessPerSec, reqs: cfg.reqs, think: cfg.think, dur: cfg.durs[2]},
	}
	var clients [][]*swStats
	for c := 0; c < nClients; c++ {
		clients = append(clients, deploySweepClient(pl, c, nClients, phases, warmup))
	}

	// Phase 1: live-migrate web-0 (on h1) to h2 under load.
	var blackout time.Duration
	var migErr error
	tMig := warmup + cfg.durs[0] + cfg.migInto
	pl.K.After(tMig, func() {
		pl.K.Spawn("migrator", func(p *sim.Proc) {
			r := f.ReplicaByName("web-0")
			if r == nil {
				migErr = fmt.Errorf("racksweep: no replica web-0 to migrate")
				return
			}
			if r.Host() != "h1" {
				migErr = fmt.Errorf("racksweep: web-0 not on h1 before migration (host %q)", r.Host())
				return
			}
			blackout, migErr = dc.Migrate(p, f, r, "h2")
		})
	})

	// Phase 2: kill h1 outright — web-2 dies with its host; web-0 and
	// web-1 keep serving from h2 and the fleet heals there.
	tKill := warmup + cfg.durs[0] + cfg.durs[1] + cfg.killInto
	pl.K.After(tKill, func() {
		if err := dc.KillHost("h1"); err != nil {
			panic(fmt.Sprintf("racksweep: %v", err))
		}
	})

	// Sample the live-replica count every 100ms into a per-phase envelope:
	// the minimum shows the kill's capacity dip, the peak the heal.
	minLive := []int{1 << 30, 1 << 30, 1 << 30}
	peakLive := []int{0, 0, 0}
	end := warmup + cfg.durs[0] + cfg.durs[1] + cfg.durs[2]
	var sample func()
	sample = func() {
		now := pl.K.Now().Duration()
		base := warmup
		for p, ph := range phases {
			if now >= base && now < base+ph.dur {
				live := f.Live()
				if live < minLive[p] {
					minLive[p] = live
				}
				if live > peakLive[p] {
					peakLive[p] = live
				}
			}
			base += ph.dur
		}
		if now < end {
			pl.K.After(100*time.Millisecond, sample)
		}
	}
	pl.K.After(warmup, sample)

	if _, err := pl.RunFor(end + cfg.tail); err != nil {
		panic(fmt.Sprintf("racksweep: %v", err))
	}
	if err := pl.Check(); err != nil {
		panic(fmt.Sprintf("racksweep: %v", err))
	}
	stats := mergeSweepStats(clients)

	// Hard invariants: these are what the experiment exists to show, so a
	// run that misses them is broken, not merely slow.
	if migErr != nil {
		panic(fmt.Sprintf("racksweep: migration failed: %v", migErr))
	}
	if blackout <= 0 || blackout > 5*time.Millisecond {
		panic(fmt.Sprintf("racksweep: blackout %v outside (0, 5ms]", blackout))
	}
	if h := f.ReplicaByName("web-0").Host(); h != "h2" {
		panic(fmt.Sprintf("racksweep: web-0 on %q after migration, want h2", h))
	}
	if f.Live() < 3 {
		panic(fmt.Sprintf("racksweep: fleet did not heal: %d live replicas after host kill", f.Live()))
	}
	for _, r := range f.Replicas() {
		if (r.State == fleet.Healthy || r.State == fleet.Booting) && r.Host() != "h2" {
			panic(fmt.Sprintf("racksweep: live replica %s on dead host %q", r.Name, r.Host()))
		}
	}

	res := &Result{
		ID:     "racksweep",
		Title:  "Multi-host rack: live migration and whole-host failure",
		XLabel: "phase",
		YLabel: "ms / req/s / replicas",
	}
	series := []struct {
		name string
		f    func(p int) float64
	}{
		{"p99 ms", func(p int) float64 { return quantile(stats[p].lats, 0.99) / 1000 }},
		{"p50 ms", func(p int) float64 { return quantile(stats[p].lats, 0.50) / 1000 }},
		{"goodput req/s", func(p int) float64 {
			return float64(stats[p].reqsDone) / phases[p].dur.Seconds()
		}},
		{"live replicas min", func(p int) float64 { return float64(minLive[p]) }},
		{"live replicas peak", func(p int) float64 { return float64(peakLive[p]) }},
	}
	for _, sp := range series {
		s := Series{Name: sp.name}
		for p := range phases {
			s.X = append(s.X, float64(p))
			s.Y = append(s.Y, sp.f(p))
		}
		res.Series = append(res.Series, s)
	}

	res.Notes = append(res.Notes,
		fmt.Sprintf("hosts h0 (clients+LB), h1, h2; racks {h0,h1} {h2}; %d req/s offered; seed %d",
			cfg.sessPerSec*cfg.reqs, seed),
		"phase 0 steady; phase 1 live-migrates web-0 h1->h2 across the spine; phase 2 kills h1",
		fmt.Sprintf("migration blackout %d us (freeze to serving again on h2)",
			blackout.Microseconds()),
		fmt.Sprintf("fabric: forwards=%d floods=%d steers=%d unknown-floods=%d drops=%d",
			dc.Forwards, dc.Floods, dc.Steers, dc.UnknownFloods, dc.Drops),
		fmt.Sprintf("migrations=%d host-kills=%d", dc.Migrations, dc.HostKills))
	for p := range phases {
		res.Notes = append(res.Notes, fmt.Sprintf(
			"phase %d: sessions ok=%d fail=%d", p, stats[p].sessOK, stats[p].sessFail))
	}
	res.Notes = append(res.Notes, fmt.Sprintf(
		"boot-to-first-byte ms by replica: %v (-1 = never served)", f.BootToFirstByteMS()))
	for _, e := range f.Events {
		res.Notes = append(res.Notes, "fleet "+e)
	}
	res.Metrics = metricsAppendix(pl.K, before, "dc_", "fleet_", "lb_")
	return res
}
