package bench

import (
	"fmt"
	"time"

	"repro/internal/build"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/httpd"
	"repro/internal/hypervisor"
	"repro/internal/ipv4"
	"repro/internal/lwt"
	"repro/internal/netstack"
	"repro/internal/obs"
)

// ScaleSweep drives stepped offered load (httperf-style sessions, §4.4)
// against two platforms sharing one seed: an autoscaled fleet that summons
// web-server replicas on demand behind the virtual balancer (§5.2), and a
// fixed single-replica baseline. The fleet should hold tail latency as the
// load steps up; the baseline should degrade. Per phase it reports
// client-observed p50/p99 and goodput, plus the fleet's replica high-water
// mark and boot-to-first-byte for every summoned replica.

var (
	swVIP    = ipv4.AddrFrom4(10, 0, 0, 100)
	swBaseIP = ipv4.AddrFrom4(10, 0, 0, 10)
	swLBIP   = ipv4.AddrFrom4(10, 0, 0, 99)
)

// swPhase is one step of offered load.
type swPhase struct {
	sessPerSec int           // session arrival rate across all clients
	reqs       int           // requests per session (one keep-alive conn)
	think      time.Duration // client think time between requests
	dur        time.Duration
}

// swStats accumulates client-observed results for one phase. reqsDone
// counts only requests completing inside the phase window, so goodput
// penalises an overloaded server that spills work past its step.
type swStats struct {
	lats     []float64 // per-request latency, µs
	reqsDone int
	sessOK   int
	sessFail int
}

// mergeSweepStats folds the load generators' per-phase stats into one per
// phase. Each client records into its own stats (clients run on different
// pCPU shards, possibly on different OS threads), and the quantiles sort
// their samples, so the merge order does not matter.
func mergeSweepStats(clients [][]*swStats) []*swStats {
	out := make([]*swStats, len(clients[0]))
	for p := range out {
		m := &swStats{}
		for _, c := range clients {
			m.lats = append(m.lats, c[p].lats...)
			m.reqsDone += c[p].reqsDone
			m.sessOK += c[p].sessOK
			m.sessFail += c[p].sessFail
		}
		out[p] = m
	}
	return out
}

func swPhases(quick bool) []swPhase {
	if quick {
		return []swPhase{
			{sessPerSec: 10, reqs: 8, think: 25 * time.Millisecond, dur: 1500 * time.Millisecond},
			{sessPerSec: 40, reqs: 8, think: 25 * time.Millisecond, dur: 1500 * time.Millisecond},
			{sessPerSec: 90, reqs: 8, think: 25 * time.Millisecond, dur: 1500 * time.Millisecond},
		}
	}
	return []swPhase{
		{sessPerSec: 30, reqs: 8, think: 25 * time.Millisecond, dur: 3 * time.Second},
		{sessPerSec: 100, reqs: 8, think: 25 * time.Millisecond, dur: 3 * time.Second},
		{sessPerSec: 200, reqs: 8, think: 25 * time.Millisecond, dur: 3 * time.Second},
		{sessPerSec: 350, reqs: 8, think: 25 * time.Millisecond, dur: 3 * time.Second},
	}
}

// swRun is the outcome of one platform run.
type swRun struct {
	stats   []*swStats
	peak    []int // per-phase peak live replicas
	fleet   *fleet.Fleet
	metrics []string
	domstat string // final per-domain accounting table
}

// sweepSession runs one keep-alive session against the VIP, recording each
// request's client-observed latency (write to parsed response) into st.
// span, when nonzero, samples the session for causal tracing: the trace id
// rides the connection as descriptor metadata and the client emits the flow
// start/end events bracketing the cross-domain arc.
func sweepSession(env *core.Env, st *swStats, reqs int, think time.Duration,
	phaseEnd time.Duration, span uint64, done func()) {
	s := env.VM.S
	tr := s.K.Trace()
	pid := env.VM.Dom.ID
	if span != 0 && tr.Enabled() {
		tr.FlowStart(obs.Time(s.K.Now()), "trace", "client-session", pid, 0, span,
			obs.U64("trace_id", span))
	}
	sessStart := s.K.Now()
	finish := func() {
		if span != 0 && tr.Enabled() {
			tr.SpanSlice(obs.Time(sessStart), obs.Time(s.K.Now().Sub(sessStart)),
				"client", "session", pid, 0, obs.NewRootSpan(span))
			tr.FlowEnd(obs.Time(s.K.Now()), "trace", "client-session", pid, 0, span,
				obs.U64("trace_id", span))
		}
		done()
	}
	env.Net.TCP.NextSpan = span
	cn := env.Net.TCP.Connect(swVIP, 80)
	lwt.Always(cn, func() {
		if cn.Failed() != nil {
			st.sessFail++
			finish()
			return
		}
		c := cn.Value()
		var buf []byte
		abort := func() {
			st.sessFail++
			c.Close()
			finish()
		}
		readResp := func(then func(*httpd.Response)) {
			var step func()
			step = func() {
				if resp, n, err := httpd.ParseResponse(buf); err != nil {
					then(nil)
					return
				} else if resp != nil {
					buf = buf[n:]
					then(resp)
					return
				}
				rd := c.Read(64 << 10)
				lwt.Always(rd, func() {
					if rd.Failed() != nil || len(rd.Value()) == 0 {
						then(nil)
						return
					}
					buf = append(buf, rd.Value()...)
					step()
				})
			}
			step()
		}
		var issue func(i int)
		issue = func(i int) {
			if i == reqs {
				c.Close()
				st.sessOK++
				finish()
				return
			}
			start := s.K.Now()
			wr := c.Write(httpd.EncodeRequest(&httpd.Request{Method: "GET", Path: "/"}))
			lwt.Always(wr, func() {
				if wr.Failed() != nil {
					abort()
					return
				}
				readResp(func(resp *httpd.Response) {
					if resp == nil {
						abort()
						return
					}
					st.lats = append(st.lats, float64(s.K.Now().Sub(start).Microseconds()))
					if s.K.Now().Duration() <= phaseEnd {
						st.reqsDone++
					}
					if i+1 == reqs {
						issue(i + 1)
						return
					}
					lwt.Map(s.Sleep(think), func(struct{}) struct{} {
						issue(i + 1)
						return struct{}{}
					})
				})
			})
		}
		issue(0)
	})
}

// deploySweepClient deploys one load-generator guest. It launches its share
// of each phase's sessions (index mod nClients) at deterministic arrival
// offsets from warmup, and returns the per-phase stats only this guest
// writes (see mergeSweepStats).
func deploySweepClient(pl *core.Platform, idx, nClients int, phases []swPhase,
	warmup time.Duration) []*swStats {
	stats := make([]*swStats, len(phases))
	for p := range stats {
		stats[p] = &swStats{}
	}
	type launch struct {
		at    time.Duration
		end   time.Duration
		phase int
		span  uint64 // nonzero samples the session for causal tracing
	}
	var plan []launch
	base := warmup
	for p, ph := range phases {
		total := ph.sessPerSec * int(ph.dur/time.Second)
		if rem := ph.dur % time.Second; rem != 0 {
			total += ph.sessPerSec * int(rem) / int(time.Second)
		}
		gap := ph.dur / time.Duration(total)
		for j := 0; j < total; j++ {
			if j%nClients != idx {
				continue
			}
			ln := launch{at: base + time.Duration(j)*gap, end: base + ph.dur, phase: p}
			if j == idx {
				// Sample each client's first session per phase: the trace id
				// is derived from (client, phase, slot) alone, so the same
				// seed traces the same requests in serial and parallel runs.
				ln.span = obs.TraceID(uint32(idx+1), uint32(p+1)<<16|uint32(j+1))
			}
			plan = append(plan, ln)
		}
		base += ph.dur
	}
	pl.Deploy(core.Unikernel{
		Build:  build.Config{Name: fmt.Sprintf("loadgen-%d", idx), Roots: []string{"http"}},
		Memory: 64 << 20,
		Main: func(env *core.Env) int {
			all := lwt.NewPromise[struct{}](env.VM.S)
			pending := len(plan)
			done := func() {
				pending--
				if pending == 0 {
					all.Resolve(struct{}{})
				}
			}
			for _, ln := range plan {
				ln := ln
				ph := phases[ln.phase]
				lwt.Map(env.VM.S.Sleep(ln.at), func(struct{}) struct{} {
					sweepSession(env, stats[ln.phase], ph.reqs, ph.think, ln.end, ln.span, done)
					return struct{}{}
				})
			}
			if pending == 0 {
				all.Resolve(struct{}{})
			}
			return env.VM.Main(env.P, all)
		},
	}, core.DeployOpts{
		Net: &netstack.Config{
			MAC: core.MAC(0x20 + byte(idx)), IP: ipv4.AddrFrom4(10, 0, 0, 200+uint8(idx)),
			Netmask: benchMask,
		},
		PCPU: -1,
	})
	return stats
}

// scalesweepRun boots one fleet (Min..Max replicas) and drives the phased
// load at it, sampling the live-replica count through the run.
func scalesweepRun(rc core.RunConfig, seed int64, minR, maxR int, policy fleet.Policy,
	phases []swPhase, handlerCost time.Duration) *swRun {
	pl := core.NewPlatform(seed, rc)
	before := pl.K.Metrics().Snapshot()
	f := fleet.New(pl, fleet.Spec{
		Name:          "web",
		Build:         build.WebAppliance(),
		Memory:        64 << 20,
		Main:          fleet.WebMain(handlerCost, []byte("<html>unikernel fleet</html>"), 250*time.Millisecond),
		VIP:           swVIP,
		BaseIP:        swBaseIP,
		Netmask:       benchMask,
		LBIP:          swLBIP,
		MACBase:       0x40,
		Min:           minR,
		Max:           maxR,
		Policy:        policy,
		ScaleUpConns:  16,
		P99TargetUS:   10_000, // tight enough that burst phases trip the SLO watchdog
		Interval:      250 * time.Millisecond,
		ProbeInterval: 50 * time.Millisecond,
	})

	run := &swRun{fleet: f, peak: make([]int, len(phases))}
	const warmup = 2 * time.Second
	const nClients = 4
	var clients [][]*swStats
	for c := 0; c < nClients; c++ {
		clients = append(clients, deploySweepClient(pl, c, nClients, phases, warmup))
	}

	// Sample the live-replica count every 100ms, folding each sample into
	// the phase whose window covers it.
	end := warmup
	for _, ph := range phases {
		end += ph.dur
	}
	var sample func()
	sample = func() {
		now := pl.K.Now().Duration()
		base := warmup
		for p, ph := range phases {
			if now >= base && now < base+ph.dur {
				if live := f.Live(); live > run.peak[p] {
					run.peak[p] = live
				}
			}
			base += ph.dur
		}
		if now < end {
			pl.K.After(100*time.Millisecond, sample)
		}
	}
	pl.K.After(warmup, sample)

	// Tail: let in-flight sessions finish and the fleet scale back down.
	if _, err := pl.RunFor(end + 8*time.Second); err != nil {
		panic(fmt.Sprintf("scalesweep: %v", err))
	}
	if err := pl.Check(); err != nil {
		panic(fmt.Sprintf("scalesweep: %v", err))
	}
	run.stats = mergeSweepStats(clients)
	// Per-domain accounting: publish labeled gauges and keep the table (the
	// virtual xentop) — both derived from virtual-time state, so they are
	// byte-identical across same-seed serial and parallel runs.
	pl.Host.PublishDomStats(pl.K.Metrics())
	run.domstat = hypervisor.FormatDomStats(pl.Host.DomStats())
	run.metrics = metricsAppendix(pl.K, before, "fleet_", "lb_", "httpd_")
	return run
}

// ScaleSweep runs the sweep against the autoscaled fleet (minR..maxR) and
// the fixed single-replica baseline, same seed, and reports both.
func ScaleSweep(rc core.RunConfig, seed int64, quick bool, minR, maxR int, policy fleet.Policy) *Result {
	r, _ := ScaleSweepDomStat(rc, seed, quick, minR, maxR, policy)
	return r
}

// ScaleSweepDomStat is ScaleSweep plus the autoscaled run's final domstat
// table (per-domain vCPU time, runqueue wait, notifications, pool usage).
func ScaleSweepDomStat(rc core.RunConfig, seed int64, quick bool, minR, maxR int, policy fleet.Policy) (*Result, string) {
	if minR <= 0 {
		minR = 1
	}
	if maxR <= 0 {
		maxR = 4
		if quick {
			maxR = 3
		}
	}
	phases := swPhases(quick)
	handlerCost := time.Millisecond
	if quick {
		handlerCost = 2 * time.Millisecond
	}

	auto := scalesweepRun(rc, seed, minR, maxR, policy, phases, handlerCost)
	fixed := scalesweepRun(rc, seed, 1, 1, policy, phases, handlerCost)

	res := &Result{
		ID:     "scalesweep",
		Title:  "Autoscaled fleet vs fixed appliance under stepped load",
		XLabel: "offered req/s",
		YLabel: "ms / req/s / replicas",
	}
	series := []struct {
		name string
		f    func(p int) float64
	}{
		{"fleet p99 ms", func(p int) float64 { return quantile(auto.stats[p].lats, 0.99) / 1000 }},
		{"fixed p99 ms", func(p int) float64 { return quantile(fixed.stats[p].lats, 0.99) / 1000 }},
		{"fleet p50 ms", func(p int) float64 { return quantile(auto.stats[p].lats, 0.50) / 1000 }},
		{"fixed p50 ms", func(p int) float64 { return quantile(fixed.stats[p].lats, 0.50) / 1000 }},
		{"fleet goodput", func(p int) float64 {
			return float64(auto.stats[p].reqsDone) / phases[p].dur.Seconds()
		}},
		{"fixed goodput", func(p int) float64 {
			return float64(fixed.stats[p].reqsDone) / phases[p].dur.Seconds()
		}},
		{"fleet replicas", func(p int) float64 { return float64(auto.peak[p]) }},
	}
	for _, sp := range series {
		s := Series{Name: sp.name}
		for p, ph := range phases {
			s.X = append(s.X, float64(ph.sessPerSec*ph.reqs))
			s.Y = append(s.Y, sp.f(p))
		}
		res.Series = append(res.Series, s)
	}

	res.Notes = append(res.Notes, fmt.Sprintf(
		"fleet %d..%d replicas, policy %s, handler %v, seed %d; baseline fixed at 1 replica",
		minR, maxR, policy, handlerCost, seed))
	for p, ph := range phases {
		res.Notes = append(res.Notes, fmt.Sprintf(
			"phase %d (%d req/s offered): fleet sessions ok=%d fail=%d, fixed ok=%d fail=%d",
			p, ph.sessPerSec*ph.reqs,
			auto.stats[p].sessOK, auto.stats[p].sessFail,
			fixed.stats[p].sessOK, fixed.stats[p].sessFail))
	}
	res.Notes = append(res.Notes, fmt.Sprintf(
		"fleet boot-to-first-byte ms by replica: %v (-1 = never served)",
		auto.fleet.BootToFirstByteMS()))
	for _, e := range auto.fleet.Events {
		res.Notes = append(res.Notes, "fleet "+e)
	}
	res.Metrics = auto.metrics
	return res, auto.domstat
}
