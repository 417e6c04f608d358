package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/build"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/httpd"
	"repro/internal/ipv4"
	"repro/internal/lwt"
	"repro/internal/netstack"
	"repro/internal/sim"
)

// web-fleet: open-loop httperf-style sessions against the autoscaled web
// fleet (balancer + 1..4 replicas), stepping the offered rate through
// 240 / 800 / 1600 / 2800 req/s. Each session is one keep-alive
// connection of eight GETs with 25 ms think time. End-to-end latency and
// goodput come from the top step; the SLO rate is the highest step whose
// p99 meets the fleet's own 10 ms target with no failures.

var (
	webVIP    = ipv4.AddrFrom4(10, 0, 0, 100)
	webBaseIP = ipv4.AddrFrom4(10, 0, 0, 10)
	webLBIP   = ipv4.AddrFrom4(10, 0, 0, 99)
	webMask   = ipv4.AddrFrom4(255, 255, 255, 0)
)

const (
	webClients    = 4
	webReqs       = 8
	webThink      = 25 * time.Millisecond
	webSLO        = 10 * time.Millisecond
	webHandler    = time.Millisecond
	webSetup      = 2 * time.Second // boots, fleet Min replicas, one warm-up GET per client
	webWarmupAt   = 1500 * time.Millisecond
	webTail       = 2 * time.Second // lets the last sessions finish
	webSampleTick = 10 * time.Millisecond
)

// webStepRates are the offered session rates (sessions/s); eight requests
// each gives 240 / 800 / 1600 / 2800 req/s.
var webStepRates = []int{30, 100, 200, 350}

type webSession struct {
	at   time.Duration // arrival, from the start of the timed phase
	step int
	id   int
}

type webIn struct {
	seed     int64
	stepDur  time.Duration
	sessions [][]webSession // per client, in arrival order
	body     []byte
}

// webInputs draws each step's session arrivals as a fixed number of
// uniformly placed instants (rate x step length), dealt to the four load
// generators round-robin in arrival order, and a seeded response body.
func webInputs(seed int64, size float64) any {
	rng := rand.New(rand.NewSource(seed))
	in := &webIn{seed: seed, stepDur: time.Duration(size * float64(6*time.Second))}
	in.sessions = make([][]webSession, webClients)
	var all []webSession
	for s, rate := range webStepRates {
		n := int(float64(rate) * in.stepDur.Seconds())
		base := time.Duration(s) * in.stepDur
		var ats []time.Duration
		for i := 0; i < n; i++ {
			ats = append(ats, base+time.Duration(rng.Int63n(int64(in.stepDur))))
		}
		sort.Slice(ats, func(i, j int) bool { return ats[i] < ats[j] })
		for _, at := range ats {
			all = append(all, webSession{at: at, step: s, id: len(all)})
		}
	}
	for i, ss := range all {
		in.sessions[i%webClients] = append(in.sessions[i%webClients], ss)
	}
	body := make([]byte, 48)
	const alphabet = "abcdefghijklmnopqrstuvwxyz0123456789"
	for i := range body {
		body[i] = alphabet[rng.Intn(len(alphabet))]
	}
	in.body = []byte(fmt.Sprintf("<html>%s</html>", body))
	return in
}

// webStats is one load generator's record of the timed phase, per step.
// Each client owns its own, so sharded drives never share benchmark state.
type webStats struct {
	lats     [][]float64 // per step: request latency from when it was due, µs
	inWindow []int       // per step: requests completed inside the step
	failed   []int       // per step: requests not completed (failed sessions)
	late     []float64   // session start minus scheduled arrival, µs
	pending  int         // sessions not yet finished
	checkErr error
	spans    *spanLog
}

func runWeb(v any, cfg runCfg) (*runOut, error) {
	in := v.(*webIn)
	out := &runOut{}
	clk := startSetup(&out.rep, cfg.trace)
	pl := newPlatform(in.seed, cfg)
	f := fleet.New(pl, fleet.Spec{
		Name:          "web",
		Build:         build.WebAppliance(),
		Memory:        64 << 20,
		Main:          fleet.WebMain(webHandler, in.body, 250*time.Millisecond),
		VIP:           webVIP,
		BaseIP:        webBaseIP,
		Netmask:       webMask,
		LBIP:          webLBIP,
		MACBase:       0x40,
		Min:           1,
		Max:           4,
		ScaleUpConns:  16,
		P99TargetUS:   float64(webSLO / time.Microsecond),
		Interval:      250 * time.Millisecond,
		ProbeInterval: 50 * time.Millisecond,
	})
	stepEnd := func(s int) time.Duration { return webSetup + time.Duration(s+1)*in.stepDur }
	timed := time.Duration(len(webStepRates))*in.stepDur + webTail

	stats := make([]*webStats, webClients)
	warm := make([]error, webClients)
	for c := range stats {
		st := &webStats{
			lats:     make([][]float64, len(webStepRates)),
			inWindow: make([]int, len(webStepRates)),
			failed:   make([]int, len(webStepRates)),
			pending:  len(in.sessions[c]),
		}
		if cfg.trace != nil {
			st.spans = new(spanLog)
		}
		stats[c] = st
		deployLoadgen(pl, c, in, st, &warm[c], stepEnd)
	}

	// Integrate live replicas over the timed phase.
	var replicaTicks int
	var sample func()
	sample = func() {
		replicaTicks += f.Live()
		if pl.K.Now().Duration()+webSampleTick < webSetup+timed {
			pl.K.After(webSampleTick, sample)
		}
	}
	pl.K.At(sim.Time(webSetup), sample)

	err := phase(pl, clk, webSetup, timed, layerMap(&out.Virt))
	if err != nil && !isCheck(err) {
		return nil, fmt.Errorf("web: %w", err)
	}
	out.err = err

	v0 := &out.Virt
	v0.ReplicaS = float64(replicaTicks) * webSampleTick.Seconds()
	var late []float64
	stepLats := make([][]float64, len(webStepRates))
	inWindow := make([]int, len(webStepRates))
	failed := make([]int, len(webStepRates))
	for c, st := range stats {
		if warm[c] != nil && out.err == nil {
			out.err = fmt.Errorf("%w: warm-up request of loadgen-%d: %v", errCheck, c, warm[c])
		}
		if st.checkErr != nil && out.err == nil {
			out.err = st.checkErr
		}
		if st.pending != 0 && out.err == nil {
			out.err = fmt.Errorf("%w: loadgen-%d: %d sessions still open at the end of the run", errCheck, c, st.pending)
		}
		late = append(late, st.late...)
		for s := range webStepRates {
			stepLats[s] = append(stepLats[s], st.lats[s]...)
			inWindow[s] += st.inWindow[s]
			failed[s] += st.failed[s]
		}
	}
	top := len(webStepRates) - 1
	topLats := sortedCopy(stepLats[top])
	v0.Samples = len(topLats)
	v0.P50us = percentile(topLats, 0.50)
	v0.P99us = percentile(topLats, 0.99)
	v0.Throughput = float64(inWindow[top]) / in.stepDur.Seconds()
	for c := range in.sessions {
		v0.Attempted += len(in.sessions[c]) * webReqs
	}
	sloRate := 0
	for s, rate := range webStepRates {
		v0.Failed += failed[s]
		lats := sortedCopy(stepLats[s])
		p99 := percentile(lats, 0.99)
		if failed[s] == 0 && p99 <= float64(webSLO/time.Microsecond) {
			sloRate = rate * webReqs
		}
		v0.Notes = append(v0.Notes, fmt.Sprintf("step %d req/s: p50 %.0f us, p99 %.0f us over %d requests, goodput %.1f req/s, %d failed",
			rate*webReqs, percentile(lats, 0.5), p99, len(lats), float64(inWindow[s])/in.stepDur.Seconds(), failed[s]))
	}
	v0.Layer["fleet.slo_rate_rps"] = float64(sloRate)
	v0.Layer["loadgen.late_p99_us"] = percentile(sortedCopy(late), 0.99)
	// Worst summon-to-first-byte among replicas summoned by the load.
	worst := int64(0)
	for _, r := range f.Replicas() {
		if r.SummonedAt.Duration() >= webSetup && r.Srv != nil && r.Srv.FirstRespAt > 0 {
			if ms := r.Srv.FirstRespAt.Sub(r.SummonedAt).Milliseconds(); ms > worst {
				worst = ms
			}
		}
	}
	v0.Layer["fleet.boot_to_first_byte_ms"] = float64(worst)
	v0.seal()
	if cfg.trace != nil {
		for _, st := range stats {
			cfg.trace.addLog(st.spans)
		}
	}
	return out, nil
}

// deployLoadgen deploys one load-generator guest: a warm-up GET during
// set-up (ARP, connection path, balancer), then its share of the timed
// sessions at their scheduled arrivals.
func deployLoadgen(pl *core.Platform, idx int, in *webIn, st *webStats, warmErr *error, stepEnd func(int) time.Duration) {
	plan := in.sessions[idx]
	pl.Deploy(core.Unikernel{
		Build:  build.Config{Name: fmt.Sprintf("loadgen-%d", idx), Roots: []string{"http"}},
		Memory: 64 << 20,
		Main: func(env *core.Env) int {
			s := env.VM.S
			all := lwt.NewPromise[struct{}](s)
			done := func() {
				st.pending--
				if st.pending == 0 {
					all.Resolve(struct{}{})
				}
			}
			warm := lwt.NewPromise[struct{}](s)
			lwt.Map(s.Sleep(webWarmupAt-s.K.Now().Duration()), func(struct{}) struct{} {
				warmup(env, in.body, warmErr, warm)
				return struct{}{}
			})
			for _, ss := range plan {
				ss := ss
				due := sim.Time(webSetup + ss.at)
				lwt.Map(s.Sleep(due.Sub(s.K.Now())), func(struct{}) struct{} {
					st.late = append(st.late, float64(s.K.Now().Sub(due))/float64(time.Microsecond))
					webSessionRun(env, in.body, st, ss, due, stepEnd(ss.step), done)
					return struct{}{}
				})
			}
			if len(plan) == 0 {
				all.Resolve(struct{}{})
			}
			return env.VM.Main(env.P, lwt.Join(s, warm, all))
		},
	}, core.DeployOpts{
		Net: &netstack.Config{
			MAC: core.MAC(0x20 + byte(idx)), IP: ipv4.AddrFrom4(10, 0, 0, 200+uint8(idx)),
			Netmask: webMask,
		},
		PCPU: -1,
	})
}

// warmup sends one GET during set-up and checks the response.
func warmup(env *core.Env, body []byte, errOut *error, fin *lwt.Promise[struct{}]) {
	cn := env.Net.TCP.Connect(webVIP, 80)
	lwt.Always(cn, func() {
		if err := cn.Failed(); err != nil {
			*errOut = err
			fin.Resolve(struct{}{})
			return
		}
		c := cn.Value()
		var buf []byte
		lwt.Always(c.Write(httpd.EncodeRequest(&httpd.Request{Method: "GET", Path: "/"})), func() {
			readResponse(c, &buf, func(resp *httpd.Response, err error) {
				if err == nil {
					err = checkResponse(resp, body)
				}
				*errOut = err
				c.Close()
				fin.Resolve(struct{}{})
			})
		})
	})
}

// readResponse reads from c until buf holds one complete response.
func readResponse(c interface {
	Read(int) *lwt.Promise[[]byte]
}, buf *[]byte, then func(*httpd.Response, error)) {
	var step func()
	step = func() {
		resp, n, err := httpd.ParseResponse(*buf)
		if err != nil {
			then(nil, fmt.Errorf("%w: unparsable response: %v", errCheck, err))
			return
		}
		if resp != nil {
			*buf = (*buf)[n:]
			then(resp, nil)
			return
		}
		rd := c.Read(64 << 10)
		lwt.Always(rd, func() {
			if err := rd.Failed(); err != nil {
				then(nil, err)
				return
			}
			if len(rd.Value()) == 0 {
				then(nil, fmt.Errorf("connection closed before a full response"))
				return
			}
			*buf = append(*buf, rd.Value()...)
			step()
		})
	}
	step()
}

// checkResponse is the web output check: status 200 and the served body.
func checkResponse(resp *httpd.Response, body []byte) error {
	if resp.Status != 200 {
		return fmt.Errorf("%w: HTTP status %d, want 200", errCheck, resp.Status)
	}
	if !bytes.Equal(resp.Body, body) {
		return fmt.Errorf("%w: response body %q, want %q", errCheck, resp.Body, body)
	}
	return nil
}

// webSessionRun runs one keep-alive session of webReqs GETs. Each request
// is timed from when it was due: the first from the session's scheduled
// arrival (so connect and backlog waits count), later ones from the end of
// their think time. A failed session counts all of its unsent requests.
func webSessionRun(env *core.Env, body []byte, st *webStats, ss webSession, due sim.Time, stepEnd time.Duration, done func()) {
	s := env.VM.S
	now := func() sim.Time { return s.K.Now() }
	root := st.spans.begin("loadgen.session", 0, ss.id, due)
	finish := func() {
		st.spans.end(root, now())
		done()
	}
	conn := st.spans.begin("tcp.connect", root, ss.id, now())
	cn := env.Net.TCP.Connect(webVIP, 80)
	lwt.Always(cn, func() {
		st.spans.end(conn, now())
		if cn.Failed() != nil {
			st.failed[ss.step] += webReqs
			finish()
			return
		}
		c := cn.Value()
		var buf []byte
		var issue func(i int, due sim.Time)
		issue = func(i int, due sim.Time) {
			if i == webReqs {
				c.Close()
				finish()
				return
			}
			fail := func(err error) {
				if isCheck(err) && st.checkErr == nil {
					st.checkErr = err
				}
				st.failed[ss.step] += webReqs - i
				c.Close()
				finish()
			}
			resp := st.spans.begin("httpd.response", root, ss.id, now())
			write := st.spans.begin("tcp.write", resp, ss.id, now())
			wr := c.Write(httpd.EncodeRequest(&httpd.Request{Method: "GET", Path: "/"}))
			lwt.Always(wr, func() {
				st.spans.end(write, now())
				if err := wr.Failed(); err != nil {
					fail(err)
					return
				}
				readResponse(c, &buf, func(r *httpd.Response, err error) {
					st.spans.end(resp, now())
					if err == nil {
						err = checkResponse(r, body)
					}
					if err != nil {
						fail(err)
						return
					}
					st.lats[ss.step] = append(st.lats[ss.step], float64(now().Sub(due))/float64(time.Microsecond))
					if now().Duration() <= stepEnd {
						st.inWindow[ss.step]++
					}
					if i+1 == webReqs {
						issue(i+1, now())
						return
					}
					next := now().Add(webThink)
					lwt.Map(s.Sleep(webThink), func(struct{}) struct{} {
						issue(i+1, next)
						return struct{}{}
					})
				})
			})
		}
		issue(0, due)
	})
}
