package bench

import (
	"fmt"
	"time"

	"repro/internal/build"
	"repro/internal/conventional"
	"repro/internal/core"
	"repro/internal/cstruct"
	"repro/internal/icmp"
	"repro/internal/ipv4"
	"repro/internal/lwt"
	"repro/internal/netstack"
	"repro/internal/sim"
	"repro/internal/tcp"
)

var benchMask = ipv4.AddrFrom4(255, 255, 255, 0)

// PingLatency regenerates the §4.1.3 flood-ping comparison: a client
// floods echo requests at a Linux-stack target and a Mirage target over
// the full device path; Mirage pays a 4–10% latency premium for type-safe
// parsing. Returns mean RTTs.
func PingLatency(rc core.RunConfig, pings int) *Result {
	if pings == 0 {
		pings = 20_000
	}
	var appendix []string
	run := func(label string, targetParams netstack.Params) time.Duration {
		pl := core.NewPlatform(77, rc)
		before := pl.K.Metrics().Snapshot()
		var total time.Duration
		done := 0

		// Target: answers ICMP echo in its stack.
		pl.Deploy(core.Unikernel{
			Build: build.Config{Name: "target", Roots: []string{"icmp"}},
			Main: func(env *core.Env) int {
				env.Net.Params = targetParams
				return env.VM.Main(env.P, env.VM.S.Sleep(10*time.Minute))
			},
		}, core.DeployOpts{Net: &netstack.Config{MAC: core.MAC(2), IP: ipv4.AddrFrom4(10, 0, 0, 2), Netmask: benchMask}})

		// Pinger.
		pl.Deploy(core.Unikernel{
			Build: build.Config{Name: "pinger", Roots: []string{"icmp"}},
			Main: func(env *core.Env) int {
				env.P.Sleep(2 * time.Second)
				var sentAt sim.Time
				fin := lwt.NewPromise[struct{}](env.VM.S)
				env.Net.ICMP.OnReply = func(from ipv4.Addr, e icmp.Echo) {
					total += env.VM.S.K.Now().Sub(sentAt)
					done++
					if done == pings {
						fin.Resolve(struct{}{})
						return
					}
					sentAt = env.VM.S.K.Now()
					env.Net.Ping(ipv4.AddrFrom4(10, 0, 0, 2), 1, uint16(done), nil)
				}
				sentAt = env.VM.S.K.Now()
				env.Net.Ping(ipv4.AddrFrom4(10, 0, 0, 2), 1, 0, nil)
				return env.VM.Main(env.P, fin)
			},
		}, core.DeployOpts{Net: &netstack.Config{MAC: core.MAC(1), IP: ipv4.AddrFrom4(10, 0, 0, 1), Netmask: benchMask}})

		if _, err := pl.RunFor(10 * time.Minute); err != nil {
			panic(err)
		}
		if done != pings {
			panic(fmt.Sprintf("ping bench: only %d/%d replies", done, pings))
		}
		appendix = append(appendix, "["+label+"]")
		appendix = append(appendix,
			metricsAppendix(pl.K, before, "cpu_utilization", "net_", "ring_occupancy", "hv_evtchn")...)
		return total / time.Duration(pings)
	}

	// The target's stack is what differs: C parsing vs type-safe parsing.
	linux := netstack.Params{RxCost: 1200 * time.Nanosecond, TxCost: 1300 * time.Nanosecond}
	mirage := netstack.Params{RxCost: 2200 * time.Nanosecond, TxCost: 2400 * time.Nanosecond}

	lRTT := run("linux-target", linux)
	mRTT := run("mirage-target", mirage)
	overhead := (float64(mRTT)/float64(lRTT) - 1) * 100

	return &Result{
		ID:     "ping",
		Title:  "ICMP flood-ping latency (§4.1.3)",
		XLabel: "target",
		YLabel: "mean RTT (µs)",
		Series: []Series{
			{Name: "linux-target", X: []float64{0}, Y: []float64{float64(lRTT) / 1e3}},
			{Name: "mirage-target", X: []float64{1}, Y: []float64{float64(mRTT) / 1e3}},
		},
		Notes: []string{
			fmt.Sprintf("mirage latency overhead: %.1f%% (paper: 4-10%%)", overhead),
			fmt.Sprintf("%d pings per target, zero losses", pings),
		},
		Metrics: appendix,
	}
}

// fig8Host is one endpoint of the iperf experiment: a real TCP stack whose
// segments are priced by a NetProfile on a dedicated CPU.
type fig8Host struct {
	st  *tcp.Stack
	s   *lwt.Scheduler
	sig *sim.Signal
	cpu *sim.CPU
}

// fig8Throughput transfers bytesPerFlow on each of n flows from a sender
// with sendProf to a receiver with recvProf and returns Mb/s.
func fig8Throughput(rc core.RunConfig, sendProf, recvProf conventional.NetProfile, flows, bytesPerFlow int) (float64, []string) {
	k := sim.NewKernel(8, rc.Obs())
	before := k.Metrics().Snapshot()
	const (
		wireLatency = 15 * time.Microsecond
		ackCost     = 700 * time.Nanosecond // per-ACK processing either side
	)
	mk := func(name string, ip ipv4.Addr) *fig8Host {
		h := &fig8Host{
			s:   lwt.NewScheduler(k),
			sig: k.NewSignal(name + "-rx"),
			cpu: k.NewCPU(name + "-cpu"),
		}
		h.st = tcp.NewStack(h.s, ip, tcp.DefaultParams())
		h.s.OnSignal(h.sig, func() {})
		return h
	}
	snd := mk("sender", ipv4.AddrFrom4(10, 0, 0, 1))
	rcv := mk("receiver", ipv4.AddrFrom4(10, 0, 0, 2))

	wire := func(from *fig8Host, fromProf conventional.NetProfile, to *fig8Host, toProf conventional.NetProfile) {
		from.st.Output = func(dst ipv4.Addr, seg tcp.Segment) {
			n := len(seg.Payload)
			txCost := ackCost
			if n > 0 {
				txCost = time.Duration(n) * fromProf.TxPerKB / 1024
			}
			txDone := from.cpu.Reserve(txCost)
			src := from.st.LocalIP
			k.At(txDone.Add(wireLatency), func() {
				rxCost := ackCost
				if n > 0 {
					rxCost = time.Duration(n) * toProf.RxPerKB / 1024
				}
				rxDone := to.cpu.Reserve(rxCost)
				k.At(rxDone, func() {
					to.st.Input(src, seg)
					to.sig.Set()
				})
			})
		}
	}
	wire(snd, sendProf, rcv, recvProf)
	wire(rcv, recvProf, snd, sendProf)

	payload := make([]byte, bytesPerFlow)
	finished := 0
	var doneAt sim.Time

	k.SpawnDaemon("receiver", func(p *sim.Proc) {
		l, _ := rcv.st.Listen(5001)
		var accept func()
		accept = func() {
			lwt.Map(l.Accept(), func(c *tcp.Conn) struct{} {
				var loop func()
				loop = func() {
					lwt.Map(c.Read(256<<10), func(data []byte) struct{} {
						if len(data) == 0 {
							c.Close()
							finished++
							doneAt = k.Now()
							return struct{}{}
						}
						loop()
						return struct{}{}
					})
				}
				loop()
				accept()
				return struct{}{}
			})
		}
		accept()
		blocker := lwt.NewPromise[struct{}](rcv.s)
		rcv.s.Run(p, blocker)
	})
	k.SpawnDaemon("sender", func(p *sim.Proc) {
		var ws []lwt.Waiter
		for i := 0; i < flows; i++ {
			w := lwt.Bind(snd.st.Connect(rcv.st.LocalIP, 5001), func(c *tcp.Conn) *lwt.Promise[struct{}] {
				return lwt.Bind(c.Write(payload), func(int) *lwt.Promise[struct{}] {
					c.Close()
					return c.Done()
				})
			})
			ws = append(ws, w)
		}
		snd.s.Run(p, lwt.Join(snd.s, ws...))
	})

	if _, err := k.RunFor(20 * time.Minute); err != nil {
		panic(err)
	}
	if finished != flows {
		panic(fmt.Sprintf("fig8: %d/%d flows finished", finished, flows))
	}
	secs := doneAt.Seconds()
	appendix := metricsAppendix(k, before, "cpu_utilization", "tcp_")
	return float64(flows*bytesPerFlow) * 8 / 1e6 / secs, appendix
}

// Fig8TCP regenerates the Figure 8 table: TCP throughput with all hardware
// offload disabled, for 1 and 10 flows, across Linux->Linux, Linux->Mirage
// and Mirage->Linux.
func Fig8TCP(rc core.RunConfig, bytesPerFlow int) *Result {
	if bytesPerFlow == 0 {
		bytesPerFlow = 4 << 20
	}
	l, m := conventional.LinuxNetProfile(), conventional.MirageNetProfile()
	cases := []struct {
		name            string
		snd, rcv        conventional.NetProfile
		paper1, paper10 float64
	}{
		{"linux-to-linux", l, l, 1590, 1534},
		{"linux-to-mirage", l, m, 1742, 1710},
		{"mirage-to-linux", m, l, 975, 952},
	}
	r := &Result{
		ID:     "fig8",
		Title:  "TCP throughput, hardware offload disabled (Mb/s)",
		XLabel: "flows",
		YLabel: "Mb/s",
		Notes: []string{
			"paper: L->L 1590/1534, L->M 1742/1710, M->L 975/952 (1/10 flows)",
			"receive is higher on Mirage (no userspace copy); transmit is lower (type-safe tx path, no offload)",
		},
	}
	for _, c := range cases {
		s := Series{Name: c.name}
		for _, flows := range []int{1, 10} {
			per := bytesPerFlow / flows
			tput, appendix := fig8Throughput(rc, c.snd, c.rcv, flows, per)
			s.X = append(s.X, float64(flows))
			s.Y = append(s.Y, tput)
			if flows == 10 {
				r.Metrics = append(r.Metrics, fmt.Sprintf("[%s, %d flows]", c.name, flows))
				r.Metrics = append(r.Metrics, appendix...)
			}
		}
		r.Series = append(r.Series, s)
	}
	return r
}

// zeroCopyEchoRate runs a UDP echo ping-pong between two unikernel guests
// with a 1 KB payload and returns (round trips per second of virtual time,
// pages recycled on the echo server). copyRX selects the server's receive
// path.
func zeroCopyEchoRate(rc core.RunConfig, rounds int, copyRX bool) (float64, int) {
	pl := core.NewPlatform(31, rc)
	serverIP, clientIP := ipv4.AddrFrom4(10, 0, 0, 1), ipv4.AddrFrom4(10, 0, 0, 2)
	payload := make([]byte, 1024)
	var serverPool *cstruct.Pool

	pl.Deploy(core.Unikernel{
		Build: build.Config{Name: "echo", Roots: []string{"udp"}},
		Main: func(env *core.Env) int {
			serverPool = env.VM.Dom.Pool
			if copyRX {
				env.Net.Params.CopyRX = true
				env.Net.Params.CopyCost = 1200 * time.Nanosecond
			}
			env.Net.UDP.Bind(7, func(src ipv4.Addr, sp uint16, data *cstruct.View) {
				env.Net.SendUDP(src, sp, 7, data.Bytes())
				data.Release()
			})
			return env.VM.Main(env.P, env.VM.S.Sleep(10*time.Minute))
		},
	}, core.DeployOpts{Net: &netstack.Config{MAC: core.MAC(1), IP: serverIP, Netmask: benchMask}})

	var elapsed time.Duration
	pl.Deploy(core.Unikernel{
		Build: build.Config{Name: "pinger", Roots: []string{"udp"}},
		Main: func(env *core.Env) int {
			env.P.Sleep(2 * time.Second)
			done := lwt.NewPromise[struct{}](env.VM.S)
			n := 0
			start := env.VM.S.K.Now()
			env.Net.UDP.Bind(9000, func(src ipv4.Addr, sp uint16, data *cstruct.View) {
				data.Release()
				n++
				if n == rounds {
					elapsed = env.VM.S.K.Now().Sub(start)
					done.Resolve(struct{}{})
					return
				}
				env.Net.SendUDP(serverIP, 7, 9000, payload)
			})
			env.Net.SendUDP(serverIP, 7, 9000, payload)
			return env.VM.Main(env.P, done)
		},
	}, core.DeployOpts{Net: &netstack.Config{MAC: core.MAC(2), IP: clientIP, Netmask: benchMask}})

	if _, err := pl.RunFor(10 * time.Minute); err != nil {
		panic(err)
	}
	return float64(rounds) / elapsed.Seconds(), serverPool.Recycled
}
