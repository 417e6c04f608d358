package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/build"
	"repro/internal/core"
	"repro/internal/icmp"
	"repro/internal/ipv4"
	"repro/internal/lwt"
	"repro/internal/netstack"
	"repro/internal/sim"
)

// ping-flood: a closed loop with one echo outstanding — the pinger sends
// the next 64-byte ICMP echo (56 payload bytes) as soon as the previous
// reply arrives — to one target running the Mirage stack parameters, over
// netif -> netback/bridge -> netif. No TCP, HTTP or storage.

const (
	pingFull     = 30000
	pingPayload  = 56 // + 8-byte ICMP header = 64-byte echo
	pingSetup    = 2 * time.Second
	pingWarmupAt = 1500 * time.Millisecond // one echo resolves ARP during set-up
	pingBudget   = 60 * time.Second        // virtual; the loop ends long before
	pingPayloads = 256                     // distinct seeded payloads, used in turn
)

var (
	pingTargetIP = ipv4.AddrFrom4(10, 0, 0, 2)
	pingerIP     = ipv4.AddrFrom4(10, 0, 0, 1)
	// mirageStack is the target's type-safe stack cost, as in the paper's
	// flood-ping comparison (§4.1.3).
	mirageStack = netstack.Params{RxCost: 2200 * time.Nanosecond, TxCost: 2400 * time.Nanosecond}
)

type pingIn struct {
	seed     int64
	count    int
	id       uint16
	payloads [][]byte
}

func pingInputs(seed int64, size float64) any {
	rng := rand.New(rand.NewSource(seed))
	in := &pingIn{seed: seed, count: int(size * pingFull), id: uint16(rng.Intn(1 << 16))}
	if in.count < 1 {
		in.count = 1
	}
	for i := 0; i < pingPayloads; i++ {
		p := make([]byte, pingPayload)
		rng.Read(p)
		in.payloads = append(in.payloads, p)
	}
	return in
}

// checkEcho is the ping output check: the reply carries the id, sequence
// number and payload of the echo outstanding.
func checkEcho(e icmp.Echo, id, seq uint16, payload []byte) error {
	if e.Type != icmp.TypeEchoReply || e.ID != id || e.Seq != seq || !bytes.Equal(e.Payload, payload) {
		return fmt.Errorf("%w: echo reply type=%d id=%d seq=%d payload=%x, want id=%d seq=%d payload=%x",
			errCheck, e.Type, e.ID, e.Seq, head(e.Payload), id, seq, head(payload))
	}
	return nil
}

func runPing(v any, cfg runCfg) (*runOut, error) {
	in := v.(*pingIn)
	out := &runOut{}
	clk := startSetup(&out.rep, cfg.trace)
	pl := newPlatform(in.seed, cfg)
	var log *spanLog
	if cfg.trace != nil {
		log = new(spanLog)
	}
	var (
		start, finish sim.Time
		lats          []float64
		done          int
		checkErr      error
		warmed        bool
	)
	pl.Deploy(core.Unikernel{
		Build: build.Config{Name: "target", Roots: []string{"icmp"}},
		Main: func(env *core.Env) int {
			env.Net.Params = mirageStack
			return env.VM.Main(env.P, env.VM.S.Sleep(pingSetup+pingBudget))
		},
	}, core.DeployOpts{Net: &netstack.Config{MAC: core.MAC(2), IP: pingTargetIP, Netmask: webMask}})

	pl.Deploy(core.Unikernel{
		Build: build.Config{Name: "pinger", Roots: []string{"icmp"}},
		Main: func(env *core.Env) int {
			s := env.VM.S
			fin := lwt.NewPromise[struct{}](s)
			var sentAt sim.Time
			var span int
			send := func() {
				sentAt = s.K.Now()
				span = log.begin("netstack.ping", 0, done, sentAt)
				env.Net.Ping(pingTargetIP, in.id, uint16(done), in.payloads[done%pingPayloads])
			}
			env.Net.ICMP.OnReply = func(from ipv4.Addr, e icmp.Echo) {
				if !warmed {
					warmed = true
					if err := checkEcho(e, in.id^0xffff, 0, in.payloads[0]); err != nil {
						checkErr = err
					}
					return
				}
				now := s.K.Now()
				log.end(span, now)
				if err := checkEcho(e, in.id, uint16(done), in.payloads[done%pingPayloads]); err != nil && checkErr == nil {
					checkErr = err
				}
				lats = append(lats, float64(now.Sub(sentAt))/float64(time.Microsecond))
				done++
				if done == in.count {
					finish = now
					fin.Resolve(struct{}{})
					return
				}
				send()
			}
			warm := lwt.Map(s.Sleep(pingWarmupAt-s.K.Now().Duration()), func(struct{}) struct{} {
				env.Net.Ping(pingTargetIP, in.id^0xffff, 0, in.payloads[0])
				return struct{}{}
			})
			main := lwt.Bind(warm, func(struct{}) *lwt.Promise[struct{}] {
				return lwt.Bind(s.Sleep(sim.Time(pingSetup).Sub(s.K.Now())), func(struct{}) *lwt.Promise[struct{}] {
					start = s.K.Now()
					send()
					return fin
				})
			})
			return env.VM.Main(env.P, main)
		},
	}, core.DeployOpts{Net: &netstack.Config{MAC: core.MAC(1), IP: pingerIP, Netmask: webMask}})

	err := phase(pl, clk, pingSetup, pingBudget, layerMap(&out.Virt))
	if err != nil && !isCheck(err) {
		return nil, fmt.Errorf("ping: %w", err)
	}
	out.err = err
	if out.err == nil {
		out.err = checkErr
	}
	if !warmed && out.err == nil {
		out.err = fmt.Errorf("%w: no reply to the set-up echo", errCheck)
	}
	if done != in.count && out.err == nil {
		out.err = fmt.Errorf("%w: %d of %d echoes answered", errCheck, done, in.count)
	}
	v0 := &out.Virt
	v0.Attempted, v0.Failed = in.count, in.count-done
	sorted := sortedCopy(lats)
	v0.Samples = len(sorted)
	v0.P50us, v0.P99us = percentile(sorted, 0.50), percentile(sorted, 0.99)
	if secs := finish.Sub(start).Seconds(); secs > 0 {
		v0.Throughput = float64(done) / secs
		v0.ReplicaS = secs // one target domain
	}
	v0.seal()
	if cfg.trace != nil {
		cfg.trace.addLog(log)
	}
	return out, nil
}
