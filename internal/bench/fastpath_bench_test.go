package bench

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/build"
	"repro/internal/conventional"
	"repro/internal/core"
	"repro/internal/cstruct"
	"repro/internal/dns"
	"repro/internal/ipv4"
	"repro/internal/lwt"
	"repro/internal/netstack"
)

// Wall-clock microbenchmarks for the zero-copy fast path. These measure real
// allocations and nanoseconds per operation (as opposed to the virtual-time
// figures), and feed BENCH_fastpath.json via `make bench`. Each op covers the
// full guest device path: netif TX ring -> netback bridge -> netif RX ring.

// BenchmarkFastpathFramePath: one op is a full UDP echo round trip between
// two unikernel guests (two frames each way through grant-copy, rings and
// the bridge).
func BenchmarkFastpathFramePath(b *testing.B) {
	pl := core.NewPlatform(17)
	serverIP, clientIP := ipv4.AddrFrom4(10, 0, 0, 1), ipv4.AddrFrom4(10, 0, 0, 2)
	payload := make([]byte, 1024)

	pl.Deploy(core.Unikernel{
		Build: build.Config{Name: "echo", Roots: []string{"udp"}},
		Main: func(env *core.Env) int {
			env.Net.UDP.Bind(7, func(src ipv4.Addr, sp uint16, data *cstruct.View) {
				env.Net.SendUDP(src, sp, 7, data.Bytes())
				data.Release()
			})
			return env.VM.Main(env.P, env.VM.S.Sleep(time.Hour))
		},
	}, core.DeployOpts{Net: &netstack.Config{MAC: core.MAC(1), IP: serverIP, Netmask: benchMask}})

	rounds := 0
	pl.Deploy(core.Unikernel{
		Build: build.Config{Name: "pinger", Roots: []string{"udp"}},
		Main: func(env *core.Env) int {
			env.P.Sleep(2 * time.Second)
			done := lwt.NewPromise[struct{}](env.VM.S)
			env.Net.UDP.Bind(9000, func(src ipv4.Addr, sp uint16, data *cstruct.View) {
				data.Release()
				rounds++
				if rounds == b.N {
					done.Resolve(struct{}{})
					return
				}
				env.Net.SendUDP(serverIP, 7, 9000, payload)
			})
			env.Net.SendUDP(serverIP, 7, 9000, payload)
			return env.VM.Main(env.P, done)
		},
	}, core.DeployOpts{Net: &netstack.Config{MAC: core.MAC(2), IP: clientIP, Netmask: benchMask}})

	b.ReportAllocs()
	b.ResetTimer()
	if _, err := pl.RunFor(time.Hour); err != nil {
		b.Fatal(err)
	}
	if rounds != b.N {
		b.Fatalf("completed %d/%d rounds", rounds, b.N)
	}
}

// BenchmarkFastpathTCPBulk: one op is a complete 256 KiB TCP transfer
// (connect, bulk send across MSS-sized segments, close) between two real TCP
// stacks over a priced wire.
func BenchmarkFastpathTCPBulk(b *testing.B) {
	l := conventional.LinuxNetProfile()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fig8Throughput(core.RunConfig{}, l, l, 1, 256<<10)
	}
}

// BenchmarkFastpathDNSServe: one op is a DNS query served by a unikernel DNS
// appliance over the full device path (query frame in, response frame out).
func BenchmarkFastpathDNSServe(b *testing.B) {
	pl := core.NewPlatform(23)
	serverIP, clientIP := ipv4.AddrFrom4(10, 0, 0, 1), ipv4.AddrFrom4(10, 0, 0, 2)
	zone := dns.SyntheticZone("bench.local", 512)
	srv := dns.NewServer(zone, true)

	pl.Deploy(core.Unikernel{
		Build: build.Config{Name: "dns", Roots: []string{"dns"}},
		Main: func(env *core.Env) int {
			env.Net.UDP.Bind(53, func(src ipv4.Addr, srcPort uint16, data *cstruct.View) {
				resp, _ := srv.Handle(data.Bytes())
				data.Release()
				if resp != nil {
					env.Net.SendUDP(src, srcPort, 53, resp)
				}
			})
			return env.VM.Main(env.P, env.VM.S.Sleep(time.Hour))
		},
	}, core.DeployOpts{Net: &netstack.Config{MAC: core.MAC(1), IP: serverIP, Netmask: benchMask}})

	answered := 0
	pl.Deploy(core.Unikernel{
		Build: build.Config{Name: "queryperf", Roots: []string{"dns"}},
		Main: func(env *core.Env) int {
			env.P.Sleep(2 * time.Second)
			done := lwt.NewPromise[struct{}](env.VM.S)
			ask := func(i int) {
				q := dns.EncodeQuery(uint16(i), fmt.Sprintf("host-%d.bench.local", i%512), dns.TypeA)
				env.Net.SendUDP(serverIP, 53, 3535, q)
			}
			env.Net.UDP.Bind(3535, func(src ipv4.Addr, srcPort uint16, data *cstruct.View) {
				data.Release()
				answered++
				if answered == b.N {
					done.Resolve(struct{}{})
					return
				}
				ask(answered)
			})
			ask(0)
			return env.VM.Main(env.P, done)
		},
	}, core.DeployOpts{Net: &netstack.Config{MAC: core.MAC(2), IP: clientIP, Netmask: benchMask}})

	b.ReportAllocs()
	b.ResetTimer()
	if _, err := pl.RunFor(time.Hour); err != nil {
		b.Fatal(err)
	}
	if answered != b.N {
		b.Fatalf("answered %d/%d queries", answered, b.N)
	}
}
