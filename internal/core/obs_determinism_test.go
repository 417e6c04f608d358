package core

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/build"
	"repro/internal/cstruct"
	"repro/internal/ipv4"
	"repro/internal/lwt"
	"repro/internal/netstack"
	"repro/internal/obs"
)

// obsWorkload runs a small two-guest UDP echo exchange under a fresh tracer
// and registry and returns the rendered trace JSON and metrics snapshot.
func obsWorkload(t *testing.T, seed int64) (traceJSON []byte, metrics string) {
	t.Helper()
	tr := obs.NewTracer(obs.DefaultCap)
	tr.Enable()
	reg := obs.NewRegistry()

	pl := NewPlatform(seed, RunConfig{Trace: tr, Metrics: reg})
	pl.Deploy(Unikernel{
		Build: build.Config{Name: "udp-echo", Roots: []string{"udp"}},
		Main: func(env *Env) int {
			env.Net.UDP.Bind(7, func(src ipv4.Addr, sp uint16, data *cstruct.View) {
				env.Net.SendUDP(src, sp, 7, data.Bytes())
				data.Release()
			})
			return env.VM.Main(env.P, env.VM.S.Sleep(5*time.Second))
		},
	}, DeployOpts{Net: &netstack.Config{MAC: MAC(1), IP: ipv4.AddrFrom4(10, 0, 0, 1), Netmask: testMask}})
	pl.Deploy(Unikernel{
		Build: build.Config{Name: "udp-client", Roots: []string{"udp"}},
		Main: func(env *Env) int {
			env.P.Sleep(time.Second)
			done := lwt.NewPromise[struct{}](env.VM.S)
			n := 0
			env.Net.UDP.Bind(9999, func(src ipv4.Addr, sp uint16, data *cstruct.View) {
				data.Release()
				if n++; n == 20 {
					done.Resolve(struct{}{})
					return
				}
				env.Net.SendUDP(ipv4.AddrFrom4(10, 0, 0, 1), 7, 9999, []byte("ping"))
			})
			env.Net.SendUDP(ipv4.AddrFrom4(10, 0, 0, 1), 7, 9999, []byte("ping"))
			return env.VM.Main(env.P, done)
		},
	}, DeployOpts{Net: &netstack.Config{MAC: MAC(2), IP: ipv4.AddrFrom4(10, 0, 0, 2), Netmask: testMask}})

	if _, err := pl.RunFor(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := pl.Check(); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), reg.Snapshot().Format()
}

// TestObservabilityDeterministic asserts that two same-seed platform runs
// produce byte-identical trace JSON and metrics snapshots — the contract
// that makes traces diffable across reruns.
func TestObservabilityDeterministic(t *testing.T) {
	trace1, metrics1 := obsWorkload(t, 99)
	trace2, metrics2 := obsWorkload(t, 99)
	if !bytes.Equal(trace1, trace2) {
		t.Fatalf("trace JSON differs across same-seed runs (%d vs %d bytes)", len(trace1), len(trace2))
	}
	if metrics1 != metrics2 {
		t.Fatalf("metrics snapshot differs across same-seed runs:\n%s\n--- vs ---\n%s", metrics1, metrics2)
	}

	// The trace must span multiple layers of the platform, not just one.
	for _, cat := range []string{`"cat":"kernel"`, `"cat":"hypervisor"`, `"cat":"ring"`, `"cat":"net"`} {
		if !bytes.Contains(trace1, []byte(cat)) {
			t.Errorf("trace missing events with %s", cat)
		}
	}
	for _, metric := range []string{"sim_procs_spawned_total", "hv_hypercalls_total", "grant_ops_total", "net_packets_total"} {
		if !strings.Contains(metrics1, metric) {
			t.Errorf("metrics snapshot missing %s", metric)
		}
	}
}
