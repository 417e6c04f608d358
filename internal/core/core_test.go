package core

import (
	"testing"
	"time"

	"repro/internal/build"
	"repro/internal/cstruct"
	"repro/internal/ipv4"
	"repro/internal/lwt"
	"repro/internal/netstack"
	"repro/internal/sim"
)

var testMask = ipv4.AddrFrom4(255, 255, 255, 0)

func TestDeployBootsSealsAndRuns(t *testing.T) {
	pl := NewPlatform(1)
	ran := false
	dep := pl.Deploy(Unikernel{
		Build: build.DNSAppliance(nil),
		Main: func(env *Env) int {
			ran = true
			if !env.VM.Dom.PT.Sealed() {
				t.Error("appliance not sealed by default")
			}
			env.Console("up")
			return 0
		},
	}, DeployOpts{})
	if _, err := pl.Run(); err != nil {
		t.Fatal(err)
	}
	if err := pl.Check(); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("main never ran")
	}
	if dep.Domain == nil || !dep.Domain.Dead || dep.Domain.ExitCode != 0 {
		t.Errorf("domain state = %+v", dep.Domain)
	}
	if dep.Image == nil || !dep.Image.HasModule("dns") {
		t.Error("image missing or wrong")
	}
}

func TestTwoAppliancesTalkOverTheBridge(t *testing.T) {
	pl := NewPlatform(2)
	var got string

	pl.Deploy(Unikernel{
		Build: build.Config{Name: "udp-echo", Roots: []string{"udp"}},
		Main: func(env *Env) int {
			env.Net.UDP.Bind(7, func(src ipv4.Addr, sp uint16, data *cstruct.View) {
				env.Net.SendUDP(src, sp, 7, append([]byte("echo:"), data.Bytes()...))
				data.Release()
			})
			return env.VM.Main(env.P, env.VM.S.Sleep(5*time.Second))
		},
	}, DeployOpts{Net: &netstack.Config{MAC: MAC(1), IP: ipv4.AddrFrom4(10, 0, 0, 1), Netmask: testMask}})

	pl.Deploy(Unikernel{
		Build: build.Config{Name: "udp-client", Roots: []string{"udp"}},
		Main: func(env *Env) int {
			env.P.Sleep(time.Second) // server boots first (serialized toolstack)
			done := lwt.NewPromise[struct{}](env.VM.S)
			env.Net.UDP.Bind(9999, func(src ipv4.Addr, sp uint16, data *cstruct.View) {
				got = string(data.Bytes())
				data.Release()
				done.Resolve(struct{}{})
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
	if got != "echo:ping" {
		t.Fatalf("got %q, want echo:ping", got)
	}
}

func TestBlockDeviceAttachment(t *testing.T) {
	pl := NewPlatform(3)
	ok := false
	pl.Deploy(Unikernel{
		Build: build.Config{Name: "store", Roots: []string{"btree"}},
		Main: func(env *Env) int {
			main := lwt.Bind(env.Blk.Write(0, []byte("persist")), func(*cstruct.View) *lwt.Promise[struct{}] {
				return lwt.Map(env.Blk.Read(0, 1), func(v *cstruct.View) struct{} {
					ok = v.String(0, 7) == "persist"
					v.Release()
					return struct{}{}
				})
			})
			return env.VM.Main(env.P, main)
		},
	}, DeployOpts{Block: true})
	if _, err := pl.RunFor(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := pl.Check(); err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("block round trip failed")
	}
}

func TestBadBuildSurfacesError(t *testing.T) {
	pl := NewPlatform(4)
	dep := pl.Deploy(Unikernel{Build: build.Config{Name: "bad", Roots: []string{"no-such-module"}}}, DeployOpts{})
	if dep.Err == nil {
		t.Fatal("bad build did not fail")
	}
	if pl.Check() == nil {
		t.Fatal("Check missed the failure")
	}
}

func TestFreshASRSeedPerDeployment(t *testing.T) {
	pl := NewPlatform(5)
	a := pl.Deploy(Unikernel{Build: build.WebAppliance()}, DeployOpts{})
	b := pl.Deploy(Unikernel{Build: build.WebAppliance()}, DeployOpts{})
	if a.Err != nil || b.Err != nil {
		t.Fatal(a.Err, b.Err)
	}
	same := true
	for i := range a.Image.Sections {
		if a.Image.Sections[i].Base != b.Image.Sections[i].Base {
			same = false
		}
	}
	if same {
		t.Error("two deployments shared a memory layout; ASR not per-deployment")
	}
}

func TestParallelToolstackDeploymentsOverlap(t *testing.T) {
	measure := func(parallel bool) float64 {
		pl := NewPlatform(9)
		var deps []*Deployment
		for i := 0; i < 3; i++ {
			deps = append(deps, pl.Deploy(Unikernel{
				Build:  build.Config{Name: "g", Roots: []string{"udp"}},
				Memory: 256 << 20,
			}, DeployOpts{ParallelToolstack: parallel}))
		}
		end, err := pl.Run()
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range deps {
			if d.Domain == nil {
				t.Fatal("deployment never created")
			}
		}
		return end.Seconds()
	}
	par := measure(true)
	ser := measure(false)
	if par >= ser {
		t.Errorf("parallel deployments (%.3fs) not faster than serial (%.3fs)", par, ser)
	}
}

func TestDeployDelayHonoured(t *testing.T) {
	pl := NewPlatform(10)
	dep := pl.Deploy(Unikernel{
		Build: build.Config{Name: "late", Roots: []string{"udp"}},
	}, DeployOpts{Delay: 3 * time.Second})
	if _, err := pl.Run(); err != nil {
		t.Fatal(err)
	}
	if dep.Domain.CreatedAt.Seconds() < 3 {
		t.Errorf("domain created at %.3fs, want >= 3s delay", dep.Domain.CreatedAt.Seconds())
	}
}

func TestWaitCreatedBlocksUntilDomainExists(t *testing.T) {
	pl := NewPlatform(11)
	dep := pl.Deploy(Unikernel{
		Build: build.Config{Name: "slowpoke", Roots: []string{"udp"}},
	}, DeployOpts{Delay: time.Second})
	var sawAt float64
	pl.K.Spawn("waiter", func(p *sim.Proc) {
		d := dep.WaitCreated(p)
		if d == nil {
			t.Error("WaitCreated returned nil")
		}
		sawAt = p.Now().Seconds()
	})
	if _, err := pl.Run(); err != nil {
		t.Fatal(err)
	}
	if sawAt < 1 {
		t.Errorf("WaitCreated returned at %.3fs, before the delayed build", sawAt)
	}
}

// TestDeployHostSelectsSite: DeployOpts.Host names the physical host, an
// unknown name fails the deployment, and an empty name means the first
// host even when it is marked down.
func TestDeployHostSelectsSite(t *testing.T) {
	pl := NewPlatform(9)
	h0 := pl.Sites()[0]
	h1 := pl.AddHost("h1")
	h0.SetDown()
	app := func(name string) Unikernel {
		return Unikernel{Build: build.Config{Name: name, Roots: []string{"udp"}}, Main: func(env *Env) int { return 0 }}
	}
	named := pl.Deploy(app("on-h1"), DeployOpts{Host: "h1"})
	unknown := pl.Deploy(app("on-nowhere"), DeployOpts{Host: "h9"})
	first := pl.Deploy(app("on-first"), DeployOpts{})
	if unknown.Err == nil || unknown.Site != nil {
		t.Errorf("unknown host: Err = %v, Site = %v; want an error and no site", unknown.Err, unknown.Site)
	}
	if _, err := pl.Run(); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		dep  *Deployment
		want *Site
	}{{named, h1}, {first, h0}} {
		if c.dep.Err != nil {
			t.Fatalf("%s: %v", c.dep.Name, c.dep.Err)
		}
		if c.dep.Site != c.want || c.dep.Domain == nil || c.dep.Domain.Host != c.want.Host {
			t.Errorf("%s not built on %s", c.dep.Name, c.want.Name)
		}
	}
}
