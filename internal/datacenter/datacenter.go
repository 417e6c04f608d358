// Package datacenter models a multi-host machine room: each core.Site is
// one physical host whose dom0 bridge joins a two-tier ToR/spine fabric,
// and live migration moves a running unikernel between hosts by copying
// its sealed image and device state across that fabric (paper §6: sealed,
// megabyte-scale appliances are small enough to relocate in milliseconds,
// which is what makes the fleet's failure domains more than notation).
//
// The fabric is a learning L2 switch over the host bridges: it reuses
// netback.Link verbatim for every hop, so a ToR traversal is costed by the
// same latency math as a bridge traversal — per-frame switching CPU,
// per-byte serialisation, fixed propagation. Hosts in the same rack reach
// each other through their ToR ports alone; cross-rack paths add a spine
// hop. All fabric state lives on the control shard (kernel 0), where every
// host bridge is homed, so parallel runs stay byte-identical with serial
// ones.
package datacenter

import (
	"fmt"
	"time"

	"repro/internal/bufpool"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/hypervisor"
	"repro/internal/netback"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Topology describes the fabric: the two link classes and how hosts group
// into racks. Zero values take the defaults below.
type Topology struct {
	// ToR is the host-to-top-of-rack hop, charged once leaving the source
	// host and once entering the destination host.
	ToR netback.Link
	// Spine is the rack-to-rack hop, charged only on cross-rack paths.
	Spine netback.Link
	// HostsPerRack groups platform hosts (in rack order) under ToRs.
	HostsPerRack int
	// DeviceState is the bytes of device and vCPU state copied alongside
	// the sealed image during a migration (ring contents, timer state).
	DeviceState int
}

// Default fabric constants: 10GbE-class ToR and spine links (both
// quantise to the model's 1ns/byte line-rate ceiling, ~8 Gbit/s; the
// spine's edge is its lower switching cost, not a finer per-byte rate),
// two hosts per rack, a quarter-megabyte of device state.
func (t *Topology) defaults() {
	if t.ToR == (netback.Link{}) {
		t.ToR = netback.Link{
			PerPacketCost: 500 * time.Nanosecond,
			PerByteCost:   netback.Gbps(10),
			Propagation:   5 * time.Microsecond,
		}
	}
	if t.Spine == (netback.Link{}) {
		t.Spine = netback.Link{
			PerPacketCost: 250 * time.Nanosecond,
			PerByteCost:   netback.Gbps(40),
			Propagation:   15 * time.Microsecond,
		}
	}
	if t.HostsPerRack <= 0 {
		t.HostsPerRack = 2
	}
	if t.DeviceState <= 0 {
		t.DeviceState = 256 << 10
	}
}

// DC is the fabric controller. Create it with New after every AddHost
// call: it wires an uplink port into each host bridge present at that
// point.
type DC struct {
	pl   *core.Platform
	k    *sim.Kernel
	topo Topology

	torCPU    []*sim.CPU // per-host ToR switching CPU
	torWire   []*sim.CPU // per-host ToR serialisation resource
	spineCPU  *sim.CPU
	spineWire *sim.CPU

	where map[netback.MAC]int // learned MAC -> host index
	down  []bool

	// Stats
	Forwards      int
	Floods        int
	Steers        int
	UnknownFloods int // unicast frames flooded because the MAC was unlearned
	Drops         int
	Migrations    int
	HostKills     int
	LastBlackout  time.Duration

	mxFrames   func(kind string) *obs.Counter
	mxBytes    *obs.Counter
	mxUnknown  *obs.Counter
	mxDrops    func(reason string) *obs.Counter
	mxKills    *obs.Counter
	mxMigrates *obs.Counter
	mxBlackout *obs.Histogram
}

// blackoutBounds bucket the migration blackout histogram (µs).
var blackoutBounds = []float64{100, 250, 500, 1000, 2500, 5000, 10000, 25000, 50000}

// New builds the fabric over every host the platform currently has and
// plugs an uplink into each host bridge. The platform's hosts must all be
// racked (core.Platform.AddHost) before New.
func New(pl *core.Platform, topo Topology) *DC {
	topo.defaults()
	k := pl.K
	m := k.Metrics()
	dc := &DC{
		pl:        pl,
		k:         k,
		topo:      topo,
		spineCPU:  k.NewCPU("spine"),
		spineWire: k.NewCPU("spine-wire"),
		where:     map[netback.MAC]int{},
		down:      make([]bool, len(pl.Sites())),
		mxFrames: func(kind string) *obs.Counter {
			return m.Counter("dc_fabric_frames_total", obs.L("kind", kind))
		},
		mxBytes: m.Counter("dc_fabric_bytes_total"),
		mxUnknown: m.Counter("dc_fabric_frames_total",
			obs.L("kind", "unknown-flood")),
		mxDrops: func(reason string) *obs.Counter {
			return m.Counter("dc_fabric_drops_total", obs.L("reason", reason))
		},
		mxKills:    m.Counter("dc_host_kills_total"),
		mxMigrates: m.Counter("dc_migrations_total"),
		mxBlackout: m.Histogram("dc_migration_blackout_us", blackoutBounds),
	}
	for i, s := range pl.Sites() {
		dc.torCPU = append(dc.torCPU, k.NewCPU(s.Name+"-tor"))
		dc.torWire = append(dc.torWire, k.NewCPU(s.Name+"-tor-wire"))
		s.Bridge.SetUplink(&port{dc: dc, host: i})
	}
	return dc
}

// rack maps a host index to its rack.
func (dc *DC) rack(host int) int { return host / dc.topo.HostsPerRack }

// Learn records that mac is reachable via the named host — the fabric's
// gratuitous-ARP equivalent, announced when a migrated domain resumes on
// its destination so traffic stops chasing the source host.
func (dc *DC) Learn(mac netback.MAC, host string) error {
	s := dc.pl.SiteByName(host)
	if s == nil {
		return fmt.Errorf("datacenter: unknown host %q", host)
	}
	dc.where[mac] = s.Index
	return nil
}

// Where reports the host index the fabric has learned for mac (-1 if
// unlearned).
func (dc *DC) Where(mac netback.MAC) int {
	if i, ok := dc.where[mac]; ok {
		return i
	}
	return -1
}

// port adapts one host's bridge to the fabric (netback.Uplink). All its
// methods run on kernel 0, in bridge context, at the instant the frame
// cleared the source bridge.
type port struct {
	dc   *DC
	host int
}

func (p *port) Forward(src netback.MAC, f *bufpool.Buf) { p.dc.forward(p.host, src, f) }
func (p *port) Flood(src netback.MAC, f *bufpool.Buf)   { p.dc.flood(p.host, src, f) }
func (p *port) SteerRemote(dst netback.MAC, f *bufpool.Buf) bool {
	return p.dc.steer(p.host, dst, f)
}

// forward routes a unicast frame with a non-local destination. A learned
// MAC takes the point-to-point path; an unlearned one floods to every
// other live host, exactly as a real L2 fabric handles unknown unicast.
func (dc *DC) forward(srcHost int, src netback.MAC, f *bufpool.Buf) {
	if dc.down[srcHost] {
		dc.drop("host-down", f)
		return
	}
	dc.learn(src, srcHost)
	var dst netback.MAC
	copy(dst[:], f.Bytes()[0:6])
	j, ok := dc.where[dst]
	if !ok {
		dc.UnknownFloods++
		dc.mxUnknown.Inc()
		dc.floodFrom(srcHost, f)
		return
	}
	if j == srcHost || dc.down[j] {
		// Stale learning (the owner moved or died): drop; the next
		// broadcast or explicit Learn repairs the table.
		dc.drop("stale-route", f)
		return
	}
	dc.Forwards++
	dc.mxFrames("forward").Inc()
	dc.account(f.Len())
	dc.route(srcHost, j, f.Len(), func() { dc.pl.Sites()[j].Bridge.Inject(f) })
}

// flood carries a broadcast beyond the source host.
func (dc *DC) flood(srcHost int, src netback.MAC, f *bufpool.Buf) {
	if dc.down[srcHost] {
		dc.drop("host-down", f)
		return
	}
	dc.learn(src, srcHost)
	dc.Floods++
	dc.mxFrames("flood").Inc()
	dc.account(f.Len())
	dc.floodFrom(srcHost, f)
}

// floodFrom delivers one reference of f into every live host but the
// source, in host order (determinism), each over its own fabric path.
// Consumes the caller's reference.
func (dc *DC) floodFrom(srcHost int, f *bufpool.Buf) {
	for j := range dc.pl.Sites() {
		if j == srcHost || dc.down[j] {
			continue
		}
		g := f.Retain()
		dst := dc.pl.Sites()[j].Bridge
		dc.route(srcHost, j, f.Len(), func() { dst.Inject(g) })
	}
	f.Release()
}

// steer carries an L4 steering decision toward a MAC on another host. The
// balancer only steers to replicas that answered probes, so the MAC is
// normally learned; a miss (e.g. mid-migration) drops the frame and the
// client's retransmit recovers.
func (dc *DC) steer(srcHost int, dst netback.MAC, f *bufpool.Buf) bool {
	j, ok := dc.where[dst]
	if !ok || j == srcHost || dc.down[j] || dc.down[srcHost] {
		dc.drop("steer-miss", f)
		return false
	}
	dc.Steers++
	dc.mxFrames("steer").Inc()
	dc.account(f.Len())
	dc.route(srcHost, j, f.Len(), func() { dc.pl.Sites()[j].Bridge.InjectSteer(dst, f) })
	return true
}

func (dc *DC) drop(reason string, f *bufpool.Buf) {
	dc.Drops++
	dc.mxDrops(reason).Inc()
	f.Release()
}

func (dc *DC) learn(mac netback.MAC, host int) { dc.where[mac] = host }

func (dc *DC) account(n int) { dc.mxBytes.Add(int64(n)) }

// route charges the fabric path from host i to host j for one frame of n
// bytes and runs deliver at the instant the frame arrives at j's bridge:
// source ToR, spine when the racks differ, destination ToR. Each hop
// reserves its switch CPU and wire when the frame actually reaches it, so
// queueing backs up hop by hop like a real cut-through fabric under load.
func (dc *DC) route(i, j, n int, deliver func()) {
	k := dc.k
	lastHop := func() {
		at := dc.topo.ToR.Reserve(dc.torCPU[j], dc.torWire[j], n)
		k.At(at, deliver)
	}
	at := dc.topo.ToR.Reserve(dc.torCPU[i], dc.torWire[i], n)
	if dc.rack(i) == dc.rack(j) {
		k.At(at, lastHop)
		return
	}
	k.At(at, func() {
		at2 := dc.topo.Spine.Reserve(dc.spineCPU, dc.spineWire, n)
		k.At(at2, lastHop)
	})
}

// bulkPath moves n bytes from host i to host j store-and-forward (the
// whole snapshot clears each hop before the next begins — conservative for
// a streamed copy) and returns the completion instant.
func (dc *DC) bulkPath(p *sim.Proc, i, j, n int) {
	hop := func(l netback.Link, wire *sim.CPU) {
		at := l.ReserveBulk(wire, n)
		p.Sleep(at.Sub(dc.k.Now()))
	}
	hop(dc.topo.ToR, dc.torWire[i])
	if dc.rack(i) != dc.rack(j) {
		hop(dc.topo.Spine, dc.spineWire)
	}
	hop(dc.topo.ToR, dc.torWire[j])
}

// suspendSettle is how long Migrate waits after the freeze for the suspend
// to land on the guest shard and the device rings to quiesce.
const suspendSettle = 20 * time.Microsecond

// Migrate live-migrates fleet replica r to dstHost and blocks p until the
// replica serves again: freeze on the source, copy the sealed image plus
// device state across the fabric at modeled bandwidth, announce the MAC's
// new home, resume from the snapshot, and wait for the replica's server to
// listen. Returns the blackout — freeze instant to ready-to-serve — which
// is also recorded in the dc_migration_blackout_us histogram. In-flight
// TCP connections do not survive (the resumed stack is fresh); clients
// recover by retransmitting, exactly as after a crash-replace, but the
// replica itself — identity, address, backend slot — carries over.
func (dc *DC) Migrate(p *sim.Proc, fl *fleet.Fleet, r *fleet.Replica, dstHost string) (time.Duration, error) {
	src := r.Dep.Site
	dst := dc.pl.SiteByName(dstHost)
	if dst == nil {
		return 0, fmt.Errorf("datacenter: unknown destination host %q", dstHost)
	}
	if !dst.Alive() {
		return 0, fmt.Errorf("datacenter: destination host %s is down", dstHost)
	}
	if src == dst {
		return 0, fmt.Errorf("datacenter: %s already on %s", r.Name, dstHost)
	}
	t0 := dc.k.Now()
	fl.BeginMigrate(r)
	p.Sleep(suspendSettle)

	n := dc.topo.DeviceState
	if img := r.Dep.Image; img != nil {
		n += img.SizeKB << 10
	}
	dc.bulkPath(p, src.Index, dst.Index, n)

	dc.Learn(netback.MAC(r.MAC), dstHost)
	dep := fl.ResumeMigrated(r, dstHost)
	d := dep.WaitCreated(p)
	if dep.Err != nil {
		return 0, fmt.Errorf("datacenter: resume %s on %s: %w", r.Name, dstHost, dep.Err)
	}
	d.WaitReady(p)

	blackout := dc.k.Now().Sub(t0)
	dc.LastBlackout = blackout
	dc.Migrations++
	dc.mxMigrates.Inc()
	dc.mxBlackout.Observe(float64(blackout.Microseconds()))
	return blackout, nil
}

// KillHost fails a whole host: every domain on it (dom0 included) is
// destroyed, its fabric port goes dark in both directions, and the fleet's
// placement stops choosing it. The fleet sees its replicas die and heals across
// the surviving failure domains.
func (dc *DC) KillHost(name string) error {
	s := dc.pl.SiteByName(name)
	if s == nil {
		return fmt.Errorf("datacenter: unknown host %q", name)
	}
	if !s.Alive() {
		return nil
	}
	s.SetDown()
	dc.down[s.Index] = true
	dc.HostKills++
	dc.mxKills.Inc()
	for _, d := range s.Host.Domains() {
		// Destroy routes the kill to each guest's home shard; it no-ops on
		// domains that are already dead.
		d.Destroy(137, hypervisor.ShutdownCrash)
	}
	return nil
}
