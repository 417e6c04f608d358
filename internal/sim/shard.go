// Conservative parallel simulation: a Cluster is a set of shard kernels,
// one per simulated pCPU plus one for the host/dom0 side, advanced in
// lockstep epochs. Within an epoch every shard drains its own event queue
// independently (the host shard first, then the pCPU shards, optionally
// each on its own OS thread); all cross-shard
// interaction travels as timestamped sends into the destination shard's
// mailbox with a delay of at least the cluster lookahead W — the minimum
// cross-pCPU event latency (bridge propagation, vchan/event-channel hops).
//
// The epoch barrier is null-message-free (Fujimoto-style conservative
// synchronization): at each barrier the coordinator drains every mailbox in
// a canonical order, computes each shard's next-event time, and grants
// shard i a window
//
//	E_i = min( min_{j!=i} next_j, next_i + width ) + width
//
// where width is the epoch width chosen by the width controller (below).
// With width = W (the static lookahead) events strictly before E_i are
// provably safe to run: anything another shard will ever send arrives at or
// after its own next event time plus W, and a reply provoked by shard i's
// own sends cannot come back before next_i + 2W. Mailbox drains sort by
// (timestamp, source shard, source sequence) and then assign
// destination-local sequence numbers, so the per-shard execution order —
// and every trace, metric and experiment output — is a pure function of the
// virtual schedule, byte-identical whether the windows execute on one
// thread or many.
//
// # Adaptive epoch widths
//
// A static width of W pays one rendezvous per lookahead of virtual time
// even when no shard is talking to any other, and one rendezvous per
// cross-shard hop when they are. The adaptive driver (the default) instead
// grants every shard one uniform window per epoch, anchored to a monotone
// horizon E_n = max(T, E_{n-1}) + width, and iterates delivery rounds
// inside the epoch: run the granted shards, drain the sends they posted,
// and re-grant exactly the shards that received work inside the window,
// until none did. A request chain thus crosses shards several hops per
// epoch at its natural timestamps — targeted per-shard wakeups replace full
// barriers — and the rendezvous count scales with the chosen width, not
// with the wiring.
//
// The width controller picks the multiplier over W per epoch, driven only
// by per-barrier counters and virtual-time hints — all deterministic
// functions of the virtual schedule, so serial and parallel drivers stay
// byte-identical:
//
//   - every epoch that drained cross-shard sends doubles the width up to
//     DefaultBusyCap·W (traffic is when batching pays: concurrent request chains
//     share the epoch's rounds), and an epoch that meets traffic at a
//     quiet-stretch width above that clamps straight back to DefaultBusyCap·W;
//   - after quietThreshold consecutive epochs drained nothing (and any
//     netback HoldWide hint has expired), the width doubles each epoch up
//     to DefaultQuietCap·W — idle stretches cost a handful of barriers instead of
//     one per W.
//
// Widths beyond W trade bounded timeliness for rendezvous count: a send
// can reach a destination whose clock already passed its arrival timestamp
// (at most one window's worth, and only when the destination had denser
// local work of its own). Such sends are delivered at the destination's
// clock (the At clamp), deterministically, and counted in
// sim_cluster_late_deliveries_total; rounds deliver everything else at its
// natural timestamp. SetAdaptive(false) restores the exact static-W
// conservative schedule, under which no send can ever be late.
package sim

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// xevent is one cross-shard send parked in a destination mailbox until the
// next epoch barrier.
type xevent struct {
	at  Time
	src int
	seq uint64
	fn  func()
}

// mailbox collects cross-shard sends. The queue is guarded by the cluster's
// single xmu (sends are rare — a handful per barrier — so one cluster-wide
// lock costs the barrier exactly one acquisition instead of one per
// mailbox). Two slices ping-pong between the append side and the barrier
// drain, so steady-state operation allocates nothing.
type mailbox struct {
	q        []xevent // senders append under Cluster.xmu
	proc     []xevent // coordinator-owned: last barrier's drain, recycled
	recycled bool     // q's backing array came from an earlier drain
}

// Width-controller tunables. Thresholds are in consecutive barriers, caps
// are width multipliers over the static lookahead W.
const (
	quietThreshold  = 2   // zero-drain barriers before the width starts doubling
	DefaultBusyCap  = 64  // width cap while cross-shard traffic is flowing
	DefaultQuietCap = 256 // width cap while nothing is flowing
)

// Cluster is a set of shard kernels advanced in conservative epochs.
type Cluster struct {
	kernels  []*Kernel
	w        Time // lookahead: minimum cross-shard event latency
	limit    Time // 0 = no limit (mirrors Kernel.limit cluster-wide)
	stopped  atomic.Bool
	parallel bool

	// Width-controller state, read and written only at barriers.
	adaptive bool
	mult     Time // current epoch width multiplier (1 = static W)
	quietRun int  // consecutive barriers that drained zero sends
	holdWide Time // do not widen before this instant (netback traffic hint)
	horizon  Time // last adaptive epoch's window end (monotone)

	xmu sync.Mutex // guards every mailbox queue and holdWide

	mxEpochs  *obs.Counter
	mxClamped *obs.Counter
	mxElided  *obs.Counter
	mxLate    *obs.Counter
	mxReuse   *obs.Counter
	mxWiden   *obs.Counter
	mxWClamp  *obs.Counter
	mxRounds  *obs.Counter
	gWidth    *obs.Gauge

	// Parallel driver state: windows[i] is shard i's grant for the current
	// epoch (0 = idle this epoch), published before the per-worker grant
	// send. Workers rendezvous on a counter barrier: the coordinator arms
	// pending with the number of granted shards, each worker decrements it
	// after its window, and the last one through signals done — one wakeup
	// per granted shard and one completion wakeup per epoch, instead of a
	// broadcast to every worker.
	windows []Time
	grants  []chan Time
	done    chan struct{}
	pending atomic.Int32
	wg      sync.WaitGroup
	started bool
}

// NewCluster creates shards kernels sharing one virtual timeline, with
// cross-shard lookahead w (must be positive). Shard 0 is the host/dom0
// shard and keeps the raw seed so single-shard behavior matches a plain
// kernel; other shards derive their RNG seed deterministically. Shard 0
// attaches to the optional Obs exactly as NewKernel does, and all shards
// share its metrics registry and trace timeline (per-shard trace buffers
// merged at export). Adaptive epoch widths are on by default;
// SetAdaptive(false) restores the static-W schedule.
func NewCluster(seed int64, shards int, w time.Duration, o ...Obs) *Cluster {
	if shards < 1 {
		shards = 1
	}
	if w <= 0 {
		panic("sim: cluster lookahead must be positive")
	}
	c := &Cluster{
		w:        Time(w),
		windows:  make([]Time, shards),
		adaptive: true,
		mult:     1,
	}
	k0 := NewKernel(seed, o...)
	k0.cluster = c
	c.kernels = append(c.kernels, k0)
	for i := 1; i < shards; i++ {
		k := &Kernel{
			rng:     rand.New(rand.NewSource(seed ^ int64(i)*0x9E3779B9)),
			live:    map[*Proc]struct{}{},
			parked:  make(chan *Proc),
			trace:   k0.trace.Shard(i),
			metrics: k0.metrics,
			cluster: c,
			shard:   i,
		}
		k.mxSpawns = k0.mxSpawns
		k.mxWakes = k0.mxWakes
		k.mxCancels = k0.mxCancels
		c.kernels = append(c.kernels, k)
	}
	m := k0.metrics
	c.mxEpochs = m.Counter("sim_cluster_epochs_total")
	c.mxClamped = m.Counter("sim_cluster_clamped_sends_total")
	c.mxElided = m.Counter("sim_cluster_barriers_elided_total")
	c.mxLate = m.Counter("sim_cluster_late_deliveries_total")
	c.mxReuse = m.Counter("sim_cluster_mailbox_reuse_total")
	c.mxWiden = m.Counter("sim_cluster_width_widenings_total")
	c.mxWClamp = m.Counter("sim_cluster_width_clamps_total")
	c.mxRounds = m.Counter("sim_cluster_rounds_total")
	c.gWidth = m.Gauge("sim_cluster_width_mult")
	c.gWidth.Set(1)
	return c
}

// SetParallel selects the threaded epoch driver: each shard's windows run
// on a dedicated OS thread. Output is byte-identical either way.
func (c *Cluster) SetParallel(on bool) { c.parallel = on }

// Parallel reports whether the threaded driver is selected.
func (c *Cluster) Parallel() bool { return c.parallel }

// SetAdaptive switches the adaptive width controller on or off. Off, every
// epoch uses the static lookahead W — the exact PR-5 schedule. Call before
// Run.
func (c *Cluster) SetAdaptive(on bool) {
	c.adaptive = on
	if !on {
		c.mult = 1
		c.gWidth.Set(1)
	}
}

// WidthMult returns the current epoch width multiplier. Meaningful between
// Run calls (the controller owns it at barriers).
func (c *Cluster) WidthMult() int { return int(c.mult) }

// HoldWide tells the width controller not to widen epochs before virtual
// time t: some endpoint expects cross-shard traffic (a delivered frame
// usually provokes an ACK or a response) even though the next few barriers
// may drain nothing. Deterministic — t derives from the virtual schedule.
// Safe to call from any shard's context.
func (c *Cluster) HoldWide(t Time) {
	c.xmu.Lock()
	if t > c.holdWide {
		c.holdWide = t
	}
	c.xmu.Unlock()
}

// Shards returns the number of shard kernels.
func (c *Cluster) Shards() int { return len(c.kernels) }

// Kernel returns shard i's kernel.
func (c *Cluster) Kernel(i int) *Kernel { return c.kernels[i] }

// Cluster returns the cluster this kernel shards, or nil for a plain kernel.
func (k *Kernel) Cluster() *Cluster { return k.cluster }

// Shard returns this kernel's shard index (0 on a plain kernel).
func (k *Kernel) Shard() int { return k.shard }

// Post schedules fn on dst's shard at least d after the current instant.
// On the same kernel this is a plain After. Cross-shard, the delay is
// clamped up to the cluster lookahead W (counted in
// sim_cluster_clamped_sends_total) and the send parks in dst's mailbox
// until the next epoch barrier. Call from k's own context.
func (k *Kernel) Post(dst *Kernel, d time.Duration, fn func()) {
	if dst == k {
		k.After(d, fn)
		return
	}
	c := k.cluster
	if c == nil || dst.cluster != c {
		panic("sim: Post across unrelated kernels")
	}
	at := k.now.Add(d)
	if lo := k.now + c.w; at < lo {
		at = lo
		c.mxClamped.Inc()
	}
	k.xseq++
	x := xevent{at: at, src: k.shard, seq: k.xseq, fn: fn}
	c.xmu.Lock()
	dst.mbox.q = append(dst.mbox.q, x)
	c.xmu.Unlock()
}

// PostAt is Post with an absolute target time (same clamping rules).
func (k *Kernel) PostAt(dst *Kernel, t Time, fn func()) {
	k.Post(dst, t.Sub(k.now), fn)
}

// SpawnTo spawns fn as a proc named name on dst, attributing its trace
// events to pid (0 = host). Same-kernel spawns are immediate; cross-shard
// spawns ride the mailbox and start one lookahead later.
func (k *Kernel) SpawnTo(dst *Kernel, name string, pid int, fn func(p *Proc)) {
	if dst == k {
		p := k.Spawn(name, fn)
		if pid != 0 {
			p.SetTracePid(pid)
		}
		return
	}
	k.Post(dst, 0, func() {
		p := dst.Spawn(name, fn)
		if pid != 0 {
			p.SetTracePid(pid)
		}
	})
}

// nextWork returns the shard's earliest pending work: a runnable proc runs
// at the current instant, otherwise the earliest live event.
func (k *Kernel) nextWork() (Time, bool) {
	if k.runqHd != len(k.runq) {
		return k.now, true
	}
	if e := k.peekLive(); e != nil {
		return e.at, true
	}
	return 0, false
}

// runWindow drains runnable procs and events strictly before winEnd.
func (k *Kernel) runWindow(winEnd Time) {
	k.winEnd = winEnd
	for !k.stopped && k.step() {
	}
	k.winEnd = 0
}

// drainMailboxes moves every parked cross-shard send into its destination
// heap and returns how many it moved. All queues are stolen under a single
// lock acquisition; sorting and heap insertion run unlocked (no shard is
// executing at a barrier). Sends sort by (timestamp, source shard, source
// sequence) before destination-local sequence numbers are assigned, so the
// resulting order is independent of which thread enqueued first. A send
// whose destination clock already passed its timestamp (possible inside
// widened epochs) is delivered at the destination's current instant — the
// At clamp — and counted in sim_cluster_late_deliveries_total.
func (c *Cluster) drainMailboxes() int {
	c.xmu.Lock()
	for _, k := range c.kernels {
		m := &k.mbox
		q := m.q
		if len(q) > 0 && m.recycled {
			c.mxReuse.Inc()
		}
		m.q = m.proc[:0]
		m.recycled = cap(m.proc) > 0
		m.proc = q
	}
	c.xmu.Unlock()
	total := 0
	for _, k := range c.kernels {
		q := k.mbox.proc
		if len(q) == 0 {
			continue
		}
		total += len(q)
		sort.Slice(q, func(i, j int) bool {
			if q[i].at != q[j].at {
				return q[i].at < q[j].at
			}
			if q[i].src != q[j].src {
				return q[i].src < q[j].src
			}
			return q[i].seq < q[j].seq
		})
		for i := range q {
			if q[i].at < k.now {
				c.mxLate.Inc()
			}
			k.At(q[i].at, q[i].fn)
			q[i].fn = nil // drop the closure reference until the slot recycles
		}
	}
	return total
}

// mailboxesPending reports whether any cross-shard send is still parked.
func (c *Cluster) mailboxesPending() bool {
	c.xmu.Lock()
	defer c.xmu.Unlock()
	for _, k := range c.kernels {
		if len(k.mbox.q) > 0 {
			return true
		}
	}
	return false
}

// updateWidth advances the width controller with this barrier's drain
// count. T is the global next-event floor. Called only at barriers.
func (c *Cluster) updateWidth(drained int, T Time) {
	if !c.adaptive {
		return
	}
	prev := c.mult
	if drained > 0 {
		c.quietRun = 0
		if c.mult > DefaultBusyCap {
			// A quiet-stretch width met live traffic: clamp straight back
			// to the busy regime.
			c.mult = DefaultBusyCap
		} else if c.mult < DefaultBusyCap {
			// Traffic is exactly when batching pays: each barrier already
			// costs a rendezvous, so widen immediately (up to DefaultBusyCap) and
			// let concurrent request chains share the next one.
			c.mult *= 2
			if c.mult > DefaultBusyCap {
				c.mult = DefaultBusyCap
			}
		}
	} else {
		c.quietRun++
		c.xmu.Lock()
		hold := c.holdWide
		c.xmu.Unlock()
		if c.quietRun >= quietThreshold && T > hold && c.mult < DefaultQuietCap {
			c.mult *= 2
			if c.mult > DefaultQuietCap {
				c.mult = DefaultQuietCap
			}
		}
	}
	if c.mult > prev {
		c.mxWiden.Inc()
	} else if c.mult < prev {
		c.mxWClamp.Inc()
	}
	if c.mult != prev {
		c.gWidth.Set(float64(c.mult))
	}
}

// runGranted executes every shard whose windows entry is nonzero, on the
// worker threads (parallel) or inline (serial), and re-raises any shard
// panic deterministically.
//
// Shard 0 always runs its window before any other shard starts, on both
// drivers. It hosts the host-side control code (the fleet's SLO watchdog,
// autoscaler and load balancer), which reads state that guest shards
// write, such as replica latency histograms. Running it first gives it the
// same view on the parallel driver as on the serial one; overlapping it
// with the guest shards made those reads depend on thread timing.
func (c *Cluster) runGranted() {
	n := len(c.kernels)
	if c.parallel {
		// Shard 0's window runs here on the coordinating thread, then
		// workers pick up shards 1..n-1 concurrently. Only shards with
		// runnable windows are woken (elided and idle shards stay
		// parked).
		if c.windows[0] != 0 {
			c.kernels[0].safeWindow(c.windows[0])
		}
		act := int32(0)
		for i := 1; i < n; i++ {
			if c.windows[i] != 0 {
				act++
			}
		}
		if act > 0 {
			c.pending.Store(act)
			for i := 1; i < n; i++ {
				if w := c.windows[i]; w != 0 {
					c.grants[i] <- w
				}
			}
			<-c.done
		}
	} else {
		for i, k := range c.kernels {
			if c.windows[i] != 0 {
				k.safeWindow(c.windows[i])
			}
		}
	}
	for _, k := range c.kernels {
		if k.panicked {
			panic(k.panicVal)
		}
	}
}

// runEpochs is the barrier loop shared by the serial and parallel drivers.
//
// Each epoch grants windows, then iterates delivery rounds to a fixpoint:
// run the granted shards, drain the sends they posted, and re-grant exactly
// the shards that received new work inside their window, until none did.
// Under the static conservative windows no send can land inside a window
// (arrival ≥ sender's next + W ≥ window end), so the loop runs one round —
// the exact PR-5 schedule. Under widened adaptive windows the rounds let a
// request chain cross shards several hops per epoch at its natural
// timestamps instead of one hop per barrier: cheap targeted wakeups replace
// full rendezvous, which is what lets the width controller actually shrink
// sim_cluster_epochs_total. Rounds terminate because every mailbox trip
// moves a send at least W past the posting shard's clock, so a chain runs
// out of window after at most 2·width/W hops.
func (c *Cluster) runEpochs() {
	n := len(c.kernels)
	next := make([]Time, n)
	has := make([]bool, n)
	wins := make([]Time, n)
	if c.parallel && !c.started {
		c.startWorkers()
	}
	defer c.stopWorkers()
	carry := 0 // sends drained by the previous epoch's rounds
	for !c.stopped.Load() {
		drained := carry + c.drainMailboxes()
		carry = 0
		T := Time(math.MaxInt64)
		any := false
		for i, k := range c.kernels {
			next[i], has[i] = k.nextWork()
			if has[i] && next[i] < T {
				T = next[i]
				any = true
			}
		}
		if !any {
			break
		}
		if c.limit != 0 && T > c.limit {
			break
		}
		c.updateWidth(drained, T)
		if c.adaptive {
			// One uniform window per epoch, anchored to a monotone horizon:
			// E_n = max(T, E_{n-1}) + width. The horizon advances a full
			// width per barrier even while early arrivals drag the floor T
			// back, so the virtual time covered per rendezvous — and hence
			// the barrier savings — scales with the width multiplier. The
			// shard holding the floor always satisfies next < E, so every
			// epoch makes progress.
			win := T
			if c.horizon > win {
				win = c.horizon
			}
			win += c.w * c.mult
			c.horizon = win
			for i := range c.kernels {
				wins[i] = win
			}
		} else {
			// Static schedule: the exact conservative PR-5 windows.
			for i := range c.kernels {
				bound := next[i] + c.w // earliest echo of our own sends
				for j := range c.kernels {
					if j != i && has[j] && next[j] < bound {
						bound = next[j]
					}
				}
				wins[i] = bound + c.w
			}
		}
		for i := range c.kernels {
			if !has[i] {
				c.windows[i] = 0
				continue
			}
			if next[i] >= wins[i] {
				// Quiet-shard elision: every event (heap and timing wheel
				// both feed nextWork) lies at or past the horizon, so the
				// window would run nothing — skip the rendezvous.
				c.windows[i] = 0
				c.mxElided.Inc()
				continue
			}
			c.windows[i] = wins[i]
		}
		for {
			c.runGranted()
			got := c.drainMailboxes()
			carry += got
			if got == 0 {
				break
			}
			// Re-grant exactly the shards that now hold work inside their
			// window (a drained send, or a timer it re-armed). step refuses
			// events past the cluster limit, so don't re-grant for those.
			regrant := false
			for i, k := range c.kernels {
				c.windows[i] = 0
				if nw, ok := k.nextWork(); ok && nw < wins[i] && (c.limit == 0 || nw <= c.limit) {
					c.windows[i] = wins[i]
					regrant = true
				}
			}
			if !regrant {
				break
			}
			c.mxRounds.Inc()
		}
		c.mxEpochs.Inc()
	}
}

// safeWindow runs one window, converting a proc panic (re-raised by step)
// into the kernel's recorded panic state so the coordinator re-panics it
// deterministically after the barrier.
func (k *Kernel) safeWindow(winEnd Time) {
	defer func() {
		if v := recover(); v != nil {
			k.panicked = true
			k.panicVal = v
		}
	}()
	k.runWindow(winEnd)
}

func (c *Cluster) startWorkers() {
	c.started = true
	c.done = make(chan struct{}, 1)
	c.grants = make([]chan Time, len(c.kernels))
	for i := 1; i < len(c.kernels); i++ {
		c.grants[i] = make(chan Time, 1)
		c.wg.Add(1)
		go c.worker(i)
	}
}

func (c *Cluster) stopWorkers() {
	if !c.started {
		return
	}
	for i := 1; i < len(c.kernels); i++ {
		close(c.grants[i])
	}
	c.wg.Wait()
	c.started = false
}

// worker drives one shard: block until the next epoch grant, run the
// window, then check in at the counter barrier — the last worker through
// wakes the coordinator. Shard 0's window runs on the coordinating thread
// itself (see the epoch publish in runEpochs), so workers exist for shards
// 1..n-1. Closing the grant channel retires the worker.
func (c *Cluster) worker(i int) {
	defer c.wg.Done()
	k := c.kernels[i]
	for w := range c.grants[i] {
		k.safeWindow(w)
		if c.pending.Add(-1) == 0 {
			c.done <- struct{}{}
		}
	}
}

// Run executes the cluster until no shard has pending work (or Stop /
// StopAt applies), mirroring Kernel.Run's deadlock semantics cluster-wide.
func (c *Cluster) Run() (Time, error) {
	c.runEpochs()
	hasWork := c.mailboxesPending()
	for _, k := range c.kernels {
		if k.peekLive() != nil {
			hasWork = true
		}
	}
	now := c.Now()
	if !c.stopped.Load() && (c.limit == 0 || !hasWork) {
		return now, deadlock(now, c.kernels)
	}
	return now, nil
}

// RunFor advances the cluster by d of virtual time; every shard clock lands
// exactly on the limit so successive calls stay aligned.
func (c *Cluster) RunFor(d time.Duration) (Time, error) {
	prev := c.limit
	limit := c.Now().Add(d)
	c.limit = limit
	for _, k := range c.kernels {
		k.limit = limit
	}
	_, err := c.Run()
	for _, k := range c.kernels {
		if k.now < limit {
			k.now = limit
		}
		k.limit = prev
		k.stopped = false
	}
	c.limit = prev
	c.stopped.Store(false)
	return c.Now(), err
}

// Now returns the cluster's virtual-time front: the furthest shard clock.
func (c *Cluster) Now() Time {
	var t Time
	for _, k := range c.kernels {
		if k.now > t {
			t = k.now
		}
	}
	return t
}
