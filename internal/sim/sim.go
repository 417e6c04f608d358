// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel owns a virtual clock and an event queue. Simulated activities
// run as Procs: goroutines that are strictly coroutine-scheduled so that at
// most one of them (or the kernel itself) executes at any instant. Procs
// park on timers, signals, or CPU resources; the kernel advances virtual
// time to the next scheduled event whenever no proc is runnable.
//
// Determinism: the run queue is FIFO, timed events are ordered by
// (time, insertion sequence), and all randomness flows through the kernel's
// seeded RNG. Two runs of the same program observe identical virtual-time
// traces.
package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/obs"
)

// Time is an instant of virtual time, in nanoseconds since simulation start.
type Time int64

// Add returns the instant d after t.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the duration between t and u (t - u).
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

// Duration converts t, interpreted as a span, into a time.Duration.
func (t Time) Duration() time.Duration { return time.Duration(t) }

func (t Time) String() string { return time.Duration(t).String() }

// Seconds reports t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

type event struct {
	at   Time
	seq  uint64
	fn   func()
	gen  uint64 // bumped each recycle; Event handles carry the matching gen
	dead bool   // cancelled: dropped lazily when it reaches the heap top
}

// eventHeap is a 4-ary min-heap ordered by (at, seq). The wider fan-out
// halves tree depth versus a binary heap, so the sift cost of the timer
// churn from reusable RTO/delayed-ACK/idle timers drops accordingly; dead
// (cancelled) entries are not removed in place but discarded at pop.
type eventHeap []*event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *eventHeap) push(e *event) {
	q := append(*h, e)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !q.less(i, p) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
	*h = q
}

func (h *eventHeap) pop() *event {
	q := *h
	n := len(q)
	e := q[0]
	q[0] = q[n-1]
	q[n-1] = nil
	q = q[:n-1]
	*h = q
	n--
	i := 0
	for {
		min := i
		c0 := i*4 + 1
		for c := c0; c < c0+4 && c < n; c++ {
			if q.less(c, min) {
				min = c
			}
		}
		if min == i {
			break
		}
		q[i], q[min] = q[min], q[i]
		i = min
	}
	return e
}

func (h eventHeap) peek() *event { return h[0] }

// Event is a cancellable handle to a scheduled callback, returned by At and
// After. The zero value is inert.
type Event struct {
	k   *Kernel
	e   *event
	gen uint64
}

// Cancel marks the scheduled callback dead so the kernel discards it when
// it reaches the front of the queue (lazy: no heap repair). It reports
// whether the event was still pending; cancelling an already-fired,
// already-cancelled, or zero Event is a no-op. Call only from the owning
// shard's context.
func (ev Event) Cancel() bool {
	if ev.e == nil || ev.e.gen != ev.gen || ev.e.dead {
		return false
	}
	ev.e.dead = true
	ev.e.fn = nil
	ev.k.mxCancels.Inc()
	return true
}

// Pending reports whether the event is still scheduled and live.
func (ev Event) Pending() bool {
	return ev.e != nil && ev.e.gen == ev.gen && !ev.e.dead
}

// Kernel is a discrete-event simulation kernel. Create one with NewKernel;
// the zero value is not usable.
type Kernel struct {
	now     Time
	events  eventHeap
	evFree  []*event // retired event structs recycled by At
	runq    []*Proc
	runqHd  int // index of the next runnable proc (drained head)
	seq     uint64
	rng     *rand.Rand
	live    map[*Proc]struct{}
	stopped bool
	limit   Time // 0 means no limit
	procSeq int

	// parked receives the proc that just yielded control back to the
	// kernel (or nil when it exited).
	parked chan *Proc

	panicVal any
	panicked bool

	trace   *obs.Tracer
	metrics *obs.Registry
	cpus    []*CPU

	wheel    *Wheel // lazily created hierarchical timing wheel (see wheel.go)
	heapPeak int    // high-water mark of the event heap, cancelled entries included

	mxSpawns  *obs.Counter
	mxWakes   *obs.Counter
	mxCancels *obs.Counter

	// Sharding (nil cluster on a plain kernel; every new field below is
	// inert then, keeping the single-kernel path bit-for-bit identical).
	cluster *Cluster
	shard   int
	winEnd  Time    // exclusive event bound of the current epoch window (0 = none)
	mbox    mailbox // cross-shard sends destined for this kernel
	xseq    uint64  // outgoing cross-shard send sequence
}

// Obs is the observability a kernel attaches to. Kernels given the same
// Obs land on one trace timeline and one metric space, so a run that
// builds several kernels is covered end to end. A nil Trace gives the
// kernel a fresh disabled tracer; a nil Metrics, a fresh registry.
type Obs struct {
	Trace   *obs.Tracer
	Metrics *obs.Registry
}

// NewKernel returns a kernel with virtual time 0 and an RNG seeded with
// seed, attached to the optional Obs (the zero Obs when none is given).
func NewKernel(seed int64, o ...Obs) *Kernel {
	var ko Obs
	if len(o) > 0 {
		ko = o[0]
	}
	k := &Kernel{
		rng:     rand.New(rand.NewSource(seed)),
		live:    map[*Proc]struct{}{},
		parked:  make(chan *Proc),
		trace:   ko.Trace,
		metrics: ko.Metrics,
	}
	if k.trace == nil {
		k.trace = obs.NewTracer(0)
	} else {
		k.trace.Rebase()
	}
	if k.metrics == nil {
		k.metrics = obs.NewRegistry()
	}
	k.trace.NameProcess(0, "host")
	k.mxSpawns = k.metrics.Counter("sim_procs_spawned_total")
	k.mxWakes = k.metrics.Counter("sim_proc_wakes_total")
	k.mxCancels = k.metrics.Counter("sim_events_cancelled_total")
	return k
}

// Trace returns the kernel's tracer (never nil, possibly disabled).
func (k *Kernel) Trace() *obs.Tracer { return k.trace }

// Metrics returns the kernel's metrics registry (never nil).
func (k *Kernel) Metrics() *obs.Registry { return k.metrics }

// CPUs returns every CPU created on this kernel — on a sharded kernel,
// across all shards — in (shard, creation) order.
func (k *Kernel) CPUs() []*CPU {
	var out []*CPU
	for _, sk := range k.shards() {
		out = append(out, sk.cpus...)
	}
	return out
}

// shards returns the kernels the whole-run queries sum over: every shard
// of a sharded kernel, or k alone.
func (k *Kernel) shards() []*Kernel {
	if k.cluster == nil {
		return []*Kernel{k}
	}
	return k.cluster.kernels
}

// TraceTime converts the kernel clock for tracer calls.
func (k *Kernel) TraceTime() obs.Time { return obs.Time(k.now) }

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Rand returns the kernel's deterministic random source.
func (k *Kernel) Rand() *rand.Rand { return k.rng }

// At schedules fn to run in kernel context at virtual time t. Times in the
// past run at the current instant, after already-queued events. The
// returned handle can Cancel the callback while it is still pending.
func (k *Kernel) At(t Time, fn func()) Event {
	if t < k.now {
		t = k.now
	}
	k.seq++
	var e *event
	if n := len(k.evFree); n > 0 {
		e = k.evFree[n-1]
		k.evFree[n-1] = nil
		k.evFree = k.evFree[:n-1]
		e.at, e.seq, e.fn, e.dead = t, k.seq, fn, false
	} else {
		e = &event{at: t, seq: k.seq, fn: fn}
	}
	k.events.push(e)
	if len(k.events) > k.heapPeak {
		k.heapPeak = len(k.events)
	}
	return Event{k: k, e: e, gen: e.gen}
}

// EventQueueLen returns the current event-heap population (cancelled
// entries included); on a sharded kernel, summed across shards. Only
// meaningful outside the run loop — call it between Run calls.
func (k *Kernel) EventQueueLen() int {
	n := 0
	for _, sk := range k.shards() {
		n += len(sk.events)
	}
	return n
}

// EventHeapPeak returns the high-water mark of the event heap; on a sharded
// kernel, the sum of per-shard peaks (each tracked locally, so serial and
// parallel runs agree). Call between Run calls.
func (k *Kernel) EventHeapPeak() int {
	n := 0
	for _, sk := range k.shards() {
		n += sk.heapPeak
	}
	return n
}

// WheelTimers returns the number of pending timing-wheel timers; on a
// sharded kernel, summed across shards. Call between Run calls.
func (k *Kernel) WheelTimers() int {
	n := 0
	for _, sk := range k.shards() {
		if sk.wheel != nil {
			n += sk.wheel.count
		}
	}
	return n
}

// WheelTimerPeak returns the high-water mark of pending timing-wheel
// timers, summed across shards on a sharded kernel. Call between Run calls.
func (k *Kernel) WheelTimerPeak() int {
	n := 0
	for _, sk := range k.shards() {
		if sk.wheel != nil {
			n += sk.wheel.peak
		}
	}
	return n
}

// After schedules fn to run d after the current instant.
func (k *Kernel) After(d time.Duration, fn func()) Event { return k.At(k.now.Add(d), fn) }

// recycle retires a popped event struct for reuse by At. Bumping gen
// invalidates any outstanding Event handles to it.
func (k *Kernel) recycle(e *event) {
	e.fn = nil
	e.gen++
	k.evFree = append(k.evFree, e)
}

// peekLive returns the earliest pending live event, discarding cancelled
// entries that have reached the heap top. Nil when the queue is empty.
func (k *Kernel) peekLive() *event {
	for len(k.events) > 0 {
		e := k.events.peek()
		if !e.dead {
			return e
		}
		k.events.pop()
		k.recycle(e)
	}
	return nil
}

// Stop terminates the run loop after the currently executing step. On a
// sharded kernel it stops the whole cluster: the current epoch's other
// shards still complete their windows (a deterministic boundary), then the
// cluster run returns.
func (k *Kernel) Stop() {
	k.stopped = true
	if k.cluster != nil {
		k.cluster.stopped.Store(true)
	}
}

// StopAt sets a virtual-time limit: Run returns once the clock would pass
// t. On a sharded kernel this applies cluster-wide and must be called
// outside the run loop (setup or between Run calls).
func (k *Kernel) StopAt(t Time) {
	k.limit = t
	if c := k.cluster; c != nil {
		c.limit = t
		for _, sk := range c.kernels {
			sk.limit = t
		}
	}
}

// Proc is a simulated process: a goroutine coroutine-scheduled by the kernel.
type Proc struct {
	k      *Kernel
	name   string
	id     int
	resume chan struct{}
	ready  bool // already on the run queue or scheduled to wake
	done   bool
	daemon bool   // daemon procs may remain parked at simulation end
	parkAt string // description of the current park site, for diagnostics

	parkGen uint64 // bumped around each park; stale wake timers compare it

	tracePid int // trace process the proc is attributed to (domain ID; 0 = host)
}

// Name returns the name given at Spawn.
func (p *Proc) Name() string { return p.name }

// ID returns the proc's kernel-unique ID (the trace tid).
func (p *Proc) ID() int { return p.id }

// SetTracePid attributes the proc's trace events to a domain's process row
// (the hypervisor calls this when it starts a domain's boot proc).
func (p *Proc) SetTracePid(pid int) {
	p.tracePid = pid
	p.k.trace.NameThread(pid, p.id, p.name)
}

// Kernel returns the owning kernel.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.k.now }

// tidStride namespaces proc IDs (trace thread IDs) per shard: shard i's
// procs are numbered i*tidStride+1, i*tidStride+2, …, so (pid, tid) pairs
// stay unique cluster-wide and thread-name registrations cannot collide
// across shards.
const tidStride = 1 << 20

// Spawn creates a process running fn and marks it runnable. fn starts
// executing when the kernel next schedules it.
func (k *Kernel) Spawn(name string, fn func(p *Proc)) *Proc {
	k.procSeq++
	// Shards stride their proc IDs apart so trace (pid, tid) pairs stay
	// unique cluster-wide; on a plain kernel shard is 0 and IDs are 1, 2, …
	// exactly as before.
	p := &Proc{k: k, name: name, id: k.shard*tidStride + k.procSeq, resume: make(chan struct{})}
	k.live[p] = struct{}{}
	k.mxSpawns.Inc()
	if k.trace.Enabled() {
		k.trace.NameThread(0, p.id, name)
		k.trace.Instant(k.TraceTime(), "kernel", "spawn", 0, p.id, obs.Str("proc", name))
	}
	go func() {
		<-p.resume
		defer func() {
			if v := recover(); v != nil {
				k.panicVal = fmt.Sprintf("sim: proc %q panicked: %v", p.name, v)
				k.panicked = true
			}
			p.done = true
			k.parked <- nil
		}()
		fn(p)
	}()
	p.ready = true
	k.runq = append(k.runq, p)
	return p
}

// SpawnDaemon creates a process like Spawn, but the simulation is allowed
// to end while it is still parked (device backends, servers).
func (k *Kernel) SpawnDaemon(name string, fn func(p *Proc)) *Proc {
	p := k.Spawn(name, fn)
	p.daemon = true
	return p
}

// schedule marks p runnable at the current instant (idempotent).
func (k *Kernel) schedule(p *Proc) {
	if p.ready || p.done {
		return
	}
	p.ready = true
	k.runq = append(k.runq, p)
	k.mxWakes.Inc()
	if k.trace.Enabled() {
		k.trace.Instant(k.TraceTime(), "kernel", "wake", p.tracePid, p.id)
	}
}

// step runs one runnable proc or advances the clock to the next event.
// It reports whether any progress was made.
func (k *Kernel) step() bool {
	for k.runqHd == len(k.runq) {
		e := k.peekLive()
		if e == nil {
			break
		}
		if k.limit != 0 && e.at > k.limit {
			return false
		}
		if k.winEnd != 0 && e.at >= k.winEnd {
			return false
		}
		k.events.pop()
		k.now = e.at
		fn := e.fn
		k.recycle(e)
		fn() // may schedule procs or more events (and reuse e)
	}
	if k.runqHd == len(k.runq) {
		return false
	}
	p := k.runq[k.runqHd]
	k.runq[k.runqHd] = nil
	k.runqHd++
	if k.runqHd == len(k.runq) {
		k.runq, k.runqHd = k.runq[:0], 0 // reuse the backing array
	}
	p.ready = false
	if p.done {
		return true
	}
	p.resume <- struct{}{}
	<-k.parked
	if p.done {
		delete(k.live, p)
	}
	if k.panicked {
		panic(k.panicVal)
	}
	return true
}

// Run executes the simulation until no proc is runnable and no event is
// pending (or Stop/StopAt applies). It returns the final virtual time.
// If live procs remain parked with nothing to wake them, Run returns an
// error describing the deadlock. On a sharded kernel Run drives the whole
// cluster through its epoch loop.
func (k *Kernel) Run() (Time, error) {
	if k.cluster != nil {
		return k.cluster.Run()
	}
	for !k.stopped {
		if !k.step() {
			break
		}
	}
	if !k.stopped && (k.limit == 0 || k.peekLive() == nil) {
		return k.now, deadlock(k.now, k.shards())
	}
	return k.now, nil
}

// RunFor advances the simulation by d of virtual time.
func (k *Kernel) RunFor(d time.Duration) (Time, error) {
	if k.cluster != nil {
		return k.cluster.RunFor(d)
	}
	prev := k.limit
	k.limit = k.now.Add(d)
	t, err := k.Run()
	if k.now < k.limit {
		k.now = k.limit
		t = k.now
	}
	k.limit = prev
	k.stopped = false
	return t, err
}

// deadlock reports the non-daemon procs still parked on kernels once
// nothing is left to wake them, or nil when there are none (daemons may
// stay parked forever).
func deadlock(now Time, kernels []*Kernel) error {
	var parked []string
	for _, k := range kernels {
		for p := range k.live {
			if !p.daemon {
				parked = append(parked, fmt.Sprintf("%s@%s", p.name, p.parkAt))
			}
		}
	}
	if len(parked) == 0 {
		return nil
	}
	n := len(parked)
	sort.Strings(parked)
	if n > 8 {
		parked = append(parked[:8], "...")
	}
	return fmt.Errorf("sim: deadlock at %v: %d procs parked: %s", now, n, fmt.Sprint(parked))
}

// park blocks p until the kernel resumes it. The caller must already have
// arranged for a future schedule(p) (timer, signal, ...).
func (p *Proc) park(site string) {
	p.parkAt = site
	traced := p.k.trace.Enabled()
	if traced {
		p.k.trace.Begin(p.k.TraceTime(), "kernel", "park:"+site, p.tracePid, p.id)
	}
	p.k.parked <- p
	<-p.resume
	if traced {
		p.k.trace.End(p.k.TraceTime(), "kernel", "park:"+site, p.tracePid, p.id)
	}
	p.parkAt = ""
}

// Yield places p at the back of the run queue and lets other work run at
// the same instant.
func (p *Proc) Yield() {
	p.ready = true
	p.k.runq = append(p.k.runq, p)
	p.park("yield")
}

// Sleep parks p for d of virtual time. Non-positive d yields.
func (p *Proc) Sleep(d time.Duration) {
	if d <= 0 {
		p.Yield()
		return
	}
	k := p.k
	k.After(d, func() { k.schedule(p) })
	p.park("sleep")
}

// SleepUntil parks p until virtual time t.
func (p *Proc) SleepUntil(t Time) {
	if t <= p.k.now {
		p.Yield()
		return
	}
	p.Sleep(t.Sub(p.k.now))
}

// Signal is a level-triggered wakeup source: Set marks it pending and wakes
// every waiter; waiting on an already-pending signal returns immediately and
// consumes the pending state.
//
// A Signal belongs to the shard of the kernel that created it: Set and Wait
// must run in that shard's context (cross-shard producers Post to the home
// shard first). As a safety net, Set routes wakes for waiters homed on a
// different kernel through that kernel's mailbox.
type Signal struct {
	k       *Kernel
	name    string
	pending bool
	waiters []*Proc
	// Notify hooks run in kernel context on every Set; used by pollers
	// that multiplex many signals without one proc per signal.
	hooks []func()
}

// NewSignal creates a signal owned by k.
func (k *Kernel) NewSignal(name string) *Signal { return &Signal{k: k, name: name} }

// Name returns the signal's name.
func (s *Signal) Name() string { return s.name }

// Pending reports whether the signal has an unconsumed Set.
func (s *Signal) Pending() bool { return s.pending }

// OnSet registers fn to run (in kernel context) each time the signal fires.
func (s *Signal) OnSet(fn func()) { s.hooks = append(s.hooks, fn) }

// Set marks the signal pending and wakes all current waiters at the current
// instant. Safe to call from proc or kernel context.
func (s *Signal) Set() {
	s.pending = true
	for _, w := range s.waiters {
		if w.k == s.k {
			s.k.schedule(w)
		} else {
			wp := w
			s.k.Post(wp.k, 0, func() { wp.k.schedule(wp) })
		}
	}
	s.waiters = s.waiters[:0]
	for _, h := range s.hooks {
		h()
	}
}

// Wait parks p until the signal fires (or returns immediately, consuming a
// pending Set).
func (p *Proc) Wait(s *Signal) {
	if s.pending {
		s.pending = false
		return
	}
	s.waiters = append(s.waiters, p)
	p.park("wait:" + s.name)
	s.pending = false
}

// WaitAny parks p until any of sigs fires or timeout elapses. It returns the
// index of the signal that fired, or -1 on timeout. A timeout of 0 means no
// timeout. Pending signals are consumed and returned immediately.
func (p *Proc) WaitAny(timeout time.Duration, sigs ...*Signal) int {
	for i, s := range sigs {
		if s.pending {
			s.pending = false
			return i
		}
	}
	for _, s := range sigs {
		s.waiters = append(s.waiters, p)
	}
	if timeout > 0 {
		p.parkGen++
		gen := p.parkGen
		p.k.After(timeout, func() {
			if gen == p.parkGen {
				p.k.schedule(p)
			}
		})
	}
	p.park("waitany")
	p.parkGen++ // invalidate a still-pending wake timer
	result := -1
	for i, s := range sigs {
		// Detect which signal fired and remove p from all waiter lists.
		if s.pending && result == -1 {
			s.pending = false
			result = i
		}
		for j, w := range s.waiters {
			if w == p {
				s.waiters = append(s.waiters[:j], s.waiters[j+1:]...)
				break
			}
		}
	}
	return result
}

// CPU models a serially-shared processing resource. Procs consume virtual
// CPU time with Use; overlapping requests queue in call order, so a busy CPU
// delays later work — this is how compute contention appears in benchmarks.
type CPU struct {
	k      *Kernel
	name   string
	id     int // trace tid (offset past proc IDs)
	freeAt Time
	busy   time.Duration // total busy time accumulated
	qwait  time.Duration // total time requests waited behind earlier work
	speed  float64       // relative speed multiplier (1.0 = nominal)
}

// cpuTidBase keeps CPU trace tids clear of proc tids under pid 0.
const cpuTidBase = 1000

// NewCPU creates a CPU resource with relative speed 1.0.
func (k *Kernel) NewCPU(name string) *CPU {
	c := &CPU{k: k, name: name, id: cpuTidBase + len(k.cpus), speed: 1.0}
	k.cpus = append(k.cpus, c)
	k.trace.NameThread(0, c.id, "cpu:"+name)
	return c
}

// SetSpeed sets the relative speed multiplier; work of nominal duration d
// occupies d/speed.
func (c *CPU) SetSpeed(s float64) {
	if s <= 0 {
		panic("sim: CPU speed must be positive")
	}
	c.speed = s
}

// Name returns the CPU's name.
func (c *CPU) Name() string { return c.name }

// Kernel returns the shard kernel this CPU is homed on; Reserve/Use must
// run in that kernel's context.
func (c *CPU) Kernel() *Kernel { return c.k }

// BusyTime returns the total virtual time this CPU has spent executing work.
func (c *CPU) BusyTime() time.Duration { return c.busy }

// QueueWait returns the total virtual time reservations spent waiting for
// the CPU to free (runqueue delay: work arriving while earlier work still
// occupies the CPU starts late; the gap accumulates here).
func (c *CPU) QueueWait() time.Duration { return c.qwait }

// Utilization returns busy time divided by elapsed virtual time.
func (c *CPU) Utilization() float64 {
	if c.k.now == 0 {
		return 0
	}
	return float64(c.busy) / float64(c.k.now)
}

// reserve books d of CPU time and returns the completion instant without
// blocking. Exposed for asynchronous cost accounting (e.g. device models).
func (c *CPU) reserve(d time.Duration) Time {
	d = time.Duration(float64(d) / c.speed)
	start := c.k.now
	if c.freeAt > start {
		start = c.freeAt
		c.qwait += start.Sub(c.k.now)
	}
	end := start.Add(d)
	c.freeAt = end
	c.busy += d
	if c.k.trace.Enabled() && d > 0 {
		c.k.trace.Complete(obs.Time(start), obs.Time(d), "cpu", c.name, 0, c.id)
	}
	return end
}

// Reserve books d of CPU time asynchronously and returns the virtual instant
// at which that work completes. Use it for device/backend cost accounting
// where no proc should block.
func (c *CPU) Reserve(d time.Duration) Time { return c.reserve(d) }

// Use consumes d of CPU time on c, parking p until the work completes.
func (p *Proc) Use(c *CPU, d time.Duration) {
	if d <= 0 {
		return
	}
	end := c.reserve(d)
	p.SleepUntil(end)
}
