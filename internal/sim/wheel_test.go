package sim

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestWheelFireOrder pins the deterministic intra-slot ordering: timers
// firing in the same tick run by (deadline, key, seq), regardless of
// schedule order.
func TestWheelFireOrder(t *testing.T) {
	k := NewKernel(1)
	w := k.Wheel()
	var got []string
	mk := func(name string, key uint64) *Timer {
		tm := &Timer{}
		tm.Init(key, func() { got = append(got, name) })
		return tm
	}
	base := Time(10 * time.Millisecond)
	// Same tick (10ms..11ms all quantise to tick 11 except exact boundary);
	// use deadlines inside one tick so they share a slot.
	a := mk("a-key2-late", 2)
	b := mk("b-key2-early", 2)
	c := mk("c-key1", 1)
	d := mk("d-earlier-deadline", 9)
	w.Schedule(a, base+Time(300*time.Microsecond))
	w.Schedule(b, base+Time(300*time.Microsecond)) // same deadline+key as a: seq breaks the tie
	w.Schedule(c, base+Time(300*time.Microsecond))
	w.Schedule(d, base+Time(100*time.Microsecond))
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := "[d-earlier-deadline c-key1 a-key2-late b-key2-early]"
	if fmt.Sprint(got) != want {
		t.Errorf("fire order %v, want %v", got, want)
	}
}

// TestWheelLateness checks the documented bound: a timer fires at virtual
// time >= its deadline and within one tick of it, across deadlines that
// land on every level of the hierarchy.
func TestWheelLateness(t *testing.T) {
	k := NewKernel(2)
	w := k.Wheel()
	rng := rand.New(rand.NewSource(7))
	type rec struct {
		deadline Time
		firedAt  Time
	}
	var recs []rec
	spans := []time.Duration{
		time.Millisecond, 50 * time.Millisecond, // level 0
		time.Second, 3 * time.Second, // level 1
		time.Minute, 3 * time.Minute, // level 2
		2 * time.Hour,   // level 3
		200 * time.Hour, // level 4
	}
	for _, span := range spans {
		for i := 0; i < 8; i++ {
			d := Time(rng.Int63n(int64(span))) + 1
			tm := &Timer{}
			i := len(recs)
			recs = append(recs, rec{deadline: d})
			tm.Init(uint64(i), func() { recs[i].firedAt = k.Now() })
			w.Schedule(tm, d)
		}
	}
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i, r := range recs {
		if r.firedAt == 0 {
			t.Fatalf("timer %d (deadline %v) never fired", i, r.deadline)
		}
		if r.firedAt < r.deadline {
			t.Errorf("timer %d fired early: %v < deadline %v", i, r.firedAt, r.deadline)
		}
		if late := r.firedAt - r.deadline; late >= 2*wheelTick {
			t.Errorf("timer %d fired %v after deadline %v (bound: < 2 ticks)", i, late, r.deadline)
		}
	}
	if w.Len() != 0 {
		t.Errorf("wheel still holds %d timers after run", w.Len())
	}
}

// TestWheelCascade pins that far-out timers actually traverse the
// hierarchy (cascade counter moves) and still fire exactly once.
func TestWheelCascade(t *testing.T) {
	reg := obs.NewRegistry()
	k := NewKernel(3, Obs{Metrics: reg})
	w := k.Wheel()
	fired := 0
	tm := &Timer{}
	tm.Init(1, func() { fired++ })
	w.Schedule(tm, Time(10*time.Minute)) // 600k ticks: level 3
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Errorf("fired %d times, want 1", fired)
	}
	if got := reg.Counter("sim_wheel_cascades_total").Value(); got == 0 {
		t.Error("level-3 timer fired without any cascade")
	}
	if now := k.Now(); now < Time(10*time.Minute) || now >= Time(10*time.Minute)+2*wheelTick {
		t.Errorf("fired at %v, want within a tick of 10m", now)
	}
}

// TestWheelCancelReschedule covers the O(1) mutation paths: cancel,
// reschedule (move), re-arm from the timer's own callback, and
// cancellation/reschedule of a same-slot sibling from a callback.
func TestWheelCancelReschedule(t *testing.T) {
	k := NewKernel(4)
	w := k.Wheel()
	var log []string

	cancelled := &Timer{}
	cancelled.Init(50, func() { log = append(log, "cancelled-ran") })
	w.Schedule(cancelled, Time(5*time.Millisecond))
	if !cancelled.Pending() {
		t.Error("scheduled timer not pending")
	}
	if !w.Cancel(cancelled) || cancelled.Pending() {
		t.Error("cancel of pending timer failed")
	}
	if w.Cancel(cancelled) {
		t.Error("second cancel returned true")
	}

	moved := &Timer{}
	moved.Init(51, func() { log = append(log, fmt.Sprintf("moved@%v", k.Now())) })
	w.Schedule(moved, Time(5*time.Millisecond))
	w.Schedule(moved, Time(30*time.Millisecond)) // reschedule before it fires

	// Periodic timer: re-arms itself from its own callback 3 times.
	ticks := 0
	periodic := &Timer{}
	periodic.Init(52, nil)
	periodic.Init(52, func() {
		ticks++
		log = append(log, fmt.Sprintf("tick%d@%v", ticks, k.Now()))
		if ticks < 3 {
			w.Schedule(periodic, k.Now()+Time(10*time.Millisecond))
		}
	})
	w.Schedule(periodic, Time(10*time.Millisecond))

	// Same-slot sibling interference: a fires first (lower key) and
	// cancels b and defers c; both must take effect within the slot.
	b := &Timer{}
	b.Init(60, func() { log = append(log, "b-ran") })
	c := &Timer{}
	c.Init(61, func() { log = append(log, fmt.Sprintf("c@%v", k.Now())) })
	a := &Timer{}
	a.Init(59, func() {
		log = append(log, "a-ran")
		w.Cancel(b)
		w.Schedule(c, k.Now()+Time(40*time.Millisecond))
	})
	w.Schedule(a, Time(50*time.Millisecond))
	w.Schedule(b, Time(50*time.Millisecond)+200)
	w.Schedule(c, Time(50*time.Millisecond)+400)

	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// At 30ms the moved timer (key 51) precedes the periodic re-arm
	// (key 52): same deadline, key breaks the tie.
	want := "[tick1@10ms tick2@20ms moved@30ms tick3@30ms a-ran c@90ms]"
	if fmt.Sprint(log) != want {
		t.Errorf("log %v\nwant %v", log, want)
	}
}

// TestWheelHeapPopulation is the scalability claim: tens of thousands of
// pending wheel timers keep the kernel event heap at a handful of entries
// (the armed next-tick events), not one entry per timer.
func TestWheelHeapPopulation(t *testing.T) {
	k := NewKernel(5)
	w := k.Wheel()
	const n = 50_000
	fired := 0
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < n; i++ {
		tm := &Timer{}
		tm.Init(uint64(i), func() { fired++ })
		w.Schedule(tm, Time(rng.Int63n(int64(10*time.Second)))+1)
	}
	if w.Len() != n {
		t.Fatalf("wheel holds %d timers, want %d", w.Len(), n)
	}
	if peak := k.EventHeapPeak(); peak > 64 {
		t.Errorf("event heap peak %d with %d pending timers; wheel should keep it O(armed ticks)", peak, n)
	}
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != n {
		t.Errorf("fired %d, want %d", fired, n)
	}
	if peak := k.WheelTimerPeak(); peak != n {
		t.Errorf("wheel timer peak %d, want %d", peak, n)
	}
	if peak := k.EventHeapPeak(); peak > 256 {
		t.Errorf("event heap peak %d after run; should stay O(armed ticks), not O(timers)", peak)
	}
}

// wheelClusterRun drives a timer-heavy cross-shard workload and returns
// the concatenated per-shard fire logs plus metrics — serial and parallel
// drivers must agree byte for byte.
func wheelClusterRun(t *testing.T, parallel bool) (string, string) {
	t.Helper()
	reg := obs.NewRegistry()
	const shards = 4
	c := NewCluster(13, shards, 10*time.Microsecond, Obs{Metrics: reg})
	c.SetParallel(parallel)
	logs := make([][]string, shards)
	for i := 0; i < shards; i++ {
		i := i
		k := c.Kernel(i)
		w := k.Wheel()
		k.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
			for j := 0; j < 30; j++ {
				j := j
				tm := &Timer{}
				tm.Init(uint64(i*1000+j), func() {
					logs[i] = append(logs[i], fmt.Sprintf("s%d t%d @%v", i, j, k.Now()))
					// Half the timers ping the next shard, whose handler
					// schedules a wheel timer over there.
					if j%2 == 0 {
						dst := c.Kernel((i + 1) % shards)
						src := i
						k.Post(dst, 15*time.Microsecond, func() {
							tm2 := &Timer{}
							tm2.Init(uint64(src*1000+j+500), func() {
								logs[(src+1)%shards] = append(logs[(src+1)%shards],
									fmt.Sprintf("s%d <- s%d t%d @%v", (src+1)%shards, src, j, dst.Now()))
							})
							dst.Wheel().Schedule(tm2, dst.Now()+Time(1+dst.Rand().Intn(5_000_000)))
						})
					}
				})
				w.Schedule(tm, k.Now()+Time(1+k.Rand().Intn(20_000_000)))
				p.Sleep(time.Duration(1+k.Rand().Intn(300)) * time.Microsecond)
			}
		})
	}
	if _, err := c.Run(); err != nil {
		t.Fatalf("cluster run (parallel=%v): %v", parallel, err)
	}
	var all bytes.Buffer
	for i := range logs {
		for _, l := range logs[i] {
			fmt.Fprintln(&all, l)
		}
	}
	return all.String(), reg.Snapshot().Format()
}

// TestWheelParallelByteIdentity: same-seed serial and parallel cluster
// runs with wheel timers (including cross-shard timer chains) must produce
// identical fire logs and metrics.
func TestWheelParallelByteIdentity(t *testing.T) {
	sLog, sMet := wheelClusterRun(t, false)
	pLog, pMet := wheelClusterRun(t, true)
	if sLog != pLog {
		t.Errorf("fire logs differ:\nserial:\n%s\nparallel:\n%s", sLog, pLog)
	}
	if sMet != pMet {
		t.Errorf("metrics differ:\nserial:\n%s\nparallel:\n%s", sMet, pMet)
	}
	if sLog == "" {
		t.Error("empty fire log: workload did not run")
	}
}
