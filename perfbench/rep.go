package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"
)

// repKind says how a repetition is driven.
type repKind string

const (
	repPlain  repKind = "plain"  // untraced: gives the end-to-end metrics
	repTraced repKind = "traced" // CPU profile and spans on
	// repSerial drives the sharded layout on one thread, for the parity
	// check of the sharded workload.
	repSerial repKind = "serial"
)

// rep is one repetition's outcome, as a child process reports it.
type rep struct {
	SetupNS, WallNS, CPUNS int64
	AllocBytes, Allocs     uint64
	MaxRSSKB               int64
	Virt                   virtResult
	Check                  string             // first failed output check, "" if none
	BucketNS               map[string]int64   // traced: CPU nanoseconds per profile bucket
	Spans                  map[string]float64 // traced: span-derived per-layer values
}

// runRep runs one repetition in this process. A traced one also writes
// its spans and CPU profile under outDir (unless outDir is empty).
func runRep(w *workload, in any, kind repKind, outDir string, seed int64, index int) (*rep, error) {
	// One OS thread per shard; the classic single kernel gets one.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(w.shards, 1)))

	cfg := runCfg{shards: w.shards, parallel: w.shards > 1}
	switch kind {
	case repPlain:
	case repTraced:
		cfg.trace = newLayerRun()
	case repSerial:
		cfg.parallel = false
	default:
		return nil, fmt.Errorf("unknown repetition kind %q", kind)
	}
	runtime.GC()
	o, err := w.run(in, cfg)
	if err != nil {
		return nil, err
	}
	r := &o.rep
	if o.err != nil {
		r.Check = o.err.Error()
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		r.MaxRSSKB = ru.Maxrss // Linux reports KiB
	}
	if cfg.trace == nil {
		return r, nil
	}
	samples, err := parseProfile(cfg.trace.profile.Bytes())
	if err != nil {
		return nil, err
	}
	r.BucketNS = bucketNS(samples)
	r.Spans = cfg.trace.spanMetrics()
	if outDir != "" {
		if err := cfg.trace.write(outDir, w.name, seed, index); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// hostClock brackets one repetition's set-up and timed phase on the host.
type hostClock struct {
	t0, t1   time.Time
	cpu0     time.Duration
	ms0      runtime.MemStats
	rep      *rep
	profiler *layerRun
}

// startSetup starts the repetition's clock; call it before the platform is
// constructed.
func startSetup(r *rep, lr *layerRun) *hostClock {
	return &hostClock{t0: time.Now(), rep: r, profiler: lr}
}

// beginTimed starts the timed phase.
func (c *hostClock) beginTimed() error {
	runtime.ReadMemStats(&c.ms0)
	c.cpu0 = processCPU()
	if c.profiler != nil {
		if err := c.profiler.startProfile(); err != nil {
			return err
		}
	}
	c.t1 = time.Now()
	return nil
}

// endTimed closes the timed phase.
func (c *hostClock) endTimed() {
	c.rep.WallNS = int64(time.Since(c.t1))
	if c.profiler != nil {
		c.profiler.stopProfile()
	}
	c.rep.CPUNS = int64(processCPU() - c.cpu0)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.rep.AllocBytes = ms.TotalAlloc - c.ms0.TotalAlloc
	c.rep.Allocs = ms.Mallocs - c.ms0.Mallocs
}

// processCPU is the process's user+system time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
