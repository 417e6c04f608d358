package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
)

// CPU-profile bucketing. runtime/pprof writes a gzipped profile.proto;
// the few fields the buckets need are decoded here so the benchmark needs
// nothing beyond the standard library. The same files open with
// `go tool pprof`.

// frame is one (possibly inlined) function in a sample's stack.
type frame struct {
	name, file string
}

// cpuSample is one stack, leaf first, and the CPU nanoseconds it carries.
type cpuSample struct {
	stack []frame
	ns    int64
}

// parseProfile decodes the samples of a gzipped CPU profile.
func parseProfile(data []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type line struct{ fn uint64 }
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		strs    []string
		samples []rawSample
		locs    = map[uint64][]line{}
		funcs   = map[uint64][2]int64{} // name, filename string indices
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var s rawSample
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					for _, x := range appendVarints(nil, v, b) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var lines []line
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					var l line
					err := eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							l.fn = v
						}
						return nil
					})
					lines = append(lines, l)
					return err
				}
				return nil
			})
			locs[id] = lines
			return err
		case 5: // function
			var id uint64
			var nf [2]int64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					nf[0] = int64(v)
				case 4:
					nf[1] = int64(v)
				}
				return nil
			})
			funcs[id] = nf
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	out := make([]cpuSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		cs := cpuSample{ns: s.values[len(s.values)-1]}
		for _, id := range s.locs {
			for _, l := range locs[id] { // innermost inlined function first
				nf := funcs[l.fn]
				cs.stack = append(cs.stack, frame{name: str(nf[0]), file: str(nf[1])})
			}
		}
		out = append(out, cs)
	}
	return out, nil
}

// appendVarints appends a repeated varint field, packed or not.
func appendVarints(dst []uint64, v uint64, packed []byte) []uint64 {
	if packed == nil {
		return append(dst, v)
	}
	for len(packed) > 0 {
		x, n := uvarint(packed)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		packed = packed[n:]
	}
	return dst
}

// eachField walks a protobuf message, passing varint fields as v and
// length-delimited fields as b (nil for varints).
func eachField(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := uvarint(msg)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		msg = msg[n:]
		num, typ := int(key>>3), key&7
		switch typ {
		case 0:
			v, n := uvarint(msg)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			msg = msg[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(msg) < 8 {
				return errors.New("profile: short fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("profile: bad length")
			}
			b := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if err := fn(num, 0, b); err != nil {
				return err
			}
		case 5:
			if len(msg) < 4 {
				return errors.New("profile: short fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("profile: wire type %d", typ)
		}
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// cpuBuckets are the CPU-share buckets, in print order. bench is the
// benchmark's own code; other is everything with no repro/internal frame
// and no runtime role below (runtime bookkeeping, the profiler itself).
var cpuBuckets = []string{
	"sim", "sim_cluster", "runtime.sched", "runtime.malloc", "runtime.gc",
	"lwt", "hypervisor", "grant", "ring", "netif", "netback", "netstack",
	"tcp", "httpd", "fleet", "storage", "blkif", "blkback", "obs",
	"bench", "other",
}

// packageLayer maps repro/internal packages to layers. Packages not listed
// are their own layer name when it is a bucket, else other.
var packageLayer = map[string]string{
	"ethernet": "netstack", "arp": "netstack", "ipv4": "netstack",
	"icmp": "netstack", "udp": "netstack", "dhcp": "netstack",
	"pvboot": "hypervisor", "xenstore": "hypervisor", "core": "hypervisor",
	"cstruct": "grant", // the guest's shared I/O pages
}

var gcFrames = []string{
	"runtime.gcBgMarkWorker", "runtime.gcDrain", "runtime.gcAssistAlloc", "runtime.markroot",
	"runtime.scanobject", "runtime.scanblock", "runtime.scanstack", "runtime.greyobject",
	"runtime.bgsweep", "runtime.bgscavenge", "runtime.sweepone", "runtime.(*mspan).sweep",
	"runtime.(*sweepLocked).sweep", "runtime.gcStart", "runtime.gcMarkDone",
	"runtime.gcMarkTermination", "runtime.wbBufFlush", "runtime.(*gcWork)",
	"runtime.(*mheap).reclaim", "runtime.(*scavengerState)",
}

var mallocFrames = []string{
	"runtime.mallocgc", "runtime.newobject", "runtime.newarray", "runtime.makeslice",
	"runtime.growslice", "runtime.makemap", "runtime.(*mcache)", "runtime.(*mcentral)",
	"runtime.(*mheap).alloc", "runtime.rawstring", "runtime.rawbyteslice",
}

var schedFrames = []string{
	"runtime.gopark", "runtime.park_m", "runtime.schedule", "runtime.findRunnable",
	"runtime.chansend", "runtime.chanrecv", "runtime.selectgo", "runtime.goready",
	"runtime.ready", "runtime.mcall", "runtime.gosched", "runtime.runqget", "runtime.runqput",
	"runtime.runqgrab", "runtime.wakep", "runtime.notesleep", "runtime.notewakeup",
	"runtime.futex", "runtime.stopm", "runtime.startm", "runtime.execute", "runtime.gogo",
	"runtime.semacquire", "runtime.semrelease", "runtime.goexit", "runtime.newproc",
}

func hasPrefixAny(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// bucketOf assigns one sample: GC work anywhere in the stack goes to
// runtime.gc; otherwise allocation or scheduler frames in the runtime
// frames at the leaf go to runtime.malloc or runtime.sched; everything
// else goes to the layer of its innermost repro/internal frame (standard
// library frames such as memmove are charged to the layer that called
// them), or to bench when the benchmark's own code comes first.
func bucketOf(stack []frame) string {
	for _, f := range stack {
		if hasPrefixAny(f.name, gcFrames) {
			return "runtime.gc"
		}
	}
	for _, f := range stack {
		if !strings.HasPrefix(f.name, "runtime.") {
			break
		}
		if hasPrefixAny(f.name, mallocFrames) {
			return "runtime.malloc"
		}
		if hasPrefixAny(f.name, schedFrames) {
			return "runtime.sched"
		}
	}
	for _, f := range stack {
		if strings.HasPrefix(f.name, "main.") {
			return "bench"
		}
		const pfx = "repro/internal/"
		if !strings.HasPrefix(f.name, pfx) {
			continue
		}
		pkg := f.name[len(pfx):]
		if i := strings.IndexAny(pkg, "./"); i >= 0 {
			pkg = pkg[:i]
		}
		if pkg == "sim" && strings.HasSuffix(f.file, "/shard.go") {
			return "sim_cluster"
		}
		if l, ok := packageLayer[pkg]; ok {
			return l
		}
		if slices.Contains(cpuBuckets, pkg) {
			return pkg
		}
		return "other"
	}
	return "other"
}

// bucketNS sums the samples' CPU time per bucket.
func bucketNS(samples []cpuSample) map[string]int64 {
	ns := map[string]int64{}
	for _, s := range samples {
		ns[bucketOf(s.stack)] += s.ns
	}
	return ns
}
