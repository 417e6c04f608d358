// Package mem models the specialised memory system of a Mirage unikernel
// (paper §3.2–§3.3 and Figure 2): the single 64-bit address-space layout,
// the PVBoot extent and slab allocators, and a two-generation garbage-
// collected heap whose costs depend on how the address space is managed.
//
// The heap is a cost model, not a real collector: Alloc advances bump
// pointers and accrues virtual CPU time for collections, promotions and
// heap growth. The accrued cost is drained by the runtime and charged to
// the domain's vCPU, which is how GC pressure appears in the thread
// benchmarks (Figure 7a): an extent-backed contiguous heap grows in 2 MiB
// superpages with no chunk table, while a malloc-backed heap grows in
// scattered 4 KiB chunks that the collector must track and a conventional
// OS adds an mmap syscall per growth.
package mem

import (
	"fmt"
	"time"
)

// Sizes used throughout the layout.
const (
	PageSize      = 4 << 10
	SuperpageSize = 2 << 20
)

// Region is a contiguous range of virtual address space with a fixed role.
type Region struct {
	Name string
	Base uint64
	Size uint64
}

// End returns the first address past the region.
func (r Region) End() uint64 { return r.Base + r.Size }

// Contains reports whether addr falls inside the region.
func (r Region) Contains(addr uint64) bool { return addr >= r.Base && addr < r.End() }

func (r Region) String() string {
	return fmt.Sprintf("%s [%#x,%#x) %d KiB", r.Name, r.Base, r.End(), r.Size/1024)
}

// Layout is the specialised virtual-memory layout of a 64-bit unikernel
// (Figure 2): text+data at the bottom, a reserved Xen range, an I/O data
// region for granted pages, a single 2 MiB minor-heap extent, and the
// remainder of memory as the major heap.
type Layout struct {
	TextData  Region
	Reserved  Region // hypervisor-reserved low virtual addresses
	IOData    Region // external I/O pages (grant-mapped)
	MinorHeap Region
	MajorHeap Region
}

// NewLayout builds the layout for a domain with memBytes of memory and a
// binary of binBytes of text+data. Memory regions are statically assigned
// roles; the major heap receives everything left over.
func NewLayout(memBytes, binBytes uint64) (*Layout, error) {
	const (
		reservedBase = 0x0
		reservedSize = 4 << 20 // Xen-reserved low range
		ioShare      = 8       // 1/8th of memory for I/O pages
	)
	binBytes = roundUp(binBytes, PageSize)
	ioSize := roundUp(memBytes/ioShare, SuperpageSize)
	minSize := uint64(SuperpageSize)
	need := binBytes + ioSize + minSize + SuperpageSize
	if memBytes < need {
		return nil, fmt.Errorf("mem: %d bytes insufficient (need >= %d)", memBytes, need)
	}
	l := &Layout{}
	l.Reserved = Region{Name: "xen-reserved", Base: reservedBase, Size: reservedSize}
	l.TextData = Region{Name: "text+data", Base: l.Reserved.End(), Size: binBytes}
	l.IOData = Region{Name: "io-data", Base: roundUp(l.TextData.End(), SuperpageSize), Size: ioSize}
	l.MinorHeap = Region{Name: "minor-heap", Base: l.IOData.End(), Size: minSize}
	major := memBytes - binBytes - ioSize - minSize
	major = major / SuperpageSize * SuperpageSize
	l.MajorHeap = Region{Name: "major-heap", Base: l.MinorHeap.End(), Size: major}
	return l, nil
}

// Regions returns all regions in ascending address order.
func (l *Layout) Regions() []Region {
	return []Region{l.Reserved, l.TextData, l.IOData, l.MinorHeap, l.MajorHeap}
}

// Validate checks the layout invariants: regions are disjoint, ascending,
// and superpage-aligned where required.
func (l *Layout) Validate() error {
	rs := l.Regions()
	for i := 1; i < len(rs); i++ {
		if rs[i].Base < rs[i-1].End() {
			return fmt.Errorf("mem: regions %s and %s overlap", rs[i-1].Name, rs[i].Name)
		}
	}
	if l.IOData.Base%SuperpageSize != 0 || l.MajorHeap.Size%SuperpageSize != 0 {
		return fmt.Errorf("mem: superpage alignment violated")
	}
	return nil
}

func roundUp(x, to uint64) uint64 { return (x + to - 1) / to * to }

// Extent is the PVBoot extent allocator: it reserves a contiguous region of
// virtual memory and hands out 2 MiB chunks, permitting x86-64 superpage
// mappings (§3.2). Chunks are identified by index.
type Extent struct {
	region Region
	used   []bool
	// MapOps counts page-table mapping operations: one per superpage,
	// versus 512 for an equivalent run of 4 KiB pages.
	MapOps int
}

// NewExtent creates an extent allocator over region (size must be a
// superpage multiple).
func NewExtent(region Region) *Extent {
	if region.Size%SuperpageSize != 0 {
		panic("mem: extent region must be a superpage multiple")
	}
	return &Extent{region: region, used: make([]bool, region.Size/SuperpageSize)}
}

// Chunks returns the total number of 2 MiB chunks.
func (e *Extent) Chunks() int { return len(e.used) }

// FreeChunks returns how many chunks are unallocated.
func (e *Extent) FreeChunks() int {
	n := 0
	for _, u := range e.used {
		if !u {
			n++
		}
	}
	return n
}

// Alloc reserves n contiguous chunks and returns the base address, or an
// error if no run of n chunks is free.
func (e *Extent) Alloc(n int) (uint64, error) {
	if n <= 0 {
		return 0, fmt.Errorf("mem: extent alloc of %d chunks", n)
	}
	run := 0
	for i, u := range e.used {
		if u {
			run = 0
			continue
		}
		run++
		if run == n {
			start := i - n + 1
			for j := start; j <= i; j++ {
				e.used[j] = true
			}
			e.MapOps += n // one superpage mapping per chunk
			return e.region.Base + uint64(start)*SuperpageSize, nil
		}
	}
	return 0, fmt.Errorf("mem: extent exhausted (%d/%d chunks free, want %d contiguous)", e.FreeChunks(), len(e.used), n)
}

// Free releases n chunks starting at addr.
func (e *Extent) Free(addr uint64, n int) error {
	if addr < e.region.Base || (addr-e.region.Base)%SuperpageSize != 0 {
		return fmt.Errorf("mem: bad extent free address %#x", addr)
	}
	start := int((addr - e.region.Base) / SuperpageSize)
	if start+n > len(e.used) {
		return fmt.Errorf("mem: extent free out of range")
	}
	for i := start; i < start+n; i++ {
		if !e.used[i] {
			return fmt.Errorf("mem: double free of chunk %d", i)
		}
		e.used[i] = false
	}
	return nil
}

// Slab is the PVBoot slab allocator supporting the C parts of the runtime
// (§3.2). It carves pages into power-of-two size classes. As most code is
// type-safe it is deliberately small.
type Slab struct {
	classes map[int]*slabClass
	// Stats
	PagesUsed int
	Allocs    int
	Frees     int
}

type slabClass struct {
	size int
	free int // free objects available in carved pages
}

// NewSlab returns an empty slab allocator.
func NewSlab() *Slab { return &Slab{classes: map[int]*slabClass{}} }

// sizeClass rounds n up to the next power of two, minimum 16, maximum one page.
func sizeClass(n int) int {
	c := 16
	for c < n {
		c <<= 1
	}
	return c
}

// Alloc reserves an object of at least n bytes (n must be <= PageSize) and
// returns its size class.
func (s *Slab) Alloc(n int) (int, error) {
	if n <= 0 || n > PageSize {
		return 0, fmt.Errorf("mem: slab alloc of %d bytes", n)
	}
	c := sizeClass(n)
	cl := s.classes[c]
	if cl == nil {
		cl = &slabClass{size: c}
		s.classes[c] = cl
	}
	if cl.free == 0 {
		cl.free = PageSize / c
		s.PagesUsed++
	}
	cl.free--
	s.Allocs++
	return c, nil
}

// Free returns an object of size class c to its slab.
func (s *Slab) Free(c int) {
	if cl := s.classes[c]; cl != nil {
		cl.free++
	}
	s.Frees++
}

// GrowthBackend selects how the major heap obtains memory.
type GrowthBackend int

const (
	// GrowExtent grows in contiguous 2 MiB superpages from the extent
	// allocator (the unikernel's specialised layout).
	GrowExtent GrowthBackend = iota
	// GrowMalloc grows in scattered 4 KiB chunks obtained from a general
	// allocator; the collector must maintain a chunk table.
	GrowMalloc
)

// HeapConfig parameterises the generational heap cost model. All costs are
// nominal virtual-CPU durations; see EXPERIMENTS.md for calibration.
type HeapConfig struct {
	Backend      GrowthBackend
	MinorSize    int           // minor heap bytes (Mirage: one 2 MiB extent)
	SurvivalRate float64       // fraction of minor bytes promoted per minor GC
	ScanCost     time.Duration // cost per KiB scanned during collection
	CopyCost     time.Duration // cost per KiB promoted/compacted
	GrowCost     time.Duration // base cost per growth operation
	SyscallCost  time.Duration // extra per-growth syscall cost (0 on a unikernel)
	// ChunkTrackCost is paid per tracked chunk at every major collection
	// when Backend == GrowMalloc (the page-table the paper's §3.3 says a
	// userspace GC must maintain). Zero for GrowExtent.
	ChunkTrackCost time.Duration
	MajorTrigger   float64 // run a major GC when used/cap exceeds this
}

// DefaultHeapConfig returns the unikernel extent-backed configuration.
func DefaultHeapConfig() HeapConfig {
	return HeapConfig{
		Backend:        GrowExtent,
		MinorSize:      2 << 20,
		SurvivalRate:   0.15,
		ScanCost:       60 * time.Nanosecond,
		CopyCost:       150 * time.Nanosecond,
		GrowCost:       2 * time.Microsecond,
		SyscallCost:    0,
		ChunkTrackCost: 0,
		MajorTrigger:   0.8,
	}
}

// Heap is the two-generation heap cost model. Alloc bumps the minor heap;
// filling it triggers a minor collection that scans the minor heap and
// promotes survivors; major-heap growth and collection costs depend on the
// configured backend. Costs accumulate in Cost until drained.
type Heap struct {
	cfg HeapConfig

	minorUsed int
	majorUsed int
	majorCap  int
	liveMajor int

	// Cost is the accrued, un-drained virtual CPU cost.
	Cost time.Duration
	// Collection statistics.
	MinorGCs int
	MajorGCs int
	Growths  int
	chunks   int // tracked chunks (malloc backend)
}

// NewHeap creates a heap with the given configuration.
func NewHeap(cfg HeapConfig) *Heap {
	if cfg.MinorSize <= 0 {
		panic("mem: heap MinorSize must be positive")
	}
	return &Heap{cfg: cfg}
}

// Alloc allocates n bytes on the minor heap, running collections as needed.
func (h *Heap) Alloc(n int) {
	for n > 0 {
		if h.minorUsed+n <= h.cfg.MinorSize {
			h.minorUsed += n
			return
		}
		// Fill the minor heap, then collect.
		n -= h.cfg.MinorSize - h.minorUsed
		h.minorUsed = h.cfg.MinorSize
		h.minorCollect()
	}
}

// AllocMajor allocates n bytes directly on the major heap (large objects).
func (h *Heap) AllocMajor(n int) {
	h.ensureMajor(n)
	h.majorUsed += n
	h.liveMajor += n
	h.maybeMajorCollect()
}

// Release marks n bytes of major-heap data dead (they are reclaimed by the
// next major collection).
func (h *Heap) Release(n int) {
	h.liveMajor -= n
	if h.liveMajor < 0 {
		h.liveMajor = 0
	}
}

func (h *Heap) minorCollect() {
	h.MinorGCs++
	// Scan the whole minor heap; copy survivors into the major heap.
	h.Cost += time.Duration(h.minorUsed/1024+1) * h.cfg.ScanCost
	survivors := int(float64(h.minorUsed) * h.cfg.SurvivalRate)
	h.Cost += time.Duration(survivors/1024+1) * h.cfg.CopyCost
	h.ensureMajor(survivors)
	h.majorUsed += survivors
	h.liveMajor += survivors
	h.minorUsed = 0
	h.maybeMajorCollect()
}

func (h *Heap) ensureMajor(n int) {
	for h.majorUsed+n > h.majorCap {
		h.Growths++
		h.Cost += h.cfg.GrowCost + h.cfg.SyscallCost
		switch h.cfg.Backend {
		case GrowExtent:
			h.majorCap += SuperpageSize
			h.chunks++ // one superpage chunk; never re-scanned
		case GrowMalloc:
			// A general-purpose allocator grows in page-sized chunks, so
			// large growth needs many operations and many tracked chunks.
			h.majorCap += 64 * PageSize
			h.chunks += 64
		}
	}
}

func (h *Heap) maybeMajorCollect() {
	if h.majorCap == 0 || float64(h.majorUsed)/float64(h.majorCap) < h.cfg.MajorTrigger {
		return
	}
	h.MajorGCs++
	// Mark: scan live data. Sweep/compact: copy a fraction of it.
	h.Cost += time.Duration(h.liveMajor/1024+1) * h.cfg.ScanCost
	h.Cost += time.Duration(h.liveMajor/4096+1) * h.cfg.CopyCost
	if h.cfg.Backend == GrowMalloc {
		// The collector walks its chunk table (the "page table" a
		// userspace GC keeps when the heap is not contiguous, §3.3).
		h.Cost += time.Duration(h.chunks) * h.cfg.ChunkTrackCost
	}
	h.majorUsed = h.liveMajor
}

// Drain returns and clears the accrued cost; callers charge it to a vCPU.
func (h *Heap) Drain() time.Duration {
	c := h.Cost
	h.Cost = 0
	return c
}

// LiveBytes returns current live data (minor + major).
func (h *Heap) LiveBytes() int { return h.minorUsed + h.liveMajor }
