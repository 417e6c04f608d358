// Package blkif is the guest block frontend driver (paper §3.5.2): block
// devices share the same Ring abstraction as network devices and the same
// I/O pages, with filesystems and caching provided as libraries above.
// Reads and writes are always direct — there is no buffer cache on this
// path — and complete via promises on the lwt scheduler.
//
// The fast path mirrors real blkfront: requests submitted in the same
// instant are plugged into a staging queue, adjacent-sector requests merge
// into one scatter-gather operation, and merged operations that exceed one
// page ride an indirect descriptor — one ring slot carrying up to
// MaxSegments data pages through an indirect page of segment grants. A
// burst therefore costs one ring publish, one notification and (per merged
// run) one device operation instead of one of each per request.
package blkif

import (
	"fmt"

	"repro/internal/blkback"
	"repro/internal/cstruct"
	"repro/internal/device"
	"repro/internal/grant"
	"repro/internal/hypervisor"
	"repro/internal/lwt"
	"repro/internal/obs"
	"repro/internal/pvboot"
	"repro/internal/ring"
	"repro/internal/sim"
	"repro/internal/xenstore"
)

// SectorSize re-exports the device sector size.
const SectorSize = blkback.SectorSize

// SectorsPerPage re-exports the page capacity in sectors.
const SectorsPerPage = blkback.SectorsPerPage

// MaxSegments re-exports the indirect-descriptor segment limit: the most
// data pages one merged request (one ring slot) can carry.
const MaxSegments = blkback.MaxSegments

// MaxReqSectors re-exports the largest merged request in sectors.
const MaxReqSectors = blkback.MaxReqSectors

// Blkif is a connected guest block device.
type Blkif struct {
	vm       *pvboot.VM
	front    *ring.Front
	ringPage *cstruct.View
	port     *hypervisor.Port

	nextID   uint16
	inflight map[uint16]*devop
	// staged holds requests plugged in the current instant, merged into
	// devops at unplug time.
	staged []*op
	// queue holds merged devops waiting for ring slots.
	queue []*devop
	// unplugPending/flushPending defer merge and ring publish + notify to
	// the end of the current instant, so a burst of submits costs one merge
	// pass and one notification.
	unplugPending bool
	flushPending  bool
	batching      bool

	// Stats
	Reads, Writes int
	// Merged counts requests that rode along in another request's ring slot
	// (each one a ring slot and a device op saved); Indirect counts ring
	// requests issued through an indirect page.
	Merged, Indirect int

	mxReads    *obs.Counter
	mxWrites   *obs.Counter
	mxMerged   *obs.Counter
	mxIndirect *obs.Counter
	mxSegments *obs.Counter
}

// op is one application-level request: at most a page of sectors, with its
// own completion promise. Several ops may share a devop after merging.
type op struct {
	write   bool
	sectors int
	sector  uint64
	data    []byte // staged write payload (copied at submit)
	pr      *lwt.Promise[*cstruct.View]
	started sim.Time
}

// devop is one ring request: a merged run of adjacent ops issued as a
// single (possibly indirect) scatter-gather operation.
type devop struct {
	write   bool
	sector  uint64
	sectors int
	ops     []*op

	pages   []*cstruct.View
	grefs   []grant.Ref
	indPage *cstruct.View // nil for direct (single-page) requests
	indGref grant.Ref
	started sim.Time
}

// Attach creates and connects a block device for vm against ssd through
// the unified device seam, with the xenstore handshake under
// /local/domain/<id>/device/vbd/0.
func Attach(vm *pvboot.VM, ssd *blkback.SSD, dom0 *hypervisor.Domain, st *xenstore.Store) (*Blkif, error) {
	d := vm.Dom
	ringPage := d.Pool.Get()
	b := &Blkif{
		vm:       vm,
		front:    ring.NewFront(ringPage),
		ringPage: ringPage,
		inflight: map[uint16]*devop{},
		batching: true,
	}
	k := vm.S.K
	m := k.Metrics()
	dev := obs.L("dev", fmt.Sprintf("vbd%d", d.ID))
	b.mxReads = m.Counter("blk_requests_total", dev, obs.L("op", "read"))
	b.mxWrites = m.Counter("blk_requests_total", dev, obs.L("op", "write"))
	b.mxMerged = m.Counter("blk_merged_requests_total", dev)
	b.mxIndirect = m.Counter("blk_indirect_requests_total", dev)
	b.mxSegments = m.Counter("blk_segments_total", dev)
	occ := m.Histogram("ring_occupancy", []float64{1, 2, 4, 8, 16, 24, 32}, dev, obs.L("ring", "blk"))
	b.front.Hooks.OnPublish = func(inFlight int, notify bool) {
		occ.Observe(float64(inFlight))
	}

	if _, err := vm.Attach(dom0, st, 0, b, &blkback.VBDBackend{SSD: ssd}); err != nil {
		return nil, err
	}
	return b, nil
}

// Kind implements device.Frontend.
func (b *Blkif) Kind() string { return "vbd" }

// Rings implements device.Frontend: block devices use a single unnamed
// ring, published as plain "ring-ref".
func (b *Blkif) Rings() []device.Ring {
	return []device.Ring{{Name: "", Page: b.ringPage}}
}

// Fields implements device.Frontend.
func (b *Blkif) Fields() map[string]string { return nil }

// Connected implements device.Frontend.
func (b *Blkif) Connected(port *hypervisor.Port) { b.port = port }

// SetBatching toggles request merging and indirect descriptors (on by
// default). With batching off every request occupies its own ring slot and
// its own device operation — the pre-fast-path behaviour, kept as the
// measured baseline for fig9's batched-vs-unbatched comparison.
func (b *Blkif) SetBatching(on bool) { b.batching = on }

// Read reads sectors (1..8) starting at sector into a fresh I/O page and
// resolves with a view of the data. The caller owns the view.
func (b *Blkif) Read(sector uint64, sectors int) *lwt.Promise[*cstruct.View] {
	return b.submit(false, sector, sectors, nil)
}

// Write writes data (at most one page, sector-aligned length) at sector.
// The promise resolves with nil once the device acknowledges — writes are
// direct, so resolution means persistence (§3.5.2).
func (b *Blkif) Write(sector uint64, data []byte) *lwt.Promise[*cstruct.View] {
	sectors := (len(data) + SectorSize - 1) / SectorSize
	return b.submit(true, sector, sectors, data)
}

func (b *Blkif) submit(write bool, sector uint64, sectors int, data []byte) *lwt.Promise[*cstruct.View] {
	pr := lwt.NewPromise[*cstruct.View](b.vm.S)
	if sectors <= 0 || sectors > SectorsPerPage {
		pr.Fail(fmt.Errorf("blkif: bad request size %d sectors", sectors))
		return pr
	}
	o := &op{
		write:   write,
		sectors: sectors,
		sector:  sector,
		pr:      pr,
		started: b.vm.S.K.Now(),
	}
	if write {
		o.data = append([]byte(nil), data...)
		b.Writes++
		b.mxWrites.Inc()
	} else {
		b.Reads++
		b.mxReads.Inc()
	}
	b.staged = append(b.staged, o)
	b.scheduleUnplug()
	return pr
}

// scheduleUnplug arranges an automatic unplug at the end of the current
// instant, so same-instant bursts merge into one pass.
func (b *Blkif) scheduleUnplug() {
	if b.unplugPending {
		return
	}
	b.unplugPending = true
	k := b.vm.S.K
	k.At(k.Now(), func() {
		b.unplugPending = false
		b.unplug()
	})
}

// unplug merges the staged requests into devops and issues as many as the
// ring has slots for; the rest wait in the queue.
func (b *Blkif) unplug() {
	if len(b.staged) == 0 {
		return
	}
	var cur *devop
	for _, o := range b.staged {
		if b.batching && cur != nil && cur.write == o.write &&
			cur.sector+uint64(cur.sectors) == o.sector &&
			cur.sectors+o.sectors <= MaxReqSectors {
			cur.ops = append(cur.ops, o)
			cur.sectors += o.sectors
			b.Merged++
			b.mxMerged.Inc()
			continue
		}
		cur = &devop{write: o.write, sector: o.sector, sectors: o.sectors, ops: []*op{o}}
		b.queue = append(b.queue, cur)
	}
	b.staged = b.staged[:0]
	b.fill()
}

// fill pushes queued devops while ring slots are free.
func (b *Blkif) fill() {
	for len(b.queue) > 0 && b.front.Free() > 0 {
		d := b.queue[0]
		b.queue = b.queue[1:]
		b.push(d)
	}
}

// push materialises a devop's I/O pages, grants them, and encodes the ring
// request — direct for a single-page devop, indirect otherwise.
func (b *Blkif) push(d *devop) {
	dom := b.vm.Dom
	npages := (d.sectors + SectorsPerPage - 1) / SectorsPerPage
	d.pages = make([]*cstruct.View, npages)
	d.grefs = make([]grant.Ref, npages)
	for i := range d.pages {
		d.pages[i] = dom.Pool.Get()
		d.grefs[i] = dom.Grants.Grant(d.pages[i], false)
	}
	if d.write {
		off := 0
		for _, o := range d.ops {
			b.scatter(d, off, o.data)
			off += o.sectors * SectorSize
		}
	}
	b.nextID++
	id := b.nextID
	b.inflight[id] = d
	d.started = b.vm.S.K.Now()
	req := blkback.Req{
		Write:   d.write,
		Sectors: uint8(d.sectors),
		Segs:    uint8(npages),
		Sector:  d.sector,
		ID:      id,
	}
	if npages == 1 {
		req.Gref = uint32(d.grefs[0])
	} else {
		req.Indirect = true
		d.indPage = dom.Pool.Get()
		for i, g := range d.grefs {
			d.indPage.PutLE32(i*4, uint32(g))
		}
		d.indGref = dom.Grants.Grant(d.indPage, true)
		req.Gref = uint32(d.indGref)
		b.Indirect++
		b.mxIndirect.Inc()
	}
	b.mxSegments.Add(int64(npages))
	b.front.PushRequest(func(s *cstruct.View) { blkback.EncodeReq(s, req) })
	b.scheduleFlush()
}

// scatter copies a write payload into the devop's pages starting at byte
// offset off within the merged request.
func (b *Blkif) scatter(d *devop, off int, data []byte) {
	for len(data) > 0 {
		pg := d.pages[off/cstruct.PageSize]
		po := off % cstruct.PageSize
		n := cstruct.PageSize - po
		if n > len(data) {
			n = len(data)
		}
		pg.PutBytes(po, data[:n])
		data = data[n:]
		off += n
	}
}

// gatherView resolves a read op's view of the completed devop: a zero-copy
// sub-view when the op's bytes sit inside one segment page, an assembled
// copy when a merged op straddles two.
func (d *devop) gatherView(off, n int) *cstruct.View {
	pi := off / cstruct.PageSize
	po := off % cstruct.PageSize
	if po+n <= cstruct.PageSize {
		return d.pages[pi].Sub(po, n)
	}
	buf := make([]byte, n)
	for copied := 0; copied < n; {
		pg := d.pages[(off+copied)/cstruct.PageSize]
		so := (off + copied) % cstruct.PageSize
		c := copy(buf[copied:], pg.Slice(so, cstruct.PageSize-so))
		copied += c
	}
	return cstruct.Wrap(buf)
}

// scheduleFlush publishes the batch of requests pushed this instant with a
// single ring publish and at most one event-channel notification (§3.4.1
// batching: the backend pays per wakeup, not per request).
func (b *Blkif) scheduleFlush() {
	if b.flushPending {
		return
	}
	b.flushPending = true
	k := b.vm.S.K
	k.At(k.Now(), func() {
		b.flushPending = false
		if b.front.PushRequests() {
			b.port.NotifyAsync()
		}
	})
}

// OnEvent implements device.Frontend: it drains completions inside the
// scheduler run loop.
func (b *Blkif) OnEvent() {
	for {
		for {
			var id uint16
			var ok bool
			if !b.front.PopResponse(func(s *cstruct.View) { id, ok = blkback.DecodeRsp(s) }) {
				break
			}
			d := b.inflight[id]
			if d == nil {
				continue
			}
			delete(b.inflight, id)
			b.complete(d, ok)
		}
		b.fill()
		if raced := b.front.EnableResponseEvents(); !raced {
			return
		}
	}
}

// complete ends the devop's grants, distributes results to its member ops,
// and releases the I/O pages.
func (b *Blkif) complete(d *devop, ok bool) {
	b.traceDone(d, ok)
	dom := b.vm.Dom
	for _, g := range d.grefs {
		dom.Grants.End(g)
	}
	if d.indPage != nil {
		dom.Grants.End(d.indGref)
		d.indPage.Release()
		d.indPage = nil
	}
	off := 0
	for _, o := range d.ops {
		switch {
		case !ok:
			o.pr.Fail(fmt.Errorf("blkif: device error"))
		case o.write:
			o.pr.Resolve(nil)
		default:
			o.pr.Resolve(d.gatherView(off, o.sectors*SectorSize))
		}
		off += o.sectors * SectorSize
	}
	for _, pg := range d.pages {
		pg.Release()
	}
	d.pages = nil
}

// traceDone emits a span covering the devop's issue-to-completion life.
func (b *Blkif) traceDone(d *devop, ok bool) {
	k := b.vm.S.K
	tr := k.Trace()
	if !tr.Enabled() {
		return
	}
	name := "read"
	if d.write {
		name = "write"
	}
	tr.Complete(obs.Time(d.started), obs.Time(k.Now().Sub(d.started)), "blk", name,
		b.vm.Dom.ID, 0,
		obs.Int("sector", int64(d.sector)), obs.Int("sectors", int64(d.sectors)),
		obs.Int("reqs", int64(len(d.ops))))
}

// InFlight returns the number of outstanding application requests.
func (b *Blkif) InFlight() int {
	n := len(b.staged)
	for _, d := range b.queue {
		n += len(d.ops)
	}
	for _, d := range b.inflight {
		n += len(d.ops)
	}
	return n
}

// Queue is a queue-depth-N submission context over a Blkif: callers fire
// requests with completion callbacks and the queue keeps up to depth
// application requests outstanding, spilling the rest into a backlog.
// Freed slots refill in end-of-instant bursts so refills stage together
// and merge like the original burst did — sustained QD-N load keeps the
// merge window full instead of dribbling one request at a time.
type Queue struct {
	b     *Blkif
	depth int

	inflight int
	backlog  []func()
	// pumpPending defers backlog refill to the end of the instant so all
	// completions of the instant free their slots first.
	pumpPending bool

	// Done counts completed requests; Errors counts failed ones.
	Done, Errors int
}

// NewQueue creates a submission queue bounded at depth outstanding
// requests (depth >= 1).
func (b *Blkif) NewQueue(depth int) *Queue {
	if depth < 1 {
		depth = 1
	}
	return &Queue{b: b, depth: depth}
}

// Read submits a sector read; done fires on completion with the data view
// (owned by the callback) or an error.
func (q *Queue) Read(sector uint64, sectors int, done func(*cstruct.View, error)) {
	q.issue(func() {
		pr := q.b.Read(sector, sectors)
		lwt.Always(pr, func() {
			q.finish(pr.Failed())
			if err := pr.Failed(); err != nil {
				done(nil, err)
				return
			}
			done(pr.Value(), nil)
		})
	})
}

// Write submits a sector write; done fires once the device acknowledges.
func (q *Queue) Write(sector uint64, data []byte, done func(error)) {
	q.issue(func() {
		pr := q.b.Write(sector, data)
		lwt.Always(pr, func() {
			q.finish(pr.Failed())
			done(pr.Failed())
		})
	})
}

// Backlog returns the number of requests waiting for a queue slot.
func (q *Queue) Backlog() int { return len(q.backlog) }

// InFlight returns the number of requests holding queue slots.
func (q *Queue) InFlight() int { return q.inflight }

func (q *Queue) issue(fire func()) {
	if q.inflight < q.depth {
		q.inflight++
		fire()
		return
	}
	q.backlog = append(q.backlog, fire)
}

func (q *Queue) finish(err error) {
	q.inflight--
	q.Done++
	if err != nil {
		q.Errors++
	}
	q.pump()
}

func (q *Queue) pump() {
	if q.pumpPending || len(q.backlog) == 0 {
		return
	}
	q.pumpPending = true
	k := q.b.vm.S.K
	k.At(k.Now(), func() {
		q.pumpPending = false
		for q.inflight < q.depth && len(q.backlog) > 0 {
			fire := q.backlog[0]
			q.backlog = q.backlog[1:]
			q.inflight++
			fire()
		}
	})
}

// ReadAt is a convenience: read n bytes at byte offset off (must be
// sector-aligned ranges internally; n <= one page).
func (b *Blkif) ReadAt(off uint64, n int) *lwt.Promise[*cstruct.View] {
	if off%SectorSize != 0 {
		pr := lwt.NewPromise[*cstruct.View](b.vm.S)
		pr.Fail(fmt.Errorf("blkif: unaligned offset %d", off))
		return pr
	}
	sectors := (n + SectorSize - 1) / SectorSize
	res := b.Read(off/SectorSize, sectors)
	return lwt.Map(res, func(v *cstruct.View) *cstruct.View {
		if v.Len() > n {
			out := v.Sub(0, n)
			v.Release()
			return out
		}
		return v
	})
}
