package ring

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/cstruct"
	"repro/internal/sim"
)

func newPair() (*Front, *Back, *cstruct.View) {
	page := cstruct.Make(cstruct.PageSize)
	f := NewFront(page)
	b := NewBack(page)
	return f, b, page
}

func TestRequestResponseRoundTrip(t *testing.T) {
	f, b, _ := newPair()
	ok := f.PushRequest(func(s *cstruct.View) { s.PutLE64(0, 1234) })
	if !ok {
		t.Fatal("push on empty ring failed")
	}
	if notify := f.PushRequests(); !notify {
		t.Error("first request should notify the backend")
	}
	var got uint64
	if !b.PopRequest(func(s *cstruct.View) { got = s.LE64(0) }) {
		t.Fatal("backend saw no request")
	}
	if got != 1234 {
		t.Errorf("request payload = %d, want 1234", got)
	}
	b.PushResponse(func(s *cstruct.View) { s.PutLE64(0, got*2) })
	if notify := b.PushResponses(); !notify {
		t.Error("first response should notify the frontend")
	}
	var rsp uint64
	if !f.PopResponse(func(s *cstruct.View) { rsp = s.LE64(0) }) {
		t.Fatal("frontend saw no response")
	}
	if rsp != 2468 {
		t.Errorf("response = %d, want 2468", rsp)
	}
}

func TestRingFlowControl(t *testing.T) {
	f, b, _ := newPair()
	for i := 0; i < Slots; i++ {
		if !f.PushRequest(func(s *cstruct.View) { s.PutLE32(0, uint32(i)) }) {
			t.Fatalf("push %d failed with free slots", i)
		}
	}
	if f.Free() != 0 {
		t.Fatalf("Free = %d after filling, want 0", f.Free())
	}
	if f.PushRequest(func(s *cstruct.View) {}) {
		t.Fatal("push succeeded on full ring")
	}
	f.PushRequests()
	// Backend answers half; frontend consumes, freeing slots.
	for i := 0; i < Slots/2; i++ {
		b.PopRequest(func(*cstruct.View) {})
		b.PushResponse(func(*cstruct.View) {})
	}
	b.PushResponses()
	for f.PopResponse(func(*cstruct.View) {}) {
	}
	if f.Free() != Slots/2 {
		t.Errorf("Free = %d after consuming half, want %d", f.Free(), Slots/2)
	}
}

func TestResponsesReuseRequestSlots(t *testing.T) {
	f, b, page := newPair()
	f.PushRequest(func(s *cstruct.View) { s.PutLE32(0, 0xAAAA) })
	f.PushRequests()
	b.PopRequest(func(*cstruct.View) {})
	b.PushResponse(func(s *cstruct.View) { s.PutLE32(0, 0xBBBB) })
	// Slot 0 now holds the response, in place.
	if got := page.LE32(HeaderSize); got != 0xBBBB {
		t.Errorf("slot 0 = %#x, want response 0xBBBB in the request's slot", got)
	}
}

func TestNotificationSuppression(t *testing.T) {
	f, b, _ := newPair()
	f.PushRequest(func(*cstruct.View) {})
	if !f.PushRequests() {
		t.Fatal("first push should notify")
	}
	// Backend is awake and has not re-armed events: further pushes
	// must not notify.
	f.PushRequest(func(*cstruct.View) {})
	if f.PushRequests() {
		t.Error("push while backend awake should not notify")
	}
	// Backend drains and re-arms; the next push notifies again.
	for b.PopRequest(func(*cstruct.View) {}) {
	}
	if raced := b.EnableRequestEvents(); raced {
		t.Fatal("no requests should have raced in")
	}
	f.PushRequest(func(*cstruct.View) {})
	if !f.PushRequests() {
		t.Error("push after backend re-armed should notify")
	}
}

func TestEnableRequestEventsDetectsRace(t *testing.T) {
	f, b, _ := newPair()
	f.PushRequest(func(*cstruct.View) {})
	f.PushRequests()
	if raced := b.EnableRequestEvents(); !raced {
		t.Error("EnableRequestEvents missed a raced request")
	}
}

func TestBackendCannotRespondBeforeConsuming(t *testing.T) {
	_, b, _ := newPair()
	if b.PushResponse(func(*cstruct.View) {}) {
		t.Error("response pushed with no consumed request")
	}
}

// Property: for any interleaving of pushes and pops, every request is
// answered exactly once and payloads match FIFO order.
func TestPropRingFIFO(t *testing.T) {
	f := func(ops []bool) bool {
		fr, ba, _ := newPair()
		next := uint32(0)
		var sent, got []uint32
		for _, push := range ops {
			if push {
				v := next
				if fr.PushRequest(func(s *cstruct.View) { s.PutLE32(0, v) }) {
					sent = append(sent, v)
					next++
				}
				fr.PushRequests()
			} else {
				var v uint32
				if ba.PopRequest(func(s *cstruct.View) { v = s.LE32(0) }) {
					ba.PushResponse(func(rs *cstruct.View) { rs.PutLE32(0, v) })
				}
				ba.PushResponses()
				fr.PopResponse(func(s *cstruct.View) { got = append(got, s.LE32(0)) })
			}
		}
		// Drain.
		for {
			var v uint32
			if !ba.PopRequest(func(s *cstruct.View) { v = s.LE32(0) }) {
				break
			}
			ba.PushResponse(func(rs *cstruct.View) { rs.PutLE32(0, v) })
		}
		ba.PushResponses()
		for fr.PopResponse(func(s *cstruct.View) { got = append(got, s.LE32(0)) }) {
		}
		if len(got) != len(sent) {
			return false
		}
		for i := range got {
			if got[i] != sent[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVchanByteStreamIntegrity(t *testing.T) {
	k := sim.NewKernel(3)
	a, b, _ := vchanPair(k)
	msg := make([]byte, 100_000)
	for i := range msg {
		msg[i] = byte(i * 7)
	}
	var rcvd []byte
	k.Spawn("writer", func(p *sim.Proc) {
		a.Write(p, msg)
		a.Close()
	})
	k.Spawn("reader", func(p *sim.Proc) {
		buf := make([]byte, 777)
		for {
			n := b.Read(p, buf)
			if n == 0 {
				return
			}
			rcvd = append(rcvd, buf[:n]...)
		}
	})
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(rcvd) != len(msg) {
		t.Fatalf("received %d bytes, want %d", len(rcvd), len(msg))
	}
	for i := range msg {
		if rcvd[i] != msg[i] {
			t.Fatalf("byte %d corrupted", i)
		}
	}
}

func vchanPair(k *sim.Kernel) (*VchanEnd, *VchanEnd, int) {
	// vchan allocates multiple contiguous pages so the ring has a
	// reasonable buffer (§3.5.1).
	ringBytes := 64 * cstruct.PageSize
	a, b := NewVchan(k, ringBytes, 2*time.Microsecond)
	return a, b, ringBytes
}

func TestVchanSuppressesNotificationsOnContinuousFlow(t *testing.T) {
	k := sim.NewKernel(3)
	a, b, _ := vchanPair(k)
	const total = 1 << 20
	k.Spawn("writer", func(p *sim.Proc) {
		chunk := make([]byte, 8192)
		for sent := 0; sent < total; sent += len(chunk) {
			a.Write(p, chunk)
		}
		a.Close()
	})
	k.Spawn("reader", func(p *sim.Proc) {
		buf := make([]byte, 8192)
		for b.Read(p, buf) != 0 {
		}
	})
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// When data is continuously flowing, each side checks for outstanding
	// data before blocking (§3.5.1 fn.4): notifications stay far below
	// one per chunk.
	chunks := total / 8192
	if a.Notifies+b.Notifies >= chunks/4 {
		t.Errorf("notifies = %d for %d chunks; suppression ineffective", a.Notifies+b.Notifies, chunks)
	}
}

func TestVchanReadBlocksUntilData(t *testing.T) {
	k := sim.NewKernel(3)
	a, b, _ := vchanPair(k)
	var readAt sim.Time
	k.Spawn("reader", func(p *sim.Proc) {
		buf := make([]byte, 4)
		b.Read(p, buf)
		readAt = p.Now()
	})
	k.Spawn("writer", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		a.Write(p, []byte("ping"))
		a.Close()
	})
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if readAt < sim.Time(time.Millisecond) {
		t.Errorf("read completed at %v, before write", readAt)
	}
}

func TestVchanCloseUnblocksReader(t *testing.T) {
	k := sim.NewKernel(3)
	a, b, _ := vchanPair(k)
	got := -1
	k.Spawn("reader", func(p *sim.Proc) {
		got = b.Read(p, make([]byte, 8))
	})
	k.Spawn("closer", func(p *sim.Proc) {
		p.Sleep(time.Millisecond)
		a.Close()
	})
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Errorf("Read on closed vchan = %d, want 0", got)
	}
}

// Property: the vchan byte stream is the identity for any interleaving of
// write and read chunk sizes.
func TestPropVchanStreamIdentity(t *testing.T) {
	f := func(writeChunks, readChunks []uint8, seed int64) bool {
		if len(writeChunks) == 0 || len(readChunks) == 0 {
			return true
		}
		k := sim.NewKernel(seed)
		a, b := NewVchan(k, 8*cstruct.PageSize, time.Microsecond)
		var sent, got []byte
		k.Spawn("writer", func(p *sim.Proc) {
			for i, c := range writeChunks {
				chunk := make([]byte, int(c)%700+1)
				for j := range chunk {
					chunk[j] = byte(i*31 + j)
				}
				sent = append(sent, chunk...)
				a.Write(p, chunk)
			}
			a.Close()
		})
		k.Spawn("reader", func(p *sim.Proc) {
			i := 0
			for {
				buf := make([]byte, int(readChunks[i%len(readChunks)])%900+1)
				i++
				n := b.Read(p, buf)
				if n == 0 {
					return
				}
				got = append(got, buf[:n]...)
			}
		})
		if _, err := k.Run(); err != nil {
			return false
		}
		return string(got) == string(sent)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestBackRefusesRequestProdOverflow: a hostile frontend publishes a
// req_prod far past the ring; the backend must consume at most one ring's
// worth of slots, count the overflow and report nothing pending, so a
// worker draining the ring terminates and parks.
func TestBackRefusesRequestProdOverflow(t *testing.T) {
	_, b, page := newPair()
	Attach(page).setReqProd(1 << 20)
	pops := 0
	for b.PopRequest(func(*cstruct.View) {}) {
		pops++
		if pops > Slots {
			t.Fatalf("backend consumed more than %d requests from a %d-slot ring", pops, Slots)
		}
	}
	if b.Overflows == 0 {
		t.Error("overflow not counted")
	}
	if b.PendingRequests() {
		t.Error("PendingRequests true on an overflowed ring: a worker would spin")
	}
	if b.EnableRequestEvents() {
		t.Error("EnableRequestEvents reports a race on an overflowed ring")
	}
}
