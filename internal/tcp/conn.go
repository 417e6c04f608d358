package tcp

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/cstruct"
	"repro/internal/lwt"
	"repro/internal/obs"
	"repro/internal/sim"
)

// State is a TCP connection state.
type State int

// Connection states.
const (
	StateClosed State = iota
	StateListen
	StateSynSent
	StateSynRcvd
	StateEstablished
	StateFinWait1
	StateFinWait2
	StateCloseWait
	StateClosing
	StateLastAck
	StateTimeWait
)

var stateNames = [...]string{"Closed", "Listen", "SynSent", "SynRcvd", "Established",
	"FinWait1", "FinWait2", "CloseWait", "Closing", "LastAck", "TimeWait"}

func (s State) String() string { return stateNames[s] }

// ErrReset reports a connection torn down by an RST or local abort.
var ErrReset = errors.New("tcp: connection reset")

// Sequence-space comparisons (RFC 793 modular arithmetic).
func seqLT(a, b uint32) bool  { return int32(a-b) < 0 }
func seqLEQ(a, b uint32) bool { return int32(a-b) <= 0 }

type inflightSeg struct {
	seq    uint32
	data   []byte
	fin    bool
	syn    bool
	sentAt sim.Time
	rexmit bool
}

func (i inflightSeg) seqLen() uint32 {
	n := uint32(len(i.data))
	if i.fin || i.syn {
		n++
	}
	return n
}

type pendingRead struct {
	max int
	pr  *lwt.Promise[[]byte]
}

// rcvChunk is one in-order span of received payload. When view is non-nil
// the bytes alias a pooled receive page kept alive by that view; the page
// reference is dropped once the application has consumed the chunk.
type rcvChunk struct {
	data []byte
	view *cstruct.View
}

type pendingWrite struct {
	data []byte
	pr   *lwt.Promise[int]
	n    int // bytes already buffered
}

// Conn is one TCP connection.
type Conn struct {
	st  *Stack
	key connKey

	state State

	// Send sequence space.
	iss, sndUna, sndNxt uint32
	sndWnd              int
	sndWL1, sndWL2      uint32 // seq/ack of the segment last used to update sndWnd
	peerWndScale        int    // -1 until negotiated
	mss                 int
	sendBuf             []byte
	finQueued, finSent  bool
	inflight            []inflightSeg
	sendGen             uint64 // invalidates stale deferred trySend events

	// Zero-window persist (RFC 1122 §4.2.2.17).
	persistBackoff time.Duration
	persistTimer   sim.Timer

	listener *Listener // listener this conn was accepted on (nil for active opens)

	// span is the causal-tracing trace id this connection carries (0 =
	// untraced). Active opens inherit it from Stack.NextSpan; passive opens
	// adopt it from the arriving SYN's descriptor metadata. Every outbound
	// segment is stamped with it so the request's arc stays connected across
	// domains without touching wire bytes.
	span uint64

	// Congestion control (New Reno).
	cwnd, ssthresh int
	dupAcks        int
	recover        uint32
	fastRecovery   bool

	// RTT estimation / RTO (Jacobson/Karn). All per-connection timers live
	// on the kernel's hierarchical timing wheel: arming or moving one is an
	// O(1) slot relink, and a million pending timers put a handful of wheel
	// events — not a million entries — on the kernel event heap. The RTO
	// timer doubles as the TIME_WAIT timer (the RTO is disarmed for good by
	// then); onTimerRTO dispatches on state.
	srtt, rttvar, rto time.Duration
	rtoTimer          sim.Timer

	// Receive sequence space.
	irs, rcvNxt  uint32
	myWndScale   int
	rcvChain     []rcvChunk // in-order payload spans awaiting the application
	rcvLen       int        // total bytes across rcvChain
	finRcvd      bool
	ooo          map[uint32][]byte // allocated lazily on first out-of-order segment
	segsSinceAck int
	delAckTimer  sim.Timer
	ackGen       uint64 // invalidates stale same-instant ACK flushes
	ackPending   bool

	readers []pendingRead
	writers []pendingWrite

	connectP *lwt.Promise[*Conn]
	doneP    *lwt.Promise[struct{}]
	err      error

	// Stats.
	Retransmits     int
	FastRetransmits int
	Timeouts        int
	PersistProbes   int
	RstsRejected    int
	BytesIn         int
	BytesOut        int
}

// State returns the connection state.
func (c *Conn) State() State { return c.state }

// setState transitions the state machine, emitting a trace instant so the
// whole connection lifecycle is visible on the domain's timeline.
func (c *Conn) setState(s State) {
	if c.state == s {
		return
	}
	if tr := c.st.tr; tr.Enabled() {
		tr.Instant(obs.Time(c.st.S.K.Now()), "tcp", "state:"+s.String(), c.st.TracePid, 0,
			obs.Str("from", c.state.String()), obs.Int("port", int64(c.key.localPort)))
	}
	c.state = s
}

// spanArgs appends the connection's trace id to trace-instant args when the
// connection is sampled, so loss events (retransmits, timeouts, probes) land
// inside the request's causal arc.
func (c *Conn) spanArgs(args ...obs.Arg) []obs.Arg {
	if c.span == 0 {
		return args
	}
	return append(args, obs.U64("trace_id", c.span))
}

// TraceID returns the causal-tracing trace id riding this connection
// (0 = untraced).
func (c *Conn) TraceID() uint64 { return c.span }

func newConn(st *Stack, key connKey) *Conn {
	p := st.Params
	c := &Conn{
		st:           st,
		key:          key,
		mss:          p.MSS,
		cwnd:         p.InitCwnd * p.MSS,
		ssthresh:     1 << 30,
		rto:          p.InitRTO,
		sndWnd:       p.MSS, // until the peer advertises
		peerWndScale: -1,
		myWndScale:   p.WndScale,
	}
	// Wheel timers carry the connection 4-tuple as their ordering key, so
	// same-tick timers across connections fire in deterministic peer order.
	tk := key.timerKey()
	c.rtoTimer.Init(tk, c.onTimerRTO)
	c.delAckTimer.Init(tk, c.onTimerDelAck)
	c.persistTimer.Init(tk, c.onTimerPersist)
	return c
}

// onTimerRTO fires the retransmission timer — or, once the connection has
// reached TIME_WAIT (where the RTO is permanently disarmed and the timer
// slot is reused for the 2MSL wait), completes the close.
func (c *Conn) onTimerRTO() {
	switch c.state {
	case StateClosed:
	case StateTimeWait:
		c.teardown(nil)
	default:
		if len(c.inflight) > 0 {
			c.onTimeout()
		}
	}
}

func (c *Conn) onTimerDelAck() {
	if c.state != StateClosed {
		c.sendAck()
	}
}

func (c *Conn) onTimerPersist() {
	if c.state != StateClosed {
		c.onPersist()
	}
}

// window returns the receive window to advertise.
func (c *Conn) window() int {
	w := c.st.Params.RcvBuf - c.rcvLen
	if w < 0 {
		w = 0
	}
	return w
}

func (c *Conn) advertisedWindow(syn bool) uint16 {
	w := c.window()
	if !syn {
		w >>= uint(c.myWndScale)
	}
	if w > 0xffff {
		w = 0xffff
	}
	return uint16(w)
}

// send emits a segment to the peer via the stack.
func (c *Conn) send(flags uint8, seq uint32, payload []byte, syn bool) {
	seg := Segment{
		SrcPort:  c.key.localPort,
		DstPort:  c.key.remotePort,
		Seq:      seq,
		Flags:    flags,
		Window:   c.advertisedWindow(syn),
		WndScale: -1,
		Payload:  payload,
		Span:     c.span,
	}
	if flags&FlagACK != 0 {
		seg.Ack = c.rcvNxt
	}
	if syn {
		seg.MSS = uint16(c.mss)
		seg.WndScale = c.myWndScale
	}
	c.st.mxSegsOut.Inc()
	c.st.Output(c.key.remoteIP, seg)
}

func (c *Conn) sendAck() {
	c.segsSinceAck = 0
	c.delAckTimer.Cancel() // any explicit ACK supersedes a delayed one
	c.ackGen++             // a pending same-instant flush is now redundant
	c.ackPending = false
	c.send(FlagACK, c.sndNxt, nil, false)
}

// scheduleAckFlush defers the ACK to the current instant's end: every
// in-order segment drained in the same wakeup (a ring batch) lands before
// the flush event runs, so one cumulative ACK covers the whole batch
// instead of one per segment pair (§3.4.1 batched acknowledgement). For
// segments arriving at distinct instants this is indistinguishable from an
// immediate ACK.
func (c *Conn) scheduleAckFlush() {
	if c.ackPending {
		return
	}
	c.ackPending = true
	c.ackGen++
	gen := c.ackGen
	k := c.st.S.K
	k.At(k.Now(), func() {
		if gen == c.ackGen && c.ackPending && c.state != StateClosed {
			c.sendAck()
		}
	})
}

// scheduleDelayedAck arms the delayed-ACK timer (every-second-segment
// immediate ACK is handled by the caller).
func (c *Conn) scheduleDelayedAck() {
	if c.delAckTimer.Pending() {
		return
	}
	c.st.wheel.Schedule(&c.delAckTimer, c.st.S.K.Now().Add(c.st.Params.DelayedAck))
}

// flightSize returns bytes in flight.
func (c *Conn) flightSize() int { return int(c.sndNxt - c.sndUna) }

// usableWindow is how many more bytes we may inject.
func (c *Conn) usableWindow() int {
	wnd := c.cwnd
	if c.sndWnd < wnd {
		wnd = c.sndWnd
	}
	return wnd - c.flightSize()
}

// trySend segments and transmits buffered data within the send window,
// then the queued FIN if the buffer has drained. Queued writer data is
// pulled into the send buffer BEFORE segments are cut, so several small
// writes issued in one burst coalesce into MSS-sized segments rather than
// one undersized segment per write. Segment payloads are capped reslices
// of the send buffer — no per-segment copy: the consumed prefix is never
// touched again (appends land past it) and peers never mutate payloads.
func (c *Conn) trySend() {
	c.sendGen++ // this call is the flush; pending deferred sends are stale
	if c.state != StateEstablished && c.state != StateCloseWait &&
		c.state != StateFinWait1 && c.state != StateClosing && c.state != StateLastAck {
		return
	}
	sent := false
	for {
		c.drainWriters()
		progress := false
		for len(c.sendBuf) > 0 {
			avail := c.usableWindow()
			if avail <= 0 {
				break
			}
			n := len(c.sendBuf)
			if n > c.mss {
				n = c.mss
			}
			if n > avail {
				n = avail
			}
			data := c.sendBuf[:n:n]
			c.sendBuf = c.sendBuf[n:]
			c.inflight = append(c.inflight, inflightSeg{seq: c.sndNxt, data: data, sentAt: c.st.S.K.Now()})
			flags := uint8(FlagACK)
			if len(c.sendBuf) == 0 && len(c.writers) == 0 {
				flags |= FlagPSH
			}
			c.send(flags, c.sndNxt, data, false)
			c.sndNxt += uint32(n)
			c.BytesOut += n
			progress, sent = true, true
		}
		if !progress {
			break
		}
	}
	if c.finQueued && !c.finSent && len(c.sendBuf) == 0 && c.usableWindow() > 0 {
		c.finSent = true
		c.inflight = append(c.inflight, inflightSeg{seq: c.sndNxt, fin: true, sentAt: c.st.S.K.Now()})
		c.send(FlagFIN|FlagACK, c.sndNxt, nil, false)
		c.sndNxt++
		sent = true
	}
	if sent {
		c.armRTO() // one timer (re)arm per burst, not per segment
	}
	c.maybeArmPersist()
}

// scheduleSend defers trySend to the end of the current instant, so every
// Write issued in the same wakeup lands in the send buffer before any
// segment is cut (the write-coalescing half of §3.4.1 batching).
func (c *Conn) scheduleSend() {
	c.sendGen++
	gen := c.sendGen
	k := c.st.S.K
	k.At(k.Now(), func() {
		if gen == c.sendGen && c.state != StateClosed {
			c.trySend()
		}
	})
}

// drainWriters moves queued user writes into the send buffer as space
// frees, resolving their promises once fully buffered.
func (c *Conn) drainWriters() {
	for len(c.writers) > 0 {
		w := &c.writers[0]
		space := c.st.Params.SndBuf - len(c.sendBuf)
		if space <= 0 {
			return
		}
		take := len(w.data) - w.n
		if take > space {
			take = space
		}
		c.sendBuf = append(c.sendBuf, w.data[w.n:w.n+take]...)
		w.n += take
		if w.n == len(w.data) {
			pr := w.pr
			n := w.n
			c.writers = c.writers[1:]
			pr.Resolve(n)
		}
	}
}

// Write queues data for transmission. The promise resolves with len(data)
// once everything is accepted into the send buffer (flow-controlled
// against SndBuf). Transmission is deferred to the end of the instant so
// that back-to-back small writes coalesce into full segments.
func (c *Conn) Write(data []byte) *lwt.Promise[int] {
	pr := lwt.NewPromise[int](c.st.S)
	if c.err != nil {
		pr.Fail(c.err)
		return pr
	}
	if c.finQueued {
		pr.Fail(errors.New("tcp: write after close"))
		return pr
	}
	c.writers = append(c.writers, pendingWrite{data: data, pr: pr})
	c.drainWriters()
	c.scheduleSend()
	return pr
}

// Read resolves with up to max bytes as soon as data is available, with an
// empty slice at EOF (peer closed), or fails after a reset.
func (c *Conn) Read(max int) *lwt.Promise[[]byte] {
	pr := lwt.NewPromise[[]byte](c.st.S)
	r := pendingRead{max: max, pr: pr}
	c.readers = append(c.readers, r)
	c.wakeReaders()
	return pr
}

func (c *Conn) wakeReaders() {
	wasLow := c.window() < c.mss
	defer func() {
		// Window update (RFC 1122 §4.2.3.3): if the application drained a
		// closed receive window, tell the stalled sender it may resume.
		if wasLow && c.window() >= c.mss {
			switch c.state {
			case StateEstablished, StateFinWait1, StateFinWait2:
				c.sendAck()
			}
		}
	}()
	for len(c.readers) > 0 {
		if c.rcvLen > 0 {
			r := c.readers[0]
			c.readers = c.readers[1:]
			r.pr.Resolve(c.takeRcv(r.max))
			continue
		}
		if c.finRcvd {
			r := c.readers[0]
			c.readers = c.readers[1:]
			r.pr.Resolve(nil) // EOF
			continue
		}
		if c.err != nil {
			r := c.readers[0]
			c.readers = c.readers[1:]
			r.pr.Fail(c.err)
			continue
		}
		return
	}
}

// takeRcv consumes up to max buffered bytes. A heap-backed chunk that fits
// entirely is handed to the application without a copy; page-backed chunks
// are copied here — the application boundary — and their page references
// released (the §3.4.1 discipline: the page stays pinned only while the
// stack still holds unconsumed bytes).
func (c *Conn) takeRcv(max int) []byte {
	n := c.rcvLen
	if n > max {
		n = max
	}
	first := &c.rcvChain[0]
	if first.view == nil && len(first.data) == n {
		out := first.data
		c.rcvChain[0] = rcvChunk{}
		c.rcvChain = c.rcvChain[1:]
		c.rcvLen -= n
		return out
	}
	out := make([]byte, n)
	got := 0
	for got < n {
		ch := &c.rcvChain[0]
		take := copy(out[got:], ch.data)
		got += take
		if take == len(ch.data) {
			if ch.view != nil {
				ch.view.Release()
			}
			c.rcvChain[0] = rcvChunk{}
			c.rcvChain = c.rcvChain[1:]
		} else {
			ch.data = ch.data[take:]
		}
	}
	c.rcvLen -= n
	return out
}

// Close queues a FIN after buffered data drains (active/passive close).
func (c *Conn) Close() {
	if c.finQueued || c.err != nil {
		return
	}
	c.finQueued = true
	switch c.state {
	case StateEstablished, StateSynRcvd:
		c.setState(StateFinWait1)
	case StateCloseWait:
		c.setState(StateLastAck)
	}
	c.trySend()
}

// Abort sends RST and tears the connection down.
func (c *Conn) Abort() {
	if c.state != StateClosed {
		c.send(FlagRST|FlagACK, c.sndNxt, nil, false)
	}
	c.teardown(ErrReset)
}

// Done resolves once the connection reaches Closed (including TIME_WAIT
// expiry). A unikernel's main thread waits on this before returning, since
// the VM — and with it all retransmission timers — dies with main (§3.3).
func (c *Conn) Done() *lwt.Promise[struct{}] {
	if c.doneP == nil {
		c.doneP = lwt.NewPromise[struct{}](c.st.S)
		if c.state == StateClosed {
			c.doneP.Resolve(struct{}{})
		}
	}
	return c.doneP
}

func (c *Conn) teardown(err error) {
	if c.state == StateClosed {
		return
	}
	if c.state == StateSynRcvd && c.listener != nil {
		delete(c.listener.synRcvd, c.key)
	}
	c.setState(StateClosed)
	c.err = err
	// Unlink every wheel timer: O(1) each, nothing lingers on the wheel.
	c.rtoTimer.Cancel()
	c.delAckTimer.Cancel()
	c.persistTimer.Cancel()
	c.ackGen++
	c.ackPending = false
	c.sendGen++
	// Unconsumed receive data still pins pages; let them go.
	for i := range c.rcvChain {
		if c.rcvChain[i].view != nil {
			c.rcvChain[i].view.Release()
		}
		c.rcvChain[i] = rcvChunk{}
	}
	c.rcvChain = nil
	c.rcvLen = 0
	c.st.remove(c.key)
	if c.doneP != nil && !c.doneP.Completed() {
		c.doneP.Resolve(struct{}{})
	}
	if c.connectP != nil && !c.connectP.Completed() {
		c.connectP.Fail(err)
	}
	for _, r := range c.readers {
		if err != nil {
			r.pr.Fail(err)
		} else {
			r.pr.Resolve(nil)
		}
	}
	c.readers = nil
	for _, w := range c.writers {
		w.pr.Fail(fmt.Errorf("tcp: connection closed"))
	}
	c.writers = nil
}

// --- Timers ---

func (c *Conn) armRTO() {
	c.st.wheel.Schedule(&c.rtoTimer, c.st.S.K.Now().Add(c.rto))
}

func (c *Conn) disarmRTO() { c.rtoTimer.Cancel() }

// maybeArmPersist starts the zero-window probe timer when data (or a FIN)
// is pending but the peer's window forbids sending and nothing is in
// flight to arm an RTO. Without it, a lost window-update ACK leaves the
// sender stalled forever (RFC 1122 §4.2.2.17).
func (c *Conn) maybeArmPersist() {
	if c.persistTimer.Pending() || c.state == StateClosed {
		return
	}
	pending := len(c.sendBuf) > 0 || (c.finQueued && !c.finSent)
	if !pending || len(c.inflight) > 0 || c.usableWindow() > 0 {
		return
	}
	if c.persistBackoff == 0 {
		c.persistBackoff = c.rto
	}
	c.armPersist()
}

func (c *Conn) armPersist() {
	c.st.wheel.Schedule(&c.persistTimer, c.st.S.K.Now().Add(c.persistBackoff))
}

// onPersist fires the persist timer: if the window is still closed it
// forces one byte (or the queued FIN) past it so the peer must answer
// with its current window, then backs off and re-arms.
func (c *Conn) onPersist() {
	if c.sndWnd > 0 {
		// The window reopened while the timer was pending; the normal
		// send path owns any inflight probe again.
		if len(c.inflight) > 0 {
			c.armRTO()
		}
		c.trySend()
		return
	}
	if len(c.inflight) == 0 && len(c.sendBuf) == 0 && (!c.finQueued || c.finSent) {
		return // nothing left to probe for
	}
	c.PersistProbes++
	c.st.mxPersistProbes.Inc()
	if tr := c.st.tr; tr.Enabled() {
		tr.Instant(obs.Time(c.st.S.K.Now()), "tcp", "persist-probe", c.st.TracePid, 0,
			c.spanArgs(obs.Int("port", int64(c.key.localPort)), obs.Int("backoff_us", int64(c.persistBackoff.Microseconds())))...)
	}
	switch {
	case len(c.inflight) > 0:
		// A previous probe is still unacknowledged: resend it.
		c.retransmitFirst()
	case len(c.sendBuf) > 0:
		// Window probe: one byte past the advertised window.
		data := c.sendBuf[:1:1]
		c.sendBuf = c.sendBuf[1:]
		c.inflight = append(c.inflight, inflightSeg{seq: c.sndNxt, data: data, sentAt: c.st.S.K.Now()})
		c.send(FlagACK|FlagPSH, c.sndNxt, data, false)
		c.sndNxt++
		c.BytesOut++
	default: // queued FIN blocked by the window
		c.finSent = true
		c.inflight = append(c.inflight, inflightSeg{seq: c.sndNxt, fin: true, sentAt: c.st.S.K.Now()})
		c.send(FlagFIN|FlagACK, c.sndNxt, nil, false)
		c.sndNxt++
	}
	c.persistBackoff *= 2
	if c.persistBackoff < c.rto {
		c.persistBackoff = c.rto
	}
	if c.persistBackoff > c.st.Params.MaxRTO {
		c.persistBackoff = c.st.Params.MaxRTO
	}
	c.armPersist()
}

// onTimeout is the retransmission timeout: collapse the window and
// retransmit the oldest unacknowledged segment (RFC 5681 §3.1).
func (c *Conn) onTimeout() {
	c.Timeouts++
	c.st.mxTimeouts.Inc()
	if tr := c.st.tr; tr.Enabled() {
		tr.Instant(obs.Time(c.st.S.K.Now()), "tcp", "rto-timeout", c.st.TracePid, 0,
			c.spanArgs(obs.Int("port", int64(c.key.localPort)), obs.Int("rto_us", int64(c.rto.Microseconds())))...)
	}
	flight := c.flightSize()
	c.ssthresh = max2(flight/2, 2*c.mss)
	c.cwnd = c.mss
	c.fastRecovery = false
	c.dupAcks = 0
	c.rto *= 2
	if c.rto > c.st.Params.MaxRTO {
		c.rto = c.st.Params.MaxRTO
	}
	c.retransmitFirst()
	c.armRTO()
}

func (c *Conn) retransmitFirst() {
	if len(c.inflight) == 0 {
		return
	}
	c.Retransmits++
	c.st.mxRetransmits.Inc()
	if tr := c.st.tr; tr.Enabled() {
		tr.Instant(obs.Time(c.st.S.K.Now()), "tcp", "retransmit", c.st.TracePid, 0,
			c.spanArgs(obs.Int("port", int64(c.key.localPort)), obs.Int("seq", int64(c.inflight[0].seq)))...)
	}
	seg := &c.inflight[0]
	seg.rexmit = true
	switch {
	case seg.syn && c.state == StateSynSent:
		c.send(FlagSYN, seg.seq, nil, true)
	case seg.syn: // SYN|ACK from SynRcvd
		c.send(FlagSYN|FlagACK, seg.seq, nil, true)
	case seg.fin:
		c.send(FlagFIN|FlagACK, seg.seq, nil, false)
	default:
		c.send(FlagACK|FlagPSH, seg.seq, seg.data, false)
	}
}

// --- RTT estimation (Jacobson, with Karn's rule) ---

func (c *Conn) sampleRTT(s inflightSeg) {
	if s.rexmit {
		return // Karn: never sample retransmitted segments
	}
	r := c.st.S.K.Now().Sub(s.sentAt)
	if c.srtt == 0 {
		c.srtt = r
		c.rttvar = r / 2
	} else {
		d := c.srtt - r
		if d < 0 {
			d = -d
		}
		c.rttvar = (3*c.rttvar + d) / 4
		c.srtt = (7*c.srtt + r) / 8
	}
	rto := c.srtt + 4*c.rttvar
	if rto < c.st.Params.MinRTO {
		rto = c.st.Params.MinRTO
	}
	if rto > c.st.Params.MaxRTO {
		rto = c.st.Params.MaxRTO
	}
	c.rto = rto
}

func max2(a, b int) int {
	if a > b {
		return a
	}
	return b
}
