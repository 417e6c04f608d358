package tcp

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/ipv4"
	"repro/internal/lwt"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Params tune the TCP implementation.
type Params struct {
	MSS        int
	InitCwnd   int // initial window in segments
	WndScale   int // window-scale shift we offer
	SndBuf     int
	RcvBuf     int
	SynBacklog int // max half-open (SynRcvd) connections per listener; 0 = unlimited
	// SynCookies answers SYNs past the backlog cap with a stateless cookie
	// SYN|ACK instead of dropping them: the ISN encodes the peer's options
	// under a keyed hash and the connection materialises — directly in
	// Established — only when the handshake-completing ACK returns a valid
	// cookie. A flood past the cap therefore costs zero connection state.
	SynCookies bool
	InitRTO    time.Duration
	MinRTO     time.Duration
	MaxRTO     time.Duration
	DelayedAck time.Duration
	TimeWait   time.Duration
}

// DefaultParams returns parameters matching a paper-era stack (Linux 3.7
// comparisons used similar values; window scaling on, New Reno).
func DefaultParams() Params {
	return Params{
		MSS:        1460,
		InitCwnd:   4,
		WndScale:   7,
		SndBuf:     256 << 10,
		RcvBuf:     256 << 10,
		SynBacklog: 128,
		SynCookies: true,
		InitRTO:    time.Second,
		MinRTO:     200 * time.Millisecond,
		MaxRTO:     60 * time.Second,
		DelayedAck: 40 * time.Millisecond,
		TimeWait:   500 * time.Millisecond,
	}
}

type connKey struct {
	localPort  uint16
	remoteIP   ipv4.Addr
	remotePort uint16
}

// timerKey packs the 4-tuple into the wheel-timer ordering key, so timers
// expiring in the same wheel tick fire in deterministic peer order.
func (k connKey) timerKey() uint64 {
	return uint64(k.remoteIP)<<32 | uint64(k.localPort)<<16 | uint64(k.remotePort)
}

// Stack is the per-host TCP endpoint table and segment demultiplexer.
type Stack struct {
	S       *lwt.Scheduler
	LocalIP ipv4.Addr
	// Output transmits a segment to dst (provided by the network layer).
	Output func(dst ipv4.Addr, seg Segment)
	Params Params

	conns     map[connKey]*Conn
	listeners map[uint16]*Listener
	nextEphem uint16
	isn       uint32
	wheel     *sim.Wheel // per-shard timing wheel carrying all conn timers
	secret    uint64     // SYN-cookie hash key (deterministic per stack)

	// TracePid attributes this stack's trace events to a domain's process
	// row; the netstack layer sets it after boot (0 = host).
	TracePid int

	// NextSpan, when nonzero, is the causal-tracing trace id adopted by the
	// next Connect call (and cleared by it). It lets an application start a
	// traced request without widening the Connect signature.
	NextSpan uint64

	tr *obs.Tracer

	// Stats live on the kernel's metrics registry; see NewStack.
	mxSegsIn          *obs.Counter
	mxSegsOut         *obs.Counter
	mxBadSegs         *obs.Counter
	mxRstsSent        *obs.Counter
	mxRstsRejected    *obs.Counter
	mxRetransmits     *obs.Counter
	mxFastRetransmits *obs.Counter
	mxTimeouts        *obs.Counter
	mxPersistProbes   *obs.Counter
	mxSynDrops        *obs.Counter
	mxPortsExhausted  *obs.Counter
	mxCookiesSent     *obs.Counter
	mxCookiesValid    *obs.Counter
	mxCookiesFailed   *obs.Counter
}

// RstsRejected returns RSTs dropped by the RFC 5961 sequence validation.
func (st *Stack) RstsRejected() int { return int(st.mxRstsRejected.Value()) }

// PersistProbes returns zero-window probes sent.
func (st *Stack) PersistProbes() int { return int(st.mxPersistProbes.Value()) }

// SynDrops returns SYNs dropped because a listener's backlog was full.
func (st *Stack) SynDrops() int { return int(st.mxSynDrops.Value()) }

// PortsExhausted returns Connect calls that failed for want of an
// ephemeral port.
func (st *Stack) PortsExhausted() int { return int(st.mxPortsExhausted.Value()) }

// SynCookiesSent returns stateless cookie SYN|ACKs emitted past the
// backlog cap.
func (st *Stack) SynCookiesSent() int { return int(st.mxCookiesSent.Value()) }

// SynCookiesValidated returns connections established from a valid cookie
// ACK.
func (st *Stack) SynCookiesValidated() int { return int(st.mxCookiesValid.Value()) }

// SynCookiesFailed returns ACKs to a listening port that failed cookie
// validation.
func (st *Stack) SynCookiesFailed() int { return int(st.mxCookiesFailed.Value()) }

// NewStack creates a TCP stack; the caller wires Output to its IP layer.
func NewStack(s *lwt.Scheduler, local ipv4.Addr, params Params) *Stack {
	m := s.K.Metrics()
	ip := obs.L("ip", local.String())
	st := &Stack{
		S:         s,
		LocalIP:   local,
		Params:    params,
		conns:     map[connKey]*Conn{},
		listeners: map[uint16]*Listener{},
		nextEphem: ephemBase,
		isn:       1000,
		wheel:     s.K.Wheel(),
		// Derived from the local address rather than drawn from the kernel
		// RNG: a cookie-enabled stack must not shift the seeded RNG stream
		// that fault injection and jitter consume.
		secret: mix64(uint64(local) + 0x9e3779b97f4a7c15),

		tr:                s.K.Trace(),
		mxSegsIn:          m.Counter("tcp_segments_total", ip, obs.L("dir", "in")),
		mxSegsOut:         m.Counter("tcp_segments_total", ip, obs.L("dir", "out")),
		mxBadSegs:         m.Counter("tcp_bad_segments_total", ip),
		mxRstsSent:        m.Counter("tcp_rsts_sent_total", ip),
		mxRstsRejected:    m.Counter("tcp_rsts_rejected_total", ip),
		mxRetransmits:     m.Counter("tcp_retransmits_total", ip),
		mxFastRetransmits: m.Counter("tcp_fast_retransmits_total", ip),
		mxTimeouts:        m.Counter("tcp_rto_timeouts_total", ip),
		mxPersistProbes:   m.Counter("tcp_persist_probes_total", ip),
		mxSynDrops:        m.Counter("tcp_syn_backlog_drops_total", ip),
		mxPortsExhausted:  m.Counter("tcp_ports_exhausted_total", ip),
		mxCookiesSent:     m.Counter("tcp_syncookies_sent_total", ip),
		mxCookiesValid:    m.Counter("tcp_syncookies_validated_total", ip),
		mxCookiesFailed:   m.Counter("tcp_syncookies_failed_total", ip),
	}
	return st
}

func (st *Stack) remove(k connKey) { delete(st.conns, k) }

// Conns returns the number of live connections.
func (st *Stack) Conns() int { return len(st.conns) }

// nextISN returns a deterministic initial sequence number.
func (st *Stack) nextISN() uint32 {
	st.isn += 64000
	return st.isn
}

// Input demultiplexes one received segment.
func (st *Stack) Input(src ipv4.Addr, seg Segment) {
	st.mxSegsIn.Inc()
	key := connKey{seg.DstPort, src, seg.SrcPort}
	if c, ok := st.conns[key]; ok {
		c.input(seg)
		return
	}
	if l, ok := st.listeners[seg.DstPort]; ok && seg.Flags&FlagSYN != 0 && seg.Flags&FlagACK == 0 {
		seg.releaseView() // data on a SYN is not stored
		st.accept(l, src, seg)
		return
	}
	// An ACK to a listening port with no matching connection may complete a
	// stateless cookie handshake (the half-open state lives in the ISN we
	// sent, not in the table). Validation failure falls through to the RST.
	if l, ok := st.listeners[seg.DstPort]; ok && st.Params.SynCookies &&
		seg.Flags&FlagACK != 0 && seg.Flags&(FlagSYN|FlagRST) == 0 {
		if st.acceptCookie(l, src, seg) {
			return
		}
		st.mxCookiesFailed.Inc()
	}
	// No endpoint: RST (unless the segment is itself a RST).
	seg.releaseView()
	st.mxBadSegs.Inc()
	if seg.Flags&FlagRST == 0 {
		st.mxRstsSent.Inc()
		// SYN and FIN occupy sequence space, so the RST's ack must cover
		// them for the peer's RFC 5961 validation to accept it.
		ackSeq := seg.Seq + uint32(len(seg.Payload))
		if seg.Flags&FlagSYN != 0 {
			ackSeq++
		}
		if seg.Flags&FlagFIN != 0 {
			ackSeq++
		}
		rst := Segment{
			SrcPort: seg.DstPort, DstPort: seg.SrcPort,
			Seq: seg.Ack, Ack: ackSeq,
			Flags: FlagRST | FlagACK, WndScale: -1,
		}
		st.mxSegsOut.Inc()
		st.Output(src, rst)
	}
}

// accept creates a half-open connection in SynRcvd and answers SYN|ACK.
// The half-open population is capped per listener: past the cap the SYN is
// answered with a stateless cookie SYN|ACK (SynCookies on) or silently
// dropped (the client's RTO retries when room frees), so a SYN flood
// cannot grow the connection table without bound either way.
func (st *Stack) accept(l *Listener, src ipv4.Addr, seg Segment) {
	if max := st.Params.SynBacklog; max > 0 && len(l.synRcvd) >= max {
		if st.Params.SynCookies {
			st.sendSynCookie(src, seg)
		} else {
			st.mxSynDrops.Inc()
			if st.tr.Enabled() {
				st.tr.Instant(obs.Time(st.S.K.Now()), "tcp", "syn-backlog-drop", st.TracePid, 0,
					obs.Int("port", int64(seg.DstPort)))
			}
		}
		return
	}
	key := connKey{seg.DstPort, src, seg.SrcPort}
	c := newConn(st, key)
	c.listener = l
	c.span = seg.Span // adopt the request's trace id from the SYN descriptor
	l.synRcvd[key] = c
	if c.span != 0 && st.tr.Enabled() {
		st.tr.FlowStep(obs.Time(st.S.K.Now()), "trace", "tcp-accept", st.TracePid, 0, c.span,
			obs.U64("trace_id", c.span), obs.Int("port", int64(seg.DstPort)))
	}
	c.setState(StateSynRcvd)
	c.irs = seg.Seq
	c.rcvNxt = seg.Seq + 1
	c.iss = st.nextISN()
	c.sndUna = c.iss
	c.sndNxt = c.iss + 1
	c.negotiate(seg)
	st.conns[key] = c
	c.inflight = append(c.inflight, inflightSeg{seq: c.iss, syn: true, sentAt: st.S.K.Now()})
	c.send(FlagSYN|FlagACK, c.iss, nil, true)
	c.armRTO()
}

// The ephemeral range is the IANA dynamic range, 49152–65535.
const (
	ephemBase  = 49152
	ephemRange = 1<<16 - ephemBase
)

// Connect opens a connection to dst:port; the promise resolves with the
// established connection (or fails after SYN retries are exhausted, or
// immediately when every ephemeral port toward dst:port is in use).
func (st *Stack) Connect(dst ipv4.Addr, port uint16) *lwt.Promise[*Conn] {
	pr := lwt.NewPromise[*Conn](st.S)
	var key connKey
	for tries := 0; ; tries++ {
		if tries >= ephemRange {
			// Every port in the range is taken for this (dst, port) pair:
			// one full lap proves it, give up without spinning further.
			st.mxPortsExhausted.Inc()
			pr.Fail(fmt.Errorf("tcp: ephemeral ports exhausted"))
			return pr
		}
		st.nextEphem++
		if st.nextEphem == 0 {
			st.nextEphem = ephemBase
		}
		key = connKey{st.nextEphem, dst, port}
		if _, used := st.conns[key]; !used {
			break
		}
	}
	c := newConn(st, key)
	c.span = st.NextSpan
	st.NextSpan = 0
	c.setState(StateSynSent)
	c.iss = st.nextISN()
	c.sndUna = c.iss
	c.sndNxt = c.iss + 1
	c.connectP = pr
	st.conns[key] = c
	c.inflight = append(c.inflight, inflightSeg{seq: c.iss, syn: true, sentAt: st.S.K.Now()})
	c.send(FlagSYN, c.iss, nil, true)
	c.armRTO()
	return pr
}

// ErrListenerClosed fails Accept promises when their listener closes.
var ErrListenerClosed = errors.New("tcp: listener closed")

// Listener accepts inbound connections on a port.
type Listener struct {
	st     *Stack
	port   uint16
	closed bool
	// synRcvd tracks this listener's half-open handshakes, so the backlog
	// check and Close cost O(backlog) — never a scan of the whole
	// connection table.
	synRcvd map[connKey]*Conn
	backlog []*Conn
	waiters []*lwt.Promise[*Conn]
	// Accepted counts connections handed to the application.
	Accepted int
}

// HalfOpen returns the number of connections still in SynRcvd for this
// listener.
func (l *Listener) HalfOpen() int { return len(l.synRcvd) }

// Listen binds a listener to port.
func (st *Stack) Listen(port uint16) (*Listener, error) {
	if _, dup := st.listeners[port]; dup {
		return nil, fmt.Errorf("tcp: port %d already listening", port)
	}
	l := &Listener{st: st, port: port, synRcvd: map[connKey]*Conn{}}
	st.listeners[port] = l
	return l, nil
}

// Close stops listening: pending Accept promises fail with
// ErrListenerClosed, connections established but never accepted are
// aborted, and half-open handshakes toward this port are reset — nothing
// leaks. Connections already handed to the application are unaffected.
func (l *Listener) Close() {
	if l.closed {
		return
	}
	l.closed = true
	delete(l.st.listeners, l.port)
	for _, pr := range l.waiters {
		pr.Fail(ErrListenerClosed)
	}
	l.waiters = nil
	for _, c := range l.backlog {
		c.Abort()
	}
	l.backlog = nil
	// Abort half-open connections still handshaking toward this listener,
	// in deterministic peer order (map iteration would scramble the RST
	// sequence between same-seed runs). The per-listener set makes this
	// O(backlog); it must never scan the stack's whole connection table.
	half := make([]*Conn, 0, len(l.synRcvd))
	for _, c := range l.synRcvd {
		half = append(half, c)
	}
	sort.Slice(half, func(i, j int) bool {
		if half[i].key.remoteIP != half[j].key.remoteIP {
			return half[i].key.remoteIP < half[j].key.remoteIP
		}
		return half[i].key.remotePort < half[j].key.remotePort
	})
	for _, c := range half {
		c.Abort()
	}
}

// Accept resolves with the next established connection.
func (l *Listener) Accept() *lwt.Promise[*Conn] {
	pr := lwt.NewPromise[*Conn](l.st.S)
	if l.closed {
		pr.Fail(ErrListenerClosed)
		return pr
	}
	if len(l.backlog) > 0 {
		c := l.backlog[0]
		l.backlog = l.backlog[1:]
		l.Accepted++
		pr.Resolve(c)
		return pr
	}
	l.waiters = append(l.waiters, pr)
	return pr
}

// deliver hands a newly-established connection to an acceptor.
func (l *Listener) deliver(c *Conn) {
	if len(l.waiters) > 0 {
		pr := l.waiters[0]
		l.waiters = l.waiters[1:]
		l.Accepted++
		pr.Resolve(c)
		return
	}
	l.backlog = append(l.backlog, c)
}

// lwtMapUnit runs fn after d (timer helper shared by the state machine).
func lwtMapUnit(s *lwt.Scheduler, d time.Duration, fn func()) {
	lwt.Map(s.Sleep(d), func(struct{}) struct{} {
		fn()
		return struct{}{}
	})
}
