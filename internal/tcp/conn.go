package tcp

import (
	"fmt"
	"time"

	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Stats aggregates endpoint counters for one connection. The analyzer works
// from the packet trace; Stats exists for quick summaries and invariant
// checks in tests.
type Stats struct {
	Start time.Duration
	End   time.Duration

	DataSent        int64 // data transmissions, including retransmissions
	Retransmissions int64
	Timeouts        int64
	FastRetransmits int64
	// SpuriousRecoveries counts timeout recoveries the Eifel response
	// (Config.SpuriousRTORecovery) classified as spurious and undid.
	SpuriousRecoveries int64
	DataDropped        int64 // ground truth channel/queue drops, data direction
	UniqueDelivered    int64 // distinct segments that reached the receiver
	DupDelivered       int64 // duplicate segment arrivals at the receiver
	AcksSent           int64
	AcksReceived       int64
	AcksDropped        int64 // ground truth drops, ACK direction
}

// Duration returns the observed flow duration.
func (s Stats) Duration() time.Duration { return s.End - s.Start }

// ThroughputPps returns delivered unique segments per second.
func (s Stats) ThroughputPps() float64 {
	d := s.Duration().Seconds()
	if d <= 0 {
		return 0
	}
	return float64(s.UniqueDelivered) / d
}

// Conn is one simulated TCP Reno connection: a bulk-data sender, a receiver,
// and the path between them. Create with New, call Start, then run the
// simulator; the connection stops offering new data at its deadline.
type Conn struct {
	simulator *sim.Simulator
	path      *netem.Path
	cfg       Config
	rec       trace.Recorder

	// tel is the optional per-flow telemetry sink; nil (the default) keeps
	// every instrumented path at a single predictable branch with zero
	// allocations and no behavioural change.
	tel *telemetry.TCP

	start       time.Duration
	deadline    time.Duration
	started     bool
	segLimit    int64 // 0 = unlimited (duration-bounded bulk flow)
	completed   bool
	completedAt time.Duration

	snd sender
	rcv receiver

	// Free lists of the pooled per-packet callback events. One event object
	// per in-flight packet direction is live at a time; fired (and
	// synchronously dropped) events return here, so steady-state transmission
	// allocates nothing per packet. Single-threaded by construction: the
	// whole connection runs inside one Simulator.
	dataFree *dataEvent
	ackFree  *ackEvent
}

// dataEvent is a pooled data-segment delivery callback (the closure
// replacement for "deliver seq/txNo to the receiver").
type dataEvent struct {
	c    *Conn
	seq  int64
	txNo int
	next *dataEvent
}

// Fire implements netem.Handler.
func (e *dataEvent) Fire() {
	c, seq, txNo := e.c, e.seq, e.txNo
	c.putDataEvent(e)
	c.rcv.onData(seq, txNo)
}

func (c *Conn) getDataEvent(seq int64, txNo int) *dataEvent {
	e := c.dataFree
	if e == nil {
		e = &dataEvent{c: c}
	} else {
		c.dataFree = e.next
		e.next = nil
	}
	e.seq, e.txNo = seq, txNo
	return e
}

func (c *Conn) putDataEvent(e *dataEvent) {
	e.next = c.dataFree
	c.dataFree = e
}

// ackEvent is a pooled ACK delivery callback.
type ackEvent struct {
	c     *Conn
	ackNo int64
	trig  int
	dup   bool
	next  *ackEvent
}

// Fire implements netem.Handler.
func (e *ackEvent) Fire() {
	c, ackNo, trig, dup := e.c, e.ackNo, e.trig, e.dup
	c.putAckEvent(e)
	c.snd.onAck(ackNo, trig, dup)
}

func (c *Conn) getAckEvent(ackNo int64, trig int, dup bool) *ackEvent {
	e := c.ackFree
	if e == nil {
		e = &ackEvent{c: c}
	} else {
		c.ackFree = e.next
		e.next = nil
	}
	e.ackNo, e.trig, e.dup = ackNo, trig, dup
	return e
}

func (c *Conn) putAckEvent(e *ackEvent) {
	e.next = c.ackFree
	c.ackFree = e
}

// New builds a connection over path. Events are reported to rec (use
// trace.Nop{} to discard them).
func New(simulator *sim.Simulator, path *netem.Path, cfg Config, rec trace.Recorder) (*Conn, error) {
	if simulator == nil || path == nil {
		return nil, fmt.Errorf("tcp: New requires a simulator and a path")
	}
	if rec == nil {
		rec = trace.Nop{}
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Conn{simulator: simulator, path: path, cfg: cfg, rec: rec}
	c.snd = sender{
		c:    c,
		wnd:  Window{Cwnd: cfg.InitialCwnd, SSThresh: cfg.InitialSSThresh},
		cc:   newController(cfg),
		rto:  newRTOEstimator(cfg.MinRTO, cfg.MaxRTO),
		sent: newSendRing(cfg.WindowLimit),
	}
	c.rcv = receiver{c: c, ooo: newSeqSet(cfg.WindowLimit), curB: cfg.DelayedAckB}
	if cfg.AdaptiveDelAck {
		c.rcv.curB = 1
	}
	return c, nil
}

// Start begins bulk transmission now and stops offering new data after d of
// virtual time. It may be called once.
func (c *Conn) Start(d time.Duration) error {
	return c.startFlow(0, d)
}

// StartSized begins transmission of exactly segments data segments; the
// flow completes when all of them are acknowledged (or after maxDur of
// virtual time, whichever comes first). This is the paper's fixed-size flow
// shape used in the MPTCP comparison of Fig 12.
func (c *Conn) StartSized(segments int64, maxDur time.Duration) error {
	if segments <= 0 {
		return fmt.Errorf("tcp: segment count %d must be positive", segments)
	}
	return c.startFlow(segments, maxDur)
}

func (c *Conn) startFlow(segments int64, d time.Duration) error {
	if c.started {
		return fmt.Errorf("tcp: connection already started")
	}
	if d <= 0 {
		return fmt.Errorf("tcp: flow duration %v must be positive", d)
	}
	c.started = true
	c.segLimit = segments
	c.start = c.simulator.Now()
	c.deadline = c.start + d
	c.snd.trySend()
	return nil
}

// Completed reports whether a sized flow has delivered and acknowledged all
// of its segments, and at what virtual time.
func (c *Conn) Completed() (time.Duration, bool) {
	return c.completedAt, c.completed
}

// Stats returns a snapshot of the endpoint counters. End is the current
// simulation time (or the deadline, if the simulation ran past it).
func (c *Conn) Stats() Stats {
	st := c.snd.stats
	st.UniqueDelivered = c.rcv.unique
	st.DupDelivered = c.rcv.dups
	st.AcksSent = c.rcv.acksSent
	st.AcksDropped = c.rcv.acksDropped
	st.Start = c.start
	st.End = c.simulator.Now()
	if st.End > c.deadline {
		st.End = c.deadline
	}
	if c.completed && c.completedAt < st.End {
		st.End = c.completedAt
	}
	return st
}

// SetTelemetry attaches a per-flow TCP telemetry sink (nil detaches).
// Counters the endpoint already tracks in Stats are copied into the sink by
// FlushTelemetry at the end of the flow; only quantities Stats cannot
// express (cwnd samples, recovery-phase timing, recovery retransmission
// loss, RTO backoff histogram) are instrumented live — each behind one nil
// check, allocation-free.
func (c *Conn) SetTelemetry(t *telemetry.TCP) { c.tel = t }

// FlushTelemetry finalizes the attached telemetry sink at the end of a
// flow: an open timeout-recovery phase is closed at the current virtual
// time and the endpoint counters are folded in. Call it once, after the
// simulation has run; it is a no-op without a sink.
func (c *Conn) FlushTelemetry() {
	if c.tel == nil {
		return
	}
	if c.snd.inTimeoutRecovery {
		c.tel.RecoveryNS += int64(c.snd.now() - c.snd.recoveryStart)
		c.snd.recoveryStart = c.snd.now()
	}
	st := c.Stats()
	c.tel.Flows++
	c.tel.DataSent += st.DataSent
	c.tel.Retransmissions += st.Retransmissions
	c.tel.DataDropped += st.DataDropped
	c.tel.UniqueDelivered += st.UniqueDelivered
	c.tel.DupDelivered += st.DupDelivered
	c.tel.AcksSent += st.AcksSent
	c.tel.AcksReceived += st.AcksReceived
	c.tel.AcksDropped += st.AcksDropped
	c.tel.Timeouts += st.Timeouts
	c.tel.FastRetransmits += st.FastRetransmits
	c.tel.SpuriousRecoveries += st.SpuriousRecoveries
	// Per-variant breakdown. The sink holds exactly this flow's data at
	// flush time (dataset attaches a fresh bundle per flow), so folding the
	// flow's cwnd histogram into the variant bucket labels every sample
	// with the connection's controller.
	cs := c.tel.CC(c.snd.cc.Name())
	cs.Flows++
	cs.DataSent += st.DataSent
	cs.Retransmissions += st.Retransmissions
	cs.UniqueDelivered += st.UniqueDelivered
	cs.Timeouts += st.Timeouts
	cs.FastRetransmits += st.FastRetransmits
	cs.SpuriousRecoveries += st.SpuriousRecoveries
	cs.RecoveryPhases += c.tel.RecoveryPhases
	cs.CwndHist.Merge(&c.tel.CwndHist)
}

// Cwnd returns the sender's current congestion window in packets.
func (c *Conn) Cwnd() float64 { return c.snd.wnd.Cwnd }

// CC returns the name of the congestion-control variant driving the
// sender's window ("reno", "cubic", ...).
func (c *Conn) CC() string { return c.snd.cc.Name() }

// SRTT returns the sender's smoothed RTT estimate.
func (c *Conn) SRTT() time.Duration { return c.snd.rto.SRTT() }

// InTimeoutRecovery reports whether the sender is currently inside a
// timeout recovery phase (between an RTO and the ACK that recovers it).
func (c *Conn) InTimeoutRecovery() bool { return c.snd.inTimeoutRecovery }

// SetRetransmitHook registers fn to be invoked for every RTO retransmission
// with the retransmitted segment number. The MPTCP backup mode uses it to
// duplicate the segment over an alternate subflow (Section V-B of the
// paper).
func (c *Conn) SetRetransmitHook(fn func(seq int64)) { c.snd.retxHook = fn }

// SetAckSendHook registers fn to be invoked whenever the receiver emits a
// cumulative ACK; the MPTCP backup mode mirrors the ACK over the alternate
// subflow's return path.
func (c *Conn) SetAckSendHook(fn func(ackNo int64)) { c.rcv.ackHook = fn }

// DeliverData injects a data-segment arrival at the receiver, as if it had
// arrived over another subflow. txNo identifies the transmission (>= 1).
func (c *Conn) DeliverData(seq int64, txNo int) { c.rcv.onData(seq, txNo) }

// InjectAck delivers data-level acknowledgement obtained out of band (over
// another subflow). It only acts when it advances the sender's window, so
// duplicate copies are harmless.
func (c *Conn) InjectAck(ackNo int64) {
	if ackNo > c.snd.sndUna {
		c.snd.onNewAck(ackNo)
	}
}

// LastTransmitNo returns how many times segment seq has been transmitted so
// far (0 if never or already acknowledged).
func (c *Conn) LastTransmitNo(seq int64) int { return c.snd.sent.txNo(seq) }

// sendInfo tracks the latest transmission of one segment.
type sendInfo struct {
	at   time.Duration // time of the most recent transmission
	txNo int           // transmission count: 1 = original
}

// sender is the data-sending half of the connection.
type sender struct {
	c *Conn

	sndUna int64 // oldest unacknowledged segment
	sndNxt int64 // next segment to transmit (rewound to sndUna after an RTO: go-back-N)
	sndMax int64 // highest segment ever transmitted + 1

	// wnd is the congestion state owned by cc: every change to it goes
	// through a CongestionControl hook, so the sender's recovery machinery
	// is variant-agnostic.
	wnd Window
	cc  CongestionControl

	// minRTT is the lowest Karn-valid RTT sample seen so far; the
	// delay-based controllers read it through Ack.MinRTT.
	minRTT time.Duration

	dupAcks           int
	fastRecovery      bool
	recoverPoint      int64
	inTimeoutRecovery bool
	backoff           int
	// recoveryStart is the virtual time the current timeout-recovery phase
	// began; only meaningful while inTimeoutRecovery and telemetry is on.
	recoveryStart time.Duration

	rto      *rtoEstimator
	rtoTimer *sim.Timer

	// sent is the retransmission state of the in-window segments: a dense
	// ring indexed by sequence number (the window bounds live occupancy).
	sent sendRing

	// spuriousSignal marks that the ACK currently being processed proves an
	// original transmission arrived (duplicate payload or an original-
	// transmission echo); preTO is the congestion state saved at the first
	// timeout of the current sequence for the Eifel response
	// (Config.SpuriousRTORecovery).
	spuriousSignal bool
	preTO          preTimeoutState

	// retxHook, when set, is invoked for every RTO retransmission; the
	// MPTCP backup mode uses it to duplicate the retransmitted segment on
	// an alternate subflow.
	retxHook func(seq int64)

	stats Stats
}

func (s *sender) now() time.Duration { return s.c.simulator.Now() }

// inflight returns the number of window-occupying segments: everything
// between the oldest unacknowledged segment and the send pointer.
func (s *sender) inflight() int64 { return s.sndNxt - s.sndUna }

// effWindow returns min(controller window, W_m) in packets.
func (s *sender) effWindow() float64 {
	w := s.cc.SendWindow(&s.wnd)
	if wm := float64(s.c.cfg.WindowLimit); w > wm {
		w = wm
	}
	return w
}

// ackInfo assembles the controller's view of the current event. acked is
// the newly acknowledged segment count where the hook has one (0 for
// dup-ACK and RTO hooks); rtt is this ACK's Karn-valid sample, or 0.
func (s *sender) ackInfo(acked int64, rtt time.Duration, ackNo int64) Ack {
	return Ack{
		Now:      s.now(),
		RTT:      rtt,
		SRTT:     s.rto.SRTT(),
		MinRTT:   s.minRTT,
		Acked:    acked,
		Inflight: s.inflight(),
		AckNo:    ackNo,
		NextSeq:  s.sndNxt,
	}
}

// trySend transmits segments while the effective window allows. Segments
// below sndMax are go-back-N retransmissions and are always allowed; new
// data is only offered before the flow deadline and under the segment limit.
func (s *sender) trySend() {
	for float64(s.inflight()) < s.effWindow() {
		if s.sndNxt == s.sndMax {
			if s.now() >= s.c.deadline {
				break
			}
			if s.c.segLimit > 0 && s.sndMax >= s.c.segLimit {
				break
			}
		}
		s.transmit(s.sndNxt)
		s.sndNxt++
		if s.sndNxt > s.sndMax {
			s.sndMax = s.sndNxt
		}
	}
}

// transmit puts one segment on the forward link and arms the RTO timer if it
// is not running.
func (s *sender) transmit(seq int64) {
	txNo := s.sent.txNo(seq) + 1
	s.sent.set(seq, s.now(), txNo)
	s.stats.DataSent++
	if txNo > 1 {
		s.stats.Retransmissions++
	}
	s.c.rec.Record(trace.Event{
		At: s.now(), Type: trace.EvDataSend,
		Seq: seq, Ack: -1, TransmitNo: txNo, Cwnd: s.wnd.Cwnd,
	})
	ev := s.c.getDataEvent(seq, txNo)
	ok, _ := s.c.path.Forward.Send(s.c.cfg.MSS+s.c.cfg.HeaderBytes, ev)
	if s.c.tel != nil && s.inTimeoutRecovery && txNo > 1 {
		s.c.tel.RecoveryRetransmits++
		if !ok {
			s.c.tel.RecoveryRetxDrops++
		}
	}
	if !ok {
		s.c.putDataEvent(ev)
		s.stats.DataDropped++
		s.c.rec.Record(trace.Event{
			At: s.now(), Type: trace.EvDataDrop,
			Seq: seq, Ack: -1, TransmitNo: txNo,
		})
	}
	if s.rtoTimer == nil || !s.rtoTimer.Active() {
		s.armTimer()
	}
}

// armTimer (re)schedules the retransmission timer if data is outstanding.
// The timer object is created once per connection and then rescheduled in
// place, so per-ACK rearming does not allocate.
func (s *sender) armTimer() {
	if s.inflight() <= 0 {
		if s.rtoTimer != nil {
			s.rtoTimer.Stop()
		}
		return
	}
	d := s.rto.BackedOff(s.backoff, s.c.cfg.MaxBackoff)
	if s.rtoTimer == nil {
		s.rtoTimer = s.c.simulator.Schedule(d, s.onRTO)
	} else {
		s.rtoTimer.Reschedule(d)
	}
}

// onAck processes one cumulative acknowledgement (ackNo = next expected
// segment at the receiver). trigTxNo echoes the transmission number of the
// data segment that triggered the ACK (the moral equivalent of the Eifel
// timestamp echo, RFC 3522), and dsack reports that the triggering segment
// was a duplicate the receiver already had. Either signal on the ACK that
// ends a timeout recovery proves the timeout was spurious: the original
// transmission reached the receiver.
func (s *sender) onAck(ackNo int64, trigTxNo int, dsack bool) {
	s.stats.AcksReceived++
	s.c.rec.Record(trace.Event{
		At: s.now(), Type: trace.EvAckRecv, Seq: -1, Ack: ackNo, Cwnd: s.wnd.Cwnd,
	})
	if dsack || trigTxNo == 1 {
		s.spuriousSignal = true
	}
	switch {
	case ackNo > s.sndUna:
		s.onNewAck(ackNo)
	case ackNo == s.sndUna && s.inflight() > 0:
		s.onDupAck()
	}
	s.spuriousSignal = false
	// ACKs below sndUna are stale and ignored.
	if s.c.tel != nil {
		// Per-ACK cwnd sampling: the window evolution the paper's Fig 3/4
		// plots, summarized as a running distribution plus a coarse
		// histogram. Sampled at this single post-update point — after the
		// variant hooks and their clamps have run, on every ACK path alike
		// (growth, dup-ACK, partial ACK, Eifel restore) — so all variants
		// report identically-placed samples.
		s.c.tel.Cwnd.Add(s.wnd.Cwnd)
		s.c.tel.CwndHist.Add(s.wnd.Cwnd)
	}
}

func (s *sender) onNewAck(ackNo int64) {
	acked := ackNo - s.sndUna
	// RTT sampling per Karn's rule: only from segments acked on their first
	// transmission. Use the newest acked segment, the one that most likely
	// triggered this ACK.
	var rttSample time.Duration
	if info, ok := s.sent.get(ackNo - 1); ok && info.txNo == 1 {
		rttSample = s.now() - info.at
		s.rto.Sample(rttSample)
		if s.minRTT == 0 || rttSample < s.minRTT {
			s.minRTT = rttSample
		}
	}
	for seq := s.sndUna; seq < ackNo; seq++ {
		s.sent.clear(seq)
	}
	s.sndUna = ackNo
	if s.sndNxt < s.sndUna {
		s.sndNxt = s.sndUna
	}
	s.dupAcks = 0
	s.backoff = 0
	if s.c.segLimit > 0 && !s.c.completed && s.sndUna >= s.c.segLimit {
		s.c.completed = true
		s.c.completedAt = s.now()
	}

	a := s.ackInfo(acked, rttSample, ackNo)

	if s.inTimeoutRecovery {
		// Leaving the timeout recovery phase: the paper's "recovered"
		// boundary, after which the sender slow-starts.
		s.inTimeoutRecovery = false
		if s.c.tel != nil {
			s.c.tel.RecoveryNS += int64(s.now() - s.recoveryStart)
		}
		s.c.rec.Record(trace.Event{
			At: s.now(), Type: trace.EvRecovered, Seq: -1, Ack: ackNo, Cwnd: s.wnd.Cwnd,
		})
		if s.c.cfg.SpuriousRTORecovery && s.spuriousSignal && s.preTO.valid {
			// Eifel response: the recovery-ending ACK carries the duplicate
			// signal, so the timeout was spurious — the original data had
			// arrived and the window reduction was unwarranted. Restore the
			// pre-timeout congestion state and cancel the go-back-N resend.
			s.stats.SpuriousRecoveries++
			// Conservative variant (RFC 4015 spirit): restore ssthresh and
			// resume congestion avoidance at half the pre-timeout window
			// rather than the full one — the channel that delayed the ACKs
			// may not be fully healthy yet.
			s.wnd.SSThresh = s.preTO.ssthresh
			s.wnd.Cwnd = s.preTO.cwnd / 2
			if s.wnd.Cwnd < 2 {
				s.wnd.Cwnd = 2
			}
			if wm := float64(s.c.cfg.WindowLimit); s.wnd.Cwnd > wm {
				s.wnd.Cwnd = wm
			}
			s.cc.OnSpuriousTimeout(&s.wnd, a)
			// The send pointer is intentionally NOT restored: the go-back-N
			// resend still runs (at the restored window's pace) because
			// packets that straddled the outage may genuinely be missing,
			// and Reno without SACK recovers multiple holes poorly.
			s.preTO.valid = false
			s.armTimer()
			s.trySend()
			return
		}
	}
	s.preTO.valid = false

	if s.fastRecovery {
		if ackNo < s.recoverPoint && s.cc.OnPartialAck(&s.wnd, a) {
			// Partial ACK with a variant that stays in fast recovery: the
			// ACK uncovered the next hole — retransmit it immediately at
			// the deflated window the controller chose.
			s.transmit(s.sndUna)
			s.armTimer()
			s.trySend()
			return
		}
		// Full ACK (or a variant that terminates recovery on any new ACK):
		// leave fast recovery and let the controller deflate the window.
		s.fastRecovery = false
		s.cc.OnExitRecovery(&s.wnd, a)
	} else {
		s.cc.OnNewAck(&s.wnd, a)
	}

	s.armTimer()
	s.trySend()
}

func (s *sender) onDupAck() {
	s.dupAcks++
	switch {
	case s.fastRecovery:
		s.cc.OnDupAck(&s.wnd, s.ackInfo(0, 0, s.sndUna))
		s.trySend()
	case s.dupAcks == 3:
		s.stats.FastRetransmits++
		s.c.rec.Record(trace.Event{
			At: s.now(), Type: trace.EvFastRetx,
			Seq: s.sndUna, Ack: -1, Cwnd: s.wnd.Cwnd,
		})
		a := s.ackInfo(0, 0, s.sndUna)
		s.recoverPoint = s.sndMax
		s.fastRecovery = true
		// The fast retransmission goes out before the controller reduces
		// the window, so its trace event carries the pre-loss cwnd.
		s.transmit(s.sndUna)
		s.cc.OnEnterRecovery(&s.wnd, a)
	}
}

// onRTO handles a retransmission-timer expiry: cautious single-segment
// retransmission with exponential backoff (the paper's timeout sequence).
func (s *sender) onRTO() {
	if s.inflight() <= 0 {
		return
	}
	s.stats.Timeouts++
	s.c.rec.Record(trace.Event{
		At: s.now(), Type: trace.EvTimeout,
		Seq: s.sndUna, Ack: -1, Cwnd: s.wnd.Cwnd, Backoff: s.backoff,
	})
	if !s.inTimeoutRecovery {
		// Remember the congestion state the timeout destroys, so an
		// Eifel-style response can restore it if the timeout turns out to
		// have been spurious.
		s.preTO = preTimeoutState{
			cwnd: s.wnd.Cwnd, ssthresh: s.wnd.SSThresh, sndNxt: s.sndNxt, valid: true,
		}
		if s.c.tel != nil {
			s.c.tel.RecoveryPhases++
			s.recoveryStart = s.now()
		}
	}
	if s.c.tel != nil {
		s.c.tel.BackoffHist.Add(float64(s.backoff))
	}
	s.inTimeoutRecovery = true
	s.fastRecovery = false
	s.dupAcks = 0
	s.cc.OnRTO(&s.wnd, s.ackInfo(0, 0, s.sndUna))
	// Go-back-N: rewind the send pointer so slow start resends everything
	// unacknowledged; with cwnd = 1 only the oldest segment goes out now
	// (the paper's "only one packet is retransmitted after a timeout").
	s.sndNxt = s.sndUna
	s.trySend()
	if s.retxHook != nil {
		s.retxHook(s.sndUna)
	}
	if s.backoff < s.c.cfg.MaxBackoff {
		s.backoff++
	}
	s.armTimer()
}

// preTimeoutState is the congestion state saved when a timeout sequence
// begins, restorable by the Eifel response.
type preTimeoutState struct {
	cwnd     float64
	ssthresh float64
	sndNxt   int64
	valid    bool
}

// halfInflight is the standard ssthresh update max(inflight/2, 2).
func halfInflight(inflight int64) float64 {
	h := float64(inflight) / 2
	if h < 2 {
		h = 2
	}
	return h
}

// receiver is the ACK-generating half of the connection.
type receiver struct {
	c *Conn

	rcvNxt int64
	// ooo is the out-of-order segment set: a dense ring indexed by sequence
	// number (every held segment lies within one window of rcvNxt).
	ooo     seqSet
	pending int // in-order segments not yet acknowledged (delayed ACK)
	delack  *sim.Timer
	ackHook func(ackNo int64)

	// Adaptive delayed-ACK state (Config.AdaptiveDelAck): curB is the
	// effective window, streak counts clean in-order arrivals since the
	// last disturbance.
	curB   int
	streak int

	// trigTxNo remembers the transmission number of the latest data
	// arrival; it is echoed on the next ACK (the Eifel timestamp stand-in).
	trigTxNo int

	unique      int64
	dups        int64
	acksSent    int64
	acksDropped int64
}

func (r *receiver) now() time.Duration { return r.c.simulator.Now() }

// onData processes one arriving data segment.
func (r *receiver) onData(seq int64, txNo int) {
	r.c.rec.Record(trace.Event{
		At: r.now(), Type: trace.EvDataRecv,
		Seq: seq, Ack: -1, TransmitNo: txNo,
	})
	r.trigTxNo = txNo
	switch {
	case seq < r.rcvNxt || r.ooo.contains(seq):
		// Duplicate payload (e.g. a spurious retransmission after ACK burst
		// loss): acknowledge immediately so the sender resynchronizes.
		r.dups++
		r.disturbed()
		r.sendAckNow(true)
	case seq == r.rcvNxt:
		r.unique++
		r.rcvNxt++
		for r.ooo.contains(r.rcvNxt) {
			r.ooo.remove(r.rcvNxt)
			r.rcvNxt++
		}
		r.adapt()
		r.pending++
		if r.pending >= r.curB {
			r.sendAckNow(false)
		} else if r.delack == nil {
			r.delack = r.c.simulator.Schedule(r.c.cfg.DelAckTimeout, r.onDelAckTimeout)
		} else if !r.delack.Active() {
			r.delack.Reschedule(r.c.cfg.DelAckTimeout)
		}
	default: // out of order: immediate duplicate ACK
		r.unique++
		r.ooo.add(seq)
		r.disturbed()
		r.sendAckNow(false)
	}
}

// adaptStreak is how many consecutive clean in-order arrivals the adaptive
// receiver waits for before widening its delayed-ACK window by one.
const adaptStreak = 32

// adapt grows the adaptive delayed-ACK window after a clean streak.
func (r *receiver) adapt() {
	if !r.c.cfg.AdaptiveDelAck {
		return
	}
	r.streak++
	if r.streak >= adaptStreak && r.curB < r.c.cfg.DelayedAckB {
		r.curB++
		r.streak = 0
	}
}

// disturbed collapses the adaptive window to immediate ACKs: duplicates and
// reordering signal loss or spurious retransmissions, exactly when every
// ACK matters.
func (r *receiver) disturbed() {
	if !r.c.cfg.AdaptiveDelAck {
		return
	}
	r.curB = 1
	r.streak = 0
}

func (r *receiver) onDelAckTimeout() {
	if r.pending > 0 {
		r.sendAckNow(false)
	}
}

// sendAckNow emits a cumulative ACK for rcvNxt and clears delayed-ACK
// state. dup marks ACKs triggered by duplicate payload (the DSACK-like
// signal); the triggering transmission number rides along as the Eifel
// timestamp stand-in.
func (r *receiver) sendAckNow(dup bool) {
	r.pending = 0
	if r.delack != nil {
		r.delack.Stop()
	}
	ackNo := r.rcvNxt
	r.acksSent++
	r.c.rec.Record(trace.Event{
		At: r.now(), Type: trace.EvAckSend, Seq: -1, Ack: ackNo,
	})
	ev := r.c.getAckEvent(ackNo, r.trigTxNo, dup)
	ok, _ := r.c.path.Reverse.Send(r.c.cfg.HeaderBytes, ev)
	if !ok {
		r.c.putAckEvent(ev)
		r.acksDropped++
		r.c.rec.Record(trace.Event{
			At: r.now(), Type: trace.EvAckDrop, Seq: -1, Ack: ackNo,
		})
	}
	if r.ackHook != nil {
		r.ackHook(ackNo)
	}
}
