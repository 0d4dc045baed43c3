package netem

import (
	"fmt"
	"time"

	"repro/internal/sim"
)

// DropKind classifies why the link dropped a packet.
type DropKind int

// Drop causes.
const (
	// DropChannel is a random radio-channel loss decided by the LossModel.
	DropChannel DropKind = iota + 1
	// DropQueue is a tail drop: the serialization queue exceeded its limit.
	DropQueue
)

// minRateScale floors RateScale values: even a fully collapsed link keeps a
// trickle of capacity so serialization times stay finite.
const minRateScale = 1e-6

// String implements fmt.Stringer.
func (k DropKind) String() string {
	switch k {
	case DropChannel:
		return "channel"
	case DropQueue:
		return "queue"
	default:
		return fmt.Sprintf("DropKind(%d)", int(k))
	}
}

// LinkStats counts the fate of packets offered to a link.
type LinkStats struct {
	Offered      int // packets handed to Send
	Delivered    int // packets whose deliver callback fired
	ChannelDrops int // random channel losses
	QueueDrops   int // serialization-queue tail drops
	// PeakBacklog is the largest serialization backlog (packets ahead of an
	// arriving one, including the one in service) observed on a
	// bounded-queue link; always 0 on unbounded or infinitely fast links.
	PeakBacklog int
	// VectorBursts counts BeginBurstN submissions whose admission, delay and
	// loss outcomes were sampled in one vectorized pass; VectorPackets counts
	// the packets primed that way.
	VectorBursts  int
	VectorPackets int
}

// LinkConfig describes one unidirectional link.
type LinkConfig struct {
	// Rate is the line rate in bits per second; 0 means infinitely fast
	// (no serialization delay, no queue).
	Rate float64
	// RateScale, when non-nil, multiplies Rate by its value at each packet's
	// entry epoch — the hook time-varying capacity (fault-injected rate
	// collapses, congestion episodes) plugs into. Values are floored at a
	// tiny positive minimum so a collapsed link trickles (and tail-drops via
	// MaxQueue) rather than dividing by zero. Ignored when Rate is 0.
	RateScale func(now time.Duration) float64
	// MaxQueue bounds the serialization backlog in packets; packets arriving
	// with MaxQueue packets already waiting are tail-dropped. Ignored when
	// Rate is 0. A zero MaxQueue means an unbounded queue.
	MaxQueue int
	// Delay samples per-packet propagation delay. Required.
	Delay DelayModel
	// Loss decides random channel drops. Defaults to NoLoss.
	Loss LossModel
}

// Handler is the delivery callback interface of the emulated links; it is
// sim.Handler re-exported so netem callers need not import sim. Hot paths
// implement it on pooled structs; cold paths and tests can wrap a closure
// with HandlerFunc.
type Handler = sim.Handler

// HandlerFunc adapts a plain func to a Handler. The conversion allocates
// once per wrapped closure, so it is for cold paths and tests; per-packet
// paths should pool handler structs instead.
type HandlerFunc func()

// Fire implements Handler.
func (f HandlerFunc) Fire() { f() }

// Link is a unidirectional, loss- and delay-emulating packet pipe driven by
// a Simulator. Deliveries never reorder: a packet's delivery time is clamped
// to be at least the previous packet's delivery time, modeling the in-order
// radio bearer of cellular networks (the paper's traces show no transport-
// visible reordering; TCP's dup-ACK machinery would otherwise conflate
// reordering with loss).
type Link struct {
	simulator *sim.Simulator
	cfg       LinkConfig
	stats     LinkStats

	nextFree     time.Duration // when the serializer becomes idle
	lastDelivery time.Duration // monotone delivery horizon (no reordering)
	free         *linkEvent    // pooled in-flight delivery events

	scratch     []burstOutcome // reused primed-burst outcome buffer
	scratchLive int            // primed outcomes not yet consumed by Send
	// one backs scratch until a burst needs more room, so a link that only
	// ever sends one packet at a time (an ACK path) allocates no buffer.
	one [1]burstOutcome
}

// burstOutcome is the precomputed fate of one packet of a primed burst:
// its drop verdict and, for survivors, the pre-FIFO-clamp arrival epoch.
type burstOutcome struct {
	arrival time.Duration
	kind    DropKind // 0 = delivered
}

// linkEvent is the pooled in-flight state of one packet: it bumps the
// delivered counter and hands off to the caller's handler when the emulated
// arrival time comes.
type linkEvent struct {
	l       *Link
	deliver Handler
	next    *linkEvent
}

// Fire implements sim.Handler.
func (e *linkEvent) Fire() {
	l, deliver := e.l, e.deliver
	e.deliver = nil
	e.next = l.free
	l.free = e
	l.stats.Delivered++
	deliver.Fire()
}

// NewLink builds a link on top of the given simulator.
func NewLink(simulator *sim.Simulator, cfg LinkConfig) *Link {
	if simulator == nil {
		panic("netem: NewLink with nil simulator")
	}
	if cfg.Delay == nil {
		panic("netem: LinkConfig.Delay is required")
	}
	if cfg.Rate < 0 {
		panic(fmt.Sprintf("netem: negative link rate %v", cfg.Rate))
	}
	if cfg.Loss == nil {
		cfg.Loss = NoLoss{}
	}
	l := &Link{simulator: simulator, cfg: cfg}
	l.scratch = l.one[:]
	return l
}

// Stats returns a copy of the link's counters.
func (l *Link) Stats() LinkStats { return l.stats }

// QueueDepth returns the current serialization backlog in seconds of
// transmission time (0 when the line is idle or infinitely fast).
func (l *Link) QueueDepth() time.Duration {
	now := l.simulator.Now()
	if l.nextFree <= now {
		return 0
	}
	return l.nextFree - now
}

// Send offers a packet of size bytes to the link. If the packet survives the
// queue and the channel, deliver is scheduled at the emulated arrival time
// and Send returns (delivered-eventually=true, 0). Otherwise deliver is
// never called and Send reports the drop cause. The caller observes drops
// synchronously, which the trace recorder uses to log ground-truth losses.
// It is a one-packet primed burst: the link has a single sampler.
func (l *Link) Send(size int, deliver Handler) (bool, DropKind) {
	if deliver == nil {
		panic("netem: Send with nil deliver callback")
	}
	b := l.prime(size, 1)
	return b.Send(deliver)
}

// Burst is a batched submission handle for a run of same-size packets
// offered at a single virtual instant, the shape the TCP sender's window
// fill produces. Every packet's fate — queue admission, propagation delay,
// channel loss — is sampled when the burst is begun; Send consumes one
// precomputed outcome per packet in submission order, leaving only the FIFO
// delivery clamp and event scheduling per packet. A Burst is only valid at
// the instant it was begun; Send panics if virtual time has moved on.
type Burst struct {
	l   *Link
	now time.Duration

	outcomes []burstOutcome // primed at begin
	i        int            // next primed outcome to consume
}

// BeginBurstN starts a burst whose packet count is known up front and
// samples every packet's fate in one vectorized pass over a link-owned
// scratch buffer (see prime). The pass consumes the RNG streams in the same
// order as n consecutive one-packet Sends, so the outcomes are bit-identical
// to them; the differential fuzz target FuzzBurstSampling proves it against
// a test-only per-packet sampler. Only BeginBurstN submissions count towards
// LinkStats.VectorBursts and VectorPackets.
//
// Contract: the caller must invoke Send exactly n times before beginning
// the next burst (or calling Link.Send) on this link. The serializer and RNG
// state advance during priming, so consuming fewer (or attempting more)
// would desynchronize them; both are detected and panic.
func (l *Link) BeginBurstN(size, n int) Burst {
	b := l.prime(size, n)
	if n > 0 {
		l.stats.VectorBursts++
		l.stats.VectorPackets += n
	}
	return b
}

// prime begins a burst of n size-byte packets at the current virtual time
// and samples each packet's fate in submission order: queue-dropped packets
// consume no RNG draws, survivors draw delay then loss.
func (l *Link) prime(size, n int) Burst {
	if size <= 0 {
		panic(fmt.Sprintf("netem: Send with non-positive size %d", size))
	}
	if l.scratchLive != 0 {
		panic(fmt.Sprintf("netem: new burst begun with %d primed packets unconsumed", l.scratchLive))
	}
	now := l.simulator.Now()
	b := Burst{l: l, now: now}
	if n <= 0 {
		return b
	}
	if cap(l.scratch) < n {
		l.scratch = make([]burstOutcome, n)
	}
	out := l.scratch[:n]

	rateLimited := l.cfg.Rate > 0
	var txTime time.Duration
	if rateLimited {
		// RateScale is a pure function of virtual time, so one evaluation
		// serves the whole burst.
		rate := l.cfg.Rate
		if l.cfg.RateScale != nil {
			f := l.cfg.RateScale(now)
			if f < minRateScale {
				f = minRateScale
			}
			rate *= f
		}
		txTime = time.Duration(float64(size*8) / rate * float64(time.Second))
		if txTime <= 0 {
			txTime = time.Nanosecond
		}
	}

	delay, loss := l.cfg.Delay, l.cfg.Loss
	nextFree := l.nextFree
	maxQueue := l.cfg.MaxQueue
	peak := l.stats.PeakBacklog
	for i := range out {
		departure := now
		if rateLimited {
			start := now
			if nextFree > start {
				start = nextFree
			}
			if maxQueue > 0 {
				// backlog counts packets ahead of this one (including the
				// one in service); only the waiting ones occupy queue slots.
				backlog := int((start - now) / txTime)
				if backlog > peak {
					peak = backlog
				}
				if backlog > maxQueue {
					// Tail drop before the channel: no delay or loss draw.
					out[i] = burstOutcome{kind: DropQueue}
					continue
				}
			}
			departure = start + txTime
			nextFree = departure
		}
		// The arrival epoch (before FIFO clamping) is computed first so the
		// loss model can expose the packet to the channel conditions of both
		// transit ends; the model is consulted once per packet so burst-state
		// evolution stays per-packet.
		arrival := departure + delay.Sample(now)
		if loss.Drop(now, arrival) {
			out[i] = burstOutcome{kind: DropChannel}
			continue
		}
		out[i] = burstOutcome{arrival: arrival}
	}
	l.nextFree = nextFree
	l.stats.PeakBacklog = peak
	l.scratchLive = n
	b.outcomes = out
	return b
}

// Send offers one packet of the burst; semantics match Link.Send. It
// consumes the next precomputed outcome; only the FIFO delivery clamp and
// event scheduling remain per packet.
func (b *Burst) Send(deliver Handler) (bool, DropKind) {
	if deliver == nil {
		panic("netem: Send with nil deliver callback")
	}
	l := b.l
	if l.simulator.Now() != b.now {
		panic(fmt.Sprintf("netem: Burst begun at %v used at %v", b.now, l.simulator.Now()))
	}
	if b.i >= len(b.outcomes) {
		panic(fmt.Sprintf("netem: burst of %d overconsumed", len(b.outcomes)))
	}
	o := b.outcomes[b.i]
	b.i++
	l.scratchLive--
	l.stats.Offered++
	switch o.kind {
	case DropQueue:
		l.stats.QueueDrops++
		return false, DropQueue
	case DropChannel:
		l.stats.ChannelDrops++
		return false, DropChannel
	}
	arrival := o.arrival
	if arrival < l.lastDelivery {
		arrival = l.lastDelivery // preserve FIFO delivery
	}
	l.lastDelivery = arrival
	ev := l.free
	if ev == nil {
		ev = &linkEvent{l: l}
	} else {
		l.free = ev.next
		ev.next = nil
	}
	ev.deliver = deliver
	l.simulator.AtFire(arrival, ev)
	return true, 0
}

// Sender is the one-way packet interface endpoints transmit into: a Link,
// or a Chain of stages.
type Sender interface {
	// Send offers a packet; deliver fires at the emulated arrival time
	// unless the packet is dropped, in which case Send reports the cause
	// and deliver never fires (the caller may recycle it immediately).
	// Drops in stages past the first of a Chain are reported as delivered
	// (the verdict of later stages is not knowable synchronously); such
	// packets simply never arrive.
	Send(size int, deliver Handler) (bool, DropKind)
}

var (
	_ Sender = (*Link)(nil)
	_ Sender = (*Chain)(nil)
)

// Chain runs a packet through several stages in order: each stage's
// emulated arrival feeds the next stage's Send. Use it to separate a shared
// capacity stage (the cell's air interface serving several subflows) from
// per-subflow loss and delay.
type Chain struct {
	Stages []Sender

	free *chainEvent // pooled stage-handoff events
}

// chainEvent carries a packet from one chain stage's delivery into the next
// stage's Send; pooled on the Chain so multi-stage paths stay allocation-
// free per packet.
type chainEvent struct {
	c       *Chain
	stage   int
	size    int
	deliver Handler
	next    *chainEvent
}

// Fire implements Handler.
func (e *chainEvent) Fire() {
	c, stage, size, deliver := e.c, e.stage, e.size, e.deliver
	e.deliver = nil
	e.next = c.free
	c.free = e
	c.sendFrom(stage, size, deliver)
}

// NewChain builds a chain of at least one stage.
func NewChain(stages ...Sender) *Chain {
	if len(stages) == 0 {
		panic("netem: NewChain requires at least one stage")
	}
	for _, s := range stages {
		if s == nil {
			panic("netem: NewChain with nil stage")
		}
	}
	return &Chain{Stages: stages}
}

// Send implements Sender. Only the first stage's verdict is synchronous;
// later stages drop silently (their deliver callback never fires).
func (c *Chain) Send(size int, deliver Handler) (bool, DropKind) {
	return c.sendFrom(0, size, deliver)
}

func (c *Chain) sendFrom(stage int, size int, deliver Handler) (bool, DropKind) {
	if stage == len(c.Stages)-1 {
		return c.Stages[stage].Send(size, deliver)
	}
	ev := c.free
	if ev == nil {
		ev = &chainEvent{c: c}
	} else {
		c.free = ev.next
		ev.next = nil
	}
	ev.stage, ev.size, ev.deliver = stage+1, size, deliver
	ok, kind := c.Stages[stage].Send(size, ev)
	if !ok {
		ev.deliver = nil
		ev.next = c.free
		c.free = ev
	}
	return ok, kind
}

// Path bundles the two directions of a bidirectional connection: Forward
// carries data (server -> phone downlink in the paper's setup) and Reverse
// carries ACKs (uplink).
type Path struct {
	Forward Sender
	Reverse Sender
}

// NewPath wires two senders into a path.
func NewPath(forward, reverse Sender) *Path {
	if forward == nil || reverse == nil {
		panic("netem: NewPath requires both directions")
	}
	return &Path{Forward: forward, Reverse: reverse}
}
