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
	inFlight     *sim.Lane     // scheduled deliveries, in arrival order
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
	return &Link{simulator: simulator, cfg: cfg, inFlight: simulator.NewLane()}
}

// Stats returns a copy of the link's counters. Every packet that survives
// the queue and the channel is in flight until its delivery fires, so the
// delivered count is what has left the in-flight lane.
func (l *Link) Stats() LinkStats {
	st := l.stats
	st.Delivered = st.Offered - st.ChannelDrops - st.QueueDrops - l.inFlight.Len()
	return st
}

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
//
// The packet's fate is decided here, in a fixed order: the effective line
// rate at now, queue admission (a tail drop consumes no delay or loss
// draw), the propagation delay draw, the loss draw, then the FIFO delivery
// clamp. Same-instant runs of packets (a TCP window fill) therefore draw
// the RNG streams in submission order.
func (l *Link) Send(size int, deliver Handler) (bool, DropKind) {
	if deliver == nil {
		panic("netem: Send with nil deliver callback")
	}
	if size <= 0 {
		panic(fmt.Sprintf("netem: Send with non-positive size %d", size))
	}
	now := l.simulator.Now()
	l.stats.Offered++

	departure := now
	if l.cfg.Rate > 0 {
		rate := l.cfg.Rate
		if l.cfg.RateScale != nil {
			f := l.cfg.RateScale(now)
			if f < minRateScale {
				f = minRateScale
			}
			rate *= f
		}
		txTime := time.Duration(float64(size*8) / rate * float64(time.Second))
		if txTime <= 0 {
			txTime = time.Nanosecond
		}
		start := now
		if l.nextFree > start {
			start = l.nextFree
		}
		if l.cfg.MaxQueue > 0 {
			// backlog counts packets ahead of this one (including the one in
			// service); only the waiting ones occupy queue slots.
			backlog := int((start - now) / txTime)
			if backlog > l.stats.PeakBacklog {
				l.stats.PeakBacklog = backlog
			}
			if backlog > l.cfg.MaxQueue {
				l.stats.QueueDrops++
				return false, DropQueue
			}
		}
		departure = start + txTime
		l.nextFree = departure
	}

	// The arrival epoch (before FIFO clamping) is computed first so the loss
	// model can expose the packet to the channel conditions of both transit
	// ends.
	arrival := departure + l.cfg.Delay.Sample(now)
	if l.cfg.Loss.Drop(now, arrival) {
		l.stats.ChannelDrops++
		return false, DropChannel
	}
	if arrival < l.lastDelivery {
		arrival = l.lastDelivery // preserve FIFO delivery
	}
	l.lastDelivery = arrival
	l.inFlight.Push(arrival, deliver)
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
