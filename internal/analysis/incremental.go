package analysis

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/trace"
)

// txKey identifies one transmission of one segment.
type txKey struct {
	seq  int64
	txNo int
}

// sendRec is one unacked first transmission in the pending-send queue.
type sendRec struct {
	seq     int64
	at      time.Duration
	tainted bool // segment was retransmitted (Karn: no RTT sample)
}

// spurCheck is a deferred spurious-timeout classification: a recovery phase
// whose first timeout at time at was not (yet) spurious when it fired. A
// data arrival for seq at exactly the same virtual timestamp may still be
// queued behind the timeout in the stream, and it counts, so the check
// stays pending until the stream's clock moves past at.
type spurCheck struct {
	phase int32
	seq   int64
	at    time.Duration
}

// Incremental computes FlowMetrics online from a stream of packet events,
// without ever materializing the event list: attach one as the
// trace.Recorder of a running flow (dataset.RunFlowMetrics does this) and
// call Finish when the flow ends. It is the package's only analyzer;
// Analyze replays a materialized trace through it. A test-only whole-trace
// batch analyzer is its oracle: the two agree event for event on the
// hostile corpus, on fuzzed streams and on whole campaigns, for any stream
// that is causally ordered (a transmission's arrival never precedes its
// send, and no (seq, transmit#) pair is sent twice; every
// simulator-produced trace satisfies both).
//
// Memory is proportional to the flow's sequence-number range (dense
// per-segment tables) plus the live recovery state, but never to the event
// count: a metrics-only campaign holds no event slices at all. All internal
// tables survive Reset, so a pooled Incremental
// (AcquireIncremental / Release) analyzes consecutive flows with near-zero
// steady-state allocation.
//
// The zero value is NOT ready for use; construct with NewIncremental or
// reset an old one with Reset.
type Incremental struct {
	meta trace.FlowMeta
	m    FlowMetrics

	err    error
	evIdx  int
	prevAt time.Duration

	cwndSum  float64
	rttSum   time.Duration
	pend     []sendRec
	pendHead int
	// delivered doubles as the spurious-timeout check's "already arrived"
	// test: delivered[seq] is true once any arrival of seq has been
	// processed, and every processed arrival is at or before the stream's
	// current time.
	delivered []bool

	// phases accumulates recovery phases in order; openPhase indexes the
	// currently open one (-1 when transmission is live). Closed phases can
	// still be amended by retxPending refunds and spurPending matches, which
	// is why the slice holds them until Finish.
	phases    []RecoveryPhase
	openPhase int

	lastActivity time.Duration
	prevTOAt     time.Duration
	prevTOBk     int
	rtoSum       time.Duration
	rtoN         int

	// retxPending maps an in-recovery transmission counted as lost to the
	// phase that counted it; the arrival of that exact transmission — always
	// after the send on a causal stream — refunds the loss, so a phase
	// counts a retransmission lost only if it never arrives.
	retxPending map[txKey]int32
	spurPending []spurCheck
}

// NewIncremental returns a streaming analyzer for one flow with the given
// metadata (the analyzer needs Duration and MSS for the epilogue).
func NewIncremental(meta trace.FlowMeta) *Incremental {
	a := &Incremental{}
	a.Reset(meta)
	return a
}

// Reset re-arms the analyzer for a new flow, retaining every internal
// table's capacity so a pooled analyzer's steady state allocates nothing.
func (a *Incremental) Reset(meta trace.FlowMeta) {
	// growBool exposes capacity without clearing, so stale trues from the
	// previous flow must be wiped here; growNeg-style tables self-initialize.
	clear(a.delivered[:cap(a.delivered)])
	a.delivered = a.delivered[:0]
	clear(a.retxPending)
	*a = Incremental{
		meta:        meta,
		delivered:   a.delivered,
		pend:        a.pend[:0],
		phases:      a.phases[:0],
		spurPending: a.spurPending[:0],
		retxPending: a.retxPending,
		openPhase:   -1,
	}
	a.m = FlowMetrics{Meta: meta, Duration: meta.Duration}
}

// findPend binary-searches the live pending-send queue for seq, returning
// its index or -1 (already evicted or never sent on first transmission).
func (a *Incremental) findPend(seq int64) int {
	lo, hi := a.pendHead, len(a.pend)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a.pend[mid].seq < seq {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(a.pend) && a.pend[lo].seq == seq {
		return lo
	}
	return -1
}

// Record implements trace.Recorder: it folds one event into the running
// metrics. Events must arrive in nondecreasing time order; a malformed
// event latches an error that Finish returns (the error trace.Validate
// reports for the same event list) and subsequent events are ignored.
func (a *Incremental) Record(ev trace.Event) {
	if a.err != nil {
		return
	}
	if err := trace.ValidateEvent(a.evIdx, ev, a.prevAt); err != nil {
		a.err = err
		return
	}
	a.evIdx++
	a.prevAt = ev.At
	if len(a.spurPending) > 0 {
		a.pruneSpur(ev.At)
	}

	switch ev.Type {
	case trace.EvDataSend:
		a.m.DataSent++
		a.cwndSum += ev.Cwnd
		if ev.TransmitNo == 1 {
			a.pend = append(a.pend, sendRec{seq: ev.Seq, at: ev.At})
		} else if i := a.findPend(ev.Seq); i >= 0 {
			a.pend[i].tainted = true
		}
		if a.openPhase >= 0 {
			ph := &a.phases[a.openPhase]
			ph.Retransmissions++
			// Counted lost until its arrival is observed; on a causal
			// stream the arrival (if any) is still ahead of us.
			ph.RetransmissionsLost++
			if a.retxPending == nil {
				a.retxPending = make(map[txKey]int32)
			}
			a.retxPending[txKey{ev.Seq, ev.TransmitNo}] = int32(a.openPhase)
		} else {
			a.lastActivity = ev.At
		}

	case trace.EvDataDrop:
		a.m.DataLost++

	case trace.EvDataRecv:
		a.delivered = growBool(a.delivered, ev.Seq)
		if !a.delivered[ev.Seq] {
			a.delivered[ev.Seq] = true
			a.m.UniqueDelivered++
		}
		if len(a.retxPending) > 0 {
			k := txKey{ev.Seq, ev.TransmitNo}
			if pi, ok := a.retxPending[k]; ok {
				a.phases[pi].RetransmissionsLost--
				delete(a.retxPending, k)
			}
		}
		for i := 0; i < len(a.spurPending); {
			if a.spurPending[i].seq == ev.Seq {
				a.phases[a.spurPending[i].phase].Spurious = true
				a.spurPending = append(a.spurPending[:i], a.spurPending[i+1:]...)
			} else {
				i++
			}
		}

	case trace.EvAckSend:
		a.m.AcksSent++

	case trace.EvAckDrop:
		a.m.AcksLost++

	case trace.EvAckRecv:
		if i := a.findPend(ev.Ack - 1); i >= 0 && !a.pend[i].tainted {
			a.rttSum += ev.At - a.pend[i].at
			a.m.RTTSamples++
		}
		for a.pendHead < len(a.pend) && a.pend[a.pendHead].seq < ev.Ack {
			a.pend[a.pendHead] = sendRec{}
			a.pendHead++
		}
		// Compact the evicted prefix so the queue's footprint tracks the
		// in-flight window, not the flow length.
		if a.pendHead >= 4096 && a.pendHead >= len(a.pend)/2 {
			n := copy(a.pend, a.pend[a.pendHead:])
			a.pend = a.pend[:n]
			a.pendHead = 0
		}
		if a.openPhase < 0 {
			a.lastActivity = ev.At
		}

	case trace.EvTimeout:
		a.m.Timeouts++
		if a.openPhase < 0 {
			a.phases = append(a.phases, RecoveryPhase{
				Start:        a.lastActivity,
				FirstTimeout: ev.At,
			})
			a.openPhase = len(a.phases) - 1
			// Spurious iff the timed-out segment had already arrived. An
			// arrival at exactly ev.At may still be queued behind this
			// event in the stream, so keep the check pending until the
			// clock moves on.
			if int(ev.Seq) < len(a.delivered) && a.delivered[ev.Seq] {
				a.phases[a.openPhase].Spurious = true
			} else {
				a.spurPending = append(a.spurPending, spurCheck{
					phase: int32(a.openPhase), seq: ev.Seq, at: ev.At,
				})
			}
		} else {
			// Consecutive timeout: the gap from the previous one encodes
			// the base RTO through the backoff exponent.
			shift := uint(a.prevTOBk + 1)
			if shift > 6 {
				shift = 6
			}
			a.rtoSum += (ev.At - a.prevTOAt) >> shift
			a.rtoN++
		}
		a.prevTOAt, a.prevTOBk = ev.At, ev.Backoff
		a.phases[a.openPhase].Timeouts++

	case trace.EvFastRetx:
		a.m.FastRetransmits++

	case trace.EvRecovered:
		if a.openPhase >= 0 {
			a.phases[a.openPhase].End = ev.At
			a.openPhase = -1
		}
	}
}

// pruneSpur drops pending spurious checks whose timestamp the stream has
// moved past: an arrival can no longer land at or before them.
func (a *Incremental) pruneSpur(now time.Duration) {
	kept := a.spurPending[:0]
	for _, p := range a.spurPending {
		if p.at >= now {
			kept = append(kept, p)
		}
	}
	a.spurPending = kept
}

// Finish closes the flow and returns its metrics — a fresh FlowMetrics that
// owns all of its memory, so the analyzer can be Reset or Released
// immediately. It returns the first validation error the stream produced,
// wrapped as "analysis: <trace error>".
func (a *Incremental) Finish() (*FlowMetrics, error) {
	if a.err != nil {
		return nil, fmt.Errorf("analysis: %w", a.err)
	}
	// A phase still open at the end of the stream never recovered; count it
	// with End at the flow horizon so its duration is not lost.
	if a.openPhase >= 0 {
		ph := &a.phases[a.openPhase]
		ph.End = a.meta.Duration
		if ph.End < ph.FirstTimeout {
			ph.End = ph.FirstTimeout
		}
		a.openPhase = -1
	}
	m := a.m
	if len(a.phases) > 0 {
		m.Recoveries = append([]RecoveryPhase(nil), a.phases...)
	}

	m.TimeoutSequences = len(m.Recoveries)
	var recDur time.Duration
	var retx, retxLost int
	for _, r := range m.Recoveries {
		recDur += r.Duration()
		retx += r.Retransmissions
		retxLost += r.RetransmissionsLost
		if r.Spurious {
			m.SpuriousTimeouts++
		}
	}
	if len(m.Recoveries) > 0 {
		m.MeanRecoveryDuration = recDur / time.Duration(len(m.Recoveries))
	}
	if retx > 0 {
		m.RecoveryLossRate = float64(retxLost) / float64(retx)
	}

	if m.DataSent > 0 {
		m.DataLossRate = float64(m.DataLost) / float64(m.DataSent)
		m.MeanWindow = a.cwndSum / float64(m.DataSent)
	}
	if m.AcksSent > 0 {
		m.AckLossRate = float64(m.AcksLost) / float64(m.AcksSent)
	}
	if m.RTTSamples > 0 {
		m.MeanRTT = a.rttSum / time.Duration(m.RTTSamples)
	}
	if a.rtoN > 0 {
		m.BaseRTOEstimate = a.rtoSum / time.Duration(a.rtoN)
	}
	if d := m.Duration.Seconds(); d > 0 {
		m.ThroughputPps = float64(m.UniqueDelivered) / d
		m.ThroughputBps = m.ThroughputPps * float64(a.meta.MSS) * 8
	}
	if m.MeanRTT > 0 {
		active := m.Duration - recDur
		if active < m.MeanRTT {
			active = m.MeanRTT
		}
		m.EstimatedRounds = float64(active) / float64(m.MeanRTT)
		m.AckBurstRate = float64(m.SpuriousTimeouts) / m.EstimatedRounds
	}
	if ind := m.TimeoutSequences + m.FastRetransmits; ind > 0 {
		m.TimeoutProbability = float64(m.TimeoutSequences) / float64(ind)
	}
	return &m, nil
}

var _ trace.Recorder = (*Incremental)(nil)

// incrementalPool recycles streaming analyzers (and their grown internal
// tables) across flows; campaign workers churn through one analyzer per
// flow, and the arena reuse is what keeps the streaming pipeline's
// allocations per flow flat.
var incrementalPool = sync.Pool{New: func() any { return new(Incremental) }}

// AcquireIncremental returns a pooled streaming analyzer reset for meta.
func AcquireIncremental(meta trace.FlowMeta) *Incremental {
	a := incrementalPool.Get().(*Incremental)
	a.Reset(meta)
	return a
}

// Release returns the analyzer to the pool. The caller must not touch it
// afterwards; metrics returned by Finish remain valid (they share no
// memory with the analyzer).
func (a *Incremental) Release() {
	incrementalPool.Put(a)
}
