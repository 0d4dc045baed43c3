// Package analysis extracts the paper's transport-layer metrics from packet
// traces: loss rates for data and ACKs, RTT statistics, timeout events and
// their spurious/genuine classification, timeout-recovery phases and the
// loss rate of retransmissions inside them (the paper's q), and per-flow
// throughput. It implements Section III of the paper as code.
package analysis

import (
	"fmt"
	"time"

	"repro/internal/stats"
	"repro/internal/trace"
)

// RecoveryPhase is one timeout sequence: from the stall that precedes the
// first RTO of the sequence to the ACK that restarts transmission (the
// paper's Fig 2).
type RecoveryPhase struct {
	// Start is the last data activity before the first timeout (the end of
	// the preceding congestion-avoidance phase).
	Start time.Duration
	// FirstTimeout is when the first RTO of the sequence fired.
	FirstTimeout time.Duration
	// End is when transmission recovered (new cumulative ACK).
	End time.Duration
	// Timeouts counts the RTO expiries in the sequence (the paper's R).
	Timeouts int
	// Retransmissions counts data transmissions inside [FirstTimeout, End).
	Retransmissions int
	// RetransmissionsLost counts those that the channel dropped.
	RetransmissionsLost int
	// Spurious reports whether the sequence's first timeout fired even
	// though the timed-out segment had already reached the receiver.
	Spurious bool
}

// Duration returns the length of the recovery phase.
func (r RecoveryPhase) Duration() time.Duration { return r.End - r.Start }

// FlowMetrics are the per-flow statistics the experiments consume.
type FlowMetrics struct {
	Meta trace.FlowMeta

	Duration        time.Duration
	UniqueDelivered int64
	ThroughputPps   float64 // unique segments delivered per second
	ThroughputBps   float64 // payload bits per second (MSS * 8 * pps)

	DataSent     int64
	DataLost     int64
	DataLossRate float64 // the paper's p_d
	AcksSent     int64
	AcksLost     int64
	AckLossRate  float64 // the paper's p_a

	MeanRTT    time.Duration
	RTTSamples int

	MeanWindow float64 // mean cwnd over data transmissions (the w in P_a = p_a^w)

	Timeouts         int // individual RTO expiries
	TimeoutSequences int // recovery phases (timeout sequences)
	SpuriousTimeouts int // timeout sequences classified spurious
	FastRetransmits  int

	// TimeoutProbability is the paper's Q: the fraction of loss indications
	// (fast retransmits + timeout sequences) that were timeout sequences.
	TimeoutProbability float64

	Recoveries           []RecoveryPhase
	MeanRecoveryDuration time.Duration
	// RecoveryLossRate is the paper's q: the loss rate of retransmitted
	// packets inside timeout recovery phases.
	RecoveryLossRate float64

	// BaseRTOEstimate is the flow's base retransmission timeout T, estimated
	// from the exponential-backoff structure of consecutive timeouts: the
	// gap between timeout k and k+1 of one sequence equals T * 2^(b+1)
	// (capped), where b is the backoff exponent recorded at timeout k.
	// Zero when the flow had no consecutive timeouts.
	BaseRTOEstimate time.Duration

	// EstimatedRounds approximates how many transmission rounds the flow
	// spent outside timeout recovery: (duration - recovery time) / RTT.
	EstimatedRounds float64
	// AckBurstRate is a direct estimate of the paper's P_a: spurious
	// timeout sequences per transmission round. (The independence formula
	// p_a^w vastly underestimates P_a on bursty channels.)
	AckBurstRate float64
}

// SpuriousFraction returns the fraction of timeout sequences classified as
// spurious, or 0 when there were none.
func (m *FlowMetrics) SpuriousFraction() float64 {
	if m.TimeoutSequences == 0 {
		return 0
	}
	return float64(m.SpuriousTimeouts) / float64(m.TimeoutSequences)
}

// Analyze derives FlowMetrics from a packet trace by replaying its events
// through a pooled Incremental, the same analyzer RunFlowMetrics streams
// into, so a materialized trace and a live flow share one implementation.
// A trace whose arrivals precede their sends, or that sends one
// (seq, transmit#) pair twice, cannot come from the simulator; it gets the
// streaming analyzer's result.
func Analyze(ft *trace.FlowTrace) (*FlowMetrics, error) {
	if ft == nil {
		return nil, fmt.Errorf("analysis: nil trace")
	}
	a := AcquireIncremental(ft.Meta)
	defer a.Release()
	for _, ev := range ft.Events {
		a.Record(ev)
	}
	return a.Finish()
}

// Summary is a compact aggregate over many flows, used by the campaign
// experiments.
type Summary struct {
	Flows                int
	MeanThroughputPps    float64
	MeanDataLossRate     float64
	MeanAckLossRate      float64
	MeanRecoveryDuration time.Duration
	MeanRecoveryLossRate float64 // mean of per-flow q over flows with recoveries
	SpuriousFraction     float64 // spurious timeout sequences / all sequences
	TotalTimeoutSeqs     int
	TotalSpurious        int
}

// Summarize aggregates per-flow metrics.
func Summarize(ms []*FlowMetrics) Summary {
	var s Summary
	if len(ms) == 0 {
		return s
	}
	var tput, dloss, aloss, qsum stats.Running
	var recDur time.Duration
	var recFlows int
	for _, m := range ms {
		tput.Add(m.ThroughputPps)
		dloss.Add(m.DataLossRate)
		aloss.Add(m.AckLossRate)
		if len(m.Recoveries) > 0 {
			qsum.Add(m.RecoveryLossRate)
			recDur += m.MeanRecoveryDuration
			recFlows++
		}
		s.TotalTimeoutSeqs += m.TimeoutSequences
		s.TotalSpurious += m.SpuriousTimeouts
	}
	s.Flows = len(ms)
	s.MeanThroughputPps = tput.Mean()
	s.MeanDataLossRate = dloss.Mean()
	s.MeanAckLossRate = aloss.Mean()
	if recFlows > 0 {
		s.MeanRecoveryDuration = recDur / time.Duration(recFlows)
		s.MeanRecoveryLossRate = qsum.Mean()
	}
	if s.TotalTimeoutSeqs > 0 {
		s.SpuriousFraction = float64(s.TotalSpurious) / float64(s.TotalTimeoutSeqs)
	}
	return s
}

// seqTableSlackCap bounds the extra capacity the per-sequence tables reserve
// beyond the highest index demanded so far. Doubling keeps growth amortized
// O(1) for the dense sequence spaces real flows produce, while the cap keeps
// a sparse, high-sequence trace (a hostile input or a long-idle flow) from
// reserving twice the high-water mark in one jump.
const seqTableSlackCap = 1 << 16

// seqTableCap picks the new capacity for a per-sequence table that must hold
// need entries: geometric (doubling) growth, slack-capped.
func seqTableCap(oldCap, need int) int {
	newCap := 2 * oldCap
	if newCap < need {
		newCap = need
	}
	if newCap > need+seqTableSlackCap {
		newCap = need + seqTableSlackCap
	}
	return newCap
}

// growBool extends s so index i is valid (new slots false). Sequence numbers
// are dense, so a slice beats a map here; growth is geometric (one
// allocation per doubling) and slack-capped by seqTableCap, so a sparse
// high-sequence stream costs one capped allocation rather than a
// reallocation cascade.
func growBool(s []bool, i int64) []bool {
	need := int(i) + 1
	if need <= len(s) {
		return s
	}
	if need > cap(s) {
		ns := make([]bool, len(s), seqTableCap(cap(s), need))
		copy(ns, s)
		s = ns
	}
	return s[:need]
}
