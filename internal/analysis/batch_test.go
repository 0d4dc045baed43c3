package analysis

import (
	"fmt"
	"time"

	"repro/internal/trace"
)

// batchAnalyze is the whole-trace batch analyzer, the test oracle for the
// streaming one: a first pass indexes every arrival, so "did this
// transmission ever arrive" and "had the timed-out segment arrived" are
// lookups instead of the streaming analyzer's refunds and deferred checks.
// On causally ordered traces the two must agree field for field
// (FuzzAnalyzeMatchesBatch, the simulator-trace equivalence tests).
func batchAnalyze(ft *trace.FlowTrace) (*FlowMetrics, error) {
	if ft == nil {
		return nil, fmt.Errorf("analysis: nil trace")
	}
	if err := ft.Validate(); err != nil {
		return nil, fmt.Errorf("analysis: %w", err)
	}
	m := &FlowMetrics{Meta: ft.Meta, Duration: ft.Meta.Duration}

	recvAt := map[txKey]time.Duration{}   // arrival time per transmission
	firstRecv := make([]time.Duration, 0) // earliest arrival per segment, -1 = never
	for _, ev := range ft.Events {
		if ev.Type == trace.EvDataRecv {
			recvAt[txKey{ev.Seq, ev.TransmitNo}] = ev.At
			firstRecv = growNeg(firstRecv, ev.Seq)
			if t := firstRecv[ev.Seq]; t < 0 || ev.At < t {
				firstRecv[ev.Seq] = ev.At
			}
		}
	}

	// pend is the unacked-first-transmission queue (sendRec is shared with
	// the streaming analyzer). First transmissions carry strictly increasing
	// sequence numbers, and cumulative ACKs evict from the front, so a slice
	// with a head index replaces the former map — the per-ACK eviction scan
	// over the whole map dominated Analyze.
	var (
		cwndSum      float64
		rttSum       time.Duration
		pend         []sendRec
		pendHead     int
		delivered    []bool // dense unique-delivery tracker, indexed by seq
		curPhase     *RecoveryPhase
		lastActivity time.Duration // last data send or ACK arrival before a timeout
		prevTOAt     time.Duration
		prevTOBk     int
		rtoSum       time.Duration
		rtoN         int
	)
	// findPend binary-searches the live queue for seq, returning its index
	// or -1 (already evicted or never sent on first transmission).
	findPend := func(seq int64) int {
		lo, hi := pendHead, len(pend)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if pend[mid].seq < seq {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo < len(pend) && pend[lo].seq == seq {
			return lo
		}
		return -1
	}
	for _, ev := range ft.Events {
		switch ev.Type {
		case trace.EvDataSend:
			m.DataSent++
			cwndSum += ev.Cwnd
			if ev.TransmitNo == 1 {
				pend = append(pend, sendRec{seq: ev.Seq, at: ev.At})
			} else if i := findPend(ev.Seq); i >= 0 {
				pend[i].tainted = true
			}
			if curPhase != nil {
				curPhase.Retransmissions++
				if _, arrived := recvAt[txKey{ev.Seq, ev.TransmitNo}]; !arrived {
					curPhase.RetransmissionsLost++
				}
			} else {
				lastActivity = ev.At
			}

		case trace.EvDataDrop:
			m.DataLost++

		case trace.EvDataRecv:
			delivered = growBool(delivered, ev.Seq)
			if !delivered[ev.Seq] {
				delivered[ev.Seq] = true
				m.UniqueDelivered++
			}

		case trace.EvAckSend:
			m.AcksSent++

		case trace.EvAckDrop:
			m.AcksLost++

		case trace.EvAckRecv:
			if i := findPend(ev.Ack - 1); i >= 0 && !pend[i].tainted {
				rttSum += ev.At - pend[i].at
				m.RTTSamples++
			}
			for pendHead < len(pend) && pend[pendHead].seq < ev.Ack {
				pend[pendHead] = sendRec{}
				pendHead++
			}
			if curPhase == nil {
				lastActivity = ev.At
			}

		case trace.EvTimeout:
			m.Timeouts++
			if curPhase == nil {
				curPhase = &RecoveryPhase{
					Start:        lastActivity,
					FirstTimeout: ev.At,
				}
				// Spurious iff the timed-out segment had already arrived
				// (the receiver will see the same payload twice).
				if int(ev.Seq) < len(firstRecv) && firstRecv[ev.Seq] >= 0 && firstRecv[ev.Seq] <= ev.At {
					curPhase.Spurious = true
				}
			} else {
				// Consecutive timeout: the gap from the previous one encodes
				// the base RTO through the backoff exponent.
				shift := uint(prevTOBk + 1)
				if shift > 6 {
					shift = 6
				}
				rtoSum += (ev.At - prevTOAt) >> shift
				rtoN++
			}
			prevTOAt, prevTOBk = ev.At, ev.Backoff
			curPhase.Timeouts++

		case trace.EvFastRetx:
			m.FastRetransmits++

		case trace.EvRecovered:
			if curPhase != nil {
				curPhase.End = ev.At
				m.Recoveries = append(m.Recoveries, *curPhase)
				curPhase = nil
			}
		}
	}
	// A phase still open at the end of the trace never recovered; count it
	// with End at the trace horizon so its duration is not lost.
	if curPhase != nil {
		curPhase.End = ft.Meta.Duration
		if curPhase.End < curPhase.FirstTimeout {
			curPhase.End = curPhase.FirstTimeout
		}
		m.Recoveries = append(m.Recoveries, *curPhase)
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
		m.MeanWindow = cwndSum / float64(m.DataSent)
	}
	if m.AcksSent > 0 {
		m.AckLossRate = float64(m.AcksLost) / float64(m.AcksSent)
	}
	if m.RTTSamples > 0 {
		m.MeanRTT = rttSum / time.Duration(m.RTTSamples)
	}
	if rtoN > 0 {
		m.BaseRTOEstimate = rtoSum / time.Duration(rtoN)
	}
	if d := m.Duration.Seconds(); d > 0 {
		m.ThroughputPps = float64(m.UniqueDelivered) / d
		m.ThroughputBps = m.ThroughputPps * float64(ft.Meta.MSS) * 8
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
	return m, nil
}

// growNeg extends s so index i is valid, filling new slots with -1
// ("never seen"), under the same capped geometric growth as growBool.
func growNeg(s []time.Duration, i int64) []time.Duration {
	need := int(i) + 1
	if need <= len(s) {
		return s
	}
	if need > cap(s) {
		ns := make([]time.Duration, len(s), seqTableCap(cap(s), need))
		copy(ns, s)
		s = ns
	}
	tail := s[len(s):need]
	for j := range tail {
		tail[j] = -1
	}
	return s[:need]
}
