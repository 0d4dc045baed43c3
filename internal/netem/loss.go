// Package netem emulates unidirectional network links at packet granularity:
// serialization at a finite line rate with a bounded queue, propagation
// delay with jitter, and pluggable random-loss processes (Bernoulli and
// time-varying loss driven by the cellular channel model). A pair of links forms a Path, the substrate the TCP
// endpoints run over.
package netem

import (
	"fmt"
	"math/rand"
	"time"
)

// LossModel decides whether a packet is dropped by the radio channel. It
// sees both transit epochs — when the packet entered the link (sent) and
// when it would arrive (arrival) — because a time-varying channel must be
// survived at both ends: a packet already in flight when a handoff outage
// begins is exposed to the outage even though it was sent on a clean
// channel. Implementations are stateful (burst models) and not safe for
// concurrent use; the simulation is single-threaded by construction.
type LossModel interface {
	Drop(sent, arrival time.Duration) bool
}

// NoLoss is a LossModel that never drops.
type NoLoss struct{}

// Drop implements LossModel; it always returns false.
func (NoLoss) Drop(_, _ time.Duration) bool { return false }

// Bernoulli drops each packet independently with probability P.
type Bernoulli struct {
	P   float64
	rng *rand.Rand
}

// NewBernoulli returns an independent-loss model with drop probability p.
// It panics if p is outside [0, 1].
func NewBernoulli(p float64, rng *rand.Rand) *Bernoulli {
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("netem: Bernoulli probability %v outside [0,1]", p))
	}
	return &Bernoulli{P: p, rng: rng}
}

// Drop implements LossModel.
func (b *Bernoulli) Drop(_, _ time.Duration) bool {
	return b.P > 0 && b.rng.Float64() < b.P
}

// TransitLossFunc adapts a loss probability function of both transit epochs
// to a LossModel. The cellular channel uses it to distinguish packets sent
// while the radio bearer is down (retransmission probes, ACKs from a
// detached phone) from packets that merely arrive into an outage.
type TransitLossFunc struct {
	Prob func(sent, arrival time.Duration) float64
	rng  *rand.Rand
}

// NewTransitLossFunc wraps prob (values in [0, 1]) as a LossModel.
func NewTransitLossFunc(prob func(sent, arrival time.Duration) float64, rng *rand.Rand) *TransitLossFunc {
	if prob == nil {
		panic("netem: NewTransitLossFunc with nil probability function")
	}
	return &TransitLossFunc{Prob: prob, rng: rng}
}

// Drop implements LossModel.
func (f *TransitLossFunc) Drop(sent, arrival time.Duration) bool {
	p := f.Prob(sent, arrival)
	return p > 0 && f.rng.Float64() < p
}
