package faults

import (
	"math/rand"
	"time"

	"repro/internal/netem"
)

// lossInjector layers schedule-driven loss over an inner LossModel. The
// inner model is consulted first on every packet so its burst state advances
// identically whether or not a fault fires, keeping faulted and unfaulted
// runs of the same seed comparable packet for packet.
type lossInjector struct {
	inner netem.LossModel
	prob  func(sent, arrival time.Duration) float64
	rng   *rand.Rand
	// drops, when non-nil, counts packets the schedule killed that the inner
	// model would have let through (fault-drop attribution for telemetry).
	// Counting never changes rng consumption, so counted and uncounted runs
	// of the same seed stay packet-identical.
	drops *int64
}

// Drop implements netem.LossModel.
func (li *lossInjector) Drop(sent, arrival time.Duration) bool {
	dropped := li.inner.Drop(sent, arrival)
	if p := li.prob(sent, arrival); p > 0 && (p >= 1 || li.rng.Float64() < p) {
		if !dropped && li.drops != nil {
			*li.drops++
		}
		dropped = true
	}
	return dropped
}

// WrapDataLossCounted layers the schedule's data-direction faults
// (blackouts) over inner, with fault-drop attribution: every packet the
// schedule (and not the inner model) kills increments *drops; a nil drops
// counts nothing. The rng should be derived from the flow seed on
// sim.StreamFaultData so fault draws perturb no other stream.
func (s *Schedule) WrapDataLossCounted(inner netem.LossModel, rng *rand.Rand, drops *int64) netem.LossModel {
	if s.Empty() {
		return inner
	}
	return &lossInjector{inner: inner, prob: s.DataLossProb, rng: rng, drops: drops}
}

// WrapAckLossCounted layers the schedule's ACK-direction faults (blackouts
// and ACK burst-loss episodes) over inner, counting fault drops into *drops
// like WrapDataLossCounted; use an rng on sim.StreamFaultAck.
func (s *Schedule) WrapAckLossCounted(inner netem.LossModel, rng *rand.Rand, drops *int64) netem.LossModel {
	if s.Empty() {
		return inner
	}
	return &lossInjector{inner: inner, prob: s.AckLossProb, rng: rng, drops: drops}
}

// delayInjector adds the schedule's delay spikes to an inner DelayModel.
type delayInjector struct {
	inner netem.DelayModel
	s     *Schedule
}

// Sample implements netem.DelayModel.
func (di *delayInjector) Sample(now time.Duration) time.Duration {
	return di.inner.Sample(now) + di.s.ExtraDelay(now)
}

// WrapDelay adds the schedule's delay-spike inflation to inner.
func (s *Schedule) WrapDelay(inner netem.DelayModel) netem.DelayModel {
	if s.Empty() {
		return inner
	}
	return &delayInjector{inner: inner, s: s}
}
