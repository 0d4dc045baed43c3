package netem

import (
	"fmt"
	"math/rand"
	"time"
)

// DelayModel samples the one-way propagation delay for a packet entering the
// link at virtual time now (serialization time is handled separately by the
// Link's rate limiter).
//
// Contract: Link.Send invokes Sample exactly once per packet that reaches
// the channel (queue tail drops never sample), in submission order, with the
// packet's entry epoch as now, before the loss model's draw for the same
// packet; FuzzLinkSend checks this. Time-invariant models may ignore now,
// but models that consume randomness must draw the same RNG sequence
// regardless of its value, so a window of packets sent at one instant
// consumes the stream in submission order.
type DelayModel interface {
	Sample(now time.Duration) time.Duration
}

// FixedDelay returns the same delay for every packet.
type FixedDelay time.Duration

// Sample implements DelayModel.
func (d FixedDelay) Sample(time.Duration) time.Duration { return time.Duration(d) }

// UniformDelay samples Base + U(0, Jitter).
type UniformDelay struct {
	Base   time.Duration
	Jitter time.Duration
	rng    *rand.Rand
}

// NewUniformDelay builds a uniform-jitter delay model. Base and Jitter must
// be non-negative.
func NewUniformDelay(base, jitter time.Duration, rng *rand.Rand) *UniformDelay {
	if base < 0 || jitter < 0 {
		panic(fmt.Sprintf("netem: UniformDelay base %v jitter %v must be non-negative", base, jitter))
	}
	return &UniformDelay{Base: base, Jitter: jitter, rng: rng}
}

// Sample implements DelayModel. It ignores now by design: the jitter
// distribution is time-invariant, and per the DelayModel contract the draw
// count (one Int63n per sampled packet when Jitter > 0, none otherwise)
// depends only on the packet sequence, never on the clock.
func (d *UniformDelay) Sample(time.Duration) time.Duration {
	if d.Jitter == 0 {
		return d.Base
	}
	return d.Base + time.Duration(d.rng.Int63n(int64(d.Jitter)))
}

// DelayFunc adapts a time-indexed delay function to a DelayModel, used by
// the cellular channel to add handoff-time delay inflation.
type DelayFunc struct {
	Fn func(now time.Duration) time.Duration
}

// Sample implements DelayModel.
func (d DelayFunc) Sample(now time.Duration) time.Duration { return d.Fn(now) }

// SumDelay adds the samples of several delay models, e.g. a fixed
// propagation floor plus a time-varying cellular component.
type SumDelay struct {
	Models []DelayModel
}

// NewSumDelay combines the given delay models additively.
func NewSumDelay(models ...DelayModel) *SumDelay { return &SumDelay{Models: models} }

// Sample implements DelayModel.
func (s *SumDelay) Sample(now time.Duration) time.Duration {
	var total time.Duration
	for _, m := range s.Models {
		total += m.Sample(now)
	}
	return total
}
