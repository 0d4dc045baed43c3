package netem

import (
	"math/rand"
	"time"
)

// LossFunc adapts a time-indexed loss probability function to a LossModel:
// the packet faces the worse of the conditions at its two transit epochs.
// Tests script outage windows with it; production paths use
// TransitLossFunc.
type LossFunc struct {
	Prob func(now time.Duration) float64
	rng  *rand.Rand
}

// NewLossFunc wraps prob (which must return values in [0, 1]) as a LossModel.
func NewLossFunc(prob func(time.Duration) float64, rng *rand.Rand) *LossFunc {
	if prob == nil {
		panic("netem: NewLossFunc with nil probability function")
	}
	return &LossFunc{Prob: prob, rng: rng}
}

// Drop implements LossModel.
func (f *LossFunc) Drop(sent, arrival time.Duration) bool {
	p := f.Prob(sent)
	if pa := f.Prob(arrival); pa > p {
		p = pa
	}
	return p > 0 && f.rng.Float64() < p
}
