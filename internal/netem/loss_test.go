package netem

import (
	"math"
	"testing"
	"time"

	"repro/internal/sim"
)

func TestNoLoss(t *testing.T) {
	var m NoLoss
	for i := 0; i < 100; i++ {
		if m.Drop(time.Duration(i), time.Duration(i)) {
			t.Fatal("NoLoss dropped a packet")
		}
	}
}

func TestBernoulliExtremes(t *testing.T) {
	rng := sim.NewRand(1, sim.StreamDataLoss)
	never := NewBernoulli(0, rng)
	always := NewBernoulli(1, rng)
	for i := 0; i < 1000; i++ {
		if never.Drop(0, 0) {
			t.Fatal("Bernoulli(0) dropped")
		}
		if !always.Drop(0, 0) {
			t.Fatal("Bernoulli(1) did not drop")
		}
	}
}

func TestBernoulliRate(t *testing.T) {
	rng := sim.NewRand(2, sim.StreamDataLoss)
	m := NewBernoulli(0.3, rng)
	drops := 0
	const n = 50000
	for i := 0; i < n; i++ {
		if m.Drop(0, 0) {
			drops++
		}
	}
	rate := float64(drops) / n
	if math.Abs(rate-0.3) > 0.01 {
		t.Errorf("empirical drop rate = %v, want ~0.3", rate)
	}
}

func TestBernoulliPanicsOutOfRange(t *testing.T) {
	rng := sim.NewRand(1, sim.StreamDataLoss)
	for _, p := range []float64{-0.1, 1.1} {
		p := p
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewBernoulli(%v) did not panic", p)
				}
			}()
			NewBernoulli(p, rng)
		}()
	}
}

func TestLossFuncUsesTime(t *testing.T) {
	rng := sim.NewRand(5, sim.StreamDataLoss)
	outage := func(now time.Duration) float64 {
		if now >= time.Second && now < 2*time.Second {
			return 1
		}
		return 0
	}
	m := NewLossFunc(outage, rng)
	if m.Drop(500*time.Millisecond, 500*time.Millisecond) {
		t.Error("dropped outside the outage window")
	}
	if !m.Drop(1500*time.Millisecond, 1500*time.Millisecond) {
		t.Error("did not drop inside the outage window")
	}
	if m.Drop(2*time.Second, 2*time.Second) {
		t.Error("dropped after the outage window")
	}
}

func TestLossFuncNilPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewLossFunc(nil) did not panic")
		}
	}()
	NewLossFunc(nil, sim.NewRand(1, sim.StreamDataLoss))
}
