package netem

import (
	"fmt"

	"repro/internal/sim"
)

// BottleneckConfig sizes a shared bottleneck: one emulated cell whose
// downlink and uplink capacity every attached flow competes for.
type BottleneckConfig struct {
	// DownRate / UpRate are the shared line rates in bits per second.
	DownRate float64
	UpRate   float64
	// Queue is the shared FIFO depth, in packets, of each direction.
	Queue int
}

// Validate checks the configuration.
func (c BottleneckConfig) Validate() error {
	if c.DownRate <= 0 || c.UpRate <= 0 {
		return fmt.Errorf("netem: bottleneck rates [%v, %v] must be positive", c.DownRate, c.UpRate)
	}
	if c.Queue < 1 {
		return fmt.Errorf("netem: bottleneck queue %d must be >= 1", c.Queue)
	}
	return nil
}

// Bottleneck is a shared two-direction bottleneck: a downlink and an uplink
// Link that model only serialization rate and a bounded FIFO queue. Several
// flows chain their private loss/delay stages into the same Bottleneck, so
// their packets interleave in one queue and contend for one transmitter —
// the shared-cell topology the multi-flow fairness experiments measure.
//
// The shared stages deliberately carry no loss or delay model of their own:
// per-flow channel behaviour stays in the private stage (whose drop verdict
// is synchronous, keeping per-flow traces exact), while queueing delay and
// overflow drops emerge from the contention itself.
type Bottleneck struct {
	Down *Link
	Up   *Link
}

// NewBottleneck builds the shared stages on the simulator.
func NewBottleneck(simulator *sim.Simulator, cfg BottleneckConfig) (*Bottleneck, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Bottleneck{
		Down: NewLink(simulator, LinkConfig{
			Rate: cfg.DownRate, MaxQueue: cfg.Queue, Delay: FixedDelay(0),
		}),
		Up: NewLink(simulator, LinkConfig{
			Rate: cfg.UpRate, MaxQueue: cfg.Queue, Delay: FixedDelay(0),
		}),
	}, nil
}

// Stats returns the shared stages' per-direction counters; queue drops here
// are contention overflow, not channel loss.
func (b *Bottleneck) Stats() (down, up LinkStats) {
	return b.Down.Stats(), b.Up.Stats()
}
