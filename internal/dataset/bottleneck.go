package dataset

import (
	"fmt"
	"time"

	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/trace"
)

// ContendedConfig describes a shared-bottleneck group: N flows, each with
// its own cellular channel, fault schedule and congestion-control variant,
// multiplexed over one emulated cell (a netem.Bottleneck).
type ContendedConfig struct {
	// Flows are the contending scenarios. Every flow must use the same
	// Operator (they share its cell); per-flow Seed, TCP.Variant, Faults
	// and Telemetry are free.
	Flows []Scenario
}

// ContendedResult is one flow's outcome in a shared-bottleneck run.
type ContendedResult struct {
	ID    string
	CC    string
	Stats tcp.Stats
}

// ThroughputPps returns the flow's delivered unique segments per second.
func (r ContendedResult) ThroughputPps() float64 { return r.Stats.ThroughputPps() }

// JainIndex computes Jain's fairness index (sum x)^2 / (n * sum x^2) over
// per-flow throughputs: 1 is perfectly fair, 1/n is maximally unfair.
// Empty or all-zero inputs return 0.
func JainIndex(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}

// RunContended simulates every flow of the group inside ONE simulator over
// one shared bottleneck, so the flows' packets genuinely contend for the
// same FIFO queue and transmitter. Results are returned in the order the
// flows were given. The whole group is single-threaded by construction, so
// its outcome is bit-identical at any -jobs or worker count; determinism
// only requires the caller to keep the flow list (and seeds) fixed.
func RunContended(cfg ContendedConfig) ([]ContendedResult, error) {
	if len(cfg.Flows) == 0 {
		return nil, fmt.Errorf("dataset: RunContended requires at least one flow")
	}
	op := cfg.Flows[0].Operator
	var maxDur time.Duration
	for i := range cfg.Flows {
		if err := cfg.Flows[i].Validate(); err != nil {
			return nil, err
		}
		if cfg.Flows[i].Operator.Name != op.Name {
			return nil, fmt.Errorf("dataset: contended flows must share one operator (%s vs %s)",
				op.Name, cfg.Flows[i].Operator.Name)
		}
		if d := cfg.Flows[i].FlowDuration; d > maxDur {
			maxDur = d
		}
	}

	simulator := sim.New()
	bn, err := netem.NewBottleneck(simulator, netem.BottleneckConfig{
		DownRate: op.DownlinkRate,
		UpRate:   op.UplinkRate,
		Queue:    op.QueuePackets,
	})
	if err != nil {
		return nil, err
	}

	conns := make([]*tcp.Conn, len(cfg.Flows))
	for i := range cfg.Flows {
		sc := cfg.Flows[i]
		// BuildSubflowPath gives each flow its private loss/delay stage
		// (own channel, own seed streams) chained into the shared cell.
		path, err := BuildSubflowPath(simulator, sc, bn.Down, bn.Up)
		if err != nil {
			return nil, err
		}
		conn, err := tcp.New(simulator, path, sc.TCP, trace.Nop{})
		if err != nil {
			return nil, err
		}
		if sc.Telemetry != nil {
			conn.SetTelemetry(&sc.Telemetry.TCP)
		}
		if err := conn.Start(sc.FlowDuration); err != nil {
			return nil, err
		}
		conns[i] = conn
	}

	if _, err := RunBudgeted(simulator, cfg.Flows[0].ID, maxDur, len(cfg.Flows)); err != nil {
		return nil, err
	}

	results := make([]ContendedResult, len(cfg.Flows))
	for i, conn := range conns {
		conn.FlushTelemetry()
		results[i] = ContendedResult{
			ID:    cfg.Flows[i].ID,
			CC:    conn.CC(),
			Stats: conn.Stats(),
		}
	}
	return results, nil
}
