package mptcp

import (
	"fmt"
	"time"

	"repro/internal/dataset"
	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/trace"
)

// SizedResult describes a fixed-size flow (or flow set): how fast it moved
// its bytes. This is the paper's Fig 12 quantity — the large flow and the
// two concurrent half-size flows carry the same total payload, and each
// flow's throughput is size divided by its own completion time.
type SizedResult struct {
	Segments      int64
	Completed     bool
	Duration      time.Duration // completion time, or the horizon if incomplete
	ThroughputPps float64
}

// RunSizedSingle transfers exactly segments data segments over one TCP flow;
// the scenario's FlowDuration acts as the simulation horizon.
func RunSizedSingle(base dataset.Scenario, segments int64) (SizedResult, error) {
	if err := base.Validate(); err != nil {
		return SizedResult{}, err
	}
	if segments <= 0 {
		return SizedResult{}, fmt.Errorf("mptcp: segments %d must be positive", segments)
	}
	simulator := sim.New()
	path, _, err := dataset.BuildPath(simulator, base)
	if err != nil {
		return SizedResult{}, err
	}
	conn, err := tcp.New(simulator, path, base.TCP, trace.Nop{})
	if err != nil {
		return SizedResult{}, err
	}
	if err := conn.StartSized(segments, base.FlowDuration); err != nil {
		return SizedResult{}, err
	}
	if _, err := dataset.RunBudgeted(simulator, base.ID, base.FlowDuration, 1); err != nil {
		return SizedResult{}, err
	}
	return sizedResult(conn, segments, base.FlowDuration), nil
}

// RunSizedDuplex transfers the same total payload as RunSizedSingle but
// split over two concurrent subflows of segments/2 each. Each subflow has
// its own independently seeded channel; both queue on one shared cell. The
// aggregate throughput is the sum of the two flows' individual
// throughputs, exactly as the paper computes its MPTCP estimate.
func RunSizedDuplex(base dataset.Scenario, segments int64) (SizedResult, error) {
	conns, sizes, err := runSizedPair(base, segments)
	if err != nil {
		return SizedResult{}, err
	}
	out := SizedResult{Segments: segments, Completed: true}
	for i, conn := range conns {
		r := sizedResult(conn, sizes[i], base.FlowDuration)
		out.ThroughputPps += r.ThroughputPps
		if !r.Completed {
			out.Completed = false
		}
		if r.Duration > out.Duration {
			out.Duration = r.Duration // makespan of the pair
		}
	}
	return out, nil
}

// runSizedPair runs RunSizedDuplex's two subflows to the horizon inside one
// simulation and returns their finished connections and sizes.
func runSizedPair(base dataset.Scenario, segments int64) ([2]*tcp.Conn, [2]int64, error) {
	var conns [2]*tcp.Conn
	half := segments / 2
	sizes := [2]int64{half, segments - half}
	if err := base.Validate(); err != nil {
		return conns, sizes, err
	}
	if segments < 2 {
		return conns, sizes, fmt.Errorf("mptcp: segments %d must be >= 2 for two subflows", segments)
	}
	simulator := sim.New()
	op := base.Operator
	cell, err := netem.NewBottleneck(simulator, netem.BottleneckConfig{
		DownRate: op.DownlinkRate, UpRate: op.UplinkRate, Queue: op.QueuePackets,
	})
	if err != nil {
		return conns, sizes, err
	}
	for i := range conns {
		sc := subflowScenario(base, i)
		path, err := dataset.BuildSubflowPath(simulator, sc, cell.Down, cell.Up)
		if err != nil {
			return conns, sizes, err
		}
		conn, err := tcp.New(simulator, path, sc.TCP, trace.Nop{})
		if err != nil {
			return conns, sizes, err
		}
		if err := conn.StartSized(sizes[i], base.FlowDuration); err != nil {
			return conns, sizes, err
		}
		conns[i] = conn
	}
	_, err = dataset.RunBudgeted(simulator, base.ID, base.FlowDuration, len(conns))
	return conns, sizes, err
}

// subflowScenario is base with the i-th duplex subflow's own seed, so each
// subflow gets an independent channel.
func subflowScenario(base dataset.Scenario, i int) dataset.Scenario {
	base.Seed = base.Seed*7919 + int64(i)*104729
	return base
}

// sizedResult reduces a finished (or timed-out) sized connection.
func sizedResult(conn *tcp.Conn, segments int64, horizon time.Duration) SizedResult {
	r := SizedResult{Segments: segments}
	if at, ok := conn.Completed(); ok {
		r.Completed = true
		r.Duration = at
	} else {
		r.Duration = horizon
	}
	if r.Duration > 0 {
		if r.Completed {
			r.ThroughputPps = float64(segments) / r.Duration.Seconds()
		} else {
			r.ThroughputPps = float64(conn.Stats().UniqueDelivered) / r.Duration.Seconds()
		}
	}
	return r
}

// CompareSized runs the paper's Fig 12 comparison on one scenario: a large
// flow of the given size against two concurrent half-size flows, returning
// both throughputs and the relative improvement.
func CompareSized(base dataset.Scenario, segments int64) (single, duplex, improvement float64, err error) {
	s, err := RunSizedSingle(base, segments)
	if err != nil {
		return 0, 0, 0, err
	}
	d, err := RunSizedDuplex(base, segments)
	if err != nil {
		return 0, 0, 0, err
	}
	return s.ThroughputPps, d.ThroughputPps, Improvement(d.ThroughputPps, s.ThroughputPps), nil
}
