package experiments

import (
	"fmt"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/export"
	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tcp"
	"repro/internal/trace"
)

// ValidationPoint is one loss-rate level of the static-channel sweep.
type ValidationPoint struct {
	PData     float64
	ActualPps float64
	PadhyePps float64
	EnhPps    float64
	DPadhye   float64
	DEnhanced float64
}

// ValidationResult is the PFTK-style sanity check behind everything else:
// on a *static* channel with independent (Bernoulli) data loss and no ACK
// loss — the world the Padhye model was built for — the simulator, the
// analyzer and the Padhye implementation must agree. This validates the
// reproduction pipeline itself, independent of any mobility modeling.
type ValidationResult struct {
	Points      []ValidationPoint
	MeanDPadhye float64
	MeanDEnh    float64
}

// ModelValidation sweeps the Bernoulli loss rate on a plain fixed-delay
// path and compares the measured steady-state throughput with both models.
func ModelValidation(cfg Config) (*ValidationResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	res := &ValidationResult{}
	var padDs, enhDs []float64
	for _, pd := range []float64{0.0005, 0.001, 0.002, 0.005, 0.01, 0.02, 0.04} {
		actual, metrics, err := runStaticFlow(cfg, pd)
		if err != nil {
			return nil, err
		}
		prm := core.ParamsFromMetrics(metrics)
		pad, err := core.Padhye(prm)
		if err != nil {
			return nil, err
		}
		enh, err := core.Enhanced(prm)
		if err != nil {
			return nil, err
		}
		pt := ValidationPoint{
			PData:     pd,
			ActualPps: actual,
			PadhyePps: pad,
			EnhPps:    enh,
			DPadhye:   core.Deviation(pad, actual),
			DEnhanced: core.Deviation(enh, actual),
		}
		res.Points = append(res.Points, pt)
		padDs = append(padDs, pt.DPadhye)
		enhDs = append(enhDs, pt.DEnhanced)
	}
	res.MeanDPadhye = stats.Mean(padDs)
	res.MeanDEnh = stats.Mean(enhDs)
	return res, nil
}

// runStaticFlow simulates one long bulk flow over a static path with
// independent data loss at rate pd, streaming its events into a pooled
// analyzer (no event list is kept).
func runStaticFlow(cfg Config, pd float64) (float64, *analysis.FlowMetrics, error) {
	s := sim.New()
	fwd := netem.NewLink(s, netem.LinkConfig{
		Delay: netem.NewUniformDelay(28*time.Millisecond, 4*time.Millisecond, sim.NewRand(cfg.Seed, sim.StreamDelay)),
		Loss:  netem.NewBernoulli(pd, sim.NewRand(cfg.Seed, sim.StreamDataLoss)),
	})
	rev := netem.NewLink(s, netem.LinkConfig{
		Delay: netem.NewUniformDelay(28*time.Millisecond, 4*time.Millisecond, sim.NewRand(cfg.Seed+1, sim.StreamDelay)),
	})
	tcpCfg := tcp.DefaultConfig()
	tcpCfg.WindowLimit = 64 // keep the sweep in the unconstrained regime
	id := fmt.Sprintf("static-%.4f", pd)
	inc := analysis.AcquireIncremental(trace.FlowMeta{
		ID: id, Operator: "static", Scenario: "validation",
		MSS: tcpCfg.MSS, DelayedAckB: tcpCfg.DelayedAckB, WindowLimit: tcpCfg.WindowLimit,
		Duration: 3 * cfg.FlowDuration,
	})
	defer inc.Release()
	conn, err := tcp.New(s, netem.NewPath(fwd, rev), tcpCfg, inc)
	if err != nil {
		return 0, nil, err
	}
	if err := conn.Start(3 * cfg.FlowDuration); err != nil {
		return 0, nil, err
	}
	if _, err := dataset.RunBudgeted(s, id, 3*cfg.FlowDuration, 1); err != nil {
		return 0, nil, err
	}
	m, err := inc.Finish()
	if err != nil {
		return 0, nil, err
	}
	return m.ThroughputPps, m, nil
}

// Section prints the sweep.
func (r *ValidationResult) Section() export.Section {
	t := export.NewTable("p_d", "actual pps", "Padhye pps", "D", "enhanced pps", "D")
	for _, p := range r.Points {
		t.AddRow(fmt.Sprintf("%.4f", p.PData),
			fmt.Sprintf("%.1f", p.ActualPps),
			fmt.Sprintf("%.1f", p.PadhyePps), export.Percent(p.DPadhye),
			fmt.Sprintf("%.1f", p.EnhPps), export.Percent(p.DEnhanced))
	}
	var s export.Section
	s.Linef("Pipeline validation — static Bernoulli channel (the Padhye model's home turf)")
	s.AddTable(t)
	s.Linef("mean D: Padhye %s, enhanced %s — both models must fit well here",
		export.Percent(r.MeanDPadhye), export.Percent(r.MeanDEnh))
	return s
}
