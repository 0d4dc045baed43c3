package experiments

import (
	"fmt"
	"math"
	"time"

	"repro/internal/cellular"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/export"
	"repro/internal/faults"
	"repro/internal/stats"
)

// FaultPoint is one fault-severity level's outcome.
type FaultPoint struct {
	Severity float64
	flowMeans
	PadhyeDev   float64 // mean |D| of the Padhye model
	EnhancedDev float64 // mean |D| of the enhanced model (Eq. 21)
}

// FaultSweepResult is the fault-injection severity sweep: the same carrier
// and seeds under the canonical stress schedule (faults.Stress) scaled from
// benign to beyond-scripted intensity. It is the robustness counterpart of
// the paper's Figure 10 claim — as injected blackouts, handoff storms and
// ACK bursts intensify exactly the q and P_a conditions behind the paper's
// long recoveries and spurious RTOs, the enhanced model should degrade
// gracefully where Padhye's diverges.
type FaultSweepResult struct {
	Operator string
	Schedule string // canonical DSL of the severity-1 schedule
	Flows    int    // flows per severity level
	Points   []FaultPoint
}

// faultSeverities are the sweep levels: baseline, half, scripted, and
// beyond-scripted intensity.
var faultSeverities = []float64{0, 0.5, 1, 1.5, 2}

// FaultSweep runs the fault-injection severity sweep on China Mobile LTE.
// All fault randomness derives from the flow seeds on dedicated streams, so
// the sweep is deterministic for a given (seed, schedule) at any
// parallelism.
func FaultSweep(cfg Config) (*FaultSweepResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sched := faults.Stress(cfg.FlowDuration)
	flows := cfg.PairsPerOperator * 2
	res := &FaultSweepResult{
		Operator: cellular.ChinaMobileLTE.Name,
		Schedule: sched.String(),
		Flows:    flows,
	}
	levels, err := runSweep(cfg, len(faultSeverities), flows, func(l, i int) dataset.Scenario {
		sev := faultSeverities[l]
		sc := cruiseFlow(cfg, cellular.ChinaMobileLTE, fmt.Sprintf("fault-%.2f-%d", sev, i),
			cfg.Seed*613+int64(i), time.Duration(i)*29*time.Second)
		sc.Scenario = "faults"
		sc.Faults = sched.Scale(sev)
		return sc
	})
	if err != nil {
		return nil, err
	}
	for l, sev := range faultSeverities {
		pt := FaultPoint{Severity: sev, flowMeans: meansOf(levels[l])}
		var padDev, enhDev stats.Running
		for _, f := range levels[l] {
			m := f.Metrics
			prm := core.ParamsFromMetrics(m)
			if pad, err := core.Padhye(prm); err == nil {
				if d := math.Abs(core.Deviation(pad, m.ThroughputPps)); !math.IsNaN(d) {
					padDev.Add(d)
				}
			}
			if enh, err := core.Enhanced(prm); err == nil {
				if d := math.Abs(core.Deviation(enh, m.ThroughputPps)); !math.IsNaN(d) {
					enhDev.Add(d)
				}
			}
		}
		pt.PadhyeDev = padDev.Mean()
		pt.EnhancedDev = enhDev.Mean()
		res.Points = append(res.Points, pt)
	}
	return res, nil
}

// Section prints the sweep; its CSV series holds the sweep at full
// precision.
func (r *FaultSweepResult) Section() export.Section {
	t := export.NewTable("severity", "mean pps", "p_a", "q", "TO seqs", "spurious",
		"mean recovery", "Padhye |D|", "enhanced |D|")
	for _, p := range r.Points {
		t.AddRow(fmt.Sprintf("%.2f", p.Severity), fmt.Sprintf("%.1f", p.MeanTputPps),
			export.Percent(p.MeanAckLoss), export.Percent(p.MeanRecLoss),
			fmt.Sprintf("%d", p.TimeoutSequences), fmt.Sprintf("%d", p.SpuriousTimeouts),
			fmt.Sprintf("%.2fs", p.MeanRecovery.Seconds()),
			export.Percent(p.PadhyeDev), export.Percent(p.EnhancedDev))
	}
	var s export.Section
	s.Linef("Fault-injection severity sweep — %s, %d flows per level", r.Operator, r.Flows)
	s.Linef("schedule (severity 1): %s", r.Schedule)
	s.AddTable(t)
	s.Linef("injected blackouts/storms/ACK bursts intensify q and P_a; the enhanced model should stay closer than Padhye as severity grows")
	csv := export.NewTable("severity", "mean_pps", "p_a", "q", "timeout_seqs", "spurious",
		"mean_recovery_s", "padhye_dev", "enhanced_dev")
	for _, p := range r.Points {
		csv.AddRow(fmt.Sprintf("%g", p.Severity), fmt.Sprintf("%g", p.MeanTputPps),
			fmt.Sprintf("%g", p.MeanAckLoss), fmt.Sprintf("%g", p.MeanRecLoss),
			fmt.Sprintf("%d", p.TimeoutSequences), fmt.Sprintf("%d", p.SpuriousTimeouts),
			fmt.Sprintf("%g", p.MeanRecovery.Seconds()),
			fmt.Sprintf("%g", p.PadhyeDev), fmt.Sprintf("%g", p.EnhancedDev))
	}
	s.CSVName, s.CSV = "fault_sweep", csv
	return s
}
