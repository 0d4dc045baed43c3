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
	"repro/internal/railway"
	"repro/internal/stats"
)

// FaultPoint is one fault-severity level's outcome.
type FaultPoint struct {
	Severity         float64
	MeanTputPps      float64
	MeanAckLoss      float64       // p_a
	MeanRecLoss      float64       // q, the recovery-phase retransmission loss
	TimeoutSequences int           // summed over the level's flows
	SpuriousTimeouts int           // summed over the level's flows
	MeanRecovery     time.Duration // mean timeout-recovery duration
	PadhyeDev        float64       // mean |D| of the Padhye model
	EnhancedDev      float64       // mean |D| of the enhanced model (Eq. 21)
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
	trip, err := railway.NewTrip(railway.BeijingTianjin, railway.DefaultProfile)
	if err != nil {
		return nil, err
	}
	offsetBase, _ := trip.CruiseWindow()
	for _, sev := range faultSeverities {
		scaled := sched.Scale(sev)
		pt := FaultPoint{Severity: sev}
		var tput, aloss, rloss, padDev, enhDev stats.Running
		var rec time.Duration
		var recN int
		for i := 0; i < flows; i++ {
			sc := dataset.Scenario{
				ID:           fmt.Sprintf("fault-%.2f-%d", sev, i),
				Operator:     cellular.ChinaMobileLTE,
				Trip:         trip,
				TripOffset:   offsetBase + time.Duration(i)*29*time.Second,
				FlowDuration: cfg.FlowDuration,
				Seed:         cfg.Seed*613 + int64(i),
				TCP:          defaultTCP(),
				Scenario:     "faults",
				Faults:       scaled,
			}
			m, err := cfg.analyzeFlow(sc)
			if err != nil {
				return nil, fmt.Errorf("experiments: fault sweep severity %.2f: %w", sev, err)
			}
			tput.Add(m.ThroughputPps)
			aloss.Add(m.AckLossRate)
			rloss.Add(m.RecoveryLossRate)
			pt.TimeoutSequences += m.TimeoutSequences
			pt.SpuriousTimeouts += m.SpuriousTimeouts
			if len(m.Recoveries) > 0 {
				rec += m.MeanRecoveryDuration
				recN++
			}
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
		pt.MeanTputPps = tput.Mean()
		pt.MeanAckLoss = aloss.Mean()
		pt.MeanRecLoss = rloss.Mean()
		pt.PadhyeDev = padDev.Mean()
		pt.EnhancedDev = enhDev.Mean()
		if recN > 0 {
			pt.MeanRecovery = rec / time.Duration(recN)
		}
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
