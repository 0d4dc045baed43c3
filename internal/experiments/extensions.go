package experiments

import (
	"fmt"
	"time"

	"repro/internal/analysis"
	"repro/internal/cellular"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/export"
	"repro/internal/mptcp"
	"repro/internal/railway"
	"repro/internal/stats"
)

// DelayedAckPoint is one delayed-ACK receiver setting's outcome.
type DelayedAckPoint struct {
	Label            string // "b=4" or "adaptive<=8"
	B                int
	Adaptive         bool
	MeanTputPps      float64
	MeanAcksPerSec   float64
	TimeoutSequences int
	SpuriousTimeouts int
	MeanAckLoss      float64
}

// DelayedAckResult is the Section V-A study: sweeping the delayed-ACK
// window b on the HSR channel. Fewer ACKs per round make ACK burst loss —
// and therefore spurious timeouts — more likely, which is why the paper
// warns against aggressive delayed ACKs in high-speed mobility.
type DelayedAckResult struct {
	Operator string
	Points   []DelayedAckPoint
	Flows    int
}

// DelayedAck sweeps b over {1, 2, 4, 8} on China Mobile's HSR channel.
func DelayedAck(cfg Config) (*DelayedAckResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	trip, err := railway.NewTrip(railway.BeijingTianjin, railway.DefaultProfile)
	if err != nil {
		return nil, err
	}
	start, _ := trip.CruiseWindow()
	flows := cfg.PairsPerOperator * 2
	res := &DelayedAckResult{Operator: cellular.ChinaMobileLTE.Name, Flows: flows}
	type setting struct {
		label    string
		b        int
		adaptive bool
	}
	settings := []setting{
		{"b=1", 1, false}, {"b=2", 2, false}, {"b=4", 4, false}, {"b=8", 8, false},
		// The paper's future-work direction: TCP-DCA-style adaptive window
		// that collapses to immediate ACKs whenever the channel looks
		// disturbed.
		{"adaptive<=8", 8, true},
	}
	for _, set := range settings {
		tcpCfg := defaultTCP()
		tcpCfg.DelayedAckB = set.b
		tcpCfg.AdaptiveDelAck = set.adaptive
		var tput, acks, aloss stats.Running
		pt := DelayedAckPoint{Label: set.label, B: set.b, Adaptive: set.adaptive}
		for f := 0; f < flows; f++ {
			sc := dataset.Scenario{
				ID:           fmt.Sprintf("delack-%s-%d", set.label, f),
				Operator:     cellular.ChinaMobileLTE,
				Trip:         trip,
				TripOffset:   start + time.Duration(f)*43*time.Second,
				FlowDuration: cfg.FlowDuration,
				Seed:         cfg.Seed*211 + int64(f), // same seeds across b: paired comparison
				TCP:          tcpCfg,
				Scenario:     "hsr",
			}
			m, err := cfg.analyzeFlow(sc)
			if err != nil {
				return nil, err
			}
			tput.Add(m.ThroughputPps)
			acks.Add(float64(m.AcksSent) / cfg.FlowDuration.Seconds())
			aloss.Add(m.AckLossRate)
			pt.TimeoutSequences += m.TimeoutSequences
			pt.SpuriousTimeouts += m.SpuriousTimeouts
		}
		pt.MeanTputPps = tput.Mean()
		pt.MeanAcksPerSec = acks.Mean()
		pt.MeanAckLoss = aloss.Mean()
		res.Points = append(res.Points, pt)
	}
	return res, nil
}

// Section prints the sweep.
func (r *DelayedAckResult) Section() export.Section {
	t := export.NewTable("receiver", "mean pps", "acks/s", "timeout seqs", "spurious", "p_a")
	for _, p := range r.Points {
		t.AddRow(p.Label, fmt.Sprintf("%.1f", p.MeanTputPps),
			fmt.Sprintf("%.0f", p.MeanAcksPerSec),
			fmt.Sprintf("%d", p.TimeoutSequences), fmt.Sprintf("%d", p.SpuriousTimeouts),
			export.Percent(p.MeanAckLoss))
	}
	var s export.Section
	s.Linef("Section V-A — delayed-ACK window sweep on %s HSR (%d flows per setting)", r.Operator, r.Flows)
	s.AddTable(t)
	s.Linef("fewer ACKs per round (larger b) leave fewer chances for one ACK to survive a burst — ACKs are \"precious\"")
	return s
}

// AblationVariant is one model variant's accuracy over the campaign.
type AblationVariant struct {
	Name  string
	MeanD float64
}

// SensitivityPoint is one analytic model evaluation.
type SensitivityPoint struct {
	X   float64
	Pps float64
}

// AblationResult is the Section IV model study: which ingredients of the
// enhanced model buy the accuracy, plus analytic sensitivity curves.
type AblationResult struct {
	Variants []AblationVariant
	// Sensitivity of Eq. (21) to P_a and to q around a typical HSR flow.
	PaSweep []SensitivityPoint
	QSweep  []SensitivityPoint
}

// ModelAblation evaluates model variants on the campaign and computes the
// analytic sensitivity curves.
func ModelAblation(ctx *Context) (*AblationResult, error) {
	type variant struct {
		name string
		eval func(*analysis.FlowMetrics) (float64, error)
	}
	variants := []variant{
		{"Padhye (full)", func(m *analysis.FlowMetrics) (float64, error) {
			return core.Padhye(core.ParamsFromMetrics(m))
		}},
		{"Padhye (sqrt approx)", func(m *analysis.FlowMetrics) (float64, error) {
			return core.PadhyeApprox(core.ParamsFromMetrics(m))
		}},
		{"Enhanced (paper, Pa=p_a^w)", func(m *analysis.FlowMetrics) (float64, error) {
			return core.Enhanced(core.ParamsFromMetrics(m))
		}},
		{"Enhanced (measured Pa)", func(m *analysis.FlowMetrics) (float64, error) {
			return core.Enhanced(core.ParamsFromMetricsMeasuredPa(m))
		}},
		{"Enhanced (consistent Eq.3)", func(m *analysis.FlowMetrics) (float64, error) {
			return core.EnhancedConsistent(core.ParamsFromMetrics(m))
		}},
	}
	res := &AblationResult{}
	for _, v := range variants {
		var ds []float64
		for _, m := range ctx.HSR.Metrics() {
			tp, err := v.eval(m)
			if err != nil {
				return nil, fmt.Errorf("experiments: %s on %s: %w", v.name, m.Meta.ID, err)
			}
			ds = append(ds, core.Deviation(tp, m.ThroughputPps))
		}
		res.Variants = append(res.Variants, AblationVariant{Name: v.name, MeanD: stats.Mean(ds)})
	}

	base := core.Params{
		RTT: 60 * time.Millisecond, T: 450 * time.Millisecond,
		B: 2, Wm: 28, PData: 0.005, PAck: 0.006, Q: 0.3, MeanWindow: 18,
	}
	for pa := 0.0; pa <= 0.051; pa += 0.005 {
		p := base
		p.AckBurst = pa
		tp, err := core.Enhanced(p)
		if err != nil {
			return nil, err
		}
		res.PaSweep = append(res.PaSweep, SensitivityPoint{X: pa, Pps: tp})
	}
	for q := 0.0; q <= 0.81; q += 0.08 {
		p := base
		p.Q = q
		tp, err := core.Enhanced(p)
		if err != nil {
			return nil, err
		}
		res.QSweep = append(res.QSweep, SensitivityPoint{X: q, Pps: tp})
	}
	return res, nil
}

// Section prints the variant table and sensitivity curves.
func (r *AblationResult) Section() export.Section {
	t := export.NewTable("model variant", "mean D")
	for _, v := range r.Variants {
		t.AddRow(v.Name, export.Percent(v.MeanD))
	}
	var s export.Section
	s.Linef("Model ablation — accuracy of model variants over the HSR campaign")
	s.AddTable(t)

	toXY := func(pts []SensitivityPoint) []export.XY {
		out := make([]export.XY, len(pts))
		for i, p := range pts {
			out[i] = export.XY{X: p.X, Y: p.Pps}
		}
		return out
	}
	pa := &export.Plot{Title: "Eq. 21 sensitivity to P_a (q=0.3 fixed)", XLabel: "P_a", YLabel: "pps", Height: 10}
	pa.Add("TP", '*', toXY(r.PaSweep))
	s.AddPlot(pa)
	q := &export.Plot{Title: "Eq. 21 sensitivity to q (P_a=p_a^w fixed)", XLabel: "q", YLabel: "pps", Height: 10}
	q.Add("TP", '*', toXY(r.QSweep))
	s.AddPlot(q)
	return s
}

// BackupQPoint is one seed's plain-vs-backup comparison.
type BackupQPoint struct {
	PlainQ         float64
	BackupQ        float64
	PlainRecovery  time.Duration
	BackupRecovery time.Duration
	PlainPps       float64
	BackupPps      float64
	BackupRetx     int
}

// BackupQResult is the Section V-B study: MPTCP backup-mode double
// retransmission against the recovery-phase loss rate q.
type BackupQResult struct {
	Operator string
	Points   []BackupQPoint
}

// BackupQ compares plain TCP with backup-mode MPTCP over several seeds.
func BackupQ(cfg Config) (*BackupQResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	trip, err := railway.NewTrip(railway.BeijingTianjin, railway.DefaultProfile)
	if err != nil {
		return nil, err
	}
	start, _ := trip.CruiseWindow()
	res := &BackupQResult{Operator: cellular.ChinaMobileLTE.Name}
	for i := 0; i < cfg.PairsPerOperator; i++ {
		sc := dataset.Scenario{
			ID:           fmt.Sprintf("backupq-%d", i),
			Operator:     cellular.ChinaMobileLTE,
			Trip:         trip,
			TripOffset:   start + time.Duration(i)*47*time.Second,
			FlowDuration: cfg.FlowDuration,
			Seed:         cfg.Seed*389 + int64(i),
			TCP:          defaultTCP(),
			Scenario:     "hsr",
		}
		plain, err := cfg.analyzeFlow(sc)
		if err != nil {
			return nil, err
		}
		backup, err := mptcp.RunBackup(sc)
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, BackupQPoint{
			PlainQ:         plain.RecoveryLossRate,
			BackupQ:        backup.Metrics.RecoveryLossRate,
			PlainRecovery:  plain.MeanRecoveryDuration,
			BackupRecovery: backup.Metrics.MeanRecoveryDuration,
			PlainPps:       plain.ThroughputPps,
			BackupPps:      backup.Metrics.ThroughputPps,
			BackupRetx:     backup.BackupRetransmits,
		})
	}
	return res, nil
}

// Means returns the study's aggregate quantities.
func (r *BackupQResult) Means() (plainQ, backupQ float64, plainRec, backupRec time.Duration) {
	var pq, bq stats.Running
	var pr, br time.Duration
	for _, p := range r.Points {
		pq.Add(p.PlainQ)
		bq.Add(p.BackupQ)
		pr += p.PlainRecovery
		br += p.BackupRecovery
	}
	n := time.Duration(len(r.Points))
	if n == 0 {
		return 0, 0, 0, 0
	}
	return pq.Mean(), bq.Mean(), pr / n, br / n
}

// Section prints the comparison.
func (r *BackupQResult) Section() export.Section {
	t := export.NewTable("seed", "plain q", "backup q", "plain recovery", "backup recovery", "plain pps", "backup pps", "backup retx")
	for i, p := range r.Points {
		t.AddRow(fmt.Sprintf("%d", i),
			export.Percent(p.PlainQ), export.Percent(p.BackupQ),
			fmt.Sprintf("%.2fs", p.PlainRecovery.Seconds()), fmt.Sprintf("%.2fs", p.BackupRecovery.Seconds()),
			fmt.Sprintf("%.1f", p.PlainPps), fmt.Sprintf("%.1f", p.BackupPps),
			fmt.Sprintf("%d", p.BackupRetx))
	}
	pq, bq, pr, br := r.Means()
	var s export.Section
	s.Linef("Section V-B — MPTCP backup-mode double retransmission (%s HSR)", r.Operator)
	s.AddTable(t)
	s.Linef("means: q %s -> %s; recovery %.2fs -> %.2fs",
		export.Percent(pq), export.Percent(bq), pr.Seconds(), br.Seconds())
	return s
}
