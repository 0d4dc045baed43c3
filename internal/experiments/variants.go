package experiments

import (
	"fmt"
	"time"

	"repro/internal/cellular"
	"repro/internal/dataset"
	"repro/internal/export"
	"repro/internal/railway"
	"repro/internal/stats"
	"repro/internal/tcp"
)

// VariantOutcome summarizes one congestion-control variant on the HSR
// channel.
type VariantOutcome struct {
	Name             string
	MeanTputPps      float64
	TimeoutSequences int
	SpuriousTimeouts int
	MeanRecovery     time.Duration
}

// VariantsResult compares TCP Reno (the paper's subject) with NewReno on
// the same HSR flows. The paper models Reno "since TCP Reno is the basis of
// the other TCP versions"; this extension quantifies how much of the HSR
// damage NewReno's partial-ACK recovery repairs — and how much remains,
// because handoff outages stall ACKs entirely and no dup-ACK machinery can
// help then.
type VariantsResult struct {
	Operator string
	Outcomes []VariantOutcome
	Flows    int
}

// Variants runs both variants over paired seeds on China Mobile's channel.
func Variants(cfg Config) (*VariantsResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	trip, err := railway.NewTrip(railway.BeijingTianjin, railway.DefaultProfile)
	if err != nil {
		return nil, err
	}
	start, _ := trip.CruiseWindow()
	flows := cfg.PairsPerOperator * 2
	res := &VariantsResult{Operator: cellular.ChinaMobileLTE.Name, Flows: flows}
	for _, v := range []tcp.Variant{tcp.VariantReno, tcp.VariantNewReno} {
		tcpCfg := defaultTCP()
		tcpCfg.Variant = v
		var tput stats.Running
		var rec time.Duration
		var recN int
		out := VariantOutcome{Name: v.String()}
		for i := 0; i < flows; i++ {
			sc := dataset.Scenario{
				ID:           fmt.Sprintf("variant-%s-%d", v, i),
				Operator:     cellular.ChinaMobileLTE,
				Trip:         trip,
				TripOffset:   start + time.Duration(i)*31*time.Second,
				FlowDuration: cfg.FlowDuration,
				Seed:         cfg.Seed*449 + int64(i), // paired across variants
				TCP:          tcpCfg,
				Scenario:     "hsr",
			}
			m, err := cfg.analyzeFlow(sc)
			if err != nil {
				return nil, err
			}
			tput.Add(m.ThroughputPps)
			out.TimeoutSequences += m.TimeoutSequences
			out.SpuriousTimeouts += m.SpuriousTimeouts
			if len(m.Recoveries) > 0 {
				rec += m.MeanRecoveryDuration
				recN++
			}
		}
		out.MeanTputPps = tput.Mean()
		if recN > 0 {
			out.MeanRecovery = rec / time.Duration(recN)
		}
		res.Outcomes = append(res.Outcomes, out)
	}
	return res, nil
}

// Section prints the comparison.
func (r *VariantsResult) Section() export.Section {
	t := export.NewTable("variant", "mean pps", "timeout seqs", "spurious", "mean recovery")
	for _, o := range r.Outcomes {
		t.AddRow(o.Name, fmt.Sprintf("%.1f", o.MeanTputPps),
			fmt.Sprintf("%d", o.TimeoutSequences), fmt.Sprintf("%d", o.SpuriousTimeouts),
			fmt.Sprintf("%.2fs", o.MeanRecovery.Seconds()))
	}
	var s export.Section
	s.Linef("Variant comparison — Reno vs NewReno on %s HSR (%d flows each)", r.Operator, r.Flows)
	s.AddTable(t)
	s.Linef("NewReno repairs multi-loss windows but not the ACK-starved handoff timeouts —")
	s.Linef("the paper's HSR bottlenecks are variant-independent")
	return s
}
