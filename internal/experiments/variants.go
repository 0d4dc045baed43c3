package experiments

import (
	"fmt"
	"time"

	"repro/internal/cellular"
	"repro/internal/dataset"
	"repro/internal/export"
	"repro/internal/tcp"
)

// VariantOutcome summarizes one congestion-control variant on the HSR
// channel.
type VariantOutcome struct {
	Name string
	flowMeans
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
	flows := cfg.PairsPerOperator * 2
	res := &VariantsResult{Operator: cellular.ChinaMobileLTE.Name, Flows: flows}
	variants := []tcp.Variant{tcp.VariantReno, tcp.VariantNewReno}
	levels, err := runSweep(cfg, len(variants), flows, func(l, i int) dataset.Scenario {
		sc := cruiseFlow(cfg, cellular.ChinaMobileLTE, fmt.Sprintf("variant-%s-%d", variants[l], i),
			cfg.Seed*449+int64(i), time.Duration(i)*31*time.Second) // seeds paired across variants
		sc.TCP.Variant = variants[l]
		return sc
	})
	if err != nil {
		return nil, err
	}
	for l, v := range variants {
		res.Outcomes = append(res.Outcomes, VariantOutcome{Name: v.String(), flowMeans: meansOf(levels[l])})
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
