package experiments

import (
	"fmt"
	"time"

	"repro/internal/cellular"
	"repro/internal/export"
	"repro/internal/mptcp"
	"repro/internal/stats"
)

// Figure12Pair is one single-flow vs two-subflow comparison (fixed total
// transfer size, the paper's methodology).
type Figure12Pair struct {
	SinglePps   float64
	DuplexPps   float64
	Improvement float64
}

// Figure12Operator aggregates one carrier's pairs.
type Figure12Operator struct {
	Name            string
	Pairs           []Figure12Pair
	MeanImprovement float64 // mean of pairwise improvements, the paper's statistic
}

// Figure12Result reproduces the MPTCP comparison (paper Fig 12): the same
// total payload moved by one TCP flow vs two concurrent subflows with no
// shared bottleneck besides the cell's air interface.
type Figure12Result struct {
	Operators []Figure12Operator
}

// Figure12 runs the sized-flow comparison for every carrier.
func Figure12(cfg Config) (*Figure12Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// A generous horizon: dead zones can stall a sized flow for a long time.
	horizon := 10 * cfg.FlowDuration
	if horizon < 5*time.Minute {
		horizon = 5 * time.Minute
	}
	res := &Figure12Result{}
	for _, op := range cellular.Operators() {
		agg := Figure12Operator{Name: op.Name}
		var imps []float64
		for pair := 0; pair < cfg.PairsPerOperator; pair++ {
			sc := cruiseFlow(cfg, op, fmt.Sprintf("fig12-%s-%d", op.Name, pair),
				cfg.Seed*977+int64(pair), time.Duration(pair)*41*time.Second)
			sc.FlowDuration = horizon
			single, duplex, imp, err := mptcp.CompareSized(sc, cfg.SizedSegments)
			if err != nil {
				return nil, err
			}
			agg.Pairs = append(agg.Pairs, Figure12Pair{SinglePps: single, DuplexPps: duplex, Improvement: imp})
			imps = append(imps, imp)
		}
		agg.MeanImprovement = stats.Mean(imps)
		res.Operators = append(res.Operators, agg)
	}
	return res, nil
}

// Section prints the per-carrier improvements; its CSV series holds every
// pair.
func (r *Figure12Result) Section() export.Section {
	t := export.NewTable("provider", "pairs", "mean TCP pps", "mean MPTCP pps", "improvement", "paper")
	for _, op := range r.Operators {
		var s, d stats.Running
		for _, p := range op.Pairs {
			s.Add(p.SinglePps)
			d.Add(p.DuplexPps)
		}
		t.AddRow(op.Name, fmt.Sprintf("%d", len(op.Pairs)),
			fmt.Sprintf("%.1f", s.Mean()), fmt.Sprintf("%.1f", d.Mean()),
			export.Percent(op.MeanImprovement), paper.MPTCPGain[op.Name].Text)
	}
	var s export.Section
	s.Linef("Fig 12 — MPTCP (two subflows, same total size) vs TCP throughput")
	s.AddTable(t)
	s.Linef("paper ordering Mobile < Unicom < Telecom must hold; absolute factors depend on the synthetic channel")
	csv := export.NewTable("operator", "pair", "single_pps", "duplex_pps", "improvement")
	for _, op := range r.Operators {
		for i, p := range op.Pairs {
			csv.AddRow(op.Name, fmt.Sprintf("%d", i),
				fmt.Sprintf("%.3f", p.SinglePps), fmt.Sprintf("%.3f", p.DuplexPps),
				fmt.Sprintf("%.5f", p.Improvement))
		}
	}
	s.CSVName, s.CSV = "fig12_mptcp", csv
	return s
}
