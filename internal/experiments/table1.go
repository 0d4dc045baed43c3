package experiments

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/export"
	"repro/internal/stats"
)

// Table1Row pairs one row of the paper's Table I with the synthetic
// campaign's measurements for that row.
type Table1Row struct {
	Row dataset.TableRow

	SimFlows      int
	SimGB         float64 // payload delivered across the row's flows
	MeanTputMbps  float64
	MeanDataLoss  float64
	MeanAckLoss   float64
	TimeoutSeqSum int
}

// Table1Result reproduces the dataset summary (paper Table I).
type Table1Result struct {
	Rows        []Table1Row
	TotalFlows  int
	TotalSimGB  float64
	FlowSeconds float64
}

// Table1 summarizes the HSR campaign in the shape of the paper's Table I.
func Table1(ctx *Context) *Table1Result {
	res := &Table1Result{}
	byRow := map[string][]*rowAgg{}
	order := []string{}
	for _, r := range ctx.HSR.Results {
		k := r.Row.Month + "|" + r.Row.Operator.Name
		if _, ok := byRow[k]; !ok {
			order = append(order, k)
		}
		byRow[k] = append(byRow[k], &rowAgg{res: r})
	}
	for _, k := range order {
		aggs := byRow[k]
		row := Table1Row{Row: aggs[0].res.Row, SimFlows: len(aggs)}
		var tput, dloss, aloss stats.Running
		for _, a := range aggs {
			m := a.res.Metrics
			row.SimGB += float64(m.UniqueDelivered) * float64(m.Meta.MSS) / 1e9
			tput.Add(m.ThroughputBps / 1e6)
			dloss.Add(m.DataLossRate)
			aloss.Add(m.AckLossRate)
			row.TimeoutSeqSum += m.TimeoutSequences
		}
		row.MeanTputMbps = tput.Mean()
		row.MeanDataLoss = dloss.Mean()
		row.MeanAckLoss = aloss.Mean()
		res.Rows = append(res.Rows, row)
		res.TotalFlows += row.SimFlows
		res.TotalSimGB += row.SimGB
	}
	res.FlowSeconds = ctx.Cfg.FlowDuration.Seconds() * float64(res.TotalFlows)
	return res
}

type rowAgg struct{ res dataset.FlowResult }

// Section prints the table with paper and campaign totals.
func (r *Table1Result) Section() export.Section {
	t := export.NewTable("Month", "Provider", "Paper flows", "Paper GB", "Sim flows", "Sim GB", "Mean Mbps", "p_d", "p_a", "TO seqs")
	for _, row := range r.Rows {
		t.AddRow(
			row.Row.Month, row.Row.Operator.Name,
			fmt.Sprintf("%d", row.Row.Flows), fmt.Sprintf("%.2f", row.Row.TraceGB),
			fmt.Sprintf("%d", row.SimFlows), fmt.Sprintf("%.3f", row.SimGB),
			fmt.Sprintf("%.2f", row.MeanTputMbps),
			export.Percent(row.MeanDataLoss), export.Percent(row.MeanAckLoss),
			fmt.Sprintf("%d", row.TimeoutSeqSum),
		)
	}
	var paperFlows int
	var paperGB float64
	for _, row := range dataset.TableI() {
		paperFlows += row.Flows
		paperGB += row.TraceGB
	}
	var s export.Section
	s.Linef("Table I — dataset (paper vs synthetic campaign)")
	s.AddTable(t)
	s.Linef("totals: paper %d flows / %.2f GB; campaign %d flows / %.3f GB simulated payload (%.0f flow-seconds)",
		paperFlows, paperGB, r.TotalFlows, r.TotalSimGB, r.FlowSeconds)
	return s
}
