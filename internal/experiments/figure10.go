package experiments

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/export"
	"repro/internal/stats"
)

// ModelFit is one flow's model-vs-measurement comparison.
type ModelFit struct {
	FlowID     string
	Operator   string
	ActualPps  float64
	PadhyePps  float64
	EnhPps     float64
	DPadhye    float64 // the paper's D, Eq. (22)
	DEnhanced  float64
	Params     core.Params
	WindowCase bool // true when the window-limited branch applied
}

// Figure10Operator aggregates one carrier.
type Figure10Operator struct {
	Name         string
	Flows        []ModelFit
	MeanDPadhye  float64
	MeanDEnh     float64
	MedianDPad   float64
	MedianDEnh   float64
	WorstDPadhye float64
}

// Figure10Result reproduces the model-accuracy comparison (paper Fig 10):
// the absolute deviation D of the Padhye model and of the enhanced model,
// per flow and averaged per carrier.
type Figure10Result struct {
	Operators   []Figure10Operator
	MeanDPadhye float64
	MeanDEnh    float64
	ImprovePts  float64 // percentage-point improvement
}

// Figure10 evaluates both models on every flow of the HSR campaign.
func Figure10(ctx *Context) (*Figure10Result, error) {
	res := &Figure10Result{}
	names, groups := ctx.HSR.ByOperator()
	var allPad, allEnh []float64
	for _, name := range names {
		op := Figure10Operator{Name: name}
		var padDs, enhDs []float64
		for _, m := range groups[name] {
			fit, err := fitModels(m)
			if err != nil {
				return nil, err
			}
			op.Flows = append(op.Flows, fit)
			padDs = append(padDs, fit.DPadhye)
			enhDs = append(enhDs, fit.DEnhanced)
			if fit.DPadhye > op.WorstDPadhye {
				op.WorstDPadhye = fit.DPadhye
			}
		}
		op.MeanDPadhye = stats.Mean(padDs)
		op.MeanDEnh = stats.Mean(enhDs)
		op.MedianDPad = stats.Median(padDs)
		op.MedianDEnh = stats.Median(enhDs)
		allPad = append(allPad, padDs...)
		allEnh = append(allEnh, enhDs...)
		res.Operators = append(res.Operators, op)
	}
	res.MeanDPadhye = stats.Mean(allPad)
	res.MeanDEnh = stats.Mean(allEnh)
	res.ImprovePts = res.MeanDPadhye - res.MeanDEnh
	return res, nil
}

// fitModels estimates parameters from one flow and evaluates both models.
func fitModels(m *analysis.FlowMetrics) (ModelFit, error) {
	prm := core.ParamsFromMetrics(m)
	pad, err := core.Padhye(prm)
	if err != nil {
		return ModelFit{}, fmt.Errorf("experiments: padhye on %s: %w", m.Meta.ID, err)
	}
	enh, err := core.Enhanced(prm)
	if err != nil {
		return ModelFit{}, fmt.Errorf("experiments: enhanced on %s: %w", m.Meta.ID, err)
	}
	return ModelFit{
		FlowID:    m.Meta.ID,
		Operator:  m.Meta.Operator,
		ActualPps: m.ThroughputPps,
		PadhyePps: pad,
		EnhPps:    enh,
		DPadhye:   core.Deviation(pad, m.ThroughputPps),
		DEnhanced: core.Deviation(enh, m.ThroughputPps),
		Params:    prm,
	}, nil
}

// Section prints the per-carrier comparison; its CSV series holds every
// flow's model fits.
func (r *Figure10Result) Section() export.Section {
	t := export.NewTable("provider", "flows", "mean D Padhye", "mean D enhanced", "median D Padhye", "median D enhanced", "worst D Padhye")
	for _, op := range r.Operators {
		t.AddRow(op.Name, fmt.Sprintf("%d", len(op.Flows)),
			export.Percent(op.MeanDPadhye), export.Percent(op.MeanDEnh),
			export.Percent(op.MedianDPad), export.Percent(op.MedianDEnh),
			export.Percent(op.WorstDPadhye))
	}
	var s export.Section
	s.Linef("Fig 10 — model accuracy: deviation D = |TP_model - TP_trace| / TP_trace")
	s.AddTable(t)
	s.Linef("overall mean D: Padhye %s (paper %s), enhanced %s (paper %s), improvement %.1f points (paper %.1f)",
		export.Percent(r.MeanDPadhye), paper.DPadhye.Text, export.Percent(r.MeanDEnh), paper.DEnhanced.Text,
		r.ImprovePts*100, (paper.DPadhye.Value-paper.DEnhanced.Value)*100)
	csv := export.NewTable("flow", "operator", "actual_pps", "padhye_pps", "enhanced_pps", "D_padhye", "D_enhanced")
	for _, op := range r.Operators {
		for _, f := range op.Flows {
			csv.AddRow(f.FlowID, f.Operator,
				fmt.Sprintf("%.3f", f.ActualPps),
				fmt.Sprintf("%.3f", f.PadhyePps), fmt.Sprintf("%.3f", f.EnhPps),
				fmt.Sprintf("%.5f", f.DPadhye), fmt.Sprintf("%.5f", f.DEnhanced))
		}
	}
	s.CSVName, s.CSV = "fig10_model_fits", csv
	return s
}
