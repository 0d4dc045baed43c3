package experiments

import (
	"fmt"
	"time"

	"repro/internal/analysis"
	"repro/internal/export"
	"repro/internal/stats"
)

// Figure3Result compares the loss rate of retransmitted packets inside
// timeout recovery phases (the paper's q) with the lifetime data loss rate
// p_d across the HSR campaign's flows (paper Fig 3).
type Figure3Result struct {
	RecoveryLoss []float64 // per flow with >= 1 recovery
	LifetimeLoss []float64 // per flow
	MeanRecovery float64
	MeanLifetime float64
}

// Figure3 extracts both loss-rate distributions from the campaign.
func Figure3(ctx *Context) *Figure3Result {
	res := &Figure3Result{}
	for _, m := range ctx.HSR.Metrics() {
		res.LifetimeLoss = append(res.LifetimeLoss, m.DataLossRate)
		if len(m.Recoveries) > 0 {
			res.RecoveryLoss = append(res.RecoveryLoss, m.RecoveryLossRate)
		}
	}
	res.MeanRecovery = stats.Mean(res.RecoveryLoss)
	res.MeanLifetime = stats.Mean(res.LifetimeLoss)
	return res
}

// Section draws both CDFs on one canvas; its CSV series holds every flow's
// recovery-phase and lifetime loss rate.
func (r *Figure3Result) Section() export.Section {
	plot := &export.Plot{
		Title:  "Fig 3 — CDF of recovery-phase loss rate q vs lifetime data loss rate",
		XLabel: "loss rate",
		YLabel: "CDF",
		Height: 16,
	}
	plot.Add("q (recovery)", 'q', cdfPoints(r.RecoveryLoss))
	plot.Add("p_d (lifetime)", 'p', cdfPoints(r.LifetimeLoss))
	var s export.Section
	s.AddPlot(plot)
	s.Linef("mean q = %s (paper %s);  mean p_d = %s (paper %s)",
		export.Percent(r.MeanRecovery), paper.RecoveryLoss.Text,
		export.Percent(r.MeanLifetime), export.Percent(paper.DataLossHSR.Value))
	csv := export.NewTable("series", "loss_rate")
	for _, v := range r.RecoveryLoss {
		csv.AddRow("recovery_q", fmt.Sprintf("%.6f", v))
	}
	for _, v := range r.LifetimeLoss {
		csv.AddRow("lifetime_pd", fmt.Sprintf("%.6f", v))
	}
	s.CSVName, s.CSV = "fig3_loss_rates", csv
	return s
}

// Figure4Result is the per-flow scatter of ACK loss rate against timeout
// probability with its correlation statistics (paper Fig 4).
type Figure4Result struct {
	AckLoss     []float64
	TimeoutProb []float64
	Pearson     float64
	Spearman    float64
	Fit         stats.Regression
}

// Figure4 computes the correlation across the HSR campaign.
func Figure4(ctx *Context) *Figure4Result {
	res := &Figure4Result{}
	for _, m := range ctx.HSR.Metrics() {
		if m.TimeoutSequences+m.FastRetransmits == 0 {
			continue
		}
		res.AckLoss = append(res.AckLoss, m.AckLossRate)
		res.TimeoutProb = append(res.TimeoutProb, m.TimeoutProbability)
	}
	res.Pearson = stats.Pearson(res.AckLoss, res.TimeoutProb)
	res.Spearman = stats.Spearman(res.AckLoss, res.TimeoutProb)
	res.Fit = stats.LinearFit(res.AckLoss, res.TimeoutProb)
	return res
}

// Section draws the scatter and prints the correlation; its CSV series is
// the scatter itself.
func (r *Figure4Result) Section() export.Section {
	pts := make([]export.XY, len(r.AckLoss))
	for i := range r.AckLoss {
		pts[i] = export.XY{X: r.AckLoss[i], Y: r.TimeoutProb[i]}
	}
	plot := &export.Plot{
		Title:  "Fig 4 — ACK loss rate vs probability of timeout events (one point per flow)",
		XLabel: "ACK loss rate p_a",
		YLabel: "P(loss indication is a timeout)",
		Height: 16,
	}
	plot.Add("flow", '*', pts)
	var s export.Section
	s.AddPlot(plot)
	s.Linef("flows=%d  Pearson r=%.3f  Spearman rho=%.3f  fit slope=%.2f (R2=%.3f)",
		len(pts), r.Pearson, r.Spearman, r.Fit.Slope, r.Fit.R2)
	s.Linef("paper: clear positive (though not strong) correlation — timeouts grow with ACK loss")
	csv := export.NewTable("ack_loss_rate", "timeout_probability")
	for i := range r.AckLoss {
		csv.AddRow(fmt.Sprintf("%.6f", r.AckLoss[i]), fmt.Sprintf("%.6f", r.TimeoutProb[i]))
	}
	s.CSVName, s.CSV = "fig4_ack_vs_timeouts", csv
	return s
}

// Figure6Result compares the ACK loss rate distributions of the HSR and
// stationary campaigns (paper Fig 6).
type Figure6Result struct {
	HSR            []float64
	Stationary     []float64
	MeanHSR        float64
	MeanStationary float64
}

// Figure6 extracts per-flow ACK loss rates for both scenarios.
func Figure6(ctx *Context) *Figure6Result {
	res := &Figure6Result{}
	for _, m := range ctx.HSR.Metrics() {
		res.HSR = append(res.HSR, m.AckLossRate)
	}
	for _, m := range ctx.Stationary.Metrics() {
		res.Stationary = append(res.Stationary, m.AckLossRate)
	}
	res.MeanHSR = stats.Mean(res.HSR)
	res.MeanStationary = stats.Mean(res.Stationary)
	return res
}

// Section draws both CDFs; its CSV series holds every flow's ACK loss rate.
func (r *Figure6Result) Section() export.Section {
	plot := &export.Plot{
		Title:  "Fig 6 — CDF of ACK loss rate: high-speed vs stationary",
		XLabel: "ACK loss rate",
		YLabel: "CDF",
		Height: 16,
	}
	plot.Add("HSR", 'h', cdfPoints(r.HSR))
	plot.Add("stationary", 's', cdfPoints(r.Stationary))
	var s export.Section
	s.AddPlot(plot)
	s.Linef("mean ACK loss: HSR %s (paper %s);  stationary %s (paper %s)",
		export.Percent(r.MeanHSR), export.Percent(paper.AckLossHSR.Value),
		export.Percent(r.MeanStationary), export.Percent(paper.AckLossStationary.Value))
	csv := export.NewTable("scenario", "ack_loss_rate")
	for _, v := range r.HSR {
		csv.AddRow("hsr", fmt.Sprintf("%.6f", v))
	}
	for _, v := range r.Stationary {
		csv.AddRow("stationary", fmt.Sprintf("%.6f", v))
	}
	s.CSVName, s.CSV = "fig6_ack_loss", csv
	return s
}

// cdfPoints converts a sample into CDF curve points for plotting.
func cdfPoints(xs []float64) []export.XY {
	c := stats.NewCDF(xs)
	pts := c.Points(min(64, max(1, len(xs))))
	out := make([]export.XY, len(pts))
	for i, p := range pts {
		out[i] = export.XY{X: p.X, Y: p.P}
	}
	return out
}

// ScalarsResult carries the paper's headline measurement claims; the paper
// values they compare against are in the paper table.
type ScalarsResult struct {
	MeanRecoveryHSR        time.Duration
	MeanRecoveryStationary time.Duration
	SpuriousFraction       float64
	MeanDataLossHSR        float64
	MeanAckLossHSR         float64
	MeanAckLossStationary  float64
	HSRTimeoutSequences    int
	StationaryTimeoutSeqs  int
}

// Scalars aggregates the headline numbers from both campaigns.
func Scalars(ctx *Context) *ScalarsResult {
	h := ctxSummary(ctx, true)
	s := ctxSummary(ctx, false)
	return &ScalarsResult{
		MeanRecoveryHSR:        h.MeanRecoveryDuration,
		MeanRecoveryStationary: s.MeanRecoveryDuration,
		SpuriousFraction:       h.SpuriousFraction,
		MeanDataLossHSR:        h.MeanDataLossRate,
		MeanAckLossHSR:         h.MeanAckLossRate,
		MeanAckLossStationary:  s.MeanAckLossRate,
		HSRTimeoutSequences:    h.TotalTimeoutSeqs,
		StationaryTimeoutSeqs:  s.TotalTimeoutSeqs,
	}
}

func ctxSummary(ctx *Context, hsr bool) analysis.Summary {
	camp := ctx.Stationary
	if hsr {
		camp = ctx.HSR
	}
	return analysis.Summarize(camp.Metrics())
}

// Section prints paper-vs-measured for each claim.
func (r *ScalarsResult) Section() export.Section {
	t := export.NewTable("claim", "paper", "measured")
	t.AddRow("mean timeout recovery, HSR", paper.RecoveryHSR.Text, fmt.Sprintf("%.2f s", r.MeanRecoveryHSR.Seconds()))
	t.AddRow("mean timeout recovery, stationary", paper.RecoveryStationary.Text, fmt.Sprintf("%.2f s", r.MeanRecoveryStationary.Seconds()))
	t.AddRow("spurious timeout fraction", paper.SpuriousFraction.Text, export.Percent(r.SpuriousFraction))
	t.AddRow("mean data loss rate, HSR", paper.DataLossHSR.Text, export.Percent(r.MeanDataLossHSR))
	t.AddRow("mean ACK loss rate, HSR", paper.AckLossHSR.Text, export.Percent(r.MeanAckLossHSR))
	t.AddRow("mean ACK loss rate, stationary", paper.AckLossStationary.Text, export.Percent(r.MeanAckLossStationary))
	var s export.Section
	s.Linef("Headline measurement claims (Section III)")
	s.AddTable(t)
	s.Linef("timeout sequences: %d on the train, %d stationary",
		r.HSRTimeoutSequences, r.StationaryTimeoutSeqs)
	return s
}
