package experiments

import (
	"fmt"
	"time"

	"repro/internal/cellular"
	"repro/internal/dataset"
	"repro/internal/export"
	"repro/internal/railway"
	"repro/internal/stats"
)

// SpeedPoint is one cruise-speed level's outcome.
type SpeedPoint struct {
	SpeedKmh         float64
	MeanTputPps      float64
	MeanAckLoss      float64
	TimeoutSequences int
	MeanRecovery     time.Duration
}

// SpeedSweepResult reproduces the premise the paper builds on (its
// Section II cites measurements showing driving at 100 km/h barely hurts
// TCP while 300 km/h devastates it): throughput and timeout behaviour as a
// function of cruise speed on the same carrier. Speed acts through two
// mechanisms — the handoff rate (boundary crossings per second) and the
// Doppler-driven residual loss — both of which scale with velocity in the
// channel model.
type SpeedSweepResult struct {
	Operator string
	Points   []SpeedPoint
	Flows    int
}

// SpeedSweep measures China Mobile flows at 0, 100, 200 and 300 km/h.
func SpeedSweep(cfg Config) (*SpeedSweepResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	flows := cfg.PairsPerOperator * 2
	res := &SpeedSweepResult{Operator: cellular.ChinaMobileLTE.Name, Flows: flows}
	for _, speed := range []float64{0, 100, 200, 300} {
		profile := railway.StationaryProfile
		if speed > 0 {
			profile = railway.SpeedProfile{CruiseKmh: speed, AccelMS2: 0.35}
		}
		trip, err := railway.NewTrip(railway.BeijingTianjin, profile)
		if err != nil {
			return nil, err
		}
		var offsetBase time.Duration
		if !trip.Stationary() {
			offsetBase, _ = trip.CruiseWindow()
		}
		pt := SpeedPoint{SpeedKmh: speed}
		var tput, aloss stats.Running
		var rec time.Duration
		var recN int
		for i := 0; i < flows; i++ {
			offset := offsetBase
			if !trip.Stationary() {
				offset += time.Duration(i) * 23 * time.Second
			}
			sc := dataset.Scenario{
				ID:           fmt.Sprintf("speed-%.0f-%d", speed, i),
				Operator:     cellular.ChinaMobileLTE,
				Trip:         trip,
				TripOffset:   offset,
				FlowDuration: cfg.FlowDuration,
				Seed:         cfg.Seed*271 + int64(i),
				TCP:          defaultTCP(),
				Scenario:     fmt.Sprintf("speed-%.0f", speed),
			}
			m, err := cfg.analyzeFlow(sc)
			if err != nil {
				return nil, err
			}
			tput.Add(m.ThroughputPps)
			aloss.Add(m.AckLossRate)
			pt.TimeoutSequences += m.TimeoutSequences
			if len(m.Recoveries) > 0 {
				rec += m.MeanRecoveryDuration
				recN++
			}
		}
		pt.MeanTputPps = tput.Mean()
		pt.MeanAckLoss = aloss.Mean()
		if recN > 0 {
			pt.MeanRecovery = rec / time.Duration(recN)
		}
		res.Points = append(res.Points, pt)
	}
	return res, nil
}

// Section prints the sweep.
func (r *SpeedSweepResult) Section() export.Section {
	t := export.NewTable("speed km/h", "mean pps", "p_a", "timeout seqs", "mean recovery")
	for _, p := range r.Points {
		t.AddRow(fmt.Sprintf("%.0f", p.SpeedKmh), fmt.Sprintf("%.1f", p.MeanTputPps),
			export.Percent(p.MeanAckLoss), fmt.Sprintf("%d", p.TimeoutSequences),
			fmt.Sprintf("%.2fs", p.MeanRecovery.Seconds()))
	}
	var s export.Section
	s.Linef("Speed sweep — %s, %d flows per level", r.Operator, r.Flows)
	s.AddTable(t)
	s.Linef("driving speeds dent throughput; 300 km/h collapses it (the premise the paper cites)")
	return s
}
