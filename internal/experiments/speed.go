package experiments

import (
	"fmt"
	"time"

	"repro/internal/cellular"
	"repro/internal/dataset"
	"repro/internal/export"
	"repro/internal/railway"
)

// SpeedPoint is one cruise-speed level's outcome.
type SpeedPoint struct {
	SpeedKmh float64
	flowMeans
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
	speeds := []float64{0, 100, 200, 300}
	trips := make([]railway.Trip, len(speeds))
	for l, speed := range speeds {
		profile := railway.StationaryProfile
		if speed > 0 {
			profile = railway.SpeedProfile{CruiseKmh: speed, AccelMS2: 0.35}
		}
		var err error
		if trips[l], err = railway.NewTrip(railway.BeijingTianjin, profile); err != nil {
			return nil, err
		}
	}
	levels, err := runSweep(cfg, len(speeds), flows, func(l, i int) dataset.Scenario {
		sc := cruiseFlow(cfg, cellular.ChinaMobileLTE, fmt.Sprintf("speed-%.0f-%d", speeds[l], i), cfg.Seed*271+int64(i), 0)
		sc.Trip, sc.TripOffset = trips[l], 0
		if !sc.Trip.Stationary() {
			start, _ := sc.Trip.CruiseWindow()
			sc.TripOffset = start + time.Duration(i)*23*time.Second
		}
		sc.Scenario = fmt.Sprintf("speed-%.0f", speeds[l])
		return sc
	})
	if err != nil {
		return nil, err
	}
	for l, speed := range speeds {
		res.Points = append(res.Points, SpeedPoint{SpeedKmh: speed, flowMeans: meansOf(levels[l])})
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
