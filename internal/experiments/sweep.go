package experiments

import (
	"fmt"
	"time"

	"repro/internal/cellular"
	"repro/internal/dataset"
	"repro/internal/railway"
	"repro/internal/stats"
	"repro/internal/tcp"
)

// cruiseTrip is the paper's Beijing–Tianjin service at its default 300 km/h
// profile, the trip every cruise flow rides unless a study varies it.
var cruiseTrip = railway.Trip{Track: railway.BeijingTianjin, Profile: railway.DefaultProfile}

// cruiseFlow is the one scenario constructor of the cruise-flow studies: a
// default-TCP HSR flow of op starting offset into cruiseTrip's cruise
// window. A study that varies one field (trip, faults, operator, TCP
// settings, horizon) sets it on the returned value. The ID, seed and offset
// key the flow cache and seed every RNG stream of the flow, so each caller
// keeps its own formulas for them.
func cruiseFlow(cfg Config, op cellular.Operator, id string, seed int64, offset time.Duration) dataset.Scenario {
	start, _ := cruiseTrip.CruiseWindow()
	return dataset.Scenario{
		ID:           id,
		Operator:     op,
		Trip:         cruiseTrip,
		TripOffset:   start + offset,
		FlowDuration: cfg.FlowDuration,
		Seed:         seed,
		TCP:          tcp.DefaultConfig(),
		Scenario:     "hsr",
	}
}

// runSweep runs a levels × flows study through dataset.RunPlan, with the
// flow cache (cfg.Cache; nil simulates every flow) and cfg.Parallelism
// flows at once; flow builds the scenario of one cell, and is called level
// by level and within a level by flow index. It returns each level's flows
// in index order.
func runSweep(cfg Config, levels, flows int, flow func(level, i int) dataset.Scenario) ([][]dataset.CachedFlow, error) {
	plan := make([]dataset.PlannedFlow, 0, levels*flows)
	for l := 0; l < levels; l++ {
		for i := 0; i < flows; i++ {
			plan = append(plan, dataset.PlannedFlow{Index: len(plan), Scenario: flow(l, i)})
		}
	}
	outs, err := dataset.RunPlan(dataset.CampaignConfig{Parallelism: cfg.Parallelism, Cache: cfg.Cache}, plan, false)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	out := make([][]dataset.CachedFlow, levels)
	for l := range out {
		out[l] = make([]dataset.CachedFlow, flows)
		for i, o := range outs[l*flows : (l+1)*flows] {
			out[l][i] = o.Flow
		}
	}
	return out, nil
}

// flowMeans is the reduction every sweep level shares. Result types embed
// it, so its fields read as the level's own.
type flowMeans struct {
	MeanTputPps      float64
	MeanAckLoss      float64       // p_a
	MeanRecLoss      float64       // q, the recovery-phase retransmission loss
	TimeoutSequences int           // summed over the level's flows
	SpuriousTimeouts int           // summed over the level's flows
	MeanRecovery     time.Duration // mean over the flows that had a recovery
}

// meansOf reduces one level's flows.
func meansOf(flows []dataset.CachedFlow) flowMeans {
	var fm flowMeans
	var tput, aloss, rloss stats.Running
	var rec time.Duration
	var recN int
	for _, f := range flows {
		m := f.Metrics
		tput.Add(m.ThroughputPps)
		aloss.Add(m.AckLossRate)
		rloss.Add(m.RecoveryLossRate)
		fm.TimeoutSequences += m.TimeoutSequences
		fm.SpuriousTimeouts += m.SpuriousTimeouts
		if len(m.Recoveries) > 0 {
			rec += m.MeanRecoveryDuration
			recN++
		}
	}
	fm.MeanTputPps, fm.MeanAckLoss, fm.MeanRecLoss = tput.Mean(), aloss.Mean(), rloss.Mean()
	if recN > 0 {
		fm.MeanRecovery = rec / time.Duration(recN)
	}
	return fm
}
