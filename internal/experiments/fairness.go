package experiments

import (
	"fmt"
	"time"

	"repro/internal/cellular"
	"repro/internal/dataset"
	"repro/internal/export"
	"repro/internal/faults"
	"repro/internal/tcp"
	"repro/internal/telemetry"
)

// fairnessFlowsPerGroup is how many same-variant flows contend for the
// shared cell in each fairness group.
const fairnessFlowsPerGroup = 4

// FairnessGroup is one shared-bottleneck contention group: n flows over one
// emulated cell, with per-flow outcomes and Jain's fairness index.
type FairnessGroup struct {
	Label     string // "<variant>/<condition>" or "mix/<condition>"
	Condition string // "clean" or "storm"
	Jain      float64
	Flows     []dataset.ContendedResult
}

// AggregateTputPps sums the group's per-flow throughputs.
func (g *FairnessGroup) AggregateTputPps() float64 {
	var sum float64
	for _, f := range g.Flows {
		sum += f.ThroughputPps()
	}
	return sum
}

// Retransmissions sums the group's retransmission counts.
func (g *FairnessGroup) Retransmissions() int64 {
	var n int64
	for _, f := range g.Flows {
		n += f.Stats.Retransmissions
	}
	return n
}

// telemetryGroup converts the group to its report form.
func (g *FairnessGroup) telemetryGroup(experiment string) telemetry.CCGroup {
	out := telemetry.CCGroup{Experiment: experiment, Label: g.Label, JainIndex: g.Jain}
	for _, f := range g.Flows {
		out.Flows = append(out.Flows, telemetry.CCFlowResult{
			ID:              f.ID,
			CC:              f.CC,
			ThroughputPps:   f.ThroughputPps(),
			Retransmissions: f.Stats.Retransmissions,
			Timeouts:        f.Stats.Timeouts,
			FastRetransmits: f.Stats.FastRetransmits,
		})
	}
	return out
}

// FairnessResult compares intra-variant fairness: for every congestion-
// control variant, N same-variant flows share one cell, on a clean HSR
// channel and again under a handoff-storm fault schedule.
type FairnessResult struct {
	Operator string
	Groups   []FairnessGroup
}

// fairnessConditions are the channel conditions every group runs under:
// the plain HSR channel, and the same channel with the scripted stress
// schedule (handoff storm, blackout, ACK burst, rate collapse) layered on.
func fairnessConditions(flowDur time.Duration) []struct {
	name     string
	schedule *faults.Schedule
} {
	return []struct {
		name     string
		schedule *faults.Schedule
	}{
		{name: "clean"},
		{name: "storm", schedule: faults.Stress(flowDur)},
	}
}

// contendedGroup runs one shared-bottleneck group of len(variants) flows,
// one per listed variant (repeat a variant to get same-CC contention).
// Seeds are derived from cfg.Seed, the group ordinal and the flow index, so
// every group is reproducible and distinct.
func contendedGroup(cfg Config, groupOrdinal int64, variants []tcp.Variant, schedule *faults.Schedule) ([]dataset.ContendedResult, error) {
	flows := make([]dataset.Scenario, len(variants))
	for i, v := range variants {
		flows[i] = cruiseFlow(cfg, cellular.ChinaMobileLTE, fmt.Sprintf("cc-%d-%s-%d", groupOrdinal, v, i),
			cfg.Seed*700_001+groupOrdinal*10_007+int64(i), time.Duration(i)*17*time.Second)
		flows[i].TCP.Variant = v
		flows[i].Faults = schedule
	}
	return dataset.RunContended(dataset.ContendedConfig{Flows: flows})
}

// Fairness runs the intra-variant shared-bottleneck comparison.
func Fairness(cfg Config) (*FairnessResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	res := &FairnessResult{Operator: cellular.ChinaMobileLTE.Name}
	ordinal := int64(0)
	for _, v := range tcp.Variants() {
		variants := make([]tcp.Variant, fairnessFlowsPerGroup)
		for i := range variants {
			variants[i] = v
		}
		for _, cond := range fairnessConditions(cfg.FlowDuration) {
			ordinal++
			flows, err := contendedGroup(cfg, ordinal, variants, cond.schedule)
			if err != nil {
				return nil, err
			}
			tputs := make([]float64, len(flows))
			for i, f := range flows {
				tputs[i] = f.ThroughputPps()
			}
			res.Groups = append(res.Groups, FairnessGroup{
				Label:     v.String() + "/" + cond.name,
				Condition: cond.name,
				Jain:      dataset.JainIndex(tputs),
				Flows:     flows,
			})
		}
	}
	return res, nil
}

// Section prints the per-variant fairness table.
func (r *FairnessResult) Section() export.Section {
	t := export.NewTable("group", "flows", "sum pps", "jain", "retx", "timeouts", "fast retx")
	for i := range r.Groups {
		g := &r.Groups[i]
		var timeouts, fastRetx int64
		for _, f := range g.Flows {
			timeouts += f.Stats.Timeouts
			fastRetx += f.Stats.FastRetransmits
		}
		t.AddRow(g.Label, fmt.Sprintf("%d", len(g.Flows)),
			fmt.Sprintf("%.1f", g.AggregateTputPps()), fmt.Sprintf("%.4f", g.Jain),
			fmt.Sprintf("%d", g.Retransmissions()),
			fmt.Sprintf("%d", timeouts), fmt.Sprintf("%d", fastRetx))
	}
	var s export.Section
	s.Linef("Shared-bottleneck fairness — %d same-variant flows per group on %s HSR",
		fairnessFlowsPerGroup, r.Operator)
	s.AddTable(t)
	s.Linef("Jain's index over per-flow throughput: 1.0 = perfectly fair.")
	s.Linef("Storm groups layer the scripted stress schedule (handoff storm, blackout,")
	s.Linef("ACK burst, rate collapse) over every contending flow.")
	return s
}

// CCMixResult is the heterogeneous counterpart: one flow per variant, all
// five sharing the cell, clean and under the stress schedule — the mixed-CC
// regime of Poojary & Sharma.
type CCMixResult struct {
	Operator string
	Groups   []FairnessGroup
}

// CCMix runs the mixed-variant shared-bottleneck comparison.
func CCMix(cfg Config) (*CCMixResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	res := &CCMixResult{Operator: cellular.ChinaMobileLTE.Name}
	// Ordinals continue past the fairness groups so the two experiments
	// never share flow seeds.
	ordinal := int64(1000)
	for _, cond := range fairnessConditions(cfg.FlowDuration) {
		ordinal++
		flows, err := contendedGroup(cfg, ordinal, tcp.Variants(), cond.schedule)
		if err != nil {
			return nil, err
		}
		tputs := make([]float64, len(flows))
		for i, f := range flows {
			tputs[i] = f.ThroughputPps()
		}
		res.Groups = append(res.Groups, FairnessGroup{
			Label:     "mix/" + cond.name,
			Condition: cond.name,
			Jain:      dataset.JainIndex(tputs),
			Flows:     flows,
		})
	}
	return res, nil
}

// Section prints the per-variant share table for each mixed group.
func (r *CCMixResult) Section() export.Section {
	t := export.NewTable("group", "cc", "pps", "share", "retx", "timeouts", "fast retx")
	for i := range r.Groups {
		g := &r.Groups[i]
		total := g.AggregateTputPps()
		for _, f := range g.Flows {
			share := 0.0
			if total > 0 {
				share = f.ThroughputPps() / total
			}
			t.AddRow(g.Label, f.CC, fmt.Sprintf("%.1f", f.ThroughputPps()),
				fmt.Sprintf("%.1f%%", share*100), fmt.Sprintf("%d", f.Stats.Retransmissions),
				fmt.Sprintf("%d", f.Stats.Timeouts), fmt.Sprintf("%d", f.Stats.FastRetransmits))
		}
	}
	var s export.Section
	s.Linef("Mixed congestion control — one flow per variant sharing one %s cell", r.Operator)
	s.AddTable(t)
	for i := range r.Groups {
		g := &r.Groups[i]
		s.Linef("%s: Jain %.4f over %d heterogeneous flows", g.Label, g.Jain, len(g.Flows))
	}
	return s
}
