// Package faults is a deterministic, seed-driven fault-injection layer for
// the emulated network stack. A Schedule is a script of timed fault
// episodes — extended coverage blackouts, handoff storms, ACK-direction
// burst-loss episodes, link-rate collapses, delay spikes — expressed in
// flow-local virtual time. Schedules compose with the existing substrate
// instead of replacing it:
//
//   - Schedule.WrapDataLoss / WrapAckLoss layer episode-driven loss over any
//     netem.LossModel;
//   - Schedule.WrapDelay adds episode delay inflation to any netem.DelayModel;
//   - Schedule.RateScale plugs into netem.LinkConfig.RateScale to collapse
//     the line rate during an episode;
//   - Schedule.StormOutages expands handoff-storm episodes into extra bearer
//     outages for cellular.Channel.AddOutages, so injected handoffs carry the
//     full semantics of real ones (probe loss, ACK loss, delay inflation);
//   - NewStage wraps any netem.Sender so chained stages (e.g. the MPTCP
//     shared cell) can be fault-injected too.
//
// All randomness is drawn from rngs derived from the flow seed on dedicated
// sim streams, so the same seed and schedule always produce the same packet
// trace, and an empty schedule perturbs nothing. Schedule severity can be
// swept with Scale, which is how campaigns verify the enhanced throughput
// model degrades gracefully where Padhye's diverges.
package faults

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/cellular"
	"repro/internal/sim"
)

// Kind is the class of a fault episode.
type Kind int

// Fault kinds.
const (
	// Blackout is a total outage: both directions lose every packet for the
	// episode's duration (an extended coverage gap, e.g. a tunnel).
	Blackout Kind = iota + 1
	// AckBurst drops uplink ACKs with probability P for the duration — the
	// paper's ACK burst loss P_a, the driver of spurious RTOs.
	AckBurst
	// RateCollapse multiplies the line rate by Factor for the duration
	// (cell congestion, deep fade).
	RateCollapse
	// DelaySpike adds Delay of one-way latency in both directions for the
	// duration (RAN-internal rerouting, bufferbloat transients).
	DelaySpike
	// Storm injects Count extra handoff outages of length Outage each,
	// placed seed-deterministically inside the episode window — the handover
	// storms real HSR measurements report near dense cell deployments.
	Storm
)

// String implements fmt.Stringer; the names double as the DSL keywords.
func (k Kind) String() string {
	switch k {
	case Blackout:
		return "blackout"
	case AckBurst:
		return "ackburst"
	case RateCollapse:
		return "ratecollapse"
	case DelaySpike:
		return "delayspike"
	case Storm:
		return "storm"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// minRateFactor is the floor of RateCollapse factors: a collapsed link still
// trickles rather than dividing by zero, and the bounded queue converts the
// stall into tail drops exactly like a real dead cell.
const minRateFactor = 1e-3

// maxStormOutages caps the bearer outages a schedule's storm episodes inject,
// per episode and in total. StormOutages allocates one outage per count, so
// the cap bounds what an untrusted spec (an HTTP flow job's faults) can make
// a worker allocate.
const maxStormOutages = 10_000

// Episode is one timed fault: Kind decides which parameter fields apply.
type Episode struct {
	Kind  Kind
	Start time.Duration // flow-local virtual time the fault begins
	Dur   time.Duration // how long it stays active

	P      float64       // AckBurst: per-ACK drop probability in (0, 1]
	Factor float64       // RateCollapse: rate multiplier in [minRateFactor, 1)
	Delay  time.Duration // DelaySpike: extra one-way delay, positive
	Count  int           // Storm: number of injected outages, in [1, maxStormOutages]
	Outage time.Duration // Storm: duration of each injected outage, positive
}

// End returns the first instant after the episode.
func (e Episode) End() time.Duration { return e.Start + e.Dur }

// active reports whether flow time t falls inside the episode window.
func (e Episode) active(t time.Duration) bool { return t >= e.Start && t < e.End() }

// Validate checks the episode's window and kind-specific parameters.
func (e Episode) Validate() error {
	if e.Start < 0 {
		return fmt.Errorf("faults: %s episode starts at negative time %v", e.Kind, e.Start)
	}
	if e.Dur <= 0 {
		return fmt.Errorf("faults: %s episode at %v has non-positive duration %v", e.Kind, e.Start, e.Dur)
	}
	if e.End() < e.Start {
		return fmt.Errorf("faults: %s episode at %v+%v ends past the largest time", e.Kind, e.Start, e.Dur)
	}
	// The float ranges are written so NaN, which fails every comparison,
	// is rejected too.
	switch e.Kind {
	case Blackout:
	case AckBurst:
		if !(e.P > 0 && e.P <= 1) {
			return fmt.Errorf("faults: ackburst at %v has probability %v outside (0,1]", e.Start, e.P)
		}
	case RateCollapse:
		if !(e.Factor >= minRateFactor && e.Factor < 1) {
			return fmt.Errorf("faults: ratecollapse at %v has factor %v outside [%v,1)", e.Start, e.Factor, minRateFactor)
		}
	case DelaySpike:
		if e.Delay <= 0 {
			return fmt.Errorf("faults: delayspike at %v has non-positive delay %v", e.Start, e.Delay)
		}
	case Storm:
		if e.Count <= 0 || e.Count > maxStormOutages {
			return fmt.Errorf("faults: storm at %v has outage count %d outside [1,%d]", e.Start, e.Count, maxStormOutages)
		}
		if e.Outage <= 0 {
			return fmt.Errorf("faults: storm at %v has non-positive outage duration %v", e.Start, e.Outage)
		}
	default:
		return fmt.Errorf("faults: unknown episode kind %d", int(e.Kind))
	}
	return nil
}

// Schedule is a validated script of fault episodes, sorted by start time.
// The zero-value and nil Schedules are valid and inject nothing.
type Schedule struct {
	Episodes []Episode
}

// New builds a Schedule from episodes, validating each and sorting by start
// time (ties keep the given order, so schedules render deterministically).
func New(episodes ...Episode) (*Schedule, error) {
	s := &Schedule{Episodes: append([]Episode(nil), episodes...)}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	sort.SliceStable(s.Episodes, func(i, j int) bool {
		return s.Episodes[i].Start < s.Episodes[j].Start
	})
	return s, nil
}

// Validate checks every episode and that the storms inject at most
// maxStormOutages outages in total.
func (s *Schedule) Validate() error {
	if s == nil {
		return nil
	}
	for _, e := range s.Episodes {
		if err := e.Validate(); err != nil {
			return err
		}
	}
	if _, storms := s.Counts(); storms > maxStormOutages {
		return fmt.Errorf("faults: storms inject %d outages, more than %d", storms, maxStormOutages)
	}
	return nil
}

// Empty reports whether the schedule injects nothing. It is nil-safe, so
// callers can hold a *Schedule field and never branch on nil.
func (s *Schedule) Empty() bool { return s == nil || len(s.Episodes) == 0 }

// Counts reports how many episodes the schedule scripts and how many
// individual bearer outages its storm episodes expand into — the
// fault-schedule activation counters telemetry reports per flow. Nil-safe.
func (s *Schedule) Counts() (episodes, stormOutages int) {
	if s.Empty() {
		return 0, 0
	}
	for _, e := range s.Episodes {
		episodes++
		if e.Kind == Storm {
			stormOutages += e.Count
		}
	}
	return episodes, stormOutages
}

// Scale returns a copy with every episode's severity multiplied by sev:
// blackout durations, burst-loss probabilities, delay-spike magnitudes and
// storm outage counts scale linearly, and rate-collapse factors move from 1
// (sev 0) through the configured factor (sev 1) toward the trickle floor.
// Episodes scaled to nothing are dropped, so Scale(0) (or a negative or NaN
// sev) is Empty; sev > 1 intensifies the schedule beyond its scripted
// values, with storm counts clamped so the result stays within
// maxStormOutages.
func (s *Schedule) Scale(sev float64) *Schedule {
	if s.Empty() || !(sev > 0) {
		return &Schedule{}
	}
	out := &Schedule{Episodes: make([]Episode, 0, len(s.Episodes))}
	storms := 0 // outages the scaled storms so far inject
	for _, e := range s.Episodes {
		switch e.Kind {
		case Blackout:
			e.Dur = time.Duration(float64(e.Dur) * sev)
		case AckBurst:
			e.P = math.Min(e.P*sev, 1)
		case RateCollapse:
			e.Factor = math.Max(1-sev*(1-e.Factor), minRateFactor)
			if e.Factor >= 1 {
				continue
			}
		case DelaySpike:
			e.Delay = time.Duration(float64(e.Delay) * sev)
		case Storm:
			e.Count = int(math.Min(float64(e.Count)*sev+0.5, float64(maxStormOutages-storms)))
		}
		if e.Validate() != nil {
			continue // scaled to nothing
		}
		if e.Kind == Storm {
			storms += e.Count
		}
		out.Episodes = append(out.Episodes, e)
	}
	return out
}

// DataLossProb returns the episode-driven loss probability for a downlink
// packet sent at flow time sent and arriving at arrival: a blackout at
// either transit epoch is certain loss (the packet either leaves into or
// lands in a dead zone). Overlapping episodes combine by the worst case.
func (s *Schedule) DataLossProb(sent, arrival time.Duration) float64 {
	if s.Empty() {
		return 0
	}
	for _, e := range s.Episodes {
		if e.Kind == Blackout && (e.active(sent) || e.active(arrival)) {
			return 1
		}
	}
	return 0
}

// AckLossProb returns the episode-driven loss probability for an uplink ACK
// with the given transit epochs: blackouts are certain loss, and AckBurst
// episodes contribute their P (the worst active one wins).
func (s *Schedule) AckLossProb(sent, arrival time.Duration) float64 {
	if s.Empty() {
		return 0
	}
	p := 0.0
	for _, e := range s.Episodes {
		switch e.Kind {
		case Blackout:
			if e.active(sent) || e.active(arrival) {
				return 1
			}
		case AckBurst:
			if e.active(sent) && e.P > p {
				p = e.P
			}
		}
	}
	return p
}

// RateScale returns the line-rate multiplier at flow time now: the product
// of all active rate-collapse factors, floored at the trickle minimum. It
// has the signature netem.LinkConfig.RateScale expects.
func (s *Schedule) RateScale(now time.Duration) float64 {
	f := 1.0
	if s.Empty() {
		return f
	}
	for _, e := range s.Episodes {
		if e.Kind == RateCollapse && e.active(now) {
			f *= e.Factor
		}
	}
	return math.Max(f, minRateFactor)
}

// ExtraDelay returns the summed one-way delay inflation of all delay-spike
// episodes active at flow time now.
func (s *Schedule) ExtraDelay(now time.Duration) time.Duration {
	if s.Empty() {
		return 0
	}
	var d time.Duration
	for _, e := range s.Episodes {
		if e.Kind == DelaySpike && e.active(now) {
			d += e.Delay
		}
	}
	return d
}

// StormOutages expands the schedule's storm episodes into concrete bearer
// outages for cellular.Channel.AddOutages. Outage starts are placed
// uniformly inside each storm window by an rng derived from (seed,
// sim.StreamFaultStorm), so placement is deterministic per flow and
// independent of every other random stream in the simulation.
func (s *Schedule) StormOutages(seed int64) []cellular.Outage {
	if s.Empty() {
		return nil
	}
	var out []cellular.Outage
	rng := sim.NewRand(seed, sim.StreamFaultStorm)
	for _, e := range s.Episodes {
		if e.Kind != Storm {
			continue
		}
		for i := 0; i < e.Count; i++ {
			at := e.Start + time.Duration(rng.Int63n(int64(e.Dur)))
			out = append(out, cellular.Outage{Start: at, End: at + e.Outage})
		}
	}
	return out
}

// Stress returns the canonical stress schedule campaigns sweep: a handoff
// storm across the cruise phase, an extended blackout, an ACK burst-loss
// episode, a rate collapse and a delay spike, placed at fixed fractions of
// the flow duration so the same script scales to any campaign length. Scale
// it to sweep severity; Scale(1) is the scripted intensity below.
func Stress(flowDuration time.Duration) *Schedule {
	if flowDuration <= 0 {
		return &Schedule{}
	}
	frac := func(f float64) time.Duration { return time.Duration(float64(flowDuration) * f) }
	s, err := New(
		Episode{Kind: Storm, Start: frac(0.10), Dur: frac(0.70), Count: 4, Outage: 6 * time.Second},
		Episode{Kind: Blackout, Start: frac(0.30), Dur: 3 * time.Second},
		Episode{Kind: AckBurst, Start: frac(0.50), Dur: 2 * time.Second, P: 0.85},
		Episode{Kind: RateCollapse, Start: frac(0.65), Dur: frac(0.08), Factor: 0.25},
		Episode{Kind: DelaySpike, Start: frac(0.80), Dur: 3 * time.Second, Delay: 350 * time.Millisecond},
	)
	if err != nil {
		panic(fmt.Sprintf("faults: Stress schedule invalid: %v", err)) // unreachable for positive durations
	}
	return s
}
