package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"repro/internal/cellular"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/railway"
	"repro/internal/tcp"
)

// Duration is a time.Duration that unmarshals from Go duration strings
// ("45s", "800ms") as well as plain nanosecond numbers, so job specs read
// like the CLI flags they mirror.
type Duration time.Duration

// UnmarshalJSON implements json.Unmarshaler.
func (d *Duration) UnmarshalJSON(raw []byte) error {
	var s string
	if err := json.Unmarshal(raw, &s); err == nil {
		dd, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("serve: bad duration %q: %w", s, err)
		}
		*d = Duration(dd)
		return nil
	}
	var ns int64
	if err := json.Unmarshal(raw, &ns); err != nil {
		return fmt.Errorf("serve: duration must be a string like \"45s\" or nanoseconds")
	}
	*d = Duration(ns)
	return nil
}

// MarshalJSON implements json.Marshaler (canonical string form).
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// Job kinds.
const (
	KindFlow       = "flow"       // one simulated flow -> metrics + endpoint stats
	KindCampaign   = "campaign"   // the Table I HSR + stationary campaigns -> telemetry report
	KindExperiment = "experiment" // named catalog experiments -> rendered sections + report
	KindUnit       = "unit"       // one flow-range work unit of a distributed campaign
)

// JobSpec is the JSON body of a job submission. It mirrors the hsrbench
// flags: the same seeds, scales and fault DSL produce bit-identical results
// over HTTP and on the command line. Unknown fields are rejected so typos
// fail loudly instead of silently running a default.
type JobSpec struct {
	// Kind selects the job type: "flow", "campaign" or "experiment".
	Kind string `json:"kind"`
	// Seed is the base seed (default 1), exactly like hsrbench -seed.
	Seed int64 `json:"seed,omitempty"`
	// Quick selects the reduced campaign scale (hsrbench -quick).
	Quick bool `json:"quick,omitempty"`
	// Duration overrides the simulated flow duration (hsrbench -duration).
	Duration Duration `json:"duration,omitempty"`
	// FlowsPerRow overrides the Table I flow counts (hsrbench -flows).
	FlowsPerRow int `json:"flows_per_row,omitempty"`
	// Run names the catalog experiments an "experiment" job executes
	// (hsrbench -run); see GET /v1/experiments for the catalog.
	Run []string `json:"run,omitempty"`
	// TimeoutMS is the job's deadline in milliseconds, capped by the
	// server's -job-timeout; 0 means the server cap. A deadline that
	// expires mid-job skips the unstarted tasks and reports partial
	// results, exactly like hsrbench -timeout.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`

	// Flow-job fields.

	// ID names the flow (cache-key relevant; default "http-flow").
	ID string `json:"id,omitempty"`
	// Operator is the flow's carrier: "china-mobile" (LTE), "china-unicom"
	// (3G) or "china-telecom" (3G). Default "china-mobile".
	Operator string `json:"operator,omitempty"`
	// Scenario is "hsr" (default) or "stationary".
	Scenario string `json:"scenario,omitempty"`
	// Faults is a fault-schedule DSL string (docs/ROBUSTNESS.md).
	Faults string `json:"faults,omitempty"`

	// Unit is the work-unit payload of a "unit" job (distributed campaign
	// execution; see internal/dist).
	Unit *UnitSpec `json:"unit,omitempty"`

	// Trace, when present, is the submitter's trace context: the server
	// records a span tree for the job under the given trace ID, parents the
	// job span beneath Parent (a span on the submitting node), and ships the
	// recorded spans back on the terminal event so the submitter can stitch
	// them into one cross-node trace. This is how a coordinator's unit
	// dispatch spans become the parents of worker-side job spans.
	Trace *TraceContext `json:"trace,omitempty"`
}

// TraceContext propagates distributed-trace identity over /v1/jobs.
type TraceContext struct {
	// ID is the trace every span of this job joins.
	ID string `json:"id"`
	// Parent is the submitter-side span the job span parents under.
	Parent string `json:"parent,omitempty"`
}

// UnitSpec describes one flow-range work unit of a campaign: the campaign
// parameters every node derives the identical flow plan from, plus the
// half-open [Start, End) range of plan indices this unit executes. Because
// the plan is a pure function of the parameters, the coordinator and every
// worker agree on which scenario each index names without shipping
// scenarios over the wire.
type UnitSpec struct {
	// Seed is the campaign base seed (used verbatim — no default, the
	// coordinator always sends it explicitly).
	Seed int64 `json:"seed"`
	// Duration is the simulated length of each flow.
	Duration Duration `json:"duration"`
	// FlowsPerRow overrides the Table I flow counts when positive.
	FlowsPerRow int `json:"flows_per_row,omitempty"`
	// Stationary selects the stationary baseline campaign.
	Stationary bool `json:"stationary,omitempty"`
	// Faults is the campaign's fault-schedule DSL string.
	Faults string `json:"faults,omitempty"`
	// Start and End bound the unit's plan indices, half-open.
	Start int `json:"start"`
	End   int `json:"end"`
}

// campaignConfig maps the unit's campaign parameters onto the dataset
// layer's config (execution knobs like Parallelism are the worker's own).
func (u *UnitSpec) campaignConfig() (dataset.CampaignConfig, error) {
	var sched *faults.Schedule
	if u.Faults != "" {
		var err error
		sched, err = faults.Parse(u.Faults)
		if err != nil {
			return dataset.CampaignConfig{}, err
		}
	}
	return dataset.CampaignConfig{
		Seed:         u.Seed,
		FlowDuration: time.Duration(u.Duration),
		FlowsPerRow:  u.FlowsPerRow,
		Stationary:   u.Stationary,
		Faults:       sched,
	}, nil
}

// Limits is the server's admission-control policy for job contents (the
// queue bounds live in Config): anything beyond them is rejected with 400
// before touching the worker pool.
type Limits struct {
	// MaxFlowDuration caps the simulated duration of any flow.
	MaxFlowDuration time.Duration
	// MaxFlowsPerRow caps the Table I per-row override.
	MaxFlowsPerRow int
	// MaxTimeout caps (and defaults) the per-job deadline.
	MaxTimeout time.Duration
}

// withDefaults fills the zero fields the server defaults.
func (l Limits) withDefaults() Limits {
	if l.MaxFlowDuration == 0 {
		l.MaxFlowDuration = 10 * time.Minute
	}
	if l.MaxTimeout == 0 {
		l.MaxTimeout = 15 * time.Minute
	}
	return l
}

// decodeJobSpec reads a job body as POST /v1/jobs does: one JSON object,
// with unknown fields an error.
func decodeJobSpec(r io.Reader) (JobSpec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var spec JobSpec
	err := dec.Decode(&spec)
	return spec, err
}

// operatorByName maps the job-spec operator tokens to carriers.
func operatorByName(name string) (cellular.Operator, error) {
	switch name {
	case "", "china-mobile":
		return cellular.ChinaMobileLTE, nil
	case "china-unicom":
		return cellular.ChinaUnicom3G, nil
	case "china-telecom":
		return cellular.ChinaTelecom3G, nil
	}
	return cellular.Operator{}, fmt.Errorf("serve: unknown operator %q (known: china-mobile, china-unicom, china-telecom)", name)
}

// Validate checks the spec against the catalog, the shared scenario/TCP/
// fault schemas, and the server's limits.
func (s *JobSpec) Validate(lim Limits) error {
	if s.Kind != KindUnit && s.Unit != nil {
		return fmt.Errorf("serve: unit payload on a %s job", s.Kind)
	}
	switch s.Kind {
	case KindFlow:
		if len(s.Run) > 0 {
			return fmt.Errorf("serve: flow jobs take no experiment list")
		}
		if _, err := s.flowScenario(lim); err != nil {
			return err
		}
	case KindCampaign, KindExperiment:
		if s.Kind == KindExperiment && len(s.Run) == 0 {
			return fmt.Errorf("serve: experiment jobs need a non-empty run list (see /v1/experiments)")
		}
		if s.Kind == KindCampaign && len(s.Run) > 0 {
			return fmt.Errorf("serve: campaign jobs take no experiment list")
		}
		for _, name := range s.Run {
			if !experiments.IsCatalogName(name) {
				return fmt.Errorf("serve: unknown experiment %q (see /v1/experiments)", name)
			}
		}
		if s.Operator != "" || s.Scenario != "" || s.Faults != "" || s.ID != "" {
			return fmt.Errorf("serve: flow-only fields (id/operator/scenario/faults) on a %s job", s.Kind)
		}
		cfg := s.experimentsConfig()
		if err := cfg.Validate(); err != nil {
			return err
		}
		if lim.MaxFlowDuration > 0 && cfg.FlowDuration > lim.MaxFlowDuration {
			return fmt.Errorf("serve: duration %v exceeds the server limit %v", cfg.FlowDuration, lim.MaxFlowDuration)
		}
		if lim.MaxFlowsPerRow > 0 && cfg.FlowsPerRow > lim.MaxFlowsPerRow {
			return fmt.Errorf("serve: flows_per_row %d exceeds the server limit %d", cfg.FlowsPerRow, lim.MaxFlowsPerRow)
		}
	case KindUnit:
		if s.Unit == nil {
			return fmt.Errorf("serve: unit jobs need a unit payload")
		}
		if len(s.Run) > 0 || s.Operator != "" || s.Scenario != "" || s.Faults != "" || s.ID != "" {
			return fmt.Errorf("serve: unit jobs take only the unit payload")
		}
		u := s.Unit
		if u.Duration <= 0 {
			return fmt.Errorf("serve: unit duration %v must be positive", time.Duration(u.Duration))
		}
		if lim.MaxFlowDuration > 0 && time.Duration(u.Duration) > lim.MaxFlowDuration {
			return fmt.Errorf("serve: unit duration %v exceeds the server limit %v", time.Duration(u.Duration), lim.MaxFlowDuration)
		}
		if lim.MaxFlowsPerRow > 0 && u.FlowsPerRow > lim.MaxFlowsPerRow {
			return fmt.Errorf("serve: unit flows_per_row %d exceeds the server limit %d", u.FlowsPerRow, lim.MaxFlowsPerRow)
		}
		if u.Start < 0 || u.End <= u.Start {
			return fmt.Errorf("serve: unit range [%d, %d) must be non-empty and non-negative", u.Start, u.End)
		}
		if _, err := u.campaignConfig(); err != nil {
			return err
		}
	case "":
		return fmt.Errorf("serve: job needs a kind (flow, campaign, experiment or unit)")
	default:
		return fmt.Errorf("serve: unknown job kind %q", s.Kind)
	}
	if s.TimeoutMS < 0 {
		return fmt.Errorf("serve: timeout_ms must be non-negative")
	}
	if s.Trace != nil && s.Trace.ID == "" {
		return fmt.Errorf("serve: trace context needs a non-empty id")
	}
	return nil
}

// seed returns the effective base seed.
func (s *JobSpec) seed() int64 {
	if s.Seed != 0 {
		return s.Seed
	}
	return 1
}

// experimentsConfig maps a campaign/experiment spec onto the same Config
// the CLI builds from its flags.
func (s *JobSpec) experimentsConfig() experiments.Config {
	cfg := experiments.Default()
	if s.Quick {
		cfg = experiments.Quick()
	}
	cfg.Seed = s.seed()
	if s.Duration > 0 {
		cfg.FlowDuration = time.Duration(s.Duration)
	}
	if s.FlowsPerRow > 0 {
		cfg.FlowsPerRow = s.FlowsPerRow
	}
	return cfg
}

// flowScenario builds (and validates) the single-flow scenario a flow job
// simulates: the requested carrier on the Beijing-Tianjin trip, starting at
// the cruise window like the campaign flows, with an optional fault
// schedule parsed from the shared DSL.
func (s *JobSpec) flowScenario(lim Limits) (dataset.Scenario, error) {
	op, err := operatorByName(s.Operator)
	if err != nil {
		return dataset.Scenario{}, err
	}
	profile := railway.DefaultProfile
	scenario := s.Scenario
	switch scenario {
	case "", "hsr":
		scenario = "hsr"
	case "stationary":
		profile = railway.StationaryProfile
	default:
		return dataset.Scenario{}, fmt.Errorf("serve: unknown scenario %q (hsr or stationary)", s.Scenario)
	}
	trip, err := railway.NewTrip(railway.BeijingTianjin, profile)
	if err != nil {
		return dataset.Scenario{}, err
	}
	var offset time.Duration
	if !trip.Stationary() {
		offset, _ = trip.CruiseWindow()
	}
	dur := time.Duration(s.Duration)
	if dur == 0 {
		dur = 45 * time.Second
	}
	if lim.MaxFlowDuration > 0 && dur > lim.MaxFlowDuration {
		return dataset.Scenario{}, fmt.Errorf("serve: duration %v exceeds the server limit %v", dur, lim.MaxFlowDuration)
	}
	var sched *faults.Schedule
	if s.Faults != "" {
		sched, err = faults.Parse(s.Faults)
		if err != nil {
			return dataset.Scenario{}, err
		}
	}
	id := s.ID
	if id == "" {
		id = "http-flow"
	}
	sc := dataset.Scenario{
		ID:           id,
		Operator:     op,
		Trip:         trip,
		TripOffset:   offset,
		FlowDuration: dur,
		Seed:         s.seed(),
		TCP:          tcp.DefaultConfig(),
		Scenario:     scenario,
		Faults:       sched,
	}
	if err := sc.Validate(); err != nil {
		return dataset.Scenario{}, err
	}
	return sc, nil
}
