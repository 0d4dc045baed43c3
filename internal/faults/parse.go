package faults

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// The fault-schedule DSL (documented in docs/ROBUSTNESS.md):
//
//	schedule := episode (';' episode)*
//	episode  := kind '@' start '+' dur {param}
//	kind     := blackout | ackburst | ratecollapse | delayspike | storm
//	param    := 'p=' float      (ackburst drop probability, required)
//	          | 'x' float       (ratecollapse rate factor, required)
//	          | 'd=' duration   (delayspike extra delay, required)
//	          | 'n=' int        (storm outage count, required)
//	          | 'o=' duration   (storm outage length, default 5s)
//
// A parameter is accepted only by the kind it belongs to, so
// Parse(s.String()) returns a schedule equal to s.
//
// Durations use Go syntax ("30s", "800ms"). Example:
//
//	blackout@30s+2s; ackburst@50s+1s p=0.85; ratecollapse@60s+5s x0.2;
//	delayspike@80s+2s d=400ms; storm@20s+80s n=4 o=6s

// defaultStormOutage is the per-outage length when a storm omits o=.
const defaultStormOutage = 5 * time.Second

// Parse builds a Schedule from its DSL form. An empty or all-whitespace
// spec parses to an empty schedule.
func Parse(spec string) (*Schedule, error) {
	var episodes []Episode
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		e, err := parseEpisode(part)
		if err != nil {
			return nil, err
		}
		episodes = append(episodes, e)
	}
	return New(episodes...)
}

func parseEpisode(part string) (Episode, error) {
	fields := strings.Fields(part)
	head := fields[0]
	kindStr, window, ok := strings.Cut(head, "@")
	if !ok {
		return Episode{}, fmt.Errorf("faults: episode %q: missing '@start+dur'", part)
	}
	var e Episode
	switch kindStr {
	case "blackout":
		e.Kind = Blackout
	case "ackburst":
		e.Kind = AckBurst
	case "ratecollapse":
		e.Kind = RateCollapse
	case "delayspike":
		e.Kind = DelaySpike
	case "storm":
		e.Kind = Storm
		e.Outage = defaultStormOutage
	default:
		return Episode{}, fmt.Errorf("faults: unknown episode kind %q", kindStr)
	}
	startStr, durStr, ok := strings.Cut(window, "+")
	if !ok {
		return Episode{}, fmt.Errorf("faults: episode %q: window %q is not 'start+dur'", part, window)
	}
	var err error
	if e.Start, err = time.ParseDuration(startStr); err != nil {
		return Episode{}, fmt.Errorf("faults: episode %q: bad start: %v", part, err)
	}
	if e.Dur, err = time.ParseDuration(durStr); err != nil {
		return Episode{}, fmt.Errorf("faults: episode %q: bad duration: %v", part, err)
	}
	for _, param := range fields[1:] {
		if err := applyParam(&e, param); err != nil {
			return Episode{}, fmt.Errorf("faults: episode %q: %v", part, err)
		}
	}
	if err := e.Validate(); err != nil {
		return Episode{}, err
	}
	return e, nil
}

// paramKinds maps each parameter's leading letter to the kind it belongs to.
var paramKinds = map[byte]Kind{'p': AckBurst, 'x': RateCollapse, 'd': DelaySpike, 'n': Storm, 'o': Storm}

func applyParam(e *Episode, param string) error {
	if k, ok := paramKinds[param[0]]; ok && k != e.Kind {
		return fmt.Errorf("parameter %q does not apply to %s", param, e.Kind)
	}
	switch {
	case strings.HasPrefix(param, "p="):
		p, err := strconv.ParseFloat(param[2:], 64)
		if err != nil {
			return fmt.Errorf("bad probability %q", param)
		}
		e.P = p
	case strings.HasPrefix(param, "x"):
		f, err := strconv.ParseFloat(param[1:], 64)
		if err != nil {
			return fmt.Errorf("bad rate factor %q", param)
		}
		e.Factor = f
	case strings.HasPrefix(param, "d="):
		d, err := time.ParseDuration(param[2:])
		if err != nil {
			return fmt.Errorf("bad delay %q", param)
		}
		e.Delay = d
	case strings.HasPrefix(param, "n="):
		n, err := strconv.Atoi(param[2:])
		if err != nil {
			return fmt.Errorf("bad count %q", param)
		}
		e.Count = n
	case strings.HasPrefix(param, "o="):
		o, err := time.ParseDuration(param[2:])
		if err != nil {
			return fmt.Errorf("bad outage length %q", param)
		}
		e.Outage = o
	default:
		return fmt.Errorf("unknown parameter %q", param)
	}
	return nil
}

// String renders the schedule in its canonical DSL form; Parse(s.String())
// round-trips.
func (s *Schedule) String() string {
	if s.Empty() {
		return ""
	}
	parts := make([]string, 0, len(s.Episodes))
	for _, e := range s.Episodes {
		head := fmt.Sprintf("%s@%v+%v", e.Kind, e.Start, e.Dur)
		switch e.Kind {
		case AckBurst:
			head += fmt.Sprintf(" p=%v", e.P)
		case RateCollapse:
			head += fmt.Sprintf(" x%v", e.Factor)
		case DelaySpike:
			head += fmt.Sprintf(" d=%v", e.Delay)
		case Storm:
			head += fmt.Sprintf(" n=%d o=%v", e.Count, e.Outage)
		}
		parts = append(parts, head)
	}
	return strings.Join(parts, "; ")
}
