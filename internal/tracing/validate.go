package tracing

import (
	"errors"
	"fmt"
	"time"
)

// wallSlack absorbs clock reads taken microseconds apart on either side of
// a parent/child boundary (and coarse clocks on some platforms) when
// checking same-node interval nesting.
const wallSlack = int64(2 * time.Millisecond)

// Validate checks a span set for structural well-formedness:
//
//   - IDs are present and unique;
//   - every non-empty parent reference resolves within the set, and no
//     parent chain cycles (a span that is its own ancestor);
//   - every wall interval is ordered (start <= end);
//   - same-node children nest inside their parent's wall interval (within
//     wallSlack) — cross-node edges are exempt (clocks are not comparable),
//     as are "attempt" spans, which by design outlive their unit span when
//     a hedged or reassigned duplicate loses the first-result-wins race;
//   - virtual intervals are monotone (vstart <= vend) and nest inside the
//     parent's virtual interval when both carry one.
//
// It returns nil for a well-formed set, or an error joining every violation.
func Validate(spans []SpanRecord) error {
	byID := make(map[string]*SpanRecord, len(spans))
	var errs []error
	for i := range spans {
		s := &spans[i]
		if s.ID == "" {
			errs = append(errs, fmt.Errorf("span %d (%s %q) has no ID", i, s.Kind, s.Name))
			continue
		}
		if _, dup := byID[s.ID]; dup {
			errs = append(errs, fmt.Errorf("duplicate span ID %s", s.ID))
			continue
		}
		byID[s.ID] = s
	}
	// Walk each parent chain once: a chain that reaches a span already on
	// the current walk is a cycle; one that reaches a finished span or a
	// root is not.
	const onWalk, walked = 1, 2
	state := make(map[string]uint8, len(byID))
	var walk []string
	for i := range spans {
		walk = walk[:0]
		for id := spans[i].ID; id != "" && state[id] == 0; {
			s, ok := byID[id]
			if !ok {
				break
			}
			state[id] = onWalk
			walk = append(walk, id)
			if state[s.Parent] == onWalk {
				errs = append(errs, fmt.Errorf("span %s (%s %q): parent chain cycles back to %s",
					s.ID, s.Kind, s.Name, s.Parent))
				break
			}
			id = s.Parent
		}
		for _, id := range walk {
			state[id] = walked
		}
	}
	for i := range spans {
		s := &spans[i]
		if s.StartNS > s.EndNS {
			errs = append(errs, fmt.Errorf("span %s (%s %q): wall interval inverted (%d > %d)",
				s.ID, s.Kind, s.Name, s.StartNS, s.EndNS))
		}
		if s.Virtual && s.VStartNS > s.VEndNS {
			errs = append(errs, fmt.Errorf("span %s (%s %q): virtual interval inverted (%d > %d)",
				s.ID, s.Kind, s.Name, s.VStartNS, s.VEndNS))
		}
		if s.Parent == "" {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			errs = append(errs, fmt.Errorf("span %s (%s %q): parent %s not in trace",
				s.ID, s.Kind, s.Name, s.Parent))
			continue
		}
		if p.Node == s.Node && s.Kind != "attempt" {
			if s.StartNS < p.StartNS-wallSlack || s.EndNS > p.EndNS+wallSlack {
				errs = append(errs, fmt.Errorf("span %s (%s %q): wall interval [%d, %d] escapes parent %s [%d, %d]",
					s.ID, s.Kind, s.Name, s.StartNS, s.EndNS, p.ID, p.StartNS, p.EndNS))
			}
		}
		if s.Virtual && p.Virtual {
			if s.VStartNS < p.VStartNS || s.VEndNS > p.VEndNS {
				errs = append(errs, fmt.Errorf("span %s (%s %q): virtual interval [%d, %d] escapes parent %s [%d, %d]",
					s.ID, s.Kind, s.Name, s.VStartNS, s.VEndNS, p.ID, p.VStartNS, p.VEndNS))
			}
		}
	}
	return errors.Join(errs...)
}
