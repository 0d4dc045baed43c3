package cellular

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/railway"
)

// span is a half-open virtual-time interval [start, end).
type span struct {
	start, end time.Duration
}

func (s span) contains(t time.Duration) bool { return t >= s.start && t < s.end }

// Channel is the time-varying radio channel seen by one flow: given the
// operator profile, the trip, and the offset of the flow's start within the
// trip, it precomputes the handoff outages and coverage-gap windows the flow
// will traverse, compiles them into a segment timeline, and exposes loss
// probabilities and delay inflation as functions of flow-local virtual time
// through the timeline cursors (DataLossCursor, AckLossCursor,
// DelayCursor).
//
// All randomness (handoff durations, gap placement) is drawn once at
// construction from the supplied rng, so a Channel is deterministic
// afterwards and can be shared by both directions of a path.
type Channel struct {
	op         Operator
	trip       railway.Trip
	geo        railway.Geometry // trip kinematics compiled once (bit-identical to trip methods)
	tripOffset time.Duration

	handoffs []span // flow-local time, sorted; compile input
	gaps     []span // flow-local time, sorted; compile input

	timeline []tlSeg // compiled piecewise-constant view of the spans above
	gen      uint64  // bumped on every compile; cursors re-sync on mismatch
	stats    ChannelStats
}

// NewChannel builds the channel for a flow starting at tripOffset into trip.
// The horizon parameter bounds how much flow time is precomputed; flows must
// not run past it.
func NewChannel(op Operator, trip railway.Trip, tripOffset, horizon time.Duration, rng *rand.Rand) (*Channel, error) {
	if err := op.Validate(); err != nil {
		return nil, err
	}
	if tripOffset < 0 || horizon <= 0 {
		return nil, fmt.Errorf("cellular: invalid tripOffset %v or horizon %v", tripOffset, horizon)
	}
	c := &Channel{op: op, trip: trip, geo: trip.Geometry(), tripOffset: tripOffset}
	if trip.Stationary() {
		// Even a stationary phone occasionally loses the channel for a few
		// hundred milliseconds (interference, cell congestion transients).
		// These rare micro-outages are what give stationary flows their
		// occasional — and quickly recovered — timeouts, the paper's short
		// stationary recoveries against the long HSR ones.
		c.handoffs = mergeSpans(c.computeStationaryOutages(horizon, rng))
	} else {
		c.handoffs = mergeSpans(c.computeHandoffs(horizon, rng))
		c.gaps = mergeSpans(c.computeGaps(horizon, rng))
	}
	c.compile()
	return c, nil
}

// Stationary micro-outage process: one outage every stationaryOutageGap on
// average (exponentially distributed), each lasting between
// stationaryOutageMin and stationaryOutageMax.
const (
	stationaryOutageGap = 250 * time.Second
	stationaryOutageMin = 150 * time.Millisecond
	stationaryOutageMax = 400 * time.Millisecond
)

func (c *Channel) computeStationaryOutages(horizon time.Duration, rng *rand.Rand) []span {
	var out []span
	at := time.Duration(0)
	for {
		gap := time.Duration(rng.ExpFloat64() * float64(stationaryOutageGap))
		at += gap
		if at > horizon {
			return out
		}
		dur := stationaryOutageMin +
			time.Duration(rng.Int63n(int64(stationaryOutageMax-stationaryOutageMin)))
		out = append(out, span{start: at, end: at + dur})
		at += dur
	}
}

// mergeSpans sorts spans by start and merges overlapping or touching ones,
// so lookups can binary-search a disjoint list.
func mergeSpans(spans []span) []span {
	if len(spans) == 0 {
		return nil
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
	out := spans[:1]
	for _, s := range spans[1:] {
		last := &out[len(out)-1]
		if s.start <= last.end {
			if s.end > last.end {
				last.end = s.end
			}
			continue
		}
		out = append(out, s)
	}
	return out
}

// computeHandoffs walks the trip from the flow's start and opens an outage
// window at every cell-boundary crossing.
func (c *Channel) computeHandoffs(horizon time.Duration, rng *rand.Rand) []span {
	const step = 50 * time.Millisecond
	var out []span
	prevCell := c.cellIndex(c.geo.PositionKm(c.tripOffset))
	for ft := step; ft <= horizon; ft += step {
		cell := c.cellIndex(c.geo.PositionKm(c.tripOffset + ft))
		if cell != prevCell {
			dur := c.op.HandoffMin
			if c.op.HandoffMax > c.op.HandoffMin {
				dur += time.Duration(rng.Int63n(int64(c.op.HandoffMax - c.op.HandoffMin)))
			}
			out = append(out, span{start: ft, end: ft + dur})
			prevCell = cell
		}
	}
	return out
}

// computeGaps places the operator's coverage gaps along the track (by
// position, deterministically seeded) and converts the ones the flow
// traverses into flow-local time windows.
func (c *Channel) computeGaps(horizon time.Duration, rng *rand.Rand) []span {
	if c.op.GapFraction <= 0 || c.op.GapCount <= 0 {
		return nil
	}
	trackLen := c.trip.Track.LengthKm
	gapLen := trackLen * c.op.GapFraction / float64(c.op.GapCount)
	// Place gap starts uniformly; overlaps are acceptable (they just merge
	// into a longer bad stretch).
	type posSpan struct{ startKm, endKm float64 }
	posGaps := make([]posSpan, 0, c.op.GapCount)
	for i := 0; i < c.op.GapCount; i++ {
		start := rng.Float64() * (trackLen - gapLen)
		posGaps = append(posGaps, posSpan{startKm: start, endKm: start + gapLen})
	}
	sort.Slice(posGaps, func(i, j int) bool { return posGaps[i].startKm < posGaps[j].startKm })

	// Convert position spans to flow-time spans by scanning the trip.
	const step = 50 * time.Millisecond
	inGap := func(km float64) bool {
		for _, g := range posGaps {
			if km >= g.startKm && km < g.endKm {
				return true
			}
		}
		return false
	}
	var out []span
	open := false
	var openAt time.Duration
	for ft := time.Duration(0); ft <= horizon; ft += step {
		g := inGap(c.geo.PositionKm(c.tripOffset + ft))
		switch {
		case g && !open:
			open, openAt = true, ft
		case !g && open:
			out = append(out, span{start: openAt, end: ft})
			open = false
		}
	}
	if open {
		out = append(out, span{start: openAt, end: horizon + step})
	}
	return out
}

// cellIndex maps a track position to the serving cell number.
func (c *Channel) cellIndex(km float64) int {
	return int(km / c.op.CellSpacingKm)
}

// speedFraction returns (v / 300 km/h)^2 at the given flow time, the scale
// factor for Doppler-driven residual loss.
func (c *Channel) speedFraction(flowTime time.Duration) float64 {
	v := c.geo.SpeedKmh(c.tripOffset + flowTime)
	f := v / 300.0
	return f * f
}

// Outage is an externally injected bearer outage window in flow-local time
// (half-open: [Start, End)). The fault-injection layer uses it to intensify
// a channel with handoff storms beyond what the operator profile produces.
type Outage struct {
	Start, End time.Duration
}

// AddOutages merges extra bearer outages into the channel's handoff
// windows. Injected outages carry the full semantics of real handoffs —
// probe loss for packets sent while the bearer is down, ACK loss, data
// loss on arrival into the outage, and delay inflation until the outage
// ends — so fault-injected campaigns stress exactly the mechanisms the
// paper measures. Windows with End <= Start are ignored. AddOutages must be
// called before the flow starts consuming the channel; it is not safe to
// mutate a channel mid-simulation.
func (c *Channel) AddOutages(outages []Outage) {
	if len(outages) == 0 {
		return
	}
	spans := append([]span(nil), c.handoffs...)
	for _, o := range outages {
		if o.End > o.Start && o.Start >= 0 {
			spans = append(spans, span{start: o.Start, end: o.End})
		}
	}
	c.handoffs = mergeSpans(spans)
	c.compile()
}

// spanBefore returns the index of the last span starting at or before t, or
// -1. compile calls it for every timeline boundary; it is open-coded
// because sort.Search's func argument would construct a closure per call.
func spanBefore(spans []span, t time.Duration) int {
	lo, hi := 0, len(spans)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if spans[mid].start > t {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo - 1
}

// inSpans reports whether t falls inside any of the disjoint, sorted spans.
func inSpans(spans []span, t time.Duration) bool {
	i := spanBefore(spans, t)
	return i >= 0 && spans[i].contains(t)
}

// Operator returns the profile this channel was built from.
func (c *Channel) Operator() Operator { return c.op }

func clampProb(p float64) float64 {
	switch {
	case p < 0:
		return 0
	case p > 1:
		return 1
	default:
		return p
	}
}
