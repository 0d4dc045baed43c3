package cellular

import "time"

// This file holds the compiled channel timeline: the piecewise-constant view
// of the channel that every per-packet loss and delay lookup queries. The
// handoff and gap span lists are only its compile input.
//
// At construction (and again after AddOutages) the channel compiles its
// handoff spans, gap spans, and the trip's speed-phase breakpoints into one
// sorted array of disjoint half-open [start, end) segments covering all of
// flow-local time. Within a segment the handoff/gap membership is constant,
// and — whenever the train speed is constant over the segment (cruise,
// stationary, or past the end of the trip) — the loss probabilities are
// fully precomputed at compile time using the exact same sequence of
// floating-point operations as the per-query evaluation in dataProbAt /
// ackProbAt, so a precomputed answer is bit-identical to an evaluated one.
// Accel/decel segments only pin the handoff/gap flags and evaluate the
// speed-dependent term per query through the railway.Geometry memo (which is
// itself the single implementation behind Trip.SpeedKmh).
//
// Packets query the timeline in (mostly) nondecreasing virtual time, so
// lookups go through a monotonic cursor: O(1) when the query lands in the
// cached segment, a short forward walk when time moved on, and a
// binary-search fallback for out-of-order queries (jittered arrival times)
// or after a recompile.

// maxSegEnd is the sentinel end of the last segment; no flow-local virtual
// time reaches it.
const maxSegEnd = time.Duration(1<<62 - 1)

// tlSeg is one compiled timeline segment: [start, end) in flow-local time.
type tlSeg struct {
	start, end time.Duration

	inHandoff  bool
	inGap      bool
	constSpeed bool          // speed (hence all probabilities) constant over the segment
	handoffEnd time.Duration // end of the containing handoff span, when inHandoff

	// Precomputed only when constSpeed; accel/decel segments recompute the
	// speed term per query.
	speedF      float64 // (v/300)^2 over the segment
	pDataProbe  float64 // data packet sent while the bearer is down
	pDataArr    float64 // data packet arriving into an outage (sent outside one)
	pDataClean  float64 // data packet with neither endpoint in an outage
	pAckHandoff float64 // ACK sent while the bearer is down
	pAckClean   float64 // ACK sent with the bearer up
}

// negSeg is the virtual segment covering t < 0: no outage, no gap, and the
// speed term evaluated per query (the trip-time offset can still be inside
// the trip for negative flow time). Queries at negative flow time do not
// occur on the packet path; this keeps the cursor total anyway.
var negSeg = tlSeg{start: -maxSegEnd, end: 0}

// ChannelStats counts timeline compilation and cursor behaviour for one
// channel. Fields are plain counters (a channel is consumed by a single
// flow's goroutine) harvested into telemetry after the flow completes.
type ChannelStats struct {
	Segments        int64 // segments in the current compiled timeline
	Compiles        int64 // timeline compilations (1 + one per AddOutages)
	CursorQueries   int64 // total timeline lookups
	CursorAdvances  int64 // lookups resolved by walking forward from the cached segment
	CursorFallbacks int64 // lookups resolved by binary search (out of order or recompile)
}

// Stats returns the channel's timeline counters.
func (c *Channel) Stats() ChannelStats { return c.stats }

// compile rebuilds the timeline from the current handoff and gap span lists.
// Called at construction and from AddOutages; not safe once the flow has
// started consuming the channel (cursors re-sync via the generation counter,
// but the channel itself documents construction-time-only mutation).
func (c *Channel) compile() {
	c.gen++
	c.stats.Compiles++

	bounds := make([]time.Duration, 0, 8+2*len(c.handoffs)+2*len(c.gaps))
	bounds = append(bounds, 0)
	for _, s := range c.handoffs {
		bounds = append(bounds, s.start, s.end)
	}
	for _, s := range c.gaps {
		bounds = append(bounds, s.start, s.end)
	}
	if !c.geo.Stationary() {
		// Speed-phase breakpoints in flow-local time: end of the
		// acceleration ramp, start of the deceleration ramp, and arrival.
		total, ramp := c.geo.Duration(), c.geo.RampTime()
		for _, b := range [3]time.Duration{ramp - c.tripOffset, (total - ramp) - c.tripOffset, total - c.tripOffset} {
			if b > 0 {
				bounds = append(bounds, b)
			}
		}
	}
	sortDurations(bounds)

	segs := make([]tlSeg, 0, len(bounds))
	for i, b := range bounds {
		if b < 0 {
			continue
		}
		if i+1 < len(bounds) && bounds[i+1] == b {
			continue // dedupe
		}
		end := maxSegEnd
		if i+1 < len(bounds) {
			end = bounds[i+1]
		}
		seg := tlSeg{start: b, end: end}
		if hi := spanBefore(c.handoffs, b); hi >= 0 && c.handoffs[hi].contains(b) {
			seg.inHandoff = true
			seg.handoffEnd = c.handoffs[hi].end
		}
		seg.inGap = inSpans(c.gaps, b)
		c.classifySpeed(&seg)
		if seg.constSpeed {
			c.precomputeProbs(&seg)
		}
		// Merge with the previous segment when nothing observable differs
		// (e.g. a gap edge that falls inside the same handoff phase).
		if n := len(segs); n > 0 && segs[n-1].end == seg.start && sameSegContent(&segs[n-1], &seg) {
			segs[n-1].end = seg.end
			continue
		}
		segs = append(segs, seg)
	}
	c.timeline = segs
	c.stats.Segments = int64(len(segs))
}

// sortDurations is an insertion sort: boundary lists are small (a few
// hundred entries at most) and usually nearly sorted, and avoiding
// sort.Slice keeps compile cheap enough to run per flow.
func sortDurations(ds []time.Duration) {
	for i := 1; i < len(ds); i++ {
		v := ds[i]
		j := i - 1
		for j >= 0 && ds[j] > v {
			ds[j+1] = ds[j]
			j--
		}
		ds[j+1] = v
	}
}

// sameSegContent reports whether two adjacent segments are observably
// identical and can merge. handoffEnd matters (delay inflation), and
// constSpeed segments must agree on every precomputed value; two adjacent
// non-const segments with equal flags evaluate identically per query.
func sameSegContent(a, b *tlSeg) bool {
	return a.inHandoff == b.inHandoff &&
		a.inGap == b.inGap &&
		a.constSpeed == b.constSpeed &&
		a.handoffEnd == b.handoffEnd &&
		a.speedF == b.speedF
}

// classifySpeed decides whether the train speed is constant over the segment
// and, if so, records the exact speed fraction using the same operations as
// speedFraction.
func (c *Channel) classifySpeed(s *tlSeg) {
	if c.geo.Stationary() {
		s.constSpeed = true
		s.speedF = speedFrac(0)
		return
	}
	total, ramp := c.geo.Duration(), c.geo.RampTime()
	as := c.tripOffset + s.start
	switch {
	case as >= total:
		// Arrived: SpeedKmh is 0 for every at >= total.
		s.constSpeed = true
		s.speedF = speedFrac(0)
	case as >= ramp && s.end != maxSegEnd && c.tripOffset+s.end <= total-ramp:
		// Fully inside the cruise phase.
		s.constSpeed = true
		s.speedF = speedFrac(c.trip.Profile.CruiseKmh)
	default:
		// Accel/decel (or a segment touching t=0 of the trip): evaluate the
		// speed term per query through the geometry memo.
	}
}

// speedFrac mirrors speedFraction's arithmetic exactly: f := v/300; f*f.
func speedFrac(v float64) float64 {
	f := v / 300.0
	return f * f
}

// precomputeProbs fills the segment's loss probabilities, replicating the
// exact floating-point operation order of the per-query path in dataProbAt
// and ackProbAt: p := Base + Speed*f, then += the handoff term, then += the
// gap term, then clamp. Associativity is not assumed anywhere — each variant
// repeats the same left-to-right additions the per-query code performs.
func (c *Channel) precomputeProbs(s *tlSeg) {
	base := c.op.BaseDataLoss + c.op.SpeedDataLoss*s.speedF
	probe := base + c.op.HandoffProbeLoss
	arr := base + c.op.HandoffDataLoss
	clean := base
	if s.inGap {
		probe += c.op.GapLoss
		arr += c.op.GapLoss
		clean += c.op.GapLoss
	}
	s.pDataProbe = clampProb(probe)
	s.pDataArr = clampProb(arr)
	s.pDataClean = clampProb(clean)

	abase := c.op.BaseAckLoss + c.op.SpeedAckLoss*s.speedF
	ah := abase + c.op.HandoffAckLoss
	ac := abase
	if s.inGap {
		ah += c.op.GapLoss
		ac += c.op.GapLoss
	}
	s.pAckHandoff = clampProb(ah)
	s.pAckClean = clampProb(ac)
}

// tlCursor is a monotonic position in the compiled timeline. Each consumer
// of a time series (data-loss sent times, data-loss arrival times, ACK sent
// times, delay lookups) holds its own cursor so the per-direction
// nondecreasing query pattern stays O(1) amortized.
type tlCursor struct {
	c   *Channel
	gen uint64
	idx int
}

// cursorWalkLimit bounds the forward walk before falling back to binary
// search; queries that jump more than a few segments (long idle periods) pay
// one O(log n) search instead of an O(n) scan.
const cursorWalkLimit = 4

// seg resolves the segment containing flow time t.
func (cur *tlCursor) seg(t time.Duration) *tlSeg {
	c := cur.c
	c.stats.CursorQueries++
	if t < 0 {
		return &negSeg
	}
	if cur.gen != c.gen {
		cur.gen = c.gen
		cur.idx = 0
	}
	segs := c.timeline
	i := cur.idx
	s := &segs[i]
	if t >= s.start {
		if t < s.end {
			return s
		}
		for k := 0; k < cursorWalkLimit && i+1 < len(segs); k++ {
			i++
			s = &segs[i]
			if t < s.end {
				c.stats.CursorAdvances++
				cur.idx = i
				return s
			}
		}
	}
	c.stats.CursorFallbacks++
	lo, hi := 0, len(segs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if segs[mid].start > t {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	cur.idx = lo - 1 // segment 0 starts at 0, so lo >= 1 for t >= 0
	return &segs[cur.idx]
}

// dataProbAt evaluates the downlink transit loss probability given the
// already-resolved sent segment, deferring the arrival lookup to the
// supplied function so the arrival cursor only moves when the answer
// depends on it (the packet was not sent into an outage).
func (c *Channel) dataProbAt(ss *tlSeg, sent time.Duration, arrivalSeg func() *tlSeg) float64 {
	if ss.constSpeed {
		if ss.inHandoff {
			return ss.pDataProbe
		}
		if arrivalSeg().inHandoff {
			return ss.pDataArr
		}
		return ss.pDataClean
	}
	p := c.op.BaseDataLoss + c.op.SpeedDataLoss*c.speedFraction(sent)
	switch {
	case ss.inHandoff:
		p += c.op.HandoffProbeLoss
	case arrivalSeg().inHandoff:
		p += c.op.HandoffDataLoss
	}
	if ss.inGap {
		p += c.op.GapLoss
	}
	return clampProb(p)
}

// ackProbAt evaluates the uplink loss probability given the resolved sent
// segment.
func (c *Channel) ackProbAt(ss *tlSeg, sent time.Duration) float64 {
	if ss.constSpeed {
		if ss.inHandoff {
			return ss.pAckHandoff
		}
		return ss.pAckClean
	}
	p := c.op.BaseAckLoss + c.op.SpeedAckLoss*c.speedFraction(sent)
	if ss.inHandoff {
		p += c.op.HandoffAckLoss
	}
	if ss.inGap {
		p += c.op.GapLoss
	}
	return clampProb(p)
}

// extraDelayAt evaluates the delay inflation given the resolved segment.
func (c *Channel) extraDelayAt(s *tlSeg, t time.Duration) time.Duration {
	if s.inHandoff {
		return (s.handoffEnd - t) + c.op.HandoffDelay
	}
	return 0
}

// DataLossCursor returns the downlink loss probability of a packet sent at
// flow time sent and arriving at flow time arrival, for one flow direction.
// A packet sent while the bearer is down is a retransmission probe and faces
// HandoffProbeLoss; one that was already in flight and arrives into the
// outage faces HandoffDataLoss (partial flush of the old cell's queue).
// Lookups are O(1) amortized: the sent and arrival time series each get
// their own cursor (arrivals jitter, so they fall back to binary search
// occasionally; sent times are nondecreasing).
func (c *Channel) DataLossCursor() func(sent, arrival time.Duration) float64 {
	sc := &tlCursor{c: c}
	ac := &tlCursor{c: c}
	return func(sent, arrival time.Duration) float64 {
		return c.dataProbAt(sc.seg(sent), sent, func() *tlSeg { return ac.seg(arrival) })
	}
}

// AckLossCursor returns the uplink loss probability of an ACK sent at flow
// time sent. The radio segment sits at the start of an ACK's journey (the
// phone), so only the sent epoch matters.
func (c *Channel) AckLossCursor() func(sent, arrival time.Duration) float64 {
	sc := &tlCursor{c: c}
	return func(sent, _ time.Duration) float64 {
		return c.ackProbAt(sc.seg(sent), sent)
	}
}

// DelayCursor returns the one-way delay inflation at flow time t. During a
// handoff the radio bearer is interrupted and the link layer buffers
// traffic: a packet entering the link mid-outage is held until the outage
// ends (plus the handoff signalling cost). This buffering is what turns
// handoffs into spurious retransmission timeouts — the original packets are
// not lost, they arrive after the sender's RTO has already fired.
func (c *Channel) DelayCursor() func(t time.Duration) time.Duration {
	cur := &tlCursor{c: c}
	return func(t time.Duration) time.Duration {
		return c.extraDelayAt(cur.seg(t), t)
	}
}
