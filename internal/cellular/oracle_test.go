package cellular

import "time"

// This file holds the span-based channel queries, the test oracle for the
// compiled timeline: they answer straight from the handoff and gap span
// lists, and the cursors (DataLossCursor, AckLossCursor, DelayCursor) and
// TimelineAt must agree with them bit for bit, which the property tests and
// FuzzChannelTimeline assert.

// InHandoff reports whether flow time t falls inside a handoff outage.
func (c *Channel) InHandoff(t time.Duration) bool { return inSpans(c.handoffs, t) }

// InGap reports whether flow time t falls inside a coverage gap.
func (c *Channel) InGap(t time.Duration) bool { return inSpans(c.gaps, t) }

// HandoffCount returns the number of handoffs within the precomputed horizon.
func (c *Channel) HandoffCount() int { return len(c.handoffs) }

// DataLossProb returns the downlink (data) loss probability for a packet
// whose whole transit happens at flow time t: the single-epoch view of
// DataTransitProb.
func (c *Channel) DataLossProb(t time.Duration) float64 {
	return c.DataTransitProb(t, t)
}

// DataTransitProb returns the downlink loss probability for a packet sent
// at flow time sent and arriving at flow time arrival. A packet sent while
// the bearer is down is a retransmission probe and faces HandoffProbeLoss;
// one that was already in flight and arrives into the outage faces
// HandoffDataLoss (partial flush of the old cell's queue).
func (c *Channel) DataTransitProb(sent, arrival time.Duration) float64 {
	p := c.op.BaseDataLoss + c.op.SpeedDataLoss*c.speedFraction(sent)
	switch {
	case c.InHandoff(sent):
		p += c.op.HandoffProbeLoss
	case c.InHandoff(arrival):
		p += c.op.HandoffDataLoss
	}
	if c.InGap(sent) {
		p += c.op.GapLoss
	}
	return clampProb(p)
}

// AckLossProb returns the uplink (ACK) loss probability at flow time t —
// the single-epoch view of AckTransitProb.
func (c *Channel) AckLossProb(t time.Duration) float64 {
	return c.AckTransitProb(t, t)
}

// AckTransitProb returns the uplink loss probability for an ACK sent at
// flow time sent. The radio segment sits at the start of an ACK's journey
// (the phone), so only the sent epoch matters.
func (c *Channel) AckTransitProb(sent, _ time.Duration) float64 {
	p := c.op.BaseAckLoss + c.op.SpeedAckLoss*c.speedFraction(sent)
	if c.InHandoff(sent) {
		p += c.op.HandoffAckLoss
	}
	if c.InGap(sent) {
		p += c.op.GapLoss
	}
	return clampProb(p)
}

// ExtraDelay returns the one-way delay inflation at flow time t. During a
// handoff the radio bearer is interrupted and the link layer buffers
// traffic: a packet entering the link mid-outage is held until the outage
// ends (plus the handoff signalling cost). This buffering is what turns
// handoffs into spurious retransmission timeouts — the original packets are
// not lost, they arrive after the sender's RTO has already fired.
func (c *Channel) ExtraDelay(t time.Duration) time.Duration {
	if rem := c.handoffRemaining(t); rem > 0 {
		return rem + c.op.HandoffDelay
	}
	return 0
}

// handoffRemaining returns how much of the surrounding handoff outage is
// left at flow time t, or 0 when t is outside any outage.
func (c *Channel) handoffRemaining(t time.Duration) time.Duration {
	if i := spanBefore(c.handoffs, t); i >= 0 && c.handoffs[i].contains(t) {
		return c.handoffs[i].end - t
	}
	return 0
}

// TimelinePoint is the channel state at one instant, as answered by the
// compiled timeline. DataLossProb/AckLossProb take the single-epoch view
// (sent == arrival), matching Channel.DataLossProb/AckLossProb.
type TimelinePoint struct {
	InHandoff    bool
	InGap        bool
	DataLossProb float64
	AckLossProb  float64
	ExtraDelay   time.Duration
}

// TimelineAt answers the channel state at flow time t from the compiled
// timeline with a stateless binary search (no cursor). TimelineAt(t) must
// agree exactly with the span-based InHandoff/InGap/DataLossProb/
// AckLossProb/ExtraDelay for every t, which the property and fuzz tests
// assert.
func (c *Channel) TimelineAt(t time.Duration) TimelinePoint {
	cur := tlCursor{c: c, gen: c.gen}
	s := cur.seg(t)
	return TimelinePoint{
		InHandoff:    s.inHandoff && t >= 0,
		InGap:        s.inGap && t >= 0,
		DataLossProb: c.dataProbAt(s, t, func() *tlSeg { return s }),
		AckLossProb:  c.ackProbAt(s, t),
		ExtraDelay:   c.extraDelayAt(s, t),
	}
}

// TimelineSegments returns the number of segments in the compiled timeline.
func (c *Channel) TimelineSegments() int { return len(c.timeline) }
