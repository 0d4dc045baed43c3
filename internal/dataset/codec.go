package dataset

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/analysis"
	"repro/internal/tcp"
	"repro/internal/telemetry"
)

// A flow payload is a CachedFlow in a compact binary form: the payload of
// every cache entry and of every flow on the distributed unit wire. Each
// struct has one field list (the flowCodec methods below), run in one
// direction to encode and in the other to decode, so the two cannot drift
// apart:
//
//   - integers are varints (zig-zag for signed values), in minimal form;
//   - floats are their exact IEEE-754 bits, 8 bytes little-endian, and must
//     be finite (encoding a NaN or an infinity fails, as json.Marshal did);
//   - a bool is one byte, 0 or 1, and so is a pointer's presence flag;
//   - strings, slices and maps carry a length first, which decoding checks
//     against the remaining input before it allocates anything;
//   - the per-variant TCP breakdown (ByCC) is written in ascending name
//     order, so a value has exactly one encoding and two cold caches hold
//     the same bytes.
//
// The lossy Cwnd summary of the TCP section is not stored: Restore rebuilds
// it from CwndState, which is. A decoder accepts only the canonical form
// (minimal varints, sorted unique names, no trailing bytes), so whatever it
// accepts re-encodes to the bytes it read.

// flowCodec runs a field list in either direction: encoding appends each
// field to b, decoding consumes each field from the front of b into the
// same place. The first error sticks; after a decoding error b is empty, so
// every later read fails at once.
type flowCodec struct {
	enc bool
	b   []byte
	err error
}

// Minimum encoded sizes, in bytes, of the repeated elements: a decoded
// length must leave at least this much input per element.
const (
	minRecoverySize = 7  // six varints and a bool
	minCCSize       = 11 // a name length, eight varints and two empty histograms
)

func (c *flowCodec) fail(err error) {
	if c.err == nil {
		c.err = fmt.Errorf("dataset: flow payload: %w", err)
	}
	if !c.enc {
		c.b = nil
	}
}

func (c *flowCodec) uvarint(v uint64) uint64 {
	if c.enc {
		c.b = binary.AppendUvarint(c.b, v)
		return v
	}
	x, n := binary.Uvarint(c.b)
	// A minimal varint's last byte is zero only when it is the value 0.
	if n <= 0 || (n > 1 && c.b[n-1] == 0) {
		c.fail(errors.New("bad varint"))
		return 0
	}
	c.b = c.b[n:]
	return x
}

func (c *flowCodec) i64(p *int64) {
	u := c.uvarint(uint64(*p<<1) ^ uint64(*p>>63))
	if !c.enc {
		*p = int64(u>>1) ^ -int64(u&1)
	}
}

func (c *flowCodec) int(p *int) {
	v := int64(*p)
	c.i64(&v)
	if !c.enc {
		if int64(int(v)) != v {
			c.fail(fmt.Errorf("integer %d overflows int", v))
			return
		}
		*p = int(v)
	}
}

func (c *flowCodec) dur(p *time.Duration) { c.i64((*int64)(p)) }

func (c *flowCodec) f64(p *float64) {
	if c.enc {
		if math.IsNaN(*p) || math.IsInf(*p, 0) {
			c.fail(fmt.Errorf("unsupported value %v", *p))
		}
		c.b = binary.LittleEndian.AppendUint64(c.b, math.Float64bits(*p))
		return
	}
	if len(c.b) < 8 {
		c.fail(errors.New("truncated float"))
		return
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(c.b))
	if math.IsNaN(v) || math.IsInf(v, 0) {
		c.fail(fmt.Errorf("unsupported value %v", v))
		return
	}
	*p = v
	c.b = c.b[8:]
}

func (c *flowCodec) boolean(p *bool) {
	if c.enc {
		var v byte
		if *p {
			v = 1
		}
		c.b = append(c.b, v)
		return
	}
	if len(c.b) == 0 || c.b[0] > 1 {
		c.fail(errors.New("bad bool"))
		return
	}
	*p = c.b[0] == 1
	c.b = c.b[1:]
}

// present codes whether a pointer field is set.
func (c *flowCodec) present(set bool) bool {
	c.boolean(&set)
	return set
}

// length codes a string, slice or map length. Decoding rejects a length
// whose elements, at minSize encoded bytes each, cannot fit in the
// remaining input, so no allocation outgrows the input.
func (c *flowCodec) length(n, minSize int) int {
	u := c.uvarint(uint64(n))
	if c.enc {
		return n
	}
	if u > uint64(len(c.b)/minSize) {
		c.fail(fmt.Errorf("length %d exceeds the remaining %d bytes", u, len(c.b)))
		return 0
	}
	return int(u)
}

func (c *flowCodec) str(p *string) {
	n := c.length(len(*p), 1)
	if c.enc {
		c.b = append(c.b, *p...)
		return
	}
	*p = string(c.b[:n])
	c.b = c.b[n:]
}

// codeSlice codes a slice element by element. A decoded empty slice is nil,
// like the nil slices the simulator leaves for "none".
func codeSlice[T any](c *flowCodec, p *[]T, minSize int, code func(*flowCodec, *T)) {
	n := c.length(len(*p), minSize)
	if !c.enc && n > 0 {
		*p = make([]T, n)
	}
	for i := range *p {
		code(c, &(*p)[i])
	}
}

func (c *flowCodec) flow(f *CachedFlow) {
	if c.present(f.Metrics != nil) {
		if !c.enc {
			f.Metrics = new(analysis.FlowMetrics)
		}
		c.metrics(f.Metrics)
	}
	c.stats(&f.Stats)
	if c.present(f.Telemetry != nil) {
		if !c.enc {
			f.Telemetry = new(telemetry.FlowState)
		}
		c.flowState(f.Telemetry)
	}
}

func (c *flowCodec) metrics(m *analysis.FlowMetrics) {
	c.str(&m.Meta.ID)
	c.str(&m.Meta.Operator)
	c.str(&m.Meta.Tech)
	c.str(&m.Meta.Scenario)
	c.i64(&m.Meta.Seed)
	c.int(&m.Meta.MSS)
	c.int(&m.Meta.DelayedAckB)
	c.int(&m.Meta.WindowLimit)
	c.dur(&m.Meta.Duration)
	c.dur(&m.Duration)
	c.i64(&m.UniqueDelivered)
	c.f64(&m.ThroughputPps)
	c.f64(&m.ThroughputBps)
	c.i64(&m.DataSent)
	c.i64(&m.DataLost)
	c.f64(&m.DataLossRate)
	c.i64(&m.AcksSent)
	c.i64(&m.AcksLost)
	c.f64(&m.AckLossRate)
	c.dur(&m.MeanRTT)
	c.int(&m.RTTSamples)
	c.f64(&m.MeanWindow)
	c.int(&m.Timeouts)
	c.int(&m.TimeoutSequences)
	c.int(&m.SpuriousTimeouts)
	c.int(&m.FastRetransmits)
	c.f64(&m.TimeoutProbability)
	codeSlice(c, &m.Recoveries, minRecoverySize, (*flowCodec).recovery)
	c.dur(&m.MeanRecoveryDuration)
	c.f64(&m.RecoveryLossRate)
	c.dur(&m.BaseRTOEstimate)
	c.f64(&m.EstimatedRounds)
	c.f64(&m.AckBurstRate)
}

func (c *flowCodec) recovery(r *analysis.RecoveryPhase) {
	c.dur(&r.Start)
	c.dur(&r.FirstTimeout)
	c.dur(&r.End)
	c.int(&r.Timeouts)
	c.int(&r.Retransmissions)
	c.int(&r.RetransmissionsLost)
	c.boolean(&r.Spurious)
}

func (c *flowCodec) stats(s *tcp.Stats) {
	c.dur(&s.Start)
	c.dur(&s.End)
	c.i64(&s.DataSent)
	c.i64(&s.Retransmissions)
	c.i64(&s.Timeouts)
	c.i64(&s.FastRetransmits)
	c.i64(&s.SpuriousRecoveries)
	c.i64(&s.DataDropped)
	c.i64(&s.UniqueDelivered)
	c.i64(&s.DupDelivered)
	c.i64(&s.AcksSent)
	c.i64(&s.AcksReceived)
	c.i64(&s.AcksDropped)
}

func (c *flowCodec) flowState(s *telemetry.FlowState) {
	k := &s.Kernel
	c.i64(&k.Events)
	c.i64(&k.Scheduled)
	c.i64(&k.MaxPending)
	c.i64(&k.Batches)
	c.i64(&k.MaxBatch)
	c.i64(&k.TimerStops)
	c.i64(&k.TimerReschedules)
	c.i64(&k.VirtualNS)
	c.i64(&k.BudgetEvents)

	t := &s.TCP
	c.i64(&t.Flows)
	c.i64(&t.DataSent)
	c.i64(&t.Retransmissions)
	c.i64(&t.DataDropped)
	c.i64(&t.UniqueDelivered)
	c.i64(&t.DupDelivered)
	c.i64(&t.AcksSent)
	c.i64(&t.AcksReceived)
	c.i64(&t.AcksDropped)
	c.i64(&t.Timeouts)
	c.i64(&t.FastRetransmits)
	c.i64(&t.SpuriousRecoveries)
	c.i64(&t.RecoveryPhases)
	c.i64(&t.RecoveryNS)
	c.i64(&t.RecoveryRetransmits)
	c.i64(&t.RecoveryRetxDrops)
	c.hist(&t.CwndHist)
	c.hist(&t.BackoffHist)
	c.byCC(&t.ByCC)

	c.link(&s.Net.Data)
	c.link(&s.Net.Ack)

	ch := &s.Channel
	c.i64(&ch.Compiles)
	c.i64(&ch.Segments)
	c.i64(&ch.CursorQueries)
	c.i64(&ch.CursorAdvances)
	c.i64(&ch.CursorFallbacks)

	fa := &s.Faults
	c.i64(&fa.Schedules)
	c.i64(&fa.Episodes)
	c.i64(&fa.StormOutages)
	c.i64(&fa.DataDrops)
	c.i64(&fa.AckDrops)

	c.i64(&s.WallNS)

	cw := &s.CwndState
	c.int(&cw.N)
	c.f64(&cw.Mean)
	c.f64(&cw.M2)
	c.f64(&cw.Min)
	c.f64(&cw.Max)
	c.f64(&cw.Sum)
}

func (c *flowCodec) hist(h *telemetry.Hist) {
	codeSlice(c, &h.Bounds, 8, (*flowCodec).f64)
	codeSlice(c, &h.Counts, 1, (*flowCodec).i64)
}

func (c *flowCodec) link(l *telemetry.LinkCounters) {
	c.i64(&l.Offered)
	c.i64(&l.Delivered)
	c.i64(&l.ChannelDrops)
	c.i64(&l.QueueDrops)
	c.i64(&l.PeakBacklog)
}

func (c *flowCodec) ccStats(s *telemetry.CCStats) {
	c.i64(&s.Flows)
	c.i64(&s.DataSent)
	c.i64(&s.Retransmissions)
	c.i64(&s.UniqueDelivered)
	c.i64(&s.Timeouts)
	c.i64(&s.FastRetransmits)
	c.i64(&s.SpuriousRecoveries)
	c.i64(&s.RecoveryPhases)
	c.hist(&s.CwndHist)
}

// byCC codes the per-variant breakdown in ascending name order; decoding
// requires that order (so duplicates are rejected too). A decoded empty
// breakdown is nil.
func (c *flowCodec) byCC(p *map[string]*telemetry.CCStats) {
	n := c.length(len(*p), minCCSize)
	if c.enc {
		names := make([]string, 0, n)
		for name := range *p {
			names = append(names, name)
		}
		slices.Sort(names)
		for _, name := range names {
			s := (*p)[name]
			if s == nil {
				c.fail(fmt.Errorf("tcp.by_cc[%q] is nil", name))
				return
			}
			c.str(&name)
			c.ccStats(s)
		}
		return
	}
	if n == 0 {
		return
	}
	m := make(map[string]*telemetry.CCStats, n)
	var prev string
	for i := 0; i < n && c.err == nil; i++ {
		var name string
		c.str(&name)
		if i > 0 && name <= prev {
			c.fail(fmt.Errorf("tcp.by_cc name %q does not follow %q", name, prev))
			return
		}
		s := new(telemetry.CCStats)
		c.ccStats(s)
		m[name] = s
		prev = name
	}
	*p = m
}

// MarshalBinary encodes the flow as a flow payload. It fails on a
// non-finite float or a nil per-variant entry, which have no encoding.
func (f *CachedFlow) MarshalBinary() ([]byte, error) {
	c := flowCodec{enc: true, b: make([]byte, 0, 1024)}
	c.flow(f)
	if c.err != nil {
		return nil, c.err
	}
	return c.b, nil
}

// decodeFlow decodes a flow payload of either entry kind, with no
// completeness check. It rejects anything but the canonical encoding of a
// value, trailing bytes included. The result shares no memory with b.
func decodeFlow(b []byte) (CachedFlow, error) {
	c := flowCodec{b: b}
	var f CachedFlow
	c.flow(&f)
	if c.err == nil && len(c.b) > 0 {
		c.fail(fmt.Errorf("%d trailing bytes", len(c.b)))
	}
	if c.err != nil {
		return CachedFlow{}, c.err
	}
	return f, nil
}

// DecodeFlowPayload decodes a telemetry-complete flow payload and checks it
// with CheckComplete. It is the one check for a flow result read from
// outside the process: a full cache entry, or a flow on a worker's unit
// line.
func DecodeFlowPayload(b []byte) (CachedFlow, error) {
	f, err := decodeFlow(b)
	if err != nil {
		return CachedFlow{}, err
	}
	if err := f.CheckComplete(); err != nil {
		return CachedFlow{}, fmt.Errorf("dataset: flow payload: %w", err)
	}
	return f, nil
}
