// Package sim implements a deterministic discrete-event simulation kernel:
// a virtual clock, a small indexed min-heap with stable FIFO ordering for
// simultaneous events, cancellable timers, FIFO delivery lanes, and seeded
// random-number streams.
//
// Every other substrate (link emulation, TCP endpoints, mobility) is driven
// by a Simulator so that a whole experiment is a single-threaded,
// reproducible computation: the same seed always produces the same packet
// trace.
//
// Every event carries its exact nanosecond timestamp and a sequence number
// stamped when it is scheduled; events fire in (at, seq) order, so events
// due at the same instant fire in the order they were scheduled. Two kinds
// of event share that one order:
//
//   - A Timer (Schedule, At) is a cancellable callback. It sits in the heap
//     itself, and Stop and Reschedule find it through the heap index it
//     carries: both are O(log k) for k queued heap entries.
//   - A Lane is a FIFO of fire-and-forget Handlers whose times never
//     decrease, such as the deliveries of one in-order link. Only a lane's
//     head sits in the heap. Because times and sequence numbers both grow
//     along a lane, its head is its earliest entry; when the head fires the
//     next entry replaces it at the heap root and sifts down once.
//
// The heap therefore holds one entry per busy lane plus the live timers: a
// handful per flow, however many packets are in flight. Pushing onto a lane
// and dispatching from it allocate nothing once the lane's ring buffer has
// grown to the lane's peak depth.
package sim

import (
	"fmt"
	"time"

	"repro/internal/telemetry"
)

// Handler is the callback interface of lane entries. Using a small struct
// that implements Handler — instead of a closure — lets callers pool their
// callback state and makes the push/fire path allocation-free.
type Handler interface {
	Fire()
}

// node is one heap cell. It copies its owner's (at, seq) key so sifting
// compares keys without following the owner pointer.
type node struct {
	at  time.Duration
	seq uint64
	t   *Timer // a Timer, or the head handle of a Lane
}

func (a node) before(b node) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// Simulator owns the virtual clock and the pending event queue. The zero
// value is not usable; create one with New.
type Simulator struct {
	now  time.Duration
	seq  uint64
	live int    // scheduled, not-yet-fired, not-cancelled events
	heap []node // min-heap over (at, seq)

	budget    Budget
	executed  int64
	exhausted bool

	// tel is the optional kernel telemetry sink. It is nil by default and
	// every update below is guarded by one nil check, so the disabled path
	// costs a predictable branch and zero allocations. batchAt and batchLen
	// track the current run of events at one instant for its Batches and
	// MaxBatch counters.
	tel      *telemetry.Kernel
	batchAt  time.Duration
	batchLen int64

	// check, when set, runs after every executed event; tests install an
	// invariant audit here.
	check func()
}

// SetTelemetry attaches a kernel metrics sink (nil detaches). Updates are
// plain integer increments into the caller-owned struct; the kernel never
// allocates for telemetry.
func (s *Simulator) SetTelemetry(k *telemetry.Kernel) { s.tel = k }

// Budget is a runaway-loop guard: it bounds how much work a simulation run
// may do before the kernel refuses to execute further events. A pathological
// workload (e.g. a fault schedule that provokes a zero-delay reschedule
// loop) then stops gracefully — the clock and queue stay intact and
// Exhausted reports the refusal — instead of spinning forever. Zero fields
// mean unlimited.
type Budget struct {
	// MaxEvents caps the total number of events executed.
	MaxEvents int64
	// MaxVirtualTime refuses events with timestamps beyond this horizon
	// (they remain queued).
	MaxVirtualTime time.Duration
}

// SetBudget installs the run budget and clears any previous exhaustion.
func (s *Simulator) SetBudget(b Budget) {
	s.budget = b
	s.exhausted = false
}

// Executed returns the number of events executed so far.
func (s *Simulator) Executed() int64 { return s.executed }

// Exhausted reports whether the kernel refused to execute an event because
// the budget ran out. Pending events are preserved.
func (s *Simulator) Exhausted() bool { return s.exhausted }

// New returns a Simulator with the clock at zero and no pending events.
func New() *Simulator {
	return &Simulator{}
}

// Now returns the current virtual time.
func (s *Simulator) Now() time.Duration { return s.now }

// Pending returns the number of scheduled, not-yet-fired, not-cancelled
// events, lane entries included. It is O(1): the kernel maintains a
// live-event counter.
func (s *Simulator) Pending() int { return s.live }

// Schedule runs fn after delay of virtual time. A zero delay fires the event
// at the current time but strictly after all previously scheduled events for
// that time (stable FIFO order). Schedule panics on a negative delay: the
// simulation has a single arrow of time and scheduling into the past is
// always a programming error.
func (s *Simulator) Schedule(delay time.Duration, fn func()) *Timer {
	if delay < 0 {
		panic(fmt.Sprintf("sim: Schedule with negative delay %v", delay))
	}
	return s.At(s.now+delay, fn)
}

// At runs fn at absolute virtual time t (which must not be in the past).
func (s *Simulator) At(t time.Duration, fn func()) *Timer {
	if t < s.now {
		panic(fmt.Sprintf("sim: At(%v) is before current time %v", t, s.now))
	}
	if fn == nil {
		panic("sim: At with nil callback")
	}
	tm := &Timer{s: s, at: t, fn: fn, index: -1}
	s.insert(tm, t, s.stamp())
	return tm
}

// stamp returns the next FIFO sequence number for a newly scheduled event
// and accounts for it in the live counter and telemetry.
func (s *Simulator) stamp() uint64 {
	seq := s.seq
	s.seq++
	s.live++
	if s.tel != nil {
		s.tel.Scheduled++
		if d := int64(s.live); d > s.tel.MaxPending {
			s.tel.MaxPending = d
		}
	}
	return seq
}

// insert adds t to the heap under the key (at, seq).
func (s *Simulator) insert(t *Timer, at time.Duration, seq uint64) {
	s.heap = append(s.heap, node{at: at, seq: seq, t: t})
	s.up(len(s.heap) - 1)
}

// remove takes the entry at heap position i out of the heap.
func (s *Simulator) remove(i int) {
	h := s.heap
	last := len(h) - 1
	h[i].t.index = -1
	if i != last {
		h[i] = h[last]
	}
	h[last] = node{}
	s.heap = h[:last]
	if i != last {
		s.fix(i)
	}
}

// fix restores heap order after the key at position i changed.
func (s *Simulator) fix(i int) {
	if i > 0 && s.heap[i].before(s.heap[(i-1)/2]) {
		s.up(i)
	} else {
		s.down(i)
	}
}

// up sifts the entry at position i toward the root.
func (s *Simulator) up(i int) {
	h := s.heap
	x := h[i]
	for i > 0 {
		p := (i - 1) / 2
		if !x.before(h[p]) {
			break
		}
		h[i] = h[p]
		h[i].t.index = i
		i = p
	}
	h[i] = x
	x.t.index = i
}

// down sifts the entry at position i toward the leaves.
func (s *Simulator) down(i int) {
	h := s.heap
	n := len(h)
	x := h[i]
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].before(h[c]) {
			c = r
		}
		if !h[c].before(x) {
			break
		}
		h[i] = h[c]
		h[i].t.index = i
		i = c
	}
	h[i] = x
	x.t.index = i
}

// next returns the key of the earliest pending event; ok is false when
// nothing is queued.
func (s *Simulator) next() (at time.Duration, ok bool) {
	if len(s.heap) == 0 {
		return 0, false
	}
	return s.heap[0].at, true
}

// fireNext executes the earliest pending event, advancing the clock to its
// timestamp. A lane's next entry takes the head's place at the root before
// the handler runs, so the handler may push onto its own lane.
func (s *Simulator) fireNext() {
	root := s.heap[0]
	t := root.t
	s.now = root.at
	s.live--
	s.executed++
	if s.tel != nil {
		s.count(root.at)
	}
	if l := t.lane; l != nil {
		h := l.pop()
		if l.n > 0 {
			e := &l.buf[l.first]
			s.heap[0].at, s.heap[0].seq = e.at, e.seq
			s.down(0)
		} else {
			s.remove(0)
		}
		h.Fire()
	} else {
		s.remove(0)
		t.fn()
	}
	if s.check != nil {
		s.check()
	}
}

// count records one executed event at time at in the telemetry sink.
func (s *Simulator) count(at time.Duration) {
	k := s.tel
	k.Events++
	if s.batchLen == 0 || at != s.batchAt {
		k.Batches++
		s.batchAt, s.batchLen = at, 0
	}
	s.batchLen++
	if s.batchLen > k.MaxBatch {
		k.MaxBatch = s.batchLen
	}
}

// refuses reports (and records) whether the budget refuses to execute an
// event with timestamp at.
func (s *Simulator) refuses(at time.Duration) bool {
	if s.budget.MaxEvents > 0 && s.executed >= s.budget.MaxEvents {
		s.exhausted = true
		return true
	}
	if s.budget.MaxVirtualTime > 0 && at > s.budget.MaxVirtualTime {
		s.exhausted = true
		return true
	}
	return false
}

// Run executes events until the queue is empty or the budget is exhausted.
func (s *Simulator) Run() {
	for {
		at, ok := s.next()
		if !ok || s.refuses(at) {
			return
		}
		s.fireNext()
	}
}

// RunUntil executes events with timestamps <= deadline, then advances the
// clock to exactly deadline. Events scheduled after the deadline remain
// queued. An exhausted budget stops the run early without advancing the
// clock past the last executed event.
func (s *Simulator) RunUntil(deadline time.Duration) {
	for {
		at, ok := s.next()
		if !ok || at > deadline {
			break
		}
		if s.refuses(at) {
			return // budget exhausted; leave the clock where it stopped
		}
		s.fireNext()
	}
	if s.now < deadline {
		s.now = deadline
	}
}

// Timer is a handle to a scheduled event. It can be cancelled before firing
// with Stop and moved to a new deadline — before or after firing — with
// Reschedule.
type Timer struct {
	s     *Simulator
	at    time.Duration
	fn    func()
	lane  *Lane // set only on a Lane's head handle
	index int   // position in the heap, or -1 when not queued
}

// At returns the virtual time the timer is (or was) scheduled to fire.
func (t *Timer) At() time.Duration { return t.at }

// Stop cancels the timer. It reports whether the cancellation prevented the
// timer from firing (false if it already fired or was already stopped).
// The timer leaves the heap at once, in O(log k). The callback is retained
// so the timer can be revived with Reschedule.
func (t *Timer) Stop() bool {
	if t.index < 0 {
		return false
	}
	s := t.s
	s.remove(t.index)
	s.live--
	if s.tel != nil {
		s.tel.TimerStops++
	}
	return true
}

// Active reports whether the timer is still scheduled to fire.
func (t *Timer) Active() bool { return t.index >= 0 }

// Reschedule moves the timer to fire at now+delay, reusing its callback and
// its kernel state. It works on active timers (moved in place in the heap),
// on stopped ones, and on fired ones (both are revived), so periodic timers
// avoid the Stop+Schedule allocate-per-arm churn entirely. The timer takes a
// fresh sequence number, so it fires after the events already scheduled for
// its new time. Reschedule panics on a negative delay.
func (t *Timer) Reschedule(delay time.Duration) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: Reschedule with negative delay %v", delay))
	}
	if t.fn == nil {
		panic("sim: Reschedule on a timer without a callback")
	}
	s := t.s
	t.at = s.now + delay
	seq := s.seq
	s.seq++
	if s.tel != nil {
		s.tel.TimerReschedules++
	}
	if i := t.index; i >= 0 {
		s.heap[i].at, s.heap[i].seq = t.at, seq
		s.fix(i)
		return
	}
	// Revive: fire or Stop took the timer out of the heap.
	s.live++
	if s.tel != nil && int64(s.live) > s.tel.MaxPending {
		s.tel.MaxPending = int64(s.live)
	}
	s.insert(t, t.at, seq)
}

// Lane is a FIFO of fire-and-forget events whose times never decrease: the
// deliveries of an in-order link are its model. Each entry is stamped with
// the kernel's sequence number when pushed and fires in the same global
// (at, seq) order as a Timer would; entries cannot be cancelled. A lane is
// bound to the Simulator that made it.
type Lane struct {
	head  Timer         // heap handle; its key is the first entry's
	buf   []laneEntry   // ring buffer, power-of-two length
	first int           // ring position of the first entry
	n     int           // queued entries
	last  time.Duration // time of the latest push
}

// laneEntry is one queued lane event.
type laneEntry struct {
	at  time.Duration
	seq uint64
	h   Handler
}

// NewLane returns an empty lane on s.
func (s *Simulator) NewLane() *Lane {
	l := &Lane{}
	l.head = Timer{s: s, lane: l, index: -1}
	return l
}

// Push schedules h.Fire at absolute virtual time at. Push panics if at is
// before the current time or before the lane's previous push: a lane's
// times never decrease.
func (l *Lane) Push(at time.Duration, h Handler) {
	s := l.head.s
	if at < s.now || at < l.last {
		panic(fmt.Sprintf("sim: Lane.Push(%v) is before current time %v or the lane's last push %v", at, s.now, l.last))
	}
	if h == nil {
		panic("sim: Lane.Push with nil handler")
	}
	if l.n == len(l.buf) {
		l.grow()
	}
	seq := s.stamp()
	l.buf[(l.first+l.n)&(len(l.buf)-1)] = laneEntry{at: at, seq: seq, h: h}
	l.n++
	l.last = at
	if l.n == 1 {
		s.insert(&l.head, at, seq)
	}
}

// Len returns the number of queued, not-yet-fired entries.
func (l *Lane) Len() int { return l.n }

// pop removes and returns the first entry's handler.
func (l *Lane) pop() Handler {
	e := &l.buf[l.first]
	h := e.h
	e.h = nil
	l.first = (l.first + 1) & (len(l.buf) - 1)
	l.n--
	return h
}

// grow doubles the ring buffer, unrolling its entries to the front.
func (l *Lane) grow() {
	buf := make([]laneEntry, max(8, 2*len(l.buf)))
	for i := 0; i < l.n; i++ {
		buf[i] = l.buf[(l.first+i)&(len(l.buf)-1)]
	}
	l.buf, l.first = buf, 0
}
