// Package sim implements a deterministic discrete-event simulation kernel:
// a virtual clock, a hierarchical timing wheel with stable FIFO ordering for
// simultaneous events, cancellable timers, and seeded random-number streams.
//
// Every other substrate (link emulation, TCP endpoints, mobility) is driven
// by a Simulator so that a whole experiment is a single-threaded,
// reproducible computation: the same seed always produces the same packet
// trace.
//
// The scheduler is a four-level timing wheel over tick-quantized virtual
// time (2^20 ns ≈ 1.05 ms per tick at the finest level, each coarser level
// 256× wider). Events keep their exact nanosecond timestamps; the wheel only
// buckets them, and each advance drains the earliest occupied slot into a
// dense, (at, seq)-sorted due batch, so the global fire order is exactly the
// order a comparison-based queue would produce. Insertion, cancellation and
// rescheduling are O(1) — timers live on intrusive per-slot lists and are
// unlinked directly — and the per-tick batches feed RunBatch, the dense
// dispatch loop the hot simulation paths run on.
//
// The kernel is allocation-conscious. Fire-and-forget events scheduled
// through ScheduleFire/AtFire draw their event objects from a per-simulator
// free list and return them after firing, so the per-packet hot path
// (link deliveries) allocates nothing in steady state. Long-lived timers
// avoid Stop+Schedule churn via Timer.Reschedule, which re-slots the timer
// in place — usually without even moving it between wheel slots.
package sim

import (
	"fmt"
	"math/bits"
	"slices"
	"time"

	"repro/internal/telemetry"
)

// Handler is the callback interface of pooled fire-and-forget events
// (ScheduleFire/AtFire). Using a small struct that implements Handler —
// instead of a closure — lets callers pool their callback state and makes
// the schedule/fire path allocation-free.
type Handler interface {
	Fire()
}

// Timing-wheel geometry. The finest tick is 2^tickShift nanoseconds; each of
// the wheelLevels levels spans wheelSlots ticks of the level below, so the
// wheel directly addresses 2^(tickShift+levels*bits) ns ≈ 52 days of virtual
// time. Events beyond that are parked in the farthest top-level slot and
// re-cascade when reached (their exact timestamp lives on the Timer).
const (
	tickShift   = 20 // 2^20 ns ≈ 1.05 ms per finest-level tick
	wheelBits   = 8
	wheelSlots  = 1 << wheelBits
	wheelMask   = wheelSlots - 1
	wheelLevels = 4
)

// Timer placement states, stored in Timer.level: >= 0 is a wheel level.
const (
	timerUnqueued = -1 // fired, stopped, or never scheduled
	timerInDue    = -2 // sitting in the sorted due batch
)

// dueCompactMin is the dispatched-prefix length from which dueAdd compacts
// the due batch; below it the prefix is cheaper to keep until the tick
// drains.
const dueCompactMin = 256

// dueEntry is one slot of the dense due batch: the timers of the tick being
// dispatched, sorted by (at, seq). The gen snapshot detects entries
// invalidated by Stop/Reschedule after the batch was formed; they are
// skipped lazily at dispatch.
type dueEntry struct {
	at  time.Duration
	seq uint64
	gen uint64
	t   *Timer
}

// Simulator owns the virtual clock and the pending event queue. The zero
// value is not usable; create one with New.
type Simulator struct {
	now  time.Duration
	seq  uint64
	live int    // scheduled, not-yet-fired, not-cancelled events
	free *Timer // free list of recycled fire-and-forget events

	// cursor is the wheel's current tick: every event with a due tick at or
	// before it has been moved into the due batch (or fired); everything in
	// the wheel is strictly ahead of it. It can run ahead of now>>tickShift —
	// the clock advances to exact event timestamps, the cursor to drained
	// slot boundaries.
	cursor     int64
	wheelCount int // timers linked into wheel slots
	due        []dueEntry
	dueHead    int  // next due entry to dispatch
	draining   bool // advance() is redistributing a slot (defer due sorting)

	budget    Budget
	executed  int64
	exhausted bool
	selfCheck bool

	// tel is the optional kernel telemetry sink. It is nil by default and
	// every update below is guarded by one nil check, so the disabled path
	// costs a predictable branch and zero allocations.
	tel *telemetry.Kernel

	levelCount [wheelLevels]int
	occupied   [wheelLevels][wheelSlots / 64]uint64
	wheel      [wheelLevels][wheelSlots]*Timer
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
// events. It is O(1): the kernel maintains a live-event counter.
func (s *Simulator) Pending() int { return s.live }

// queuedLen returns the number of physically queued entries — wheel timers
// plus undispatched due entries, including ones invalidated by Stop — for
// diagnostics and tests. Unlike the lazy-deletion heap this kernel replaced,
// stopped timers are unlinked immediately, so queuedLen can only exceed
// Pending by stale due entries of the tick currently being dispatched.
func (s *Simulator) queuedLen() int { return s.wheelCount + len(s.due) - s.dueHead }

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
	ev := &Timer{s: s, at: t, fn: fn, level: timerUnqueued}
	s.push(ev)
	return ev
}

// ScheduleFire schedules h.Fire after delay of virtual time as a
// fire-and-forget event: no handle is returned, the event cannot be
// cancelled, and the kernel's event object is recycled after firing, so the
// call is allocation-free in steady state. Ordering rules match Schedule.
func (s *Simulator) ScheduleFire(delay time.Duration, h Handler) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: ScheduleFire with negative delay %v", delay))
	}
	s.AtFire(s.now+delay, h)
}

// AtFire schedules h.Fire at absolute virtual time t as a fire-and-forget
// event (see ScheduleFire).
func (s *Simulator) AtFire(t time.Duration, h Handler) {
	if t < s.now {
		panic(fmt.Sprintf("sim: AtFire(%v) is before current time %v", t, s.now))
	}
	if h == nil {
		panic("sim: AtFire with nil handler")
	}
	ev := s.free
	if ev == nil {
		ev = &Timer{s: s, level: timerUnqueued}
		if s.tel != nil {
			s.tel.PoolMisses++
		}
	} else {
		s.free = ev.freeNext
		ev.freeNext = nil
		if s.tel != nil {
			s.tel.PoolHits++
		}
	}
	ev.at = t
	ev.h = h
	ev.fired = false
	ev.cancelled = false
	s.push(ev)
}

// push inserts a new event, stamping the FIFO tiebreaker.
func (s *Simulator) push(ev *Timer) {
	ev.seq = s.seq
	s.seq++
	s.live++
	s.place(ev)
	if s.tel != nil {
		s.tel.Scheduled++
		if d := int64(s.live); d > s.tel.MaxPending {
			s.tel.MaxPending = d
		}
	}
}

// tickOf quantizes a timestamp to a wheel tick.
func tickOf(t time.Duration) int64 { return int64(t) >> tickShift }

// placement returns the wheel coordinates for an event due at dueTick,
// which must be strictly after the cursor. Levels are compared in
// tick-number space shifted to the level's granularity — not by raw tick
// distance — so two events a full rotation apart can never alias into one
// slot. Far-future events park in the farthest top-level slot and re-cascade
// when the cursor reaches it.
func (s *Simulator) placement(dueTick int64) (level, slot int) {
	for l := 0; ; l++ {
		shift := uint(l * wheelBits)
		diff := (dueTick >> shift) - (s.cursor >> shift)
		if diff < wheelSlots || l == wheelLevels-1 {
			if diff > wheelMask {
				diff = wheelMask
			}
			return l, int(((s.cursor >> shift) + diff) & wheelMask)
		}
	}
}

// place files a (seq-stamped) timer: into the due batch when its tick is not
// ahead of the cursor, into a wheel slot otherwise.
func (s *Simulator) place(t *Timer) {
	if tick := tickOf(t.at); tick > s.cursor {
		level, slot := s.placement(tick)
		s.link(t, level, slot)
		return
	}
	s.dueAdd(t)
}

// link puts t at the head of a wheel slot's intrusive list. Order within a
// slot is irrelevant: the slot is sorted by (at, seq) when drained.
func (s *Simulator) link(t *Timer, level, slot int) {
	head := s.wheel[level][slot]
	t.next = head
	t.prev = nil
	if head != nil {
		head.prev = t
	}
	s.wheel[level][slot] = t
	t.level, t.slot = int16(level), int16(slot)
	s.occupied[level][slot>>6] |= 1 << (uint(slot) & 63)
	s.levelCount[level]++
	s.wheelCount++
}

// unlink removes t from its wheel slot in O(1).
func (s *Simulator) unlink(t *Timer) {
	level, slot := int(t.level), int(t.slot)
	if t.prev != nil {
		t.prev.next = t.next
	} else {
		s.wheel[level][slot] = t.next
	}
	if t.next != nil {
		t.next.prev = t.prev
	}
	t.next, t.prev = nil, nil
	if s.wheel[level][slot] == nil {
		s.occupied[level][slot>>6] &^= 1 << (uint(slot) & 63)
	}
	s.levelCount[level]--
	s.wheelCount--
	t.level = timerUnqueued
}

// dueAdd appends t to the due batch. While a slot is draining the batch is
// sorted once at the end; outside a drain (an event scheduled for the
// current tick, e.g. zero delay) the entry is placed by binary search so the
// batch stays dispatchable in (at, seq) order. The freshly stamped seq is
// larger than every queued one, so equal timestamps land after their elders.
// Once the dispatched prefix dominates the batch it is compacted away, so a
// tick that never drains (a zero-delay event loop) holds only its pending
// entries instead of every event it has dispatched.
func (s *Simulator) dueAdd(t *Timer) {
	t.level = timerInDue
	e := dueEntry{at: t.at, seq: t.seq, gen: t.gen, t: t}
	if s.draining {
		s.due = append(s.due, e)
		return
	}
	if s.dueHead >= dueCompactMin && 2*s.dueHead >= len(s.due) {
		s.due = s.due[:copy(s.due, s.due[s.dueHead:])]
		s.dueHead = 0
	}
	pending := s.due[s.dueHead:]
	i, _ := slices.BinarySearchFunc(pending, e, cmpDue)
	s.due = append(s.due, dueEntry{})
	pos := s.dueHead + i
	copy(s.due[pos+1:], s.due[pos:])
	s.due[pos] = e
}

func cmpDue(a, b dueEntry) int {
	switch {
	case a.at != b.at:
		if a.at < b.at {
			return -1
		}
		return 1
	case a.seq < b.seq:
		return -1
	case a.seq > b.seq:
		return 1
	}
	return 0
}

// nextOccupied returns the circular distance (>= lo) from slot `from` to the
// nearest occupied slot on level l, or -1 when the level is empty in that
// range. The occupancy bitmaps make this a handful of word scans.
func (s *Simulator) nextOccupied(l, from, lo int) int {
	occ := &s.occupied[l]
	start := (from + lo) & wheelMask
	if w := occ[start>>6] >> (uint(start) & 63); w != 0 {
		return (start + bits.TrailingZeros64(w) - from) & wheelMask
	}
	for i := 1; i <= wheelSlots/64; i++ {
		idx := ((start >> 6) + i) & (wheelSlots/64 - 1)
		if w := occ[idx]; w != 0 {
			return (idx<<6 + bits.TrailingZeros64(w) - from) & wheelMask
		}
	}
	return -1
}

// advance moves the cursor to the earliest occupied slot boundary and drains
// every slot that begins there, top level first: coarse slots redistribute
// into finer ones (a cascade), finest-level and current-tick events join the
// due batch, which is then sorted into dispatch order.
func (s *Simulator) advance() {
	best := int64(-1)
	for l := wheelLevels - 1; l >= 0; l-- {
		if s.levelCount[l] == 0 {
			continue
		}
		shift := uint(l * wheelBits)
		coarse := s.cursor >> shift
		lo := 1
		if l == 0 {
			// The cursor's own finest slot can hold events placed before a
			// coarse jump landed exactly on it; distance 0 finds them.
			lo = 0
		}
		d := s.nextOccupied(l, int(coarse&wheelMask), lo)
		if d < 0 {
			continue
		}
		if base := (coarse + int64(d)) << shift; best < 0 || base < best {
			best = base
		}
	}
	if best < 0 {
		panic("sim: internal: advance on an empty wheel")
	}
	s.cursor = best
	s.draining = true
	var maxSlot int
	for l := wheelLevels - 1; l >= 0; l-- {
		shift := uint(l * wheelBits)
		slot := int((s.cursor >> shift) & wheelMask)
		head := s.wheel[l][slot]
		if head == nil {
			continue
		}
		// A non-empty slot at the cursor's own coordinates always begins at
		// the cursor (coarse levels only become current via an aligned jump),
		// so everything in it is due for redistribution now.
		s.wheel[l][slot] = nil
		s.occupied[l][slot>>6] &^= 1 << (uint(slot) & 63)
		n := 0
		for t := head; t != nil; {
			next := t.next
			t.next, t.prev = nil, nil
			t.level = timerUnqueued
			n++
			s.place(t)
			t = next
		}
		s.levelCount[l] -= n
		s.wheelCount -= n
		if n > maxSlot {
			maxSlot = n
		}
		if s.tel != nil && l > 0 {
			s.tel.Cascades += int64(n)
		}
	}
	s.draining = false
	if len(s.due) > 1 {
		slices.SortFunc(s.due, cmpDue)
	}
	if s.tel != nil {
		if int64(maxSlot) > s.tel.MaxSlot {
			s.tel.MaxSlot = int64(maxSlot)
		}
		if n := int64(len(s.due)); n > 0 {
			s.tel.Batches++
			s.tel.BatchEvents += n
			if n > s.tel.MaxBatch {
				s.tel.MaxBatch = n
			}
		}
	}
}

// refill returns the earliest live event without consuming it, advancing the
// wheel as needed, or nil when the queue is empty. Stale due entries
// (stopped or rescheduled after the batch formed) are skipped here.
func (s *Simulator) refill() *Timer {
	for {
		for s.dueHead < len(s.due) {
			e := &s.due[s.dueHead]
			if e.t.gen == e.gen {
				return e.t
			}
			s.dueHead++
		}
		if s.dueHead > 0 {
			s.due = s.due[:0]
			s.dueHead = 0
		}
		if s.wheelCount == 0 {
			return nil
		}
		s.advance()
	}
}

// fire executes one event, advancing the clock to its timestamp.
func (s *Simulator) fire(t *Timer) {
	t.gen++
	t.level = timerUnqueued
	s.now = t.at
	s.live--
	s.executed++
	if s.tel != nil {
		s.tel.Events++
	}
	t.fired = true
	if h := t.h; h != nil {
		// Fire-and-forget event: recycle before invoking so the handler
		// can immediately reuse the slot for follow-up events.
		s.recycle(t)
		h.Fire()
	} else {
		t.fn()
	}
	if s.selfCheck {
		s.checkInvariants()
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

// recycle returns a pooled fire-and-forget event to the free list.
func (s *Simulator) recycle(ev *Timer) {
	ev.h = nil
	ev.fn = nil
	ev.freeNext = s.free
	s.free = ev
}

// RunBatch executes the next dense batch of due events — one wheel tick's
// worth, in (at, seq) order, including events their handlers schedule back
// into the same tick — and returns how many fired. Zero means the queue is
// empty or the budget refused (see Exhausted). The batch loop dispatches
// straight off the sorted due array, so per-event scheduling overhead is a
// bounds check and a generation compare; Run is a loop over RunBatch.
func (s *Simulator) RunBatch() int {
	if s.refill() == nil {
		return 0
	}
	n := 0
	for s.dueHead < len(s.due) {
		e := &s.due[s.dueHead]
		t := e.t
		if t.gen != e.gen {
			s.dueHead++
			continue
		}
		if s.refuses(t.at) {
			break
		}
		s.dueHead++
		s.fire(t)
		n++
	}
	return n
}

// Run executes events until the queue is empty or the budget is exhausted.
func (s *Simulator) Run() {
	for s.RunBatch() > 0 {
	}
}

// RunUntil executes events with timestamps <= deadline, then advances the
// clock to exactly deadline. Events scheduled after the deadline remain
// queued. An exhausted budget stops the run early without advancing the
// clock past the last executed event.
func (s *Simulator) RunUntil(deadline time.Duration) {
	for {
		t := s.refill()
		if t == nil || t.at > deadline {
			break
		}
		if s.refuses(t.at) {
			return // budget exhausted; leave the clock where it stopped
		}
		s.dueHead++
		s.fire(t)
	}
	if s.now < deadline {
		s.now = deadline
	}
	if s.wheelCount == 0 && s.dueHead >= len(s.due) {
		// Nothing queued: fast-forward the cursor so post-deadline schedules
		// slot at fine granularity instead of cascading up from tick zero.
		s.cursor = tickOf(s.now)
	}
}

// invariantAuditPeriod is how many executed events separate full-wheel
// audits in self-check mode; the cheap per-event checks run on every event.
const invariantAuditPeriod = 4096

// checkInvariants verifies kernel state in self-check mode. Every event it
// bounds the live counter; every invariantAuditPeriod events it audits the
// whole wheel: slot placement, occupancy bitmaps, level counters, due-batch
// ordering, live accounting, and that no queued event predates the clock.
func (s *Simulator) checkInvariants() {
	if s.live < 0 || s.live > s.queuedLen() {
		panic(fmt.Sprintf("sim: invariant violation: live counter %d outside [0, %d]", s.live, s.queuedLen()))
	}
	if s.executed%invariantAuditPeriod != 0 {
		return
	}
	live := 0
	for l := 0; l < wheelLevels; l++ {
		shift := uint(l * wheelBits)
		count := 0
		for slot := 0; slot < wheelSlots; slot++ {
			n := 0
			for t := s.wheel[l][slot]; t != nil; t = t.next {
				n++
				if t.cancelled || t.fired {
					panic(fmt.Sprintf("sim: invariant violation: dead timer linked at level %d slot %d", l, slot))
				}
				if int(t.level) != l || int(t.slot) != slot {
					panic(fmt.Sprintf("sim: invariant violation: timer coordinates (%d,%d) linked at (%d,%d)", t.level, t.slot, l, slot))
				}
				tick := tickOf(t.at)
				if tick <= s.cursor {
					panic(fmt.Sprintf("sim: invariant violation: wheel timer due tick %d not ahead of cursor %d", tick, s.cursor))
				}
				if t.at < s.now {
					panic(fmt.Sprintf("sim: invariant violation: live event at %v predates clock %v", t.at, s.now))
				}
				if l < wheelLevels-1 && int((tick>>shift)&wheelMask) != slot {
					panic(fmt.Sprintf("sim: invariant violation: due tick %d misfiled in level %d slot %d", tick, l, slot))
				}
				live++
			}
			if occupied := s.occupied[l][slot>>6]&(1<<(uint(slot)&63)) != 0; occupied != (n > 0) {
				panic(fmt.Sprintf("sim: invariant violation: occupancy bit for level %d slot %d is %v with %d timers", l, slot, occupied, n))
			}
			count += n
		}
		if count != s.levelCount[l] {
			panic(fmt.Sprintf("sim: invariant violation: level %d counter %d but %d timers linked", l, s.levelCount[l], count))
		}
	}
	prev := -1
	for i := s.dueHead; i < len(s.due); i++ {
		e := &s.due[i]
		if prev >= 0 && cmpDue(s.due[prev], *e) > 0 {
			panic(fmt.Sprintf("sim: invariant violation: due batch order broken between entries %d and %d", prev, i))
		}
		prev = i
		if e.t.gen != e.gen {
			continue // stale: invalidated by Stop/Reschedule
		}
		if e.at < s.now {
			panic(fmt.Sprintf("sim: invariant violation: due event at %v predates clock %v", e.at, s.now))
		}
		live++
	}
	if live != s.live {
		panic(fmt.Sprintf("sim: invariant violation: live counter %d but %d live events queued", s.live, live))
	}
}

// Timer is a handle to a scheduled event. It can be cancelled before firing
// with Stop and moved to a new deadline — before or after firing — with
// Reschedule.
type Timer struct {
	s          *Simulator
	at         time.Duration
	seq        uint64
	gen        uint64 // bumped on every placement change; validates due entries
	fn         func()
	h          Handler
	next, prev *Timer // intrusive wheel-slot list links
	level      int16  // wheel level, timerInDue, or timerUnqueued
	slot       int16
	cancelled  bool
	fired      bool
	freeNext   *Timer // free-list link (pooled fire-and-forget events only)
}

// At returns the virtual time the timer is (or was) scheduled to fire.
func (t *Timer) At() time.Duration { return t.at }

// Stop cancels the timer. It reports whether the cancellation prevented the
// timer from firing (false if it already fired or was already stopped).
// Cancellation is O(1): a wheel timer is unlinked from its slot directly, a
// due-batch entry is invalidated and skipped at dispatch. The callback is
// retained so the timer can be revived with Reschedule.
func (t *Timer) Stop() bool {
	if t.fired || t.cancelled {
		return false
	}
	t.cancelled = true
	s := t.s
	s.live--
	if s.tel != nil {
		s.tel.TimerStops++
	}
	if t.level >= 0 {
		s.unlink(t)
	} else if t.level == timerInDue {
		t.gen++
		t.level = timerUnqueued
	}
	return true
}

// Active reports whether the timer is still scheduled to fire.
func (t *Timer) Active() bool { return !t.fired && !t.cancelled }

// Reschedule moves the timer to fire at now+delay, reusing its callback and
// its kernel state. It works on active timers (re-slotted in place — when
// the new deadline maps to the timer's current wheel slot not even that),
// on stopped ones, and on fired ones (both are revived), so periodic timers
// avoid the Stop+Schedule allocate-per-arm churn entirely. Reschedule panics
// on a negative delay.
func (t *Timer) Reschedule(delay time.Duration) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: Reschedule with negative delay %v", delay))
	}
	if t.fn == nil && t.h == nil {
		panic("sim: Reschedule on a timer without a callback")
	}
	s := t.s
	t.at = s.now + delay
	t.seq = s.seq
	s.seq++
	if s.tel != nil {
		s.tel.TimerReschedules++
	}
	switch {
	case t.fired || t.cancelled:
		// Revive: fire/Stop left the timer unqueued.
		t.fired = false
		t.cancelled = false
		s.live++
		if s.tel != nil && int64(s.live) > s.tel.MaxPending {
			s.tel.MaxPending = int64(s.live)
		}
		s.place(t)
	case t.level == timerInDue:
		// Invalidate the sorted entry and re-place under the new stamp.
		t.gen++
		s.place(t)
	default:
		// Active in a wheel slot: skip the relink when the new deadline
		// lands in the same slot (the common per-ACK RTO rearm).
		if tick := tickOf(t.at); tick > s.cursor {
			if level, slot := s.placement(tick); level == int(t.level) && slot == int(t.slot) {
				if s.tel != nil {
					s.tel.RearmsInPlace++
				}
				return
			}
		}
		s.unlink(t)
		s.place(t)
	}
}
