package sim

// Differential testing of the kernel against a reference scheduler. The
// reference is the ordering essence of the kernel's contract: one (at, seq)
// min-heap with lazy deletion that holds every event, lane entries included,
// built on container/heap. Both kernels consume the same randomized schedule
// of operations — Schedule and lane pushes (monotone per lane, with zero
// delays, ties and handler-chained events), Stop, Reschedule, Step,
// RunUntil, and event and virtual-time budgets — and must produce the
// identical global fire order and identical accounting. Any kernel bug that
// reorders, drops, duplicates, or resurrects an event shows up as a log
// divergence.

import (
	"container/heap"
	"math/rand"
	"testing"
	"time"
)

// refEvent is one schedulable event in the reference model.
type refEvent struct {
	at        time.Duration
	seq       uint64
	gen       uint64 // bumped on Stop/Reschedule; validates heap entries
	id        int
	fired     bool
	cancelled bool
}

// refEntry is a heap cell; stale cells (gen mismatch) are skipped at pop.
type refEntry struct {
	at  time.Duration
	seq uint64
	gen uint64
	e   *refEvent
}

type refHeap []refEntry

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(refEntry)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// refSched is the reference scheduler: same public semantics as Simulator,
// implemented the obviously-correct way.
type refSched struct {
	now       time.Duration
	seq       uint64
	live      int
	h         refHeap
	budget    Budget
	executed  int64
	exhausted bool
	fire      func(*refEvent) // harness hook: logs and chain-schedules
}

func (r *refSched) push(e *refEvent) {
	e.seq = r.seq
	r.seq++
	r.live++
	heap.Push(&r.h, refEntry{at: e.at, seq: e.seq, gen: e.gen, e: e})
}

func (r *refSched) schedule(delay time.Duration, id int) *refEvent {
	return r.at(r.now+delay, id)
}

func (r *refSched) at(at time.Duration, id int) *refEvent {
	e := &refEvent{at: at, id: id}
	r.push(e)
	return e
}

func (r *refSched) stop(e *refEvent) bool {
	if e.fired || e.cancelled {
		return false
	}
	e.cancelled = true
	e.gen++
	r.live--
	return true
}

func (r *refSched) reschedule(e *refEvent, delay time.Duration) {
	e.at = r.now + delay
	e.gen++
	if e.fired || e.cancelled {
		e.fired, e.cancelled = false, false
		r.live++
	}
	e.seq = r.seq
	r.seq++
	heap.Push(&r.h, refEntry{at: e.at, seq: e.seq, gen: e.gen, e: e})
}

// peek returns the earliest live event without consuming it, or nil.
func (r *refSched) peek() *refEvent {
	for len(r.h) > 0 {
		top := r.h[0]
		if top.e.gen == top.gen {
			return top.e
		}
		heap.Pop(&r.h)
	}
	return nil
}

func (r *refSched) refuses(at time.Duration) bool {
	if r.budget.MaxEvents > 0 && r.executed >= r.budget.MaxEvents {
		r.exhausted = true
		return true
	}
	if r.budget.MaxVirtualTime > 0 && at > r.budget.MaxVirtualTime {
		r.exhausted = true
		return true
	}
	return false
}

func (r *refSched) step() bool {
	e := r.peek()
	if e == nil {
		return false
	}
	if r.refuses(e.at) {
		return false
	}
	heap.Pop(&r.h)
	e.gen++
	e.fired = true
	r.now = e.at
	r.live--
	r.executed++
	r.fire(e)
	return true
}

func (r *refSched) run() {
	for r.step() {
	}
}

func (r *refSched) runUntil(deadline time.Duration) {
	for {
		e := r.peek()
		if e == nil || e.at > deadline {
			break
		}
		if r.refuses(e.at) {
			return
		}
		heap.Pop(&r.h)
		e.gen++
		e.fired = true
		r.now = e.at
		r.live--
		r.executed++
		r.fire(e)
	}
	if r.now < deadline {
		r.now = deadline
	}
}

// fireRec is one entry of a fire log: which event fired and when.
type fireRec struct {
	id int
	at time.Duration
}

// fireLogger implements Handler for the kernel side's lane entries.
type fireLogger struct {
	h  *diffHarness
	id int
}

func (f *fireLogger) Fire() { f.h.realFired(f.id) }

// diffLanes is how many lanes the harness pushes onto.
const diffLanes = 3

// diffHarness drives the kernel and the reference scheduler through one
// operation schedule and collects both fire logs.
type diffHarness struct {
	t *testing.T

	s *Simulator
	r *refSched

	// Stoppable timers, parallel by index. Lane entries are not listed:
	// they have no handle.
	realTimers []*Timer
	refEvents  []*refEvent

	// The kernel's lanes, and the reference's record of each lane's latest
	// push time (a lane's times never decrease).
	lanes   [diffLanes]*Lane
	refLast [diffLanes]time.Duration

	realLog []fireRec
	refLog  []fireRec

	// Per-side chain state: fired events with id%3==0 schedule a follow-up
	// timer and ones with id%3==1 push a follow-up onto a lane while chain
	// budget remains, exercising scheduling from inside dispatch (including
	// zero delays at the instant being dispatched).
	realChain, refChain   int
	realNextID, refNextID int
}

// chainDelay derives a deterministic follow-up delay from the firing event's
// id; id%5==0 yields zero (an event born at the instant being dispatched).
func chainDelay(id int) time.Duration {
	return time.Duration(id%5) * 300 * time.Microsecond
}

func (h *diffHarness) realFired(id int) {
	h.realLog = append(h.realLog, fireRec{id: id, at: h.s.Now()})
	if id%3 == 2 || h.realChain == 0 {
		return
	}
	h.realChain--
	if id%3 == 0 {
		nid := h.realNextID
		h.realNextID++
		tm := h.s.Schedule(chainDelay(id), func() { h.realFired(nid) })
		h.realTimers = append(h.realTimers, tm)
		return
	}
	h.realPush(id%diffLanes, chainDelay(id))
}

func (h *diffHarness) refFired(e *refEvent) {
	h.refLog = append(h.refLog, fireRec{id: e.id, at: h.r.now})
	if e.id%3 == 2 || h.refChain == 0 {
		return
	}
	h.refChain--
	if e.id%3 == 0 {
		nid := h.refNextID
		h.refNextID++
		h.refEvents = append(h.refEvents, h.r.schedule(chainDelay(e.id), nid))
		return
	}
	h.refPush(e.id%diffLanes, chainDelay(e.id))
}

// realPush pushes an entry onto kernel lane k at now+delay, or at the
// lane's latest push time when that is later.
func (h *diffHarness) realPush(k int, delay time.Duration) {
	l := h.lanes[k]
	id := h.realNextID
	h.realNextID++
	l.Push(max(h.s.Now()+delay, l.last), &fireLogger{h: h, id: id})
}

// refPush is realPush on the reference: a plain event at the same time.
func (h *diffHarness) refPush(k int, delay time.Duration) {
	at := max(h.r.now+delay, h.refLast[k])
	h.refLast[k] = at
	h.r.at(at, h.refNextID)
	h.refNextID++
}

// checkState compares the cheap invariants after every op so a divergence is
// attributed to the op that introduced it, not to the final drain.
func (h *diffHarness) checkState(op string) {
	h.t.Helper()
	if h.s.Pending() != h.r.live {
		h.t.Fatalf("after %s: Pending() = %d, reference = %d", op, h.s.Pending(), h.r.live)
	}
	if h.s.Now() != h.r.now {
		h.t.Fatalf("after %s: Now() = %v, reference = %v", op, h.s.Now(), h.r.now)
	}
	if h.s.Executed() != h.r.executed {
		h.t.Fatalf("after %s: Executed() = %d, reference = %d", op, h.s.Executed(), h.r.executed)
	}
	if h.s.Exhausted() != h.r.exhausted {
		h.t.Fatalf("after %s: Exhausted() = %v, reference = %v", op, h.s.Exhausted(), h.r.exhausted)
	}
	if len(h.realLog) != len(h.refLog) {
		h.t.Fatalf("after %s: %d fires on kernel, %d on reference", op, len(h.realLog), len(h.refLog))
	}
}

func (h *diffHarness) checkLogs() {
	h.t.Helper()
	n := len(h.realLog)
	if len(h.refLog) < n {
		n = len(h.refLog)
	}
	for i := 0; i < n; i++ {
		if h.realLog[i] != h.refLog[i] {
			h.t.Fatalf("fire %d diverged: kernel fired id=%d at %v, reference id=%d at %v",
				i, h.realLog[i].id, h.realLog[i].at, h.refLog[i].id, h.refLog[i].at)
		}
	}
	if len(h.realLog) != len(h.refLog) {
		h.t.Fatalf("fire counts diverged: kernel %d, reference %d", len(h.realLog), len(h.refLog))
	}
}

// decodeDelay maps two schedule bytes to a delay: the common case stays
// within ~5.7 s, and every seventh value is stretched ~4096x into the far
// future, so short and long horizons interleave in the queue.
func decodeDelay(hi, lo byte) time.Duration {
	v := int64(hi)<<8 | int64(lo)
	d := time.Duration(v) * 87 * time.Microsecond
	if v%7 == 0 {
		d *= 4096
	}
	return d
}

// runDifferential interprets ops as an operation schedule against both
// kernels. It is the shared body of the seeded randomized test and the fuzz
// target.
func runDifferential(t *testing.T, ops []byte) {
	if len(ops) > 4096 {
		ops = ops[:4096]
	}
	h := &diffHarness{
		t:         t,
		s:         New(),
		realChain: 256,
		refChain:  256,
	}
	h.r = &refSched{fire: h.refFired}
	for k := range h.lanes {
		h.lanes[k] = h.s.NewLane()
	}
	h.s.SetInvariantChecks(true)

	i := 0
	next := func() byte {
		if i < len(ops) {
			b := ops[i]
			i++
			return b
		}
		return 0
	}
	for i < len(ops) {
		op := next()
		switch op % 10 {
		case 0: // Schedule a stoppable timer
			d := decodeDelay(next(), next())
			id := h.realNextID
			h.realNextID++
			tm := h.s.Schedule(d, func() { h.realFired(id) })
			h.realTimers = append(h.realTimers, tm)
			rid := h.refNextID
			h.refNextID++
			h.refEvents = append(h.refEvents, h.r.schedule(d, rid))
			h.checkState("schedule")
		case 1: // Push onto a lane, no earlier than its latest push
			k := int(next()) % diffLanes
			d := decodeDelay(next(), next())
			h.realPush(k, d)
			h.refPush(k, d)
			h.checkState("lane-push")
		case 2: // Zero-delay schedule: fires after everything already due now
			id := h.realNextID
			h.realNextID++
			tm := h.s.Schedule(0, func() { h.realFired(id) })
			h.realTimers = append(h.realTimers, tm)
			rid := h.refNextID
			h.refNextID++
			h.refEvents = append(h.refEvents, h.r.schedule(0, rid))
			h.checkState("zero-delay")
		case 3: // Stop a random timer; the return values must agree
			if len(h.realTimers) != len(h.refEvents) {
				t.Fatalf("timer lists diverged: %d vs %d", len(h.realTimers), len(h.refEvents))
			}
			if n := len(h.realTimers); n > 0 {
				k := int(next()) % n
				rs := h.realTimers[k].Stop()
				fs := h.r.stop(h.refEvents[k])
				if rs != fs {
					t.Fatalf("Stop(timer %d) = %v on kernel, %v on reference", k, rs, fs)
				}
			}
			h.checkState("stop")
		case 4: // Reschedule a random timer (active, stopped, or fired)
			if n := len(h.realTimers); n > 0 {
				k := int(next()) % n
				d := decodeDelay(next(), next())
				ra := h.realTimers[k].Active()
				fa := !h.refEvents[k].fired && !h.refEvents[k].cancelled
				if ra != fa {
					t.Fatalf("Active(timer %d) = %v on kernel, %v on reference", k, ra, fa)
				}
				h.realTimers[k].Reschedule(d)
				h.r.reschedule(h.refEvents[k], d)
			}
			h.checkState("reschedule")
		case 5: // Step one event on each
			rs := h.s.Step()
			fs := h.r.step()
			if rs != fs {
				t.Fatalf("Step() = %v on kernel, %v on reference", rs, fs)
			}
			h.checkState("step")
		case 6: // Zero-delay lane push: ties with everything due now
			k := int(next()) % diffLanes
			h.realPush(k, 0)
			h.refPush(k, 0)
			h.checkState("lane-zero-delay")
		case 7: // RunUntil a nearby deadline
			d := decodeDelay(next(), next())
			h.s.RunUntil(h.s.Now() + d)
			h.r.runUntil(h.r.now + d)
			h.checkState("rununtil")
		case 8: // Budget exhaustion: cap events a little past the current count
			k := int64(next() % 8)
			if h.s.Executed() != h.r.executed {
				t.Fatalf("pre-budget Executed diverged: %d vs %d", h.s.Executed(), h.r.executed)
			}
			b := Budget{MaxEvents: h.s.Executed() + k}
			h.s.SetBudget(b)
			h.r.budget, h.r.exhausted = b, false
			h.s.Run()
			h.r.run()
			h.checkState("budget-run")
			h.s.SetBudget(Budget{})
			h.r.budget, h.r.exhausted = Budget{}, false
		case 9: // Virtual-time budget: refuse events past a nearby horizon
			b := Budget{MaxVirtualTime: h.s.Now() + decodeDelay(next(), next())}
			h.s.SetBudget(b)
			h.r.budget, h.r.exhausted = b, false
			h.s.Run()
			h.r.run()
			h.checkState("horizon-run")
			h.s.SetBudget(Budget{})
			h.r.budget, h.r.exhausted = Budget{}, false
		}
		h.checkLogs()
	}

	// Drain both completely and compare the full histories.
	h.s.SetBudget(Budget{})
	h.r.budget, h.r.exhausted = Budget{}, false
	h.s.Run()
	h.r.run()
	h.checkState("final-drain")
	h.checkLogs()
	if h.s.Pending() != 0 {
		t.Fatalf("kernel left %d events pending after full drain", h.s.Pending())
	}
}

// TestKernelDifferentialRandom feeds seeded random op schedules through the
// differential harness: the kernel must match the reference heap on every
// one.
func TestKernelDifferentialRandom(t *testing.T) {
	iters := 150
	if testing.Short() {
		iters = 25
	}
	rng := rand.New(rand.NewSource(0x1CDC5))
	for it := 0; it < iters; it++ {
		ops := make([]byte, 40+rng.Intn(360))
		rng.Read(ops)
		t.Run("", func(t *testing.T) {
			runDifferential(t, ops)
		})
	}
}

// FuzzKernelDifferential lets the fuzzer search for op schedules on which
// the kernel and the reference heap disagree.
func FuzzKernelDifferential(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8})
	// A schedule mixing far-future events (delay values divisible by 7 are
	// stretched ~4096x), cancellation, reschedule churn, and budget stops.
	f.Add([]byte{
		0, 0, 7, 1, 0, 14, 0, 255, 255, 2, 2, 2,
		3, 1, 4, 0, 0, 49, 5, 5, 6, 7, 0, 28,
		8, 3, 0, 0, 0, 1, 7, 0, 8, 6, 5,
	})
	f.Add([]byte{2, 2, 2, 2, 5, 5, 5, 5, 3, 0, 4, 0, 0, 0, 5})
	// Lane pushes on all three lanes (with zero-delay ties) interleaved with
	// timers, Stop/Reschedule churn, steps, a RunUntil and both budgets.
	f.Add([]byte{
		1, 0, 0, 9, 1, 1, 0, 3, 6, 0, 6, 2, 0, 0, 5, 2,
		1, 2, 1, 0, 4, 0, 0, 2, 3, 0, 5, 6, 1, 15, 1, 0, 4,
		5, 5, 8, 2, 9, 0, 40, 7, 0, 10, 5, 1, 2, 0, 0, 5,
	})
	f.Fuzz(func(t *testing.T, ops []byte) {
		runDifferential(t, ops)
	})
}
