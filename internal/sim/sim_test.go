package sim

import (
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestScheduleOrdering(t *testing.T) {
	s := New()
	var order []int
	s.Schedule(30*time.Millisecond, func() { order = append(order, 3) })
	s.Schedule(10*time.Millisecond, func() { order = append(order, 1) })
	s.Schedule(20*time.Millisecond, func() { order = append(order, 2) })
	s.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if s.Now() != 30*time.Millisecond {
		t.Errorf("Now = %v, want 30ms", s.Now())
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.Schedule(5*time.Millisecond, func() { order = append(order, i) })
	}
	s.Run()
	for i := range order {
		if order[i] != i {
			t.Fatalf("simultaneous events fired out of scheduling order: %v", order)
		}
	}
}

func TestZeroDelayFiresAfterEarlierSameTimeEvents(t *testing.T) {
	s := New()
	var order []string
	s.Schedule(0, func() {
		order = append(order, "first")
		s.Schedule(0, func() { order = append(order, "nested") })
	})
	s.Schedule(0, func() { order = append(order, "second") })
	s.Run()
	want := []string{"first", "second", "nested"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Schedule with negative delay did not panic")
		}
	}()
	New().Schedule(-time.Millisecond, func() {})
}

func TestAtPastPanics(t *testing.T) {
	s := New()
	s.Schedule(time.Second, func() {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Error("At in the past did not panic")
		}
	}()
	s.At(500*time.Millisecond, func() {})
}

func TestNilCallbackPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("At with nil callback did not panic")
		}
	}()
	New().Schedule(time.Second, nil)
}

func TestTimerStop(t *testing.T) {
	s := New()
	fired := false
	tm := s.Schedule(time.Second, func() { fired = true })
	if !tm.Active() {
		t.Error("timer should be active before firing")
	}
	if !tm.Stop() {
		t.Error("Stop on active timer should return true")
	}
	if tm.Stop() {
		t.Error("second Stop should return false")
	}
	if tm.Active() {
		t.Error("stopped timer should not be active")
	}
	s.Run()
	if fired {
		t.Error("stopped timer fired anyway")
	}
}

func TestTimerStopAfterFire(t *testing.T) {
	s := New()
	tm := s.Schedule(time.Millisecond, func() {})
	s.Run()
	if tm.Stop() {
		t.Error("Stop after firing should return false")
	}
	if tm.Active() {
		t.Error("fired timer should not be active")
	}
}

func TestRunUntil(t *testing.T) {
	s := New()
	var fired []time.Duration
	for _, d := range []time.Duration{time.Second, 2 * time.Second, 3 * time.Second} {
		d := d
		s.Schedule(d, func() { fired = append(fired, d) })
	}
	s.RunUntil(2 * time.Second)
	if len(fired) != 2 {
		t.Fatalf("fired %d events, want 2", len(fired))
	}
	if s.Now() != 2*time.Second {
		t.Errorf("Now = %v, want 2s", s.Now())
	}
	if s.Pending() != 1 {
		t.Errorf("Pending = %d, want 1", s.Pending())
	}
	// RunUntil past a gap advances the clock to the deadline even with no
	// events there.
	s.RunUntil(10 * time.Second)
	if s.Now() != 10*time.Second || len(fired) != 3 {
		t.Errorf("Now = %v fired = %v", s.Now(), fired)
	}
}

func TestRunUntilDoesNotFireLaterEvents(t *testing.T) {
	s := New()
	fired := false
	s.Schedule(5*time.Second, func() { fired = true })
	s.RunUntil(4 * time.Second)
	if fired {
		t.Error("event after the deadline fired")
	}
}

func TestPendingSkipsCancelled(t *testing.T) {
	s := New()
	tm := s.Schedule(time.Second, func() {})
	s.Schedule(2*time.Second, func() {})
	tm.Stop()
	if got := s.Pending(); got != 1 {
		t.Errorf("Pending = %d, want 1", got)
	}
}

func TestStepReturnsFalseWhenEmpty(t *testing.T) {
	s := New()
	if s.Step() {
		t.Error("Step on empty simulator returned true")
	}
	tm := s.Schedule(time.Second, func() {})
	tm.Stop()
	if s.Step() {
		t.Error("Step with only cancelled events returned true")
	}
}

func TestEventsCanScheduleMoreEvents(t *testing.T) {
	s := New()
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 100 {
			s.Schedule(time.Millisecond, tick)
		}
	}
	s.Schedule(time.Millisecond, tick)
	s.Run()
	if count != 100 {
		t.Errorf("count = %d, want 100", count)
	}
	if s.Now() != 100*time.Millisecond {
		t.Errorf("Now = %v, want 100ms", s.Now())
	}
}

// Property: whatever the (non-negative) delays, events fire in nondecreasing
// time order and the clock never runs backwards.
func TestEventOrderProperty(t *testing.T) {
	f := func(raw []uint32) bool {
		s := New()
		var fireTimes []time.Duration
		for _, d := range raw {
			delay := time.Duration(d%1_000_000) * time.Microsecond
			s.Schedule(delay, func() { fireTimes = append(fireTimes, s.Now()) })
		}
		s.Run()
		if len(fireTimes) != len(raw) {
			return false
		}
		return sort.SliceIsSorted(fireTimes, func(i, j int) bool { return fireTimes[i] < fireTimes[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// fireCounter is a Handler that counts its firings.
type fireCounter struct{ n int }

func (h *fireCounter) Fire() { h.n++ }

func TestPendingCounter(t *testing.T) {
	s := New()
	if s.Pending() != 0 {
		t.Fatalf("Pending on empty simulator = %d", s.Pending())
	}
	var tms []*Timer
	for i := 1; i <= 10; i++ {
		tms = append(tms, s.Schedule(time.Duration(i)*time.Millisecond, func() {}))
	}
	h := &fireCounter{}
	s.NewLane().Push(time.Millisecond, h)
	if got := s.Pending(); got != 11 {
		t.Fatalf("Pending = %d, want 11", got)
	}
	tms[3].Stop()
	tms[4].Stop()
	if got := s.Pending(); got != 9 {
		t.Fatalf("Pending after 2 stops = %d, want 9", got)
	}
	s.Step() // fires one of the t=1ms events
	s.Step()
	if got := s.Pending(); got != 7 {
		t.Fatalf("Pending after 2 steps = %d, want 7", got)
	}
	tms[4].Reschedule(time.Second) // revive a stopped timer
	if got := s.Pending(); got != 8 {
		t.Fatalf("Pending after revival = %d, want 8", got)
	}
	s.Run()
	if got := s.Pending(); got != 0 {
		t.Fatalf("Pending after Run = %d, want 0", got)
	}
	if h.n != 1 {
		t.Errorf("handler fired %d times, want 1", h.n)
	}
}

func TestCancelledEventsDoNotAccumulate(t *testing.T) {
	// The cancelled-event leak regression test: stopping far-future timers
	// over and over must not grow the queue — a stopped timer leaves the
	// heap immediately, so only the survivor remains.
	s := New()
	keep := s.Schedule(time.Hour, func() {})
	const churn = 100_000
	for i := 0; i < churn; i++ {
		s.Schedule(time.Hour, func() {}).Stop()
	}
	if got := len(s.heap); got != 1 {
		t.Fatalf("queue holds %d entries after %d cancels, want 1", got, churn)
	}
	if s.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", s.Pending())
	}
	if !keep.Active() {
		t.Fatal("surviving timer lost by cancellation churn")
	}
}

func TestCancelChurnPreservesOrder(t *testing.T) {
	s := New()
	var order []int
	var cancel []*Timer
	for i := 0; i < 500; i++ {
		i := i
		s.Schedule(time.Duration(i)*time.Millisecond, func() { order = append(order, i) })
		// Interleave doomed timers so Stop removes from every heap position.
		cancel = append(cancel, s.Schedule(time.Duration(i)*time.Millisecond, func() { t.Error("cancelled timer fired") }))
	}
	for _, tm := range cancel {
		tm.Stop()
	}
	s.Run()
	if len(order) != 500 {
		t.Fatalf("fired %d events, want 500", len(order))
	}
	for i := range order {
		if order[i] != i {
			t.Fatalf("order[%d] = %d after cancellation churn", i, order[i])
		}
	}
}

func TestRescheduleActiveTimer(t *testing.T) {
	s := New()
	var at time.Duration
	tm := s.Schedule(10*time.Millisecond, func() { at = s.Now() })
	tm.Reschedule(30 * time.Millisecond)
	s.Schedule(20*time.Millisecond, func() {})
	s.Run()
	if at != 30*time.Millisecond {
		t.Errorf("rescheduled timer fired at %v, want 30ms", at)
	}
}

func TestRescheduleFiredTimer(t *testing.T) {
	s := New()
	n := 0
	tm := s.Schedule(time.Millisecond, func() { n++ })
	s.Run()
	if n != 1 {
		t.Fatalf("fired %d times, want 1", n)
	}
	if tm.Active() {
		t.Fatal("fired timer still active")
	}
	tm.Reschedule(time.Millisecond)
	if !tm.Active() {
		t.Fatal("rescheduled fired timer not active")
	}
	s.Run()
	if n != 2 {
		t.Errorf("fired %d times after revival, want 2", n)
	}
}

func TestRescheduleStoppedTimer(t *testing.T) {
	s := New()
	n := 0
	tm := s.Schedule(time.Millisecond, func() { n++ })
	tm.Stop()
	tm.Reschedule(5 * time.Millisecond)
	s.Run()
	if n != 1 {
		t.Errorf("revived stopped timer fired %d times, want 1", n)
	}
	if s.Now() != 5*time.Millisecond {
		t.Errorf("Now = %v, want 5ms", s.Now())
	}
}

func TestRescheduleStoppedTimerAfterChurn(t *testing.T) {
	// Stop a timer, churn the queue with unrelated schedule/stop cycles,
	// then revive it: Reschedule must re-place the unlinked timer cleanly.
	s := New()
	n := 0
	tm := s.Schedule(time.Millisecond, func() { n++ })
	tm.Stop()
	for i := 0; i < 256; i++ {
		s.Schedule(time.Hour, func() {}).Stop()
	}
	tm.Reschedule(2 * time.Millisecond)
	s.RunUntil(3 * time.Millisecond)
	if n != 1 {
		t.Errorf("revived timer fired %d times, want 1", n)
	}
}

func TestRescheduleIsFIFOStamped(t *testing.T) {
	// A rescheduled timer landing on an occupied timestamp fires after the
	// events already scheduled there, like a fresh Schedule would.
	s := New()
	var order []string
	tm := s.Schedule(time.Millisecond, func() { order = append(order, "moved") })
	s.Schedule(5*time.Millisecond, func() { order = append(order, "existing") })
	tm.Reschedule(5 * time.Millisecond)
	s.Run()
	if len(order) != 2 || order[0] != "existing" || order[1] != "moved" {
		t.Errorf("order = %v, want [existing moved]", order)
	}
}

func TestRescheduleNegativeDelayPanics(t *testing.T) {
	s := New()
	tm := s.Schedule(time.Second, func() {})
	defer func() {
		if recover() == nil {
			t.Error("Reschedule with negative delay did not panic")
		}
	}()
	tm.Reschedule(-time.Millisecond)
}

func TestLaneReusesItsBuffer(t *testing.T) {
	s := New()
	l := s.NewLane()
	h := &fireCounter{}
	const rounds = 1000
	for i := 0; i < rounds; i++ {
		l.Push(s.Now()+time.Microsecond, h)
		if !s.Step() {
			t.Fatal("Step found no event")
		}
	}
	if h.n != rounds {
		t.Fatalf("fired %d, want %d", h.n, rounds)
	}
	// A lane that never holds more than one entry keeps its first ring
	// buffer and leaves the heap empty once drained.
	if len(l.buf) != 8 || l.Len() != 0 || len(s.heap) != 0 {
		t.Errorf("ring buffer %d, lane length %d, heap %d; want 8, 0, 0", len(l.buf), l.Len(), len(s.heap))
	}
}

func TestLaneOrderingMatchesSchedule(t *testing.T) {
	s := New()
	var order []int
	record := func(i int) Handler { return &orderHandler{order: &order, i: i} }
	a, b := s.NewLane(), s.NewLane()
	a.Push(time.Millisecond, record(1))
	s.Schedule(time.Millisecond, func() { order = append(order, 2) })
	b.Push(time.Millisecond, record(3))
	a.Push(time.Millisecond, record(4))
	b.Push(2*time.Millisecond, record(6))
	s.Schedule(time.Millisecond, func() { order = append(order, 5) })
	s.Run()
	want := []int{1, 2, 3, 4, 5, 6}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

type orderHandler struct {
	order *[]int
	i     int
}

func (h *orderHandler) Fire() { *h.order = append(*h.order, h.i) }

func TestLaneRingWrapsInOrder(t *testing.T) {
	// Interleave pushes and dispatches so the ring's head wraps past the end
	// of the buffer while it grows: entries must still fire in push order.
	s := New()
	l := s.NewLane()
	var order []int
	pushed := 0
	for round := 0; round < 50; round++ {
		for i := 0; i < round%13+1; i++ {
			l.Push(s.Now()+time.Duration(pushed)*time.Microsecond, &orderHandler{order: &order, i: pushed})
			pushed++
		}
		for i := 0; i < round%7; i++ {
			s.Step()
		}
	}
	s.Run()
	if len(order) != pushed {
		t.Fatalf("fired %d of %d entries", len(order), pushed)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("entry %d fired as %d", i, v)
		}
	}
}

func TestLaneNilHandlerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Lane.Push with nil handler did not panic")
		}
	}()
	New().NewLane().Push(time.Second, nil)
}

func TestLanePushOutOfOrderPanics(t *testing.T) {
	for _, tc := range []struct {
		name string
		push func(s *Simulator, l *Lane)
	}{
		{"before last push", func(s *Simulator, l *Lane) {
			l.Push(2*time.Second, &fireCounter{})
			l.Push(time.Second, &fireCounter{})
		}},
		{"before now", func(s *Simulator, l *Lane) {
			s.RunUntil(time.Second)
			l.Push(time.Millisecond, &fireCounter{})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("push did not panic")
				}
			}()
			s := New()
			tc.push(s, s.NewLane())
		})
	}
}

func TestNewRandDeterministic(t *testing.T) {
	a := NewRand(42, StreamDataLoss)
	b := NewRand(42, StreamDataLoss)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same (seed, stream) produced different sequences")
		}
	}
}

func TestNewRandStreamsIndependent(t *testing.T) {
	a := NewRand(42, StreamDataLoss)
	b := NewRand(42, StreamAckLoss)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("streams collided on %d of 64 draws", same)
	}
}

func TestNewRandSeedsDiffer(t *testing.T) {
	a := NewRand(1, StreamDelay)
	b := NewRand(2, StreamDelay)
	if a.Uint64() == b.Uint64() && a.Uint64() == b.Uint64() {
		t.Error("adjacent seeds produced identical draws")
	}
}

func TestNewRandUniformity(t *testing.T) {
	// Crude uniformity check: mean of many Float64 draws near 0.5.
	r := NewRand(7, StreamWorkload)
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if mean < 0.48 || mean > 0.52 {
		t.Errorf("mean of uniform draws = %v, want ~0.5", mean)
	}
}

func TestBudgetMaxEventsStopsRunawayLoop(t *testing.T) {
	s := New()
	s.SetBudget(Budget{MaxEvents: 1000})
	// A pathological workload: every event reschedules itself with zero
	// delay, so without the budget Run would spin forever.
	var fired int
	var loop func()
	loop = func() {
		fired++
		s.Schedule(0, loop)
	}
	s.Schedule(0, loop)
	s.Run()
	if !s.Exhausted() {
		t.Fatal("runaway loop did not exhaust the budget")
	}
	if fired != 1000 {
		t.Fatalf("executed %d events, want exactly the 1000 budget", fired)
	}
	if got := s.Executed(); got != 1000 {
		t.Fatalf("Executed() = %d, want 1000", got)
	}
	if s.Pending() != 1 {
		t.Fatalf("Pending() = %d, want the refused event still queued", s.Pending())
	}
}

// TestZeroDelayLoopKeepsDueBounded pins the kernel's memory on an instant
// that never drains: three interleaved zero-delay self-rescheduling timer
// chains and one zero-delay lane chain dispatch 100k events at time zero.
// They must keep firing in round-robin (at, seq) order, and the queue must
// hold only their pending events rather than every event it dispatched.
func TestZeroDelayLoopKeepsDueBounded(t *testing.T) {
	s := New()
	s.SetBudget(Budget{MaxEvents: 100_000})
	const chains = 4
	var fired []int
	lane := s.NewLane()
	var chain [chains]func()
	for c := range chain {
		chain[c] = func() {
			fired = append(fired, c)
			if c == chains-1 {
				lane.Push(s.Now(), fireFunc(chain[c]))
				return
			}
			s.Schedule(0, chain[c])
		}
		if c == chains-1 {
			lane.Push(0, fireFunc(chain[c]))
		} else {
			s.Schedule(0, chain[c])
		}
	}
	s.Run()
	if !s.Exhausted() || len(fired) != 100_000 {
		t.Fatalf("executed %d events (exhausted %v), want the 100000 budget", len(fired), s.Exhausted())
	}
	for i, c := range fired {
		if c != i%chains {
			t.Fatalf("event %d came from chain %d, want %d", i, c, i%chains)
		}
	}
	if n := cap(s.heap); n > 2*chains {
		t.Errorf("heap grew to capacity %d, want at most %d", n, 2*chains)
	}
	if n := len(lane.buf); n > 8 {
		t.Errorf("lane ring grew to %d entries, want at most 8", n)
	}
}

func TestBudgetRunUntilTerminates(t *testing.T) {
	// The regression this guards: RunUntil must stop when Step refuses an
	// event, not keep peeking at it forever.
	s := New()
	s.SetBudget(Budget{MaxEvents: 10})
	var loop func()
	loop = func() { s.Schedule(0, loop) }
	s.Schedule(0, loop)
	done := make(chan struct{})
	go func() {
		s.RunUntil(time.Second)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("RunUntil spun past an exhausted budget")
	}
	if !s.Exhausted() {
		t.Fatal("budget not exhausted")
	}
}

func TestBudgetMaxVirtualTimeLeavesEventsQueued(t *testing.T) {
	s := New()
	s.SetBudget(Budget{MaxVirtualTime: 50 * time.Millisecond})
	var fired []time.Duration
	for _, at := range []time.Duration{10 * time.Millisecond, 40 * time.Millisecond, 100 * time.Millisecond} {
		at := at
		s.At(at, func() { fired = append(fired, at) })
	}
	s.Run()
	if len(fired) != 2 {
		t.Fatalf("fired %v, want the two events inside the horizon", fired)
	}
	if !s.Exhausted() {
		t.Fatal("event beyond the horizon should exhaust the budget")
	}
	if s.Pending() != 1 {
		t.Fatalf("Pending() = %d, want the refused event preserved", s.Pending())
	}
	if s.Now() != 40*time.Millisecond {
		t.Fatalf("clock at %v, want it left at the last executed event", s.Now())
	}
	// Raising the budget lets the run continue where it stopped.
	s.SetBudget(Budget{})
	s.Run()
	if len(fired) != 3 {
		t.Fatalf("fired %v after lifting the budget, want all three", fired)
	}
}

func TestSetBudgetClearsExhaustion(t *testing.T) {
	s := New()
	s.SetBudget(Budget{MaxEvents: 1})
	s.Schedule(0, func() {})
	s.Schedule(0, func() {})
	s.Run()
	if !s.Exhausted() {
		t.Fatal("want exhausted")
	}
	s.SetBudget(Budget{MaxEvents: 100})
	if s.Exhausted() {
		t.Fatal("SetBudget should clear the exhausted flag")
	}
	s.Run()
	if s.Exhausted() || s.Pending() != 0 {
		t.Fatal("run should complete under the raised budget")
	}
}

// fireFunc adapts a closure to the Handler interface for tests.
type fireFunc func()

func (f fireFunc) Fire() { f() }

func TestInvariantChecksPassOnNormalWorkload(t *testing.T) {
	// Self-check mode must be silent on a healthy kernel, across scheduling,
	// cancellation, rescheduling and lane pushes.
	s := New()
	s.SetInvariantChecks(true)
	rng := NewRand(3, StreamWorkload)
	var timers []*Timer
	lanes := [3]*Lane{s.NewLane(), s.NewLane(), s.NewLane()}
	n := 0
	for i := 0; i < 12_000; i++ {
		d := time.Duration(rng.Int63n(int64(10 * time.Millisecond)))
		switch i % 4 {
		case 0:
			timers = append(timers, s.Schedule(d, func() { n++ }))
		case 1:
			l := lanes[i%len(lanes)]
			l.Push(max(s.Now()+d, l.last), fireFunc(func() { n++ }))
		case 2:
			if len(timers) > 0 {
				timers[len(timers)-1].Stop()
				timers = timers[:len(timers)-1]
			}
		case 3:
			if len(timers) > 0 && timers[0].Active() {
				timers[0].Reschedule(d)
			}
		}
		// Drain periodically so dispatch interleaves with insertions.
		if i%64 == 63 {
			for j := 0; j < 32; j++ {
				if !s.Step() {
					break
				}
			}
		}
	}
	s.Run()
	if n == 0 {
		t.Fatal("workload fired nothing")
	}
}
