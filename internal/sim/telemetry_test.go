package sim

import (
	"testing"
	"time"

	"repro/internal/telemetry"
)

// countingHandler pushes itself back onto its lane, one millisecond out,
// n times.
type countingHandler struct {
	s     *Simulator
	lane  *Lane
	left  int
	fired int
}

func newCountingHandler(s *Simulator, left int) *countingHandler {
	return &countingHandler{s: s, lane: s.NewLane(), left: left}
}

func (h *countingHandler) push() { h.lane.Push(h.s.Now()+time.Millisecond, h) }

func (h *countingHandler) Fire() {
	h.fired++
	if h.left > 0 {
		h.left--
		h.push()
	}
}

func TestKernelTelemetryCounters(t *testing.T) {
	s := New()
	var k telemetry.Kernel
	s.SetTelemetry(&k)

	h := newCountingHandler(s, 9)
	h.push()
	// Three events share the instant 20ms: one batch of three.
	for i := 0; i < 3; i++ {
		s.Schedule(20*time.Millisecond, func() {})
	}

	timer := s.Schedule(time.Hour, func() {})
	timer.Reschedule(2 * time.Hour)
	timer.Stop()

	s.Run()

	if h.fired != 10 {
		t.Fatalf("handler fired %d times, want 10", h.fired)
	}
	if k.Events != s.Executed() {
		t.Errorf("Events = %d, want Executed() = %d", k.Events, s.Executed())
	}
	// 10 lane pushes + 4 timer schedules; the Reschedule is counted
	// separately.
	if k.Scheduled != 14 {
		t.Errorf("Scheduled = %d, want 14", k.Scheduled)
	}
	if k.TimerReschedules != 1 {
		t.Errorf("TimerReschedules = %d, want 1", k.TimerReschedules)
	}
	if k.TimerStops != 1 {
		t.Errorf("TimerStops = %d, want 1", k.TimerStops)
	}
	// The lane entry, three 20ms timers and the hour timer.
	if k.MaxPending != 5 {
		t.Errorf("MaxPending = %d, want 5", k.MaxPending)
	}
	// Ten lane events at 1..10ms fire alone; the 20ms timers share one
	// instant.
	if k.Batches != 11 || k.MaxBatch != 3 {
		t.Errorf("Batches/MaxBatch = %d/%d, want 11/3", k.Batches, k.MaxBatch)
	}
}

func TestTelemetryDoesNotChangeExecution(t *testing.T) {
	run := func(k *telemetry.Kernel) (int64, time.Duration) {
		s := New()
		if k != nil {
			s.SetTelemetry(k)
		}
		newCountingHandler(s, 99).push()
		s.Run()
		return s.Executed(), s.Now()
	}
	offEvents, offNow := run(nil)
	var k telemetry.Kernel
	onEvents, onNow := run(&k)
	if offEvents != onEvents || offNow != onNow {
		t.Fatalf("telemetry changed execution: off=(%d, %v) on=(%d, %v)",
			offEvents, offNow, onEvents, onNow)
	}
}

// TestLaneZeroAlloc is the CI zero-alloc gate: the warmed lane
// push/dispatch path — the per-packet delivery path of every link — must
// not allocate, with telemetry off AND on.
func TestLaneZeroAlloc(t *testing.T) {
	for _, tel := range []bool{false, true} {
		name := "telemetry-off"
		if tel {
			name = "telemetry-on"
		}
		t.Run(name, func(t *testing.T) {
			s := New()
			var k telemetry.Kernel
			if tel {
				s.SetTelemetry(&k)
			}
			// A timer keeps the heap non-empty, so the lane enters and
			// leaves a heap that already has room for it.
			s.Schedule(time.Hour, func() {})
			h := newCountingHandler(s, 0)
			// Warm the lane's ring buffer and the heap.
			for i := 0; i < 4; i++ {
				h.push()
			}
			s.RunUntil(s.Now() + time.Millisecond)
			allocs := testing.AllocsPerRun(1000, func() {
				h.push()
				h.push()
				s.RunUntil(s.Now() + time.Millisecond)
			})
			if allocs != 0 {
				t.Fatalf("warmed Lane.Push+dispatch allocates %v allocs/op, want 0", allocs)
			}
		})
	}
}
