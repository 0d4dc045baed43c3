package dataset

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
)

// spinner reschedules itself delay ahead on every firing. One nanosecond
// is a billion events per simulated second, 500 times the rate the budget
// grants; zero pins the kernel on one wheel tick that never drains. Either
// way only the budget can end the run.
type spinner struct {
	s     *sim.Simulator
	delay time.Duration
}

func (sp spinner) Fire() { sp.s.ScheduleFire(sp.delay, sp) }

// TestRunBudgetedStopsRunawaySchedule checks that RunBudgeted returns an
// error naming the flow instead of hanging or running out of memory. One
// flow to a 1 s horizon gets 122 million events, a few seconds of spinning
// per case; the race detector makes that minutes, so the test skips under
// -race and -short.
func TestRunBudgetedStopsRunawaySchedule(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("spins the kernel through a 122-million-event budget")
	}
	for _, delay := range []time.Duration{1, 0} {
		t.Run(fmt.Sprintf("delay=%dns", delay), func(t *testing.T) {
			simulator := sim.New()
			simulator.ScheduleFire(0, spinner{simulator, delay})
			start := time.Now()
			budget, err := RunBudgeted(simulator, "spin-0", time.Second, 1)
			t.Logf("exhausted %d events in %v", budget, time.Since(start))
			if err == nil {
				t.Fatal("runaway schedule reported no error")
			}
			if !strings.Contains(err.Error(), "flow spin-0") || !strings.Contains(err.Error(), "122000000-event") {
				t.Errorf("error %q does not name the flow and its budget", err)
			}
			if got := simulator.Executed(); got != budget {
				t.Errorf("executed %d events, want the %d-event budget", got, budget)
			}
		})
	}
}

// TestRunBudgetedBudget pins the budget RunBudgeted installs to the formula
// every driver used before it existed, 2e6 events x whole seconds of
// (horizon + 1 min) x flows, so -metrics' budget_events cannot move.
func TestRunBudgetedBudget(t *testing.T) {
	for _, c := range []struct {
		horizon time.Duration
		flows   int
	}{
		{0, 1}, {45 * time.Second, 1}, {120 * time.Second, 1}, {1500 * time.Millisecond, 1},
		{45 * time.Second, 4}, {300 * time.Second, 2}, {360 * time.Second, 5},
	} {
		want := int64((c.horizon+time.Minute)/time.Second) * 2_000_000 * int64(c.flows)
		got, err := RunBudgeted(sim.New(), "idle", c.horizon, c.flows)
		if err != nil {
			t.Fatalf("horizon %v, %d flows: %v", c.horizon, c.flows, err)
		}
		if got != want {
			t.Errorf("horizon %v, %d flows: budget %d, want %d", c.horizon, c.flows, got, want)
		}
	}
	if _, err := RunBudgeted(sim.New(), "none", time.Second, 0); err == nil {
		t.Error("a zero-flow budget (unlimited) was accepted")
	}
}
