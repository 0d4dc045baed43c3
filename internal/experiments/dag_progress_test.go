package experiments

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestRunDAGReportsEveryTask(t *testing.T) {
	tasks := []Task{
		{Name: "a", Run: func() (string, error) { return "A", nil }},
		{Name: "b", Deps: []string{"a"}, Run: func() (string, error) { return "", errors.New("boom") }},
		{Name: "c", Deps: []string{"b"}, Run: func() (string, error) { return "C", nil }},
		{Name: "d", Run: func() (string, error) { return "D", nil }},
	}
	seen := map[string]TaskResult{}
	var completedSeq []int
	total := -1
	results, err := RunDAG(context.Background(), tasks, 3,
		func(res TaskResult, completed, tot int) {
			seen[res.Name] = res
			completedSeq = append(completedSeq, completed)
			total = tot
		})
	if err != nil {
		t.Fatalf("RunDAG: %v", err)
	}
	if len(seen) != len(tasks) || total != len(tasks) {
		t.Fatalf("onDone saw %d tasks (total %d), want %d", len(seen), total, len(tasks))
	}
	// onDone runs on the coordinator goroutine, so the completed counter must
	// be strictly monotone 1..n even with parallel workers.
	for i, c := range completedSeq {
		if c != i+1 {
			t.Fatalf("completed sequence = %v, want 1..%d", completedSeq, len(tasks))
		}
	}
	if !seen["c"].Skipped {
		t.Errorf("onDone for skipped task c = %+v, want Skipped", seen["c"])
	}
	if seen["b"].Err == nil {
		t.Errorf("onDone for failed task b carried no error")
	}
	// The returned slice matches what onDone observed.
	for _, r := range results {
		if got := seen[r.Name]; got.Skipped != r.Skipped || (got.Err == nil) != (r.Err == nil) {
			t.Errorf("onDone result for %q (%+v) differs from returned result (%+v)", r.Name, got, r)
		}
	}
}

var allocSink []byte

func TestRunDAGWallAndAllocTracking(t *testing.T) {
	tasks := []Task{
		{Name: "work", Run: func() (string, error) {
			time.Sleep(2 * time.Millisecond)
			allocSink = make([]byte, 1<<16)
			return "ok", nil
		}},
		{Name: "fail", Run: func() (string, error) { return "", errors.New("no") }},
		{Name: "skipped", Deps: []string{"fail"}, Run: func() (string, error) { return "", nil }},
	}
	// Sequential run: wall time and allocation deltas are both attributable.
	results, err := RunDAG(context.Background(), tasks, 1, nil)
	if err != nil {
		t.Fatalf("RunDAG: %v", err)
	}
	if results[0].Wall <= 0 {
		t.Errorf("completed task Wall = %v, want > 0", results[0].Wall)
	}
	if results[0].Mallocs == 0 || results[0].AllocBytes < 1<<16 {
		t.Errorf("jobs=1 alloc tracking: Mallocs=%d AllocBytes=%d", results[0].Mallocs, results[0].AllocBytes)
	}
	if results[2].Wall != 0 || results[2].Mallocs != 0 {
		t.Errorf("skipped task has resource metrics: %+v", results[2])
	}

	// Parallel run: wall is still tracked, allocation deltas are not (the
	// process-global counters cannot be attributed to one task).
	results, err = RunDAG(context.Background(), tasks, 2, nil)
	if err != nil {
		t.Fatalf("RunDAG(jobs=2): %v", err)
	}
	if results[0].Wall <= 0 {
		t.Errorf("jobs=2 completed task Wall = %v, want > 0", results[0].Wall)
	}
	if results[0].Mallocs != 0 || results[0].AllocBytes != 0 {
		t.Errorf("jobs=2 tracked allocs anyway: %+v", results[0])
	}
}
