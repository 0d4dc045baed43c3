package experiments

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestRunDAGResultsInInputOrder(t *testing.T) {
	// Task durations are inverted relative to input order (the first task is
	// the slowest), so completion order differs from input order under
	// parallelism; the results must come back in input order anyway.
	var tasks []Task
	for i := 0; i < 8; i++ {
		i := i
		tasks = append(tasks, Task{
			Name: fmt.Sprintf("t%d", i),
			Run: func() (string, error) {
				for spin := 0; spin < (8-i)*1000; spin++ {
					_ = spin * spin
				}
				return fmt.Sprintf("out%d", i), nil
			},
		})
	}
	res, err := RunDAG(context.Background(), tasks, 4, nil)
	if err != nil {
		t.Fatalf("RunDAG: %v", err)
	}
	for i, r := range res {
		if r.Name != tasks[i].Name || r.Output != fmt.Sprintf("out%d", i) {
			t.Errorf("result %d = {%s %q}, want {%s out%d}", i, r.Name, r.Output, tasks[i].Name, i)
		}
	}
}

func TestRunDAGDependencyHappensBefore(t *testing.T) {
	// A linear chain threaded through shared state: each link appends its
	// letter only if its dependency already appended. Any ordering violation
	// corrupts the string.
	var mu sync.Mutex
	var order string
	link := func(name, prev string) Task {
		deps := []string(nil)
		if prev != "" {
			deps = []string{prev}
		}
		return Task{Name: name, Deps: deps, Run: func() (string, error) {
			mu.Lock()
			defer mu.Unlock()
			order += name
			return "", nil
		}}
	}
	tasks := []Task{
		link("c", "b"), link("a", ""), link("b", "a"), link("d", "c"),
	}
	if _, err := RunDAG(context.Background(), tasks, 8, nil); err != nil {
		t.Fatalf("RunDAG: %v", err)
	}
	if order != "abcd" {
		t.Errorf("execution order = %q, want abcd", order)
	}
}

func TestRunDAGParallelMatchesSequential(t *testing.T) {
	// The hsrbench invariant: for one task set, -jobs N renders byte-identical
	// output to the sequential run. Tasks form a diamond sharing state
	// through their dependency.
	build := func() []Task {
		shared := 0
		return []Task{
			{Name: "base", Run: func() (string, error) { shared = 42; return "base\n", nil }},
			{Name: "left", Deps: []string{"base"}, Run: func() (string, error) {
				return fmt.Sprintf("left %d\n", shared), nil
			}},
			{Name: "right", Deps: []string{"base"}, Run: func() (string, error) {
				return fmt.Sprintf("right %d\n", shared*2), nil
			}},
			{Name: "join", Deps: []string{"left", "right"}, Run: func() (string, error) {
				return "join\n", nil
			}},
			{Name: "solo", Run: func() (string, error) { return "solo\n", nil }},
		}
	}
	// Wall/Mallocs/AllocBytes are resource metrics, documented as never
	// reproducible; only the experiment outcome must match.
	strip := func(rs []TaskResult) []TaskResult {
		out := append([]TaskResult(nil), rs...)
		for i := range out {
			out[i].Wall, out[i].Mallocs, out[i].AllocBytes = 0, 0, 0
		}
		return out
	}
	seq, err := RunDAG(context.Background(), build(), 1, nil)
	if err != nil {
		t.Fatalf("sequential RunDAG: %v", err)
	}
	for _, jobs := range []int{2, 8, 0} {
		par, err := RunDAG(context.Background(), build(), jobs, nil)
		if err != nil {
			t.Fatalf("RunDAG(jobs=%d): %v", jobs, err)
		}
		if !reflect.DeepEqual(strip(par), strip(seq)) {
			t.Errorf("jobs=%d results = %+v, want sequential %+v", jobs, par, seq)
		}
	}
}

func TestRunDAGSkipsDependentsOfFailedTask(t *testing.T) {
	boom := errors.New("boom")
	var ran atomic.Int32
	tasks := []Task{
		{Name: "bad", Run: func() (string, error) { return "", boom }},
		{Name: "child", Deps: []string{"bad"}, Run: func() (string, error) {
			ran.Add(1)
			return "", nil
		}},
		{Name: "grandchild", Deps: []string{"child"}, Run: func() (string, error) {
			ran.Add(1)
			return "", nil
		}},
		{Name: "bystander", Run: func() (string, error) { return "ok", nil }},
	}
	res, err := RunDAG(context.Background(), tasks, 4, nil)
	if err != nil {
		t.Fatalf("RunDAG: %v", err)
	}
	if ran.Load() != 0 {
		t.Errorf("%d dependents of the failed task ran, want 0", ran.Load())
	}
	if !errors.Is(res[0].Err, boom) || res[0].Skipped {
		t.Errorf("bad result = %+v, want Err=boom, not skipped", res[0])
	}
	for _, i := range []int{1, 2} {
		if !res[i].Skipped || res[i].Err == nil {
			t.Errorf("%s result = %+v, want skipped with error", res[i].Name, res[i])
		}
	}
	if res[3].Err != nil || res[3].Skipped || res[3].Output != "ok" {
		t.Errorf("bystander result = %+v, want clean success", res[3])
	}
}

func TestRunDAGRejectsMalformedGraphs(t *testing.T) {
	noop := func() (string, error) { return "", nil }
	cases := []struct {
		name  string
		tasks []Task
		want  string
	}{
		{"empty name", []Task{{Name: "", Run: noop}}, "empty name"},
		{"nil run", []Task{{Name: "a"}}, "nil Run"},
		{"duplicate", []Task{{Name: "a", Run: noop}, {Name: "a", Run: noop}}, "duplicate"},
		{"unknown dep", []Task{{Name: "a", Deps: []string{"ghost"}, Run: noop}}, "unknown"},
		{"self dep", []Task{{Name: "a", Deps: []string{"a"}, Run: noop}}, "itself"},
		{"cycle", []Task{
			{Name: "a", Deps: []string{"b"}, Run: noop},
			{Name: "b", Deps: []string{"a"}, Run: noop},
		}, "cycle"},
	}
	for _, tc := range cases {
		if _, err := RunDAG(context.Background(), tc.tasks, 1, nil); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: RunDAG error = %v, want mention of %q", tc.name, err, tc.want)
		}
	}
}

func TestRunDAGEmpty(t *testing.T) {
	res, err := RunDAG(context.Background(), nil, 4, nil)
	if err != nil {
		t.Fatalf("RunDAG(nil): %v", err)
	}
	if len(res) != 0 {
		t.Errorf("RunDAG(nil) = %d results, want 0", len(res))
	}
}

func TestRunDAGRecoversPanickingTask(t *testing.T) {
	var cRan, dRan bool
	tasks := []Task{
		{Name: "a", Run: func() (string, error) { panic("kaboom") }},
		{Name: "b", Deps: []string{"a"}, Run: func() (string, error) { return "b-out", nil }},
		{Name: "c", Run: func() (string, error) { cRan = true; return "c-out", nil }},
		{Name: "d", Deps: []string{"c"}, Run: func() (string, error) { dRan = true; return "d-out", nil }},
	}
	results, err := RunDAG(context.Background(), tasks, 2, nil)
	if err != nil {
		t.Fatalf("RunDAG: %v", err)
	}
	var pe *PanicError
	if !errors.As(results[0].Err, &pe) {
		t.Fatalf("panicking task's Err = %v, want *PanicError", results[0].Err)
	}
	if pe.Value != "kaboom" {
		t.Errorf("PanicError.Value = %v, want the panic value", pe.Value)
	}
	if len(pe.Stack) == 0 || !strings.Contains(string(pe.Stack), "goroutine") {
		t.Error("PanicError.Stack does not hold a goroutine stack")
	}
	if !strings.Contains(pe.Error(), "kaboom") {
		t.Errorf("PanicError.Error() = %q, want it to name the panic value", pe.Error())
	}
	if !results[1].Skipped {
		t.Error("dependent of the panicking task was not skipped")
	}
	if !cRan || !dRan {
		t.Error("independent branch did not run to completion")
	}
	if results[2].Err != nil || results[3].Err != nil {
		t.Errorf("independent branch reported errors: %v, %v", results[2].Err, results[3].Err)
	}
	for i, want := range []string{"a", "b", "c", "d"} {
		if results[i].Name != want {
			t.Fatalf("results out of input order: %v", results)
		}
	}
}

func TestRunDAGCancellation(t *testing.T) {
	// The first task cancels the context while running; it must finish
	// normally, and every task that has not started yet must be reported
	// Skipped with the context error (including transitively).
	ctx, cancel := context.WithCancel(context.Background())
	tasks := []Task{
		{Name: "first", Run: func() (string, error) { cancel(); return "first-out", nil }},
		{Name: "second", Deps: []string{"first"}, Run: func() (string, error) {
			t.Error("second ran after cancellation")
			return "", nil
		}},
		{Name: "third", Deps: []string{"second"}, Run: func() (string, error) {
			t.Error("third ran after cancellation")
			return "", nil
		}},
	}
	results, err := RunDAG(ctx, tasks, 1, nil)
	if err != nil {
		t.Fatalf("RunDAG: %v", err)
	}
	if results[0].Err != nil || results[0].Output != "first-out" {
		t.Errorf("running task's result was disturbed: %+v", results[0])
	}
	for _, r := range results[1:] {
		if !r.Skipped || r.Err == nil {
			t.Errorf("task %s not skipped after cancellation: %+v", r.Name, r)
		}
	}
	// The directly cancelled task carries the context error; its dependents
	// cascade through the normal failed-dependency path.
	if !errors.Is(results[1].Err, context.Canceled) {
		t.Errorf("task second Err = %v, want the context error", results[1].Err)
	}
}

func TestRunDAGPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	results, err := RunDAG(ctx, []Task{
		{Name: "only", Run: func() (string, error) { ran = true; return "", nil }},
	}, 4, nil)
	if err != nil {
		t.Fatalf("RunDAG: %v", err)
	}
	if ran {
		t.Error("task ran under a pre-cancelled context")
	}
	if !results[0].Skipped || !errors.Is(results[0].Err, context.Canceled) {
		t.Errorf("result = %+v, want skipped with the context error", results[0])
	}
}
