package experiments

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"time"
)

// Task is one unit of an experiment schedule: a named computation whose Run
// produces rendered terminal output once every named dependency has
// finished. Tasks communicate through state captured by their Run closures
// (e.g. the shared Context built by a "campaigns" task); the scheduler
// guarantees a dependency's Run happens-before its dependents'.
type Task struct {
	Name string
	Deps []string
	Run  func() (string, error)
}

// TaskResult is the outcome of one scheduled Task.
type TaskResult struct {
	Name   string
	Output string
	Err    error
	// Skipped reports that Run never executed because a dependency failed;
	// Err then names the failed dependency.
	Skipped bool
	// Wall is the host wall time spent inside Run (zero for skipped tasks).
	// It is a resource metric, never reproducible.
	Wall time.Duration
	// Mallocs and AllocBytes are process heap-allocation deltas across Run.
	// They are measured only when the schedule runs sequentially (jobs == 1);
	// with several workers the process-global counters cannot be attributed
	// to one task, and both stay zero.
	Mallocs    uint64
	AllocBytes uint64
}

// PanicError is a panic recovered from a Task's Run, reported as that
// task's TaskResult.Err so one crashing experiment cannot abort a whole
// multi-minute campaign. Error renders a single line; Stack holds the full
// goroutine stack captured at the panic site for diagnosis.
type PanicError struct {
	Value any
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string { return fmt.Sprintf("panic: %v", e.Value) }

// runTask invokes t.Run, converting a panic into a *PanicError.
func runTask(t Task) (out string, err error) {
	defer func() {
		if v := recover(); v != nil {
			out = ""
			err = &PanicError{Value: v, Stack: debug.Stack()}
		}
	}()
	return t.Run()
}

// RunDAG executes tasks as a dependency-aware parallel schedule: at most
// jobs tasks run concurrently (jobs <= 0 means GOMAXPROCS), a task starts
// only after all of its Deps completed successfully, and tasks whose
// dependencies failed are skipped. The returned slice is ordered exactly
// like the input regardless of completion order, so rendered output is
// deterministic for any parallelism.
//
// Per-task failures are isolated: a task that returns an error — or panics;
// the panic is recovered into a *PanicError — only skips its dependents,
// and every other branch of the campaign still runs to completion.
//
// Once ctx is done no further task starts: tasks already running finish
// (their results stand), and every task that never started is reported
// Skipped with the context's error, so even a cancelled campaign renders its
// completed prefix deterministically.
//
// onDone, if non-nil, is invoked once per task, in completion order, with
// the task's result and the running completed count. It runs on the single
// coordinator goroutine, never concurrently with itself, so a progress
// printer needs no locking against other onDone calls.
//
// RunDAG itself returns an error only for malformed graphs (unknown or
// duplicate names, dependency cycles); per-task failures are reported in
// the results.
func RunDAG(ctx context.Context, tasks []Task, jobs int, onDone func(res TaskResult, completed, total int)) ([]TaskResult, error) {
	n := len(tasks)
	idx := make(map[string]int, n)
	for i, t := range tasks {
		if t.Name == "" {
			return nil, fmt.Errorf("experiments: task %d has an empty name", i)
		}
		if t.Run == nil {
			return nil, fmt.Errorf("experiments: task %q has a nil Run", t.Name)
		}
		if _, dup := idx[t.Name]; dup {
			return nil, fmt.Errorf("experiments: duplicate task name %q", t.Name)
		}
		idx[t.Name] = i
	}
	dependents := make([][]int, n)
	indegree := make([]int, n)
	for i, t := range tasks {
		for _, d := range t.Deps {
			j, ok := idx[d]
			if !ok {
				return nil, fmt.Errorf("experiments: task %q depends on unknown task %q", t.Name, d)
			}
			if j == i {
				return nil, fmt.Errorf("experiments: task %q depends on itself", t.Name)
			}
			dependents[j] = append(dependents[j], i)
			indegree[i]++
		}
	}
	if err := checkAcyclic(tasks, dependents, indegree); err != nil {
		return nil, err
	}

	if jobs <= 0 {
		jobs = runtime.GOMAXPROCS(0)
	}
	if jobs > n {
		jobs = n
	}

	results := make([]TaskResult, n)
	for i, t := range tasks {
		results[i].Name = t.Name
	}

	// The coordinator below is the only writer of remaining/failedDep and the
	// only sender on ready, so no locking is needed: values flow to workers
	// through the ready channel and back through done.
	// Heap-allocation deltas are only attributable when one worker runs the
	// whole schedule; runtime.MemStats counters are process-global.
	trackAllocs := jobs == 1
	ready := make(chan int, n)
	done := make(chan int, n)
	var wg sync.WaitGroup
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ready {
				r := &results[i]
				if r.Skipped {
					done <- i
					continue
				}
				if err := ctx.Err(); err != nil {
					r.Skipped = true
					r.Err = fmt.Errorf("experiments: not started: %w", err)
					done <- i
					continue
				}
				var m0 runtime.MemStats
				if trackAllocs {
					runtime.ReadMemStats(&m0)
				}
				start := time.Now()
				r.Output, r.Err = runTask(tasks[i])
				r.Wall = time.Since(start)
				if trackAllocs {
					var m1 runtime.MemStats
					runtime.ReadMemStats(&m1)
					r.Mallocs = m1.Mallocs - m0.Mallocs
					r.AllocBytes = m1.TotalAlloc - m0.TotalAlloc
				}
				done <- i
			}
		}()
	}

	remaining := append([]int(nil), indegree...)
	for i := range tasks {
		if remaining[i] == 0 {
			ready <- i
		}
	}
	for completed := 0; completed < n; completed++ {
		i := <-done
		if onDone != nil {
			onDone(results[i], completed+1, n)
		}
		failed := results[i].Err != nil
		for _, d := range dependents[i] {
			if failed && !results[d].Skipped {
				results[d].Skipped = true
				results[d].Err = fmt.Errorf("experiments: skipped, dependency %q failed", tasks[i].Name)
			}
			remaining[d]--
			if remaining[d] == 0 {
				ready <- d
			}
		}
	}
	close(ready)
	wg.Wait()
	return results, nil
}

// checkAcyclic runs Kahn's algorithm on a scratch copy of the indegrees and
// reports the tasks stuck on a cycle, if any.
func checkAcyclic(tasks []Task, dependents [][]int, indegree []int) error {
	deg := append([]int(nil), indegree...)
	queue := make([]int, 0, len(tasks))
	for i := range tasks {
		if deg[i] == 0 {
			queue = append(queue, i)
		}
	}
	seen := 0
	for len(queue) > 0 {
		i := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		seen++
		for _, d := range dependents[i] {
			if deg[d]--; deg[d] == 0 {
				queue = append(queue, d)
			}
		}
	}
	if seen == len(tasks) {
		return nil
	}
	var stuck []string
	for i, t := range tasks {
		if deg[i] > 0 {
			stuck = append(stuck, t.Name)
		}
	}
	return fmt.Errorf("experiments: dependency cycle involving %s", strings.Join(stuck, ", "))
}
