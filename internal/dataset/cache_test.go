package dataset

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/cellular"
	"repro/internal/tcp"
	"repro/internal/telemetry"
)

// cachedScenario is a short flow the cache tests simulate repeatedly.
func cachedScenario(t *testing.T, seed int64) Scenario {
	t.Helper()
	return hsrScenario(t, cellular.ChinaMobileLTE, seed, 5*time.Second)
}

// entryFile returns the path of the single entry a one-flow cache holds.
func entryFile(t *testing.T, dir string) string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*"+entrySuffix))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 1 {
		t.Fatalf("cache holds %d entries, want 1", len(paths))
	}
	return paths[0]
}

func TestFlowCacheRoundTrip(t *testing.T) {
	cache, err := OpenFlowCacheVersion(t.TempDir(), "test")
	if err != nil {
		t.Fatal(err)
	}
	sc := cachedScenario(t, 7)
	if _, ok := cache.Get(sc); ok {
		t.Fatal("hit on empty cache")
	}
	want, st, err := RunFlowMetrics(sc)
	if err != nil {
		t.Fatal(err)
	}
	cache.Put(sc, want, st)
	ent, ok := cache.Get(sc)
	if !ok {
		t.Fatal("miss after Put")
	}
	if !reflect.DeepEqual(want, ent.Metrics) {
		t.Errorf("metrics changed through the cache:\nput: %+v\ngot: %+v", want, ent.Metrics)
	}
	if st != ent.Stats {
		t.Errorf("stats changed through the cache:\nput: %+v\ngot: %+v", st, ent.Stats)
	}
	c := cache.Counters()
	if c.Hits != 1 || c.Misses != 1 || c.Errors != 0 {
		t.Errorf("counters %+v, want 1 hit / 1 miss / 0 errors", c)
	}
	if c.BytesWritten == 0 || c.BytesRead != c.BytesWritten {
		t.Errorf("byte counters %+v, want read == written > 0", c)
	}
}

func TestFlowCacheKeySensitivity(t *testing.T) {
	cache, err := OpenFlowCacheVersion(t.TempDir(), "test")
	if err != nil {
		t.Fatal(err)
	}
	sc := cachedScenario(t, 7)
	m, st, err := RunFlowMetrics(sc)
	if err != nil {
		t.Fatal(err)
	}
	cache.Put(sc, m, st)

	other := sc
	other.Seed++
	if _, ok := cache.Get(other); ok {
		t.Error("seed change still hit")
	}
	other = sc
	other.FlowDuration += time.Second
	if _, ok := cache.Get(other); ok {
		t.Error("duration change still hit")
	}
	other = sc
	other.TCP.MSS++
	if _, ok := cache.Get(other); ok {
		t.Error("TCP config change still hit")
	}
	if _, ok := cache.Get(sc); !ok {
		t.Error("unchanged scenario missed")
	}
}

// TestFlowCacheVersionInvalidates covers the automatic invalidation story:
// entries written under one code version are unreachable from a cache
// opened under another, with no explicit flush step.
func TestFlowCacheVersionInvalidates(t *testing.T) {
	dir := t.TempDir()
	v1, err := OpenFlowCacheVersion(dir, "v1")
	if err != nil {
		t.Fatal(err)
	}
	sc := cachedScenario(t, 7)
	m, st, err := RunFlowMetrics(sc)
	if err != nil {
		t.Fatal(err)
	}
	v1.Put(sc, m, st)
	if _, ok := v1.Get(sc); !ok {
		t.Fatal("same-version miss")
	}
	v2, err := OpenFlowCacheVersion(dir, "v2")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := v2.Get(sc); ok {
		t.Error("entry written under v1 served under v2")
	}
}

// entryCorruptions damage a stored entry file in ways the read paths must
// detect: each one breaks the checksum or the header line.
var entryCorruptions = map[string]func([]byte) []byte{
	"bit flip in payload": func(raw []byte) []byte {
		raw[len(raw)-2] ^= 0x40
		return raw
	},
	"truncated payload": func(raw []byte) []byte {
		return raw[:len(raw)-7]
	},
	"truncated to partial header": func(raw []byte) []byte {
		return raw[:10]
	},
	"emptied": func([]byte) []byte {
		return nil
	},
}

// corruptEntry applies corrupt to the single entry file in dir.
func corruptEntry(t *testing.T, dir string, corrupt func([]byte) []byte) string {
	t.Helper()
	path := entryFile(t, dir)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, corrupt(raw), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestFlowCacheDetectsCorruption flips and truncates stored entries and
// checks the checksum catches both, the bad entry is dropped, and the
// campaign path falls back to simulation with identical results.
func TestFlowCacheDetectsCorruption(t *testing.T) {
	sc := cachedScenario(t, 7)
	want, st, err := RunFlowMetrics(sc)
	if err != nil {
		t.Fatal(err)
	}
	for name, corrupt := range entryCorruptions {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			cache, err := OpenFlowCacheVersion(dir, "test")
			if err != nil {
				t.Fatal(err)
			}
			cache.Put(sc, want, st)
			path := corruptEntry(t, dir, corrupt)
			if _, ok := cache.Get(sc); ok {
				t.Fatal("corrupt entry served")
			}
			if c := cache.Counters(); c.Errors != 1 {
				t.Errorf("counters %+v, want exactly 1 error", c)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Errorf("corrupt entry not removed (stat err %v)", err)
			}
			// The campaign path must recover transparently: simulate, rewrite,
			// then serve the fresh entry.
			ent, hit, err := runOne(cache, sc)
			got := ent.Metrics
			if err != nil {
				t.Fatal(err)
			}
			if hit {
				t.Fatal("corrupt entry reported as campaign hit")
			}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("fallback simulation diverged:\nwant %+v\ngot  %+v", want, got)
			}
			if ent, ok := cache.Get(sc); !ok {
				t.Error("entry not rewritten after fallback")
			} else if !reflect.DeepEqual(want, ent.Metrics) {
				t.Error("rewritten entry diverged")
			}
		})
	}
}

// runOne runs sc as a one-flow plan through RunPlan with cache c, as a
// sweep or a flow job does, and returns its decoded result and whether it
// was served from the cache or another caller's simulation.
func runOne(c *FlowCache, sc Scenario) (CachedFlow, bool, error) {
	outs, err := RunPlan(CampaignConfig{Cache: c}, []PlannedFlow{{Scenario: sc}}, false)
	if err != nil {
		return CachedFlow{}, false, err
	}
	return outs[0].Flow, outs[0].Cached, nil
}

// getOrComputeFull is the wire-form read-or-compute RunPlan makes, with the
// test's compute in place of the simulation.
func getOrComputeFull(c *FlowCache, sc Scenario, compute func() (CachedFlow, error)) ([]byte, bool, error) {
	r, shared, err := c.getOrCompute(sc, true, compute)
	return r.payload, shared, err
}

// fullFlow simulates sc with telemetry once and returns the result with a
// compute function that serves it, counting its calls.
func fullFlow(t *testing.T, sc Scenario) (CachedFlow, func() (CachedFlow, error), *int) {
	t.Helper()
	want, err := runFlowFull(sc)
	if err != nil {
		t.Fatal(err)
	}
	calls := new(int)
	return want, func() (CachedFlow, error) {
		*calls++
		return want, nil
	}, calls
}

// TestFlowCacheFullRoundTrip stores a telemetry-complete result through
// the wire-form read-or-compute and serves it back: the warm payload is the
// cold one byte for byte, equals the binary encoding of both the original
// and the decoded entry (so shipping the entry bytes is shipping what the
// encoder would write), and the entry file is that payload under its
// checksum line.
func TestFlowCacheFullRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cache, err := OpenFlowCacheVersion(dir, "test")
	if err != nil {
		t.Fatal(err)
	}
	sc := cachedScenario(t, 7)
	want, compute, calls := fullFlow(t, sc)
	cold, hit, err := getOrComputeFull(cache, sc, compute)
	if err != nil || hit || *calls != 1 {
		t.Fatalf("cold: hit=%v computes=%d err=%v, want a computed miss", hit, *calls, err)
	}
	warm, hit, err := getOrComputeFull(cache, sc, compute)
	if err != nil || !hit || *calls != 1 {
		t.Fatalf("warm: hit=%v computes=%d err=%v, want a hit", hit, *calls, err)
	}
	if !bytes.Equal(cold, warm) {
		t.Fatal("warm payload differs from the cold one")
	}
	raw, err := os.ReadFile(entryFile(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	if payload, err := verifyEntry(raw); err != nil || !bytes.Equal(payload, cold) {
		t.Errorf("entry file does not hold the cold payload (err %v)", err)
	}
	encoded, err := want.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(warm, encoded) {
		t.Error("payload bytes differ from the encoding of the computed result")
	}
	got, err := DecodeFlowPayload(warm)
	if err != nil {
		t.Fatal(err)
	}
	if reencoded, err := got.MarshalBinary(); err != nil || !bytes.Equal(warm, reencoded) {
		t.Errorf("payload bytes differ from the encoding of the decoded entry (err %v)", err)
	}
	// The metrics-only reader serves the same entry, and a decoded RunPlan
	// read decodes it to the same result without simulating.
	if ent, ok := cache.Get(sc); !ok || !reflect.DeepEqual(want.Metrics, ent.Metrics) {
		t.Error("Get did not serve the telemetry-complete entry's metrics")
	}
	ent, hit, err := runOne(cache, sc)
	if err != nil || !hit {
		t.Fatalf("RunPlan: hit=%v err=%v, want a hit", hit, err)
	}
	if decoded, err := ent.MarshalBinary(); err != nil || !bytes.Equal(decoded, warm) {
		t.Errorf("RunPlan's decoded entry does not re-encode to the payload (err %v)", err)
	}
	if c := cache.Counters(); c.Hits != 3 || c.Misses != 1 || c.Errors != 0 {
		t.Errorf("counters %+v, want 3 hits / 1 miss / 0 errors", c)
	}
}

// TestColdCachesByteIdentical runs one campaign cold into two fresh cache
// directories: the two must hold the same entry files, byte for byte. An
// entry is a pure function of its flow; the host wall time a simulation
// took travels on the flow's outcome, never in the stored payload.
func TestColdCachesByteIdentical(t *testing.T) {
	cold := func() map[string][]byte {
		dir := t.TempDir()
		cache, err := OpenFlowCacheVersion(dir, "test")
		if err != nil {
			t.Fatal(err)
		}
		cfg := CampaignConfig{Seed: 5, FlowDuration: 5 * time.Second, FlowsPerRow: 1, Parallelism: 2, Cache: cache}
		if _, err := RunCampaign(cfg); err != nil {
			t.Fatal(err)
		}
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		files := map[string][]byte{}
		for _, e := range ents {
			raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			files[e.Name()] = raw
		}
		return files
	}
	a, b := cold(), cold()
	if len(a) != 4 || len(b) != len(a) {
		t.Fatalf("cold caches hold %d and %d entries, want 4 each", len(a), len(b))
	}
	for name, raw := range a {
		if !bytes.Equal(raw, b[name]) {
			t.Fatalf("entry %s differs between two cold runs:\n%s\nvs\n%s", name, raw, b[name])
		}
	}
}

// TestFlowCacheFullUpgradesThinEntry checks a metrics-only entry (as Put
// writes it) is a plain miss for both forms of RunPlan's read (no error,
// nothing served), and the recompute upgrades the entry so the next full
// read hits.
func TestFlowCacheFullUpgradesThinEntry(t *testing.T) {
	sc := cachedScenario(t, 7)
	want, compute, calls := fullFlow(t, sc)
	reads := map[string]func(*FlowCache) (bool, error){
		"RunPlan": func(c *FlowCache) (bool, error) {
			outs, err := RunPlan(CampaignConfig{Cache: c}, []PlannedFlow{{Scenario: sc}}, true)
			if err != nil {
				return false, err
			}
			return outs[0].Cached, nil
		},
		"RunPlanDecoded": func(c *FlowCache) (bool, error) {
			ent, hit, err := runOne(c, sc)
			if err == nil && ent.Telemetry == nil {
				t.Error("RunPlan returned no telemetry")
			}
			return hit, err
		},
	}
	for name, read := range reads {
		t.Run(name, func(t *testing.T) {
			cache, err := OpenFlowCacheVersion(t.TempDir(), "test")
			if err != nil {
				t.Fatal(err)
			}
			cache.Put(sc, want.Metrics, want.Stats)
			if hit, err := read(cache); err != nil || hit {
				t.Fatalf("thin entry: hit=%v err=%v, want a computed miss", hit, err)
			}
			if c := cache.Counters(); c.Hits != 0 || c.Misses != 1 || c.Errors != 0 {
				t.Errorf("counters %+v, want 0 hits / 1 miss / 0 errors", c)
			}
			*calls = 0
			if _, hit, err := getOrComputeFull(cache, sc, compute); err != nil || !hit || *calls != 0 {
				t.Fatalf("upgraded entry: hit=%v computes=%d err=%v, want a hit", hit, *calls, err)
			}
			if ent, ok := cache.Get(sc); !ok || ent.Telemetry == nil {
				t.Error("upgraded entry not served with telemetry")
			}
		})
	}
}

// TestFlowCacheFullDetectsCorruption drives every entryCorruptions case
// through the full read path: the damage is caught before any byte is
// served, counted as one error, and the flow recomputes to the original
// payload, rewriting the entry.
func TestFlowCacheFullDetectsCorruption(t *testing.T) {
	sc := cachedScenario(t, 7)
	_, compute, calls := fullFlow(t, sc)
	for name, corrupt := range entryCorruptions {
		t.Run(name, func(t *testing.T) {
			*calls = 0
			dir := t.TempDir()
			cache, err := OpenFlowCacheVersion(dir, "test")
			if err != nil {
				t.Fatal(err)
			}
			ref, _, err := getOrComputeFull(cache, sc, compute)
			if err != nil {
				t.Fatal(err)
			}
			corruptEntry(t, dir, corrupt)
			got, hit, err := getOrComputeFull(cache, sc, compute)
			if err != nil {
				t.Fatal(err)
			}
			if hit || *calls != 2 {
				t.Fatalf("corrupt entry served (hit=%v, computes=%d)", hit, *calls)
			}
			if c := cache.Counters(); c.Errors != 1 || c.Misses != 2 {
				t.Errorf("counters %+v, want 1 error / 2 misses", c)
			}
			if !bytes.Equal(ref, got) {
				t.Error("recomputed payload diverged")
			}
			if _, hit, _ := getOrComputeFull(cache, sc, compute); !hit {
				t.Error("entry not rewritten after the recompute")
			}
		})
	}
}

// TestFlowCacheConcurrentWriters hammers one cache directory from parallel
// goroutines mixing writers and readers of the same keys — the atomic
// temp-file-plus-rename protocol must never expose a torn entry. Run under
// -race in CI.
func TestFlowCacheConcurrentWriters(t *testing.T) {
	cache, err := OpenFlowCacheVersion(t.TempDir(), "test")
	if err != nil {
		t.Fatal(err)
	}
	type flowResult struct {
		metrics *analysis.FlowMetrics
		stats   tcp.Stats
	}
	const flows = 4
	scs := make([]Scenario, flows)
	wants := make([]flowResult, flows)
	for i := range scs {
		scs[i] = cachedScenario(t, int64(100+i))
		m, st, err := RunFlowMetrics(scs[i])
		if err != nil {
			t.Fatal(err)
		}
		wants[i] = flowResult{metrics: m, stats: st}
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				idx := (w + i) % flows
				cache.Put(scs[idx], wants[idx].metrics, wants[idx].stats)
				if ent, ok := cache.Get(scs[idx]); ok {
					if !reflect.DeepEqual(wants[idx].metrics, ent.Metrics) {
						t.Errorf("torn or wrong entry for flow %d", idx)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if c := cache.Counters(); c.Errors != 0 {
		t.Errorf("counters %+v, want 0 errors", c)
	}
}

// TestFlowCacheGetOrComputeDeduplicates launches many concurrent misses of
// the same key through both forms of getOrCompute and checks they share
// one in-flight computation: a held wire-form leader reports shared=false,
// every follower — decoded RunPlan and wire-form reads alike —
// shares its result (shared=true, counted in Dedups) without simulating,
// and afterwards the entry is on disk.
func TestFlowCacheGetOrComputeDeduplicates(t *testing.T) {
	sc := cachedScenario(t, 7)
	full, err := runFlowFull(sc)
	if err != nil {
		t.Fatal(err)
	}
	cache, err := OpenFlowCacheVersion(t.TempDir(), "test")
	if err != nil {
		t.Fatal(err)
	}
	var computes, shareds atomic.Int64
	release := make(chan struct{})
	compute := func() (CachedFlow, error) {
		computes.Add(1)
		<-release // hold every other caller in the in-flight window
		return full, nil
	}
	check := func(ent CachedFlow, shared bool, err error) {
		if err != nil {
			t.Error(err)
			return
		}
		if shared {
			shareds.Add(1)
		}
		if !reflect.DeepEqual(full.Metrics, ent.Metrics) || ent.Telemetry == nil {
			t.Error("caller got diverging metrics or no telemetry")
		}
	}
	full1 := func() {
		p, shared, err := getOrComputeFull(cache, sc, compute)
		var ent CachedFlow
		if err == nil {
			ent, err = DecodeFlowPayload(p)
		}
		check(ent, shared, err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		full1()
	}()
	// Once the leader is computing, every later caller joins its flight.
	for computes.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	const followers = 8
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if i%2 == 0 {
				check(runOne(cache, sc))
			} else {
				full1()
			}
		}()
	}
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()

	if n := computes.Load(); n != 1 {
		t.Errorf("compute ran %d times, want exactly 1", n)
	}
	if c := cache.Counters(); c.Dedups != shareds.Load() || c.Dedups != followers || c.Hits != 0 {
		t.Errorf("counters %+v, want %d dedups (%d shared callers) and no hits", c, followers, shareds.Load())
	}
	if ent, ok := cache.Get(sc); !ok || ent.Telemetry == nil {
		t.Error("full entry missing after deduplicated computation")
	}
}

// TestFlowCacheGetOrComputeErrorPropagates checks a failing computation
// in getOrCompute reaches the leader and every waiter, RunPlan's included,
// and stores nothing.
func TestFlowCacheGetOrComputeErrorPropagates(t *testing.T) {
	cache, err := OpenFlowCacheVersion(t.TempDir(), "test")
	if err != nil {
		t.Fatal(err)
	}
	sc := cachedScenario(t, 7)
	wantErr := errors.New("synthetic failure")
	release := make(chan struct{})
	started := make(chan struct{})
	var wg sync.WaitGroup
	full := func() {
		defer wg.Done()
		_, _, err := getOrComputeFull(cache, sc, func() (CachedFlow, error) {
			close(started)
			<-release
			return CachedFlow{}, wantErr
		})
		if !errors.Is(err, wantErr) {
			t.Errorf("wire-form read error = %v, want %v", err, wantErr)
		}
	}
	wg.Add(1)
	go full()
	<-started
	wg.Add(2)
	go full()
	go func() {
		defer wg.Done()
		if _, _, err := runOne(cache, sc); !errors.Is(err, wantErr) {
			t.Errorf("RunPlan error = %v, want %v", err, wantErr)
		}
	}()
	time.Sleep(10 * time.Millisecond)
	close(release)
	wg.Wait()
	if _, ok := cache.Get(sc); ok {
		t.Error("failed computation left an entry behind")
	}
}

// TestFlowCacheEviction fills a size-bounded cache past its limit and
// checks the oldest entries (by mtime) are evicted first, newer entries
// survive, and the evictions are counted.
func TestFlowCacheEviction(t *testing.T) {
	dir := t.TempDir()
	cache, err := OpenFlowCacheVersion(dir, "test")
	if err != nil {
		t.Fatal(err)
	}
	sc := cachedScenario(t, 7)
	m, st, err := RunFlowMetrics(sc)
	if err != nil {
		t.Fatal(err)
	}
	// Write four entries with strictly increasing mtimes.
	var paths []string
	for i := 0; i < 4; i++ {
		s := sc
		s.Seed = int64(1000 + i)
		cache.Put(s, m, st)
		all, err := filepath.Glob(filepath.Join(dir, "*"+entrySuffix))
		if err != nil {
			t.Fatal(err)
		}
		if len(all) != i+1 {
			t.Fatalf("after put %d: %d entries on disk", i, len(all))
		}
		for _, p := range all {
			if !slices.Contains(paths, p) {
				paths = append(paths, p)
				mtime := time.Now().Add(time.Duration(i-10) * time.Hour)
				if err := os.Chtimes(p, mtime, mtime); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	entrySize := func(p string) int64 {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		return st.Size()
	}
	one := entrySize(paths[3])
	// Bound to roughly two entries: the two oldest must go.
	if err := cache.SetMaxBytes(2*one + one/2); err != nil {
		t.Fatal(err)
	}
	for i, p := range paths {
		_, err := os.Stat(p)
		gone := os.IsNotExist(err)
		if wantGone := i < 2; gone != wantGone {
			t.Errorf("entry %d gone=%v, want %v", i, gone, wantGone)
		}
	}
	if c := cache.Counters(); c.Evictions != 2 {
		t.Errorf("counters %+v, want 2 evictions", c)
	}
	// A further Put that busts the bound evicts again, oldest-first.
	s := sc
	s.Seed = 2000
	cache.Put(s, m, st)
	left, err := filepath.Glob(filepath.Join(dir, "*"+entrySuffix))
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, p := range left {
		total += entrySize(p)
	}
	if total > 2*one+one/2 {
		t.Errorf("post-put total %d bytes exceeds the %d bound", total, 2*one+one/2)
	}
	// The freshly written entry must have survived (it is the newest).
	if _, ok := cache.Get(s); !ok {
		t.Error("newest entry evicted")
	}
	// Dropping the bound stops eviction.
	if err := cache.SetMaxBytes(0); err != nil {
		t.Fatal(err)
	}
	before := cache.Counters().Evictions
	s.Seed = 2001
	cache.Put(s, m, st)
	if after := cache.Counters().Evictions; after != before {
		t.Errorf("eviction ran with the bound removed (%d -> %d)", before, after)
	}
}

// TestFlowCacheEvictionCountsLegacyEntries checks a leftover JSON entry of
// an older schema counts toward the directory bound and, being older, is
// evicted before any current entry.
func TestFlowCacheEvictionCountsLegacyEntries(t *testing.T) {
	dir := t.TempDir()
	cache, err := OpenFlowCacheVersion(dir, "test")
	if err != nil {
		t.Fatal(err)
	}
	sc := cachedScenario(t, 7)
	m, st, err := RunFlowMetrics(sc)
	if err != nil {
		t.Fatal(err)
	}
	cache.Put(sc, m, st)
	info, err := os.Stat(entryFile(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	legacy := filepath.Join(dir, "0123"+legacySuffix)
	if err := os.WriteFile(legacy, make([]byte, 4096), 0o644); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-time.Hour)
	if err := os.Chtimes(legacy, old, old); err != nil {
		t.Fatal(err)
	}
	if err := cache.SetMaxBytes(info.Size() + 100); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(legacy); !os.IsNotExist(err) {
		t.Errorf("legacy entry survived an over-budget directory (stat err %v)", err)
	}
	if _, ok := cache.Get(sc); !ok {
		t.Error("current entry evicted before the older legacy one")
	}
	if c := cache.Counters(); c.Evictions != 1 {
		t.Errorf("counters %+v, want 1 eviction", c)
	}
}

// TestFlowCacheIncompleteFullEntry plants a sealed entry whose payload
// carries telemetry and decodes but fails CheckComplete (a cwnd histogram
// with the wrong bounds). RunPlan's wire-form and decoded reads must treat
// it alike: one error
// and one miss, a recompute, and a rewritten entry that the next read
// serves.
func TestFlowCacheIncompleteFullEntry(t *testing.T) {
	sc := cachedScenario(t, 7)
	want, err := runFlowFull(sc)
	if err != nil {
		t.Fatal(err)
	}
	state := *want.Telemetry
	state.TCP.CwndHist = telemetry.Hist{
		Bounds: slices.Clone(state.TCP.CwndHist.Bounds),
		Counts: slices.Clone(state.TCP.CwndHist.Counts),
	}
	state.TCP.CwndHist.Bounds[0] = 0.5
	bad := CachedFlow{Metrics: want.Metrics, Stats: want.Stats, Telemetry: &state}
	badPayload, err := bad.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeFlowPayload(badPayload); err == nil {
		t.Fatal("the planted payload passes DecodeFlowPayload")
	}
	wantPayload, err := want.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	reads := map[string]func(*FlowCache) (bool, error){
		"RunPlan": func(c *FlowCache) (bool, error) {
			outs, err := RunPlan(CampaignConfig{Cache: c}, []PlannedFlow{{Scenario: sc}}, true)
			if err != nil {
				return false, err
			}
			if !bytes.Equal(outs[0].Payload, wantPayload) {
				t.Error("RunPlan shipped a payload other than the recomputed one")
			}
			return outs[0].Cached, nil
		},
		"RunPlanDecoded": func(c *FlowCache) (bool, error) {
			_, hit, err := runOne(c, sc)
			return hit, err
		},
	}
	for name, read := range reads {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			cache, err := OpenFlowCacheVersion(dir, "test")
			if err != nil {
				t.Fatal(err)
			}
			key, err := cache.key(sc)
			if err != nil {
				t.Fatal(err)
			}
			cache.writeEntry(key, sealEntry(badPayload))
			if hit, err := read(cache); err != nil || hit {
				t.Fatalf("incomplete entry: hit=%v err=%v, want a computed miss", hit, err)
			}
			if c := cache.Counters(); c.Hits != 0 || c.Misses != 1 || c.Errors != 1 {
				t.Errorf("counters %+v, want 0 hits / 1 miss / 1 error", c)
			}
			raw, err := os.ReadFile(entryFile(t, dir))
			if err != nil {
				t.Fatal(err)
			}
			if payload, _, err := decodeEntry(raw); err != nil || !bytes.Equal(payload, wantPayload) {
				t.Errorf("entry not rewritten with the recomputed payload (err %v)", err)
			}
			if hit, err := read(cache); err != nil || !hit {
				t.Errorf("rewritten entry: hit=%v err=%v, want a hit", hit, err)
			}
		})
	}
}

// minimalFlows returns the smallest telemetry-complete flow (zero counters,
// the standard histogram shapes) and a metrics-only one: seeds small enough
// for the fuzz targets' input cap.
func minimalFlows() (full, thin CachedFlow) {
	state := telemetry.NewFlow().State()
	state.Kernel.VirtualNS = 7
	return CachedFlow{Metrics: &analysis.FlowMetrics{}, Telemetry: &state}, CachedFlow{Metrics: &analysis.FlowMetrics{}}
}

// mustMarshal encodes f, failing the test on error.
func mustMarshal(tb testing.TB, f CachedFlow) []byte {
	tb.Helper()
	b, err := f.MarshalBinary()
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// FuzzFlowCacheEntry plants arbitrary bytes at an entry's path and reads
// them through every read path: Get, and the full read under RunPlan's
// decoded and wire forms. None may panic; a served metrics-only result
// carries metrics; a full hit carries a result that passes CheckComplete
// and payload bytes that pass DecodeFlowPayload; anything else is a counted
// miss that recomputes. The seeds added here are sealed by the current
// writer. The checked-in corpus holds current-schema entries: a full and a
// thin entry, which decode and pass the kind checks; a sealed entry without
// metrics and a sealed truncated payload, which reach the payload decoder
// and the kind checks and are rejected there; sealed entries of older
// schemas (a schema-2 JSON payload, a schema-5 payload that carries the
// kernel counters schema 6 dropped), which the payload decoder rejects; and
// damaged headers (magic only, a non-hex or flipped checksum, a cut header
// or payload).
func FuzzFlowCacheEntry(f *testing.F) {
	complete, thin := minimalFlows()
	f.Add(sealEntry(mustMarshal(f, complete)))
	f.Add(sealEntry(mustMarshal(f, thin)))

	cache, err := OpenFlowCacheVersion(f.TempDir(), "fuzz")
	if err != nil {
		f.Fatal(err)
	}
	sc := Scenario{ID: "fuzz"}
	key, err := cache.key(sc)
	if err != nil {
		f.Fatal(err)
	}
	path := cache.path(key)
	stub := CachedFlow{Metrics: &analysis.FlowMetrics{}, Telemetry: &telemetry.FlowState{}}
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) > 512 {
			t.Skip("inputs over 512 bytes spend the fuzz time in the minimizer")
		}
		plant := func() {
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		plant()
		before := cache.Counters()
		ent, ok := cache.Get(sc)
		after := cache.Counters()
		switch {
		case ok && ent.Metrics == nil:
			t.Fatal("Get served an entry without metrics")
		case ok && after.Hits != before.Hits+1:
			t.Fatalf("Get hit not counted: %+v -> %+v", before, after)
		case !ok && after.Misses != before.Misses+1:
			t.Fatalf("Get miss not counted: %+v -> %+v", before, after)
		}

		for _, wire := range []bool{false, true} {
			plant()
			before = cache.Counters()
			computed := false
			r, hit, err := cache.getOrCompute(sc, wire, func() (CachedFlow, error) {
				computed = true
				return stub, nil
			})
			after = cache.Counters()
			if err != nil {
				t.Fatal(err)
			}
			if hit == computed {
				t.Fatalf("wire=%v: hit=%v but computed=%v", wire, hit, computed)
			}
			if !hit {
				if after.Misses != before.Misses+1 {
					t.Fatalf("wire=%v: full miss not counted: %+v -> %+v", wire, before, after)
				}
				continue
			}
			if err := r.ent.CheckComplete(); err != nil {
				t.Fatalf("wire=%v: hit fails CheckComplete: %v", wire, err)
			}
			if _, err := DecodeFlowPayload(r.payload); err != nil {
				t.Fatalf("wire=%v: served payload fails DecodeFlowPayload: %v", wire, err)
			}
		}
	})
}

// TestFlowCacheEntryCorpusIsCurrent keeps FuzzFlowCacheEntry's checked-in
// corpus in the current entry format: its full and thin entries must be
// exactly what the current writer seals for minimalFlows, so a change to
// the payload layout that leaves the corpus behind fails here instead of
// silently turning every corpus entry into a header-check reject.
func TestFlowCacheEntryCorpusIsCurrent(t *testing.T) {
	complete, thin := minimalFlows()
	for name, want := range map[string][]byte{
		"full-entry": sealEntry(mustMarshal(t, complete)),
		"thin-entry": sealEntry(mustMarshal(t, thin)),
	} {
		blob, err := os.ReadFile(filepath.Join("testdata/fuzz/FuzzFlowCacheEntry", name))
		if err != nil {
			t.Fatal(err)
		}
		lit, ok := strings.CutPrefix(string(blob), "go test fuzz v1\n[]byte(")
		lit, ok2 := strings.CutSuffix(strings.TrimSpace(lit), ")")
		if !ok || !ok2 {
			t.Fatalf("%s: not a one-value []byte corpus file", name)
		}
		got, err := strconv.Unquote(lit)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got != string(want) {
			t.Errorf("%s is not the current writer's entry; regenerate it from sealEntry(mustMarshal(minimalFlows()))", name)
		}
	}
}
