package dataset

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analysis"
	"repro/internal/buildinfo"
	"repro/internal/cellular"
	"repro/internal/faults"
	"repro/internal/railway"
	"repro/internal/tcp"
	"repro/internal/telemetry"
)

// cacheSchema names the on-disk entry layout. It participates in the
// content-addressed key, so bumping it orphans (never corrupts) every entry
// written under the previous layout. Schema 2 added the congestion-control
// variant name to the key; schema 3 added the checksummed completeness flag
// and virtual duration to the entry header; schema 4 replaced the JSON
// payload with the binary flow payload (codec.go); schema 5 dropped the
// header's flag and duration, so the header is the checksum alone; schema 6
// dropped the timing-wheel and event-pool kernel counters from the payload.
const cacheSchema = 6

// entryMagic is the first token of every cache entry file.
const entryMagic = "hsrflowcache"

// entrySuffix names entry files. Schema 3 and older wrote JSON entries
// under legacySuffix; the eviction scan still counts those, so leftovers
// stay inside the directory bound until they are evicted.
const (
	entrySuffix  = ".flow"
	legacySuffix = ".json"
)

// FlowCache is a content-addressed, on-disk store of per-flow results: the
// key is a stable hash of everything that determines a flow's outcome (the
// full scenario configuration, the seed, and the model-relevant code
// version), the value its FlowMetrics, endpoint Stats and telemetry bundle.
// Campaigns and sweeps consult it before simulating, so repeated and
// overlapping runs skip simulation entirely on a hit — and because the
// simulation is deterministic for a key, a hit is byte-equivalent to
// re-running it, telemetry included.
//
// Entries are written atomically (temp file + rename) and carry a SHA-256
// checksum covering their payload; a truncated, corrupted
// or stale-schema entry is detected on read, counted in Errors, deleted
// best-effort, and treated as a miss — the flow simply simulates again and
// rewrites the entry. All methods are safe for concurrent use by campaign
// workers.
type FlowCache struct {
	dir     string
	version string

	hits         atomic.Int64
	misses       atomic.Int64
	dedups       atomic.Int64
	errors       atomic.Int64
	evictions    atomic.Int64
	bytesRead    atomic.Int64
	bytesWritten atomic.Int64

	// maxBytes bounds the on-disk entry total (0 = unbounded); diskBytes is
	// the running estimate that triggers an eviction scan, and evictMu
	// serializes scans so concurrent writers cannot double-evict.
	maxBytes  atomic.Int64
	diskBytes atomic.Int64
	evictMu   sync.Mutex

	// flightMu/flight deduplicate concurrent computations of the same key:
	// the first RunPlan flow for a missing key simulates, everyone else
	// waits for its result.
	flightMu sync.Mutex
	flight   map[string]*flightCall
}

// flightCall is one in-flight computation shared by concurrent misses.
type flightCall struct {
	done chan struct{} // closed when res/err are final
	res  flowResult
	err  error
}

// OpenFlowCache opens (creating if needed) a flow result cache rooted at
// dir, keyed with the current build's version (buildinfo.Version): a new
// model-relevant code version makes every old entry unreachable. Note that
// builds without VCS stamping report "devel" — when iterating on model code
// with such builds, point -cache at a fresh directory.
func OpenFlowCache(dir string) (*FlowCache, error) {
	return OpenFlowCacheVersion(dir, buildinfo.Version())
}

// OpenFlowCacheVersion is OpenFlowCache with an explicit version string in
// the key, for tests and for callers that version the model themselves.
func OpenFlowCacheVersion(dir, version string) (*FlowCache, error) {
	if dir == "" {
		return nil, fmt.Errorf("dataset: cache directory must not be empty")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("dataset: cache: %w", err)
	}
	return &FlowCache{dir: dir, version: version}, nil
}

// CachedFlow is one cache entry's payload: a flow's metrics, its endpoint
// stats and its exact telemetry bundle in wire form. Every entry that
// RunPlan writes carries Telemetry, so a campaign restores
// a hit's kernel/TCP/link counters bit for bit, exactly as if the flow had
// simulated again. Only Put writes entries without it; those decode for Get
// and are a miss for the telemetry-complete reads. Entries and unit lines
// carry it as a binary flow payload (MarshalBinary, DecodeFlowPayload); the
// JSON tags shape a flow job's response.
type CachedFlow struct {
	Metrics   *analysis.FlowMetrics `json:"metrics"`
	Stats     tcp.Stats             `json:"stats"`
	Telemetry *telemetry.FlowState  `json:"telemetry,omitempty"`
}

// CheckComplete is the completeness check DecodeFlowPayload runs on a
// telemetry-complete result read from outside the process (a cache entry or
// a worker's unit line): metrics and telemetry present, and a telemetry
// state that passes FlowState.Validate, so a campaign can restore and merge
// it.
func (f *CachedFlow) CheckComplete() error {
	switch {
	case f.Metrics == nil:
		return errors.New("missing metrics")
	case f.Telemetry == nil:
		return errors.New("missing telemetry")
	}
	return f.Telemetry.Validate()
}

// encodeFlowPayload encodes a telemetry-complete result. The stored entry
// and the shipped payload share these bytes, so an uncached result and a
// cached one carry the same bytes.
func encodeFlowPayload(ent CachedFlow) ([]byte, error) {
	if ent.Metrics == nil || ent.Telemetry == nil {
		return nil, fmt.Errorf("dataset: flow payload needs metrics and telemetry")
	}
	return ent.MarshalBinary()
}

// cacheKey is the canonical serialization hashed into an entry's address.
// Every field that can change a flow's outcome appears here; the struct is
// marshalled with encoding/json, whose output is deterministic for a given
// binary, and the schema and version fields fence off layout and model
// changes. Telemetry and FlightRecorder sinks deliberately do not
// participate: they observe a flow, they never alter it.
type cacheKey struct {
	Schema       int               `json:"schema"`
	Version      string            `json:"version"`
	ID           string            `json:"id"`
	Operator     cellular.Operator `json:"operator"`
	Trip         railway.Trip      `json:"trip"`
	TripOffset   time.Duration     `json:"trip_offset"`
	FlowDuration time.Duration     `json:"flow_duration"`
	Seed         int64             `json:"seed"`
	TCP          tcp.Config        `json:"tcp"`
	// CC is the congestion-control variant name. The numeric Variant inside
	// TCP already distinguishes variants, but the name participates on its
	// own so a renumbering of the enum can never silently alias two
	// variants' entries.
	CC       string           `json:"cc"`
	Scenario string           `json:"scenario"`
	Faults   *faults.Schedule `json:"faults,omitempty"`
}

// key computes the scenario's content address under this cache's version.
func (c *FlowCache) key(sc Scenario) (string, error) {
	k := cacheKey{
		Schema:       cacheSchema,
		Version:      c.version,
		ID:           sc.ID,
		Operator:     sc.Operator,
		Trip:         sc.Trip,
		TripOffset:   sc.TripOffset,
		FlowDuration: sc.FlowDuration,
		Seed:         sc.Seed,
		TCP:          sc.TCP,
		CC:           sc.TCP.Variant.String(),
		Scenario:     sc.Scenario,
		Faults:       sc.Faults,
	}
	h := sha256.New()
	if err := json.NewEncoder(h).Encode(k); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// path maps a key to its entry file.
func (c *FlowCache) path(key string) string {
	return filepath.Join(c.dir, key+entrySuffix)
}

// Get looks the scenario up, returning its cached result and true on a hit.
// It serves metrics from either entry kind. Corrupt or truncated entries are
// detected by checksum, removed, counted in Errors, and reported as a miss.
func (c *FlowCache) Get(sc Scenario) (CachedFlow, bool) {
	key, err := c.key(sc)
	if err != nil {
		c.errors.Add(1)
		return CachedFlow{}, false
	}
	raw, ok := c.read(key)
	if !ok {
		return CachedFlow{}, false
	}
	_, ent, err := decodeEntry(raw)
	if err != nil {
		c.reject(key)
		return CachedFlow{}, false
	}
	c.served(raw)
	return ent, true
}

// flowResult is one telemetry-complete flow result: the decoded entry, and
// its payload bytes when the caller wants them or a cache stored them.
type flowResult struct {
	ent     CachedFlow
	payload []byte
}

// getFull serves a telemetry-complete entry, decoded and with its payload
// bytes. A metrics-only entry is a plain miss (the caller recomputes and
// upgrades it); a damaged one, or one whose payload fails
// DecodeFlowPayload, is rejected.
func (c *FlowCache) getFull(key string) (flowResult, bool) {
	raw, ok := c.read(key)
	if !ok {
		return flowResult{}, false
	}
	payload, ent, err := decodeEntry(raw)
	switch {
	case err != nil:
		c.reject(key)
		return flowResult{}, false
	case ent.Telemetry == nil:
		c.misses.Add(1)
		return flowResult{}, false
	}
	c.served(raw)
	return flowResult{ent: ent, payload: payload}, true
}

// read loads an entry file, counting a miss when there is none.
func (c *FlowCache) read(key string) ([]byte, bool) {
	raw, err := os.ReadFile(c.path(key))
	if err != nil {
		c.misses.Add(1)
		return nil, false
	}
	return raw, true
}

// reject handles detected corruption: the bad entry is dropped so the
// rewrite after the fallback simulation starts clean, and the read counts as
// an error and a miss.
func (c *FlowCache) reject(key string) {
	os.Remove(c.path(key))
	c.errors.Add(1)
	c.misses.Add(1)
}

// served counts a hit on an entry of len(raw) bytes.
func (c *FlowCache) served(raw []byte) {
	c.bytesRead.Add(int64(len(raw)))
	c.hits.Add(1)
}

// getOrCompute is the one cached read-or-compute, under RunPlan's flows.
// compute must return a telemetry-complete result. A full entry
// that passes DecodeFlowPayload is a hit, served decoded and as its payload
// bytes. Otherwise compute runs as the key's only in-flight computation,
// its result is encoded once and stored, and the leader and every follower
// get both its decoded and its encoded form. A cached entry without
// telemetry is a miss: the recompute overwrites it, and because entries are
// content-addressed over everything that determines the flow's outcome,
// the recompute is bit-identical to the original. A nil cache or an
// unkeyable scenario computes without storing, and encodes only for a
// caller that wants the wire form.
func (c *FlowCache) getOrCompute(sc Scenario, wire bool, compute func() (CachedFlow, error)) (flowResult, bool, error) {
	run := func(encode bool) (flowResult, error) {
		ent, err := compute()
		if err != nil || !encode {
			return flowResult{ent: ent}, err
		}
		p, err := encodeFlowPayload(ent)
		return flowResult{ent: ent, payload: p}, err
	}
	if c == nil {
		r, err := run(wire)
		return r, false, err
	}
	key, err := c.key(sc)
	if err != nil {
		c.errors.Add(1)
		r, err := run(wire)
		return r, false, err
	}
	if r, ok := c.getFull(key); ok {
		return r, true, nil
	}
	return c.share(key, func() (flowResult, error) {
		r, err := run(true)
		if err == nil {
			c.writeEntry(key, sealEntry(r.payload))
		}
		return r, err
	})
}

// share runs compute as key's only in-flight computation: the first caller
// (the leader) runs it, concurrent callers with the same key block and
// adopt its result (shared = true, counted in Dedups) or its error.
func (c *FlowCache) share(key string, compute func() (flowResult, error)) (flowResult, bool, error) {
	c.flightMu.Lock()
	if call, inflight := c.flight[key]; inflight {
		c.flightMu.Unlock()
		<-call.done
		if call.err != nil {
			return flowResult{}, false, call.err
		}
		c.dedups.Add(1)
		return call.res, true, nil
	}
	call := &flightCall{done: make(chan struct{})}
	if c.flight == nil {
		c.flight = make(map[string]*flightCall)
	}
	c.flight[key] = call
	c.flightMu.Unlock()

	call.res, call.err = compute()
	c.flightMu.Lock()
	delete(c.flight, key)
	c.flightMu.Unlock()
	close(call.done)
	return call.res, false, call.err
}

// Put stores a metrics-only ("thin") result under the scenario's key; it is
// the only writer of thin entries. Writes are atomic (unique temp file,
// then rename), so concurrent writers of the same key — which, by
// construction, carry identical payloads — cannot interleave into a torn
// entry. Storage failures are counted and otherwise ignored: the cache is
// an accelerator, never a correctness dependency.
func (c *FlowCache) Put(sc Scenario, m *analysis.FlowMetrics, st tcp.Stats) {
	key, err := c.key(sc)
	if err != nil {
		c.errors.Add(1)
		return
	}
	payload, err := (&CachedFlow{Metrics: m, Stats: st}).MarshalBinary()
	if err != nil {
		c.errors.Add(1)
		return
	}
	c.writeEntry(key, sealEntry(payload))
}

// writeEntry atomically stores a sealed entry file under key.
func (c *FlowCache) writeEntry(key string, raw []byte) {
	tmp, err := os.CreateTemp(c.dir, key+".tmp*")
	if err != nil {
		c.errors.Add(1)
		return
	}
	if _, err := tmp.Write(raw); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		c.errors.Add(1)
		return
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		c.errors.Add(1)
		return
	}
	if err := os.Rename(tmp.Name(), c.path(key)); err != nil {
		os.Remove(tmp.Name())
		c.errors.Add(1)
		return
	}
	c.bytesWritten.Add(int64(len(raw)))
	if max := c.maxBytes.Load(); max > 0 && c.diskBytes.Add(int64(len(raw))) > max {
		c.evict(max)
	}
}

// SetMaxBytes bounds the cache's on-disk entry total: after every write that
// pushes the total past max, the oldest entries (by modification time) are
// evicted until the total fits again, so a long-running server's cache
// directory cannot grow without bound. max <= 0 removes the bound. The
// current total is measured from the directory when the bound is installed
// (and re-measured on every eviction scan), so a pre-populated or externally
// shared directory is bounded correctly too; an over-budget directory is
// trimmed immediately.
func (c *FlowCache) SetMaxBytes(max int64) error {
	if max <= 0 {
		c.maxBytes.Store(0)
		return nil
	}
	c.maxBytes.Store(max)
	total, err := c.scanDiskBytes()
	if err != nil {
		return fmt.Errorf("dataset: cache: %w", err)
	}
	c.diskBytes.Store(total)
	if total > max {
		c.evict(max)
	}
	return nil
}

// scanDiskBytes sums the sizes of every entry file in the cache directory.
func (c *FlowCache) scanDiskBytes() (int64, error) {
	ents, err := c.entries()
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range ents {
		total += e.size
	}
	return total, nil
}

// cacheEntryInfo is one on-disk entry's eviction-relevant metadata.
type cacheEntryInfo struct {
	path  string
	size  int64
	mtime time.Time
}

// entries lists the cache directory's entry files, leftovers of older
// schemas included (temp files excluded).
func (c *FlowCache) entries() ([]cacheEntryInfo, error) {
	dirents, err := os.ReadDir(c.dir)
	if err != nil {
		return nil, err
	}
	ents := make([]cacheEntryInfo, 0, len(dirents))
	for _, de := range dirents {
		name := de.Name()
		if ext := filepath.Ext(name); de.IsDir() || (ext != entrySuffix && ext != legacySuffix) {
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue // raced with a concurrent removal
		}
		ents = append(ents, cacheEntryInfo{
			path:  filepath.Join(c.dir, name),
			size:  info.Size(),
			mtime: info.ModTime(),
		})
	}
	return ents, nil
}

// evict removes the oldest entries (by mtime, ties broken by name for
// determinism) until the directory total is back under max. It re-scans the
// directory for an accurate total — the running estimate drifts when several
// processes share the directory — and tolerates entries vanishing mid-scan
// (another process may be evicting too). Failures are counted and otherwise
// ignored: eviction is bookkeeping, never a correctness dependency.
func (c *FlowCache) evict(max int64) {
	c.evictMu.Lock()
	defer c.evictMu.Unlock()
	ents, err := c.entries()
	if err != nil {
		c.errors.Add(1)
		return
	}
	var total int64
	for _, e := range ents {
		total += e.size
	}
	if total > max {
		sort.Slice(ents, func(i, j int) bool {
			if !ents[i].mtime.Equal(ents[j].mtime) {
				return ents[i].mtime.Before(ents[j].mtime)
			}
			return ents[i].path < ents[j].path
		})
		for _, e := range ents {
			if total <= max {
				break
			}
			if err := os.Remove(e.path); err != nil {
				if !os.IsNotExist(err) {
					c.errors.Add(1)
					continue
				}
			}
			total -= e.size
			c.evictions.Add(1)
		}
	}
	c.diskBytes.Store(total)
}

// Counters returns a snapshot of the cache's activity counters in telemetry
// form.
func (c *FlowCache) Counters() telemetry.Cache {
	return telemetry.Cache{
		Hits:         c.hits.Load(),
		Misses:       c.misses.Load(),
		Dedups:       c.dedups.Load(),
		Errors:       c.errors.Load(),
		Evictions:    c.evictions.Load(),
		BytesRead:    c.bytesRead.Load(),
		BytesWritten: c.bytesWritten.Load(),
	}
}

// An entry file is one header line, then the binary flow payload:
//
//	hsrflowcache <sha256>\n<payload>
//
// The checksum covers the payload. The payload's own telemetry-presence
// byte says which kind an entry is: with telemetry (every entry RunPlan
// writes) or metrics only (written by Put).

// checksumOffset is where the checksummed payload begins: after the magic,
// the hex digest and the space and newline around it.
const checksumOffset = len(entryMagic) + 1 + 2*sha256.Size + 1

// sealEntry renders an entry file from its payload.
func sealEntry(payload []byte) []byte {
	raw := make([]byte, checksumOffset, checksumOffset+len(payload))
	raw = append(raw, payload...)
	sum := sha256.Sum256(payload)
	copy(raw, entryMagic+" ")
	hex.Encode(raw[len(entryMagic)+1:], sum[:])
	raw[checksumOffset-1] = '\n'
	return raw
}

// verifyEntry checks an entry file's magic and checksum and returns the
// (undecoded) payload.
func verifyEntry(raw []byte) ([]byte, error) {
	if len(raw) < checksumOffset || string(raw[:len(entryMagic)+1]) != entryMagic+" " || raw[checksumOffset-1] != '\n' {
		return nil, fmt.Errorf("dataset: cache entry: bad header")
	}
	var want [sha256.Size]byte
	if _, err := hex.Decode(want[:], raw[len(entryMagic)+1:checksumOffset-1]); err != nil {
		return nil, fmt.Errorf("dataset: cache entry: bad checksum encoding")
	}
	payload := raw[checksumOffset:]
	if sha256.Sum256(payload) != want {
		return nil, fmt.Errorf("dataset: cache entry: checksum mismatch (truncated or corrupted)")
	}
	return payload, nil
}

// decodeEntry verifies an entry file and decodes its payload by kind: a
// flow with telemetry must pass CheckComplete, one without must carry
// metrics. It returns the payload bytes with the decoded flow. Both read
// paths start here.
func decodeEntry(raw []byte) ([]byte, CachedFlow, error) {
	payload, err := verifyEntry(raw)
	if err != nil {
		return nil, CachedFlow{}, err
	}
	ent, err := decodeFlow(payload)
	switch {
	case err != nil:
	case ent.Telemetry != nil:
		err = ent.CheckComplete()
	case ent.Metrics == nil:
		err = errors.New("metrics-only entry without metrics")
	}
	if err != nil {
		return nil, CachedFlow{}, fmt.Errorf("dataset: cache entry: %w", err)
	}
	return payload, ent, nil
}
