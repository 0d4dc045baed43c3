package dataset

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
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
// and virtual duration to the entry header.
const cacheSchema = 3

// entryMagic is the first token of every cache entry file.
const entryMagic = "hsrflowcache"

// FlowCache is a content-addressed, on-disk store of per-flow results: the
// key is a stable hash of everything that determines a flow's outcome (the
// full scenario configuration, the seed, and the model-relevant code
// version), the value its FlowMetrics and endpoint Stats. Campaigns and
// sweeps consult it before simulating, so repeated and overlapping runs
// skip simulation entirely on a hit — and because the simulation is
// deterministic for a key, a hit is byte-equivalent to re-running it.
//
// Entries are written atomically (temp file + rename) and carry a SHA-256
// checksum covering their header flags and payload; a truncated, corrupted
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
	// the first caller of GetOrCompute for a missing key simulates, everyone
	// else waits for its result.
	flightMu sync.Mutex
	flight   map[string]*flightCall
}

// flightCall is one in-flight computation shared by concurrent misses.
type flightCall struct {
	done chan struct{} // closed when val/err are final
	val  any           // CachedFlow (GetOrCompute) or FlowPayload (GetOrComputeFull)
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

// CachedFlow is one cache entry's payload: everything a metrics-only run
// needs from a flow simulation. Telemetry optionally carries the flow's
// exact telemetry bundle in wire form — entries written by distributed
// work-unit execution include it so a re-executed unit restores the same
// campaign counters bit for bit; entries written by plain flow runs omit it
// (and decode compatibly either way).
type CachedFlow struct {
	Metrics   *analysis.FlowMetrics `json:"metrics"`
	Stats     tcp.Stats             `json:"stats"`
	Telemetry *telemetry.FlowState  `json:"telemetry,omitempty"`
}

// FlowPayload is a telemetry-complete flow result in wire form: JSON holds
// the CachedFlow encoded exactly as a cache entry stores it, and VirtualNS
// the flow's simulated duration, so callers can ship the bytes on and still
// time the flow without decoding them.
type FlowPayload struct {
	JSON      json.RawMessage
	VirtualNS int64
}

// EncodeFlowPayload encodes a telemetry-complete result with the encoder
// the cache uses, so an uncached result and a cached one carry the same
// bytes.
func EncodeFlowPayload(ent CachedFlow) (FlowPayload, error) {
	if ent.Metrics == nil || ent.Telemetry == nil {
		return FlowPayload{}, fmt.Errorf("dataset: flow payload needs metrics and telemetry")
	}
	js, err := json.Marshal(ent)
	if err != nil {
		return FlowPayload{}, err
	}
	return FlowPayload{JSON: js, VirtualNS: ent.Telemetry.Kernel.VirtualNS}, nil
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
	return filepath.Join(c.dir, key+".json")
}

// Get looks the scenario up, returning its cached result and true on a hit.
// Corrupt or truncated entries are detected by checksum, removed, counted
// in Errors, and reported as a miss.
func (c *FlowCache) Get(sc Scenario) (CachedFlow, bool) {
	key, err := c.key(sc)
	if err != nil {
		c.errors.Add(1)
		return CachedFlow{}, false
	}
	return c.getKey(key)
}

// getKey is Get below the key computation.
func (c *FlowCache) getKey(key string) (CachedFlow, bool) {
	raw, ok := c.read(key)
	if !ok {
		return CachedFlow{}, false
	}
	ent, err := decodeEntry(raw)
	if err != nil {
		c.reject(key)
		return CachedFlow{}, false
	}
	c.served(raw)
	return ent, true
}

// getFull serves a telemetry-complete entry's verified payload bytes
// without decoding them. A metrics-only entry is a plain miss (the caller
// recomputes and upgrades it); a damaged one is rejected like in getKey.
func (c *FlowCache) getFull(key string) (FlowPayload, bool) {
	raw, ok := c.read(key)
	if !ok {
		return FlowPayload{}, false
	}
	h, payload, err := verifyEntry(raw)
	if err == nil && !h.full {
		c.misses.Add(1)
		return FlowPayload{}, false
	}
	if err != nil || !json.Valid(payload) {
		c.reject(key)
		return FlowPayload{}, false
	}
	c.served(raw)
	return FlowPayload{JSON: payload, VirtualNS: h.virtualNS}, true
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

// GetOrCompute returns the scenario's result, serving it from disk when
// cached and computing (then storing) it otherwise — with concurrent
// computations of the same key collapsed onto one: the first caller runs
// compute, every simultaneous caller for the same key blocks on that result
// instead of simulating it again (counted in Dedups). shared reports that
// the result came from the cache or another caller's computation rather
// than this call's own compute — callers that attach telemetry to the
// computation can use it exactly like a cache hit (no simulation work of
// their own happened). A compute error is returned to the leader and every
// waiter, and nothing is stored.
func (c *FlowCache) GetOrCompute(sc Scenario, compute func() (CachedFlow, error)) (CachedFlow, bool, error) {
	key, err := c.key(sc)
	if err != nil {
		// Unkeyable scenario: fall back to a plain computation.
		c.errors.Add(1)
		ent, cerr := compute()
		return ent, false, cerr
	}
	if ent, ok := c.getKey(key); ok {
		return ent, true, nil
	}
	return share(c, key, func() (CachedFlow, error) {
		ent, err := compute()
		if err == nil {
			c.putKey(key, ent)
		}
		return ent, err
	})
}

// GetOrComputeFull is GetOrCompute for callers that need a telemetry-bearing
// entry (distributed work-unit execution), in wire form: a hit returns the
// entry's checksum-verified payload bytes and header duration without
// decoding them. A cached entry without a Telemetry section is treated as a
// miss — compute runs and its (telemetry-complete) result overwrites the
// thinner entry, upgrading it for future unit runs. Because entries are
// content-addressed over everything that determines the flow's outcome, the
// recompute is bit-identical to the original, so the overwrite changes
// nothing a metrics-only reader can observe. compute's result must carry
// metrics and telemetry; it is encoded once, and the stored entry and the
// returned payload share those bytes. In-flight dedup is namespaced apart
// from GetOrCompute's so a full computation never adopts a concurrent
// metrics-only result (which would lack telemetry).
func (c *FlowCache) GetOrComputeFull(sc Scenario, compute func() (CachedFlow, error)) (FlowPayload, bool, error) {
	encode := func() (FlowPayload, error) {
		ent, err := compute()
		if err != nil {
			return FlowPayload{}, err
		}
		return EncodeFlowPayload(ent)
	}
	key, err := c.key(sc)
	if err != nil {
		c.errors.Add(1)
		p, cerr := encode()
		return p, false, cerr
	}
	if p, ok := c.getFull(key); ok {
		return p, true, nil
	}
	return share(c, "full:"+key, func() (FlowPayload, error) {
		p, err := encode()
		if err == nil {
			c.writeEntry(key, sealEntry(entryHeader{full: true, virtualNS: p.VirtualNS}, p.JSON))
		}
		return p, err
	})
}

// share runs compute as flightKey's only in-flight computation: the first
// caller (the leader) runs it, concurrent callers with the same flightKey
// block and adopt its result (shared = true, counted in Dedups) or its
// error.
func share[T any](c *FlowCache, flightKey string, compute func() (T, error)) (T, bool, error) {
	c.flightMu.Lock()
	if call, inflight := c.flight[flightKey]; inflight {
		c.flightMu.Unlock()
		<-call.done
		if call.err != nil {
			var zero T
			return zero, false, call.err
		}
		c.dedups.Add(1)
		return call.val.(T), true, nil
	}
	call := &flightCall{done: make(chan struct{})}
	if c.flight == nil {
		c.flight = make(map[string]*flightCall)
	}
	c.flight[flightKey] = call
	c.flightMu.Unlock()

	v, err := compute()
	call.val, call.err = v, err
	c.flightMu.Lock()
	delete(c.flight, flightKey)
	c.flightMu.Unlock()
	close(call.done)
	return v, false, err
}

// Put stores the flow's result under the scenario's key. Writes are atomic
// (unique temp file, then rename), so concurrent writers of the same key —
// which, by construction, carry identical payloads — cannot interleave into
// a torn entry. Storage failures are counted and otherwise ignored: the
// cache is an accelerator, never a correctness dependency.
func (c *FlowCache) Put(sc Scenario, m *analysis.FlowMetrics, st tcp.Stats) {
	key, err := c.key(sc)
	if err != nil {
		c.errors.Add(1)
		return
	}
	c.putKey(key, CachedFlow{Metrics: m, Stats: st})
}

// putKey is Put below the key computation.
func (c *FlowCache) putKey(key string, ent CachedFlow) {
	raw, err := encodeEntry(ent)
	if err != nil {
		c.errors.Add(1)
		return
	}
	c.writeEntry(key, raw)
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

// entries lists the cache directory's entry files (temp files excluded).
func (c *FlowCache) entries() ([]cacheEntryInfo, error) {
	dirents, err := os.ReadDir(c.dir)
	if err != nil {
		return nil, err
	}
	ents := make([]cacheEntryInfo, 0, len(dirents))
	for _, de := range dirents {
		name := de.Name()
		if de.IsDir() || !strings.HasSuffix(name, ".json") {
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

// An entry file is one header line, then the JSON payload:
//
//	hsrflowcache <sha256> <full|thin> <virtual_ns>\n<payload>
//
// The flag says whether the payload carries telemetry ("full") or metrics
// only ("thin"); virtual_ns is the flow's simulated duration from its
// telemetry (0 for thin entries). The checksum covers every byte after it
// (flag, duration and payload), so a tampered flag fails verification like a
// damaged payload.

// entryHeader is the checksummed part of an entry's header line.
type entryHeader struct {
	full      bool
	virtualNS int64
}

// checksumOffset is where the checksummed bytes begin: after the magic, the
// hex digest and their separating spaces.
const checksumOffset = len(entryMagic) + 1 + 2*sha256.Size + 1

// sealEntry renders an entry file from its header fields and payload.
func sealEntry(h entryHeader, payload []byte) []byte {
	flag := "thin"
	if h.full {
		flag = "full"
	}
	raw := make([]byte, checksumOffset, checksumOffset+32+len(payload))
	raw = fmt.Appendf(raw, "%s %d\n", flag, h.virtualNS)
	raw = append(raw, payload...)
	sum := sha256.Sum256(raw[checksumOffset:])
	copy(raw, entryMagic+" ")
	hex.Encode(raw[len(entryMagic)+1:], sum[:])
	raw[checksumOffset-1] = ' '
	return raw
}

// encodeEntry renders a decoded result as an entry file, flagged by whether
// it carries telemetry.
func encodeEntry(ent CachedFlow) ([]byte, error) {
	payload, err := json.Marshal(ent)
	if err != nil {
		return nil, err
	}
	var h entryHeader
	if ent.Telemetry != nil {
		h = entryHeader{full: true, virtualNS: ent.Telemetry.Kernel.VirtualNS}
	}
	return sealEntry(h, payload), nil
}

// verifyEntry checks an entry file's magic, checksum and header flags and
// returns the header and the (unparsed) JSON payload. Both read paths start
// here.
func verifyEntry(raw []byte) (entryHeader, []byte, error) {
	if len(raw) < checksumOffset || string(raw[:len(entryMagic)+1]) != entryMagic+" " || raw[checksumOffset-1] != ' ' {
		return entryHeader{}, nil, fmt.Errorf("dataset: cache entry: bad header")
	}
	var want [sha256.Size]byte
	if _, err := hex.Decode(want[:], raw[len(entryMagic)+1:checksumOffset-1]); err != nil {
		return entryHeader{}, nil, fmt.Errorf("dataset: cache entry: bad checksum encoding")
	}
	body := raw[checksumOffset:]
	if sha256.Sum256(body) != want {
		return entryHeader{}, nil, fmt.Errorf("dataset: cache entry: checksum mismatch (truncated or corrupted)")
	}
	nl := bytes.IndexByte(body, '\n')
	if nl < 0 {
		return entryHeader{}, nil, fmt.Errorf("dataset: cache entry: missing header flags")
	}
	flag, vns, _ := strings.Cut(string(body[:nl]), " ")
	var h entryHeader
	var err error
	if h.virtualNS, err = strconv.ParseInt(vns, 10, 64); err != nil {
		return entryHeader{}, nil, fmt.Errorf("dataset: cache entry: bad virtual duration %q", vns)
	}
	switch flag {
	case "full":
		h.full = true
	case "thin":
	default:
		return entryHeader{}, nil, fmt.Errorf("dataset: cache entry: bad completeness flag %q", flag)
	}
	return h, body[nl+1:], nil
}

// decodeEntry verifies and decodes an entry file.
func decodeEntry(raw []byte) (CachedFlow, error) {
	_, payload, err := verifyEntry(raw)
	if err != nil {
		return CachedFlow{}, err
	}
	var ent CachedFlow
	if err := json.Unmarshal(payload, &ent); err != nil {
		return CachedFlow{}, fmt.Errorf("dataset: cache entry: %w", err)
	}
	if ent.Metrics == nil {
		return CachedFlow{}, fmt.Errorf("dataset: cache entry: missing metrics")
	}
	return ent, nil
}
