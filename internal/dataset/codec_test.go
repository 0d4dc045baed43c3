package dataset

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/telemetry"
)

// filler sets every coded field of a value, recursively, to a distinct
// non-zero value: every slice and map gets two elements, every pointer a
// target. A type with no exported fields (telemetry.Dist, whose summary the
// codec deliberately does not store) stays zero.
type filler struct{ n int }

// coded reports whether the codec must carry field i of struct type t: every
// exported field except LinkCounters.VectorPackets, an always-zero stub
// that only the perfbench module reads.
func coded(t reflect.Type, i int) bool {
	f := t.Field(i)
	return f.IsExported() && !(t == reflect.TypeOf(telemetry.LinkCounters{}) && f.Name == "VectorPackets")
}

func (f *filler) fill(v reflect.Value) {
	f.n++
	switch v.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(int64(f.n) * 1000003)
	case reflect.Float64:
		v.SetFloat(float64(f.n) + 0.125)
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", f.n))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		f.fill(v.Elem())
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < 2; i++ {
			f.fill(v.Index(i))
		}
	case reflect.Map:
		v.Set(reflect.MakeMap(v.Type()))
		for i := 0; i < 2; i++ {
			k, e := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
			f.fill(k)
			f.fill(e)
			v.SetMapIndex(k, e)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if coded(v.Type(), i) {
				f.fill(v.Field(i))
			}
		}
	default:
		panic(fmt.Sprintf("filler: unhandled kind %v", v.Kind()))
	}
}

// zeroLeaves lists the exported leaf fields of v still at their zero value.
func zeroLeaves(v reflect.Value, path string) []string {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			return []string{path}
		}
		return zeroLeaves(v.Elem(), path)
	case reflect.Slice, reflect.Map:
		if v.Len() == 0 {
			return []string{path}
		}
		var out []string
		if v.Kind() == reflect.Slice {
			for i := 0; i < v.Len(); i++ {
				out = append(out, zeroLeaves(v.Index(i), fmt.Sprintf("%s[%d]", path, i))...)
			}
			return out
		}
		for it := v.MapRange(); it.Next(); {
			out = append(out, zeroLeaves(it.Value(), fmt.Sprintf("%s[%v]", path, it.Key()))...)
		}
		return out
	case reflect.Struct:
		var out []string
		for i := 0; i < v.NumField(); i++ {
			if coded(v.Type(), i) {
				out = append(out, zeroLeaves(v.Field(i), path+"."+v.Type().Field(i).Name)...)
			}
		}
		return out
	default:
		if v.IsZero() {
			return []string{path}
		}
		return nil
	}
}

// TestFlowCodecCompleteness fills every coded field of CachedFlow's type
// tree (two recoveries, two CC variants, every histogram and counter) and
// requires an exact round trip: a field added to any of these structs
// without a line in the codec's field list decodes as zero and fails here.
// A metrics-only flow (nil Telemetry) round-trips too.
func TestFlowCodecCompleteness(t *testing.T) {
	var full CachedFlow
	(&filler{}).fill(reflect.ValueOf(&full).Elem())
	if zero := zeroLeaves(reflect.ValueOf(full), "CachedFlow"); len(zero) > 0 {
		t.Fatalf("filler left fields zero: %v", zero)
	}
	if len(full.Metrics.Recoveries) != 2 || len(full.Telemetry.TCP.ByCC) != 2 {
		t.Fatalf("filler built %d recoveries and %d CC variants, want 2 each", len(full.Metrics.Recoveries), len(full.Telemetry.TCP.ByCC))
	}
	thin := CachedFlow{Metrics: full.Metrics, Stats: full.Stats}
	for name, want := range map[string]CachedFlow{"full": full, "thin": thin} {
		b, err := want.MarshalBinary()
		if err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		got, err := decodeFlow(b)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: round trip changed the flow:\nwant %+v\ngot  %+v", name, want, got)
		}
	}
}

// multiVariantFlow is a real flow whose TCP section carries several
// congestion-control variants, so map order could show in its encoding.
func multiVariantFlow(t *testing.T) CachedFlow {
	t.Helper()
	ent, err := runFlowFull(cachedScenario(t, 7))
	if err != nil {
		t.Fatal(err)
	}
	tcp := &ent.Telemetry.TCP
	for i, name := range []string{"vegas", "bbr", "reno", "cubic", "westwood", "htcp"} {
		s := tcp.CC(name)
		s.Flows, s.DataSent = 1, int64(100*i+1)
		s.CwndHist.Counts[i] = int64(i + 3)
	}
	return ent
}

// TestFlowCodecDeterministic encodes one multi-variant flow 100 times: the
// bytes must never change (the CC breakdown is written in sorted order, not
// map order), and they must decode back to the flow.
func TestFlowCodecDeterministic(t *testing.T) {
	ent := multiVariantFlow(t)
	first, err := ent.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		b, err := ent.MarshalBinary()
		if err != nil || !bytes.Equal(b, first) {
			t.Fatalf("encoding %d differs from the first (err %v)", i, err)
		}
	}
	got, err := DecodeFlowPayload(first)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Telemetry.TCP.ByCC, ent.Telemetry.TCP.ByCC) || !reflect.DeepEqual(got.Metrics, ent.Metrics) {
		t.Error("multi-variant flow changed through the codec")
	}
}

// TestFlowCodecRejects covers the encodings the decoder must refuse and the
// values the encoder must refuse.
func TestFlowCodecRejects(t *testing.T) {
	complete, thin := minimalFlows()
	good := mustMarshal(t, complete)
	if _, err := DecodeFlowPayload(good); err != nil {
		t.Fatalf("minimal complete flow rejected: %v", err)
	}
	// The metrics-only flow's first string length sits right after the
	// metrics presence flag: widen that zero to a two-byte varint.
	thinBytes := mustMarshal(t, thin)
	overlong := append([]byte{thinBytes[0], 0x80, 0x00}, thinBytes[2:]...)
	bad := map[string][]byte{
		"empty":             nil,
		"json":              []byte(`{"metrics":{},"telemetry":{}}`),
		"trailing byte":     append(bytes.Clone(good), 0),
		"truncated":         good[:len(good)-1],
		"bad presence flag": append([]byte{2}, good[1:]...),
		"overlong varint":   overlong,
		"metrics only":      thinBytes,
	}
	for name, b := range bad {
		if _, err := DecodeFlowPayload(b); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := decodeFlow(thinBytes); err != nil {
		t.Errorf("metrics-only flow does not decode: %v", err)
	}

	for name, v := range map[string]float64{"NaN": math.NaN(), "+Inf": math.Inf(1), "-Inf": math.Inf(-1)} {
		f := thin
		m := *f.Metrics
		m.MeanWindow = v
		f.Metrics = &m
		if _, err := f.MarshalBinary(); err == nil {
			t.Errorf("%s metric encoded", name)
		}
	}
	nilCC := complete
	state := *complete.Telemetry
	state.TCP.ByCC = map[string]*telemetry.CCStats{"reno": nil}
	nilCC.Telemetry = &state
	if _, err := nilCC.MarshalBinary(); err == nil {
		t.Error("nil CC entry encoded")
	}
}

// decodeAllocBound is the most FuzzFlowPayload lets one decode allocate
// for an n-byte input: a fixed allowance for the metrics and telemetry
// structs, plus a multiple of the input for what its lengths claim.
func decodeAllocBound(n int) uint64 { return 4096 + 32*uint64(n) }

// decodeAllocs returns the bytes one decodeFlow(b) call allocates: the
// least of three measurements, so an allocation elsewhere in the process
// cannot fail the bound.
func decodeAllocs(b []byte) uint64 {
	least := uint64(math.MaxUint64)
	var before, after runtime.MemStats
	for i := 0; i < 3; i++ {
		runtime.ReadMemStats(&before)
		decodeFlow(b)
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
		if least <= decodeAllocBound(len(b)) {
			break
		}
	}
	return least
}

// FuzzFlowPayload is the payload codec's trust boundary: for arbitrary
// bytes, decoding must not panic, must not allocate more than the input
// length can justify, and must accept only canonical encodings, so an
// accepted payload re-encodes to exactly its bytes. DecodeFlowPayload must
// accept exactly the decoded flows that pass CheckComplete, and a flow it
// accepts must restore and merge into a campaign, twice, next to an honest
// flow with a per-variant breakdown, without panicking.
func FuzzFlowPayload(f *testing.F) {
	honest := telemetry.NewFlow()
	honest.TCP.CwndHist.Add(10)
	honest.TCP.CC("reno").CwndHist.Add(10)
	state := honest.State()
	complete, thin := minimalFlows()
	f.Add(mustMarshal(f, complete))
	f.Add(mustMarshal(f, thin))
	f.Add(mustMarshal(f, CachedFlow{Metrics: &analysis.FlowMetrics{}, Telemetry: &state}))
	f.Add([]byte(`{"metrics":{}}`))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		if alloc := decodeAllocs(b); alloc > decodeAllocBound(len(b)) {
			t.Fatalf("decoding %d bytes allocated %d bytes, over the %d bound", len(b), alloc, decodeAllocBound(len(b)))
		}
		ent, err := decodeFlow(b)
		if err != nil {
			if _, err := DecodeFlowPayload(b); err == nil {
				t.Fatal("DecodeFlowPayload accepted a payload decodeFlow rejects")
			}
			return
		}
		re, err := ent.MarshalBinary()
		if err != nil {
			t.Fatalf("decoded flow does not encode: %v", err)
		}
		if !bytes.Equal(re, b) {
			t.Fatalf("decoded flow re-encodes to other bytes:\nin  %x\nout %x", b, re)
		}
		if ent.Telemetry != nil {
			if err := ent.Telemetry.Validate(); err != nil && !strings.HasPrefix(err.Error(), "telemetry: ") {
				t.Fatalf("unprefixed error %q", err)
			}
		}
		_, err = DecodeFlowPayload(b)
		if complete := ent.CheckComplete() == nil; complete != (err == nil) {
			t.Fatalf("DecodeFlowPayload err %v, CheckComplete passes: %v", err, complete)
		}
		if err != nil {
			return
		}
		c := telemetry.NewCampaign()
		c.AddFlow(honest)
		c.AddFlow(ent.Telemetry.Restore())
		c.AddFlow(ent.Telemetry.Restore())
	})
}

// BenchmarkFlowPayload encodes and decodes one real telemetry-complete
// entry of a quick campaign (45 s flow); decode includes CheckComplete, as
// every read from outside the process runs it.
func BenchmarkFlowPayload(b *testing.B) {
	plan, err := PlanCampaign(CampaignConfig{Seed: 1, FlowDuration: 45 * time.Second, FlowsPerRow: 1})
	if err != nil {
		b.Fatal(err)
	}
	ent, err := runFlowFull(plan[0].Scenario)
	if err != nil {
		b.Fatal(err)
	}
	payload := mustMarshal(b, ent)
	b.Run("encode", func(b *testing.B) {
		b.SetBytes(int64(len(payload)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ent.MarshalBinary(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.SetBytes(int64(len(payload)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := DecodeFlowPayload(payload); err != nil {
				b.Fatal(err)
			}
		}
	})
}
