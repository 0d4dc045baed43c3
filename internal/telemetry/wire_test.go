package telemetry

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"
)

// randomFlow builds a Flow bundle with every section populated from the
// seeded rng, including awkward floating-point cwnd samples.
func randomFlow(rng *rand.Rand) *Flow {
	f := NewFlow()
	f.Kernel.Events = rng.Int63n(1 << 40)
	f.Kernel.Scheduled = rng.Int63n(1 << 40)
	f.Kernel.MaxPending = rng.Int63n(1 << 20)
	f.Kernel.Batches = rng.Int63n(1 << 20)
	f.Kernel.VirtualNS = rng.Int63n(1 << 50)
	f.TCP.Flows = 1
	f.TCP.DataSent = rng.Int63n(1 << 30)
	f.TCP.Retransmissions = rng.Int63n(1 << 20)
	f.TCP.Timeouts = rng.Int63n(100)
	f.TCP.RecoveryNS = rng.Int63n(1 << 40)
	for i, n := 0, 1+rng.Intn(200); i < n; i++ {
		v := rng.Float64()*130 + rng.ExpFloat64()
		f.TCP.Cwnd.Add(v)
		f.TCP.CwndHist.Add(v)
	}
	for i, n := 0, rng.Intn(10); i < n; i++ {
		f.TCP.BackoffHist.Add(float64(rng.Intn(8)))
	}
	f.Net.Data.Offered = rng.Int63n(1 << 30)
	f.Net.Data.ChannelDrops = rng.Int63n(1 << 10)
	f.Net.Data.PeakBacklog = rng.Int63n(1 << 10)
	f.Faults.Episodes = rng.Int63n(10)
	f.WallNS = rng.Int63n(1 << 30)
	return f
}

// campaignBytes marshals a campaign for byte comparison.
func campaignBytes(t *testing.T, c *Campaign) []byte {
	t.Helper()
	raw, err := json.Marshal(c)
	if err != nil {
		t.Fatalf("marshal campaign: %v", err)
	}
	return raw
}

// TestFlowStateWireRoundTripExact is the invariant distributed campaign
// execution rests on: a Flow shipped through the FlowState JSON wire form
// and restored on the other side merges into a Campaign byte-identically
// to the original — including the floating-point cwnd accumulator the
// summary JSON form deliberately rounds.
func TestFlowStateWireRoundTripExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		f := randomFlow(rng)

		state := f.State()
		raw, err := json.Marshal(&state)
		if err != nil {
			t.Fatalf("marshal state: %v", err)
		}
		var decoded FlowState
		if err := json.Unmarshal(raw, &decoded); err != nil {
			t.Fatalf("unmarshal state: %v", err)
		}
		restored := decoded.Restore()

		direct, viaWire := NewCampaign(), NewCampaign()
		direct.AddFlow(f)
		viaWire.AddFlow(restored)
		// Keep accumulating after the round trip: a restored accumulator
		// must evolve identically, not just render identically.
		extra := randomFlow(rng)
		direct.AddFlow(extra)
		viaWire.AddFlow(extra)

		if a, b := campaignBytes(t, direct), campaignBytes(t, viaWire); !bytes.Equal(a, b) {
			t.Fatalf("trial %d: wire round trip diverged:\ndirect: %s\nwire:   %s", trial, a, b)
		}
	}
}

// TestFlowStateSnapshotIsolated asserts State deep-copies histogram storage:
// mutating the original flow after the snapshot must not leak into it.
func TestFlowStateSnapshotIsolated(t *testing.T) {
	f := NewFlow()
	f.TCP.CwndHist.Add(3)
	state := f.State()
	f.TCP.CwndHist.Add(3)
	if got, want := state.Flow.TCP.CwndHist.Total(), int64(1); got != want {
		t.Fatalf("snapshot histogram total %d, want %d", got, want)
	}
	restored := state.Restore()
	restored.TCP.CwndHist.Add(3)
	if got, want := state.Flow.TCP.CwndHist.Total(), int64(1); got != want {
		t.Fatalf("restore aliases snapshot storage: total %d, want %d", got, want)
	}
}

// TestReportFleetRoundTrip asserts the fleet section survives the
// WriteJSON/ReadReport round trip byte for byte, like every other section.
func TestReportFleetRoundTrip(t *testing.T) {
	rep := &Report{
		Tool: "hsrserved", Version: "test", Seed: 9,
		Fleet: &Fleet{
			Workers: 3, Units: 16, UnitsDispatched: 21, UnitsCompleted: 14,
			UnitsLocal: 2, Retries: 5, Reassignments: 2, Hedges: 1,
			DuplicateResults: 1, WorkersLost: 2, WorkersReadmitted: 1, Degraded: 1,
		},
		Tasks: []TaskReport{{Name: "campaigns", Status: "ok"}},
	}
	var first bytes.Buffer
	if err := rep.WriteJSON(&first); err != nil {
		t.Fatalf("write: %v", err)
	}
	parsed, err := ReadReport(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if parsed.Fleet == nil || *parsed.Fleet != *rep.Fleet {
		t.Fatalf("fleet section did not round trip: %+v", parsed.Fleet)
	}
	var second bytes.Buffer
	if err := parsed.WriteJSON(&second); err != nil {
		t.Fatalf("rewrite: %v", err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("report round trip not byte-identical:\n%s\nvs\n%s", first.Bytes(), second.Bytes())
	}

	var merged Fleet
	merged.Merge(rep.Fleet)
	merged.Merge(rep.Fleet)
	if merged.Units != 2*rep.Fleet.Units || merged.Workers != rep.Fleet.Workers {
		t.Fatalf("fleet merge wrong: %+v", merged)
	}
}
