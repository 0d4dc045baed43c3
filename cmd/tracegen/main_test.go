package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/trace"
)

func TestRunGeneratesBinaryTraces(t *testing.T) {
	dir := t.TempDir()
	err := run([]string{"-out", dir, "-flows", "2", "-duration", "10s", "-seed", "3"})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.hsrt"))
	if err != nil || len(files) != 2 {
		t.Fatalf("generated files = %v (err %v), want 2", files, err)
	}
	f, err := os.Open(files[0])
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ft, err := trace.ReadBinary(f)
	if err != nil {
		t.Fatalf("generated trace unreadable: %v", err)
	}
	if len(ft.Events) == 0 {
		t.Error("generated trace is empty")
	}
	if err := ft.Validate(); err != nil {
		t.Errorf("generated trace invalid: %v", err)
	}
}

func TestRunGeneratesJSONL(t *testing.T) {
	dir := t.TempDir()
	err := run([]string{"-out", dir, "-flows", "1", "-duration", "5s",
		"-format", "jsonl", "-scenario", "stationary", "-operator", "telecom"})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "*.jsonl"))
	if len(files) != 1 {
		t.Fatalf("jsonl files = %v, want 1", files)
	}
	f, err := os.Open(files[0])
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ft, err := trace.ReadJSONL(f)
	if err != nil {
		t.Fatalf("generated jsonl unreadable: %v", err)
	}
	if ft.Meta.Operator != "China Telecom" || ft.Meta.Scenario != "stationary" {
		t.Errorf("meta = %+v", ft.Meta)
	}
}

func TestRunRejectsBadArgs(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-out", dir, "-operator", "nope"}); err == nil {
		t.Error("unknown operator accepted")
	}
	if err := run([]string{"-out", dir, "-scenario", "nope"}); err == nil {
		t.Error("unknown scenario accepted")
	}
	if err := run([]string{"-out", dir, "-format", "nope"}); err == nil {
		t.Error("unknown format accepted")
	}
}

func TestRunWithFaultSchedule(t *testing.T) {
	dir := t.TempDir()
	err := runGuarded([]string{"-out", dir, "-flows", "1", "-duration", "15s",
		"-faults", "blackout@5s+1s; ackburst@8s+1s p=0.9"})
	if err != nil {
		t.Fatalf("run with fault schedule: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) != 1 {
		t.Fatalf("generated %d traces (%v), want 1", len(entries), err)
	}
}

func TestRunVersionFlag(t *testing.T) {
	if err := run([]string{"-version"}); err != nil {
		t.Fatalf("-version: %v", err)
	}
}

func TestRunFlightRecorder(t *testing.T) {
	dir := t.TempDir()
	// A blackout guarantees timeouts, so the recorder has transitions to keep.
	err := run([]string{"-out", dir, "-flows", "2", "-duration", "15s",
		"-faults", "blackout@5s+2s", "-flightrec", "64"})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "*.flightrec.jsonl"))
	if len(files) != 2 {
		t.Fatalf("flight-recorder dumps = %v, want 2", files)
	}
	f, err := os.Open(files[0])
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ft, err := trace.ReadJSONL(f)
	if err != nil {
		t.Fatalf("flight-recorder dump unreadable by the JSONL codec: %v", err)
	}
	if len(ft.Events) == 0 {
		t.Fatal("flight-recorder dump is empty despite a blackout")
	}
	if err := ft.Validate(); err != nil {
		t.Fatalf("flight-recorder dump fails trace validation: %v", err)
	}
	transition := map[trace.EventType]bool{
		trace.EvTimeout: true, trace.EvFastRetx: true, trace.EvRecovered: true,
		trace.EvDataDrop: true, trace.EvAckDrop: true,
	}
	for _, ev := range ft.Events {
		if !transition[ev.Type] {
			t.Errorf("non-transition event %v leaked into the flight recorder", ev.Type)
		}
	}
}

// TestLastTransitions checks the flight-recorder filter: only transition
// events are kept, a full window keeps the newest n in chronological order,
// and the count of older ones left out is exact.
func TestLastTransitions(t *testing.T) {
	evs := []trace.Event{{Type: trace.EvDataSend, At: time.Second}}
	if kept, over := lastTransitions(evs, 3); len(kept) != 0 || over != 0 {
		t.Fatalf("non-transition event kept: %d kept, %d overwritten", len(kept), over)
	}
	for i := 0; i < 5; i++ {
		evs = append(evs,
			trace.Event{Type: trace.EvTimeout, At: time.Duration(i) * time.Second, Seq: int64(i)},
			trace.Event{Type: trace.EvAckRecv, At: time.Duration(i) * time.Second, Seq: -1})
	}
	kept, over := lastTransitions(evs, 3)
	if len(kept) != 3 || over != 2 {
		t.Fatalf("kept %d, overwritten %d; want 3 and 2", len(kept), over)
	}
	for i, ev := range kept {
		if want := int64(i + 2); ev.Type != trace.EvTimeout || ev.Seq != want {
			t.Errorf("kept event %d = %v seq %d, want timeout seq %d (chronological order)", i, ev.Type, ev.Seq, want)
		}
	}
	if kept, over := lastTransitions(evs, 64); len(kept) != 5 || over != 0 {
		t.Errorf("window larger than the matches: kept %d, overwritten %d; want 5 and 0", len(kept), over)
	}

	// The dump round-trips through the standard JSONL codec.
	var buf bytes.Buffer
	if err := trace.WriteJSONL(&buf, &trace.FlowTrace{Meta: trace.FlowMeta{ID: "fr-test", Seed: 7}, Events: kept}); err != nil {
		t.Fatal(err)
	}
	back, err := trace.ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Meta.ID != "fr-test" || len(back.Events) != 3 {
		t.Fatalf("roundtrip = %q with %d events", back.Meta.ID, len(back.Events))
	}
}

func TestRunRejectsNegativeFlightrec(t *testing.T) {
	if err := run([]string{"-out", t.TempDir(), "-flightrec", "-1"}); err == nil {
		t.Error("negative -flightrec accepted")
	}
}

func TestRunRejectsBadFaultSchedule(t *testing.T) {
	err := runGuarded([]string{"-out", t.TempDir(), "-flows", "1", "-duration", "10s",
		"-faults", "meteorstrike@5s+1s"})
	if err == nil {
		t.Error("bad fault schedule accepted")
	}
}
