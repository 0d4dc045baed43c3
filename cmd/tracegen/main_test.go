package main

import (
	"os"
	"path/filepath"
	"testing"

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
