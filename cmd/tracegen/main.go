// Command tracegen generates synthetic packet traces — the stand-in for the
// paper's wireshark captures — and writes them to disk in the binary or
// JSONL trace format.
//
// Usage:
//
//	tracegen -out traces/ [-flows 8] [-duration 60s] [-seed 1]
//	         [-scenario hsr|stationary] [-operator mobile|unicom|telecom]
//	         [-format binary|jsonl] [-faults "blackout@30s+2s; ..."]
//	         [-flightrec N] [-version]
//
// -faults injects a deterministic fault schedule (blackouts, ACK burst
// loss, rate collapses, delay spikes, handoff storms) into every generated
// flow; the DSL is documented in docs/ROBUSTNESS.md.
//
// -flightrec N additionally writes a flight-recorder view of each flow: the
// last N state-transition events of its trace (timeouts, fast retransmits,
// recoveries, drops) go next to the full trace as <id>.flightrec.jsonl, in
// the regular JSONL trace format traceanalyze reads.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/cellular"
	"repro/internal/dataset"
	"repro/internal/faults"
	"repro/internal/railway"
	"repro/internal/tcp"
	"repro/internal/trace"
)

func main() {
	if err := runGuarded(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}

// runGuarded converts any panic escaping run into a one-line error, so bad
// inputs always yield exit code 1 and a readable message, never a crash
// stack.
func runGuarded(args []string) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("internal error: %v", v)
		}
	}()
	return run(args)
}

func run(args []string) error {
	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	out := fs.String("out", "traces", "output directory")
	flows := fs.Int("flows", 8, "number of flows to generate")
	duration := fs.Duration("duration", 60*time.Second, "flow duration")
	seed := fs.Int64("seed", 1, "base seed")
	scenario := fs.String("scenario", "hsr", "hsr or stationary")
	operator := fs.String("operator", "mobile", "mobile, unicom or telecom")
	format := fs.String("format", "binary", "binary or jsonl")
	faultSpec := fs.String("faults", "", "fault schedule DSL injected into every flow (see docs/ROBUSTNESS.md)")
	flightrec := fs.Int("flightrec", 0, "also write the last N state-transition events per flow as <id>.flightrec.jsonl (0 = off)")
	version := fs.Bool("version", false, "print version and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		fmt.Println(buildinfo.Line("tracegen"))
		return nil
	}
	if *flightrec < 0 {
		return fmt.Errorf("-flightrec %d must be non-negative", *flightrec)
	}

	sched, err := faults.Parse(*faultSpec)
	if err != nil {
		return err
	}

	var op cellular.Operator
	switch *operator {
	case "mobile":
		op = cellular.ChinaMobileLTE
	case "unicom":
		op = cellular.ChinaUnicom3G
	case "telecom":
		op = cellular.ChinaTelecom3G
	default:
		return fmt.Errorf("unknown operator %q", *operator)
	}
	profile := railway.DefaultProfile
	switch *scenario {
	case "hsr":
	case "stationary":
		profile = railway.StationaryProfile
	default:
		return fmt.Errorf("unknown scenario %q", *scenario)
	}
	var ext string
	var write func(*os.File, *trace.FlowTrace) error
	switch *format {
	case "binary":
		ext = ".hsrt"
		write = func(f *os.File, ft *trace.FlowTrace) error { return trace.WriteBinary(f, ft) }
	case "jsonl":
		ext = ".jsonl"
		write = func(f *os.File, ft *trace.FlowTrace) error { return trace.WriteJSONL(f, ft) }
	default:
		return fmt.Errorf("unknown format %q", *format)
	}

	trip, err := railway.NewTrip(railway.BeijingTianjin, profile)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return fmt.Errorf("create output dir: %w", err)
	}

	start, end := trip.CruiseWindow()
	for i := 0; i < *flows; i++ {
		offset := time.Duration(0)
		if !trip.Stationary() {
			offset = start + time.Duration(i)*37*time.Second
			if offset+*duration > end {
				offset = start
			}
		}
		sc := dataset.Scenario{
			ID:           fmt.Sprintf("%s-%s-%03d", *operator, *scenario, i),
			Operator:     op,
			Trip:         trip,
			TripOffset:   offset,
			FlowDuration: *duration,
			Seed:         *seed*1009 + int64(i),
			TCP:          tcp.DefaultConfig(),
			Scenario:     *scenario,
			Faults:       sched,
		}
		ft, st, err := dataset.RunFlow(sc)
		if err != nil {
			return fmt.Errorf("flow %d: %w", i, err)
		}
		path := filepath.Join(*out, sc.ID+ext)
		f, err := os.Create(path)
		if err != nil {
			return fmt.Errorf("create %s: %w", path, err)
		}
		if err := write(f, ft); err != nil {
			f.Close()
			return fmt.Errorf("write %s: %w", path, err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("close %s: %w", path, err)
		}
		fmt.Printf("%s: %d events, %d segments delivered, %.1f pps\n",
			path, len(ft.Events), st.UniqueDelivered, st.ThroughputPps())
		if *flightrec > 0 {
			kept, overwritten := lastTransitions(ft.Events, *flightrec)
			frPath := filepath.Join(*out, sc.ID+".flightrec.jsonl")
			ff, err := os.Create(frPath)
			if err != nil {
				return fmt.Errorf("create %s: %w", frPath, err)
			}
			if err := trace.WriteJSONL(ff, &trace.FlowTrace{Meta: ft.Meta, Events: kept}); err != nil {
				ff.Close()
				return fmt.Errorf("write %s: %w", frPath, err)
			}
			if err := ff.Close(); err != nil {
				return fmt.Errorf("close %s: %w", frPath, err)
			}
			fmt.Printf("%s: %d transition events retained (%d overwritten)\n",
				frPath, len(kept), overwritten)
		}
	}
	return nil
}

// lastTransitions returns the last n state-transition and loss events of
// evs in chronological order, and how many earlier ones it left out. The
// kept kinds are congestion-control phase changes (timeout-recovery entry
// via EvTimeout/EvFastRetx, with the RTO backoff exponent riding on the
// timeout events; recovery exit via EvRecovered) and losses (EvDataDrop,
// EvAckDrop; an ACK-burst-loss episode is a run of consecutive ack-drops).
func lastTransitions(evs []trace.Event, n int) (kept []trace.Event, overwritten int) {
	for _, ev := range evs {
		switch ev.Type {
		case trace.EvTimeout, trace.EvFastRetx, trace.EvRecovered,
			trace.EvDataDrop, trace.EvAckDrop:
			kept = append(kept, ev)
		}
	}
	if len(kept) > n {
		overwritten = len(kept) - n
		kept = kept[overwritten:]
	}
	return kept, overwritten
}
