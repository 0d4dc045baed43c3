package faults

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/netem"
	"repro/internal/sim"
)

func mustParse(t *testing.T, spec string) *Schedule {
	t.Helper()
	s, err := Parse(spec)
	if err != nil {
		t.Fatalf("Parse(%q): %v", spec, err)
	}
	return s
}

func TestParseRoundTrip(t *testing.T) {
	specs := []string{
		"blackout@30s+2s",
		"ackburst@50s+1s p=0.85",
		"ratecollapse@1m0s+5s x0.2",
		"delayspike@1m20s+2s d=400ms",
		"storm@20s+1m20s n=4 o=6s",
		"blackout@30s+2s; storm@40s+10s n=2 o=5s; delayspike@1m0s+1s d=100ms",
	}
	for _, spec := range specs {
		s := mustParse(t, spec)
		got := s.String()
		s2 := mustParse(t, got)
		if got2 := s2.String(); got2 != got {
			t.Errorf("round-trip of %q unstable: %q then %q", spec, got, got2)
		}
	}
}

func TestParseSortsByStart(t *testing.T) {
	s := mustParse(t, "delayspike@80s+2s d=1ms; blackout@30s+2s; ackburst@50s+1s p=0.5")
	for i := 1; i < len(s.Episodes); i++ {
		if s.Episodes[i].Start < s.Episodes[i-1].Start {
			t.Fatalf("episodes not sorted by start: %v", s)
		}
	}
	if s.Episodes[0].Kind != Blackout {
		t.Fatalf("first episode = %v, want blackout", s.Episodes[0].Kind)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"blackout",                               // no window
		"blackout@30s",                           // no +dur
		"blackout@bogus+2s",                      // bad start
		"blackout@30s+bogus",                     // bad duration
		"blackout@-5s+2s",                        // negative start
		"blackout@30s+0s",                        // zero duration
		"meteorstrike@30s+2s",                    // unknown kind
		"ackburst@30s+2s",                        // missing p=
		"ackburst@30s+2s p=1.5",                  // p out of range
		"ackburst@30s+2s p=zero",                 // unparsable p
		"ratecollapse@30s+2s",                    // missing factor
		"ratecollapse@30s+2s x1.5",               // factor >= 1
		"delayspike@30s+2s",                      // missing d=
		"storm@30s+2s",                           // missing n=
		"storm@30s+2s n=0",                       // zero count
		"storm@30s+2s n=2 o=0s",                  // zero outage length
		"blackout@30s+2s frobnicate9",            // unknown parameter
		"blackout@30s+2s p=0.5",                  // parameter of another kind
		"storm@30s+2s n=2 x0.5",                  // parameter of another kind
		"ackburst@0s+1s p=NaN",                   // NaN fails no range comparison
		"ackburst@0s+1s p=+Inf",                  // infinite probability
		"ratecollapse@0s+1s xNaN",                // NaN rate factor
		"storm@0s+1s n=2000000000",               // ~32 GB of outages
		"storm@0s+1s n=10001",                    // one over the cap
		"storm@0s+1s n=6000; storm@2s+1s n=6000", // over the cap in total
		"blackout@2562047h47m16s+2562047h47m16s", // window end overflows
	}
	for _, spec := range bad {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", spec)
		}
	}
}

func TestParseEmpty(t *testing.T) {
	for _, spec := range []string{"", "   ", " ; ; "} {
		s := mustParse(t, spec)
		if !s.Empty() {
			t.Errorf("Parse(%q) not empty: %v", spec, s)
		}
	}
	var nilSched *Schedule
	if !nilSched.Empty() {
		t.Error("nil schedule should be Empty")
	}
	if nilSched.String() != "" {
		t.Error("nil schedule should render empty")
	}
}

func TestScale(t *testing.T) {
	s := mustParse(t, "blackout@30s+2s; ackburst@50s+1s p=0.6; ratecollapse@60s+5s x0.25; delayspike@80s+2s d=200ms; storm@20s+40s n=4 o=6s")

	if !s.Scale(0).Empty() {
		t.Error("Scale(0) should be empty")
	}
	if !s.Scale(-1).Empty() {
		t.Error("Scale(negative) should be empty")
	}

	one := s.Scale(1)
	if got, want := one.String(), s.String(); got != want {
		t.Errorf("Scale(1) changed the schedule:\n got %q\nwant %q", got, want)
	}

	double := s.Scale(2)
	byKind := map[Kind]Episode{}
	for _, e := range double.Episodes {
		byKind[e.Kind] = e
	}
	if got := byKind[Blackout].Dur; got != 4*time.Second {
		t.Errorf("Scale(2) blackout dur = %v, want 4s", got)
	}
	if got := byKind[AckBurst].P; got != 1 {
		t.Errorf("Scale(2) ackburst p = %v, want clamp to 1", got)
	}
	if got := byKind[RateCollapse].Factor; got != minRateFactor {
		// 1 - 2*(1-0.25) = -0.5, floored at the trickle minimum.
		t.Errorf("Scale(2) ratecollapse factor = %v, want floor %v", got, minRateFactor)
	}
	if got := byKind[DelaySpike].Delay; got != 400*time.Millisecond {
		t.Errorf("Scale(2) delayspike delay = %v, want 400ms", got)
	}
	if got := byKind[Storm].Count; got != 8 {
		t.Errorf("Scale(2) storm count = %d, want 8", got)
	}

	// A gentle severity relaxes the rate collapse toward factor 1 and can
	// drop it entirely when it reaches 1.
	half := s.Scale(0.5)
	for _, e := range half.Episodes {
		if e.Kind == RateCollapse {
			if want := 1 - 0.5*(1-0.25); e.Factor != want {
				t.Errorf("Scale(0.5) ratecollapse factor = %v, want %v", e.Factor, want)
			}
		}
	}
	// Huge severities clamp storm counts to the cap, over all storms,
	// instead of dropping the episodes; NaN severity is empty.
	storms := mustParse(t, "storm@20s+40s n=4 o=6s; storm@70s+10s n=4 o=6s").Scale(1e12)
	if err := storms.Validate(); err != nil {
		t.Errorf("Scale(1e12) produced an invalid schedule: %v", err)
	}
	if _, n := storms.Counts(); n != maxStormOutages || storms.Episodes[0].Count != maxStormOutages {
		t.Errorf("Scale(1e12) storm outages = %d (first episode %d), want the cap %d",
			n, storms.Episodes[0].Count, maxStormOutages)
	}
	if !s.Scale(math.NaN()).Empty() {
		t.Error("Scale(NaN) should be empty")
	}

	// Severity small enough to round the storm count to zero drops the storm.
	tiny := mustParse(t, "storm@20s+40s n=1 o=6s").Scale(0.2)
	if !tiny.Empty() {
		t.Errorf("storm scaled to zero count should be dropped, got %v", tiny)
	}
}

func TestQueryFunctions(t *testing.T) {
	s := mustParse(t, "blackout@10s+2s; ackburst@20s+2s p=0.7; ratecollapse@30s+2s x0.5; ratecollapse@31s+2s x0.5; delayspike@40s+2s d=100ms; delayspike@41s+2s d=50ms")

	// Blackout kills both directions, at either transit epoch.
	if got := s.DataLossProb(11*time.Second, 11*time.Second); got != 1 {
		t.Errorf("DataLossProb inside blackout = %v, want 1", got)
	}
	if got := s.DataLossProb(9*time.Second, 11*time.Second); got != 1 {
		t.Errorf("DataLossProb arriving into blackout = %v, want 1", got)
	}
	if got := s.DataLossProb(5*time.Second, 6*time.Second); got != 0 {
		t.Errorf("DataLossProb outside = %v, want 0", got)
	}
	// Episode windows are half-open: [Start, Start+Dur).
	if got := s.DataLossProb(12*time.Second, 12*time.Second); got != 0 {
		t.Errorf("DataLossProb at blackout end = %v, want 0 (half-open window)", got)
	}

	// AckBurst applies only to the ACK direction.
	if got := s.DataLossProb(21*time.Second, 21*time.Second); got != 0 {
		t.Errorf("DataLossProb during ackburst = %v, want 0", got)
	}
	if got := s.AckLossProb(21*time.Second, 21*time.Second); got != 0.7 {
		t.Errorf("AckLossProb during ackburst = %v, want 0.7", got)
	}
	if got := s.AckLossProb(11*time.Second, 11*time.Second); got != 1 {
		t.Errorf("AckLossProb during blackout = %v, want 1", got)
	}

	// Overlapping rate collapses multiply; disjoint times are unaffected.
	if got := s.RateScale(31500 * time.Millisecond); got != 0.25 {
		t.Errorf("RateScale in overlap = %v, want 0.25", got)
	}
	if got := s.RateScale(30500 * time.Millisecond); got != 0.5 {
		t.Errorf("RateScale in single episode = %v, want 0.5", got)
	}
	if got := s.RateScale(5 * time.Second); got != 1 {
		t.Errorf("RateScale outside = %v, want 1", got)
	}

	// Overlapping delay spikes sum.
	if got := s.ExtraDelay(41500 * time.Millisecond); got != 150*time.Millisecond {
		t.Errorf("ExtraDelay in overlap = %v, want 150ms", got)
	}
	if got := s.ExtraDelay(5 * time.Second); got != 0 {
		t.Errorf("ExtraDelay outside = %v, want 0", got)
	}
}

func TestStormOutagesDeterministic(t *testing.T) {
	s := mustParse(t, "storm@20s+60s n=5 o=6s")
	a := s.StormOutages(42)
	b := s.StormOutages(42)
	if len(a) != 5 {
		t.Fatalf("got %d outages, want 5", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed produced different outages: %v vs %v", a, b)
		}
		if a[i].Start < 20*time.Second || a[i].Start >= 80*time.Second {
			t.Errorf("outage %d starts at %v, outside the storm window", i, a[i].Start)
		}
		if a[i].End-a[i].Start != 6*time.Second {
			t.Errorf("outage %d length = %v, want 6s", i, a[i].End-a[i].Start)
		}
	}
	c := s.StormOutages(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical outage placement")
	}
	var nilSched *Schedule
	if nilSched.StormOutages(1) != nil {
		t.Error("nil schedule should produce no outages")
	}
}

// countingLoss records how many times Drop was consulted.
type countingLoss struct {
	calls int
	drop  bool
}

func (c *countingLoss) Drop(_, _ time.Duration) bool { c.calls++; return c.drop }

func TestWrapLoss(t *testing.T) {
	s := mustParse(t, "blackout@10s+2s; ackburst@20s+2s p=1")
	inner := &countingLoss{}
	rng := sim.NewRand(1, sim.StreamFaultData)
	wrapped := s.WrapDataLossCounted(inner, rng, nil)

	// Outside every episode the inner model decides.
	if wrapped.Drop(5*time.Second, 5*time.Second) {
		t.Error("drop outside episodes with passing inner model")
	}
	// Inside a blackout the packet is lost — but the inner model must still
	// have been consulted so its burst state advances identically.
	if !wrapped.Drop(11*time.Second, 11*time.Second) {
		t.Error("no drop inside blackout")
	}
	if inner.calls != 2 {
		t.Errorf("inner model consulted %d times, want 2 (once per packet)", inner.calls)
	}

	// Ack direction sees the p=1 burst; data direction does not.
	ackWrapped := s.WrapAckLossCounted(&countingLoss{}, sim.NewRand(1, sim.StreamFaultAck), nil)
	if !ackWrapped.Drop(21*time.Second, 21*time.Second) {
		t.Error("no ACK drop inside p=1 ackburst")
	}
	if wrapped.Drop(21*time.Second, 21*time.Second) {
		t.Error("data drop inside ackburst")
	}

	// Empty schedules wrap to the inner model itself: zero overhead, and
	// byte-identical baseline behaviour.
	var empty *Schedule
	if got := empty.WrapDataLossCounted(inner, rng, nil); got != netem.LossModel(inner) {
		t.Error("empty schedule should return the inner loss model unchanged")
	}
	if got := empty.WrapAckLossCounted(inner, rng, nil); got != netem.LossModel(inner) {
		t.Error("empty schedule should return the inner ACK loss model unchanged")
	}
}

func TestWrapDelay(t *testing.T) {
	s := mustParse(t, "delayspike@10s+2s d=100ms")
	inner := netem.FixedDelay(20 * time.Millisecond)
	wrapped := s.WrapDelay(inner)
	if got := wrapped.Sample(11 * time.Second); got != 120*time.Millisecond {
		t.Errorf("Sample inside spike = %v, want 120ms", got)
	}
	if got := wrapped.Sample(5 * time.Second); got != 20*time.Millisecond {
		t.Errorf("Sample outside spike = %v, want 20ms", got)
	}
	var empty *Schedule
	if got := empty.WrapDelay(inner); got != netem.DelayModel(inner) {
		t.Error("empty schedule should return the inner delay model unchanged")
	}
}

func TestStressSchedule(t *testing.T) {
	s := Stress(120 * time.Second)
	if err := s.Validate(); err != nil {
		t.Fatalf("Stress schedule invalid: %v", err)
	}
	kinds := map[Kind]bool{}
	for _, e := range s.Episodes {
		kinds[e.Kind] = true
		if e.End() > 120*time.Second {
			t.Errorf("%s episode ends at %v, past the flow", e.Kind, e.End())
		}
	}
	for _, k := range []Kind{Blackout, AckBurst, RateCollapse, DelaySpike, Storm} {
		if !kinds[k] {
			t.Errorf("Stress schedule missing a %s episode", k)
		}
	}
	// Round-trips through the DSL.
	s2 := mustParse(t, s.String())
	if s2.String() != s.String() {
		t.Errorf("Stress schedule does not round-trip: %q vs %q", s.String(), s2.String())
	}
	if !Stress(0).Empty() {
		t.Error("Stress(0) should be empty")
	}
}

func TestKindString(t *testing.T) {
	if got := Kind(99).String(); !strings.Contains(got, "99") {
		t.Errorf("unknown kind renders %q", got)
	}
}

// FuzzFaultSchedule feeds arbitrary specs to the DSL parser, a trust
// boundary (HTTP flow jobs carry a faults string). Whatever Parse accepts
// must validate episode by episode, round-trip through String to an equal
// schedule, and inject at most maxStormOutages storm outages.
func FuzzFaultSchedule(f *testing.F) {
	for _, seed := range []string{
		"blackout@30s+2s; ackburst@50s+1s p=0.85; ratecollapse@60s+5s x0.2; delayspike@80s+2s d=400ms; storm@20s+80s n=4 o=6s",
		"storm@0s+1s n=10000",
		"",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		if len(spec) > 512 {
			t.Skip("inputs over 512 bytes spend the fuzz time in the minimizer")
		}
		s, err := Parse(spec)
		if err != nil {
			return
		}
		for _, e := range s.Episodes {
			if err := e.Validate(); err != nil {
				t.Fatalf("Parse(%q) accepted an invalid episode: %v", spec, err)
			}
		}
		again, err := Parse(s.String())
		if err != nil {
			t.Fatalf("Parse(%q).String() = %q does not parse: %v", spec, s.String(), err)
		}
		if len(again.Episodes) != len(s.Episodes) {
			t.Fatalf("round trip of %q changed the episode count: %v -> %v", spec, s, again)
		}
		for i := range s.Episodes {
			if again.Episodes[i] != s.Episodes[i] {
				t.Fatalf("round trip of %q changed episode %d: %+v -> %+v", spec, i, s.Episodes[i], again.Episodes[i])
			}
		}
		if _, storms := s.Counts(); storms > maxStormOutages {
			t.Fatalf("Parse(%q) accepted %d storm outages, over the cap %d", spec, storms, maxStormOutages)
		}
	})
}
