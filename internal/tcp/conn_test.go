package tcp

import (
	"testing"
	"time"

	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/trace"
)

// testHarness bundles a simulator, a path with scriptable per-direction loss
// windows, a connection and its trace.
type testHarness struct {
	sim  *sim.Simulator
	conn *Conn
	ft   *trace.FlowTrace

	dataOutages  []window      // drop all data packets inside these windows
	ackOutages   []window      // drop all ACKs inside these windows
	ackLossRate  float64       // random per-ACK loss
	ackLossAfter time.Duration // random ACK loss only applies from this time
	dropDataNth  map[int]bool
	dataCount    int
}

type window struct{ from, to time.Duration }

func (h *testHarness) dataLossProb(now time.Duration) float64 {
	h.dataCount++
	if h.dropDataNth[h.dataCount] {
		return 1
	}
	for _, w := range h.dataOutages {
		if now >= w.from && now < w.to {
			return 1
		}
	}
	return 0
}

func (h *testHarness) ackLossProb(now time.Duration) float64 {
	for _, w := range h.ackOutages {
		if now >= w.from && now < w.to {
			return 1
		}
	}
	if now >= h.ackLossAfter {
		return h.ackLossRate
	}
	return 0
}

// newHarness builds a 30ms+30ms path (RTT 60ms) with infinite line rate and
// the harness's scriptable loss.
func newHarness(t *testing.T, cfg Config) *testHarness {
	t.Helper()
	h := &testHarness{sim: sim.New(), dropDataNth: map[int]bool{}}
	rng := sim.NewRand(1, sim.StreamDataLoss)
	fwd := netem.NewLink(h.sim, netem.LinkConfig{
		Delay: netem.FixedDelay(30 * time.Millisecond),
		Loss: netem.NewTransitLossFunc(func(sent, arrival time.Duration) float64 {
			return max(h.dataLossProb(sent), h.dataLossProb(arrival))
		}, rng),
	})
	// ACK loss applies at the send epoch only (the radio sits at the start
	// of an ACK's journey), matching the cellular channel's semantics.
	rev := netem.NewLink(h.sim, netem.LinkConfig{
		Delay: netem.FixedDelay(30 * time.Millisecond),
		Loss: netem.NewTransitLossFunc(func(sent, _ time.Duration) float64 {
			return h.ackLossProb(sent)
		}, rng),
	})
	h.ft = &trace.FlowTrace{Meta: trace.FlowMeta{ID: "test"}}
	conn, err := New(h.sim, netem.NewPath(fwd, rev), cfg, h.ft)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	h.conn = conn
	return h
}

func (h *testHarness) run(t *testing.T, d time.Duration) Stats {
	t.Helper()
	if err := h.conn.Start(d); err != nil {
		t.Fatalf("Start: %v", err)
	}
	h.sim.RunUntil(d)
	if err := h.ft.Validate(); err != nil {
		t.Fatalf("trace invalid after run: %v", err)
	}
	return h.conn.Stats()
}

func countEvents(ft *trace.FlowTrace, et trace.EventType) int {
	n := 0
	for _, ev := range ft.Events {
		if ev.Type == et {
			n++
		}
	}
	return n
}

func TestBulkTransferCleanPath(t *testing.T) {
	h := newHarness(t, DefaultConfig())
	st := h.run(t, 10*time.Second)
	if st.Timeouts != 0 || st.Retransmissions != 0 || st.FastRetransmits != 0 {
		t.Errorf("clean path saw recovery events: %+v", st)
	}
	if st.UniqueDelivered == 0 {
		t.Fatal("nothing delivered")
	}
	// Steady state: window-limited at Wm=28 packets per 60ms RTT ~ 466 pps.
	pps := st.ThroughputPps()
	if pps < 390 || pps > 480 {
		t.Errorf("throughput = %.0f pps, want ~466 (window-limited)", pps)
	}
	if st.DupDelivered != 0 {
		t.Errorf("clean path delivered %d duplicates", st.DupDelivered)
	}
}

func TestWindowNeverExceedsLimit(t *testing.T) {
	cfg := DefaultConfig()
	cfg.WindowLimit = 16
	h := newHarness(t, cfg)
	h.run(t, 5*time.Second)
	// Reconstruct outstanding data from the trace: sends minus cumulative acks.
	var sndUna, maxOut int64
	outstanding := func(nextSeq int64) int64 { return nextSeq - sndUna }
	var nextSeq int64
	for _, ev := range h.ft.Events {
		switch ev.Type {
		case trace.EvDataSend:
			if ev.TransmitNo == 1 {
				nextSeq = ev.Seq + 1
			}
			if o := outstanding(nextSeq); o > maxOut {
				maxOut = o
			}
		case trace.EvAckRecv:
			if ev.Ack > sndUna {
				sndUna = ev.Ack
			}
		}
	}
	if maxOut > 16 {
		t.Errorf("max outstanding = %d, want <= WindowLimit 16", maxOut)
	}
	if h.conn.Cwnd() > 16 {
		t.Errorf("cwnd = %v, want <= 16", h.conn.Cwnd())
	}
}

func TestSingleLossTriggersFastRetransmit(t *testing.T) {
	h := newHarness(t, DefaultConfig())
	h.dropDataNth[30] = true
	st := h.run(t, 10*time.Second)
	if st.FastRetransmits < 1 {
		t.Errorf("FastRetransmits = %d, want >= 1", st.FastRetransmits)
	}
	if st.Timeouts != 0 {
		t.Errorf("Timeouts = %d, want 0 (fast retransmit should recover)", st.Timeouts)
	}
	if got := countEvents(h.ft, trace.EvFastRetx); got < 1 {
		t.Errorf("trace has %d fast-retx events, want >= 1", got)
	}
	if st.Retransmissions < 1 {
		t.Error("no retransmission recorded")
	}
}

func TestDataOutageTriggersTimeoutAndRecovery(t *testing.T) {
	h := newHarness(t, DefaultConfig())
	// Total blackout of the data direction for 2 s starting at 2 s.
	h.dataOutages = []window{{from: 2 * time.Second, to: 4 * time.Second}}
	st := h.run(t, 10*time.Second)
	if st.Timeouts < 1 {
		t.Fatalf("Timeouts = %d, want >= 1", st.Timeouts)
	}
	if got := countEvents(h.ft, trace.EvRecovered); got < 1 {
		t.Errorf("trace has %d recovered events, want >= 1", got)
	}
	// Delivery must resume after the outage: expect deliveries in the last
	// 3 seconds of the run.
	var lastRecv time.Duration
	for _, ev := range h.ft.Events {
		if ev.Type == trace.EvDataRecv {
			lastRecv = ev.At
		}
	}
	if lastRecv < 7*time.Second {
		t.Errorf("last delivery at %v, want after outage recovery", lastRecv)
	}
}

func TestAckBurstLossCausesSpuriousTimeout(t *testing.T) {
	h := newHarness(t, DefaultConfig())
	// Block only the ACK direction for 3 s: data keeps arriving, all ACKs
	// die, the sender must eventually time out spuriously.
	h.ackOutages = []window{{from: 2 * time.Second, to: 5 * time.Second}}
	st := h.run(t, 10*time.Second)
	if st.Timeouts < 1 {
		t.Fatalf("Timeouts = %d, want >= 1 from pure ACK loss", st.Timeouts)
	}
	if st.DupDelivered < 1 {
		t.Errorf("DupDelivered = %d, want >= 1 (spurious retransmission reaches receiver twice)", st.DupDelivered)
	}
	// The trace must show a segment received at txNo 1 AND at txNo >= 2 —
	// the paper's criterion for classifying a timeout as spurious.
	first := map[int64]bool{}
	spurious := false
	for _, ev := range h.ft.Events {
		if ev.Type != trace.EvDataRecv {
			continue
		}
		if ev.TransmitNo == 1 {
			first[ev.Seq] = true
		} else if first[ev.Seq] {
			spurious = true
		}
	}
	if !spurious {
		t.Error("no segment was received both as original and retransmission")
	}
}

func TestExponentialBackoffDoubles(t *testing.T) {
	cfg := DefaultConfig()
	h := newHarness(t, cfg)
	// Blackout both directions long enough for several consecutive RTOs.
	h.dataOutages = []window{{from: time.Second, to: 25 * time.Second}}
	h.ackOutages = h.dataOutages
	h.run(t, 30*time.Second)
	var timeouts []trace.Event
	for _, ev := range h.ft.Events {
		if ev.Type == trace.EvTimeout {
			timeouts = append(timeouts, ev)
		}
	}
	if len(timeouts) < 4 {
		t.Fatalf("observed %d timeouts, want >= 4 for backoff check", len(timeouts))
	}
	// Backoff exponent recorded on successive timeouts must increase by 1.
	for i := 1; i < len(timeouts); i++ {
		if timeouts[i].Backoff != timeouts[i-1].Backoff+1 && timeouts[i-1].Backoff < cfg.MaxBackoff {
			t.Errorf("timeout %d backoff = %d after %d", i, timeouts[i].Backoff, timeouts[i-1].Backoff)
		}
	}
	// Inter-timeout gaps should roughly double while below the cap.
	for i := 2; i < len(timeouts) && timeouts[i-1].Backoff < cfg.MaxBackoff; i++ {
		g1 := timeouts[i-1].At - timeouts[i-2].At
		g2 := timeouts[i].At - timeouts[i-1].At
		ratio := float64(g2) / float64(g1)
		if ratio < 1.8 || ratio > 2.2 {
			t.Errorf("backoff gap ratio %d = %.2f, want ~2", i, ratio)
		}
	}
}

func TestBackoffCapsAt64T(t *testing.T) {
	cfg := DefaultConfig()
	h := newHarness(t, cfg)
	h.dataOutages = []window{{from: time.Second, to: 10 * time.Minute}}
	h.ackOutages = h.dataOutages
	h.run(t, 10*time.Minute)
	maxBackoff := 0
	for _, ev := range h.ft.Events {
		if ev.Type == trace.EvTimeout && ev.Backoff > maxBackoff {
			maxBackoff = ev.Backoff
		}
	}
	if maxBackoff != cfg.MaxBackoff {
		t.Errorf("max observed backoff = %d, want cap %d", maxBackoff, cfg.MaxBackoff)
	}
}

func TestDelayedAckReducesAckCount(t *testing.T) {
	cfgB1 := DefaultConfig()
	cfgB1.DelayedAckB = 1
	h1 := newHarness(t, cfgB1)
	st1 := h1.run(t, 5*time.Second)

	cfgB2 := DefaultConfig()
	cfgB2.DelayedAckB = 2
	h2 := newHarness(t, cfgB2)
	st2 := h2.run(t, 5*time.Second)

	if st1.AcksSent != st1.UniqueDelivered {
		t.Errorf("b=1: AcksSent = %d, want one per delivered segment (%d)", st1.AcksSent, st1.UniqueDelivered)
	}
	ratio := float64(st2.AcksSent) / float64(st2.UniqueDelivered)
	if ratio < 0.45 || ratio > 0.62 {
		t.Errorf("b=2: ACK ratio = %.2f, want ~0.5", ratio)
	}
}

func TestDelAckTimerFiresAtLowRate(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DelayedAckB = 8
	cfg.InitialCwnd = 1
	cfg.InitialSSThresh = 2
	h := newHarness(t, cfg)
	st := h.run(t, 3*time.Second)
	// With one packet per RTT at the start, the receiver can never fill an
	// 8-segment delayed-ACK window; only the 200 ms timer keeps the flow
	// alive.
	if st.UniqueDelivered < 5 {
		t.Errorf("delivered %d segments, want flow to make progress via delack timer", st.UniqueDelivered)
	}
	if st.Timeouts != 0 {
		t.Errorf("Timeouts = %d, want 0 (delack timer should prevent RTO)", st.Timeouts)
	}
}

func TestRecoveredEventAfterTimeout(t *testing.T) {
	h := newHarness(t, DefaultConfig())
	h.dataOutages = []window{{from: time.Second, to: 2500 * time.Millisecond}}
	h.run(t, 8*time.Second)
	var sawTimeout bool
	var recoveredAfterTimeout bool
	for _, ev := range h.ft.Events {
		switch ev.Type {
		case trace.EvTimeout:
			sawTimeout = true
		case trace.EvRecovered:
			if sawTimeout {
				recoveredAfterTimeout = true
			}
		}
	}
	if !sawTimeout {
		t.Fatal("no timeout observed")
	}
	if !recoveredAfterTimeout {
		t.Error("no recovered event after the timeout")
	}
	if h.conn.InTimeoutRecovery() {
		t.Error("connection still in timeout recovery at end of run")
	}
}

func TestCumulativeAckMonotone(t *testing.T) {
	h := newHarness(t, DefaultConfig())
	h.dataOutages = []window{{from: time.Second, to: 2 * time.Second}, {from: 4 * time.Second, to: 5 * time.Second}}
	h.ackOutages = []window{{from: 6 * time.Second, to: 7 * time.Second}}
	h.run(t, 10*time.Second)
	var lastSent int64 = -1
	for _, ev := range h.ft.Events {
		if ev.Type == trace.EvAckSend {
			if ev.Ack < lastSent {
				t.Fatalf("receiver ACK went backwards: %d after %d", ev.Ack, lastSent)
			}
			lastSent = ev.Ack
		}
	}
}

func TestStatsInvariants(t *testing.T) {
	h := newHarness(t, DefaultConfig())
	h.dataOutages = []window{{from: 2 * time.Second, to: 3 * time.Second}}
	h.ackOutages = []window{{from: 5 * time.Second, to: 5500 * time.Millisecond}}
	st := h.run(t, 10*time.Second)
	if st.UniqueDelivered > st.DataSent {
		t.Errorf("delivered %d > sent %d", st.UniqueDelivered, st.DataSent)
	}
	if st.Retransmissions > st.DataSent {
		t.Error("retransmissions exceed total sends")
	}
	if st.AcksReceived > st.AcksSent {
		t.Errorf("acks received %d > sent %d", st.AcksReceived, st.AcksSent)
	}
	if st.AcksSent-st.AcksDropped < st.AcksReceived {
		t.Errorf("ack conservation violated: sent %d dropped %d received %d",
			st.AcksSent, st.AcksDropped, st.AcksReceived)
	}
	sends := countEvents(h.ft, trace.EvDataSend)
	if int64(sends) != st.DataSent {
		t.Errorf("trace sends %d != stats %d", sends, st.DataSent)
	}
	recvs := countEvents(h.ft, trace.EvDataRecv)
	if int64(recvs) != st.UniqueDelivered+st.DupDelivered {
		t.Errorf("trace recvs %d != unique %d + dup %d", recvs, st.UniqueDelivered, st.DupDelivered)
	}
	if got := st.ThroughputPps(); got <= 0 {
		t.Errorf("throughput = %v, want positive", got)
	}
}

func TestDataConservation(t *testing.T) {
	h := newHarness(t, DefaultConfig())
	h.dataOutages = []window{{from: time.Second, to: 3 * time.Second}}
	st := h.run(t, 6*time.Second)
	recvs := countEvents(h.ft, trace.EvDataRecv)
	drops := countEvents(h.ft, trace.EvDataDrop)
	// Every send is either received, dropped, or still in flight at cutoff.
	diff := int(st.DataSent) - recvs - drops
	if diff < 0 || diff > 70 { // at most a window's worth in flight
		t.Errorf("send/recv/drop mismatch: sent %d recv %d drop %d", st.DataSent, recvs, drops)
	}
}

func TestConnLifecycleErrors(t *testing.T) {
	h := newHarness(t, DefaultConfig())
	if err := h.conn.Start(0); err == nil {
		t.Error("Start(0) accepted")
	}
	if err := h.conn.Start(time.Second); err != nil {
		t.Fatalf("Start: %v", err)
	}
	if err := h.conn.Start(time.Second); err == nil {
		t.Error("double Start accepted")
	}
	h.sim.RunUntil(time.Second)
}

func TestNewValidation(t *testing.T) {
	s := sim.New()
	link := netem.NewLink(s, netem.LinkConfig{Delay: netem.FixedDelay(0)})
	path := netem.NewPath(link, link)
	if _, err := New(nil, path, DefaultConfig(), nil); err == nil {
		t.Error("nil simulator accepted")
	}
	if _, err := New(s, nil, DefaultConfig(), nil); err == nil {
		t.Error("nil path accepted")
	}
	bad := DefaultConfig()
	bad.MSS = 0
	if _, err := New(s, path, bad, nil); err == nil {
		t.Error("invalid config accepted")
	}
	if _, err := New(s, path, DefaultConfig(), nil); err != nil {
		t.Errorf("nil recorder rejected: %v", err)
	}
}

func TestConfigValidateTable(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero MSS", func(c *Config) { c.MSS = 0 }},
		{"negative header", func(c *Config) { c.HeaderBytes = -1 }},
		{"cwnd < 1", func(c *Config) { c.InitialCwnd = 0.5 }},
		{"ssthresh < 2", func(c *Config) { c.InitialSSThresh = 1 }},
		{"b < 1", func(c *Config) { c.DelayedAckB = 0 }},
		{"delack timeout", func(c *Config) { c.DelayedAckB = 2; c.DelAckTimeout = 0 }},
		{"window < 2", func(c *Config) { c.WindowLimit = 1 }},
		{"rto bounds", func(c *Config) { c.MaxRTO = c.MinRTO - 1 }},
		{"backoff range", func(c *Config) { c.MaxBackoff = 17 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tt.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Error("invalid config accepted")
			}
		})
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
}

func TestSlowStartGrowth(t *testing.T) {
	cfg := DefaultConfig()
	cfg.InitialCwnd = 2
	cfg.InitialSSThresh = 1000 // never leave slow start
	cfg.WindowLimit = 2000
	h := newHarness(t, cfg)
	if err := h.conn.Start(time.Minute); err != nil {
		t.Fatalf("Start: %v", err)
	}
	// After k RTTs of clean slow start with b=2, cwnd grows ~1.5x per RTT.
	h.sim.RunUntil(600 * time.Millisecond) // ~10 RTTs
	if got := h.conn.Cwnd(); got < 50 {
		t.Errorf("cwnd after 10 RTTs of slow start = %v, want exponential growth (>= 50)", got)
	}
}

func TestCongestionAvoidanceLinearGrowth(t *testing.T) {
	cfg := DefaultConfig()
	cfg.InitialCwnd = 10
	cfg.InitialSSThresh = 10 // start in CA
	cfg.WindowLimit = 1000
	h := newHarness(t, cfg)
	if err := h.conn.Start(time.Minute); err != nil {
		t.Fatalf("Start: %v", err)
	}
	h.sim.RunUntil(60 * time.Millisecond) // 1 RTT
	c1 := h.conn.Cwnd()
	h.sim.RunUntil(1260 * time.Millisecond) // +20 RTTs
	c2 := h.conn.Cwnd()
	perRTT := (c2 - c1) / 20
	// With b=2 the window should grow by ~1/b = 0.5 per RTT.
	if perRTT < 0.3 || perRTT > 0.8 {
		t.Errorf("CA growth = %.2f packets/RTT, want ~0.5 (1/b)", perRTT)
	}
}

func TestSRTTTracksPathRTT(t *testing.T) {
	h := newHarness(t, DefaultConfig())
	h.run(t, 5*time.Second)
	srtt := h.conn.SRTT()
	if srtt < 55*time.Millisecond || srtt > 70*time.Millisecond {
		t.Errorf("SRTT = %v, want ~60ms path RTT", srtt)
	}
}

func TestHooks(t *testing.T) {
	h := newHarness(t, DefaultConfig())
	var retx []int64
	var acks []int64
	h.conn.SetRetransmitHook(func(seq int64) { retx = append(retx, seq) })
	h.conn.SetAckSendHook(func(ack int64) { acks = append(acks, ack) })
	h.dataOutages = []window{{from: time.Second, to: 3 * time.Second}}
	h.run(t, 6*time.Second)
	if len(retx) == 0 {
		t.Error("retransmit hook never fired despite timeouts")
	}
	if len(acks) == 0 {
		t.Error("ack hook never fired")
	}
}

func TestInjectAckAdvancesWindow(t *testing.T) {
	h := newHarness(t, DefaultConfig())
	// Block everything so the sender stalls with inflight data.
	h.dataOutages = []window{{from: 500 * time.Millisecond, to: time.Minute}}
	h.ackOutages = h.dataOutages
	if err := h.conn.Start(time.Minute); err != nil {
		t.Fatalf("Start: %v", err)
	}
	h.sim.RunUntil(5 * time.Second)
	st := h.conn.Stats()
	if st.Timeouts == 0 {
		t.Fatal("expected the sender to be stuck in timeouts")
	}
	before := h.conn.snd.sndUna
	h.conn.InjectAck(before + 5)
	if h.conn.snd.sndUna != before+5 {
		t.Errorf("sndUna = %d after InjectAck, want %d", h.conn.snd.sndUna, before+5)
	}
	// A stale inject must be ignored.
	h.conn.InjectAck(before)
	if h.conn.snd.sndUna != before+5 {
		t.Error("stale InjectAck moved the window")
	}
	h.sim.RunUntil(6 * time.Second)
}

func TestDeliverDataInjectsSegment(t *testing.T) {
	h := newHarness(t, DefaultConfig())
	if err := h.conn.Start(time.Minute); err != nil {
		t.Fatalf("Start: %v", err)
	}
	h.sim.RunUntil(100 * time.Millisecond)
	before := h.conn.rcv.rcvNxt
	h.conn.DeliverData(before, 2) // inject the next expected segment
	if h.conn.rcv.rcvNxt != before+1 {
		t.Errorf("rcvNxt = %d, want %d", h.conn.rcv.rcvNxt, before+1)
	}
	if h.conn.LastTransmitNo(before+1000) != 0 {
		t.Error("LastTransmitNo for unsent segment should be 0")
	}
}
