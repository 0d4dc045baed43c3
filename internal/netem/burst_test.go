package netem

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/sim"
)

// burstRun drives one link through a schedule of bursts and records every
// externally observable effect: per-packet verdicts, delivery times in fire
// order, final stats, and the post-run state of the RNGs (witnessed by
// draining a few extra draws).
type burstRun struct {
	verdicts   []DropKind // per offered packet; 0 = accepted
	deliveries []time.Duration
	stats      LinkStats
	rngTail    [8]int64
}

// scalarBurst is the per-packet sampler, the test oracle for
// FuzzBurstSampling: it resolves each packet's queue admission, delay draw
// and loss draw when that packet is sent, where prime samples them all up
// front.
type scalarBurst struct {
	l      *Link
	now    time.Duration
	size   int
	txTime time.Duration // resolved on first send; 0 while unresolved or rate-unlimited
}

func (b *scalarBurst) send(deliver Handler) (bool, DropKind) {
	l := b.l
	now := b.now
	if l.simulator.Now() != now {
		panic(fmt.Sprintf("netem: Burst begun at %v used at %v", now, l.simulator.Now()))
	}
	l.stats.Offered++

	departure := now
	if l.cfg.Rate > 0 {
		txTime := b.txTime
		if txTime == 0 {
			// First packet of the burst: resolve the effective line rate at
			// this instant. RateScale is a pure function of virtual time, so
			// one evaluation serves the whole burst.
			rate := l.cfg.Rate
			if l.cfg.RateScale != nil {
				f := l.cfg.RateScale(now)
				if f < minRateScale {
					f = minRateScale
				}
				rate *= f
			}
			txTime = time.Duration(float64(b.size*8) / rate * float64(time.Second))
			if txTime <= 0 {
				txTime = time.Nanosecond
			}
			b.txTime = txTime
		}
		start := now
		if l.nextFree > start {
			start = l.nextFree
		}
		if l.cfg.MaxQueue > 0 {
			// backlog counts packets ahead of this one (including the one in
			// service); only the waiting ones occupy queue slots.
			backlog := int((start - now) / txTime)
			if backlog > l.stats.PeakBacklog {
				l.stats.PeakBacklog = backlog
			}
			if backlog > l.cfg.MaxQueue {
				l.stats.QueueDrops++
				return false, DropQueue
			}
		}
		departure = start + txTime
		l.nextFree = departure
	}

	// The arrival epoch (before FIFO clamping) is computed first so the loss
	// model can expose the packet to the channel conditions of both transit
	// ends; the model is consulted once per packet so burst-state evolution
	// stays per-packet.
	arrival := departure + l.cfg.Delay.Sample(now)
	if l.cfg.Loss.Drop(now, arrival) {
		l.stats.ChannelDrops++
		return false, DropChannel
	}
	if arrival < l.lastDelivery {
		arrival = l.lastDelivery // preserve FIFO delivery
	}
	l.lastDelivery = arrival
	l.inFlight.Push(arrival, deliver)
	return true, 0
}

// submitMode selects how runBurstSchedule offers each burst's packets.
type submitMode int

const (
	submitOracle  submitMode = iota // scalarBurst, the per-packet oracle
	submitPrimed                    // one BeginBurstN per burst
	submitPerSend                   // n one-packet Link.Send calls
)

// runBurstSchedule executes bursts of the given sizes back to back on a
// fresh link, advancing virtual time between bursts, submitting each burst
// as mode selects.
func runBurstSchedule(seed int64, rate float64, maxQueue int, jitter time.Duration,
	lossP float64, counts []int, mode submitMode) burstRun {

	s := sim.New()
	delayRng := rand.New(rand.NewSource(seed))
	lossRng := rand.New(rand.NewSource(seed ^ 0x5deece66d))
	cfg := LinkConfig{
		Rate:     rate,
		MaxQueue: maxQueue,
		Delay:    NewUniformDelay(5*time.Millisecond, jitter, delayRng),
		Loss: NewTransitLossFunc(func(sent, arrival time.Duration) float64 {
			// Time-dependent probability with a p == 0 stretch, so the
			// "no draw when p == 0" path is exercised by both
			// implementations.
			if sent%(20*time.Millisecond) < 4*time.Millisecond {
				return 0
			}
			return lossP
		}, lossRng),
	}
	l := NewLink(s, cfg)

	var run burstRun
	at := time.Duration(0)
	for _, n := range counts {
		at += 10 * time.Millisecond
		n := n
		s.At(at, func() {
			oracle := scalarBurst{l: l, now: s.Now(), size: 1400}
			var b Burst
			if mode == submitPrimed {
				b = l.BeginBurstN(1400, n)
			}
			for i := 0; i < n; i++ {
				h := HandlerFunc(func() {
					run.deliveries = append(run.deliveries, s.Now())
				})
				var ok bool
				var kind DropKind
				switch mode {
				case submitOracle:
					ok, kind = oracle.send(h)
				case submitPrimed:
					ok, kind = b.Send(h)
				case submitPerSend:
					ok, kind = l.Send(1400, h)
				}
				if ok {
					kind = 0
				}
				run.verdicts = append(run.verdicts, kind)
			}
		})
	}
	s.Run()
	run.stats = l.stats
	for i := range run.rngTail {
		run.rngTail[i] = delayRng.Int63() ^ lossRng.Int63()
	}
	return run
}

// diffBurstRuns fails unless two runs of one schedule are observably
// identical; the vector counters are exempt, since only BeginBurstN accrues
// them.
func diffBurstRuns(t *testing.T, oracle, got burstRun) {
	t.Helper()
	if len(oracle.verdicts) != len(got.verdicts) {
		t.Fatalf("verdict counts differ: oracle %d, got %d", len(oracle.verdicts), len(got.verdicts))
	}
	for i := range oracle.verdicts {
		if oracle.verdicts[i] != got.verdicts[i] {
			t.Fatalf("packet %d verdict: oracle %v, got %v", i, oracle.verdicts[i], got.verdicts[i])
		}
	}
	if len(oracle.deliveries) != len(got.deliveries) {
		t.Fatalf("delivery counts differ: oracle %d, got %d", len(oracle.deliveries), len(got.deliveries))
	}
	for i := range oracle.deliveries {
		if oracle.deliveries[i] != got.deliveries[i] {
			t.Fatalf("delivery %d at %v oracle vs %v got", i, oracle.deliveries[i], got.deliveries[i])
		}
	}
	ov, gv := oracle.stats, got.stats
	ov.VectorBursts, ov.VectorPackets = 0, 0
	gv.VectorBursts, gv.VectorPackets = 0, 0
	if ov != gv {
		t.Fatalf("stats differ: oracle %+v, got %+v", ov, gv)
	}
	if oracle.rngTail != got.rngTail {
		t.Fatalf("RNG state diverged: oracle tail %v, got tail %v", oracle.rngTail, got.rngTail)
	}
}

// TestBurstVectorizedMatchesScalar pins the headline contract on a fixed
// schedule mixing queue pressure, jitter, and loss: BeginBurstN and
// per-packet Link.Send both match the per-packet oracle, and only
// BeginBurstN moves the vector counters.
func TestBurstVectorizedMatchesScalar(t *testing.T) {
	counts := []int{1, 4, 28, 2, 16, 0, 9, 28, 28, 3}
	scalar := runBurstSchedule(7, 50e6, 8, 3*time.Millisecond, 0.3, counts, submitOracle)
	vector := runBurstSchedule(7, 50e6, 8, 3*time.Millisecond, 0.3, counts, submitPrimed)
	perSend := runBurstSchedule(7, 50e6, 8, 3*time.Millisecond, 0.3, counts, submitPerSend)
	diffBurstRuns(t, scalar, vector)
	diffBurstRuns(t, scalar, perSend)
	if vector.stats.VectorBursts == 0 || vector.stats.VectorPackets == 0 {
		t.Fatalf("vector counters did not move: %+v", vector.stats)
	}
	if perSend.stats.VectorBursts != 0 || perSend.stats.VectorPackets != 0 {
		t.Fatalf("Link.Send moved the vector counters: %+v", perSend.stats)
	}
}

// TestBurstUnderconsumedPanics pins the exactly-n contract: beginning a new
// burst with primed outcomes unconsumed must panic rather than silently
// desynchronize the RNG stream.
func TestBurstUnderconsumedPanics(t *testing.T) {
	s := sim.New()
	l := NewLink(s, LinkConfig{Delay: FixedDelay(time.Millisecond)})
	b := l.BeginBurstN(1000, 3)
	b.Send(HandlerFunc(func() {}))
	defer func() {
		if recover() == nil {
			t.Fatal("Link.Send after underconsumed vectorized burst did not panic")
		}
	}()
	l.Send(1000, HandlerFunc(func() {}))
}

// TestBurstOverconsumedPanics: the (n+1)th Send on a vectorized burst must
// panic.
func TestBurstOverconsumedPanics(t *testing.T) {
	s := sim.New()
	l := NewLink(s, LinkConfig{Delay: FixedDelay(time.Millisecond)})
	b := l.BeginBurstN(1000, 1)
	b.Send(HandlerFunc(func() {}))
	defer func() {
		if recover() == nil {
			t.Fatal("overconsuming a vectorized burst did not panic")
		}
	}()
	b.Send(HandlerFunc(func() {}))
}

// TestBurstPrimedZeroAlloc gates the vectorized hot path at 0 allocs/op
// once the scratch buffer and event pool are warm.
func TestBurstPrimedZeroAlloc(t *testing.T) {
	s := sim.New()
	l := NewLink(s, LinkConfig{
		Rate:     100e6,
		MaxQueue: 64,
		Delay:    NewUniformDelay(time.Millisecond, time.Millisecond, rand.New(rand.NewSource(1))),
		Loss:     NewBernoulli(0.05, rand.New(rand.NewSource(2))),
	})
	h := HandlerFunc(func() {})
	const n = 16
	// Warm the scratch buffer and the event pool.
	b := l.BeginBurstN(1400, n)
	for i := 0; i < n; i++ {
		b.Send(h)
	}
	s.Run()
	allocs := testing.AllocsPerRun(100, func() {
		b := l.BeginBurstN(1400, n)
		for i := 0; i < n; i++ {
			b.Send(h)
		}
		s.Run()
	})
	if allocs != 0 {
		t.Fatalf("vectorized burst path allocates %v/op, want 0", allocs)
	}
}

// FuzzBurstSampling is the differential target for burst priming: a fuzzed
// link shape and burst schedule is run through the test-only per-packet
// oracle, through BeginBurstN, and through one-packet Link.Send calls, and
// every observable — per-packet verdicts, delivery times, final stats, and
// the RNG stream positions afterwards — must match exactly. Run in CI's
// fuzz smoke step.
func FuzzBurstSampling(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0), uint16(0), uint16(300), []byte{1, 4, 28})
	f.Add(int64(9), uint8(50), uint8(8), uint16(3000), uint16(900), []byte{28, 0, 2, 28, 16})
	f.Add(int64(-3), uint8(255), uint8(1), uint16(1), uint16(0), []byte{7, 7, 7, 7})

	f.Fuzz(func(t *testing.T, seed int64, rateSel, maxQueue uint8, jitterUS uint16, lossPM uint16, schedule []byte) {
		if len(schedule) == 0 || len(schedule) > 64 {
			t.Skip()
		}
		counts := make([]int, len(schedule))
		for i, c := range schedule {
			counts[i] = int(c % 33)
		}
		var rate float64
		if rateSel > 0 {
			// 0 keeps the infinitely fast path in the mix; otherwise rates
			// from ~0.4 Mbps (heavy queueing) up to ~100 Mbps.
			rate = float64(rateSel) * 400e3
		}
		jitter := time.Duration(jitterUS) * time.Microsecond
		lossP := float64(lossPM%1001) / 1000
		scalar := runBurstSchedule(seed, rate, int(maxQueue), jitter, lossP, counts, submitOracle)
		vector := runBurstSchedule(seed, rate, int(maxQueue), jitter, lossP, counts, submitPrimed)
		perSend := runBurstSchedule(seed, rate, int(maxQueue), jitter, lossP, counts, submitPerSend)
		diffBurstRuns(t, scalar, vector)
		diffBurstRuns(t, scalar, perSend)
	})
}
