package netem

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/sim"
)

// modelCall is one call a Link made into its delay or loss model.
type modelCall struct {
	sample  bool          // DelayModel.Sample; otherwise LossModel.Drop
	at      time.Duration // Sample's now, or Drop's sent epoch
	delay   time.Duration // Sample's result
	arrival time.Duration // Drop's arrival epoch
	drop    bool          // Drop's verdict
}

// countingModels wraps a delay and a loss model and logs every call the
// link makes into either, so a test can check which draws one Send made.
type countingModels struct {
	delay DelayModel
	loss  LossModel
	calls []modelCall
}

// Sample implements DelayModel.
func (m *countingModels) Sample(now time.Duration) time.Duration {
	d := m.delay.Sample(now)
	m.calls = append(m.calls, modelCall{sample: true, at: now, delay: d})
	return d
}

// Drop implements LossModel.
func (m *countingModels) Drop(sent, arrival time.Duration) bool {
	drop := m.loss.Drop(sent, arrival)
	m.calls = append(m.calls, modelCall{at: sent, arrival: arrival, drop: drop})
	return drop
}

// checkLinkSchedule offers runs of same-instant packets (counts[i] packets
// at (i+1)*10ms) to a fresh link and checks, after every Send and every
// delivery, properties any correct link must have:
//   - Offered equals delivered plus channel drops plus queue drops plus the
//     packets still in flight, and each counter matches what the caller saw;
//   - delivery times never decrease, and no packet arrives before the
//     arrival epoch its loss draw was made for;
//   - a rate-less link never queue-drops;
//   - a queue-dropped packet calls neither model; any other packet calls
//     Sample(now) once, then Drop(now, arrival) once with arrival at least
//     now plus the sampled delay, and Drop's verdict is the channel drop.
func checkLinkSchedule(t *testing.T, seed int64, rate float64, maxQueue int, jitter time.Duration,
	lossP float64, counts []int) {
	t.Helper()
	s := sim.New()
	models := &countingModels{
		delay: NewUniformDelay(5*time.Millisecond, jitter, rand.New(rand.NewSource(seed))),
		loss: NewTransitLossFunc(func(sent, arrival time.Duration) float64 {
			// A p == 0 stretch keeps the no-draw path in the mix.
			if sent%(20*time.Millisecond) < 4*time.Millisecond {
				return 0
			}
			return lossP
		}, rand.New(rand.NewSource(seed^0x5deece66d))),
	}
	l := NewLink(s, LinkConfig{
		Rate:     rate,
		MaxQueue: maxQueue,
		// Periodic rate collapses, so the effective rate varies between runs.
		RateScale: func(now time.Duration) float64 {
			if now%(50*time.Millisecond) < 10*time.Millisecond {
				return 0.1
			}
			return 1
		},
		Delay: models,
		Loss:  models,
	})

	var sent, accepted, fired, chDrops, qDrops int
	var lastFire time.Duration
	var arrivals []time.Duration // per accepted packet, the epoch Drop saw
	check := func(where string) {
		st := l.Stats()
		inFlight := accepted - fired
		if st.Offered != sent || st.Delivered != fired || st.ChannelDrops != chDrops || st.QueueDrops != qDrops {
			t.Fatalf("%s: stats %+v, caller saw offered %d delivered %d channel %d queue %d",
				where, st, sent, fired, chDrops, qDrops)
		}
		if st.Offered != st.Delivered+st.ChannelDrops+st.QueueDrops+inFlight {
			t.Fatalf("%s: offered %d != delivered %d + channel %d + queue %d + in flight %d",
				where, st.Offered, st.Delivered, st.ChannelDrops, st.QueueDrops, inFlight)
		}
	}

	at := time.Duration(0)
	for _, n := range counts {
		at += 10 * time.Millisecond
		n := n
		s.At(at, func() {
			now := s.Now()
			for i := 0; i < n; i++ {
				idx := len(arrivals)
				h := HandlerFunc(func() {
					fireAt := s.Now()
					if fireAt < lastFire {
						t.Fatalf("delivery at %v after one at %v", fireAt, lastFire)
					}
					if fireAt < arrivals[idx] {
						t.Fatalf("packet delivered at %v before its arrival epoch %v", fireAt, arrivals[idx])
					}
					lastFire = fireAt
					fired++
					check("fire")
				})
				models.calls = models.calls[:0]
				ok, kind := l.Send(1400, h)
				sent++
				calls := models.calls
				if !ok && kind == DropQueue {
					qDrops++
					if rate == 0 {
						t.Fatal("rate-less link queue-dropped a packet")
					}
					if len(calls) != 0 {
						t.Fatalf("queue-dropped packet made model calls %+v", calls)
					}
					check("send")
					continue
				}
				if len(calls) != 2 || !calls[0].sample || calls[1].sample {
					t.Fatalf("surviving packet made model calls %+v, want Sample then Drop", calls)
				}
				if calls[0].at != now || calls[1].at != now {
					t.Fatalf("model calls %+v not at send time %v", calls, now)
				}
				if calls[1].arrival < now+calls[0].delay {
					t.Fatalf("arrival %v before now %v + sampled delay %v", calls[1].arrival, now, calls[0].delay)
				}
				if calls[1].drop != !ok {
					t.Fatalf("Drop verdict %v but Send returned ok=%v", calls[1].drop, ok)
				}
				switch {
				case ok:
					accepted++
					arrivals = append(arrivals, calls[1].arrival)
				case kind == DropChannel:
					chDrops++
				default:
					t.Fatalf("drop with unknown kind %v", kind)
				}
				check("send")
			}
		})
	}
	s.Run()
	if fired != accepted {
		t.Fatalf("%d packets accepted, %d delivered after the run", accepted, fired)
	}
}

// TestLinkSendZeroAlloc gates the per-packet path at 0 allocs/op once the
// lane's event pool is warm.
func TestLinkSendZeroAlloc(t *testing.T) {
	s := sim.New()
	l := NewLink(s, LinkConfig{
		Rate:     100e6,
		MaxQueue: 64,
		Delay:    NewUniformDelay(time.Millisecond, time.Millisecond, rand.New(rand.NewSource(1))),
		Loss:     NewBernoulli(0.05, rand.New(rand.NewSource(2))),
	})
	h := HandlerFunc(func() {})
	const n = 16
	fill := func() {
		for i := 0; i < n; i++ {
			l.Send(1400, h)
		}
		s.Run()
	}
	fill() // warm the event pool
	if allocs := testing.AllocsPerRun(100, fill); allocs != 0 {
		t.Fatalf("Link.Send allocates %v per %d-packet run, want 0", allocs, n)
	}
}

// FuzzLinkSend runs fuzzed link shapes (rate, queue limit, jitter, loss
// probability) and schedules of same-instant packet runs through Link.Send
// and checks the properties of checkLinkSchedule. Run in CI's fuzz smoke
// step.
func FuzzLinkSend(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0), uint16(0), uint16(300), []byte{1, 4, 28})
	f.Add(int64(9), uint8(50), uint8(8), uint16(3000), uint16(900), []byte{28, 0, 2, 28, 16})
	f.Add(int64(-3), uint8(255), uint8(1), uint16(1), uint16(0), []byte{7, 7, 7, 7})
	// Queue pressure, jitter and loss together, at 50 and 2 Mbps.
	f.Add(int64(7), uint8(125), uint8(8), uint16(3000), uint16(300), []byte{1, 4, 28, 2, 16, 0, 9, 28, 28, 3})
	f.Add(int64(7), uint8(5), uint8(4), uint16(3000), uint16(300), []byte{1, 4, 28, 2, 16, 0, 9, 28, 28, 3})

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
		checkLinkSchedule(t, seed, rate, int(maxQueue), jitter, lossP, counts)
	})
}
