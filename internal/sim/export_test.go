package sim

import "fmt"

// Step executes the single earliest pending event, advancing the clock to
// its timestamp. It reports whether an event was executed (false means the
// queue is empty, or the run budget is exhausted — see Exhausted).
func (s *Simulator) Step() bool {
	at, ok := s.next()
	if !ok || s.refuses(at) {
		return false
	}
	s.fireNext()
	return true
}

// SetInvariantChecks toggles the kernel's self-check mode: after every
// executed event the whole queue is audited — heap order and indices, lane
// order, the keys of lane heads, and the live counter. Violations panic —
// the mode exists to turn silent kernel corruption into an immediate,
// attributable failure, not to be recovered from.
func (s *Simulator) SetInvariantChecks(on bool) {
	s.check = nil
	if on {
		s.check = s.checkInvariants
	}
}

// checkInvariants audits the queue against the clock and the live counter.
func (s *Simulator) checkInvariants() {
	live := 0
	for i, n := range s.heap {
		if n.t.index != i {
			panic(fmt.Sprintf("sim: invariant violation: heap entry %d carries index %d", i, n.t.index))
		}
		if i > 0 && n.before(s.heap[(i-1)/2]) {
			panic(fmt.Sprintf("sim: invariant violation: heap entry %d precedes its parent", i))
		}
		if n.at < s.now {
			panic(fmt.Sprintf("sim: invariant violation: queued event at %v predates clock %v", n.at, s.now))
		}
		l := n.t.lane
		if l == nil {
			if n.t.at != n.at {
				panic(fmt.Sprintf("sim: invariant violation: timer at %v queued under key %v", n.t.at, n.at))
			}
			live++
			continue
		}
		if l.n == 0 {
			panic("sim: invariant violation: empty lane queued")
		}
		prev := l.buf[l.first]
		if prev.at != n.at || prev.seq != n.seq {
			panic(fmt.Sprintf("sim: invariant violation: lane head (%v, %d) queued under key (%v, %d)", prev.at, prev.seq, n.at, n.seq))
		}
		for j := 1; j < l.n; j++ {
			e := l.buf[(l.first+j)&(len(l.buf)-1)]
			if e.at < prev.at || e.seq <= prev.seq {
				panic(fmt.Sprintf("sim: invariant violation: lane entry %d (%v, %d) after (%v, %d)", j, e.at, e.seq, prev.at, prev.seq))
			}
			prev = e
		}
		live += l.n
	}
	if live != s.live {
		panic(fmt.Sprintf("sim: invariant violation: live counter %d but %d live events queued", s.live, live))
	}
}
