package sim

// Step executes the single earliest pending event, advancing the clock to
// its timestamp. It reports whether an event was executed (false means the
// queue is empty, or the run budget is exhausted — see Exhausted).
func (s *Simulator) Step() bool {
	t := s.refill()
	if t == nil {
		return false
	}
	if s.refuses(t.at) {
		return false
	}
	s.dueHead++
	s.fire(t)
	return true
}

// SetInvariantChecks toggles the kernel's self-check mode: after every
// executed event the clock and live-event counter are verified, and the
// whole wheel (slot placement, occupancy bitmaps, live accounting, due-batch
// ordering) is audited periodically. Violations panic — the mode exists to
// turn silent kernel corruption into an immediate, attributable failure
// during stress campaigns, not to be recovered from.
func (s *Simulator) SetInvariantChecks(on bool) { s.selfCheck = on }
