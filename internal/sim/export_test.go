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
