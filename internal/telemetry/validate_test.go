package telemetry

import (
	"math"
	"math/rand"
	"testing"
)

// TestFlowStateValidate accepts every state a simulated flow can produce
// and rejects each hostile shape: one that Hist.Merge would panic on, a
// negative count, or an accumulator no Add sequence could reach.
func TestFlowStateValidate(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		f := randomFlow(rng)
		f.TCP.CC("reno").CwndHist.Add(rng.Float64() * 200)
		s := f.State()
		if err := s.Validate(); err != nil {
			t.Fatalf("trial %d: honest state rejected: %v", trial, err)
		}
	}
	if s := NewFlow().State(); s.Validate() != nil {
		t.Fatalf("empty flow rejected: %v", s.Validate())
	}

	hostile := map[string]func(s *FlowState){
		"short cwnd histogram": func(s *FlowState) {
			s.TCP.CwndHist = NewHist(1, 2)
		},
		"long backoff histogram": func(s *FlowState) {
			s.TCP.BackoffHist = NewHist(0, 1, 2, 3, 4, 5, 6, 7)
		},
		"counts without bounds": func(s *FlowState) {
			s.TCP.CwndHist.Counts = append(s.TCP.CwndHist.Counts, 0)
		},
		"other bounds, same shape": func(s *FlowState) {
			s.TCP.CwndHist.Bounds[0] = 0.5
		},
		"empty histogram": func(s *FlowState) {
			s.TCP.BackoffHist = Hist{}
		},
		"negative count": func(s *FlowState) {
			s.TCP.BackoffHist.Counts[2] = -1
		},
		"by_cc bad histogram": func(s *FlowState) {
			s.TCP.ByCC = map[string]*CCStats{"reno": {CwndHist: NewHist(1)}}
		},
		"by_cc null": func(s *FlowState) {
			s.TCP.ByCC = map[string]*CCStats{"reno": nil}
		},
		"negative n":   func(s *FlowState) { s.CwndState.N = -1 },
		"NaN mean":     func(s *FlowState) { s.CwndState.Mean = math.NaN() },
		"infinite m2":  func(s *FlowState) { s.CwndState.M2 = math.Inf(1) },
		"infinite min": func(s *FlowState) { s.CwndState.Min = math.Inf(-1) },
	}
	for name, edit := range hostile {
		s := NewFlow().State()
		edit(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
