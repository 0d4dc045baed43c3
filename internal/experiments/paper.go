package experiments

import "repro/internal/cellular"

// paperValue is one number the paper reports: its value (a fraction, or
// seconds for durations) and its text at the paper's own precision.
type paperValue struct {
	Value float64
	Text  string
}

// paper is the one table of the paper's reference values; every experiment
// that prints a paper value reads it from here. The Table I flow counts and
// trace sizes live with the campaign's row structure (dataset.TableI).
var paper = struct {
	RecoveryHSR        paperValue            // mean timeout-recovery duration on the train (s)
	RecoveryStationary paperValue            // the same, stationary (s)
	SpuriousFraction   paperValue            // share of timeouts that are spurious
	DataLossHSR        paperValue            // mean lifetime data loss rate p_d
	RecoveryLoss       paperValue            // mean recovery-phase loss rate q (Fig 3)
	AckLossHSR         paperValue            // mean ACK loss rate p_a on the train (Fig 6)
	AckLossStationary  paperValue            // the same, stationary
	DPadhye            paperValue            // mean model deviation D, Padhye (Fig 10)
	DEnhanced          paperValue            // mean model deviation D, enhanced model
	MPTCPGain          map[string]paperValue // MPTCP throughput gain by operator (Fig 12)
}{
	RecoveryHSR:        paperValue{5.05, "5.05 s"},
	RecoveryStationary: paperValue{0.65, "0.65 s"},
	SpuriousFraction:   paperValue{0.4924, "49.24%"},
	DataLossHSR:        paperValue{0.007526, "0.7526%"},
	RecoveryLoss:       paperValue{0.2726, "27.26%"},
	AckLossHSR:         paperValue{0.00661, "0.661%"},
	AckLossStationary:  paperValue{0.000718, "0.0718%"},
	DPadhye:            paperValue{0.2196, "21.96%"},
	DEnhanced:          paperValue{0.0566, "5.66%"},
	MPTCPGain: map[string]paperValue{
		cellular.ChinaMobileLTE.Name: {0.4215, "42.15%"},
		cellular.ChinaUnicom3G.Name:  {0.9564, "95.64%"},
		cellular.ChinaTelecom3G.Name: {2.8333, "283.33%"},
	},
}
