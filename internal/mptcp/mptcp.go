// Package mptcp models the two multipath-TCP deployments discussed in
// Section V-B of the paper:
//
//   - Duplex mode: the sender stripes data over several subflows. The paper
//     itself evaluates this by moving a fixed payload once over one TCP flow
//     and once split over two concurrent half-size flows, and summing the
//     two flows' throughputs (Fig 12). CompareSized reproduces that
//     methodology: RunSizedSingle runs the one flow, RunSizedDuplex the
//     pair, each subflow on an independently seeded radio channel and both
//     queueing on one shared cell (a netem.Bottleneck), as one phone's
//     subflows do.
//   - Backup mode: data flows on one subflow, but when a retransmission
//     timeout fires, the lost segment is retransmitted on both the original
//     subflow and the backup subflow, and acknowledgements are mirrored on
//     the backup return path. This double-retransmission is the paper's
//     proposed mechanism for reducing q, the recovery-phase retransmission
//     loss rate.
package mptcp

import (
	"repro/internal/analysis"
	"repro/internal/dataset"
	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/tcp"
)

// BackupResult is the outcome of a backup-mode run.
type BackupResult struct {
	Stats   tcp.Stats
	Metrics *analysis.FlowMetrics
	// BackupRetransmits counts segments duplicated onto the backup subflow
	// after an RTO; BackupDelivered counts how many of those copies reached
	// the receiver.
	BackupRetransmits int
	BackupDelivered   int
	// BackupAcksDelivered counts cumulative ACKs that reached the sender via
	// the backup return path.
	BackupAcksDelivered int
}

// RunBackup runs one TCP flow on the primary path with a backup subflow used
// exclusively for reliability: every RTO retransmission is duplicated on the
// backup path and every cumulative ACK is mirrored on the backup return
// path. The retransmission succeeds if either copy (and either ACK path)
// survives, which is how MPTCP's double retransmission reduces the paper's
// q.
func RunBackup(base dataset.Scenario) (*BackupResult, error) {
	if err := base.Validate(); err != nil {
		return nil, err
	}
	simulator := sim.New()
	primary, _, err := dataset.BuildPath(simulator, base)
	if err != nil {
		return nil, err
	}
	backupSc := base
	backupSc.Seed = base.Seed*6700417 + 1
	backup, _, err := dataset.BuildPath(simulator, backupSc)
	if err != nil {
		return nil, err
	}

	meta := base.FlowMeta()
	meta.ID += "-backup"
	inc := analysis.AcquireIncremental(meta)
	defer inc.Release()
	conn, err := tcp.New(simulator, primary, base.TCP, inc)
	if err != nil {
		return nil, err
	}
	res := &BackupResult{}
	segSize := base.TCP.MSS + base.TCP.HeaderBytes
	conn.SetRetransmitHook(func(seq int64) {
		txNo := conn.LastTransmitNo(seq)
		if txNo < 1 {
			txNo = 1
		}
		res.BackupRetransmits++
		backup.Forward.Send(segSize, netem.HandlerFunc(func() {
			res.BackupDelivered++
			conn.DeliverData(seq, txNo)
		}))
	})
	conn.SetAckSendHook(func(ackNo int64) {
		// Mirror ACKs only while the sender is stuck in timeout recovery:
		// mirroring every ACK would make the later primary copy register as
		// a duplicate ACK and provoke needless fast retransmits.
		if !conn.InTimeoutRecovery() {
			return
		}
		backup.Reverse.Send(base.TCP.HeaderBytes, netem.HandlerFunc(func() {
			res.BackupAcksDelivered++
			conn.InjectAck(ackNo)
		}))
	})
	if err := conn.Start(base.FlowDuration); err != nil {
		return nil, err
	}
	if _, err := dataset.RunBudgeted(simulator, meta.ID, base.FlowDuration, 1); err != nil {
		return nil, err
	}

	res.Stats = conn.Stats()
	m, err := inc.Finish()
	if err != nil {
		return nil, err
	}
	res.Metrics = m
	return res, nil
}

// Improvement returns the relative throughput gain of a multipath run over
// a single-path baseline, e.g. 0.42 for a 42% duplex improvement.
func Improvement(multipath, single float64) float64 {
	if single <= 0 {
		return 0
	}
	return (multipath - single) / single
}
