// Package mptcp models the two multipath-TCP deployments discussed in
// Section V-B of the paper:
//
//   - Duplex mode: the sender stripes data over several subflows. The paper
//     itself evaluates this by running two concurrent single-path TCP flows
//     whose paths share no bottleneck and summing their throughput (Fig 12);
//     RunDuplex reproduces exactly that methodology, giving each subflow an
//     independently seeded radio channel.
//   - Backup mode: data flows on one subflow, but when a retransmission
//     timeout fires, the lost segment is retransmitted on both the original
//     subflow and the backup subflow, and acknowledgements are mirrored on
//     the backup return path. This double-retransmission is the paper's
//     proposed mechanism for reducing q, the recovery-phase retransmission
//     loss rate.
package mptcp

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/dataset"
	"repro/internal/netem"
	"repro/internal/sim"
	"repro/internal/tcp"
)

// SubflowResult carries one subflow's endpoint counters and trace metrics.
type SubflowResult struct {
	Stats   tcp.Stats
	Metrics *analysis.FlowMetrics
}

// DuplexResult is the outcome of a duplex-mode run.
type DuplexResult struct {
	Subflows []SubflowResult
	// ThroughputPps is the aggregate delivery rate over all subflows.
	ThroughputPps float64
}

// RunDuplex runs n concurrent subflows, each a full TCP connection over an
// independently seeded channel of the same operator and trip, inside one
// simulation. It mirrors the paper's Fig 12 methodology (two flows with no
// shared bottleneck treated as MPTCP subflows).
func RunDuplex(base dataset.Scenario, n int) (*DuplexResult, error) {
	if n < 1 {
		return nil, fmt.Errorf("mptcp: subflow count %d must be >= 1", n)
	}
	if err := base.Validate(); err != nil {
		return nil, err
	}
	simulator := sim.New()
	res := &DuplexResult{}
	type sub struct {
		conn *tcp.Conn
		inc  *analysis.Incremental
	}
	subs := make([]sub, 0, n)
	// Every acquired analyzer goes back to the pool, whichever path returns.
	defer func() {
		for _, s := range subs {
			s.inc.Release()
		}
	}()
	// All subflows belong to one phone in one cell: they share the air
	// interface capacity but see independent loss/outage processes.
	sharedDown, sharedUp := dataset.BuildSharedCell(simulator, base.Operator)
	for i := 0; i < n; i++ {
		sc := base
		sc.ID = fmt.Sprintf("%s-sub%d", base.ID, i)
		sc.Seed = base.Seed*7919 + int64(i)*104729
		path, err := dataset.BuildSubflowPath(simulator, sc, sharedDown, sharedUp)
		if err != nil {
			return nil, err
		}
		inc := analysis.AcquireIncremental(sc.FlowMeta())
		subs = append(subs, sub{inc: inc})
		conn, err := tcp.New(simulator, path, sc.TCP, inc)
		if err != nil {
			return nil, err
		}
		if err := conn.Start(sc.FlowDuration); err != nil {
			return nil, err
		}
		subs[i].conn = conn
	}
	simulator.RunUntil(base.FlowDuration)

	var total int64
	for _, s := range subs {
		m, err := s.inc.Finish()
		if err != nil {
			return nil, err
		}
		st := s.conn.Stats()
		total += st.UniqueDelivered
		res.Subflows = append(res.Subflows, SubflowResult{Stats: st, Metrics: m})
	}
	res.ThroughputPps = float64(total) / base.FlowDuration.Seconds()
	return res, nil
}

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
	simulator.RunUntil(base.FlowDuration)

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

// CompareDuplex runs the single-flow baseline and an n-subflow duplex run on
// the same scenario and returns (single pps, duplex pps, improvement).
func CompareDuplex(base dataset.Scenario, n int) (single, duplex, improvement float64, err error) {
	m, err := dataset.AnalyzeFlow(base)
	if err != nil {
		return 0, 0, 0, err
	}
	d, err := RunDuplex(base, n)
	if err != nil {
		return 0, 0, 0, err
	}
	single = m.ThroughputPps
	duplex = d.ThroughputPps
	return single, duplex, Improvement(duplex, single), nil
}
