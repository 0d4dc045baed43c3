package repro_test

// The benchmark harness: one benchmark per table/figure of the paper (see
// DESIGN.md's per-experiment index) plus micro-benchmarks of the hot
// substrate paths. Each experiment benchmark reports its headline
// reproduction metrics via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// both times the harness and prints the paper-vs-measured numbers.

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/cellular"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/railway"
	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

var (
	benchCtxOnce sync.Once
	benchCtx     *experiments.Context
	benchCtxErr  error
)

// benchContext builds one shared Quick-scale campaign context (not timed).
func benchContext(b *testing.B) *experiments.Context {
	b.Helper()
	benchCtxOnce.Do(func() {
		benchCtx, benchCtxErr = experiments.NewContext(experiments.Quick())
	})
	if benchCtxErr != nil {
		b.Fatalf("NewContext: %v", benchCtxErr)
	}
	return benchCtx
}

// BenchmarkTable1Dataset regenerates the Table I dataset summary.
func BenchmarkTable1Dataset(b *testing.B) {
	ctx := benchContext(b)
	var res *experiments.Table1Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = experiments.Table1(ctx)
	}
	b.ReportMetric(float64(res.TotalFlows), "flows")
	b.ReportMetric(res.TotalSimGB*1000, "sim_MB")
}

// BenchmarkFigure1DeliveryScatter regenerates the per-packet delivery
// scatter of Fig 1 (one cruise-speed flow, full trace).
func BenchmarkFigure1DeliveryScatter(b *testing.B) {
	var res *experiments.Figure1Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.Figure1(experiments.Quick())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(res.Points)), "packets")
	b.ReportMetric(float64(len(res.Timeouts)), "timeout_seqs")
}

// BenchmarkFigure2RecoveryPhase extracts the Fig 2 recovery-phase timeline.
// The exemplar flow comes from the shared Context's cached Figure1 result,
// so setup neither re-simulates the flow nor counts against timed iterations.
func BenchmarkFigure2RecoveryPhase(b *testing.B) {
	fig1, err := benchContext(b).Figure1()
	if err != nil {
		b.Fatal(err)
	}
	var res *experiments.Figure2Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err = experiments.Figure2(fig1)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Phase.Duration().Seconds(), "recovery_s")
	b.ReportMetric(float64(res.Phase.Timeouts), "timeouts")
}

// BenchmarkFigure3LossCDF regenerates the q vs p_d CDFs of Fig 3.
func BenchmarkFigure3LossCDF(b *testing.B) {
	ctx := benchContext(b)
	var res *experiments.Figure3Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = experiments.Figure3(ctx)
	}
	b.ReportMetric(res.MeanRecovery*100, "q_%")
	b.ReportMetric(res.MeanLifetime*100, "p_d_%")
}

// BenchmarkFigure4AckTimeoutCorrelation regenerates Fig 4's correlation.
func BenchmarkFigure4AckTimeoutCorrelation(b *testing.B) {
	ctx := benchContext(b)
	var res *experiments.Figure4Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = experiments.Figure4(ctx)
	}
	b.ReportMetric(res.Pearson, "pearson_r")
	b.ReportMetric(res.Spearman, "spearman_rho")
}

// BenchmarkFigure6AckLossCDF regenerates Fig 6's ACK-loss CDFs.
func BenchmarkFigure6AckLossCDF(b *testing.B) {
	ctx := benchContext(b)
	var res *experiments.Figure6Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = experiments.Figure6(ctx)
	}
	b.ReportMetric(res.MeanHSR*100, "hsr_ack_loss_%")
	b.ReportMetric(res.MeanStationary*100, "stationary_ack_loss_%")
}

// BenchmarkFigure10ModelAccuracy regenerates the paper's headline result:
// mean deviation D of the Padhye model vs the enhanced model (paper: 21.96%
// vs 5.66%).
func BenchmarkFigure10ModelAccuracy(b *testing.B) {
	ctx := benchContext(b)
	var res *experiments.Figure10Result
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err = experiments.Figure10(ctx)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.MeanDPadhye*100, "D_padhye_%")
	b.ReportMetric(res.MeanDEnh*100, "D_enhanced_%")
	b.ReportMetric(res.ImprovePts*100, "improvement_pts")
}

// BenchmarkFigure12MPTCP regenerates the MPTCP-vs-TCP comparison (paper:
// +42.15% Mobile, +95.64% Unicom, +283.33% Telecom).
func BenchmarkFigure12MPTCP(b *testing.B) {
	var res *experiments.Figure12Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.Figure12(experiments.Quick())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, op := range res.Operators {
		switch op.Name {
		case cellular.ChinaMobileLTE.Name:
			b.ReportMetric(op.MeanImprovement*100, "mobile_gain_%")
		case cellular.ChinaUnicom3G.Name:
			b.ReportMetric(op.MeanImprovement*100, "unicom_gain_%")
		case cellular.ChinaTelecom3G.Name:
			b.ReportMetric(op.MeanImprovement*100, "telecom_gain_%")
		}
	}
}

// BenchmarkScalarClaims regenerates the Section III headline numbers.
func BenchmarkScalarClaims(b *testing.B) {
	ctx := benchContext(b)
	var res *experiments.ScalarsResult
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = experiments.Scalars(ctx)
	}
	b.ReportMetric(res.MeanRecoveryHSR.Seconds(), "hsr_recovery_s")
	b.ReportMetric(res.MeanRecoveryStationary.Seconds(), "stationary_recovery_s")
	b.ReportMetric(res.SpuriousFraction*100, "spurious_%")
}

// BenchmarkDelayedAckSweep regenerates the Section V-A delayed-ACK study.
func BenchmarkDelayedAckSweep(b *testing.B) {
	var res *experiments.DelayedAckResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.DelayedAck(experiments.Quick())
		if err != nil {
			b.Fatal(err)
		}
	}
	first, last := res.Points[0], res.Points[len(res.Points)-1]
	b.ReportMetric(float64(first.SpuriousTimeouts), "spurious_b1")
	b.ReportMetric(float64(last.SpuriousTimeouts), "spurious_b8")
}

// BenchmarkModelAblation regenerates the model-variant ablation.
func BenchmarkModelAblation(b *testing.B) {
	ctx := benchContext(b)
	var res *experiments.AblationResult
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err = experiments.ModelAblation(ctx)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, v := range res.Variants {
		switch v.Name {
		case "Padhye (full)":
			b.ReportMetric(v.MeanD*100, "D_padhye_%")
		case "Enhanced (paper, Pa=p_a^w)":
			b.ReportMetric(v.MeanD*100, "D_enhanced_%")
		}
	}
}

// BenchmarkMptcpBackupQ regenerates the Section V-B backup-mode study.
func BenchmarkMptcpBackupQ(b *testing.B) {
	var res *experiments.BackupQResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.BackupQ(experiments.Quick())
		if err != nil {
			b.Fatal(err)
		}
	}
	pq, bq, pr, br := res.Means()
	b.ReportMetric(pq*100, "plain_q_%")
	b.ReportMetric(bq*100, "backup_q_%")
	b.ReportMetric(pr.Seconds(), "plain_recovery_s")
	b.ReportMetric(br.Seconds(), "backup_recovery_s")
}

// BenchmarkEifelResponse regenerates the Eifel-style spurious-RTO study.
func BenchmarkEifelResponse(b *testing.B) {
	var res *experiments.EifelResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.Eifel(experiments.Quick())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.MeanGain*100, "gain_%")
	b.ReportMetric(float64(res.TotalUndo), "undone")
}

// BenchmarkChannelSensitivity regenerates the handoff-duration ablation.
func BenchmarkChannelSensitivity(b *testing.B) {
	var res *experiments.ChannelSensitivityResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.ChannelSensitivity(experiments.Quick())
		if err != nil {
			b.Fatal(err)
		}
	}
	last := res.Levels[len(res.Levels)-1]
	b.ReportMetric(last.MeanDPadhye*100, "D_padhye_2x_%")
	b.ReportMetric(last.MeanDEnh*100, "D_enhanced_2x_%")
}

// BenchmarkVariants regenerates the Reno-vs-NewReno comparison.
func BenchmarkVariants(b *testing.B) {
	var res *experiments.VariantsResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.Variants(experiments.Quick())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, o := range res.Outcomes {
		b.ReportMetric(o.MeanTputPps, o.Name+"_pps")
	}
}

// BenchmarkSpeedSweep regenerates the 0-300 km/h premise sweep.
func BenchmarkSpeedSweep(b *testing.B) {
	var res *experiments.SpeedSweepResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.SpeedSweep(experiments.Quick())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Points[0].MeanTputPps, "pps_0kmh")
	b.ReportMetric(res.Points[len(res.Points)-1].MeanTputPps, "pps_300kmh")
}

// BenchmarkModelValidation regenerates the static-channel pipeline check.
func BenchmarkModelValidation(b *testing.B) {
	var res *experiments.ValidationResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.ModelValidation(experiments.Quick())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.MeanDPadhye*100, "D_padhye_static_%")
	b.ReportMetric(res.MeanDEnh*100, "D_enhanced_static_%")
}

// --- micro-benchmarks of the substrate ---

// BenchmarkSimulatorEvents measures raw event-loop throughput.
func BenchmarkSimulatorEvents(b *testing.B) {
	s := sim.New()
	var tick func()
	n := 0
	tick = func() {
		n++
		if n < b.N {
			s.Schedule(time.Microsecond, tick)
		}
	}
	b.ResetTimer()
	s.Schedule(time.Microsecond, tick)
	s.Run()
}

// BenchmarkScheduleFire measures the pooled fire-and-forget event path
// (sim.Handler + ScheduleFire): the per-packet delivery mechanism. After the
// free list warms up this path is allocation-free.
func BenchmarkScheduleFire(b *testing.B) {
	b.ReportAllocs()
	s := sim.New()
	h := &benchHandler{s: s}
	h.n = b.N
	b.ResetTimer()
	s.ScheduleFire(time.Microsecond, h)
	s.Run()
}

// benchHandler reschedules itself n times through the pooled event path.
type benchHandler struct {
	s *sim.Simulator
	n int
	i int
}

func (h *benchHandler) Fire() {
	h.i++
	if h.i < h.n {
		h.s.ScheduleFire(time.Microsecond, h)
	}
}

// BenchmarkTimerRescheduleChurn measures the sender.armTimer pattern: one
// long-lived timer rearmed on every ACK. Reschedule re-slots the timer in
// place — usually without even moving it between wheel slots — instead of
// allocating a replacement per rearm.
func BenchmarkTimerRescheduleChurn(b *testing.B) {
	b.ReportAllocs()
	s := sim.New()
	fired := 0
	t := s.Schedule(time.Second, func() { fired++ })
	drive := &rescheduleDriver{s: s, t: t, n: b.N}
	b.ResetTimer()
	s.ScheduleFire(time.Microsecond, drive)
	s.Run()
	if fired != 1 {
		b.Fatalf("RTO timer fired %d times, want 1", fired)
	}
}

// rescheduleDriver rearms the timer n times, then lets it expire.
type rescheduleDriver struct {
	s *sim.Simulator
	t *sim.Timer
	n int
	i int
}

func (d *rescheduleDriver) Fire() {
	d.t.Reschedule(time.Second)
	d.i++
	if d.i < d.n {
		d.s.ScheduleFire(time.Microsecond, d)
	}
}

// BenchmarkCancelHeavy measures the Stop-heavy workload: schedule a far-out
// timer, cancel it, repeat. Stop unlinks the timer from its wheel slot in
// O(1), so cancelled events never accumulate.
func BenchmarkCancelHeavy(b *testing.B) {
	b.ReportAllocs()
	s := sim.New()
	for i := 0; i < b.N; i++ {
		t := s.Schedule(time.Hour, func() {})
		t.Stop()
	}
	if got := s.Pending(); got != 0 {
		b.Fatalf("Pending() = %d after cancelling everything, want 0", got)
	}
	s.Run()
}

// nopHandler is an empty pooled-event callback for pure kernel benchmarks.
type nopHandler struct{}

func (*nopHandler) Fire() {}

// BenchmarkRunBatchDispatch measures dense batched dispatch: rounds of 256
// events submitted into one wheel tick and drained by RunBatch — the shape a
// window-sized TCP burst produces. After warmup the path is allocation-free.
func BenchmarkRunBatchDispatch(b *testing.B) {
	b.ReportAllocs()
	s := sim.New()
	h := &nopHandler{}
	const round = 256
	for i := 0; i < round; i++ {
		s.ScheduleFire(time.Millisecond, h) // warm the event pool
	}
	s.Run()
	b.ResetTimer()
	for done := 0; done < b.N; done += round {
		for i := 0; i < round; i++ {
			s.ScheduleFire(time.Millisecond, h)
		}
		for s.RunBatch() > 0 {
		}
	}
}

// BenchmarkCascadeFarFuture measures coarse-level placement plus cascade
// cost: each event is scheduled five minutes ahead, so it parks two wheel
// levels up and is redistributed twice before firing.
func BenchmarkCascadeFarFuture(b *testing.B) {
	b.ReportAllocs()
	s := sim.New()
	h := &farHandler{s: s, n: b.N}
	b.ResetTimer()
	s.ScheduleFire(5*time.Minute, h)
	s.Run()
}

// farHandler reschedules itself n times, five virtual minutes out each time.
type farHandler struct {
	s    *sim.Simulator
	n, i int
}

func (h *farHandler) Fire() {
	h.i++
	if h.i < h.n {
		h.s.ScheduleFire(5*time.Minute, h)
	}
}

// BenchmarkRunFlowStreaming measures one full 30-second HSR flow reduced
// straight to metrics through the pooled streaming analyzer — the same flow
// BenchmarkTCPFlowSimulation materializes as a trace, so the pair quantifies
// what skipping trace materialization saves (docs/PERFORMANCE.md cites both).
func BenchmarkRunFlowStreaming(b *testing.B) {
	trip, err := railway.NewTrip(railway.BeijingTianjin, railway.DefaultProfile)
	if err != nil {
		b.Fatal(err)
	}
	start, _ := trip.CruiseWindow()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc := dataset.Scenario{
			ID: "bench", Operator: cellular.ChinaMobileLTE, Trip: trip,
			TripOffset: start, FlowDuration: 30 * time.Second,
			Seed: int64(i), TCP: tcp.DefaultConfig(), Scenario: "hsr",
		}
		if _, _, err := dataset.RunFlowMetrics(sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunFlowMaterialized runs the same flow as
// BenchmarkRunFlowStreaming but materializes the full event trace first and
// then streams it through Analyze. The difference between the two is what
// recording and replaying the event list costs.
func BenchmarkRunFlowMaterialized(b *testing.B) {
	trip, err := railway.NewTrip(railway.BeijingTianjin, railway.DefaultProfile)
	if err != nil {
		b.Fatal(err)
	}
	start, _ := trip.CruiseWindow()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc := dataset.Scenario{
			ID: "bench", Operator: cellular.ChinaMobileLTE, Trip: trip,
			TripOffset: start, FlowDuration: 30 * time.Second,
			Seed: int64(i), TCP: tcp.DefaultConfig(), Scenario: "hsr",
		}
		ft, _, err := dataset.RunFlow(sc)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := analysis.Analyze(ft); err != nil {
			b.Fatal(err)
		}
	}
}

// benchCampaign is the small campaign the cache benchmarks run: big enough
// to amortize fixed costs, small enough to keep the cold iterations sane.
func benchCampaign(cache *dataset.FlowCache) dataset.CampaignConfig {
	return dataset.CampaignConfig{
		Seed: 1, FlowDuration: 15 * time.Second, FlowsPerRow: 2,
		Parallelism: 1, Cache: cache,
	}
}

// BenchmarkCampaignColdCache runs a small campaign against an empty cache
// every iteration: full simulation plus entry write-back.
func BenchmarkCampaignColdCache(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := b.TempDir()
		cache, err := dataset.OpenFlowCacheVersion(dir, "bench")
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := dataset.RunCampaign(benchCampaign(cache)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCampaignWarmCache runs the same campaign as
// BenchmarkCampaignColdCache against a pre-populated cache, so every flow is
// a hit and no simulation runs. The ratio of the two is the warm-cache
// speedup docs/PERFORMANCE.md quotes.
func BenchmarkCampaignWarmCache(b *testing.B) {
	dir := b.TempDir()
	cache, err := dataset.OpenFlowCacheVersion(dir, "bench")
	if err != nil {
		b.Fatal(err)
	}
	if _, err := dataset.RunCampaign(benchCampaign(cache)); err != nil {
		b.Fatal(err)
	}
	if c := cache.Counters(); c.Hits != 0 || c.Misses == 0 {
		b.Fatalf("warm-up campaign: %+v, want all misses", c)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dataset.RunCampaign(benchCampaign(cache)); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if c := cache.Counters(); c.Errors > 0 {
		b.Fatalf("cache errors after warm runs: %+v", c)
	}
}

// BenchmarkTCPFlowSimulation measures one full 30-second HSR flow.
func BenchmarkTCPFlowSimulation(b *testing.B) {
	trip, err := railway.NewTrip(railway.BeijingTianjin, railway.DefaultProfile)
	if err != nil {
		b.Fatal(err)
	}
	start, _ := trip.CruiseWindow()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc := dataset.Scenario{
			ID: "bench", Operator: cellular.ChinaMobileLTE, Trip: trip,
			TripOffset: start, FlowDuration: 30 * time.Second,
			Seed: int64(i), TCP: tcp.DefaultConfig(), Scenario: "hsr",
		}
		if _, _, err := dataset.RunFlow(sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTCPFlowSimulationTelemetry is BenchmarkTCPFlowSimulation with a
// full telemetry bundle attached — the pair quantifies the instrumentation
// overhead (docs/OBSERVABILITY.md cites both numbers).
func BenchmarkTCPFlowSimulationTelemetry(b *testing.B) {
	trip, err := railway.NewTrip(railway.BeijingTianjin, railway.DefaultProfile)
	if err != nil {
		b.Fatal(err)
	}
	start, _ := trip.CruiseWindow()
	tel := telemetry.NewFlow()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc := dataset.Scenario{
			ID: "bench", Operator: cellular.ChinaMobileLTE, Trip: trip,
			TripOffset: start, FlowDuration: 30 * time.Second,
			Seed: int64(i), TCP: tcp.DefaultConfig(), Scenario: "hsr",
			Telemetry: tel,
		}
		if _, _, err := dataset.RunFlow(sc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnalyze measures trace analysis over a realistic flow trace.
func BenchmarkAnalyze(b *testing.B) {
	trip, err := railway.NewTrip(railway.BeijingTianjin, railway.DefaultProfile)
	if err != nil {
		b.Fatal(err)
	}
	start, _ := trip.CruiseWindow()
	ft, _, err := dataset.RunFlow(dataset.Scenario{
		ID: "bench", Operator: cellular.ChinaMobileLTE, Trip: trip,
		TripOffset: start, FlowDuration: 60 * time.Second,
		Seed: 1, TCP: tcp.DefaultConfig(), Scenario: "hsr",
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := analysis.Analyze(ft); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(ft.Events)), "events")
}

// BenchmarkModelEvaluation measures one enhanced-model evaluation.
func BenchmarkModelEvaluation(b *testing.B) {
	prm := core.Params{
		RTT: 60 * time.Millisecond, T: 450 * time.Millisecond,
		B: 2, Wm: 28, PData: 0.005, PAck: 0.006, Q: 0.3, MeanWindow: 18,
	}
	var tp float64
	for i := 0; i < b.N; i++ {
		var err error
		tp, err = core.Enhanced(prm)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(tp, "pps")
}

// BenchmarkTraceCodec measures binary encode+decode of a realistic trace.
func BenchmarkTraceCodec(b *testing.B) {
	trip, err := railway.NewTrip(railway.BeijingTianjin, railway.DefaultProfile)
	if err != nil {
		b.Fatal(err)
	}
	start, _ := trip.CruiseWindow()
	ft, _, err := dataset.RunFlow(dataset.Scenario{
		ID: "bench", Operator: cellular.ChinaMobileLTE, Trip: trip,
		TripOffset: start, FlowDuration: 30 * time.Second,
		Seed: 1, TCP: tcp.DefaultConfig(), Scenario: "hsr",
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := trace.WriteBinary(&buf, ft); err != nil {
			b.Fatal(err)
		}
		if _, err := trace.ReadBinary(&buf); err != nil {
			b.Fatal(err)
		}
	}
}
