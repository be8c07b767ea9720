package main

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"crossarch/internal/cluster"
	"crossarch/internal/dataset"
	"crossarch/internal/ml"
	"crossarch/internal/obs"
)

// config is one benchmark run.
type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	// dir receives the run's scratch model file and the span dump.
	dir string
	// wrapReplica, when set, wraps every replica of every stack.
	wrapReplica func(cluster.Replica) cluster.Replica
	// train, when set, replaces the training step (the tests share one
	// fitted model across runs).
	train func() (*trained, error)
}

// report is what a run measured and checked.
type report struct {
	attempted int
	// failed counts requests that failed or were answered wrong, plus
	// one per violated check in problems.
	failed    int
	problems  []string
	metrics   map[string]float64
	budget    []budgetRow
	spansPath string
}

// correct reports whether every request was answered right and every
// check held.
func (r *report) correct() bool { return r.failed == 0 && len(r.problems) == 0 }

func (r *report) problemf(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// budgetRow is one layer's share of the p50 request.
type budgetRow struct {
	layer string
	what  string
	self  time.Duration
}

// window is one measured serving window.
type window struct {
	outs     []outcome
	elapsed  time.Duration
	obsDelta func(name string) histDelta
	counter  func(name string) float64
	mallocs  uint64
	gcPause  time.Duration
	stats    cluster.Stats
}

// errors counts the window's failed and wrongly answered requests.
func (w *window) errors() (failed, wrong int) {
	for _, o := range w.outs {
		if o.failed {
			failed++
		}
		if o.wrong {
			wrong++
		}
	}
	return failed, wrong
}

func run(cfg config) (*report, error) {
	spec, ok := workloadByName(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if cfg.seconds < 1 {
		return nil, fmt.Errorf("--seconds must be at least 1")
	}
	rep := &report{metrics: map[string]float64{}}
	m := rep.metrics

	trainFn := cfg.train
	if trainFn == nil {
		trainFn = train
	}
	obsStart := obs.TakeSnapshot()
	t, err := trainFn()
	if err != nil {
		return nil, err
	}
	obsTrained := obs.TakeSnapshot()
	m["train_s"] = t.total.Seconds()
	m["model_mae"] = t.mae
	if t.mae != pinnedMAE {
		rep.problemf("model_mae %.17g, pinned %.17g", t.mae, pinnedMAE)
	}

	o, err := schedule(t, cfg.seed)
	if err != nil {
		return nil, err
	}
	obsSched := obs.TakeSnapshot()
	rep.problems = append(rep.problems, checkSched(o)...)
	rep.problems = append(rep.problems, checkPins(o, cfg.seed)...)
	rep.attempted += o.jobs()
	m["sched_jobs_per_s"] = float64(o.jobs()) / o.busy().Seconds()

	X := t.ds.Features()
	want := ml.PredictBatch(t.model, X)
	dir, err := os.MkdirTemp(cfg.dir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	modelPath := filepath.Join(dir, "model.json")
	if err := ml.SaveModelFile(modelPath, t.model); err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewPCG(cfg.seed, 0x9e3779b97f4a7c15))
	sv := &serving{
		spec:    spec,
		seconds: cfg.seconds,
		X:       X,
		want:    want,
		sc:      stackConfig{modelPath: modelPath, features: len(dataset.FeatureColumns()), wrapReplica: cfg.wrapReplica},
	}
	if spec.open {
		sv.reqs = interactiveRequests(rng, appRows(t.ds), len(X), spec.rate, time.Duration(cfg.seconds)*time.Second)
	} else {
		sv.reqs = batchRequests(rng, len(X), batchPool)
	}
	runtime.GC()

	// Set-up: bring the stack up setupReps times and keep the last.
	var setups []float64
	var st *stack
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		if st, err = sv.start(nil); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		if i < setupReps-1 {
			if err := st.close(); err != nil {
				return nil, err
			}
		}
	}
	m["setup_s"] = quantile(setups, 0.5)

	plain := sv.measure(st, nil)
	if err := st.close(); err != nil {
		return nil, err
	}
	checkWindow(rep, "untraced", plain)
	m["latency_p50_ms"] = latencyQuantile(plain.outs, 0.5)
	m["latency_p99_ms"] = latencyQuantile(plain.outs, 0.99)
	m["within_slo_frac"] = withinSLO(plain.outs, spec.sloMs)
	m["rows_per_s"] = float64(okRows(plain.outs)) / plain.elapsed.Seconds()

	if cfg.trace {
		harnessLayers(m, plain)
		offlineLayers(m, t, o, obsStart, obsTrained, obsSched)
		tr := newTracer()
		if err := sv.traced(rep, tr, t.model); err != nil {
			return nil, err
		}
		rep.spansPath = filepath.Join(cfg.dir, fmt.Sprintf("spans-%s-%d.jsonl", cfg.workload, cfg.seed))
		if err := tr.writeJSONL(rep.spansPath); err != nil {
			return nil, err
		}
	}
	m["peak_rss_mb"] = peakRSSMB()
	rep.failed += len(rep.problems)
	m["loadgen.error_frac"] = float64(rep.failed) / float64(rep.attempted)
	return rep, nil
}

// serving is what every serving window of a run shares.
type serving struct {
	spec    workloadSpec
	seconds int
	reqs    []request
	// X is the MP-HPC feature matrix requests draw rows from; want is
	// the offline ml.PredictBatch of every row.
	X, want [][]float64
	sc      stackConfig
}

// start brings a stack up and sends a few verified requests through it,
// so the connections exist before timing starts.
func (sv *serving) start(tr *tracer) (*stack, error) {
	sc := sv.sc
	sc.tr = tr
	st, err := startStack(sc)
	if err != nil {
		st.close()
		return nil, err
	}
	s := &sender{client: st.client, X: sv.X, want: sv.want}
	for i := 0; i < 8 && i < len(sv.reqs); i++ {
		var o outcome
		s.send(context.Background(), time.Now(), sv.reqs[i].rows, &o)
		if o.failed || o.wrong {
			st.close()
			return nil, fmt.Errorf("warm-up request %d failed=%v wrong=%v", i, o.failed, o.wrong)
		}
	}
	return st, nil
}

// measure runs the workload on st for the window.
func (sv *serving) measure(st *stack, tr *tracer) *window {
	s := &sender{client: st.client, tr: tr, X: sv.X, want: sv.want}
	statsBefore := st.router.Stats()
	before := obs.TakeSnapshot()
	var msBefore, msAfter runtime.MemStats
	runtime.ReadMemStats(&msBefore)
	start := time.Now()
	var outs []outcome
	if sv.spec.open {
		outs = runOpen(s, sv.reqs, runtime.NumCPU())
	} else {
		outs = runClosed(s, sv.reqs, runtime.NumCPU(), time.Duration(sv.seconds)*time.Second)
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&msAfter)
	after := obs.TakeSnapshot()
	statsAfter := st.router.Stats()
	return &window{
		outs:     outs,
		elapsed:  elapsed,
		obsDelta: func(name string) histDelta { return deltaOf(before, after, name) },
		counter:  func(name string) float64 { return counterDelta(before, after, name) },
		mallocs:  msAfter.Mallocs - msBefore.Mallocs,
		gcPause:  time.Duration(msAfter.PauseTotalNs - msBefore.PauseTotalNs),
		stats: cluster.Stats{
			Accepted:  statsAfter.Accepted - statsBefore.Accepted,
			Completed: statsAfter.Completed - statsBefore.Completed,
			Degraded:  statsAfter.Degraded - statsBefore.Degraded,
			Dropped:   statsAfter.Dropped - statsBefore.Dropped,
			Rejected:  statsAfter.Rejected - statsBefore.Rejected,
		},
	}
}

// harnessLayers reports the load generator's honesty checks and the
// process counters of the untraced window the end-to-end metrics come
// from.
func harnessLayers(m map[string]float64, plain *window) {
	var lags, slots []time.Duration
	for _, o := range plain.outs {
		if o.lag > 0 {
			lags = append(lags, o.lag)
		}
		slots = append(slots, o.slot)
	}
	m["loadgen.timer_lag_p50_ms"] = ms(durQuantile(lags, 0.5))
	m["loadgen.timer_lag_p99_ms"] = ms(durQuantile(lags, 0.99))
	m["loadgen.slot_wait_p99_ms"] = ms(durQuantile(slots, 0.99))
	failed, wrong := plain.errors()
	m["loadgen.sent"] = float64(len(plain.outs))
	m["loadgen.failed"] = float64(failed)
	m["loadgen.wrong"] = float64(wrong)
	m["proc.allocs_per_req"] = float64(plain.mallocs) / float64(len(plain.outs))
	m["proc.gc_pause_ms"] = ms(plain.gcPause)
}

// offlineLayers reports the training and scheduling layers, from the
// benchmark's timed calls and obs deltas around them.
func offlineLayers(m map[string]float64, t *trained, o *schedOutcome, obsStart, obsTrained, obsSched obs.Snapshot) {
	m["dataset.build_s"] = t.build.Seconds()
	m["dataset.rows"] = float64(t.ds.NumRows())
	m["xgboost.fit_s"] = t.fit.Seconds()
	m["xgboost.round_ms_p50"] = deltaOf(obsStart, obsTrained, "xgboost.round.seconds").quantile(0.5) * 1e3
	m["xgboost.rounds"] = counterDelta(obsStart, obsTrained, "xgboost.rounds.total")
	m["xgboost.trees"] = counterDelta(obsStart, obsTrained, "xgboost.trees.total")
	m["experiments.bind_ms"] = ms(o.bind)
	m["workload.generate_ms"] = ms(o.generate)
	m["workload.jobs"] = float64(o.traceJobs)
	m["sched.paper_run_s"] = o.paper.dur.Seconds()
	m["sched.trace_fcfs_run_s"] = o.traceFCFS.dur.Seconds()
	m["sched.trace_slo_run_s"] = o.traceSLO.dur.Seconds()
	m["sched.started"] = counterDelta(obsTrained, obsSched, "sched.jobs.started.total")
	m["sched.preempted"] = counterDelta(obsTrained, obsSched, "sched.jobs.preempted.total")
}

// traced runs the traced window on a fresh stack and reports the
// cluster, serve and ml layers and the latency budget.
func (sv *serving) traced(rep *report, tr *tracer, model ml.Regressor) error {
	m := rep.metrics
	st, err := sv.start(tr)
	if err != nil {
		return fmt.Errorf("traced set-up: %w", err)
	}
	tw := sv.measure(st, tr)
	if err := st.close(); err != nil {
		return err
	}
	checkWindow(rep, "traced", tw)

	m["cluster.accepted"] = float64(tw.stats.Accepted)
	m["cluster.degraded"] = float64(tw.stats.Degraded)
	m["cluster.dropped"] = float64(tw.stats.Dropped)
	lo, hi := math.Inf(1), 0.0
	for _, r := range st.timed {
		c := float64(r.calls.Load())
		lo, hi = math.Min(lo, c), math.Max(hi, c)
	}
	if lo > 0 {
		m["cluster.replica_skew"] = hi / lo
	}

	batch := tw.obsDelta("serve.batch.seconds")
	batches := tw.counter("serve.batch.total")
	m["serve.batches"] = batches
	if batches > 0 {
		m["serve.batch_rows_mean"] = tw.counter("serve.rows.total") / batches
	}
	m["serve.batch_requests_mean"] = tw.obsDelta("serve.batch.requests").mean()
	m["serve.queue_peak"] = obs.TakeSnapshot().Gauges["serve.queue.peak"]
	m["serve.rejected"] = tw.counter("serve.reject.queue_full.total") + tw.counter("serve.reject.deadline.total")
	m["ml.batch_ms_p50"] = batch.quantile(0.5) * 1e3
	m["ml.batch_ms_p99"] = batch.quantile(0.99) * 1e3
	m["ml.batch_ms_mean"] = batch.mean() * 1e3
	primary := tw.counter("ml.ladder.primary.rows")
	if all := primary + tw.counter("ml.ladder.fallback.rows") + tw.counter("ml.ladder.identity.rows"); all > 0 {
		m["ml.ladder_primary_frac"] = primary / all
	}
	if m["ml.ladder_primary_frac"] != 1 {
		rep.problemf("degradation ladder served %.4f of rows from the primary model, want 1", m["ml.ladder_primary_frac"])
	}
	ce, compile, err := mlCompile(model)
	if err != nil {
		return err
	}
	m["ml.compile_ms"] = ms(compile)
	m["ml.kernel_us_per_row"] = kernelUsPerRow(ce, sv.X, sv.reqs)

	lay := layerTimes(tr.spans)
	if len(lay) == 0 {
		return fmt.Errorf("traced run recorded no complete request")
	}
	p := func(f func(reqLayers) time.Duration, q float64) float64 {
		ds := make([]time.Duration, len(lay))
		for i, r := range lay {
			ds[i] = f(r)
		}
		return us(durQuantile(ds, q))
	}
	m["client.self_us_p50"] = p(func(r reqLayers) time.Duration { return r.client }, 0.5)
	m["cluster.self_us_p50"] = p(func(r reqLayers) time.Duration { return r.router }, 0.5)
	m["cluster.self_us_p99"] = p(func(r reqLayers) time.Duration { return r.router }, 0.99)
	m["cluster.replica_call_us_p50"] = p(func(r reqLayers) time.Duration { return r.replicaCall }, 0.5)
	m["cluster.replica_call_us_p99"] = p(func(r reqLayers) time.Duration { return r.replicaCall }, 0.99)
	m["serve.transport_us_p50"] = p(func(r reqLayers) time.Duration { return r.transport }, 0.5)
	m["serve.transport_us_p99"] = p(func(r reqLayers) time.Duration { return r.transport }, 0.99)
	m["serve.handler_us_p50"] = p(func(r reqLayers) time.Duration { return r.handler }, 0.5)
	m["serve.handler_us_p99"] = p(func(r reqLayers) time.Duration { return r.handler }, 0.99)
	m["serve.handler_self_us_p50"] = p(func(r reqLayers) time.Duration { return r.handlerSelf }, 0.5)
	m["trace.spans"] = float64(len(tr.spans))
	m["trace.latency_p50_ms"] = p(func(r reqLayers) time.Duration { return r.total }, 0.5) / 1e3
	m["trace.overhead_p50_frac"] = latencyQuantile(tw.outs, 0.5)/m["latency_p50_ms"] - 1
	budget(rep, lay)
	return nil
}

// budget fills the latency budget of the p50 request: the mean of each
// layer's self time over the traced requests whose latency lies between
// the 40th and 60th percentile. When the spans cover every layer of
// those requests, the self times add up to their latency and the sum
// sits at the traced window's latency p50; a request whose time escaped
// the spans would open a gap. The untraced latency_p50_ms is not the
// reference: the two windows run one after the other, and on a shared
// host their difference is drift as much as tracing overhead, which
// trace.overhead_p50_frac reports.
func budget(rep *report, lay []reqLayers) {
	sort.Slice(lay, func(i, j int) bool { return lay[i].total < lay[j].total })
	band := lay[len(lay)*2/5 : max(len(lay)*3/5, len(lay)*2/5+1)]
	avg := func(f func(reqLayers) time.Duration) time.Duration {
		var sum time.Duration
		for _, r := range band {
			sum += f(r)
		}
		return sum / time.Duration(len(band))
	}
	rep.budget = []budgetRow{
		{"loadgen", "timer lag + slot wait before the send", avg(func(r reqLayers) time.Duration { return r.wait })},
		{"client", "serve.Client codec + loopback to the router", avg(func(r reqLayers) time.Duration { return r.client })},
		{"cluster", "router handler minus replica call", avg(func(r reqLayers) time.Duration { return r.router })},
		{"serve.transport", "replica call minus replica handler", avg(func(r reqLayers) time.Duration { return r.transport })},
		{"serve.handler", "handler minus kernel: codec, admission, queue, gather, ladder", avg(func(r reqLayers) time.Duration { return r.handlerSelf })},
		{"ml", "compiled kernel call of the request's batch", avg(func(r reqLayers) time.Duration { return r.kernel })},
	}
	var sum time.Duration
	for _, b := range rep.budget {
		sum += b.self
	}
	m := rep.metrics
	m["budget.sum_ms"] = ms(sum)
	gap := math.Abs(ms(sum)/m["trace.latency_p50_ms"] - 1)
	m["budget.gap_frac"] = gap
	if gap > budgetTolerance {
		rep.problemf("latency budget: layer sum %.3f ms vs traced latency p50 %.3f ms, off by %.0f%% (tolerance %.0f%%)",
			ms(sum), m["trace.latency_p50_ms"], 100*gap, 100*budgetTolerance)
	}
}

// checkWindow counts a window's requests and records every failed or
// wrong answer and any break in the router accounting.
func checkWindow(rep *report, label string, w *window) {
	rep.attempted += len(w.outs)
	failed, wrong := w.errors()
	rep.failed += failed + wrong
	st := w.stats
	if st.Accepted != st.Completed+st.Degraded+st.Dropped {
		rep.problemf("%s router accounting: accepted %d != completed %d + degraded %d + dropped %d",
			label, st.Accepted, st.Completed, st.Degraded, st.Dropped)
	}
	if st.Accepted != int64(len(w.outs)) {
		rep.problemf("%s router accepted %d of %d requests sent", label, st.Accepted, len(w.outs))
	}
}

// latencyQuantile is the median, over latencyParts equal slices of the
// window by due time, of each slice's latency q-quantile in ms. A stall
// of the host that hits one slice moves one of the estimates, not the
// reported value; each slice still holds enough requests that its p99
// has ten or more beyond it.
func latencyQuantile(outs []outcome, q float64) float64 {
	if len(outs) == 0 {
		return 0
	}
	span := outs[len(outs)-1].due + 1
	parts := make([][]float64, latencyParts)
	for _, o := range outs {
		k := int(int64(o.due) * latencyParts / int64(span))
		parts[k] = append(parts[k], ms(o.latency()))
	}
	est := make([]float64, 0, latencyParts)
	for _, p := range parts {
		if len(p) > 0 {
			est = append(est, quantile(p, q))
		}
	}
	return quantile(est, 0.5)
}

// withinSLO is the share of requests sent that succeeded with the right
// answer within the latency limit.
func withinSLO(outs []outcome, limitMs float64) float64 {
	n := 0
	for _, o := range outs {
		if !o.failed && !o.wrong && ms(o.latency()) <= limitMs {
			n++
		}
	}
	return float64(n) / float64(len(outs))
}

func okRows(outs []outcome) int {
	n := 0
	for _, o := range outs {
		if !o.failed && !o.wrong {
			n += o.rows
		}
	}
	return n
}

// appRows groups the feature-matrix rows by application, in name order.
func appRows(ds *dataset.Dataset) [][]int {
	byApp := map[string][]int{}
	for i, a := range ds.Frame.Strings(dataset.ColApp) {
		byApp[a] = append(byApp[a], i)
	}
	names := make([]string, 0, len(byApp))
	for a := range byApp {
		names = append(names, a)
	}
	sort.Strings(names)
	out := make([][]int, len(names))
	for i, a := range names {
		out[i] = byApp[a]
	}
	return out
}

// kernelUsPerRow times the compiled kernel directly on the workload's
// own request shapes for about 200ms.
func kernelUsPerRow(ce *ml.CompiledEnsemble, X [][]float64, reqs []request) float64 {
	batches := make([][][]float64, 0, len(reqs))
	outs := make([][][]float64, 0, len(reqs))
	for _, r := range reqs {
		x := make([][]float64, len(r.rows))
		for i, k := range r.rows {
			x[i] = X[k]
		}
		batches = append(batches, x)
		outs = append(outs, ml.NewMatrix(len(x), ce.NumOutputs()))
	}
	rows := 0
	start := time.Now()
	for time.Since(start) < 200*time.Millisecond {
		for i, x := range batches {
			ce.PredictBatch(x, outs[i])
			rows += len(x)
		}
	}
	return us(time.Since(start)) / float64(rows)
}
