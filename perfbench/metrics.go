package main

import (
	"encoding/json"
	"time"
)

// workloadSpec is one traffic mix of the serving phase. Every run first
// trains the model and runs the scheduler (the offline pipeline), so the
// training and scheduling metrics are measured under both workloads.
type workloadSpec struct {
	name string
	why  string
	// open selects the open loop at rate requests per second; otherwise
	// nproc callers run a closed loop.
	open bool
	rate float64
	// sloMs is the latency limit within_slo_frac counts against.
	sloMs float64
}

const (
	// multiRowFrac of interactive requests carry 2-16 rows of one
	// application; the rest carry one row.
	multiRowFrac = 0.2
	// batchRows is the scheduler-integration request shape.
	batchRows = 64
	// batchPool is how many distinct 64-row requests a closed-loop run
	// cycles through.
	batchPool = 512
)

var workloadSpecs = []workloadSpec{
	{
		name:  "predict-interactive",
		why:   "open loop, Poisson arrivals at 250 req/s, at most nproc in flight; 80% 1-row, 20% 2-16-row requests; router, transport, codec and gather timer hold most of the time, the kernel little",
		open:  true,
		rate:  250,
		sloMs: 10,
	},
	{
		name:  "predict-batch",
		why:   "closed loop, nproc callers posting 64-row requests (the scheduler-integration shape); batches fill without gathering, the kernel dominates, codec cost scales with rows",
		sloMs: 50,
	},
}

func workloadByName(name string) (workloadSpec, bool) {
	for _, w := range workloadSpecs {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// metricDef is one reported metric. bound is set on end-to-end metrics
// only; moves states, for a per-layer metric, which end-to-end metric on
// which workload it should move.
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64
	moves  string
}

// endToEnd are the metrics a user of the system sees, measured with
// tracing off. setup_s is the median time, over setupReps stack starts,
// from loading the saved model into two replicas to the first verified
// routed answer.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "latency_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "latency_p99_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "within_slo_frac", unit: "frac", better: "higher", bound: 0.05},
	{name: "rows_per_s", unit: "rows/s", better: "higher", bound: 0.25},
	{name: "peak_rss_mb", unit: "MiB", better: "lower", bound: 0.2},
	{name: "train_s", unit: "s", better: "lower", bound: 0.25},
	{name: "model_mae", unit: "rpv", better: "lower", bound: 0.02},
	{name: "sched_jobs_per_s", unit: "jobs/s", better: "higher", bound: 0.25},
}

// perLayer are read from the traced run.
var perLayer = []metricDef{
	{name: "loadgen.timer_lag_p50_ms", unit: "ms", better: "lower", moves: "harness check: must stay well below latency_p50_ms"},
	{name: "loadgen.timer_lag_p99_ms", unit: "ms", better: "lower", moves: "harness check: must stay well below latency_p50_ms"},
	{name: "loadgen.slot_wait_p99_ms", unit: "ms", better: "lower", moves: "harness check: must stay well below latency_p50_ms"},
	{name: "loadgen.sent", unit: "count", better: "higher", moves: "harness check"},
	{name: "loadgen.failed", unit: "count", better: "lower", moves: "error_frac, all workloads"},
	{name: "loadgen.wrong", unit: "count", better: "lower", moves: "error_frac, all workloads"},
	{name: "loadgen.error_frac", unit: "frac", better: "lower", moves: "within_slo_frac; failed or wrong requests and violated checks over attempted"},
	{name: "client.self_us_p50", unit: "us", better: "lower", moves: "latency_p50_ms on predict-interactive"},
	{name: "cluster.self_us_p50", unit: "us", better: "lower", moves: "latency_p50_ms on predict-interactive"},
	{name: "cluster.self_us_p99", unit: "us", better: "lower", moves: "latency_p99_ms on predict-interactive"},
	{name: "cluster.replica_call_us_p50", unit: "us", better: "lower", moves: "latency_p50_ms on both workloads"},
	{name: "cluster.replica_call_us_p99", unit: "us", better: "lower", moves: "latency_p99_ms on both workloads"},
	{name: "cluster.accepted", unit: "count", better: "higher", moves: "error_frac and latency_p99_ms"},
	{name: "cluster.degraded", unit: "count", better: "lower", moves: "error_frac and latency_p99_ms"},
	{name: "cluster.dropped", unit: "count", better: "lower", moves: "error_frac and latency_p99_ms"},
	{name: "cluster.replica_skew", unit: "ratio", better: "lower", moves: "latency_p99_ms on predict-interactive"},
	{name: "serve.transport_us_p50", unit: "us", better: "lower", moves: "latency_p50_ms on predict-interactive"},
	{name: "serve.transport_us_p99", unit: "us", better: "lower", moves: "latency_p99_ms on predict-interactive"},
	{name: "serve.handler_us_p50", unit: "us", better: "lower", moves: "latency_p50_ms on both workloads"},
	{name: "serve.handler_us_p99", unit: "us", better: "lower", moves: "latency_p99_ms on both workloads"},
	{name: "serve.handler_self_us_p50", unit: "us", better: "lower", moves: "latency_p99_ms and within_slo_frac on predict-interactive"},
	{name: "serve.batch_rows_mean", unit: "rows", better: "higher", moves: "rows_per_s on predict-batch, latency on predict-interactive"},
	{name: "serve.batch_requests_mean", unit: "count", better: "higher", moves: "rows_per_s on predict-batch, latency on predict-interactive"},
	{name: "serve.batches", unit: "count", better: "lower", moves: "rows_per_s on predict-batch, latency on predict-interactive"},
	{name: "serve.queue_peak", unit: "count", better: "lower", moves: "rows_per_s on predict-batch, latency on predict-interactive"},
	{name: "serve.rejected", unit: "count", better: "lower", moves: "error_frac and rows_per_s"},
	{name: "ml.batch_ms_p50", unit: "ms", better: "lower", moves: "rows_per_s on predict-batch, latency_p50_ms on both"},
	{name: "ml.batch_ms_p99", unit: "ms", better: "lower", moves: "latency_p99_ms on predict-batch"},
	{name: "ml.batch_ms_mean", unit: "ms", better: "lower", moves: "rows_per_s on predict-batch, latency_p50_ms on both"},
	{name: "ml.kernel_us_per_row", unit: "us", better: "lower", moves: "rows_per_s on predict-batch, latency_p50_ms on both"},
	{name: "ml.ladder_primary_frac", unit: "frac", better: "higher", moves: "error_frac; must stay 1 without faults"},
	{name: "ml.compile_ms", unit: "ms", better: "lower", moves: "setup_s"},
	{name: "proc.allocs_per_req", unit: "count", better: "lower", moves: "latency_p99_ms on predict-interactive"},
	{name: "proc.gc_pause_ms", unit: "ms", better: "lower", moves: "latency_p99_ms on predict-interactive"},
	{name: "dataset.build_s", unit: "s", better: "lower", moves: "train_s"},
	{name: "dataset.rows", unit: "count", better: "higher", moves: "train_s"},
	{name: "xgboost.fit_s", unit: "s", better: "lower", moves: "train_s"},
	{name: "xgboost.round_ms_p50", unit: "ms", better: "lower", moves: "train_s"},
	{name: "xgboost.rounds", unit: "count", better: "lower", moves: "train_s"},
	{name: "xgboost.trees", unit: "count", better: "lower", moves: "train_s"},
	{name: "experiments.bind_ms", unit: "ms", better: "lower", moves: "sched_jobs_per_s"},
	{name: "workload.generate_ms", unit: "ms", better: "lower", moves: "sched_jobs_per_s"},
	{name: "workload.jobs", unit: "count", better: "higher", moves: "sched_jobs_per_s"},
	{name: "sched.paper_run_s", unit: "s", better: "lower", moves: "sched_jobs_per_s"},
	{name: "sched.trace_fcfs_run_s", unit: "s", better: "lower", moves: "sched_jobs_per_s"},
	{name: "sched.trace_slo_run_s", unit: "s", better: "lower", moves: "sched_jobs_per_s"},
	{name: "sched.started", unit: "count", better: "higher", moves: "sched_jobs_per_s"},
	{name: "sched.preempted", unit: "count", better: "lower", moves: "sched_jobs_per_s"},
	{name: "trace.latency_p50_ms", unit: "ms", better: "lower", moves: "tracing check: latency p50 of the traced window"},
	{name: "trace.overhead_p50_frac", unit: "frac", better: "lower", moves: "tracing check: traced over untraced latency_p50_ms, minus 1"},
	{name: "trace.spans", unit: "count", better: "higher", moves: "tracing check"},
	{name: "budget.sum_ms", unit: "ms", better: "lower", moves: "latency_p50_ms: sum of the p50 request's per-layer self times"},
	{name: "budget.gap_frac", unit: "frac", better: "lower", moves: "budget check: |sum / trace.latency_p50_ms - 1| must stay within budgetTolerance"},
}

// latencyParts is how many slices of a window the latency percentiles
// are taken over (see latencyQuantile).
const latencyParts = 5

// setupReps is how many times a run brings the stack up; setup_s is
// the median.
const setupReps = 3

// budgetTolerance bounds how far the latency budget's sum may sit from
// the traced window's latency p50. The band's mean latency and the p50
// differ by the skew of the distribution inside the band, a few percent
// at most on both workloads.
const budgetTolerance = 0.1

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// benchmarkJSON renders the BENCHMARK.json the repository commits, from
// the same tables the run reports against.
func benchmarkJSON(runSeconds int) ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloadSpecs {
		doc.Workloads = append(doc.Workloads, wl{w.name, w.why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.name, m.unit, m.better, m.bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{m.name, m.unit, m.better})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
