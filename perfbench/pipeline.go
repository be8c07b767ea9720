package main

import (
	"fmt"
	"io"
	"time"

	"crossarch/internal/arch"
	"crossarch/internal/core"
	"crossarch/internal/dataset"
	"crossarch/internal/experiments"
	"crossarch/internal/ml"
	"crossarch/internal/ml/xgboost"
	"crossarch/internal/sched"
	"crossarch/internal/workload"
)

// The model every phase uses is the paper's: the default dataset seeds
// of experiments.Defaults and the tuned DefaultXGBoost, fitted on the
// reduced-scale (trials 1) MP-HPC table. The bursty trace is generated
// from a fixed seed too. Neither depends on the benchmark seed, so
// their results are pinned on every seed and the scheduling cost does
// not swing with the trace's contention; the seed drives the resampling
// of the Section VII workload and the request streams.
const (
	datasetTrials = 1
	paperJobs     = 50000
	// traceHorizonSec and traceRate give the bursty profile about 14k
	// jobs, enough that the slo+model queue re-sorting dominates.
	traceHorizonSec = 3600
	traceRate       = 4
	traceProfile    = "bursty"
	traceSeed       = 1
)

// timedFit is the xgboost model with its Fit call timed from outside.
type timedFit struct {
	*xgboost.Model
	fit time.Duration
}

func (t *timedFit) Fit(X, Y [][]float64) error {
	start := time.Now()
	err := t.Model.Fit(X, Y)
	t.fit = time.Since(start)
	return err
}

// trained is the output of the training step.
type trained struct {
	ds    *dataset.Dataset
	model *xgboost.Model
	mae   float64
	build time.Duration
	fit   time.Duration
	total time.Duration // build + fit + held-out evaluation
}

// train builds the dataset and fits the paper-default model.
func train() (*trained, error) {
	cfg := experiments.Defaults()
	start := time.Now()
	ds, err := dataset.Build(dataset.Params{Trials: datasetTrials, Seed: cfg.DatasetSeed})
	if err != nil {
		return nil, fmt.Errorf("dataset build: %w", err)
	}
	build := time.Since(start)
	m := &timedFit{Model: core.DefaultXGBoost(cfg.ModelSeed)}
	ev, err := core.TrainEval(ds, m, core.DefaultTestFraction, cfg.SplitSeed)
	if err != nil {
		return nil, fmt.Errorf("training: %w", err)
	}
	return &trained{ds: ds, model: m.Model, mae: ev.MAE, build: build, fit: m.fit, total: time.Since(start)}, nil
}

// schedRun is one simulator run, kept for the conservation checks.
type schedRun struct {
	name string
	jobs int
	res  sched.Result
	dur  time.Duration
}

// schedOutcome is the scheduling step: the Section VII experiment and
// the bursty multi-tenant trace.
type schedOutcome struct {
	generate      time.Duration // workload.Generate
	bind          time.Duration // SampleWorkloadModel + JobsFromTrace
	traceJobs     int
	traceChecksum string
	paper         schedRun // 50k jobs at t=0, fcfs+model (EASY backfill)
	traceFCFS     schedRun
	traceSLO      schedRun // EDF + fair shares + preemption
	verdict       experiments.WorkloadVerdict
}

// jobs is every job the simulator placed.
func (o *schedOutcome) jobs() int { return o.paper.jobs + o.traceFCFS.jobs + o.traceSLO.jobs }

// busy is the time the scheduling step spent generating, binding and
// simulating.
func (o *schedOutcome) busy() time.Duration {
	return o.generate + o.bind + o.paper.dur + o.traceFCFS.dur + o.traceSLO.dur
}

func runSched(name string, jobs []*sched.Job, p sched.Params) (schedRun, error) {
	cp := make([]*sched.Job, len(jobs))
	for i, j := range jobs {
		c := *j
		cp[i] = &c
	}
	start := time.Now()
	res, err := sched.Run(cp, sched.NewCluster(arch.All()), sched.NewModelBased(), p)
	if err != nil {
		return schedRun{}, fmt.Errorf("sched %s: %w", name, err)
	}
	return schedRun{name: name, jobs: len(jobs), res: res, dur: time.Since(start)}, nil
}

// schedule runs the scheduling step for one seed.
func schedule(t *trained, seed uint64) (*schedOutcome, error) {
	o := &schedOutcome{}
	start := time.Now()
	paperJobsList, err := experiments.SampleWorkloadModel(t.ds, t.model, experiments.SchedConfig{NumJobs: paperJobs, WorkloadSeed: seed})
	if err != nil {
		return nil, err
	}
	o.bind = time.Since(start)
	if o.paper, err = runSched("paper", paperJobsList, sched.Params{}); err != nil {
		return nil, err
	}

	prof, err := workload.ProfileByName(traceProfile)
	if err != nil {
		return nil, err
	}
	spec := prof.Build(traceSeed, traceHorizonSec, traceRate)
	start = time.Now()
	tr, err := workload.Generate(spec)
	if err != nil {
		return nil, err
	}
	o.generate = time.Since(start)
	o.traceJobs = len(tr.Jobs)
	// WriteTrace stamps the content checksum the pinned check compares.
	if err := workload.WriteTrace(io.Discard, tr); err != nil {
		return nil, err
	}
	o.traceChecksum = tr.Checksum
	start = time.Now()
	traceJobs, err := experiments.JobsFromTrace(t.ds, t.model, tr)
	if err != nil {
		return nil, err
	}
	o.bind += time.Since(start)
	if o.traceFCFS, err = runSched("fcfs+model", traceJobs, sched.Params{}); err != nil {
		return nil, err
	}
	slo := sched.Params{
		R1:             sched.EDF{},
		Shares:         workload.ShareMap(spec.Tenants),
		Preempt:        true,
		PreemptRequeue: true,
	}
	if o.traceSLO, err = runSched(experiments.SLOSchedulerName, traceJobs, slo); err != nil {
		return nil, err
	}
	o.verdict = experiments.VerdictFor([]experiments.WorkloadPoint{
		{Profile: traceProfile, Scheduler: "fcfs+model", Jobs: o.traceJobs, Result: o.traceFCFS.res},
		{Profile: traceProfile, Scheduler: experiments.SLOSchedulerName, Jobs: o.traceJobs, Result: o.traceSLO.res},
	})
	return o, nil
}

// checkSched returns one message per violated scheduling invariant:
// job and deadline conservation on every run, preemption only under
// the SLO configuration, and the slo+model verdict on the trace.
func checkSched(o *schedOutcome) []string {
	var bad []string
	for _, r := range []schedRun{o.paper, o.traceFCFS, o.traceSLO} {
		res := r.res
		if res.CompletedJobs+res.AbandonedJobs != r.jobs {
			bad = append(bad, fmt.Sprintf("sched %s: completed %d + abandoned %d != %d jobs", r.name, res.CompletedJobs, res.AbandonedJobs, r.jobs))
		}
		if res.MetDeadlines+res.MissedDeadlines != res.DeadlineJobs {
			bad = append(bad, fmt.Sprintf("sched %s: met %d + missed %d != %d deadline jobs", r.name, res.MetDeadlines, res.MissedDeadlines, res.DeadlineJobs))
		}
		var jobs, deadline, missed int
		for _, t := range res.PerTenant {
			jobs += t.Jobs
			deadline += t.DeadlineJobs
			missed += t.MissedDeadlines
		}
		if jobs != r.jobs || deadline != res.DeadlineJobs || missed != res.MissedDeadlines {
			bad = append(bad, fmt.Sprintf("sched %s: per-tenant sums disagree with totals", r.name))
		}
		if r.name != experiments.SLOSchedulerName && res.PreemptedAttempts != 0 {
			bad = append(bad, fmt.Sprintf("sched %s: %d preemptions without preemption enabled", r.name, res.PreemptedAttempts))
		}
		if !(res.MakespanSec > 0) {
			bad = append(bad, fmt.Sprintf("sched %s: makespan %v", r.name, res.MakespanSec))
		}
	}
	if o.traceFCFS.res.DeadlineJobs == 0 {
		bad = append(bad, "sched: bursty trace carries no deadlines")
	}
	if !o.verdict.FewerMisses {
		bad = append(bad, fmt.Sprintf("sched verdict: slo+model misses %.2f%% > fcfs+model %.2f%%", o.verdict.SLOMissPct, o.verdict.BestFCFSMissPct))
	}
	return bad
}

// mlCompile times the flattening of the fitted model into the arena the
// serving kernel runs.
func mlCompile(m ml.Regressor) (*ml.CompiledEnsemble, time.Duration, error) {
	start := time.Now()
	ce, ok := ml.Compile(m)
	if !ok {
		return nil, 0, fmt.Errorf("model %s has no compiled form", m.Name())
	}
	return ce, time.Since(start), nil
}
