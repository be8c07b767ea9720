package main

import (
	"bytes"
	"context"
	"math"
	"os"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"crossarch/internal/cluster"
)

// The model is the same for every run, so the tests fit it once.
var (
	trainOnce sync.Once
	trainedM  *trained
	trainErr  error
)

func sharedTrain() (*trained, error) {
	trainOnce.Do(func() { trainedM, trainErr = train() })
	return trainedM, trainErr
}

func shortRun(t *testing.T, workload string, traced bool, wrap func(cluster.Replica) cluster.Replica) *report {
	t.Helper()
	rep, err := run(config{
		workload:    workload,
		seed:        pinnedSeed,
		seconds:     1,
		trace:       traced,
		dir:         t.TempDir(),
		wrapReplica: wrap,
		train:       sharedTrain,
	})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestShortRunOfEachWorkload(t *testing.T) {
	for _, w := range workloadSpecs {
		t.Run(w.name, func(t *testing.T) {
			rep := shortRun(t, w.name, true, nil)
			if !rep.correct() {
				t.Fatalf("run not correct: failed %d, problems %v", rep.failed, rep.problems)
			}
			for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
				v, ok := rep.metrics[d.name]
				if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("metric %s missing or not finite: %v", d.name, v)
				}
			}
			for _, d := range endToEnd {
				if rep.metrics[d.name] <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", d.name, rep.metrics[d.name])
				}
			}
			if rep.metrics["loadgen.error_frac"] != 0 {
				t.Errorf("error_frac %v, want 0", rep.metrics["loadgen.error_frac"])
			}
			if _, err := os.Stat(rep.spansPath); err != nil {
				t.Errorf("span dump: %v", err)
			}
		})
	}
}

// perturbNth answers the n-th call across the fleet with one prediction
// an ulp off.
type perturbNth struct {
	cluster.Replica
	calls *atomic.Int64
	n     int64
}

func (p perturbNth) PredictBatch(ctx context.Context, rows [][]float64) ([][]float64, error) {
	preds, err := p.Replica.PredictBatch(ctx, rows)
	if err == nil && p.calls.Add(1) == p.n {
		preds[0][0] = math.Nextafter(preds[0][0], math.Inf(1))
	}
	return preds, err
}

func TestPerturbedPredictionFailsTheRun(t *testing.T) {
	var calls atomic.Int64
	// Every set-up sends 8 warm-up requests; hit one in the window.
	n := int64(setupReps*8 + 5)
	rep := shortRun(t, "predict-interactive", false, func(r cluster.Replica) cluster.Replica {
		return perturbNth{Replica: r, calls: &calls, n: n}
	})
	if rep.correct() {
		t.Fatal("a wrong served prediction did not fail the run")
	}
	if rep.failed != 1 || rep.metrics["loadgen.error_frac"] <= 0 {
		t.Fatalf("failed %d, error_frac %v; want 1 and > 0", rep.failed, rep.metrics["loadgen.error_frac"])
	}
}

func TestTracedAndUntracedAgreeOnCorrectness(t *testing.T) {
	for _, w := range workloadSpecs {
		t.Run(w.name, func(t *testing.T) {
			plain := shortRun(t, w.name, false, nil)
			traced := shortRun(t, w.name, true, nil)
			if plain.correct() != traced.correct() || plain.failed != traced.failed ||
				!reflect.DeepEqual(plain.problems, traced.problems) {
				t.Fatalf("untraced correct=%v failed=%d %v; traced correct=%v failed=%d %v",
					plain.correct(), plain.failed, plain.problems, traced.correct(), traced.failed, traced.problems)
			}
		})
	}
}

func TestCommittedBenchmarkJSON(t *testing.T) {
	want, err := benchmarkJSON(20)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("BENCHMARK.json is out of date; regenerate it with: bash perfbench/run.sh --emit-benchmark-json\n%s", want)
	}
}
