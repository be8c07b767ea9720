// Command perfbench is the repository's end-to-end benchmark. One run
// trains the paper-default model, runs the scheduler on the Section VII
// experiment and on a bursty multi-tenant trace, then drives the
// serving stack (client, router, two replicas over loopback HTTP) with
// the chosen workload. It checks every answer and prints each metric by
// name with its unit; the last line of standard output is one JSON
// object with the result.
//
//	perfbench --workload predict-interactive --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the run reports the end-to-end metrics, with tracing
// off. With --trace 1 it also runs a traced window and reports the
// per-layer metrics and the latency budget. --emit-benchmark-json
// prints the BENCHMARK.json the repository commits.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

func main() {
	workload := flag.String("workload", "", "workload name")
	seed := flag.Uint64("seed", pinnedSeed, "input seed")
	seconds := flag.Int("seconds", 20, "length of each measured window in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced window and reports per-layer metrics")
	dir := flag.String("dir", ".bench_build", "directory for the run's scratch files and span dump")
	emit := flag.Bool("emit-benchmark-json", false, "print BENCHMARK.json and exit")
	flag.Parse()

	if *emit {
		b, err := benchmarkJSON(*seconds)
		if err != nil {
			fail(err)
		}
		os.Stdout.Write(b)
		return
	}
	if *trace != 0 && *trace != 1 {
		fail(fmt.Errorf("--trace must be 0 or 1"))
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fail(err)
	}
	start := time.Now()
	rep, err := run(config{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, dir: *dir})
	if err != nil {
		fail(err)
	}
	defs := endToEnd
	if *trace == 1 {
		defs = perLayer
	}
	printReport(rep, defs)
	fmt.Printf("run took %.1fs\n", time.Since(start).Seconds())

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.correct(), rep.attempted, rep.failed, map[string]value{}}
	for _, d := range defs {
		out.Metrics[d.name] = value{rep.metrics[d.name], d.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(b))
}

func printReport(rep *report, defs []metricDef) {
	for _, d := range defs {
		fmt.Printf("%-30s %14.6g %-7s %s\n", d.name, rep.metrics[d.name], d.unit, d.moves)
	}
	if len(rep.budget) > 0 {
		fmt.Println("\nlatency budget of the p50 request (mean self time over the traced 40th-60th percentile):")
		for _, b := range rep.budget {
			fmt.Printf("  %-16s %10.1f us  %s\n", b.layer, us(b.self), b.what)
		}
		fmt.Printf("  %-16s %10.1f us  vs latency p50 %.1f us traced (gap %.1f%%, tolerance %.0f%%), %.1f us untraced\n",
			"sum", rep.metrics["budget.sum_ms"]*1e3, rep.metrics["trace.latency_p50_ms"]*1e3,
			100*rep.metrics["budget.gap_frac"], 100*budgetTolerance, rep.metrics["latency_p50_ms"]*1e3)
	}
	if rep.spansPath != "" {
		fmt.Println("spans written to", rep.spansPath)
	}
	for _, p := range rep.problems {
		fmt.Println("CHECK FAILED:", p)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
