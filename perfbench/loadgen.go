package main

import (
	"context"
	"math"
	"math/rand/v2"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"crossarch/internal/serve"
)

// request is one generated request: rows of the MP-HPC feature matrix
// by index and, in the open loop, when it is due after the start.
type request struct {
	due  time.Duration
	rows []int
}

// outcome is what the load generator saw for one request. Times are
// offsets from the start of the window.
type outcome struct {
	due, send, done time.Duration
	// lag is how late the sender woke for a request it slept for;
	// slot is how long a request waited past its due time because every
	// sender was busy. At most one of the two is non-zero.
	lag, slot time.Duration
	rows      int
	failed    bool
	wrong     bool
}

func (o outcome) latency() time.Duration { return o.done - o.due }

// sender issues requests through the stack's client and checks every
// returned row bitwise against the offline prediction for that row.
type sender struct {
	client *serve.Client
	tr     *tracer
	X      [][]float64
	want   [][]float64
	nextID atomic.Uint64
}

func (s *sender) send(ctx context.Context, start time.Time, rows []int, o *outcome) {
	x := make([][]float64, len(rows))
	for i, r := range rows {
		x[i] = s.X[r]
	}
	o.rows = len(rows)
	id := s.nextID.Add(1)
	if s.tr != nil {
		ctx = withReq(ctx, id)
	}
	sendAt := time.Now()
	o.send = sendAt.Sub(start)
	preds, err := s.client.PredictBatch(ctx, x)
	doneAt := time.Now()
	o.done = doneAt.Sub(start)
	if s.tr != nil {
		s.tr.record(id, spanRequest, "", -1, start.Add(o.due), doneAt)
		s.tr.record(id, spanClient, spanRequest, -1, sendAt, doneAt)
	}
	if err != nil {
		o.failed = true
		return
	}
	o.wrong = !sameRows(preds, rows, s.want)
}

// sameRows reports whether every served row equals the reference row
// bit for bit.
func sameRows(preds [][]float64, rows []int, want [][]float64) bool {
	if len(preds) != len(rows) {
		return false
	}
	for i, r := range rows {
		if len(preds[i]) != len(want[r]) {
			return false
		}
		for k, v := range preds[i] {
			if math.Float64bits(v) != math.Float64bits(want[r][k]) {
				return false
			}
		}
	}
	return true
}

// runOpen sends each request at its due time from `senders` senders,
// each with one request in flight. A sender takes the next request in due
// order and sleeps until it is due; if it only got to it late because it
// was busy, the delay is slot wait. A sleeping sender holds a Go
// processor (see sleepUntil), so the window runs with one processor more
// per sender, leaving the servers the processors they would have without
// the senders asleep.
func runOpen(s *sender, reqs []request, senders int) []outcome {
	procs := runtime.GOMAXPROCS(0)
	runtime.GOMAXPROCS(procs + senders)
	defer runtime.GOMAXPROCS(procs)

	out := make([]outcome, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	// Start a little ahead so the first requests are not late by the
	// time it takes to start the senders.
	start := time.Now().Add(time.Millisecond)
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				o := &out[i]
				o.due = reqs[i].due
				due := start.Add(o.due)
				if now := time.Now(); now.Before(due) {
					sleepUntil(due)
					o.lag = max(time.Since(due), 0)
				} else {
					o.slot = now.Sub(due)
				}
				s.send(context.Background(), start, reqs[i].rows, o)
			}
		}()
	}
	wg.Wait()
	return out
}

// runClosed runs `callers` callers that each send the next request from
// the pool as soon as their previous one returns, until d has passed.
func runClosed(s *sender, pool []request, callers int, d time.Duration) []outcome {
	outs := make([][]outcome, callers)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	ctx := context.Background()
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Since(start) < d {
				i := int(next.Add(1)-1) % len(pool)
				var o outcome
				o.due = time.Since(start)
				s.send(ctx, start, pool[i].rows, &o)
				outs[c] = append(outs[c], o)
			}
		}(c)
	}
	wg.Wait()
	var all []outcome
	for _, o := range outs {
		all = append(all, o...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].due < all[j].due })
	return all
}

// interactiveRequests draws the open-loop schedule: rate*d requests at
// Poisson arrival times conditioned on their count (sorted uniform
// times over d). A multiRowFrac share carries 2-16 rows of one
// application, sizes cycling through 2..16; the rest carry one random
// row. Fixing the count and the sizes keeps the offered rows the same on
// every seed, so rows_per_s compares across seeds.
func interactiveRequests(rng *rand.Rand, appRows [][]int, nrows int, rate float64, d time.Duration) []request {
	n := int(rate * d.Seconds())
	dues := make([]time.Duration, n)
	for i := range dues {
		dues[i] = time.Duration(rng.Float64() * float64(d))
	}
	sort.Slice(dues, func(i, j int) bool { return dues[i] < dues[j] })
	size := make([]int, n)
	for k, i := range rng.Perm(n) {
		size[i] = 1
		if k < int(multiRowFrac*float64(n)) {
			size[i] = 2 + k%15
		}
	}
	reqs := make([]request, n)
	for i := range reqs {
		rows := make([]int, size[i])
		if size[i] == 1 {
			rows[0] = rng.IntN(nrows)
		} else {
			app := appRows[rng.IntN(len(appRows))]
			for k := range rows {
				rows[k] = app[rng.IntN(len(app))]
			}
		}
		reqs[i] = request{due: dues[i], rows: rows}
	}
	return reqs
}

// batchRequests draws the closed-loop pool: n requests of batchRows
// random rows each.
func batchRequests(rng *rand.Rand, nrows, n int) []request {
	reqs := make([]request, n)
	for i := range reqs {
		rows := make([]int, batchRows)
		for k := range rows {
			rows[k] = rng.IntN(nrows)
		}
		reqs[i] = request{rows: rows}
	}
	return reqs
}
