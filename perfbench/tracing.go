package main

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"crossarch/internal/cluster"
	"crossarch/internal/ml"
)

// Span names, one per layer boundary the traced run records. A request
// nests as loadgen.request > client.call > cluster.handler >
// cluster.replica_call > serve.handler; the replica call repeats under
// the same handler when the router fails over.
const (
	spanRequest     = "loadgen.request"
	spanClient      = "client.call"
	spanRouter      = "cluster.handler"
	spanReplicaCall = "cluster.replica_call"
	spanServe       = "serve.handler"
	// spanKernel is one batch call into the compiled kernel. Batches
	// serve several requests, so it carries no request id; a request's
	// kernel span is the last one on its replica inside its handler span.
	spanKernel = "ml.kernel"
)

// reqHeader carries the request id across the loopback hops so spans
// recorded in different handlers share it.
const reqHeader = "X-Perfbench-Request"

// span is one recorded interval. Times are nanoseconds from the
// tracer's base.
type span struct {
	Req     uint64 `json:"req"`
	Name    string `json:"name"`
	Parent  string `json:"parent,omitempty"`
	Replica int    `json:"replica"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends.
type tracer struct {
	base  time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now(), spans: make([]span, 0, 1<<16)} }

func (t *tracer) record(req uint64, name, parent string, replica int, start, end time.Time) {
	s := span{Req: req, Name: name, Parent: parent, Replica: replica,
		Start: int64(start.Sub(t.base)), End: int64(end.Sub(t.base))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// writeJSONL writes every span, one JSON object a line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

type reqKey struct{}

func withReq(ctx context.Context, id uint64) context.Context {
	return context.WithValue(ctx, reqKey{}, id)
}

func reqOf(ctx context.Context) uint64 {
	id, _ := ctx.Value(reqKey{}).(uint64)
	return id
}

// idTransport stamps the context's request id on outgoing requests.
type idTransport struct{ base http.RoundTripper }

func (t idTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	id := reqOf(req.Context())
	if id == 0 {
		return t.base.RoundTrip(req)
	}
	r := *req
	r.Header = req.Header.Clone()
	r.Header.Set(reqHeader, strconv.FormatUint(id, 10))
	return t.base.RoundTrip(&r)
}

// timedHandler records a span around an http.Handler and hands the
// request id on through the context.
type timedHandler struct {
	h       http.Handler
	tr      *tracer
	name    string
	parent  string
	replica int
}

func (h *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id, _ := strconv.ParseUint(r.Header.Get(reqHeader), 10, 64)
	start := time.Now()
	h.h.ServeHTTP(w, r.WithContext(withReq(r.Context(), id)))
	h.tr.record(id, h.name, h.parent, h.replica, start, time.Now())
}

// timedReplica is the cluster.Replica wrapper handed to NewFleet: it
// records the router's call into one replica and counts the calls.
type timedReplica struct {
	cluster.Replica
	tr    *tracer
	index int
	calls atomic.Int64
}

func (r *timedReplica) PredictBatch(ctx context.Context, rows [][]float64) ([][]float64, error) {
	start := time.Now()
	preds, err := r.Replica.PredictBatch(ctx, rows)
	r.tr.record(reqOf(ctx), spanReplicaCall, spanRouter, r.index, start, time.Now())
	r.calls.Add(1)
	return preds, err
}

// timedKernel serves the compiled kernel in the traced stack and
// records each batch call. ml.Compile finds no compiled form behind the
// wrapper, so the server's degradation ladder calls it as it would call
// the arena it compiles itself.
type timedKernel struct {
	*ml.CompiledEnsemble
	tr      *tracer
	replica int
}

func (k *timedKernel) PredictBatch(X, out [][]float64) {
	start := time.Now()
	k.CompiledEnsemble.PredictBatch(X, out)
	k.tr.record(0, spanKernel, spanServe, k.replica, start, time.Now())
}

// reqLayers is one complete traced request split into its layers'
// self times: each span's duration minus the child span it encloses.
// The self times sum to total, the request's latency.
type reqLayers struct {
	total                                                time.Duration
	wait, client, router, transport, handlerSelf, kernel time.Duration
	replicaCall, handler                                 time.Duration // whole spans
}

// layerTimes splits every complete traced request into its layers.
func layerTimes(spans []span) []reqLayers {
	byReq := map[uint64]map[string][]span{}
	kernels := map[int][]span{}
	for _, s := range spans {
		switch {
		case s.Name == spanKernel:
			kernels[s.Replica] = append(kernels[s.Replica], s)
		case s.Req != 0: // health probes carry no id
			if byReq[s.Req] == nil {
				byReq[s.Req] = map[string][]span{}
			}
			byReq[s.Req][s.Name] = append(byReq[s.Req][s.Name], s)
		}
	}
	for _, ks := range kernels {
		sort.Slice(ks, func(i, j int) bool { return ks[i].End < ks[j].End })
	}
	var out []reqLayers
	for _, ss := range byReq {
		if len(ss[spanRequest]) != 1 || len(ss[spanClient]) != 1 || len(ss[spanRouter]) != 1 ||
			len(ss[spanReplicaCall]) != 1 || len(ss[spanServe]) != 1 {
			continue // failed over, or incomplete
		}
		sv := ss[spanServe][0]
		ks := kernels[sv.Replica]
		k := sort.Search(len(ks), func(i int) bool { return ks[i].End > sv.End }) - 1
		if k < 0 || ks[k].Start < sv.Start {
			continue
		}
		req, cl, rt := ss[spanRequest][0].dur(), ss[spanClient][0].dur(), ss[spanRouter][0].dur()
		rc := ss[spanReplicaCall][0].dur()
		out = append(out, reqLayers{
			total:       req,
			wait:        req - cl,
			client:      cl - rt,
			router:      rt - rc,
			transport:   rc - sv.dur(),
			handlerSelf: sv.dur() - ks[k].dur(),
			kernel:      ks[k].dur(),
			replicaCall: rc,
			handler:     sv.dur(),
		})
	}
	return out
}
