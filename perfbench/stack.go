package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"crossarch/internal/cluster"
	"crossarch/internal/ml"
	"crossarch/internal/serve"
)

// numReplicas is the fleet size behind the router.
const numReplicas = 2

// stackConfig describes one serving stack.
type stackConfig struct {
	modelPath string
	features  int
	// tr, when non-nil, wraps the router and each server in a timing
	// handler and each replica in a timing cluster.Replica.
	tr *tracer
	// wrapReplica, when non-nil, wraps each replica the router sees
	// (the tests use it to inject a wrong answer).
	wrapReplica func(cluster.Replica) cluster.Replica
}

// stack is the deployed serving path: two serve.Server replicas on
// loopback listeners, each loaded from the saved model envelope with
// the production serve.Config defaults, behind a cluster.Router on its
// own loopback listener with the mphpc-cluster default strategy.
type stack struct {
	servers    []*serve.Server
	httpSrvs   []*http.Server
	router     *cluster.Router
	timed      []*timedReplica
	client     *serve.Client
	transports []*http.Transport
	wg         sync.WaitGroup
}

// newTransport mirrors the pooled transport serve.Client uses by
// default, so the traced run can wrap one configured the same way.
func newTransport() *http.Transport {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConns = 256
	t.MaxIdleConnsPerHost = 256
	return t
}

func (s *stack) httpClient(tr *tracer) *http.Client {
	t := newTransport()
	s.transports = append(s.transports, t)
	if tr == nil {
		return &http.Client{Transport: t}
	}
	return &http.Client{Transport: idTransport{base: t}}
}

func (s *stack) serveOn(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h}
	s.httpSrvs = append(s.httpSrvs, hs)
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		_ = hs.Serve(ln) // returns http.ErrServerClosed once close shuts it down
	}()
	return "http://" + ln.Addr().String(), nil
}

// newServer starts one replica on the saved model. The traced stack
// loads the same file and installs its compiled kernel behind a timing
// wrapper.
func newServer(cfg stackConfig, replica int) (*serve.Server, error) {
	if cfg.tr == nil {
		return serve.New(serve.Config{ModelPath: cfg.modelPath, Features: cfg.features})
	}
	m, info, err := ml.LoadModelFileInfo(cfg.modelPath)
	if err != nil {
		return nil, err
	}
	ce, ok := ml.Compile(m)
	if !ok {
		return nil, fmt.Errorf("model %s has no compiled form", m.Name())
	}
	srv, err := serve.New(serve.Config{Features: cfg.features})
	if err != nil {
		return nil, err
	}
	if err := srv.Install(&timedKernel{CompiledEnsemble: ce, tr: cfg.tr, replica: replica}, info); err != nil {
		srv.Close()
		return nil, err
	}
	return srv, nil
}

// startStack brings a stack up. The caller must close it, also on error.
func startStack(cfg stackConfig) (*stack, error) {
	s := &stack{}
	specs := make([]cluster.Spec, 0, numReplicas)
	for i := 0; i < numReplicas; i++ {
		srv, err := newServer(cfg, i)
		if err != nil {
			return s, fmt.Errorf("replica %d: %w", i, err)
		}
		s.servers = append(s.servers, srv)
		var h http.Handler = srv
		if cfg.tr != nil {
			h = &timedHandler{h: srv, tr: cfg.tr, name: spanServe, parent: spanReplicaCall, replica: i}
		}
		url, err := s.serveOn(h)
		if err != nil {
			return s, err
		}
		var rep cluster.Replica = cluster.NewHTTPReplica(url, url, s.httpClient(cfg.tr))
		if cfg.tr != nil {
			tr := &timedReplica{Replica: rep, tr: cfg.tr, index: i}
			s.timed = append(s.timed, tr)
			rep = tr
		}
		if cfg.wrapReplica != nil {
			rep = cfg.wrapReplica(rep)
		}
		specs = append(specs, cluster.Spec{Replica: rep, Arch: i})
	}
	fleet, err := cluster.NewFleet(specs)
	if err != nil {
		return s, err
	}
	s.router = cluster.NewRouter(fleet, cluster.Config{
		Strategy: cluster.NewRoundRobin(),
		Sleep:    func(seconds float64) { time.Sleep(time.Duration(seconds * float64(time.Second))) },
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if n := s.router.CheckHealth(ctx); n != numReplicas {
		return s, fmt.Errorf("%d of %d replicas healthy at start", n, numReplicas)
	}
	var h http.Handler = s.router
	if cfg.tr != nil {
		h = &timedHandler{h: s.router, tr: cfg.tr, name: spanRouter, parent: spanClient, replica: -1}
	}
	url, err := s.serveOn(h)
	if err != nil {
		return s, err
	}
	s.client = &serve.Client{BaseURL: url, HTTP: s.httpClient(cfg.tr)}
	return s, nil
}

// close shuts the router down, drains every server and waits for every
// goroutine the stack started.
func (s *stack) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var errs []error
	// The router listener was started last: shut it first, so nothing
	// reaches a draining replica.
	for i := len(s.httpSrvs) - 1; i >= 0; i-- {
		if i < len(s.servers) {
			s.servers[i].BeginDrain()
		}
		if err := s.httpSrvs[i].Shutdown(ctx); err != nil {
			errs = append(errs, err)
		}
	}
	s.wg.Wait()
	for _, srv := range s.servers {
		srv.Close()
	}
	for _, t := range s.transports {
		t.CloseIdleConnections()
	}
	return errors.Join(errs...)
}
