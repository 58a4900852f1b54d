package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"dirsim/internal/obs"
	"dirsim/internal/otrace"
	"dirsim/internal/server"
)

// daemon is one in-process dirsimd: the server, its HTTP listener and the
// metric set and span store it was built with.
type daemon struct {
	srv     *server.Server
	httpSrv *http.Server
	url     string
	metrics *obs.Metrics
	store   *otrace.Store
	served  chan error
}

// dirsimdConfig is cmd/dirsimd's default configuration, with a job queue
// deep enough that that many closed-loop callers, each with at most one
// job in flight, are never refused for a full queue.
func dirsimdConfig(clients int) server.Config {
	return server.Config{
		Workers:      4,
		Executors:    2,
		QueueDepth:   max(16, clients),
		CacheEntries: 128,
		ChunkCells:   16,
		Retries:      2,
		RetryBase:    100 * time.Millisecond,
	}
}

// startDaemon wires a daemon the way cmd/dirsimd does — wall clock, retry
// sleeps, an always-on tracer named after the bound address — and starts
// serving on ln.
func startDaemon(cfg server.Config, ln net.Listener) (*daemon, error) {
	nowNanos := func() int64 { return time.Now().UnixNano() }
	d := &daemon{
		url:     "http://" + ln.Addr().String(),
		metrics: obs.NewMetrics(),
		store:   otrace.NewStore(0),
		served:  make(chan error, 1),
	}
	cfg.Sleep = time.Sleep
	cfg.NowNanos = nowNanos
	cfg.Metrics = d.metrics
	cfg.Tracer = otrace.New("dirsimd:"+ln.Addr().String(), nowNanos, d.store, d.metrics)
	srv, err := server.New(cfg)
	if err != nil {
		ln.Close()
		return nil, err
	}
	d.srv = srv
	srv.Start(context.Background())
	d.httpSrv = &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 5 * time.Second}
	go func() { d.served <- d.httpSrv.Serve(ln) }()
	return d, nil
}

// waitReady polls /readyz until the daemon answers 200.
func (d *daemon) waitReady(hc *http.Client) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := hc.Get(d.url + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body) // drained only to reuse the connection
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("daemon %s not ready after 30s", d.url)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop drains the daemon as cmd/dirsimd does on SIGTERM, then closes the
// listener and every connection and waits for the serve loop to return.
// Every request has been answered by then; http.Server.Shutdown would
// wait five seconds for any connection a client transport dialed but
// never used.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	derr := d.srv.Drain(ctx)
	herr := d.httpSrv.Close()
	serr := <-d.served
	if errors.Is(serr, http.ErrServerClosed) {
		serr = nil
	}
	return errors.Join(derr, herr, serr)
}

// newHTTPClient is the benchmark's client side: keep-alive connections
// for every concurrent caller and a bound on any one request.
func newHTTPClient(conns int) *http.Client {
	return &http.Client{
		Timeout: time.Minute,
		Transport: &http.Transport{
			DialContext:         (&net.Dialer{Timeout: 10 * time.Second}).DialContext,
			MaxIdleConns:        4 * conns,
			MaxIdleConnsPerHost: conns,
		},
	}
}

// spanCollector copies the spans of the benchmark's traced operations out
// of the daemons' fixed span rings, on a ticker while the closed loop
// runs, before the rings wrap.
type spanCollector struct {
	stores []*otrace.Store
	accept func(trace string) bool
	seen   map[string]bool
	rec    *recorder
	stop   chan struct{}
	done   chan struct{}
}

// startCollector collects every 50ms until finish is called.
func startCollector(rec *recorder, accept func(trace string) bool, stores ...*otrace.Store) *spanCollector {
	c := &spanCollector{stores: stores, accept: accept, seen: map[string]bool{}, rec: rec,
		stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(c.done)
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-c.stop:
				return
			case <-t.C:
				c.collect()
			}
		}
	}()
	return c
}

// finish stops the collector, then sweeps the rings a last time.
func (c *spanCollector) finish() {
	close(c.stop)
	<-c.done
	c.collect()
}

func (c *spanCollector) collect() {
	var fresh []otrace.Span
	for _, st := range c.stores {
		for _, s := range st.Spans() {
			if c.accept(s.Trace) && !c.seen[s.ID()] {
				c.seen[s.ID()] = true
				fresh = append(fresh, s)
			}
		}
	}
	c.rec.merge(fresh)
}

// histQuantile estimates quantile q of a daemon histogram by linear
// interpolation inside its log2 bucket.
func histQuantile(h obs.HistogramSnapshot, q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	target := q * float64(h.Count)
	var cum float64
	for i, n := range h.Buckets {
		if n == 0 {
			continue
		}
		if cum+float64(n) >= target {
			lo := 0.0
			if i > 0 {
				lo = float64(obs.BucketUpper(i-1) + 1)
			}
			hi := float64(obs.BucketUpper(i))
			return lo + (hi-lo)*(target-cum)/float64(n)
		}
		cum += float64(n)
	}
	return float64(obs.BucketUpper(obs.NumHistBuckets - 2))
}

// histMax is the upper bound of a histogram's highest non-empty bucket.
func histMax(h obs.HistogramSnapshot) float64 {
	for i := len(h.Buckets) - 1; i >= 0; i-- {
		if h.Buckets[i] > 0 {
			return float64(obs.BucketUpper(i))
		}
	}
	return 0
}

// daemonTotals are the daemon's own counters and histograms that the
// server and runner layers report.
type daemonTotals struct {
	admitWait obs.HistogramSnapshot
	queueMax  float64
	simulated uint64
	retries   uint64
	failures  uint64
}

func totals(d *daemon) daemonTotals {
	snap := d.metrics.Snapshot()
	t := daemonTotals{
		simulated: snap.JobsDone,
		retries:   snap.Retries,
		failures:  snap.Failures,
	}
	for _, h := range snap.Histograms {
		switch h.Name {
		case obs.HistAdmitWait:
			t.admitWait = h
		case obs.HistQueueDepth:
			t.queueMax = histMax(h)
		}
	}
	return t
}
