package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"dirsim/internal/coherence"
	"dirsim/internal/otrace"
	"dirsim/internal/server"
	"dirsim/internal/spec"
)

// repeatShare is the probability that a serve-mixed request repeats a
// spec the same client already had answered. Hits take about a tenth of
// the time fresh cells take; at an even mix the median request would fall
// in the gap between the two modes and jump between them from run to
// run, so a little under half the requests are repeats.
const repeatShare = 0.4

// goldenSpecs is how many of client 0's fresh specs the serve-mixed
// golden digest covers. Client 0's draws depend only on the seed, not on
// the machine's CPU count or speed.
const goldenSpecs = 8

// serveMixed drives one in-process daemon (no state dir, open tenant mode)
// with a closed loop of one client per CPU. Each client posts ?wait=1
// cells of the paper's four schemes; 40% repeat a spec the client had
// answered recently. The daemon keeps every finished job in its job
// table, so a repeat attaches to the finished job and is answered with
// its stored document; the result cache would answer it otherwise.
type serveMixed struct {
	cfg     config
	d       *daemon
	hc      *http.Client
	clients []*serveClient
	// recent is how many of its latest answered specs a client repeats:
	// CacheEntries / (2 × clients). Every spec a client may repeat was
	// answered fewer than CacheEntries fresh cells ago, so it is still in
	// the daemon's result cache even if the daemon no longer keeps the
	// finished job.
	recent int
	// Client-observed latency by kind, and refusals, over every phase.
	freshLat, hitLat []float64
	requests         int
	rejected         int
}

// servedSpec is one spec a client drew fresh, and what the daemon first
// answered for it.
type servedSpec struct {
	cell    spec.Cell
	hash    string   // the cell's content address
	bodySum [32]byte // sha256 of the first served document
	digest  string   // Stats digest of the first served document
}

// serveClient is one closed-loop caller. Its state is touched only by its
// own goroutine while a phase runs.
type serveClient struct {
	k     int
	ops   int // requests issued, over every phase; names traced operations
	rng   *rand.Rand
	specs []servedSpec
	done  []int // indices into specs whose first request succeeded
	// per-phase counters
	attempted, failed, refused int
	answered                   []answer
	freshLat, hitLat           []float64
	problems                   []string
}

// answer is one request answered correctly.
type answer struct {
	end     int64   // when the response was read, ns
	lat     float64 // ms
	simRefs float64 // references × schemes the daemon simulated for it
}

// serveShape is the closed loop's size on this machine: one client per
// CPU, the daemon's configuration for that many, and how many of its
// latest answered specs each client repeats.
func serveShape() (clients int, dc server.Config, recent int) {
	clients = runtime.NumCPU()
	dc = dirsimdConfig(clients)
	return clients, dc, max(dc.CacheEntries/(2*clients), 1)
}

func (s *serveMixed) setup(cfg config) error {
	s.cfg = cfg
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	n, dc, recent := serveShape()
	s.recent = recent
	if s.d, err = startDaemon(dc, ln); err != nil {
		return err
	}
	s.hc = newHTTPClient(n)
	if err := s.d.waitReady(s.hc); err != nil {
		return err
	}
	for k := 0; k < n; k++ {
		s.clients = append(s.clients, &serveClient{k: k, rng: rand.New(rand.NewSource(cfg.seed*1_000_003 + int64(k)))})
	}
	return nil
}

func (s *serveMixed) phase(ctx context.Context, d time.Duration, rec *recorder, o *outcome) phaseStats {
	var col *spanCollector
	if rec != nil {
		col = startCollector(rec, func(tr string) bool { return strings.HasPrefix(tr, "serve-") }, s.d.store)
	}
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	t0 := time.Now()
	for k := 0; k < len(s.clients); k++ {
		wg.Add(1)
		go func(c *serveClient) {
			defer wg.Done()
			c.loop(ctx, s, deadline, rec)
		}(s.clients[k])
	}
	wg.Wait()
	end := time.Now()
	if col != nil {
		col.finish()
	}
	// Answers fall into one-second windows by the time they were read;
	// those read after the last full second join the last window.
	nw := max(int(d/windowMin), 1)
	wins := make([]window, nw)
	for i := range wins {
		wins[i].start = t0.Add(time.Duration(i) * windowMin).UnixNano()
		wins[i].end = wins[i].start + int64(windowMin)
	}
	wins[nw-1].end = end.UnixNano()
	for i := range wins {
		wins[i].wall = time.Duration(wins[i].end - wins[i].start)
	}
	for _, c := range s.clients {
		o.attempted += c.attempted
		o.failed += c.failed
		o.refused += c.refused
		s.rejected += c.refused
		for _, p := range c.problems {
			o.problem("%s", p)
		}
		for _, a := range c.answered {
			w := &wins[min(int((a.end-t0.UnixNano())/int64(windowMin)), nw-1)]
			w.ops++
			w.simRefs += a.simRefs
			w.lat = append(w.lat, a.lat)
		}
		s.freshLat = append(s.freshLat, c.freshLat...)
		s.hitLat = append(s.hitLat, c.hitLat...)
		s.requests += c.attempted
		c.attempted, c.failed, c.refused = 0, 0, 0
		c.answered, c.freshLat, c.hitLat, c.problems = nil, nil, nil, nil
	}
	var ps phaseStats
	for _, w := range wins {
		ps.add(w)
	}
	return ps
}

// newSpec draws a fresh cell: a paper trace of 1k–5k references on four
// CPUs under a never-used seed, running the paper's four schemes.
func (c *serveClient) newSpec(sz sizes) (int, error) {
	name := gridTraces[c.rng.Intn(len(gridTraces))]
	refs := sz.ServeMinRefs + c.rng.Intn(sz.ServeMaxRefs-sz.ServeMinRefs+1)
	tcfg, err := spec.Preset(name, refs)
	if err != nil {
		return 0, err
	}
	tcfg.Seed = c.rng.Int63()
	cell := spec.Cell{Trace: tcfg, Schemes: paperSchemes, Machine: coherence.Config{Caches: tcfg.CPUs}}
	hash, err := cell.Hash()
	if err != nil {
		return 0, err
	}
	c.specs = append(c.specs, servedSpec{cell: cell, hash: hash})
	return len(c.specs) - 1, nil
}

func (c *serveClient) fail(format string, args ...any) {
	c.failed++
	if len(c.problems) < maxProblems {
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
	}
}

// loop issues requests until the deadline, each after the previous one
// was answered.
func (c *serveClient) loop(ctx context.Context, s *serveMixed, deadline time.Time, rec *recorder) {
	for ; time.Now().Before(deadline); c.ops++ {
		idx, fresh := 0, true
		if len(c.done) > 0 && c.rng.Float64() < repeatShare {
			recent := c.done[max(len(c.done)-s.recent, 0):]
			idx, fresh = recent[c.rng.Intn(len(recent))], false
		} else {
			var err error
			if idx, err = c.newSpec(s.cfg.sizes); err != nil {
				c.attempted++
				c.fail("serve-mixed: drawing a spec: %v", err)
				continue
			}
		}
		c.request(ctx, s, idx, fresh, fmt.Sprintf("serve-%d-%d", c.k, c.ops), rec)
	}
}

// request posts one cell and checks the answer. A fresh spec's document
// must pass checkServedDoc; a repeat must be byte-identical to the
// document first served for it.
func (c *serveClient) request(ctx context.Context, s *serveMixed, idx int, fresh bool, opID string, rec *recorder) {
	c.attempted++
	sp := &c.specs[idx]
	var rootSeq, httpSeq uint64
	if rec != nil {
		rootSeq, httpSeq = rec.reserve(), rec.reserve()
	}
	tEnc := nanotime()
	body, err := json.Marshal(spec.Request{Cell: &sp.cell})
	if err != nil {
		c.fail("serve-mixed: encoding request: %v", err)
		return
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.d.url+"/v1/jobs?wait=1", bytes.NewReader(body))
	if err != nil {
		c.fail("serve-mixed: %v", err)
		return
	}
	req.Header.Set("Content-Type", "application/json")
	if rec != nil {
		req.Header.Set(otrace.HeaderName, otrace.Context{Trace: opID, Span: spanID(httpSeq)}.String())
	}
	t0 := nanotime()
	resp, err := s.hc.Do(req)
	var data []byte
	status := 0
	if err == nil {
		status = resp.StatusCode
		data, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	t1 := nanotime()
	if rec != nil {
		rec.put(rootSeq, opID, "", "client", tEnc, t1)
		rec.put(rec.reserve(), opID, spanID(rootSeq), "spec", tEnc, t0)
		rec.put(httpSeq, opID, spanID(rootSeq), "server", t0, t1)
	}
	switch {
	case err != nil:
		c.fail("serve-mixed %s: %v", sp.cell.Label(), err)
		return
	case status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable:
		c.refused++
		c.fail("serve-mixed %s: refused with status %d: %.200s", sp.cell.Label(), status, data)
		return
	case status != http.StatusOK:
		c.fail("serve-mixed %s: status %d: %.200s", sp.cell.Label(), status, data)
		return
	}
	sum := sha256.Sum256(data)
	simRefs := 0.0
	if !fresh {
		if sum != sp.bodySum {
			c.fail("serve-mixed %s: repeat answered with a different document", sp.cell.Label())
			return
		}
		c.hitLat = append(c.hitLat, float64(t1-t0)/1e6)
	} else {
		var doc spec.ResultDoc
		if err := json.Unmarshal(data, &doc); err != nil {
			c.fail("serve-mixed %s: decoding document: %v", sp.cell.Label(), err)
			return
		}
		digest, err := checkServedDoc(&doc, sp.cell, sp.hash)
		if err != nil {
			c.fail("serve-mixed %s: %v", sp.cell.Label(), err)
			return
		}
		sp.bodySum, sp.digest = sum, digest
		c.done = append(c.done, idx)
		c.freshLat = append(c.freshLat, float64(t1-t0)/1e6)
		simRefs = float64(sp.cell.Trace.Refs * len(sp.cell.Schemes))
	}
	c.answered = append(c.answered, answer{end: t1, lat: float64(t1-t0) / 1e6, simRefs: simRefs})
}

// finish compares every served fresh document's Stats with a local run of
// the same cell, then checks client 0's golden prefix.
func (s *serveMixed) finish(ctx context.Context, cfg config, o *outcome) {
	var cells []spec.Cell
	var served []string
	for _, c := range s.clients {
		for _, i := range c.done {
			cells = append(cells, c.specs[i].cell)
			served = append(served, c.specs[i].digest)
		}
	}
	local, err := localDigests(ctx, cells)
	if err != nil {
		o.failRun("serve-mixed local reference runs: %v", err)
		return
	}
	for i := range cells {
		if local[i] != served[i] {
			o.fail("serve-mixed %s: served Stats differ from a local run", cells[i].Label())
		}
	}
	o.note("serve-mixed: %d fresh documents matched local runs", len(cells))
	c0 := s.clients[0]
	if len(c0.specs) < goldenSpecs {
		o.note("client 0 drew only %d specs; golden digest not checked", len(c0.specs))
		return
	}
	parts := make([]string, goldenSpecs)
	for i := range parts {
		parts[i] = c0.specs[i].digest
	}
	checkGolden(cfg, digestOf(parts), o)
}

func (s *serveMixed) layerValues(o *outcome) {
	t := totals(s.d)
	o.values["server.admit_wait_p50_ms"] = histQuantile(t.admitWait, 0.5)
	o.values["server.queue_depth_max"] = t.queueMax
	o.values["server.requests"] = float64(s.requests)
	o.values["server.cache_hit_ratio"] = 1 - float64(t.simulated)/float64(max(s.requests, 1))
	o.values["server.rejected"] = float64(s.rejected)
	o.values["server.fresh_p50_ms"] = median(s.freshLat)
	o.values["server.hit_p50_ms"] = median(s.hitLat)
	o.values["runner.retries"] = float64(t.retries)
	o.values["runner.failures"] = float64(t.failures)
	// The daemon's executors run cells in their own pool; the benchmark
	// runs no runner pool of its own on this workload.
	o.values["runner.busy_frac"] = 0
}

func (s *serveMixed) sample() layerSample {
	var ls layerSample
	for _, c := range s.clients {
		for _, i := range c.done {
			if len(ls.cells) == 64 {
				break
			}
			ls.cells = append(ls.cells, c.specs[i].cell)
			ls.traces = append(ls.traces, c.specs[i].cell.Trace)
		}
	}
	return ls
}

func (s *serveMixed) close() error {
	if s.d == nil {
		return nil
	}
	s.hc.CloseIdleConnections()
	err := s.d.stop()
	s.d = nil
	return err
}
