package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"dirsim/internal/runner"
	"dirsim/internal/sim"
	"dirsim/internal/spec"
	"dirsim/internal/study"
	"dirsim/internal/trace"
)

var (
	gridTraces      = []string{"pops", "thor", "pero"}
	gridCPUs        = []int{4, 16}
	paperSchemes    = []string{"dir1nb", "wti", "dir0b", "dragon"}
	section6Schemes = []string{"dir1b", "dir2nb", "dirnnb", "codedset"}
	aloneSchemes    = []string{"dir0b"}
)

// dir0bSlot is dir0b's position in paperSchemes.
const dir0bSlot = 2

// gridCells is the paper's evaluation grid as cmd/sweep builds it: each
// trace × machine size, run once per scheme set. The three sets share one
// trace seed per (trace, cpus) point, so the dir0b-alone cell simulates
// exactly the trace the paper set's dir0b slot does.
func gridCells(seed int64, refs int) ([]spec.Cell, error) {
	seeds := study.Seeds(seed, len(gridTraces)*len(gridCPUs))
	var cells []spec.Cell
	for _, set := range [][]string{paperSchemes, section6Schemes, aloneSchemes} {
		sw := spec.Sweep{Workloads: gridTraces, Schemes: set, CPUs: gridCPUs, Refs: refs, Seeds: 1}
		cs, err := sw.Cells()
		if err != nil {
			return nil, err
		}
		for i := range cs {
			cs[i].Trace.Seed = seeds[i]
		}
		cells = append(cells, cs...)
	}
	return cells, nil
}

// stampEvery is how many references pass between two timestamps of a
// traced cell's reader.
const stampEvery = 256

// stampedReader timestamps every stampEvery-th reference a traced cell
// pulls from its generator. The driver pulls a whole batch, then applies
// it to the engines and reports progress; with the progress callback's
// running count, the stamps split each batch into its pull (generation
// and decode) and its apply.
type stampedReader struct {
	rd     trace.Reader
	n      int
	stamps []int64 // stamps[k] is the time reference (k+1)*stampEvery was pulled
	eof    int64
}

func (r *stampedReader) Next() (trace.Ref, error) {
	ref, err := r.rd.Next()
	if err != nil {
		r.eof = nanotime()
		return ref, err
	}
	r.n++
	if r.n%stampEvery == 0 {
		r.stamps = append(r.stamps, nanotime())
	}
	return ref, nil
}

// pulled is when the reader had handed out its first refs references.
func (r *stampedReader) pulled(refs int) int64 {
	if k := refs / stampEvery; refs%stampEvery == 0 && k > 0 && k <= len(r.stamps) {
		return r.stamps[k-1]
	}
	return r.eof
}

// cellTrace is what a traced cell recorded: when its generator was
// opened, and each batch's pull end and progress report.
type cellTrace struct {
	opened   int64
	rd       *stampedReader
	progress []int64
	refs     []int // running reference count at each progress report
	total    int
}

// runnerRetry is cmd/sweep's default retry policy.
func runnerRetry() runner.RetryPolicy {
	return runner.RetryPolicy{Max: 3, Base: 100 * time.Millisecond, Seed: 1}
}

func nanotime() int64 { return time.Now().UnixNano() }

// offlineGrid runs the grid through spec.Cell.Job and runner.Run with one
// worker per CPU, pass after pass, until the phase ends.
type offlineGrid struct {
	cells []spec.Cell
	jobs  []runner.Job
	// Per-job timing slots, written by the worker running the job and read
	// after runner.Run returns.
	starts, ends []int64
	attempts     []int
	// traced makes each job record a cellTrace (traced passes).
	traced bool
	cellTr []cellTrace

	passes   int
	digests  []string // per-cell Stats digests of the first pass
	busyNS   float64  // summed cell time
	capNS    float64  // workers × pass wall time
	retries  int
	failures int
}

func (g *offlineGrid) setup(cfg config) error {
	cells, err := gridCells(cfg.seed, cfg.sizes.GridRefs)
	if err != nil {
		return err
	}
	n := len(cells)
	g.cells = cells
	g.jobs = make([]runner.Job, n)
	g.starts, g.ends = make([]int64, n), make([]int64, n)
	g.attempts = make([]int, n)
	g.cellTr = make([]cellTrace, n)
	for i, c := range cells {
		j, err := c.Job()
		if err != nil {
			return err
		}
		open := j.Source
		j.Source = func() (trace.Reader, error) {
			g.attempts[i]++
			g.starts[i] = nanotime()
			rd, err := open()
			if err != nil || !g.traced {
				return rd, err
			}
			sr := &stampedReader{rd: rd}
			g.cellTr[i] = cellTrace{opened: nanotime(), rd: sr}
			return sr, nil
		}
		// The driver reports progress after each batch is applied, so the
		// last call marks the end of the cell's simulation.
		j.Opts.OnProgress = func(n int) {
			now := nanotime()
			g.ends[i] = now
			if ct := &g.cellTr[i]; g.traced {
				ct.total += n
				ct.progress = append(ct.progress, now)
				ct.refs = append(ct.refs, ct.total)
			}
		}
		g.jobs[i] = j
	}
	return nil
}

func (g *offlineGrid) phase(ctx context.Context, d time.Duration, rec *recorder, o *outcome) phaseStats {
	var ps phaseStats
	g.traced = rec != nil
	workers := runtime.NumCPU()
	deadline := time.Now().Add(d)
	for first := true; first || time.Now().Before(deadline); first = false {
		clear(g.attempts)
		t0 := time.Now()
		rss, _ := runner.Run(ctx, g.jobs, runner.Options{
			Workers: workers,
			Retry:   runnerRetry(),
			Sleep:   time.Sleep,
		})
		win := window{start: t0.UnixNano(), end: nanotime()}
		win.wall = time.Duration(win.end - win.start)
		g.capNS += float64(workers) * float64(win.wall)
		o.attempted += len(g.jobs)
		for i := range g.jobs {
			g.retries += max(g.attempts[i]-1, 0)
			if rss[i] == nil {
				g.failures++
				o.fail("offline-grid pass %d: cell %s failed", g.passes, g.cells[i].Label())
				continue
			}
			lat := g.ends[i] - g.starts[i]
			win.lat = append(win.lat, float64(lat)/1e6)
			g.busyNS += float64(lat)
			win.ops++
			for _, r := range rss[i] {
				win.simRefs += float64(r.Stats.Refs)
			}
			if rec != nil {
				g.recordCell(rec, fmt.Sprintf("grid-%d-%d", g.passes, i), i)
			}
		}
		ps.add(win)
		g.checkPass(rss, o)
		g.passes++
	}
	return ps
}

// recordCell turns a traced cell's stamps into spans: the generator's
// opening and each batch's pull as tracegen (the pull also runs the
// driver's decode and intern), each batch's apply as sim.
func (g *offlineGrid) recordCell(rec *recorder, id string, i int) {
	ct := g.cellTr[i]
	root := rec.add(id, "", "runner", g.starts[i], g.ends[i])
	rec.add(id, root, "tracegen", g.starts[i], ct.opened)
	prev := ct.opened
	for b, done := range ct.progress {
		pulled := min(max(ct.rd.pulled(ct.refs[b]), prev), done)
		rec.add(id, root, "tracegen", prev, pulled)
		rec.add(id, root, "sim", pulled, done)
		prev = done
	}
	g.cellTr[i] = cellTrace{}
}

// checkPass is the grid's oracle: accounting on every result, the same
// Stats on every pass, and dir0b alone equal to the paper set's dir0b
// slot over the same trace.
func (g *offlineGrid) checkPass(rss [][]sim.Result, o *outcome) {
	digests := make([]string, len(rss))
	for i, rs := range rss {
		if rs == nil {
			continue
		}
		if err := verifyAccounting(rs, len(g.cells[i].Schemes)); err != nil {
			o.fail("offline-grid cell %s: %v", g.cells[i].Label(), err)
			continue
		}
		d, err := statsDigest(localResults(rs))
		if err != nil {
			o.fail("offline-grid cell %s: %v", g.cells[i].Label(), err)
			continue
		}
		digests[i] = d
		if g.digests != nil && g.digests[i] != d {
			o.fail("offline-grid cell %s: Stats differ from the first pass", g.cells[i].Label())
		}
	}
	points := len(gridTraces) * len(gridCPUs)
	for p := 0; p < points; p++ {
		lock, alone := rss[p], rss[2*points+p]
		if lock == nil || alone == nil {
			continue
		}
		a, err1 := statsDigest(localResults(lock[dir0bSlot : dir0bSlot+1]))
		b, err2 := statsDigest(localResults(alone))
		if err1 != nil || err2 != nil || a != b {
			o.fail("offline-grid %s: dir0b alone differs from the lockstep dir0b slot", g.cells[p].Label())
		}
	}
	if g.digests == nil {
		g.digests = digests
	}
}

func (g *offlineGrid) finish(_ context.Context, cfg config, o *outcome) {
	checkGolden(cfg, digestOf(g.digests), o)
}

func (g *offlineGrid) layerValues(o *outcome) {
	o.values["runner.busy_frac"] = g.busyNS / g.capNS
	o.values["runner.retries"] = float64(g.retries)
	o.values["runner.failures"] = float64(g.failures)
	// No daemon serves this workload.
	for _, name := range []string{"server.admit_wait_p50_ms", "server.queue_depth_max", "server.cache_hit_ratio",
		"server.requests", "server.rejected", "server.fresh_p50_ms", "server.hit_p50_ms"} {
		o.values[name] = 0
	}
}

func (g *offlineGrid) sample() layerSample {
	s := layerSample{cells: g.cells}
	points := len(gridTraces) * len(gridCPUs)
	for _, c := range g.cells[:points] {
		s.traces = append(s.traces, c.Trace)
	}
	return s
}

func (g *offlineGrid) close() error { return nil }
