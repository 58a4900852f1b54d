package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"time"
)

// bench is one workload. The driver builds it Setups times (timing each
// build as setup_s) and keeps the last build for the timed phases.
type bench interface {
	// setup builds the workload's inputs and services until the first
	// operation can be issued.
	setup(cfg config) error
	// phase issues operations until d has elapsed, recording spans into
	// rec when it is non-nil, and counts attempts and failures into o.
	phase(ctx context.Context, d time.Duration, rec *recorder, o *outcome) phaseStats
	// finish runs the oracle over everything the phases produced.
	finish(ctx context.Context, cfg config, o *outcome)
	// layerValues adds the per-layer values only the live workload can
	// observe (daemon metrics, pool occupancy).
	layerValues(o *outcome)
	// sample returns the inputs the layer microbenchmarks run on.
	sample() layerSample
	// close stops every service and goroutine the workload started.
	close() error
}

var workloads = map[string]func() bench{
	"offline-grid": func() bench { return &offlineGrid{} },
	"serve-mixed":  func() bench { return &serveMixed{} },
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// window is a stretch of a timed phase — a pass of the grid or a second
// of requests. Rates and latencies are medians over windows, so that a
// short stall of the machine moves them little.
type window struct {
	start, end int64 // ns
	wall       time.Duration
	ops        int
	simRefs    float64   // references × schemes simulated
	lat        []float64 // per-operation latency, ms
	steal      float64   // share of the machine's CPU time the host took
}

// stealMax is the share of the machine's CPU time the host may take from
// it during a window before the window is left out of the rates and
// latencies: on a shared host, other machines run on these CPUs in
// bursts, and a window they hit measures them, not the program.
const stealMax = 0.05

// windowMin is the length of a window of requests.
const windowMin = time.Second

// phaseStats is what one timed phase measured.
type phaseStats struct {
	windows []window
	wall    time.Duration // time spent issuing operations
	ops     int           // operations completed
	simRefs float64
	lat     []float64 // every operation's latency, ms
	rt      runtimeDelta
	steal   float64 // share of the machine's CPU time the host took
}

// add closes a window into the phase totals.
func (p *phaseStats) add(w window) {
	p.windows = append(p.windows, w)
	p.wall += w.wall
	p.ops += w.ops
	p.simRefs += w.simRefs
	p.lat = append(p.lat, w.lat...)
}

// merge adds another phase's windows and runtime deltas.
func (p *phaseStats) merge(q phaseStats) {
	for _, w := range q.windows {
		p.add(w)
	}
	p.rt.gcCPU += q.rt.gcCPU
	p.rt.totalCPU += q.rt.totalCPU
	p.rt.allocBytes += q.rt.allocBytes
	p.rt.allocObj += q.rt.allocObj
	p.rt.peakHeap = max(p.rt.peakHeap, q.rt.peakHeap)
}

// kept returns the windows the rates and latencies are taken over: those
// in which the host took at most stealMax of the machine's CPU time. Where
// more than half the windows are above it, the half with the least steal
// is kept instead, so that every figure rests on at least half the phase.
func (p phaseStats) kept() []window {
	var out []window
	for _, w := range p.windows {
		if w.steal <= stealMax {
			out = append(out, w)
		}
	}
	if half := (len(p.windows) + 1) / 2; len(out) < half {
		out = append([]window(nil), p.windows...)
		sort.SliceStable(out, func(i, j int) bool { return out[i].steal < out[j].steal })
		out = out[:half]
	}
	return out
}

// rates returns the median over the kept windows of operations and of
// simulated Mrefs per wall-clock second.
func (p phaseStats) rates() (ops, mrefs float64) {
	var o, m []float64
	for _, w := range p.kept() {
		if sec := w.wall.Seconds(); sec > 0 {
			o = append(o, float64(w.ops)/sec)
			m = append(m, w.simRefs/sec/1e6)
		}
	}
	return median(o), median(m)
}

// latencyQuantiles returns the median and 90th percentile wall-clock
// latency over the kept windows: the median over windows of each window's
// own quantiles where every window holds at least 100 operations (10
// beyond its 90th percentile), and the quantiles of the pooled sample
// otherwise.
func (p phaseStats) latencyQuantiles() (p50, p90 float64) {
	var a, b, pooled []float64
	perWindow := true
	for _, w := range p.kept() {
		perWindow = perWindow && len(w.lat) >= 100
		pooled = append(pooled, w.lat...)
		a = append(a, median(w.lat))
		b = append(b, percentile(w.lat, 0.9))
	}
	if !perWindow {
		return median(pooled), percentile(pooled, 0.9)
	}
	return median(a), median(b)
}

// windowNote lists each window's wall-clock operation rate and the host's
// steal share, marking with * the windows left out.
func (p phaseStats) windowNote() string {
	keep := map[int64]bool{}
	for _, w := range p.kept() {
		keep[w.start] = true
	}
	parts := make([]string, len(p.windows))
	for i, w := range p.windows {
		mark := ""
		if !keep[w.start] {
			mark = "*"
		}
		parts[i] = fmt.Sprintf("%.4g@%.1f%%%s", float64(w.ops)/w.wall.Seconds(), 100*w.steal, mark)
	}
	return strings.Join(parts, " ")
}

// outcome accumulates a run's values and the oracle's verdicts.
type outcome struct {
	values    map[string]float64
	attempted int
	failed    int // failed or refused operations
	refused   int // of failed, the operations the daemon refused (429, 503)
	problems  []string
	global    bool // a whole-run check (golden digest, span file) failed
	notes     []string
	spans     *recorder
	selfRows  []selfRow
}

// maxProblems bounds how many oracle messages a run keeps.
const maxProblems = 20

func (o *outcome) problem(format string, args ...any) {
	if len(o.problems) < maxProblems {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// fail records one failed operation.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	o.problem(format, args...)
}

// failRun records a failed whole-run check.
func (o *outcome) failRun(format string, args ...any) {
	o.global = true
	o.problem(format, args...)
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// correct is the oracle's verdict on the outputs. A refused operation has
// no output: it counts in failed, not against correct.
func (o *outcome) correct() bool { return o.failed == o.refused && !o.global }

// unaccountedTolerance is the share of the untraced latency_p50_ms by which
// the traced layer self times along the blocking path may differ from it.
const unaccountedTolerance = 0.25

// measure runs one workload end to end and fills every metric of its mode.
// It gives up with an error once ctx is done.
func measure(ctx context.Context, cfg config) (o *outcome, err error) {
	o = &outcome{values: map[string]float64{}}
	var b bench
	defer func() {
		if b != nil {
			if cerr := b.close(); cerr != nil && err == nil {
				err = fmt.Errorf("closing workload: %w", cerr)
			}
		}
	}()
	overran := func(stage string) error {
		if ctx.Err() == nil {
			return nil
		}
		return fmt.Errorf("run overran its time budget during %s: %w", stage, context.Cause(ctx))
	}
	setups := make([]float64, 0, cfg.sizes.Setups)
	for i := 0; i < max(cfg.sizes.Setups, 1); i++ {
		if b != nil {
			if err := b.close(); err != nil {
				return nil, fmt.Errorf("closing setup %d: %w", i-1, err)
			}
		}
		b = workloads[cfg.workload]()
		runtime.GC()
		t0 := time.Now()
		if err := b.setup(cfg); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if err := overran("setup"); err != nil {
			return nil, err
		}
	}
	o.values["setup_s"] = median(setups)
	q1, _, q3 := quartiles(setups)
	o.note("setup_s is the median of %d setups (quartiles %.4g s and %.4g s)", len(setups), q1, q3)

	if !cfg.traced {
		ps := runPhase(ctx, b, cfg.duration, nil, o)
		if err := overran("the timed phase"); err != nil {
			return nil, err
		}
		if ps.ops == 0 {
			return nil, fmt.Errorf("no operation completed in %v", cfg.duration)
		}
		o.values["ops_per_s"], o.values["engine_mrefs_per_s"] = ps.rates()
		o.values["latency_p50_ms"], o.values["latency_p90_ms"] = ps.latencyQuantiles()
		if len(ps.lat) < 100 {
			o.note("latency_p90_ms comes from %d operations, fewer than the 100 that leave 10 beyond it", len(ps.lat))
		}
		o.note("%d operations timed over %.3fs in %d windows, %d kept; rates and latencies are wall-clock medians over the kept windows (host steal at most %.0f%%, or the least-stolen half)",
			len(ps.lat), ps.wall.Seconds(), len(ps.windows), len(ps.kept()), 100*stealMax)
		o.note("wall-clock ops_per_s@host steal by window (* = left out): %s", ps.windowNote())
		o.note("the host took %.1f%% of the machine's CPU time during the timed phase", 100*ps.steal)
		o.note("peak Go heap in the timed phase %.1f MB", float64(ps.rt.peakHeap)/1e6)
		b.finish(ctx, cfg, o)
		if err := overran("the output check"); err != nil {
			return nil, err
		}
		o.note("peak resident set of the process %.1f MB", maxRSSMB())
		return o, nil
	}

	// The untraced and traced halves alternate in quarters, so that drift
	// over the run — warm-up, a heap that grows with the daemon's job
	// table — falls on both alike.
	var plain, traced phaseStats
	o.spans = &recorder{}
	quarter := cfg.duration / 4
	for q := 0; q < 4; q++ {
		d := quarter
		if q == 3 {
			d = cfg.duration - 3*quarter
		}
		if q%2 == 0 {
			plain.merge(runPhase(ctx, b, d, nil, o))
		} else {
			traced.merge(runPhase(ctx, b, d, o.spans, o))
		}
	}
	if err := overran("the timed phases"); err != nil {
		return nil, err
	}
	if plain.ops == 0 || traced.ops == 0 {
		return nil, fmt.Errorf("no operation completed in one of the halves of %v", cfg.duration)
	}
	b.finish(ctx, cfg, o)
	if err := overran("the output check"); err != nil {
		return nil, err
	}
	o.values["runtime.gc_cpu_frac"] = plain.rt.gcCPU / math.Max(plain.rt.totalCPU, 1e-9)
	o.values["runtime.alloc_bytes_per_op"] = plain.rt.allocBytes / float64(plain.ops)
	o.values["runtime.allocs_per_op"] = plain.rt.allocObj / float64(plain.ops)
	o.values["runtime.mem_peak_mb"] = float64(plain.rt.peakHeap) / 1e6
	tracedRate, _ := traced.rates()
	plainRate, _ := plain.rates()
	o.values["trace.overhead_frac"] = 1 - tracedRate/plainRate
	b.layerValues(o)
	if err := microbenchmarks(ctx, cfg, b.sample(), o); err != nil {
		return nil, fmt.Errorf("layer microbenchmarks: %w", err)
	}
	path, err := o.spans.export(cfg)
	if err != nil {
		return nil, err
	}
	o.note("spans written to %s", path)
	if err := checkSpanFile(cfg.tracecheck, path); err != nil {
		o.failRun("span file rejected: %v", err)
	} else if cfg.tracecheck != "" {
		o.note("tracecheck -format spans accepted %s", path)
	}
	rows, layers := selfTimes(o.spans.all())
	o.selfRows = rows
	checkAccounted(o, layers, median(plain.lat), median(traced.lat), cfg.sizes == defaultSizes())
	if err := overran("the layer measurements"); err != nil {
		return nil, err
	}
	return o, nil
}

// checkAccounted holds the layer self times along the blocking path
// (median per operation, ms, from the traced quarters) against the
// untraced quarters' wall-clock latency median p50. Time an operation
// spends outside every layer span — the root's own self time — is not in
// layers, so a layer call the benchmark stops timing shows as a gap, as
// does a traced operation that runs at another speed than an untraced
// one. A gap above unaccountedTolerance fails the run where enforce is
// set: at the default sizes. The tests' tiny operations last a few
// milliseconds, too short for per-operation wall time to be steady, so
// there the gap is reported only.
func checkAccounted(o *outcome, layers, p50, tracedP50 float64, enforce bool) {
	gap := math.Abs(layers-p50) / p50
	o.values["trace.unaccounted_frac"] = gap
	o.note("layer self times along the blocking path sum to %.4g ms per operation (median); untraced latency_p50_ms is %.4g ms (traced %.4g ms); gap %.3f, tolerance %.2f",
		layers, p50, tracedP50, gap, unaccountedTolerance)
	if enforce && gap > unaccountedTolerance {
		o.failRun("layer self times (%.4g ms per operation) do not account for the untraced latency_p50_ms (%.4g ms): gap %.3f is above %.2f",
			layers, p50, gap, unaccountedTolerance)
	}
}

// runPhase brackets one timed phase with a garbage collection and the
// runtime probe.
func runPhase(ctx context.Context, b bench, d time.Duration, rec *recorder, o *outcome) phaseStats {
	runtime.GC()
	probe := startProbe()
	steal := startSteal()
	ps := b.phase(ctx, d, rec, o)
	steal.end()
	ps.rt = probe.end()
	for i := range ps.windows {
		w := &ps.windows[i]
		w.steal = steal.between(w.start, w.end)
	}
	ps.steal = steal.between(0, math.MaxInt64)
	return ps
}
